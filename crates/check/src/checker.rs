//! The persistency-ordering checker: an [`Observer`] that replays the probe
//! stream through a shadow happens-before model of the write queue, staging
//! register, counter-write coalescer, and re-encryption status register,
//! and reports every invariant violation it finds.

use crate::rules::Rule;
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;

use supermem_sim::{json_escape, Config, CounterCacheMode, Cycle, Event, Observer};

/// How many trailing events the checker retains as the context window
/// attached to each violation.
const WINDOW_CAP: usize = 16;

/// Which invariants are live for a given machine configuration.
///
/// The checker is configuration-aware: a write-back design legitimately
/// persists data without co-enqueued counters, and an unencrypted machine
/// has no counters at all, so P1/P2/P3 and the R rules only arm when the
/// configuration actually promises those orderings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckerMode {
    /// Counters are persisted write-through (arms P1 and P3).
    pub write_through: bool,
    /// The 2-line staging register is in use (arms P2).
    pub atomic_pair: bool,
    /// Encryption is on at all (arms the R rules).
    pub encryption: bool,
    /// Cache-line size in bytes (data address → page mapping).
    pub line_bytes: u64,
    /// Page size in bytes (data address → page mapping).
    pub page_bytes: u64,
    /// Interleaved memory channels; the staging register, coalescer,
    /// and RSR are per-channel hardware, so their shadows shard too.
    pub channels: usize,
    /// The streaming integrity tree is live (arms the T rules).
    pub streaming_tree: bool,
    /// Pages covered by the integrity tree (T2 scope).
    pub integrity_pages: u64,
}

impl CheckerMode {
    /// Derive the live rule set from a simulator [`Config`].
    pub fn from_config(cfg: &Config) -> Self {
        CheckerMode {
            write_through: cfg.encryption
                && cfg.counter_cache_mode == CounterCacheMode::WriteThrough,
            atomic_pair: cfg.atomic_pair_append,
            encryption: cfg.encryption,
            line_bytes: cfg.line_bytes,
            page_bytes: cfg.page_bytes,
            channels: cfg.channels,
            streaming_tree: cfg.streaming_tree(),
            integrity_pages: cfg.integrity_pages,
        }
    }

    /// A mode with every base-catalog rule armed, for unit-testing the
    /// checker itself. The T rules stay off (they require the streaming
    /// tree's event vocabulary); tree tests arm them explicitly.
    pub fn strict() -> Self {
        CheckerMode {
            write_through: true,
            atomic_pair: true,
            encryption: true,
            line_bytes: 64,
            page_bytes: 4096,
            channels: 1,
            streaming_tree: false,
            integrity_pages: 0,
        }
    }

    fn page_of(&self, line_addr: u64) -> u64 {
        line_addr / self.page_bytes
    }

    fn line_index_in_page(&self, line_addr: u64) -> u32 {
        ((line_addr % self.page_bytes) / self.line_bytes) as u32
    }

    /// The channel owning a (counter) page: pages interleave round-robin.
    fn channel_of_page(&self, page: u64) -> usize {
        (page % self.channels.max(1) as u64) as usize
    }

    /// The channel owning a data line address.
    fn channel_of_line(&self, line_addr: u64) -> usize {
        self.channel_of_page(self.page_of(line_addr))
    }
}

/// One detected invariant violation, with the event window that led to it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The rule that was broken.
    pub rule: Rule,
    /// Cycle at which the violation was detected.
    pub at: Cycle,
    /// Human-readable description of what went wrong.
    pub message: String,
    /// The last few events before detection, as `(ordinal, event)` pairs
    /// (ordinal = position in the full stream, starting at 1).
    pub window: Vec<(u64, String)>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}) at cycle {}: {}",
            self.rule,
            self.rule.paper_ref(),
            self.at,
            self.message
        )
    }
}

/// The outcome of one checked run.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// Every violation, in detection order.
    pub violations: Vec<Violation>,
    /// Total events consumed.
    pub events_seen: u64,
}

impl CheckReport {
    /// `true` when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Render the report as a JSON object (no external dependencies).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        s.push_str(&format!(
            "\"events_seen\":{},\"clean\":{},\"violations\":[",
            self.events_seen,
            self.is_clean()
        ));
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"rule\":\"{}\",\"paper_ref\":\"{}\",\"at\":{},\"message\":\"{}\",\"window\":[",
                v.rule,
                v.rule.paper_ref(),
                v.at,
                json_escape(&v.message)
            ));
            for (j, (ord, ev)) in v.window.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&format!(
                    "{{\"ordinal\":{ord},\"event\":\"{}\"}}",
                    json_escape(ev)
                ));
            }
            s.push_str("]}");
        }
        s.push_str("]}");
        s
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "clean ({} events)", self.events_seen);
        }
        writeln!(
            f,
            "{} violation(s) in {} events:",
            self.violations.len(),
            self.events_seen
        )?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
            for (ord, ev) in &v.window {
                writeln!(f, "    #{ord} {ev}")?;
            }
        }
        Ok(())
    }
}

/// In-flight state of the 2-line staging register (P2).
#[derive(Debug, Clone)]
struct StageState {
    line: u64,
    page: u64,
    at: Cycle,
    got_counter: bool,
}

/// Shadow of one live re-encryption (R rules).
#[derive(Debug, Clone)]
struct RsrTrack {
    page: u64,
    started_at: Cycle,
    marked: BTreeSet<u32>,
    rewrites: BTreeSet<u32>,
    done: bool,
    done_lines: u32,
    counter_since_done: bool,
    /// R3 already reported the missing done-bits; don't cascade into R4.
    marks_reported: bool,
}

/// The checker itself: attach to a run's probe hub, then call
/// [`Checker::take_report`] when the run ends.
#[derive(Debug, Clone)]
pub struct Checker {
    mode: CheckerMode,
    window: VecDeque<(u64, String)>,
    events_seen: u64,
    violations: Vec<Violation>,
    /// P1: counter lines enqueued but not yet "spent" by a data line of the
    /// same page (atomic pairs balance exactly; surpluses carry over).
    credits: HashMap<u64, u64>,
    /// P1: data pages persisted since the last counter enqueue/sfence, still
    /// owed a counter before the next sfence retires. Armed globally: the
    /// write queues are shared hardware, so a data line one core persisted
    /// without its counter is exposed by *any* core's retiring fence, not
    /// just the enqueuer's — which is exactly how shared lock-free
    /// structures order their publications.
    awaiting: BTreeMap<u64, Cycle>,
    /// Shadow write queue: pending counter entry seqs per counter page.
    pending_counter: HashMap<u64, Vec<u64>>,
    /// Shadow write queue: pending data entry seqs per line address.
    pending_data: HashMap<u64, Vec<u64>>,
    /// Per-channel staging registers (the 2-line register is per-channel
    /// hardware; appends from different channels legally interleave).
    stage: Vec<Option<StageState>>,
    /// P3, per channel: a coalesce happened; the superseding counter
    /// enqueue must follow on the same channel.
    coalesce_open: Vec<Option<(u64, Cycle)>>,
    /// Per-channel re-encryption status registers.
    rsr: Vec<Option<RsrTrack>>,
    /// T1: leaf pages with an armed (not yet propagated) streaming-tree
    /// update, keyed to the first arming cycle.
    tree_armed: BTreeMap<u64, Cycle>,
    /// T2: outstanding TreeArm credits per counter page (one per
    /// counter write; the page's counter enqueue consumes one).
    tree_credit: HashMap<u64, u64>,
    /// T3: propagated leaves not yet matched by a root-register update.
    root_due: u64,
}

impl Checker {
    /// Create a checker armed for the given machine mode.
    pub fn new(mode: CheckerMode) -> Self {
        let channels = mode.channels.max(1);
        Checker {
            mode,
            window: VecDeque::with_capacity(WINDOW_CAP),
            events_seen: 0,
            violations: Vec::new(),
            credits: HashMap::new(),
            awaiting: BTreeMap::new(),
            pending_counter: HashMap::new(),
            pending_data: HashMap::new(),
            stage: vec![None; channels],
            coalesce_open: vec![None; channels],
            rsr: vec![None; channels],
            tree_armed: BTreeMap::new(),
            tree_credit: HashMap::new(),
            root_due: 0,
        }
    }

    /// Create a checker for a simulator [`Config`].
    pub fn for_config(cfg: &Config) -> Self {
        Checker::new(CheckerMode::from_config(cfg))
    }

    fn violate(&mut self, rule: Rule, at: Cycle, message: String) {
        self.violations.push(Violation {
            rule,
            at,
            message,
            window: self.window.iter().cloned().collect(),
        });
    }

    fn handle_enqueue(&mut self, counter: bool, addr: u64, seq: u64, at: Cycle) {
        let ch = if counter {
            self.mode.channel_of_page(addr)
        } else {
            self.mode.channel_of_line(addr)
        };

        // P3b: a coalesce must be immediately superseded by the newer
        // counter entry for the same page; any other enqueue on the same
        // channel first means the newest counter was the one dropped.
        if let Some((page, copen_at)) = self.coalesce_open[ch].take() {
            if !(counter && addr == page) {
                self.violate(
                    Rule::P3,
                    at,
                    format!(
                        "coalesce on counter page {page} at cycle {copen_at} was not \
                         followed by the superseding counter enqueue (next append: \
                         {} {addr:#x})",
                        if counter { "counter" } else { "data" }
                    ),
                );
            }
        }

        // P2: while a channel's staged pair is latched, that channel's
        // next two enqueues must be exactly counter(page)@at then
        // data(line)@at.
        if self.mode.atomic_pair {
            if let Some(stage) = self.stage[ch].clone() {
                if !stage.got_counter {
                    if counter && addr == stage.page && at == stage.at {
                        self.stage[ch].as_mut().expect("stage present").got_counter = true;
                    } else {
                        self.violate(
                            Rule::P2,
                            at,
                            format!(
                                "staging register latched line {:#x}+counter page {} at \
                                 cycle {}, but the next append was {} {addr:#x} at cycle \
                                 {at} instead of the staged counter",
                                stage.line,
                                stage.page,
                                stage.at,
                                if counter { "counter" } else { "data" }
                            ),
                        );
                        self.stage[ch] = None;
                    }
                } else if !counter && addr == stage.line && at == stage.at {
                    self.stage[ch] = None; // pair completed atomically
                } else {
                    self.violate(
                        Rule::P2,
                        at,
                        format!(
                            "staged pair for line {:#x} was split: counter appended at \
                             cycle {} but the following append was {} {addr:#x} at cycle \
                             {at} (expected the data line at the same cycle)",
                            stage.line,
                            stage.at,
                            if counter { "counter" } else { "data" }
                        ),
                    );
                    self.stage[ch] = None;
                }
            }
        }

        // Shadow queue bookkeeping.
        if counter {
            self.pending_counter.entry(addr).or_default().push(seq);
        } else {
            self.pending_data.entry(addr).or_default().push(seq);
        }

        // T2: a counter write on a tree-covered page must have armed its
        // leaf update first (the controller emits TreeArm before the
        // counter enters the queue).
        if counter && self.mode.streaming_tree && addr < self.mode.integrity_pages {
            match self.tree_credit.get_mut(&addr) {
                Some(c) if *c > 0 => *c -= 1,
                _ => self.violate(
                    Rule::T2,
                    at,
                    format!(
                        "counter page {addr} enqueued without arming its integrity-tree \
                         leaf update — a crash here leaves the persisted tree blind to \
                         the new counter epoch"
                    ),
                ),
            }
        }

        // P1 credit accounting (write-through counters only).
        if self.mode.write_through {
            if counter {
                self.awaiting.remove(&addr);
                *self.credits.entry(addr).or_insert(0) += 1;
            } else {
                let page = self.mode.page_of(addr);
                match self.credits.get_mut(&page) {
                    Some(c) if *c > 0 => *c -= 1,
                    _ => {
                        self.awaiting.entry(page).or_insert(at);
                    }
                }
            }
        }

        // R bookkeeping: rewrites landing in the page under re-encryption,
        // and the new major counter persisting after completion — on the
        // owning channel's RSR.
        if let Some(r) = self.rsr[ch].as_mut() {
            if counter && addr == r.page && r.done {
                r.counter_since_done = true;
            }
            if !counter && !r.done && self.mode.page_of(addr) == r.page {
                r.rewrites.insert(self.mode.line_index_in_page(addr));
            }
        }
    }

    fn handle_issue(&mut self, counter: bool, addr: u64, seq: u64, start: Cycle) {
        let pending = if counter {
            self.pending_counter.get_mut(&addr)
        } else {
            self.pending_data.get_mut(&addr)
        };
        if let Some(list) = pending {
            if let Some(pos) = list.iter().position(|&s| s == seq) {
                list.remove(pos);
            }
            if list.is_empty() {
                if counter {
                    self.pending_counter.remove(&addr);
                } else {
                    self.pending_data.remove(&addr);
                }
            }
        }

        // P2: a staged counter that issues before its data line even entered
        // the queue means the register pair never made it in atomically.
        if counter {
            let ch = self.mode.channel_of_page(addr);
            if let Some(stage) = &self.stage[ch] {
                if stage.got_counter && addr == stage.page {
                    let line = stage.line;
                    self.violate(
                        Rule::P2,
                        start,
                        format!(
                            "staged counter for page {addr} issued to its bank before the \
                             paired data line {line:#x} entered the write queue"
                        ),
                    );
                    self.stage[ch] = None;
                }
            }
        }
    }

    fn handle_coalesce(&mut self, page: u64, victim_seq: u64, at: Cycle) {
        // P3a: the victim must be a pending counter entry for this page, and
        // specifically the *oldest* one.
        let ok = match self.pending_counter.get_mut(&page) {
            Some(list) if !list.is_empty() => {
                let oldest = *list.iter().min().expect("non-empty");
                if victim_seq == oldest {
                    let pos = list
                        .iter()
                        .position(|&s| s == victim_seq)
                        .expect("oldest is present");
                    list.remove(pos);
                    true
                } else {
                    self.violate(
                        Rule::P3,
                        at,
                        format!(
                            "coalesce on counter page {page} removed entry seq \
                             {victim_seq}, but the oldest pending entry was seq {oldest} \
                             — CWC must drop the older write"
                        ),
                    );
                    false
                }
            }
            _ => {
                self.violate(
                    Rule::P3,
                    at,
                    format!(
                        "coalesce on counter page {page} (victim seq {victim_seq}) with \
                         no pending counter entry for that page in the queue"
                    ),
                );
                false
            }
        };
        if ok {
            self.coalesce_open[self.mode.channel_of_page(page)] = Some((page, at));
        }
    }

    fn handle_sfence(&mut self, core: usize, at: Cycle) {
        if self.mode.write_through && !self.awaiting.is_empty() {
            let pages: Vec<String> = self
                .awaiting
                .keys()
                .map(std::string::ToString::to_string)
                .collect();
            let first_at = *self.awaiting.values().min().expect("non-empty");
            self.violate(
                Rule::P1,
                at,
                format!(
                    "sfence on core {core} retired with data persisted for page(s) \
                     [{}] but no co-enqueued counter write (earliest uncovered data \
                     enqueue at cycle {first_at})",
                    pages.join(", ")
                ),
            );
            self.awaiting.clear();
        }
        // T1: every armed tree update must have propagated to its
        // strictly-persisted ancestors before the fence retires.
        if self.mode.streaming_tree && !self.tree_armed.is_empty() {
            let pages: Vec<String> = self
                .tree_armed
                .keys()
                .map(std::string::ToString::to_string)
                .collect();
            let first_at = *self.tree_armed.values().min().expect("non-empty");
            self.violate(
                Rule::T1,
                at,
                format!(
                    "sfence on core {core} retired with integrity-tree update(s) for \
                     leaf page(s) [{}] still armed in the pending cache (earliest armed \
                     at cycle {first_at})",
                    pages.join(", ")
                ),
            );
            self.tree_armed.clear();
        }
    }

    fn handle_tree_arm(&mut self, page: u64, at: Cycle) {
        if !self.mode.streaming_tree {
            return;
        }
        self.tree_armed.entry(page).or_insert(at);
        *self.tree_credit.entry(page).or_insert(0) += 1;
    }

    fn handle_tree_propagate(&mut self, page: u64) {
        if !self.mode.streaming_tree {
            return;
        }
        self.tree_armed.remove(&page);
        self.root_due += 1;
    }

    fn handle_root_update(&mut self, at: Cycle) {
        if !self.mode.streaming_tree {
            return;
        }
        if self.root_due == 0 {
            self.violate(
                Rule::T3,
                at,
                "root register updated with no freshly propagated leaf — a duplicated \
                 or forged epoch"
                    .to_string(),
            );
        } else {
            self.root_due -= 1;
        }
    }

    fn handle_read(&mut self, line: u64, done: Cycle, forwarded: bool) {
        if forwarded {
            return;
        }
        if self
            .pending_data
            .get(&line)
            .is_some_and(|list| !list.is_empty())
        {
            self.violate(
                Rule::P4,
                done,
                format!(
                    "read of line {line:#x} served from NVM while a newer write to the \
                     same line is still pending in the write queue (stale data under a \
                     newer counter epoch)"
                ),
            );
        }
    }

    fn handle_reencrypt_start(&mut self, page: u64, at: Cycle) {
        if !self.mode.encryption {
            return;
        }
        let ch = self.mode.channel_of_page(page);
        if let Some(prev) = &self.rsr[ch] {
            let prev_page = prev.page;
            let prev_at = prev.started_at;
            self.violate(
                Rule::R1,
                at,
                format!(
                    "re-encryption of page {page} started while page {prev_page}'s RSR \
                     (opened at cycle {prev_at}) is still live"
                ),
            );
        }
        self.rsr[ch] = Some(RsrTrack {
            page,
            started_at: at,
            marked: BTreeSet::new(),
            rewrites: BTreeSet::new(),
            done: false,
            done_lines: 0,
            counter_since_done: false,
            marks_reported: false,
        });
    }

    fn handle_mark_done(&mut self, page: u64, idx: u32, at: Cycle) {
        if !self.mode.encryption {
            return;
        }
        match self.rsr[self.mode.channel_of_page(page)].as_mut() {
            Some(r) if r.page == page && !r.done => {
                r.marked.insert(idx);
            }
            Some(r) => {
                let rp = r.page;
                self.violate(
                    Rule::R3,
                    at,
                    format!(
                        "done-bit {idx} set for page {page} but the live RSR tracks \
                         page {rp} (or is already complete)"
                    ),
                );
            }
            None => {
                self.violate(
                    Rule::R3,
                    at,
                    format!("done-bit {idx} set for page {page} with no live RSR"),
                );
            }
        }
    }

    fn handle_reencrypt_done(&mut self, page: u64, lines: u32, at: Cycle) {
        if !self.mode.encryption {
            return;
        }
        match self.rsr[self.mode.channel_of_page(page)].as_mut() {
            Some(r) if r.page == page => {
                let rewrites_seen = r.rewrites.len();
                let missing: Vec<String> = (0..lines)
                    .filter(|i| !r.marked.contains(i))
                    .map(|i| i.to_string())
                    .collect();
                r.done = true;
                r.done_lines = lines;
                r.marks_reported = !missing.is_empty();
                if rewrites_seen != lines as usize {
                    self.violate(
                        Rule::R2,
                        at,
                        format!(
                            "re-encryption of page {page} declared done after rewriting \
                             {rewrites_seen} of {lines} lines"
                        ),
                    );
                }
                if !missing.is_empty() {
                    self.violate(
                        Rule::R3,
                        at,
                        format!(
                            "re-encryption of page {page} completed with done-bit(s) \
                             [{}] never set — a crash in this window cannot tell which \
                             epoch those lines are in",
                            missing.join(", ")
                        ),
                    );
                }
            }
            _ => {
                self.violate(
                    Rule::R4,
                    at,
                    format!("re-encryption of page {page} declared done with no live RSR"),
                );
            }
        }
    }

    fn handle_rsr_retired(&mut self, page: u64, at: Cycle) {
        if !self.mode.encryption {
            return;
        }
        match self.rsr[self.mode.channel_of_page(page)].take() {
            Some(r) if r.page == page => {
                if !r.done {
                    self.violate(
                        Rule::R4,
                        at,
                        format!(
                            "RSR for page {page} retired before its re-encryption \
                             completed"
                        ),
                    );
                } else if !r.marks_reported && r.marked.len() != r.done_lines as usize {
                    let seen = r.marked.len();
                    let want = r.done_lines;
                    self.violate(
                        Rule::R4,
                        at,
                        format!(
                            "RSR for page {page} retired with only {seen} of {want} \
                             done-bits set"
                        ),
                    );
                }
                if self.mode.write_through && !r.counter_since_done {
                    self.violate(
                        Rule::R6,
                        at,
                        format!(
                            "RSR for page {page} retired without the new major counter \
                             being enqueued for persistence"
                        ),
                    );
                }
            }
            Some(r) => {
                let rp = r.page;
                self.violate(
                    Rule::R4,
                    at,
                    format!("RSR retired for page {page} but the live RSR tracks page {rp}"),
                );
            }
            None => {
                self.violate(
                    Rule::R4,
                    at,
                    format!("RSR retired for page {page} with no live RSR"),
                );
            }
        }
    }

    /// End-of-stream checks: nothing may be left half-done on any channel.
    fn finalize(&mut self) {
        for ch in 0..self.stage.len() {
            if let Some(stage) = self.stage[ch].take() {
                let line = stage.line;
                let at = stage.at;
                self.violate(
                    Rule::P2,
                    at,
                    format!(
                        "run ended with the staging register still holding line {line:#x} \
                         (pair never fully appended)"
                    ),
                );
            }
            if let Some((page, at)) = self.coalesce_open[ch].take() {
                self.violate(
                    Rule::P3,
                    at,
                    format!(
                        "run ended with a coalesce on counter page {page} never superseded \
                         by the newer counter enqueue"
                    ),
                );
            }
            if let Some(r) = self.rsr[ch].take() {
                let page = r.page;
                let at = r.started_at;
                self.violate(
                    Rule::R5,
                    at,
                    format!(
                        "run ended with page {page}'s RSR still live (re-encryption started \
                         at cycle {at} never retired)"
                    ),
                );
            }
        }
        if self.mode.streaming_tree {
            if let Some((&page, &at)) = self.tree_armed.iter().next() {
                let n = self.tree_armed.len();
                self.violate(
                    Rule::T1,
                    at,
                    format!(
                        "run ended with {n} integrity-tree update(s) still armed \
                         (first: leaf page {page}, armed at cycle {at})"
                    ),
                );
                self.tree_armed.clear();
            }
            if self.root_due > 0 {
                let n = self.root_due;
                self.root_due = 0;
                self.violate(
                    Rule::T3,
                    0,
                    format!(
                        "run ended with {n} propagated leaf update(s) never latched \
                         into the root register"
                    ),
                );
            }
        }
    }

    /// Runs the end-of-stream checks (nothing may be left half-done on
    /// any channel) and drains the report.
    pub fn take_report(&mut self) -> CheckReport {
        self.finalize();
        CheckReport {
            violations: std::mem::take(&mut self.violations),
            events_seen: self.events_seen,
        }
    }
}

impl Observer for Checker {
    fn on_event(&mut self, ev: &Event) {
        self.events_seen += 1;
        if self.window.len() == WINDOW_CAP {
            self.window.pop_front();
        }
        self.window.push_back((self.events_seen, format!("{ev:?}")));

        match *ev {
            Event::WqEnqueue {
                counter,
                addr,
                seq,
                at,
                ..
            } => self.handle_enqueue(counter, addr, seq, at),
            Event::WqIssue {
                counter,
                addr,
                seq,
                start,
                ..
            } => self.handle_issue(counter, addr, seq, start),
            Event::WqCoalesce {
                page,
                victim_seq,
                at,
            } => self.handle_coalesce(page, victim_seq, at),
            Event::RegisterStage { line, page, at } if self.mode.atomic_pair => {
                let ch = self.mode.channel_of_page(page);
                if let Some(prev) = self.stage[ch].replace(StageState {
                    line,
                    page,
                    at,
                    got_counter: false,
                }) {
                    let prev_line = prev.line;
                    self.violate(
                        Rule::P2,
                        at,
                        format!(
                            "staging register re-latched (line {line:#x}) while the \
                                 previous pair (line {prev_line:#x}) was still incomplete"
                        ),
                    );
                }
            }
            Event::SfenceRetire { core, at, .. } => self.handle_sfence(core, at),
            Event::ReadServed {
                line,
                done,
                forwarded,
                ..
            } => self.handle_read(line, done, forwarded),
            Event::ReencryptStart { page, at } => self.handle_reencrypt_start(page, at),
            Event::RsrMarkDone { page, idx, at } => self.handle_mark_done(page, idx, at),
            Event::ReencryptDone { page, lines, at } => {
                self.handle_reencrypt_done(page, lines, at);
            }
            Event::RsrRetired { page, at } => self.handle_rsr_retired(page, at),
            Event::TreeArm { page, at } => self.handle_tree_arm(page, at),
            Event::TreePropagate { page, .. } => self.handle_tree_propagate(page),
            Event::TreeRootUpdate { at } => self.handle_root_update(at),
            _ => {}
        }
    }

    fn box_clone(&self) -> Box<dyn Observer> {
        Box::new(self.clone())
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distinct rules that fired, in catalog order.
    fn rules_fired(report: &CheckReport) -> Vec<Rule> {
        let set: BTreeSet<Rule> = report.violations.iter().map(|v| v.rule).collect();
        set.into_iter().collect()
    }

    fn enq(counter: bool, addr: u64, seq: u64, at: Cycle) -> Event {
        Event::WqEnqueue {
            counter,
            addr,
            seq,
            bank: 0,
            at,
            occupancy: 1,
        }
    }

    fn issue(counter: bool, addr: u64, seq: u64, start: Cycle) -> Event {
        Event::WqIssue {
            counter,
            addr,
            seq,
            bank: 0,
            ready: start,
            start,
            occupancy: 0,
        }
    }

    fn sfence(at: Cycle) -> Event {
        sfence_on(0, at)
    }

    fn sfence_on(core: usize, at: Cycle) -> Event {
        Event::SfenceRetire { core, at, stall: 0 }
    }

    fn run(events: &[Event]) -> CheckReport {
        let mut c = Checker::new(CheckerMode::strict());
        for ev in events {
            c.on_event(ev);
        }
        c.take_report()
    }

    #[test]
    fn clean_atomic_pair_stream_passes() {
        let report = run(&[
            Event::RegisterStage {
                line: 0x40,
                page: 0,
                at: 10,
            },
            enq(true, 0, 1, 10),
            enq(false, 0x40, 2, 10),
            sfence(20),
            issue(true, 0, 1, 30),
            issue(false, 0x40, 2, 31),
        ]);
        assert!(report.is_clean(), "unexpected: {report}");
        assert_eq!(report.events_seen, 6);
    }

    #[test]
    fn p1_fires_on_uncovered_data_at_sfence() {
        let report = run(&[enq(false, 0x40, 1, 10), sfence(20)]);
        assert_eq!(rules_fired(&report), vec![Rule::P1]);
        assert_eq!(report.violations[0].at, 20);
    }

    #[test]
    fn p1_arming_is_cross_core() {
        // Interleaved streams from two cores sharing a structure: core 0
        // and core 1 each persist an atomic pair, their fences interleave,
        // and the run is clean — counters enqueued by one core discharge
        // the shared write queue regardless of who fences.
        let clean = run(&[
            enq(true, 0, 1, 10),
            enq(false, 0x40, 2, 10),
            enq(true, 1, 3, 12),
            enq(false, 4096 + 0x80, 4, 12),
            sfence_on(1, 14),
            sfence_on(0, 15),
        ]);
        assert!(clean.is_clean(), "unexpected: {clean}");

        // Core 0 persists data with no counter; core 1's fence is the
        // first to retire and must still trip P1 — a shared structure's
        // readers order on any core's fence, not just the writer's.
        let dirty = run(&[enq(false, 0x40, 1, 10), sfence_on(1, 20)]);
        assert_eq!(rules_fired(&dirty), vec![Rule::P1]);
        assert!(
            dirty.violations[0].message.contains("core 1"),
            "fencing core not attributed: {}",
            dirty.violations[0].message
        );
    }

    #[test]
    fn p1_credit_carries_across_pages_independently() {
        // Counter for page 0 does not cover data in page 1.
        let report = run(&[
            enq(true, 0, 1, 10),
            enq(false, 4096 + 0x40, 2, 11),
            sfence(20),
        ]);
        assert_eq!(rules_fired(&report), vec![Rule::P1]);
    }

    #[test]
    fn p2_fires_on_split_pair() {
        let report = run(&[
            Event::RegisterStage {
                line: 0x40,
                page: 0,
                at: 10,
            },
            enq(true, 0, 1, 10),
            // Data arrives a cycle late — the pair was split.
            enq(false, 0x40, 2, 11),
        ]);
        assert!(rules_fired(&report).contains(&Rule::P2));
    }

    #[test]
    fn p2_fires_on_counter_issuing_before_data_enqueued() {
        let report = run(&[
            Event::RegisterStage {
                line: 0x40,
                page: 0,
                at: 10,
            },
            enq(true, 0, 1, 10),
            issue(true, 0, 1, 12),
        ]);
        assert!(rules_fired(&report).contains(&Rule::P2));
    }

    #[test]
    fn p3_fires_on_wrong_victim() {
        let report = run(&[
            enq(true, 0, 1, 10),
            enq(true, 0, 2, 11),
            // Victim is the newer entry (seq 2), not the oldest (seq 1).
            Event::WqCoalesce {
                page: 0,
                victim_seq: 2,
                at: 12,
            },
            enq(true, 0, 3, 12),
        ]);
        assert_eq!(rules_fired(&report), vec![Rule::P3]);
    }

    #[test]
    fn p3_fires_when_superseding_counter_never_enqueues() {
        let report = run(&[
            enq(true, 0, 1, 10),
            Event::WqCoalesce {
                page: 0,
                victim_seq: 1,
                at: 12,
            },
            // A data append follows instead of the superseding counter.
            enq(false, 0x80, 2, 12),
            sfence(20),
        ]);
        assert!(rules_fired(&report).contains(&Rule::P3));
    }

    #[test]
    fn p3_clean_coalesce_passes() {
        let report = run(&[
            enq(true, 0, 1, 10),
            enq(false, 0x40, 2, 10),
            Event::WqCoalesce {
                page: 0,
                victim_seq: 1,
                at: 12,
            },
            enq(true, 0, 3, 12),
            enq(false, 0x80, 4, 12),
            sfence(20),
        ]);
        assert!(report.is_clean(), "unexpected: {report}");
    }

    #[test]
    fn p4_fires_on_stale_read_past_pending_write() {
        let report = run(&[
            enq(true, 0, 1, 10),
            enq(false, 0x40, 2, 10),
            Event::ReadServed {
                line: 0x40,
                issued: 15,
                done: 25,
                forwarded: false,
            },
        ]);
        assert!(rules_fired(&report).contains(&Rule::P4));
    }

    #[test]
    fn p4_forwarded_read_is_fine() {
        let report = run(&[
            enq(true, 0, 1, 10),
            enq(false, 0x40, 2, 10),
            Event::ReadServed {
                line: 0x40,
                issued: 15,
                done: 25,
                forwarded: true,
            },
        ]);
        assert!(report.is_clean(), "unexpected: {report}");
    }

    fn reencrypt_events(skip_idx: Option<u32>) -> Vec<Event> {
        let lines = 4u32;
        let mut evs = vec![Event::ReencryptStart { page: 7, at: 100 }];
        for i in 0..lines {
            // Rewrites land in page 7 (page_bytes 4096): line i of page 7.
            let addr = 7 * 4096 + u64::from(i) * 64;
            evs.push(enq(false, addr, 10 + u64::from(i), 101 + Cycle::from(i)));
            if Some(i) != skip_idx {
                evs.push(Event::RsrMarkDone {
                    page: 7,
                    idx: i,
                    at: 101 + Cycle::from(i),
                });
            }
        }
        evs.push(Event::ReencryptDone {
            page: 7,
            lines,
            at: 110,
        });
        // New major counter persists, then the RSR retires.
        evs.push(enq(true, 7, 20, 111));
        evs.push(Event::RsrRetired { page: 7, at: 112 });
        // Cover the rewrites + counter so the trailing sfence is clean.
        evs.push(enq(true, 7, 21, 113));
        evs
    }

    #[test]
    fn clean_reencryption_passes() {
        // The four rewrites awaiting counters are covered by the retire-time
        // counter enqueues; no sfence intervenes.
        let report = run(&reencrypt_events(None));
        assert!(report.is_clean(), "unexpected: {report}");
    }

    #[test]
    fn r3_fires_on_skipped_done_bit() {
        let report = run(&reencrypt_events(Some(0)));
        assert_eq!(rules_fired(&report), vec![Rule::R3]);
        assert!(report.violations[0].message.contains("[0]"));
    }

    #[test]
    fn r1_fires_on_nested_reencryption() {
        let report = run(&[
            Event::ReencryptStart { page: 7, at: 100 },
            Event::ReencryptStart { page: 9, at: 101 },
        ]);
        assert!(rules_fired(&report).contains(&Rule::R1));
    }

    #[test]
    fn r4_fires_on_premature_retire() {
        let report = run(&[
            Event::ReencryptStart { page: 7, at: 100 },
            Event::RsrRetired { page: 7, at: 101 },
        ]);
        assert!(rules_fired(&report).contains(&Rule::R4));
    }

    #[test]
    fn r5_fires_on_live_rsr_at_end() {
        let report = run(&[Event::ReencryptStart { page: 7, at: 100 }]);
        assert_eq!(rules_fired(&report), vec![Rule::R5]);
    }

    #[test]
    fn r6_fires_when_major_counter_never_persists() {
        let mut evs = reencrypt_events(None);
        // Drop the post-done counter enqueues: retire without persistence.
        evs.retain(|e| !matches!(e, Event::WqEnqueue { counter: true, .. }));
        let report = run(&evs);
        assert!(rules_fired(&report).contains(&Rule::R6), "got {report}");
    }

    #[test]
    fn window_is_bounded_and_attached() {
        let mut evs: Vec<Event> = (0..40)
            .map(|i| enq(true, 0, i + 1, Cycle::from(i)))
            .collect();
        evs.push(enq(false, 0x40_0000, 100, 50));
        evs.push(sfence(60));
        let report = run(&evs);
        assert_eq!(rules_fired(&report), vec![Rule::P1]);
        let v = &report.violations[0];
        assert!(v.window.len() <= WINDOW_CAP);
        assert!(v.window.last().expect("non-empty").1.contains("Sfence"));
    }

    #[test]
    fn mode_disarms_rules_for_write_back() {
        let mode = CheckerMode {
            write_through: false,
            atomic_pair: false,
            encryption: true,
            line_bytes: 64,
            page_bytes: 4096,
            channels: 1,
            streaming_tree: false,
            integrity_pages: 0,
        };
        let mut c = Checker::new(mode);
        c.on_event(&enq(false, 0x40, 1, 10));
        c.on_event(&sfence(20));
        let report = c.take_report();
        assert!(report.is_clean(), "unexpected: {report}");
    }

    #[test]
    fn multi_channel_concurrent_rsrs_are_legal() {
        // Each channel has its own RSR: pages 7 and 8 live on different
        // channels at channels=2, so overlapping re-encryptions are fine.
        let mut mode = CheckerMode::strict();
        mode.channels = 2;
        let mut c = Checker::new(mode);
        c.on_event(&Event::ReencryptStart { page: 7, at: 100 });
        c.on_event(&Event::ReencryptStart { page: 8, at: 101 });
        let report = c.take_report();
        assert!(
            !rules_fired(&report).contains(&Rule::R1),
            "independent channels must not trip R1: {report}"
        );
        // Same-channel nesting still fires: pages 7 and 9 share channel 1.
        let mut mode = CheckerMode::strict();
        mode.channels = 2;
        let mut c = Checker::new(mode);
        c.on_event(&Event::ReencryptStart { page: 7, at: 100 });
        c.on_event(&Event::ReencryptStart { page: 9, at: 101 });
        assert!(rules_fired(&c.take_report()).contains(&Rule::R1));
    }

    #[test]
    fn multi_channel_interleaved_pairs_pass() {
        // The 2-line staging register is per-channel hardware: channel 1
        // latching while channel 0's pair is still in flight is legal.
        let mut mode = CheckerMode::strict();
        mode.channels = 2;
        let mut c = Checker::new(mode);
        for ev in [
            Event::RegisterStage {
                line: 0x40,
                page: 0,
                at: 10,
            },
            Event::RegisterStage {
                line: 4096 + 0x40,
                page: 1,
                at: 10,
            },
            enq(true, 0, 1, 10),
            enq(false, 0x40, 2, 10),
            enq(true, 1, 3, 10),
            enq(false, 4096 + 0x40, 4, 10),
            sfence(20),
        ] {
            c.on_event(&ev);
        }
        let report = c.take_report();
        assert!(report.is_clean(), "unexpected: {report}");
    }

    fn tree_mode() -> CheckerMode {
        let mut mode = CheckerMode::strict();
        mode.streaming_tree = true;
        mode.integrity_pages = 4096;
        mode
    }

    fn run_tree(events: &[Event]) -> CheckReport {
        let mut c = Checker::new(tree_mode());
        for ev in events {
            c.on_event(ev);
        }
        c.take_report()
    }

    fn arm(page: u64, at: Cycle) -> Event {
        Event::TreeArm { page, at }
    }

    fn propagate(page: u64, at: Cycle) -> [Event; 2] {
        [
            Event::TreePropagate { page, at },
            Event::TreeRootUpdate { at },
        ]
    }

    #[test]
    fn clean_streaming_tree_stream_passes() {
        let [p0, r0] = propagate(0, 15);
        let report = run_tree(&[
            Event::RegisterStage {
                line: 0x40,
                page: 0,
                at: 10,
            },
            arm(0, 10),
            enq(true, 0, 1, 10),
            enq(false, 0x40, 2, 10),
            p0,
            r0,
            sfence(20),
        ]);
        assert!(report.is_clean(), "unexpected: {report}");
    }

    #[test]
    fn t1_fires_when_armed_update_survives_the_fence() {
        let report = run_tree(&[
            Event::RegisterStage {
                line: 0x40,
                page: 0,
                at: 10,
            },
            arm(0, 10),
            enq(true, 0, 1, 10),
            enq(false, 0x40, 2, 10),
            // No propagation before the fence retires.
            sfence(20),
        ]);
        assert_eq!(rules_fired(&report), vec![Rule::T1]);
        assert!(report.violations[0].message.contains("[0]"));
    }

    #[test]
    fn t2_fires_on_unarmed_counter_enqueue() {
        let report = run_tree(&[
            Event::RegisterStage {
                line: 0x40,
                page: 0,
                at: 10,
            },
            // Counter enqueues with no TreeArm preceding it.
            enq(true, 0, 1, 10),
            enq(false, 0x40, 2, 10),
        ]);
        assert!(rules_fired(&report).contains(&Rule::T2), "got {report}");
    }

    #[test]
    fn t2_ignores_pages_outside_the_tree() {
        let mut mode = tree_mode();
        mode.integrity_pages = 4; // page 9 is uncovered
        mode.write_through = false;
        mode.atomic_pair = false;
        let mut c = Checker::new(mode);
        c.on_event(&enq(true, 9, 1, 10));
        let report = c.take_report();
        assert!(report.is_clean(), "unexpected: {report}");
    }

    #[test]
    fn t3_fires_on_double_root_update() {
        let [p0, r0] = propagate(0, 15);
        let report = run_tree(&[
            Event::RegisterStage {
                line: 0x40,
                page: 0,
                at: 10,
            },
            arm(0, 10),
            enq(true, 0, 1, 10),
            enq(false, 0x40, 2, 10),
            p0,
            r0,
            Event::TreeRootUpdate { at: 15 }, // the forged second update
            sfence(20),
        ]);
        assert_eq!(rules_fired(&report), vec![Rule::T3]);
    }

    #[test]
    fn t3_fires_when_a_propagation_never_reaches_the_root() {
        let report = run_tree(&[
            arm(0, 10),
            Event::TreePropagate { page: 0, at: 15 },
            // Missing TreeRootUpdate; caught at end of run.
        ]);
        assert!(rules_fired(&report).contains(&Rule::T3), "got {report}");
    }

    #[test]
    fn t1_fires_on_armed_update_at_end_of_run() {
        let mut mode = tree_mode();
        mode.write_through = false;
        mode.atomic_pair = false;
        let mut c = Checker::new(mode);
        c.on_event(&arm(3, 10));
        let report = c.take_report();
        assert!(rules_fired(&report).contains(&Rule::T1), "got {report}");
    }

    #[test]
    fn coalesced_arms_balance_their_counter_enqueues() {
        // Three counter writes to one page: three arms, three counter
        // enqueues, one propagation (the cache coalesced them).
        let mut evs = Vec::new();
        for seq in 1..=3u64 {
            evs.push(arm(0, 10 + seq));
            evs.push(enq(true, 0, seq * 2, 10 + seq));
            evs.push(enq(false, 0x40, seq * 2 + 1, 10 + seq));
        }
        let [p0, r0] = propagate(0, 18);
        evs.push(p0);
        evs.push(r0);
        evs.push(sfence(20));
        let mut mode = tree_mode();
        mode.atomic_pair = false; // no RegisterStage events in this stream
        let mut c = Checker::new(mode);
        for ev in &evs {
            c.on_event(ev);
        }
        let report = c.take_report();
        assert!(report.is_clean(), "unexpected: {report}");
    }

    #[test]
    fn json_report_is_well_formed() {
        let report = run(&[enq(false, 0x40, 1, 10), sfence(20)]);
        let json = report.to_json();
        assert!(json.contains("\"rule\":\"P1\""));
        assert!(json.contains("\"clean\":false"));

        // Quotes, backslashes and control characters are escaped.
        let report = CheckReport {
            violations: vec![Violation {
                rule: Rule::P1,
                at: 7,
                message: "say \"hi\" \\ then\ttab\u{1}".to_string(),
                window: vec![(1, "a\nb\r".to_string())],
            }],
            events_seen: 1,
        };
        let json = report.to_json();
        assert!(
            json.contains("\"message\":\"say \\\"hi\\\" \\\\ then\\ttab\\u0001\""),
            "{json}"
        );
        assert!(json.contains("\"event\":\"a\\nb\\r\""), "{json}");
    }
}
