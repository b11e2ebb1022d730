//! The ADR-protected write queue with counter write coalescing.
//!
//! Entries reaching this queue are durable (the ADR battery drains them
//! to NVM on a power failure, §2.1), so a cache-line flush *retires* the
//! moment its entry is appended. Each entry carries the paper's one-bit
//! flag distinguishing counter-cache lines from CPU-cache lines, which
//! bounds the CWC search (§3.4.3).
//!
//! CWC: when a new counter line for page `p` arrives and an older counter
//! entry for `p` is still pending, the *older* entry is removed and the
//! new one appended at the tail — the newer line supersedes the older
//! one's contents (split counters are monotone), and keeping the younger
//! entry maximizes further merging (Figure 10/11).
//!
//! Draining: entries issue to banks oldest-first among the entries whose
//! target bank is free — a compact FR-FCFS-like policy. An entry's queue
//! slot is released when its bank begins service.

use supermem_nvm::addr::{LineAddr, PageId};
use supermem_nvm::bank::{BankTimer, OpKind};
use supermem_nvm::fault::{tear_line, DrainTear, FaultPlan};
use supermem_nvm::{LineData, NvmStore};
use supermem_sim::{Cycle, Event, FxHashMap, Probes, Stats};

/// What a write-queue entry targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WqTarget {
    /// An (encrypted) data line.
    Data(LineAddr),
    /// The counter line of a page.
    Counter(PageId),
    /// An integrity-tree node-group line, keyed by the packed
    /// `(level, group)` id ([`supermem_integrity::tree_line_id`]).
    /// Streaming-tree propagation emits these as first-class write-queue
    /// traffic; they are invisible in eager mode.
    Tree(u64),
}

/// One pending write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WqEntry {
    /// Target line.
    pub target: WqTarget,
    /// Destination bank (already resolved by the placement policy).
    pub bank: usize,
    /// The 64 bytes to persist (ciphertext for data, raw for counters).
    pub payload: LineData,
    /// For data entries: the (major, minor) used at encryption time, so
    /// forwarded reads can decrypt without consulting the counter store.
    pub enc_counter: Option<(u64, u8)>,
    /// ECC-derived plaintext tag (Osiris mode); persisted beside the
    /// line at no extra write cost.
    pub tag: Option<u64>,
    /// Cycle at which the entry became eligible to issue.
    pub ready: Cycle,
    /// Monotonic appendage order (FIFO tiebreak).
    pub seq: u64,
}

impl WqEntry {
    /// The paper's flag bit: `true` for entries from the counter cache.
    pub fn is_counter(&self) -> bool {
        matches!(self.target, WqTarget::Counter(_))
    }
}

/// Sentinel [`BankSched::busy`] value: the bank's cached candidate is
/// unknown and must be recomputed against its live timer.
const STALE: Cycle = Cycle::MAX;

/// The scheduling key of one occupied slot — everything the issue pick
/// reads, kept apart from the 64-byte payloads so recomputing a bank's
/// candidate touches only these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SlotKey {
    ready: Cycle,
    seq: u64,
    bank: usize,
    /// The slot is the front (oldest) of its target's age-ordered list,
    /// so no older same-target write blocks it from issuing.
    eligible: bool,
}

/// Per-bank issue state: the eligible slots headed for the bank and
/// their best `(start, seq)` under the bank timer value `busy`.
///
/// A write's service start is `max(ready, busy_until)`, so the best
/// candidate is a pure function of the eligible set and `busy_until`:
/// the cache stays exact until one of the two changes.
#[derive(Debug, Clone)]
struct BankSched {
    /// Eligible slots whose entries target this bank (any order).
    eligible: Vec<usize>,
    /// The `busy_until` the cached `best` was computed for, or
    /// [`STALE`] when unknown.
    busy: Cycle,
    /// `(start, seq, slot)` of the bank's next write under `busy`.
    best: Option<(Cycle, u64, usize)>,
}

impl BankSched {
    /// Recomputes `best` over the eligible set under `busy`.
    fn recompute(&mut self, keys: &[SlotKey], busy: Cycle) {
        self.busy = busy;
        self.best = self
            .eligible
            .iter()
            .map(|&slot| {
                let k = keys[slot];
                (k.ready.max(busy), k.seq, slot)
            })
            .min();
    }
}

/// The memory controller's write queue.
///
/// # Examples
///
/// ```
/// use supermem_memctrl::{WriteQueue, WqTarget};
/// use supermem_nvm::addr::LineAddr;
///
/// let mut wq = WriteQueue::new(32, true);
/// assert_eq!(wq.free_slots(), 32);
/// ```
#[derive(Debug, Clone)]
pub struct WriteQueue {
    /// Slab of `capacity` slots; `None` slots are free.
    slots: Vec<Option<WqEntry>>,
    /// Schedule key of each occupied slot (left over in free slots).
    keys: Vec<SlotKey>,
    /// Free slot indices (reuse order is irrelevant to results).
    free: Vec<usize>,
    /// Target → occupied slots in age (seq) order. Appends push at the
    /// back, so the front is always the oldest pending write to that
    /// target — which makes CWC, read forwarding, and the same-address
    /// ordering rule (only a list front is eligible) O(1) per entry
    /// instead of a queue scan.
    index: FxHashMap<WqTarget, Vec<usize>>,
    /// Per-bank candidates, indexed by channel-local bank.
    sched: Vec<BankSched>,
    capacity: usize,
    cwc: bool,
    seq: u64,
    /// Offset added to entry bank indices when reporting stats/events, so
    /// a per-channel queue attributes its writes to machine-global bank
    /// ids (`channel * banks_per_channel + local_bank`). Entry `bank`
    /// fields stay channel-local (they index the channel's bank timers).
    bank_base: usize,
    /// When false, the issue pick ignores the cached bank candidates and
    /// recomputes every bank on every call (the reference behavior the
    /// equivalence tests A/B against).
    fast_forward: bool,
}

impl WriteQueue {
    /// Creates an empty queue of `capacity` entries; `cwc` enables
    /// counter write coalescing.
    ///
    /// # Panics
    ///
    /// Panics if `capacity < 2` (a data+counter pair must fit).
    pub fn new(capacity: usize, cwc: bool) -> Self {
        assert!(capacity >= 2, "write queue must hold a data+counter pair");
        Self {
            slots: (0..capacity).map(|_| None).collect(),
            keys: vec![SlotKey::default(); capacity],
            free: (0..capacity).rev().collect(),
            index: FxHashMap::default(),
            sched: Vec::new(),
            capacity,
            cwc,
            seq: 0,
            bank_base: 0,
            fast_forward: true,
        }
    }

    /// Enables or disables the cached bank candidates (on by default).
    /// The cache is exact — a bank is recomputed whenever its eligible
    /// set or its timer moved — so this knob exists for A/B equivalence
    /// tests and for ruling the cache out while debugging.
    pub fn set_fast_forward(&mut self, enabled: bool) {
        self.fast_forward = enabled;
    }

    /// A lower bound on the next entry's service start: the minimum of
    /// the cached bank candidates. `None` when the queue is empty, the
    /// cache is disabled, or some bank with eligible entries has not
    /// been recomputed since it changed.
    ///
    /// The bound holds because a write's start is `max(ready,
    /// busy_until)` and `busy_until` only increases on a live
    /// controller: a candidate cached under an older timer value can
    /// only have moved later since.
    pub fn next_issue_bound(&self) -> Option<Cycle> {
        if !self.fast_forward {
            return None;
        }
        let mut bound = None;
        for s in &self.sched {
            if s.busy == STALE && !s.eligible.is_empty() {
                return None;
            }
            if let Some((start, _, _)) = s.best {
                bound = Some(bound.map_or(start, |b: Cycle| b.min(start)));
            }
        }
        bound
    }

    /// Whether a drain at `now` could issue anything. A `false` answer
    /// is exact (the queue is empty, or every pending entry provably
    /// starts after `now`), so callers may skip the drain outright; a
    /// `true` answer is conservative and merely means "drain needed".
    pub fn may_issue_by(&self, now: Cycle) -> bool {
        !self.is_empty() && self.next_issue_bound().is_none_or(|bound| bound <= now)
    }

    /// Sets the global-bank offset reported in stats and events (a
    /// channel's queue reports `bank_base + local_bank`).
    pub fn set_bank_base(&mut self, bank_base: usize) {
        self.bank_base = bank_base;
    }

    /// Entries currently pending.
    pub fn len(&self) -> usize {
        self.capacity - self.free.len()
    }

    /// True when no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.free.len() == self.capacity
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Free slots right now.
    pub fn free_slots(&self) -> usize {
        self.free.len()
    }

    /// Whether CWC is enabled.
    pub fn cwc_enabled(&self) -> bool {
        self.cwc
    }

    /// Occupied entries, any order.
    fn entries(&self) -> impl Iterator<Item = (usize, &WqEntry)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|e| (i, e)))
    }

    /// Removes and returns the entry in `slot`, maintaining the index.
    ///
    /// # Panics
    ///
    /// Panics if the slot is free (a queue-internal sequencing bug).
    // Justified panics: the `expect`s below are the documented sequencing
    // invariant above — slot, index, and list entries move together.
    #[allow(clippy::disallowed_methods)]
    fn remove_slot(&mut self, slot: usize) -> WqEntry {
        let e = self.slots[slot].take().expect("slot occupied");
        self.free.push(slot);
        let list = self
            .index
            .get_mut(&e.target)
            .expect("indexed target for occupied slot");
        let pos = list
            .iter()
            .position(|&s| s == slot)
            .expect("slot present in its target list");
        list.remove(pos);
        let successor = list.first().copied();
        if list.is_empty() {
            self.index.remove(&e.target);
        }
        // Only a list front is eligible; when it leaves, the next write
        // to the same target (if any) is unblocked.
        if self.keys[slot].eligible {
            self.make_ineligible(slot);
            if let Some(next) = successor {
                self.make_eligible(next);
            }
        }
        e
    }

    /// Marks `slot` (now the front of its target list) issuable and
    /// folds it into its bank's cached candidate.
    fn make_eligible(&mut self, slot: usize) {
        let key = &mut self.keys[slot];
        key.eligible = true;
        let key = *key;
        if key.bank >= self.sched.len() {
            self.sched.resize_with(key.bank + 1, || BankSched {
                eligible: Vec::new(),
                busy: STALE,
                best: None,
            });
        }
        let bank = &mut self.sched[key.bank];
        bank.eligible.push(slot);
        if bank.busy != STALE {
            let cand = (key.ready.max(bank.busy), key.seq, slot);
            if bank.best.is_none_or(|best| cand < best) {
                bank.best = Some(cand);
            }
        }
    }

    /// Drops `slot` from its bank's eligible set. Losing the bank's
    /// best candidate leaves the bank stale until the next pick
    /// recomputes it against the live timer — on the issue path that
    /// timer is about to move anyway.
    // Justified panic: an eligible slot is always in its bank's list.
    #[allow(clippy::disallowed_methods)]
    fn make_ineligible(&mut self, slot: usize) {
        let key = &mut self.keys[slot];
        key.eligible = false;
        let bank = &mut self.sched[key.bank];
        let pos = bank
            .eligible
            .iter()
            .position(|&s| s == slot)
            .expect("eligible slot present in its bank list");
        bank.eligible.swap_remove(pos);
        if bank.best.is_some_and(|(_, _, s)| s == slot) {
            bank.busy = STALE;
            bank.best = None;
        }
    }

    /// Pending entries as `(target, seq)` pairs, in queue (age) order
    /// (diagnostics).
    ///
    /// Allocation-free: each step is a min-scan over the (capacity-bounded,
    /// ≤ ~64-slot) slab for the next sequence number, so per-event probe
    /// inspection does not allocate a `Vec` on the hot path.
    pub fn pending(&self) -> impl Iterator<Item = (WqTarget, u64)> + '_ {
        let mut last_seq = 0u64;
        std::iter::from_fn(move || {
            let next = self
                .entries()
                .filter(|(_, e)| e.seq > last_seq)
                .min_by_key(|(_, e)| e.seq)
                .map(|(_, e)| (e.target, e.seq))?;
            last_seq = next.1;
            Some(next)
        })
    }

    /// Applies CWC for an incoming counter line of `page`: removes an
    /// older pending counter entry with the same address, if any.
    /// Returns the removed entry's sequence number if a merge happened.
    /// No-op when CWC is disabled.
    pub fn coalesce_counter(&mut self, page: PageId, stats: &mut Stats) -> Option<u64> {
        if !self.cwc {
            return None;
        }
        // The flag bit restricts the lookup to counter entries; at most
        // one can be pending because this very rule keeps them unique
        // per page.
        let list = self.index.get(&WqTarget::Counter(page))?;
        let oldest = list[0];
        let victim = self.remove_slot(oldest);
        stats.counter_writes_coalesced += 1;
        Some(victim.seq)
    }

    /// Appends an entry. The caller must have ensured a free slot via
    /// [`WriteQueue::wait_for_slots`].
    ///
    /// # Panics
    ///
    /// Panics if the queue is full — that is a controller sequencing bug.
    pub fn append(
        &mut self,
        target: WqTarget,
        bank: usize,
        payload: LineData,
        enc_counter: Option<(u64, u8)>,
        ready: Cycle,
    ) -> u64 {
        self.append_tagged(target, bank, payload, enc_counter, None, ready)
    }

    /// [`WriteQueue::append`] with an Osiris ECC tag attached.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full — that is a controller sequencing bug.
    pub fn append_tagged(
        &mut self,
        target: WqTarget,
        bank: usize,
        payload: LineData,
        enc_counter: Option<(u64, u8)>,
        tag: Option<u64>,
        ready: Cycle,
    ) -> u64 {
        // Justified panic: overflow is the documented contract violation.
        #[allow(clippy::disallowed_methods)]
        let slot = self
            .free
            .pop()
            .expect("write queue overflow: wait_for_slots first");
        self.seq += 1;
        self.slots[slot] = Some(WqEntry {
            target,
            bank,
            payload,
            enc_counter,
            tag,
            ready,
            seq: self.seq,
        });
        self.keys[slot] = SlotKey {
            ready,
            seq: self.seq,
            bank,
            eligible: false,
        };
        let list = self.index.entry(target).or_default();
        list.push(slot);
        if list.len() == 1 {
            self.make_eligible(slot);
        }
        self.seq
    }

    /// The newest pending entry for `target` (back of its age-ordered
    /// slot list).
    fn newest(&self, target: WqTarget) -> Option<&WqEntry> {
        let &slot = self.index.get(&target)?.last()?;
        self.slots[slot].as_ref()
    }

    /// The newest pending write to data line `line`, for read forwarding.
    pub fn forward_data(&self, line: LineAddr) -> Option<&WqEntry> {
        self.newest(WqTarget::Data(line))
    }

    /// The newest pending counter write for `page`, for counter-fetch
    /// forwarding (the NVM copy may be stale while an entry is pending).
    pub fn forward_counter(&self, page: PageId) -> Option<&WqEntry> {
        self.newest(WqTarget::Counter(page))
    }

    /// Index and start time of the next entry to issue: the entry with
    /// the earliest possible service start, FIFO order breaking ties.
    ///
    /// Same-address ordering: an entry is eligible only if no *older*
    /// entry targets the same line. Ready times can be non-monotonic
    /// (posted writes queued behind an earlier stall), and issuing two
    /// writes to one line out of order would persist the older payload
    /// last.
    ///
    /// The pick is the `(start, seq)` minimum over the per-bank cached
    /// candidates. A bank is recomputed only when its timer no longer
    /// matches the value its candidate was computed for (or, with the
    /// cache off, always), so a call costs O(banks) plus one bank's
    /// eligible entries per bank that changed.
    fn next_issuable(&mut self, banks: &[BankTimer]) -> Option<(usize, Cycle)> {
        let mut best: Option<(Cycle, u64, usize)> = None;
        for (sched, timer) in self.sched.iter_mut().zip(banks) {
            let busy = timer.busy_until();
            if !self.fast_forward || sched.busy != busy {
                sched.recompute(&self.keys, busy);
            }
            if let Some(cand) = sched.best {
                if best.is_none_or(|b| cand < b) {
                    best = Some(cand);
                }
            }
        }
        best.map(|(start, _, slot)| (slot, start))
    }

    fn issue_at(
        &mut self,
        idx: usize,
        banks: &mut [BankTimer],
        store: &mut NvmStore,
        stats: &mut Stats,
        probes: &mut Probes,
    ) -> Cycle {
        let e = self.remove_slot(idx);
        if banks[e.bank].is_failed() {
            // Degraded mode: the bank is gone, so the write is dropped
            // rather than wedging the queue behind dead hardware.
            stats.dropped_writes += 1;
            return e.ready;
        }
        let start = banks[e.bank].earliest_start(OpKind::Write, e.ready);
        let end = banks[e.bank].issue(OpKind::Write, e.ready);
        let global_bank = self.bank_base + e.bank;
        if stats.bank_writes.len() <= global_bank {
            stats.bank_writes.resize(global_bank + 1, 0);
        }
        stats.bank_writes[global_bank] += 1;
        // Tree node lines are metadata traffic: they occupy the bank like
        // any write, but they are not part of the WqEnqueue/WqIssue
        // ordering stream the checker audits (the T-rules track them
        // through TreeNodeEnqueue instead).
        if !matches!(e.target, WqTarget::Tree(_)) {
            probes.emit_with(|| Event::WqIssue {
                counter: e.is_counter(),
                addr: match e.target {
                    WqTarget::Data(line) => line.0,
                    WqTarget::Counter(page) => page.0,
                    WqTarget::Tree(id) => id,
                },
                seq: e.seq,
                bank: global_bank,
                ready: e.ready,
                start,
                occupancy: self.capacity - self.free.len(),
            });
        }
        probes.emit_with(|| Event::BankBusy {
            bank: global_bank,
            start,
            end,
            write: true,
        });
        match e.target {
            WqTarget::Data(line) => {
                stats.nvm_data_writes += 1;
                store.write_data(line, e.payload);
                if let Some(tag) = e.tag {
                    store.write_tag(line, tag);
                }
            }
            WqTarget::Counter(page) => {
                stats.nvm_counter_writes += 1;
                store.write_counter(page, e.payload);
            }
            WqTarget::Tree(id) => {
                stats.nvm_tree_writes += 1;
                store.write_tree(id, e.payload);
            }
        }
        start
    }

    /// Issues every entry whose service can start at or before `now`.
    pub fn drain_until(
        &mut self,
        now: Cycle,
        banks: &mut [BankTimer],
        store: &mut NvmStore,
        stats: &mut Stats,
        probes: &mut Probes,
    ) {
        if self.is_empty() {
            return;
        }
        while let Some((idx, start)) = self.next_issuable(banks) {
            if start > now {
                break;
            }
            self.issue_at(idx, banks, store, stats, probes);
        }
    }

    /// Blocks (in simulated time) until `needed` slots are free, issuing
    /// entries as required. Returns the cycle at which the slots are
    /// available, `>= from`. Stall time is charged to
    /// [`Stats::wq_stall_cycles`].
    ///
    /// # Panics
    ///
    /// Panics if `needed > capacity`.
    pub fn wait_for_slots(
        &mut self,
        needed: usize,
        from: Cycle,
        banks: &mut [BankTimer],
        store: &mut NvmStore,
        stats: &mut Stats,
        probes: &mut Probes,
    ) -> Cycle {
        assert!(needed <= self.capacity, "cannot wait for {needed} slots");
        // Opportunistically drain what has already had time to issue.
        self.drain_until(from, banks, store, stats, probes);
        if self.free_slots() >= needed {
            return from;
        }
        stats.wq_full_events += 1;
        let mut t = from;
        while self.free_slots() < needed {
            // Justified panic: a full queue always has an issuable entry
            // (every occupied slot eventually becomes ready).
            #[allow(clippy::disallowed_methods)]
            let (idx, start) = self
                .next_issuable(banks)
                .expect("full queue must have an issuable entry");
            let freed_at = start.max(t);
            self.issue_at(idx, banks, store, stats, probes);
            t = freed_at;
        }
        stats.wq_stall_cycles += t - from;
        probes.emit_with(|| Event::WqStall {
            needed,
            from,
            until: t,
        });
        t
    }

    /// Issues everything (end of run). Returns the cycle the last entry
    /// began service, or `from` if the queue was already empty.
    pub fn drain_all(
        &mut self,
        from: Cycle,
        banks: &mut [BankTimer],
        store: &mut NvmStore,
        stats: &mut Stats,
        probes: &mut Probes,
    ) -> Cycle {
        let mut t = from;
        while let Some((idx, start)) = self.next_issuable(banks) {
            t = t.max(start);
            self.issue_at(idx, banks, store, stats, probes);
        }
        t
    }

    /// Writes all pending entries into `store` in age order without
    /// touching bank timers or statistics — the ADR battery drain
    /// performed at a crash.
    pub fn flush_into(&self, store: &mut NvmStore) {
        let mut ordered: Vec<&WqEntry> = self.entries().map(|(_, e)| e).collect();
        ordered.sort_by_key(|e| e.seq);
        for e in ordered {
            match e.target {
                WqTarget::Data(line) => {
                    store.write_data(line, e.payload);
                    if let Some(tag) = e.tag {
                        store.write_tag(line, tag);
                    }
                }
                WqTarget::Counter(page) => store.write_counter(page, e.payload),
                WqTarget::Tree(id) => store.write_tree(id, e.payload),
            }
        }
    }

    /// [`WriteQueue::flush_into`] under a failing power event: the ADR
    /// drain tears at `tear` (entries past the cut are dropped, the
    /// entry at the cut lands as a seeded old/new word mix) and entries
    /// headed for `failed_bank` are lost with the hardware. Everything
    /// dropped or torn is recorded in `plan` so recovery's checked reads
    /// and the torture classifier can see what the media did.
    pub fn flush_into_faulted(
        &self,
        store: &mut NvmStore,
        failed_bank: Option<usize>,
        tear: Option<DrainTear>,
        plan: &mut FaultPlan,
    ) {
        let mut ordered: Vec<&WqEntry> = self.entries().map(|(_, e)| e).collect();
        ordered.sort_by_key(|e| e.seq);
        for (i, e) in ordered.iter().enumerate() {
            if let Some(t) = tear {
                if i > t.cut {
                    // Power died before this entry drained.
                    plan.note_torn_entry();
                    continue;
                }
            }
            if Some(e.bank) == failed_bank {
                match e.target {
                    WqTarget::Data(line) => plan.note_lost_data(line),
                    WqTarget::Counter(page) => plan.note_lost_counter(page),
                    WqTarget::Tree(id) => plan.note_lost_tree(id),
                }
                continue;
            }
            let torn = tear.filter(|t| t.cut == i);
            match e.target {
                WqTarget::Data(line) => {
                    let payload = match torn {
                        Some(t) => {
                            plan.note_torn_entry();
                            tear_line(&store.read_data(line), &e.payload, t.mask)
                        }
                        None => e.payload,
                    };
                    store.write_data(line, payload);
                    if let Some(tag) = e.tag {
                        store.write_tag(line, tag);
                    }
                }
                WqTarget::Counter(page) => {
                    let payload = match torn {
                        Some(t) => {
                            plan.note_torn_entry();
                            tear_line(&store.read_counter(page), &e.payload, t.mask)
                        }
                        None => e.payload,
                    };
                    store.write_counter(page, payload);
                }
                WqTarget::Tree(id) => {
                    let payload = match torn {
                        Some(t) => {
                            plan.note_torn_entry();
                            tear_line(&store.read_tree(id), &e.payload, t.mask)
                        }
                        None => e.payload,
                    };
                    store.write_tree(id, payload);
                }
            }
        }
    }

    /// The issue pick by a linear scan of the slab, probing the target
    /// index per entry — the reference the per-bank scheduler must match
    /// exactly (test-only).
    #[cfg(test)]
    pub(crate) fn linear_scan_pick(&self, banks: &[BankTimer]) -> Option<(usize, Cycle)> {
        let mut best: Option<(usize, Cycle, u64)> = None;
        for (i, e) in self.entries() {
            if self.index[&e.target][0] != i {
                continue; // an older write to the same target pends
            }
            let start = banks[e.bank].earliest_start(OpKind::Write, e.ready);
            match best {
                Some((_, bs, bseq)) if (bs, bseq) <= (start, e.seq) => {}
                _ => best = Some((i, start, e.seq)),
            }
        }
        best.map(|(i, s, _)| (i, s))
    }

    /// Test-only invariant check: the target index must agree with a
    /// linear scan of the slot slab — every occupied slot appears in
    /// exactly its target's list, lists are age (seq) ordered,
    /// free-list accounting matches, and forwarding answers equal the
    /// max-seq entry a scan would find. The scheduler state must agree
    /// too: keys mirror their entries, a slot is eligible iff it fronts
    /// its target list, each bank lists exactly its eligible slots, and
    /// every non-stale bank candidate equals a recomputation under the
    /// timer value it was cached for.
    #[cfg(test)]
    pub(crate) fn assert_index_matches_linear_scan(&self) {
        for (slot, e) in self.entries() {
            let k = self.keys[slot];
            assert_eq!((k.ready, k.seq, k.bank), (e.ready, e.seq, e.bank));
            let front = self.index[&e.target][0] == slot;
            assert_eq!(k.eligible, front, "eligible bit of slot {slot}");
            let listed = self.sched[e.bank].eligible.contains(&slot);
            assert_eq!(listed, front, "bank list membership of slot {slot}");
        }
        for (bank, s) in self.sched.iter().enumerate() {
            for &slot in &s.eligible {
                assert!(self.slots[slot].is_some(), "free slot {slot} listed");
                assert_eq!(self.keys[slot].bank, bank, "slot {slot} in wrong bank");
            }
            if s.busy == STALE {
                assert_eq!(s.best, None, "stale bank {bank} keeps a candidate");
            } else {
                let mut fresh = s.clone();
                fresh.recompute(&self.keys, s.busy);
                assert_eq!(s.best, fresh.best, "bank {bank} candidate drifted");
            }
        }
        let mut occupied: Vec<(usize, &WqEntry)> = self.entries().collect();
        occupied.sort_by_key(|&(_, e)| e.seq);
        let mut oracle: FxHashMap<WqTarget, Vec<usize>> = FxHashMap::default();
        for &(slot, e) in &occupied {
            oracle.entry(e.target).or_default().push(slot);
        }
        assert_eq!(self.index, oracle, "index diverged from slot scan");
        assert_eq!(
            self.free.len() + occupied.len(),
            self.capacity,
            "free-list accounting broken"
        );
        for &slot in &self.free {
            assert!(self.slots[slot].is_none(), "free slot {slot} is occupied");
        }
        for target in oracle.keys() {
            let newest_scan = occupied
                .iter()
                .filter(|(_, e)| e.target == *target)
                .max_by_key(|(_, e)| e.seq)
                .map(|&(_, e)| e.seq);
            assert_eq!(
                self.newest(*target).map(|e| e.seq),
                newest_scan,
                "forwarding answer diverged from linear scan for {target:?}"
            );
        }
    }

    /// Removes and returns every pending entry touching page `page`
    /// (its data lines or its counter line). Used before page
    /// re-encryption so no stale ciphertext can land after the rewrite.
    pub fn extract_page_entries(&mut self, page: PageId, page_bytes: u64) -> Vec<WqEntry> {
        let hits: Vec<usize> = self
            .entries()
            .filter(|(_, e)| match e.target {
                WqTarget::Data(line) => line.0 / page_bytes == page.0,
                WqTarget::Counter(p) => p == page,
                // Tree nodes cover whole leaf groups, not one page; they
                // stay queued across a page re-encryption.
                WqTarget::Tree(_) => false,
            })
            .map(|(i, _)| i)
            .collect();
        let mut out: Vec<WqEntry> = hits.into_iter().map(|i| self.remove_slot(i)).collect();
        out.sort_by_key(|e| e.seq);
        out
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;

    fn banks(n: usize) -> Vec<BankTimer> {
        (0..n).map(|_| BankTimer::new(126, 626, 15)).collect()
    }

    fn data_entry_args(addr: u64, bank: usize) -> (WqTarget, usize, LineData) {
        (WqTarget::Data(LineAddr(addr)), bank, [addr as u8; 64])
    }

    #[test]
    fn append_then_drain_writes_store() {
        let mut wq = WriteQueue::new(4, false);
        let mut b = banks(2);
        let mut store = NvmStore::new();
        let mut stats = Stats::new(2);
        let (t, bank, payload) = data_entry_args(0x40, 0);
        wq.append(t, bank, payload, None, 0);
        wq.drain_all(0, &mut b, &mut store, &mut stats, &mut Probes::default());
        assert_eq!(store.read_data(LineAddr(0x40)), [0x40; 64]);
        assert_eq!(stats.nvm_data_writes, 1);
        assert_eq!(stats.bank_writes[0], 1);
    }

    #[test]
    fn cwc_removes_older_counter_entry() {
        let mut wq = WriteQueue::new(8, true);
        let mut stats = Stats::new(1);
        let seq = wq.append(WqTarget::Counter(PageId(3)), 0, [1; 64], None, 0);
        assert_eq!(wq.coalesce_counter(PageId(3), &mut stats), Some(seq));
        assert_eq!(wq.len(), 0);
        assert_eq!(stats.counter_writes_coalesced, 1);
        // Nothing left to merge.
        assert_eq!(wq.coalesce_counter(PageId(3), &mut stats), None);
    }

    #[test]
    fn cwc_disabled_never_merges() {
        let mut wq = WriteQueue::new(8, false);
        let mut stats = Stats::new(1);
        wq.append(WqTarget::Counter(PageId(3)), 0, [1; 64], None, 0);
        assert_eq!(wq.coalesce_counter(PageId(3), &mut stats), None);
        assert_eq!(wq.len(), 1);
    }

    #[test]
    fn cwc_does_not_touch_other_pages_or_data() {
        let mut wq = WriteQueue::new(8, true);
        let mut stats = Stats::new(1);
        wq.append(WqTarget::Counter(PageId(4)), 0, [1; 64], None, 0);
        wq.append(WqTarget::Data(LineAddr(0x40)), 0, [2; 64], None, 0);
        assert_eq!(wq.coalesce_counter(PageId(3), &mut stats), None);
        assert_eq!(wq.len(), 2);
    }

    #[test]
    fn drain_until_respects_time() {
        let mut wq = WriteQueue::new(4, false);
        let mut b = banks(1);
        let mut store = NvmStore::new();
        let mut stats = Stats::new(1);
        wq.append(WqTarget::Data(LineAddr(0)), 0, [1; 64], None, 100);
        wq.drain_until(50, &mut b, &mut store, &mut stats, &mut Probes::default());
        assert_eq!(wq.len(), 1, "not ready yet");
        wq.drain_until(100, &mut b, &mut store, &mut stats, &mut Probes::default());
        assert_eq!(wq.len(), 0);
    }

    #[test]
    fn same_bank_entries_serialize() {
        let mut wq = WriteQueue::new(4, false);
        let mut b = banks(1);
        let mut store = NvmStore::new();
        let mut stats = Stats::new(1);
        wq.append(WqTarget::Data(LineAddr(0)), 0, [1; 64], None, 0);
        wq.append(WqTarget::Data(LineAddr(64)), 0, [2; 64], None, 0);
        // At t=0 only the first can start; the second starts at 626.
        wq.drain_until(0, &mut b, &mut store, &mut stats, &mut Probes::default());
        assert_eq!(wq.len(), 1);
        wq.drain_until(626, &mut b, &mut store, &mut stats, &mut Probes::default());
        assert_eq!(wq.len(), 0);
    }

    #[test]
    fn different_banks_issue_in_parallel() {
        let mut wq = WriteQueue::new(4, false);
        let mut b = banks(2);
        let mut store = NvmStore::new();
        let mut stats = Stats::new(2);
        wq.append(WqTarget::Data(LineAddr(0)), 0, [1; 64], None, 0);
        wq.append(WqTarget::Data(LineAddr(4096)), 1, [2; 64], None, 0);
        wq.drain_until(0, &mut b, &mut store, &mut stats, &mut Probes::default());
        assert_eq!(wq.len(), 0, "both banks start at t=0");
    }

    #[test]
    fn wait_for_slots_charges_stall() {
        // Queue of 2, single bank: filling it forces a stall.
        let mut wq = WriteQueue::new(2, false);
        let mut b = banks(1);
        let mut store = NvmStore::new();
        let mut stats = Stats::new(1);
        wq.append(WqTarget::Data(LineAddr(0)), 0, [1; 64], None, 0);
        wq.append(WqTarget::Data(LineAddr(64)), 0, [2; 64], None, 0);
        // Both pending; second can't start until 626. Wait for 2 slots at t=0:
        // first frees its slot at 0 (service start), second at 626.
        let t = wq.wait_for_slots(2, 0, &mut b, &mut store, &mut stats, &mut Probes::default());
        assert_eq!(t, 626);
        assert_eq!(stats.wq_stall_cycles, 626);
        assert_eq!(stats.wq_full_events, 1);
        assert_eq!(wq.free_slots(), 2);
    }

    #[test]
    fn wait_for_slots_fast_path_free() {
        let mut wq = WriteQueue::new(4, false);
        let mut b = banks(1);
        let mut store = NvmStore::new();
        let mut stats = Stats::new(1);
        let t = wq.wait_for_slots(
            2,
            77,
            &mut b,
            &mut store,
            &mut stats,
            &mut Probes::default(),
        );
        assert_eq!(t, 77);
        assert_eq!(stats.wq_stall_cycles, 0);
    }

    #[test]
    fn forwarding_returns_newest() {
        let mut wq = WriteQueue::new(4, false);
        wq.append(WqTarget::Data(LineAddr(0)), 0, [1; 64], Some((0, 1)), 0);
        wq.append(WqTarget::Data(LineAddr(0)), 0, [2; 64], Some((0, 2)), 5);
        let e = wq.forward_data(LineAddr(0)).unwrap();
        assert_eq!(e.payload, [2; 64]);
        assert_eq!(e.enc_counter, Some((0, 2)));
        assert!(wq.forward_data(LineAddr(64)).is_none());
    }

    #[test]
    fn counter_forwarding() {
        let mut wq = WriteQueue::new(4, false);
        wq.append(WqTarget::Counter(PageId(1)), 0, [9; 64], None, 0);
        assert!(wq.forward_counter(PageId(1)).is_some());
        assert!(wq.forward_counter(PageId(2)).is_none());
    }

    #[test]
    fn flush_into_applies_in_age_order() {
        let mut wq = WriteQueue::new(4, false);
        wq.append(WqTarget::Data(LineAddr(0)), 0, [1; 64], None, 0);
        wq.append(WqTarget::Data(LineAddr(0)), 0, [2; 64], None, 0);
        let mut store = NvmStore::new();
        wq.flush_into(&mut store);
        assert_eq!(store.read_data(LineAddr(0)), [2; 64], "newest wins");
        assert_eq!(wq.len(), 2, "ADR drain is non-destructive in the model");
    }

    #[test]
    fn extract_page_entries_filters_by_page() {
        let mut wq = WriteQueue::new(8, false);
        wq.append(WqTarget::Data(LineAddr(0)), 0, [1; 64], None, 0); // page 0
        wq.append(WqTarget::Data(LineAddr(4096)), 1, [2; 64], None, 0); // page 1
        wq.append(WqTarget::Counter(PageId(0)), 0, [3; 64], None, 0);
        let got = wq.extract_page_entries(PageId(0), 4096);
        assert_eq!(got.len(), 2);
        assert_eq!(wq.len(), 1);
    }

    #[test]
    fn tree_entries_issue_to_the_tree_region() {
        let mut wq = WriteQueue::new(4, false);
        let mut b = banks(2);
        let mut store = NvmStore::new();
        let mut stats = Stats::new(2);
        wq.append(WqTarget::Tree(7), 1, [0x5C; 64], None, 0);
        assert!(!wq.slots.iter().flatten().any(WqEntry::is_counter));
        wq.drain_all(0, &mut b, &mut store, &mut stats, &mut Probes::default());
        assert_eq!(store.read_tree(7), [0x5C; 64]);
        assert_eq!(stats.nvm_tree_writes, 1);
        assert_eq!(stats.nvm_data_writes, 0);
        assert_eq!(stats.nvm_counter_writes, 0);
        assert_eq!(stats.bank_writes[1], 1, "tree writes occupy their bank");
    }

    #[test]
    fn flush_into_lands_tree_entries() {
        let mut wq = WriteQueue::new(4, false);
        wq.append(WqTarget::Tree(3), 0, [1; 64], None, 0);
        wq.append(WqTarget::Tree(3), 0, [2; 64], None, 0);
        let mut store = NvmStore::new();
        wq.flush_into(&mut store);
        assert_eq!(store.read_tree(3), [2; 64], "newest wins");
    }

    #[test]
    fn faulted_flush_loses_tree_entries_with_their_bank() {
        use supermem_nvm::fault::FaultPlan;
        let mut wq = WriteQueue::new(8, false);
        let mut store = NvmStore::new();
        wq.append(WqTarget::Tree(1), 0, [1; 64], None, 0);
        wq.append(WqTarget::Tree(2), 1, [2; 64], None, 0);
        let mut plan = FaultPlan::default();
        wq.flush_into_faulted(&mut store, Some(0), None, &mut plan);
        assert_eq!(store.read_tree(1), [0; 64]);
        assert!(plan.tree_lost(1));
        assert_eq!(store.read_tree(2), [2; 64]);
        assert!(!plan.tree_lost(2));
    }

    #[test]
    fn extract_page_entries_leaves_tree_entries_queued() {
        let mut wq = WriteQueue::new(8, false);
        wq.append(WqTarget::Data(LineAddr(0)), 0, [1; 64], None, 0); // page 0
        wq.append(WqTarget::Tree(0), 0, [2; 64], None, 0);
        let got = wq.extract_page_entries(PageId(0), 4096);
        assert_eq!(got.len(), 1);
        assert_eq!(wq.len(), 1, "the tree entry stays");
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn append_past_capacity_panics() {
        let mut wq = WriteQueue::new(2, false);
        wq.append(WqTarget::Data(LineAddr(0)), 0, [0; 64], None, 0);
        wq.append(WqTarget::Data(LineAddr(64)), 0, [0; 64], None, 0);
        wq.append(WqTarget::Data(LineAddr(128)), 0, [0; 64], None, 0);
    }

    #[test]
    fn same_line_writes_issue_in_seq_order_despite_inverted_ready() {
        // Regression: a later write to the same line can carry an
        // *earlier* ready time (posted write behind a queue stall); it
        // must still issue after the older write or the store ends up
        // with stale data.
        let mut wq = WriteQueue::new(4, false);
        let mut b = banks(1);
        let mut store = NvmStore::new();
        let mut stats = Stats::new(1);
        wq.append(WqTarget::Data(LineAddr(0)), 0, [5; 64], None, 1000);
        wq.append(WqTarget::Data(LineAddr(0)), 0, [6; 64], None, 10);
        wq.drain_all(0, &mut b, &mut store, &mut stats, &mut Probes::default());
        assert_eq!(
            store.read_data(LineAddr(0)),
            [6; 64],
            "newest payload must win"
        );
    }

    #[test]
    fn different_lines_can_bypass_a_stalled_older_entry() {
        // Same-address ordering must not serialize unrelated lines.
        let mut wq = WriteQueue::new(4, false);
        let mut b = banks(2);
        let mut store = NvmStore::new();
        let mut stats = Stats::new(2);
        wq.append(WqTarget::Data(LineAddr(0)), 0, [1; 64], None, 1000);
        wq.append(WqTarget::Data(LineAddr(4096)), 1, [2; 64], None, 0);
        wq.drain_until(0, &mut b, &mut store, &mut stats, &mut Probes::default());
        assert_eq!(wq.len(), 1, "the line in the other bank issues at t=0");
        assert_eq!(store.read_data(LineAddr(4096)), [2; 64]);
    }

    #[test]
    fn pending_snapshot_reflects_queue_order() {
        let mut wq = WriteQueue::new(4, false);
        wq.append(WqTarget::Data(LineAddr(0)), 0, [1; 64], None, 0);
        wq.append(WqTarget::Counter(PageId(2)), 1, [2; 64], None, 0);
        let p: Vec<_> = wq.pending().collect();
        assert_eq!(p.len(), 2);
        assert_eq!(p[0].0, WqTarget::Data(LineAddr(0)));
        assert!(p[0].1 < p[1].1, "seq must increase");
    }

    #[test]
    fn pending_iterator_matches_sorted_scan() {
        // The lazy min-scan iterator must yield exactly what collecting
        // and sorting the slab by seq would, in the same order.
        let mut wq = WriteQueue::new(8, true);
        let mut stats = Stats::new(2);
        for addr in [0u64, 64, 128, 192] {
            wq.append(WqTarget::Data(LineAddr(addr)), 0, [1; 64], None, 0);
        }
        wq.append(WqTarget::Counter(PageId(1)), 1, [2; 64], None, 0);
        // Punch a hole in the seq sequence so order != slot order.
        wq.coalesce_counter(PageId(1), &mut stats);
        wq.append(WqTarget::Counter(PageId(1)), 1, [3; 64], None, 0);
        let mut oracle: Vec<(WqTarget, u64)> =
            wq.entries().map(|(_, e)| (e.target, e.seq)).collect();
        oracle.sort_by_key(|&(_, seq)| seq);
        let got: Vec<_> = wq.pending().collect();
        assert_eq!(got, oracle);
        assert!(
            got.windows(2).all(|w| w[0].1 < w[1].1),
            "strictly ascending"
        );
    }

    #[test]
    fn oldest_first_among_equal_starts() {
        let mut wq = WriteQueue::new(4, false);
        let mut b = banks(2);
        let mut store = NvmStore::new();
        let mut stats = Stats::new(2);
        // Same bank, same ready: the older one must issue first so the
        // final store value is the newer payload.
        wq.append(WqTarget::Data(LineAddr(0)), 0, [1; 64], None, 0);
        wq.append(WqTarget::Data(LineAddr(0)), 0, [2; 64], None, 0);
        wq.drain_all(0, &mut b, &mut store, &mut stats, &mut Probes::default());
        assert_eq!(store.read_data(LineAddr(0)), [2; 64]);
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod randomized {
    //! Deterministic randomized tests (seeded SplitMix64 stands in for
    //! proptest, which is unavailable in offline builds).
    use super::*;
    use std::collections::HashMap;
    use supermem_nvm::bank::BankTimer;
    use supermem_sim::{EventTape, SplitMix64};

    fn banks(n: usize) -> Vec<BankTimer> {
        (0..n).map(|_| BankTimer::new(126, 626, 15)).collect()
    }

    #[derive(Debug, Clone)]
    enum QOp {
        AppendData { line: u64, fill: u8, ready: u64 },
        AppendCounter { page: u64, fill: u8, ready: u64 },
        Drain { until: u64 },
    }

    fn random_qop(rng: &mut SplitMix64) -> QOp {
        match rng.next_below(3) {
            0 => QOp::AppendData {
                line: rng.next_below(16) * 64,
                fill: rng.next_u64() as u8,
                ready: rng.next_below(10_000),
            },
            1 => QOp::AppendCounter {
                page: rng.next_below(4),
                fill: rng.next_u64() as u8,
                ready: rng.next_below(10_000),
            },
            _ => QOp::Drain {
                until: rng.next_below(100_000),
            },
        }
    }

    /// Under arbitrary appends (with arbitrary, possibly inverted
    /// ready times), coalescing, and partial drains, the queue never
    /// exceeds capacity and the final store holds the newest payload
    /// for every line — no write is ever lost or misordered.
    #[test]
    fn no_lost_or_stale_writes() {
        let mut rng = SplitMix64::new(0x90EE);
        for _ in 0..64 {
            let ops: Vec<QOp> = (0..rng.next_range(1, 150))
                .map(|_| random_qop(&mut rng))
                .collect();
            let mut wq = WriteQueue::new(8, true);
            let mut b = banks(2);
            let mut store = NvmStore::new();
            let mut stats = Stats::new(2);
            let mut newest_data: HashMap<u64, u8> = HashMap::new();
            let mut newest_ctr: HashMap<u64, u8> = HashMap::new();
            for op in &ops {
                match op {
                    QOp::AppendData { line, fill, ready } => {
                        wq.wait_for_slots(
                            1,
                            *ready,
                            &mut b,
                            &mut store,
                            &mut stats,
                            &mut Probes::default(),
                        );
                        wq.append(
                            WqTarget::Data(LineAddr(*line)),
                            (*line / 64 % 2) as usize,
                            [*fill; 64],
                            None,
                            *ready,
                        );
                        newest_data.insert(*line, *fill);
                    }
                    QOp::AppendCounter { page, fill, ready } => {
                        wq.wait_for_slots(
                            1,
                            *ready,
                            &mut b,
                            &mut store,
                            &mut stats,
                            &mut Probes::default(),
                        );
                        wq.coalesce_counter(PageId(*page), &mut stats);
                        // Coalescing may have freed a slot; capacity is
                        // still guaranteed by the earlier wait.
                        wq.append(
                            WqTarget::Counter(PageId(*page)),
                            (*page % 2) as usize,
                            [*fill; 64],
                            None,
                            *ready,
                        );
                        newest_ctr.insert(*page, *fill);
                    }
                    QOp::Drain { until } => {
                        wq.drain_until(
                            *until,
                            &mut b,
                            &mut store,
                            &mut stats,
                            &mut Probes::default(),
                        );
                    }
                }
                assert!(wq.len() <= wq.capacity());
            }
            wq.drain_all(0, &mut b, &mut store, &mut stats, &mut Probes::default());
            for (&line, &fill) in &newest_data {
                assert_eq!(store.read_data(LineAddr(line)), [fill; 64]);
            }
            for (&page, &fill) in &newest_ctr {
                assert_eq!(store.read_counter(PageId(page)), [fill; 64]);
            }
        }
    }

    /// Operations the scheduler oracle drives: the queue ops above plus
    /// everything else that moves a bank candidate.
    #[derive(Debug, Clone)]
    enum SchedOp {
        Queue(QOp),
        /// A counter append that skips CWC, so a second same-page entry
        /// queues behind the first until a later coalesce removes the
        /// older one and unblocks it.
        AppendCounterUncoalesced {
            page: u64,
            fill: u8,
            ready: u64,
        },
        /// A demand read moving a bank timer between writes.
        DemandRead {
            bank: usize,
            at: u64,
        },
        /// A bank timer reset (its `busy_until` moves *backwards*).
        ResetBank {
            bank: usize,
        },
        /// Page re-encryption pulls arbitrary, not only front, entries.
        Extract {
            page: u64,
        },
    }

    const SCHED_BANKS: usize = 4;
    /// Small pages so the 16-line data domain spans the 4 counter pages.
    const SCHED_PAGE_BYTES: u64 = 256;

    fn random_sched_op(rng: &mut SplitMix64) -> SchedOp {
        match rng.next_below(9) {
            0..=3 => SchedOp::Queue(random_qop(rng)),
            4 => SchedOp::AppendCounterUncoalesced {
                page: rng.next_below(4),
                fill: rng.next_u64() as u8,
                ready: rng.next_below(10_000),
            },
            5 | 6 => SchedOp::DemandRead {
                bank: rng.next_below(SCHED_BANKS as u64) as usize,
                at: rng.next_below(100_000),
            },
            7 => SchedOp::ResetBank {
                bank: rng.next_below(SCHED_BANKS as u64) as usize,
            },
            _ => SchedOp::Extract {
                page: rng.next_below(4),
            },
        }
    }

    /// Checks the CWC contract on one coalesce: it fires iff a counter
    /// entry for the page pends, and removes exactly the oldest one.
    fn coalesce_checked(wq: &mut WriteQueue, page: u64, stats: &mut Stats) {
        let target = WqTarget::Counter(PageId(page));
        let seqs = |wq: &WriteQueue| -> Vec<u64> {
            wq.pending()
                .filter(|&(t, _)| t == target)
                .map(|(_, s)| s)
                .collect()
        };
        let before = seqs(wq);
        let merged = wq.coalesce_counter(PageId(page), stats);
        assert_eq!(
            merged.is_some(),
            !before.is_empty(),
            "CWC fires iff one pends"
        );
        if let Some(victim) = merged {
            let oldest = *before.iter().min().expect("non-empty");
            assert_eq!(victim, oldest, "CWC reports the oldest as victim");
            let after = seqs(wq);
            assert!(!after.contains(&oldest), "CWC drops the oldest");
            assert_eq!(after.len(), before.len() - 1);
        }
    }

    /// Runs one op sequence and returns the final store, stats, and the
    /// event stream. After every op the index and scheduler invariants
    /// must hold, the incremental pick (slot and start) must equal the
    /// linear-scan reference, and forwarding must match a scan.
    fn run_sched_ops(ops: &[SchedOp], fast_forward: bool) -> (NvmStore, Stats, Vec<Event>) {
        let mut wq = WriteQueue::new(8, true);
        wq.set_fast_forward(fast_forward);
        let mut b = banks(SCHED_BANKS);
        let mut store = NvmStore::new();
        let mut stats = Stats::new(SCHED_BANKS);
        let mut probes = Probes::default();
        probes.attach(Box::new(EventTape::default()));
        for op in ops {
            match op {
                SchedOp::Queue(QOp::AppendData { line, fill, ready }) => {
                    wq.wait_for_slots(1, *ready, &mut b, &mut store, &mut stats, &mut probes);
                    let bank = (*line / 64) as usize % SCHED_BANKS;
                    wq.append(
                        WqTarget::Data(LineAddr(*line)),
                        bank,
                        [*fill; 64],
                        None,
                        *ready,
                    );
                }
                SchedOp::Queue(QOp::AppendCounter { page, fill, ready }) => {
                    wq.wait_for_slots(1, *ready, &mut b, &mut store, &mut stats, &mut probes);
                    coalesce_checked(&mut wq, *page, &mut stats);
                    let target = WqTarget::Counter(PageId(*page));
                    wq.append(target, *page as usize, [*fill; 64], None, *ready);
                }
                SchedOp::AppendCounterUncoalesced { page, fill, ready } => {
                    wq.wait_for_slots(1, *ready, &mut b, &mut store, &mut stats, &mut probes);
                    let target = WqTarget::Counter(PageId(*page));
                    wq.append(target, *page as usize, [*fill; 64], None, *ready);
                }
                SchedOp::Queue(QOp::Drain { until }) => {
                    wq.drain_until(*until, &mut b, &mut store, &mut stats, &mut probes);
                }
                SchedOp::DemandRead { bank, at } => {
                    b[*bank].issue(OpKind::Read, *at);
                }
                SchedOp::ResetBank { bank } => b[*bank].reset(),
                SchedOp::Extract { page } => {
                    wq.extract_page_entries(PageId(*page), SCHED_PAGE_BYTES);
                }
            }
            wq.assert_index_matches_linear_scan();
            let reference = wq.linear_scan_pick(&b);
            assert_eq!(
                wq.next_issuable(&b),
                reference,
                "pick diverged after {op:?}"
            );
            // Forwarding vs oracle over the whole address domain,
            // including targets with nothing pending (must be None).
            for line in 0..16u64 {
                let addr = LineAddr(line * 64);
                let scan = wq
                    .pending()
                    .filter(|&(t, _)| t == WqTarget::Data(addr))
                    .map(|(_, s)| s)
                    .max();
                assert_eq!(wq.forward_data(addr).map(|e| e.seq), scan);
            }
            for page in 0..4u64 {
                let scan = wq
                    .pending()
                    .filter(|&(t, _)| t == WqTarget::Counter(PageId(page)))
                    .map(|(_, s)| s)
                    .max();
                assert_eq!(wq.forward_counter(PageId(page)).map(|e| e.seq), scan);
            }
        }
        wq.drain_all(0, &mut b, &mut store, &mut stats, &mut probes);
        wq.assert_index_matches_linear_scan();
        assert!(wq.is_empty(), "drain_all empties the queue");
        assert_eq!(wq.next_issuable(&b), None);
        let tape = probes
            .take()
            .pop()
            .and_then(|mut obs| {
                obs.as_any_mut()
                    .downcast_mut::<EventTape>()
                    .map(std::mem::take)
            })
            .expect("the attached tape");
        (store, stats, tape.into_events())
    }

    /// The auxiliary target index and the per-bank scheduler must stay
    /// in lockstep with a linear scan of the slot slab under arbitrary
    /// append / CWC coalesce / page extraction / partial drain
    /// sequences interleaved with demand reads and bank resets that move
    /// the timers: after every op the incremental pick equals the
    /// linear-scan pick, forwarding returns exactly what a scan for the
    /// max-seq matching entry would, and CWC fires iff a counter entry
    /// for the page is pending — removing exactly the oldest one. With
    /// the bank-candidate cache on and off, the same ops produce the
    /// same store, statistics, and event stream.
    #[test]
    fn index_agrees_with_linear_scan_oracle() {
        let mut rng = SplitMix64::new(0x1D0C);
        for _ in 0..64 {
            let ops: Vec<SchedOp> = (0..rng.next_range(1, 200))
                .map(|_| random_sched_op(&mut rng))
                .collect();
            let cached = run_sched_ops(&ops, true);
            let reference = run_sched_ops(&ops, false);
            assert!(cached == reference, "fast_forward changed the outcome");
        }
    }

    #[test]
    fn faulted_flush_tears_the_cut_entry_and_drops_the_rest() {
        use supermem_nvm::fault::{DrainTear, FaultPlan};
        let mut wq = WriteQueue::new(8, false);
        let mut store = NvmStore::new();
        store.write_data(LineAddr(0x80), [0xAA; 64]); // old bytes at the cut
        for addr in [0x40u64, 0x80, 0xC0] {
            wq.append(WqTarget::Data(LineAddr(addr)), 0, [addr as u8; 64], None, 0);
        }
        let mut plan = FaultPlan::default();
        let tear = DrainTear {
            cut: 1,
            mask: 0x0F, // words 0..4 land new, words 4..8 keep old
        };
        wq.flush_into_faulted(&mut store, None, Some(tear), &mut plan);
        // Before the cut: fully applied.
        assert_eq!(store.read_data(LineAddr(0x40)), [0x40; 64]);
        // At the cut: a seeded old/new word mix, not either whole line.
        let torn = store.read_data(LineAddr(0x80));
        assert_eq!(
            &torn[..32],
            &[0x80; 32][..],
            "mask=0x0F lands new low words"
        );
        assert_eq!(
            &torn[32..],
            &[0xAA; 32][..],
            "mask=0x0F keeps old high words"
        );
        // After the cut: never written, and the loss is recorded.
        assert_eq!(store.read_data(LineAddr(0xC0)), [0; 64]);
        assert_eq!(plan.counters().torn_entries, 2, "one torn + one dropped");
    }

    #[test]
    fn faulted_flush_loses_entries_headed_for_the_failed_bank() {
        use supermem_nvm::fault::FaultPlan;
        let mut wq = WriteQueue::new(8, false);
        let mut store = NvmStore::new();
        wq.append(WqTarget::Data(LineAddr(0x40)), 0, [1; 64], None, 0);
        wq.append(WqTarget::Data(LineAddr(0x80)), 1, [2; 64], None, 0);
        wq.append(WqTarget::Counter(PageId(3)), 0, [4; 64], None, 0);
        let mut plan = FaultPlan::default();
        wq.flush_into_faulted(&mut store, Some(0), None, &mut plan);
        // Bank 0's data and counter entries died with the hardware.
        assert_eq!(store.read_data(LineAddr(0x40)), [0; 64]);
        assert!(plan.data_lost(LineAddr(0x40)));
        assert!(plan.counter_lost(PageId(3)));
        // Bank 1's entry landed.
        assert_eq!(store.read_data(LineAddr(0x80)), [2; 64]);
        assert!(!plan.data_lost(LineAddr(0x80)));
    }
}
