//! Crash campaigns: one engine that crashes a workload after every
//! write-queue append, injects a fault, recovers the image and judges it.
//!
//! Every crash-consistency claim in this repository is checked by the
//! same loop. A [`Campaign`] owns it; a [`Subject`] supplies only what
//! differs between the things under test — the durably shut-down base
//! state, the workload, the application-level recovery and the oracle.
//! For each case the engine:
//!
//! 1. builds the subject's base system (the crash points of a
//!    `(cell, seed)` pair are counted once, by a dry run of the workload
//!    from that base, shutdown drain included);
//! 2. arms a crash after `point` appends (machine-wide across channels)
//!    and, for a power-event [`FaultClass`], plans it before the workload
//!    runs;
//! 3. captures the machine image — or, when the armed point lies beyond
//!    the last append, shuts down cleanly and images that — and strikes
//!    any media fault on the settled image: data lines on one
//!    seed-chosen channel, persisted tree-node lines, or an ECC-clean
//!    tamper ([`Target`]);
//! 4. recovers the image through
//!    [`RecoveredMemory::from_machine_image_checked`], which runs the
//!    integrity-checked rebuild or, when the machine relaxes counter
//!    persistence, Osiris trial decryption; a refusal is
//!    [`Verdict::Detected`];
//! 5. hands the recovered memory to the subject's [`Subject::judge`] and,
//!    when the data matches no oracle state, applies the one detection
//!    rule: the damage is [`Verdict::Detected`] if an ECC detection, a
//!    poisoned or transient read, the dirty-shutdown latch (torn or
//!    dropped drain entries), a media failure, an Osiris-unrecoverable
//!    line or the subject's own damage bit fired, and
//!    [`Verdict::Silent`] otherwise.
//!
//! Cases fan out over [`sweep`] and come back in input order, so every
//! tally is identical at any `SUPERMEM_THREADS`. A silent case shrinks to
//! its smallest crash point with the same verdict through [`shrink`],
//! the one halving shrinker every reproducer uses.
//!
//! # Examples
//!
//! ```
//! use supermem::campaign::{Fault, Verdict};
//! use supermem::torture::torture_campaign;
//! use supermem::Scheme;
//!
//! let mut campaign = torture_campaign(&[Scheme::SuperMem], &[1]);
//! campaign.faults = vec![Fault::None, Fault::Media(supermem::nvm::FaultClass::Torn)];
//! campaign.seeds = vec![1];
//! let report = campaign.run();
//! assert!(report.silent().is_empty(), "no silent corruption");
//! assert!(report.count(Verdict::Old) > 0);
//! ```

use std::fmt;

use supermem_memctrl::MachineCrashImage;
use supermem_nvm::{FaultClass, FaultCounters, FaultSpec};
use supermem_persist::{DirectMem, RecoveredMemory};
use supermem_sim::Config;

use crate::scheme::Scheme;
use crate::sweep::sweep;

/// What one case amounted to after recovery and the oracle check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The pre-workload state survived (rollback, early crash, or only
    /// the unacknowledged tail lost).
    Old,
    /// The post-workload state survived (the mutation is durable).
    New,
    /// Degraded, but honestly: recovery refused with a typed error or a
    /// detection signal fired.
    Detected,
    /// Wrong data with no error and no signal: silent corruption. A
    /// campaign containing one fails.
    Silent,
}

impl Verdict {
    /// Stable display spelling; subjects may relabel `Old`/`New`
    /// through [`Subject::label`].
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Old => "recovered-old",
            Verdict::New => "recovered-new",
            Verdict::Detected => "detected",
            Verdict::Silent => "SILENT",
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What a case injects besides the crash itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Crash-only baseline.
    None,
    /// A media fault. Power-event classes (torn drain, bank fail-stop)
    /// strike *at* the crash; the others strike the settled image at the
    /// subject's [`Target`].
    Media(FaultClass),
    /// An ECC-clean byte rewrite of one persisted tree-node line: active
    /// tampering only the recovery-time tree audit can catch.
    Tamper,
}

impl Fault {
    /// The crash-only baseline followed by every media fault class — the
    /// default fault axis of the data campaigns.
    pub fn media_grid() -> Vec<Fault> {
        let mut faults = vec![Fault::None];
        faults.extend(FaultClass::ALL.into_iter().map(Fault::Media));
        faults
    }

    /// Stable CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            Fault::None => "none",
            Fault::Media(c) => c.name(),
            Fault::Tamper => "tamper",
        }
    }

    /// The media fault class, if any.
    pub fn class(self) -> Option<FaultClass> {
        match self {
            Fault::Media(c) => Some(c),
            Fault::None | Fault::Tamper => None,
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Where a non-power-event media fault strikes the settled image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Data lines of one seed-chosen channel.
    Data,
    /// Persisted integrity-tree node lines (channel 0).
    TreeNodes,
}

/// A labelled machine configuration: one row of a campaign's machine
/// axis. Scheme rows carry the scheme's display name; ablations carry
/// their own (`WT w/o register`).
#[derive(Debug, Clone, PartialEq)]
pub struct Machine {
    /// Row label in tallies and (lower-cased) the `--scheme` spelling of
    /// reproducers.
    pub label: String,
    /// The machine the case runs on.
    pub cfg: Config,
}

impl Machine {
    /// `scheme` applied to the default machine, interleaved over
    /// `channels` controllers.
    pub fn scheme(scheme: Scheme, channels: usize) -> Self {
        Self::new(
            scheme.name(),
            scheme.apply(Config::default()).with_channels(channels),
        )
    }

    /// A machine row under an arbitrary label.
    pub fn new(label: &str, cfg: Config) -> Self {
        Self {
            label: label.to_owned(),
            cfg,
        }
    }
}

/// One fully determined case.
#[derive(Debug, Clone, PartialEq)]
pub struct Case<C> {
    /// The subject's machine-axis coordinate.
    pub cell: C,
    /// What to inject.
    pub fault: Fault,
    /// Crash after this many write-queue appends (1-based, machine-wide).
    pub point: u64,
    /// Seed fixing every choice the workload and the injection make.
    pub seed: u64,
}

impl Case<Machine> {
    /// The reproducer line `supermem {command} --scheme S --fault F
    /// --point K --seed N [--channels C]` for this case.
    pub fn scheme_repro(&self, command: &str) -> String {
        let mut line = format!(
            "supermem {command} --scheme {} --fault {} --point {} --seed {}",
            self.cell.label.to_ascii_lowercase(),
            self.fault,
            self.point,
            self.seed
        );
        if self.cell.cfg.channels != 1 {
            line.push_str(&format!(" --channels {}", self.cell.cfg.channels));
        }
        line
    }
}

/// A subject oracle's reading of one recovered image.
#[derive(Debug, Clone)]
pub struct Judgement<E> {
    /// `Some(Old | New)` when the state matches an oracle state,
    /// `Some(Detected)` when the subject's own recovery refused with a
    /// typed error, `Some(Silent)` for a breach of the subject's recovery
    /// contract; `None` when the state matches no oracle state and the
    /// engine's detection rule decides.
    pub verdict: Option<Verdict>,
    /// The subject's own damage bit: the recovery visibly noticed damage
    /// (counts as a detection signal).
    pub damaged: bool,
    /// Evidence for the reading.
    pub detail: String,
    /// The subject's typed recovery report, when its recovery produced one.
    pub evidence: Option<E>,
}

impl<E> Judgement<E> {
    /// A final verdict with its evidence.
    pub fn of(verdict: Verdict, detail: String) -> Self {
        Self {
            verdict: Some(verdict),
            damaged: false,
            detail,
            evidence: None,
        }
    }

    /// The state matches no oracle state; `damaged` is the subject's own
    /// damage bit.
    pub fn wrong(damaged: bool, detail: String) -> Self {
        Self {
            verdict: None,
            damaged,
            detail,
            evidence: None,
        }
    }

    /// Attaches the subject's recovery report.
    pub fn with_evidence(mut self, evidence: E) -> Self {
        self.evidence = Some(evidence);
        self
    }
}

/// What a campaign tortures: base state, workload, application-level
/// recovery and oracle. The engine does everything else.
pub trait Subject: Sync {
    /// One row of the machine axis (a labelled config, a structure, ...).
    type Cell: Clone + Send + Sync;
    /// Per-case state beside the memory: store handles and the oracle.
    type State;
    /// The subject's typed recovery report carried into results (`()`
    /// when it has none).
    type Evidence: Clone + Send;

    /// The machine `cell` runs on.
    fn config(&self, cell: &Self::Cell) -> Config;

    /// The durably shut-down system the workload starts from, with its
    /// state (oracle included) for `seed`.
    fn base(&self, cfg: &Config, cell: &Self::Cell, seed: u64) -> (DirectMem, Self::State);

    /// Runs the tortured workload (the crash may fire anywhere inside).
    fn workload(&self, mem: &mut DirectMem, state: &mut Self::State);

    /// Application-level recovery of `rec` and the oracle check, for a
    /// crash after `point` appends.
    fn judge(
        &self,
        rec: &mut RecoveredMemory,
        state: &Self::State,
        point: u64,
    ) -> Judgement<Self::Evidence>;

    /// The CLI invocation reproducing `case`.
    fn repro(&self, case: &Case<Self::Cell>) -> String;

    /// Where non-power-event media faults strike.
    fn target(&self) -> Target {
        Target::Data
    }

    /// Display spelling of `verdict` for this subject.
    fn label(&self, verdict: Verdict) -> &'static str {
        verdict.name()
    }
}

/// The outcome of one executed [`Case`].
#[derive(Debug, Clone)]
pub struct CaseResult<C, E> {
    /// The case that ran.
    pub case: Case<C>,
    /// Its verdict.
    pub verdict: Verdict,
    /// Human-readable evidence for the verdict.
    pub detail: String,
    /// The subject's recovery report, when it produced one.
    pub evidence: Option<E>,
}

/// Per-row verdict counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Cases in the row.
    pub cases: u64,
    /// [`Verdict::Old`] cases.
    pub old: u64,
    /// [`Verdict::New`] cases.
    pub new: u64,
    /// [`Verdict::Detected`] cases.
    pub detected: u64,
    /// [`Verdict::Silent`] cases.
    pub silent: u64,
}

impl Tally {
    /// Counts one verdict.
    pub fn add(&mut self, v: Verdict) {
        self.cases += 1;
        match v {
            Verdict::Old => self.old += 1,
            Verdict::New => self.new += 1,
            Verdict::Detected => self.detected += 1,
            Verdict::Silent => self.silent += 1,
        }
    }

    /// The count of verdict `v`.
    pub fn of(&self, v: Verdict) -> u64 {
        match v {
            Verdict::Old => self.old,
            Verdict::New => self.new,
            Verdict::Detected => self.detected,
            Verdict::Silent => self.silent,
        }
    }

    /// Cases that recovered neither oracle state.
    pub fn unrecoverable(&self) -> u64 {
        self.detected + self.silent
    }

    /// One-word verdict for a summary table.
    pub fn verdict(&self) -> &'static str {
        if self.silent > 0 {
            "SILENT CORRUPTION"
        } else {
            "fail-safe"
        }
    }
}

/// Everything a campaign produced.
#[derive(Debug, Clone)]
pub struct Report<C, E> {
    /// Every executed case, in sweep (input) order.
    pub results: Vec<CaseResult<C, E>>,
}

impl<C, E> Report<C, E> {
    /// Total injections executed.
    pub fn total(&self) -> u64 {
        self.results.len() as u64
    }

    /// The silent-corruption cases (a passing campaign has none).
    pub fn silent(&self) -> Vec<&CaseResult<C, E>> {
        self.results
            .iter()
            .filter(|r| r.verdict == Verdict::Silent)
            .collect()
    }

    /// Count of cases with verdict `v`.
    pub fn count(&self, v: Verdict) -> u64 {
        self.results.iter().filter(|r| r.verdict == v).count() as u64
    }

    /// Tallies per row key, rows in first-seen order.
    pub fn tally_by<K: PartialEq>(&self, key: impl Fn(&CaseResult<C, E>) -> K) -> Vec<(K, Tally)> {
        let mut rows: Vec<(K, Tally)> = Vec::new();
        for r in &self.results {
            let k = key(r);
            let i = rows
                .iter()
                .position(|(seen, _)| *seen == k)
                .unwrap_or_else(|| {
                    rows.push((k, Tally::default()));
                    rows.len() - 1
                });
            rows[i].1.add(r.verdict);
        }
        rows
    }
}

/// A campaign: subject × cells × faults × seeds × crash points.
#[derive(Debug, Clone)]
pub struct Campaign<S: Subject> {
    /// What is tortured.
    pub subject: S,
    /// The machine axis.
    pub cells: Vec<S::Cell>,
    /// What each case injects.
    pub faults: Vec<Fault>,
    /// Seeds; each `(cell, seed)` pair counts its own crash points.
    pub seeds: Vec<u64>,
    /// Restrict the sweep to this single crash point (clamped into
    /// range), if set.
    pub point: Option<u64>,
}

/// The results of a campaign over `S`.
pub type SubjectReport<S> = Report<<S as Subject>::Cell, <S as Subject>::Evidence>;

impl<S: Subject> Campaign<S> {
    /// Number of write-queue appends the workload crosses from `cell`'s
    /// base under `seed`, shutdown drain included: the crash points the
    /// sweep visits (a dry run, no faults).
    pub fn crash_points(&self, cell: &S::Cell, seed: u64) -> u64 {
        let s = &self.subject;
        let cfg = s.config(cell);
        let (mut mem, mut state) = s.base(&cfg, cell, seed);
        let before = mem.controller().append_events();
        s.workload(&mut mem, &mut state);
        mem.shutdown();
        mem.controller().append_events() - before
    }

    /// Every case, ordered cell, seed, fault, point.
    fn cases(&self) -> Vec<Case<S::Cell>> {
        let mut cases = Vec::new();
        for cell in &self.cells {
            for &seed in &self.seeds {
                let total = self.crash_points(cell, seed);
                let points = match self.point {
                    Some(p) => p.clamp(1, total)..=p.clamp(1, total),
                    None => 1..=total,
                };
                for &fault in &self.faults {
                    for point in points.clone() {
                        cases.push(Case {
                            cell: cell.clone(),
                            fault,
                            point,
                            seed,
                        });
                    }
                }
            }
        }
        cases
    }

    /// Runs every case over the parallel sweep engine.
    pub fn run(&self) -> SubjectReport<S> {
        Report {
            results: sweep(&self.cases(), |c| self.run_case(c)),
        }
    }

    /// Executes one case end to end.
    pub fn run_case(&self, case: &Case<S::Cell>) -> CaseResult<S::Cell, S::Evidence> {
        let s = &self.subject;
        let cfg = s.config(&case.cell);
        let (mut mem, mut state) = s.base(&cfg, &case.cell, case.seed);
        let spec = case.fault.class().map(|class| FaultSpec {
            class,
            seed: case.seed,
        });
        let ctl = mem.controller_mut();
        ctl.arm_crash_after_appends(case.point);
        if let Some(spec) = spec.filter(|s| s.class.is_power_event()) {
            // Torn drains and bank fail-stops happen *at* the power event,
            // inside the controller's crash snapshot.
            ctl.set_fault_plan(spec);
        }
        s.workload(&mut mem, &mut state);

        let mut machine = if let Some(m) = mem.controller_mut().take_machine_crash_image() {
            m
        } else {
            // The armed point lies beyond the final append: the workload
            // completed. Finish cleanly and image that.
            mem.shutdown();
            mem.machine_crash_now()
        };
        match (case.fault, spec) {
            (Fault::Tamper, _) => {
                machine.channels[0].store.tamper_tree_line(case.seed);
            }
            (_, Some(spec)) if !spec.class.is_power_event() => match s.target() {
                // Media strikes land on the settled image, on one
                // seed-chosen channel, mirroring the single fault plan a
                // power event leaves behind.
                Target::Data => {
                    let ch = (case.seed as usize) % machine.channels.len();
                    machine.channels[ch].store.strike_faults(spec);
                }
                Target::TreeNodes => {
                    machine.channels[0].store.strike_tree_fault(spec);
                }
            },
            _ => {}
        }

        let (verdict, detail, evidence) = self.recover_and_judge(&cfg, machine, &state, case.point);
        CaseResult {
            case: case.clone(),
            verdict,
            detail,
            evidence,
        }
    }

    /// Steps 4 and 5 of the loop: counter recovery, the subject's
    /// recovery and oracle, then the detection rule.
    fn recover_and_judge(
        &self,
        cfg: &Config,
        machine: MachineCrashImage,
        state: &S::State,
        point: u64,
    ) -> (Verdict, String, Option<S::Evidence>) {
        let mut rec = match RecoveredMemory::from_machine_image_checked(cfg, machine) {
            Ok(rec) => rec,
            Err(e) => {
                return (
                    Verdict::Detected,
                    format!("image rebuild refused: {e}"),
                    None,
                )
            }
        };
        let j = self.subject.judge(&mut rec, state, point);
        if let Some(v) = j.verdict {
            return (v, j.detail, j.evidence);
        }
        let signals = Signals {
            fc: rec.store().fault_counters(),
            media_failures: rec.media_failures(),
            osiris_unrecoverable: rec.osiris_report().unrecoverable_lines,
        };
        if signals.fired() || j.damaged {
            (
                Verdict::Detected,
                format!(
                    "degraded data with detection signals: {signals} {}",
                    j.detail
                ),
                j.evidence,
            )
        } else {
            (
                Verdict::Silent,
                format!(
                    "no oracle state matches and nothing detected it: {}",
                    j.detail
                ),
                j.evidence,
            )
        }
    }

    /// The smallest crash point (halving from `case.point`) at which
    /// `case` still gets the same verdict: the minimal reproducer.
    pub fn shrink_point(&self, case: &Case<S::Cell>) -> u64 {
        let target = self.run_case(case).verdict;
        shrink(case.point, |point| {
            let smaller = Case {
                point,
                ..case.clone()
            };
            self.run_case(&smaller).verdict == target
        })
    }
}

/// The hardware-observable detection signals of a recovered image.
struct Signals {
    fc: FaultCounters,
    media_failures: u64,
    osiris_unrecoverable: u64,
}

impl Signals {
    /// ECC detections, poisoned or transient reads, the dirty-shutdown
    /// latch (real NVDIMMs latch a "last shutdown state" bit when the ADR
    /// drain does not complete; torn or dropped entries set the modeled
    /// equivalent), media failures, or Osiris-unrecoverable lines.
    fn fired(&self) -> bool {
        let dirty_shutdown = self.fc.torn_entries > 0 || self.fc.dropped_writes > 0;
        self.fc.any_detected()
            || dirty_shutdown
            || self.media_failures > 0
            || self.osiris_unrecoverable > 0
    }
}

impl fmt::Display for Signals {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ecc_detections={} lost_reads={} transient_failures={} torn_entries={} \
             dropped_writes={} media_failures={} osiris_unrecoverable={}",
            self.fc.ecc_detections,
            self.fc.lost_reads,
            self.fc.transient_failures,
            self.fc.torn_entries,
            self.fc.dropped_writes,
            self.media_failures,
            self.osiris_unrecoverable
        )
    }
}

/// Halves `start` while `holds` keeps holding and returns the smallest
/// value that held (`start` itself when its half does not). Shrinks
/// crash points and the checker's transaction counts alike.
pub fn shrink(start: u64, mut holds: impl FnMut(u64) -> bool) -> u64 {
    let mut best = start;
    let mut probe = start / 2;
    while probe >= 1 && holds(probe) {
        best = probe;
        probe /= 2;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shrink_halves_while_the_predicate_holds() {
        // Holds for every value >= 5: 40 -> 20 -> 10 -> 5 holds, 2 fails.
        let mut probes = Vec::new();
        let min = shrink(40, |v| {
            probes.push(v);
            v >= 5
        });
        assert_eq!(min, 5);
        assert_eq!(probes, [20, 10, 5, 2]);
        // A predicate that never holds keeps the start; nothing below 1
        // is probed.
        assert_eq!(shrink(9, |_| false), 9);
        assert_eq!(shrink(1, |_| panic!("no probe below 1")), 1);
        assert_eq!(shrink(16, |_| true), 1);
    }
}
