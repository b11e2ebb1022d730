//! Experiment sessions: validated configuration, pluggable observers,
//! and the run drivers behind them.
//!
//! A run is exactly a machine [`Config`] (a [`crate::Scheme`] preset
//! plus any field edits), the [`WorkloadSpec`] of program 0, and a
//! program count. [`Experiment::new`] validates the first two up front
//! (returning [`ConfigError`] instead of panicking mid-run),
//! [`Experiment::with_programs`] the third; observers attach before a
//! run, and the drivers are [`Experiment::run`],
//! [`Experiment::run_multicore`], [`Experiment::run_multicore_trace`]
//! and [`Experiment::replay`]. Every driver:
//!
//! 1. builds and initializes the workload,
//! 2. checkpoints and resets statistics (figures measure the steady phase),
//! 3. runs the transactions, recording per-transaction latency,
//! 4. **verifies the persistent structure against its shadow model** — so
//!    every data point in every figure doubles as an end-to-end
//!    correctness test of the encryption/persistence stack,
//! 5. drains everything so write counts are complete.
//!
//! # Examples
//!
//! ```
//! use supermem::sim::Config;
//! use supermem::workloads::{WorkloadKind, WorkloadSpec};
//! use supermem::{Experiment, Scheme};
//!
//! let cfg = Scheme::SuperMem.apply(Config::default());
//! let spec = WorkloadSpec::new(WorkloadKind::Array)
//!     .with_txns(10)
//!     .with_req_bytes(256)
//!     .with_array_footprint(256 << 10);
//! let result = Experiment::new(cfg, spec).unwrap().observe().run();
//! let telemetry = result.telemetry.as_ref().unwrap();
//! assert_eq!(telemetry.txn_latency.count(), result.stats.txn_commits);
//! ```

use std::fmt;

use supermem_persist::VecMem;
use supermem_sim::{Config, Cycle, Observer, Telemetry};
use supermem_trace::{TraceEvent, TraceRecorder};
use supermem_workloads::{SpecError, WorkloadSpec};

use crate::metrics::RunResult;
use crate::system::System;

/// Why [`Experiment::new`] or [`Experiment::with_programs`] refused a
/// run.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `programs` is zero or exceeds the configured core count.
    Programs {
        /// The requested program count.
        programs: usize,
        /// The machine's core count.
        cores: usize,
    },
    /// The machine [`Config`] is invalid.
    Machine(supermem_sim::ConfigError),
    /// The [`WorkloadSpec`] is invalid.
    Spec(SpecError),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Programs { programs, cores } => {
                write!(f, "programs must be in 1..={cores}, got {programs}")
            }
            ConfigError::Machine(err) => write!(f, "invalid machine configuration: {err}"),
            ConfigError::Spec(err) => write!(f, "invalid workload spec: {err}"),
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::Machine(err) => Some(err),
            ConfigError::Spec(err) => Some(err),
            ConfigError::Programs { .. } => None,
        }
    }
}

impl From<SpecError> for ConfigError {
    fn from(err: SpecError) -> Self {
        ConfigError::Spec(err)
    }
}

/// One validated, instrumentable experiment session.
///
/// Construction validates the configuration; `observe`/`observe_with`
/// attach collectors; the `run*` methods execute. A session can run
/// multiple times — each run attaches the session's observers for the
/// measured window only, so verification traffic is never counted.
#[derive(Debug)]
pub struct Experiment {
    cfg: Config,
    spec: WorkloadSpec,
    programs: usize,
    telemetry: bool,
    observers: Vec<Box<dyn Observer>>,
}

impl Experiment {
    /// Creates a one-program session of `spec` on the machine `cfg`,
    /// validating both first.
    pub fn new(cfg: Config, spec: WorkloadSpec) -> Result<Self, ConfigError> {
        spec.validate()?;
        cfg.validate().map_err(ConfigError::Machine)?;
        Ok(Self {
            cfg,
            spec,
            programs: 1,
            telemetry: false,
            observers: Vec::new(),
        })
    }

    /// Runs `programs` copies of the workload, one per core. Program
    /// `p` gets the spec's seed plus `p × 0x9E37` and the `p`-th
    /// region-sized slice of the address space.
    pub fn with_programs(mut self, programs: usize) -> Result<Self, ConfigError> {
        if programs < 1 || programs > self.cfg.cores {
            return Err(ConfigError::Programs {
                programs,
                cores: self.cfg.cores,
            });
        }
        self.programs = programs;
        Ok(self)
    }

    /// The session's machine configuration.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// Program `program`'s workload spec: program 0's with the seed and
    /// region shifted.
    fn spec_for(&self, program: usize) -> WorkloadSpec {
        let p = program as u64;
        let len = self.spec.region_len;
        self.spec
            .clone()
            .with_seed(self.spec.seed.wrapping_add(p * 0x9E37))
            .with_region(self.spec.region_base + p * len, len)
    }

    /// Enables the standard [`Telemetry`] collector; the result's
    /// [`RunResult::telemetry`] field will be populated.
    pub fn observe(mut self) -> Self {
        self.telemetry = true;
        self
    }

    /// Attaches a custom observer for the next run; retrieve it
    /// afterwards with [`Experiment::take_observers`].
    pub fn observe_with(mut self, obs: Box<dyn Observer>) -> Self {
        self.observers.push(obs);
        self
    }

    /// Detaches and returns the custom observers collected back from the
    /// last run.
    pub fn take_observers(&mut self) -> Vec<Box<dyn Observer>> {
        std::mem::take(&mut self.observers)
    }

    /// Runs the experiment: [`Experiment::run_single`] when `programs`
    /// is 1, [`Experiment::run_multicore`] otherwise.
    pub fn run(&mut self) -> RunResult {
        if self.programs > 1 {
            self.run_multicore()
        } else {
            self.run_single()
        }
    }

    /// Attaches the session's observers to `sys` (start of the measured
    /// window).
    fn arm(&mut self, sys: &mut System) {
        if self.telemetry {
            sys.attach_observer(Box::new(Telemetry::default()));
        }
        for obs in self.observers.drain(..) {
            sys.attach_observer(obs);
        }
    }

    /// Detaches observers from `sys` (end of the measured window),
    /// extracting the standard telemetry and keeping custom observers
    /// for [`Experiment::take_observers`].
    fn collect(&mut self, sys: &mut System) -> Option<Telemetry> {
        let mut telemetry = None;
        for mut obs in sys.take_observers() {
            match obs.as_any_mut().downcast_mut::<Telemetry>() {
                Some(t) => telemetry = Some(std::mem::take(t)),
                None => self.observers.push(obs),
            }
        }
        telemetry
    }

    /// Runs one workload on core 0.
    ///
    /// # Panics
    ///
    /// Panics if a transaction fails to commit or the final verification
    /// finds a divergence — either indicates a simulator bug, not a
    /// recoverable condition.
    pub fn run_single(&mut self) -> RunResult {
        let mut sys = System::new(self.cfg.clone());
        let mut w = self
            .spec
            .build(&mut sys)
            .expect("validated spec must build");
        sys.checkpoint();
        sys.reset_stats();
        self.arm(&mut sys);
        let measure_start = sys.now();
        for _ in 0..self.spec.txns {
            let start = sys.now();
            w.step(&mut sys).expect("transaction commit failed");
            let end = sys.now();
            sys.record_txn(start, end);
        }
        sys.checkpoint(); // complete the write counts
        let measured_end = sys.now();
        let stats = sys.stats().clone();
        let telemetry = self.collect(&mut sys);
        let wear = sys.controller().wear_report();
        // Verify *after* snapshotting: the full-structure scan would
        // otherwise swamp the measured phase's cache statistics.
        w.verify(&mut sys).expect("workload verification failed");
        RunResult {
            stats,
            total_cycles: measured_end - measure_start,
            wear,
            telemetry,
        }
    }

    /// Runs `programs` copies of the workload on separate cores,
    /// interleaving cores in simulated-time order (the core with the
    /// smallest clock executes its next transaction).
    ///
    /// # Panics
    ///
    /// Panics if a transaction fails or verification finds a divergence.
    pub fn run_multicore(&mut self) -> RunResult {
        let programs = self.programs;
        let mut sys = System::new(self.cfg.clone());
        let mut workloads = Vec::with_capacity(programs);
        for p in 0..programs {
            sys.set_active_core(p);
            workloads.push(
                self.spec_for(p)
                    .build(&mut sys)
                    .expect("validated spec must build"),
            );
        }
        sys.set_active_core(0);
        sys.checkpoint();
        sys.reset_stats();
        self.arm(&mut sys);
        let measure_start = sys.max_now();

        // Simulated-time-ordered interleaving: the core with the smallest
        // clock executes its next transaction.
        let mut remaining: Vec<u64> = vec![self.spec.txns; programs];
        while remaining.iter().any(|&r| r > 0) {
            let core = (0..programs)
                .filter(|&p| remaining[p] > 0)
                .min_by_key(|&p| sys.core_now(p))
                .expect("some program has work left");
            sys.set_active_core(core);
            let start = sys.now();
            workloads[core]
                .step(&mut sys)
                .expect("transaction commit failed");
            let end = sys.now();
            sys.record_txn(start, end);
            remaining[core] -= 1;
        }
        sys.checkpoint();
        let measured_end = sys.max_now();
        let stats = sys.stats().clone();
        let telemetry = self.collect(&mut sys);
        let wear = sys.controller().wear_report();
        for (p, w) in workloads.iter_mut().enumerate() {
            sys.set_active_core(p);
            w.verify(&mut sys).expect("workload verification failed");
        }
        RunResult {
            stats,
            total_cycles: measured_end - measure_start,
            wear,
            telemetry,
        }
    }

    /// Records the memory-operation trace of this session's workload
    /// against a functional memory (program 0, verification included) —
    /// the capture half of trace-driven simulation.
    ///
    /// # Panics
    ///
    /// Panics if a transaction fails to commit.
    pub fn record_trace(&self) -> Vec<TraceEvent> {
        self.program_trace(0, true)
    }

    /// Replays a recorded trace through a timed system configured by this
    /// session (the replay half of trace-driven simulation): identical
    /// memory behavior, different machine. Per-transaction latencies come
    /// from the trace's markers.
    pub fn replay(&mut self, trace: &[TraceEvent]) -> RunResult {
        let mut sys = System::new(self.cfg.clone());
        self.arm(&mut sys);
        let measure_start = sys.now();
        let mut txn_start = None;
        let mut scratch = Vec::new();
        for event in trace {
            apply_event(&mut sys, event, &mut scratch, &mut txn_start);
        }
        sys.checkpoint();
        let measured_end = sys.now();
        let telemetry = self.collect(&mut sys);
        let wear = sys.controller().wear_report();
        RunResult {
            stats: sys.stats().clone(),
            total_cycles: measured_end - measure_start,
            wear,
            telemetry,
        }
    }

    /// Multi-core run with *event-granularity* interleaving: per-program
    /// traces are recorded up front, then replayed concurrently — at
    /// every step the core with the smallest clock executes its next
    /// memory operation. This models bank/queue contention at the same
    /// granularity as a cycle-driven simulator, unlike
    /// [`Experiment::run_multicore`]'s transaction-granularity
    /// scheduling, at the cost of trace memory.
    ///
    /// # Panics
    ///
    /// Panics if trace recording fails.
    pub fn run_multicore_trace(&mut self) -> RunResult {
        let programs = self.programs;
        // Record each program's trace against a private functional memory.
        let traces: Vec<Vec<TraceEvent>> = (0..programs)
            .map(|p| self.program_trace(p, false))
            .collect();

        let mut sys = System::new(self.cfg.clone());
        self.arm(&mut sys);
        let measure_start = 0;
        let mut cursors = vec![0usize; programs];
        let mut txn_starts: Vec<Option<Cycle>> = vec![None; programs];
        let mut scratch = Vec::new();
        // The core with the smallest clock and remaining work goes next.
        while let Some(core) = (0..programs)
            .filter(|&p| cursors[p] < traces[p].len())
            .min_by_key(|&p| sys.core_now(p))
        {
            sys.set_active_core(core);
            let event = &traces[core][cursors[core]];
            cursors[core] += 1;
            apply_event(&mut sys, event, &mut scratch, &mut txn_starts[core]);
        }
        sys.checkpoint();
        let measured_end = sys.max_now();
        let telemetry = self.collect(&mut sys);
        let wear = sys.controller().wear_report();
        RunResult {
            stats: sys.stats().clone(),
            total_cycles: measured_end - measure_start,
            wear,
            telemetry,
        }
    }

    /// Records program `program`'s workload trace against a functional
    /// memory, optionally appending the verification pass — the single
    /// recording loop shared by [`Experiment::record_trace`]
    /// (verification included, so replays exercise the read path) and
    /// [`Experiment::run_multicore_trace`] (transactions only).
    ///
    /// # Panics
    ///
    /// Panics if a transaction fails to commit or verification diverges.
    fn program_trace(&self, program: usize, verify: bool) -> Vec<TraceEvent> {
        let mut mem = VecMem::new();
        let mut recorder = TraceRecorder::new(&mut mem);
        let mut w = self
            .spec_for(program)
            .build(&mut recorder)
            .expect("validated spec must build");
        for _ in 0..self.spec.txns {
            recorder.txn_begin();
            w.step(&mut recorder).expect("transaction commit failed");
            recorder.txn_end();
        }
        if verify {
            w.verify(&mut recorder)
                .expect("workload verification failed");
        }
        recorder.into_trace()
    }
}

/// Applies one [`TraceEvent`] to `sys` for [`Experiment::replay`] and
/// [`Experiment::run_multicore_trace`]: memory events go through
/// [`TraceEvent::apply`]; the markers time the transaction, `txn_start`
/// carrying its begin cycle from `TxnBegin` to `TxnEnd`.
fn apply_event(
    sys: &mut System,
    event: &TraceEvent,
    scratch: &mut Vec<u8>,
    txn_start: &mut Option<Cycle>,
) {
    match event {
        TraceEvent::TxnBegin => *txn_start = Some(sys.now()),
        TraceEvent::TxnEnd => {
            if let Some(start) = txn_start.take() {
                let end = sys.now();
                sys.record_txn(start, end);
            }
        }
        _ => event.apply(sys, scratch),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::Scheme;
    use supermem_workloads::WorkloadKind;

    fn quick() -> WorkloadSpec {
        WorkloadSpec::new(WorkloadKind::Array)
            .with_txns(20)
            .with_req_bytes(256)
            .with_array_footprint(256 << 10)
    }

    fn supermem() -> Config {
        Scheme::SuperMem.apply(Config::default())
    }

    #[test]
    fn new_rejects_bad_programs() {
        let err = Experiment::new(supermem(), quick())
            .unwrap()
            .with_programs(99)
            .unwrap_err();
        assert!(matches!(err, ConfigError::Programs { programs: 99, .. }));
        assert!(err.to_string().contains("programs must be in"));
    }

    #[test]
    fn new_rejects_non_pow2_hash_buckets() {
        let err = Experiment::new(supermem(), quick().with_hash_buckets(100)).unwrap_err();
        assert_eq!(err, ConfigError::Spec(SpecError::HashBuckets(100)));
    }

    #[test]
    fn new_rejects_bad_read_pct() {
        let err = Experiment::new(supermem(), quick().with_ycsb_read_pct(101)).unwrap_err();
        assert_eq!(err, ConfigError::Spec(SpecError::ReadPct(101)));
    }

    #[test]
    fn new_rejects_invalid_machine_config() {
        let cfg = supermem().with_write_queue_entries(1);
        assert!(matches!(
            Experiment::new(cfg, quick()).unwrap_err(),
            ConfigError::Machine(_)
        ));
    }

    #[test]
    fn observed_run_populates_telemetry() {
        let mut exp = Experiment::new(supermem(), quick()).unwrap().observe();
        let r = exp.run();
        let t = r.telemetry.expect("telemetry requested");
        assert_eq!(t.txn_latency.count(), r.stats.txn_commits);
        assert!(t.breakdown.flushes > 0);
    }

    #[test]
    fn unobserved_run_has_no_telemetry() {
        let r = Experiment::new(supermem(), quick()).unwrap().run();
        assert!(r.telemetry.is_none());
    }

    #[test]
    fn run_dispatches_to_multicore() {
        let mut exp = Experiment::new(supermem(), quick().with_txns(5))
            .unwrap()
            .with_programs(2)
            .unwrap()
            .observe();
        let r = exp.run();
        assert_eq!(r.stats.txn_commits, 10);
        assert_eq!(
            r.telemetry.unwrap().txn_latency.count(),
            r.stats.txn_commits
        );
    }

    #[test]
    fn replay_carries_telemetry() {
        let trace = Experiment::new(supermem(), quick()).unwrap().record_trace();
        let mut exp = Experiment::new(supermem(), quick()).unwrap().observe();
        let r = exp.replay(&trace);
        assert_eq!(r.telemetry.unwrap().txn_latency.count(), 20);
    }
}
