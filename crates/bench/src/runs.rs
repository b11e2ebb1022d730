//! The figures' batch executor: [`Runs`] simulates each distinct [`Run`]
//! once per process and answers repeats from the earlier result.
//!
//! A run is a pure function of its key (the simulator is seeded and
//! single-threaded), so reuse changes no byte. Keys are matched with
//! `PartialEq` against the few hundred keys of a figure pass, so
//! `Config`, whose timing fields are `f64`, needs neither `Eq` nor
//! `Hash`.

use supermem::sim::Config;
use supermem::workloads::WorkloadSpec;
use supermem::{sweep, Experiment, RunResult};

/// Which [`Experiment`] method executes a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// [`Experiment::run`].
    Run,
    /// [`Experiment::run_multicore`], even for one program.
    Multicore,
    /// [`Experiment::run_multicore_trace`].
    MulticoreTrace,
}

/// One simulated run, and the cache key of [`Runs`].
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// The machine.
    pub cfg: Config,
    /// Program 0's workload.
    pub spec: WorkloadSpec,
    /// Programs, one per core.
    pub programs: usize,
    /// How the experiment is driven.
    pub driver: Driver,
}

impl Run {
    /// A one-program run of `spec` on `cfg`, driven by
    /// [`Experiment::run`].
    pub fn new(cfg: Config, spec: WorkloadSpec) -> Self {
        Self {
            cfg,
            spec,
            programs: 1,
            driver: Driver::Run,
        }
    }

    /// The same run with `programs` copies driven by `driver`.
    pub fn on(self, programs: usize, driver: Driver) -> Self {
        Self {
            programs,
            driver,
            ..self
        }
    }

    /// Simulates the run; panics if [`Experiment`] refuses it.
    pub fn simulate(&self) -> RunResult {
        let mut exp = Experiment::new(self.cfg.clone(), self.spec.clone())
            .and_then(|e| e.with_programs(self.programs))
            .unwrap_or_else(|e| panic!("{e}"));
        match self.driver {
            Driver::Run => exp.run(),
            Driver::Multicore => exp.run_multicore(),
            Driver::MulticoreTrace => exp.run_multicore_trace(),
        }
    }
}

/// Every run simulated in this process, with its result.
#[derive(Debug, Default)]
pub struct Runs {
    done: Vec<(Run, RunResult)>,
    requested: usize,
}

impl Runs {
    /// The results of `runs`, in input order. Each key not simulated
    /// before is simulated once, over the [`sweep`](supermem::sweep())
    /// pool.
    pub fn simulate(&mut self, runs: &[Run]) -> Vec<RunResult> {
        self.requested += runs.len();
        let mut fresh: Vec<Run> = Vec::new();
        for run in runs {
            if !fresh.contains(run) && !self.done.iter().any(|(k, _)| k == run) {
                fresh.push(run.clone());
            }
        }
        let results = sweep(&fresh, Run::simulate);
        self.done.extend(fresh.into_iter().zip(results));
        runs.iter()
            .map(|run| {
                let (_, result) = self.done.iter().find(|(k, _)| k == run).expect("simulated");
                result.clone()
            })
            .collect()
    }

    /// Runs handed to [`Runs::simulate`] so far, repeats included.
    pub fn requested(&self) -> usize {
        self.requested
    }

    /// Distinct runs simulated so far.
    pub fn simulated(&self) -> usize {
        self.done.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supermem::workloads::WorkloadKind;
    use supermem::Scheme;

    fn key(kind: WorkloadKind) -> Run {
        Run::new(
            Scheme::SuperMem.apply(Config::default()),
            WorkloadSpec::new(kind).with_txns(5),
        )
    }

    #[test]
    fn identical_keys_simulate_once() {
        let mut runs = Runs::default();
        let a = key(WorkloadKind::Array);
        let first = runs.simulate(&[a.clone(), a.clone()]);
        let again = runs.simulate(&[a]);
        assert_eq!((runs.requested(), runs.simulated()), (3, 1));
        assert_eq!(first[0].stats, first[1].stats);
        assert_eq!(first[0].stats, again[0].stats);
    }

    #[test]
    fn keys_differing_only_in_machine_seed_each_simulate() {
        let mut runs = Runs::default();
        let a = key(WorkloadKind::Queue);
        let mut b = a.clone();
        b.cfg = b.cfg.with_seed(a.cfg.seed + 1);
        runs.simulate(&[a, b]);
        assert_eq!(runs.simulated(), 2);
    }

    #[test]
    fn keys_differing_only_in_programs_each_simulate() {
        let mut runs = Runs::default();
        let a = key(WorkloadKind::Queue).on(1, Driver::Multicore);
        let b = a.clone().on(2, Driver::Multicore);
        let results = runs.simulate(&[a, b]);
        assert_eq!(runs.simulated(), 2);
        assert_ne!(results[0].stats.txn_commits, results[1].stats.txn_commits);
    }

    #[test]
    fn keys_differing_only_in_driver_each_simulate() {
        let mut runs = Runs::default();
        let a = key(WorkloadKind::Queue).on(2, Driver::Run);
        let keys = [
            a.clone(),
            a.clone().on(2, Driver::Multicore),
            a.on(2, Driver::MulticoreTrace),
        ];
        runs.simulate(&keys);
        assert_eq!(runs.simulated(), 3);
    }

    #[test]
    fn results_match_direct_runs_in_input_order() {
        let keys = [
            key(WorkloadKind::Array),
            key(WorkloadKind::BTree),
            key(WorkloadKind::Array),
            key(WorkloadKind::HashTable),
        ];
        let mut runs = Runs::default();
        runs.simulate(&keys[1..2]);
        let results = runs.simulate(&keys);
        assert_eq!(runs.simulated(), 3);
        for (k, r) in keys.iter().zip(&results) {
            let solo = Experiment::new(k.cfg.clone(), k.spec.clone())
                .unwrap()
                .run_single();
            assert_eq!(r.total_cycles, solo.total_cycles);
            assert_eq!(r.stats, solo.stats);
        }
    }
}
