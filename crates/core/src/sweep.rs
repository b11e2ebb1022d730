//! Parallel experiment engine.
//!
//! Every figure in the evaluation is a grid of independent runs: each
//! `(Config, WorkloadSpec)` pair fully determines its [`RunResult`]
//! (the simulator is seeded, and its intra-run threads merge
//! deterministically), so a figure's cell jobs can execute on any host
//! thread in any order without changing a single output bit. This
//! module fans a job list over a scoped worker pool and returns results
//! **in input order**, which is what makes the figure binaries' tables
//! byte-identical to their sequential output.
//!
//! Worker count comes from [`worker_count`]: the `SUPERMEM_THREADS`
//! environment variable when set (a value of `1` forces the sequential
//! path, useful for A/B timing), otherwise
//! [`std::thread::available_parallelism`] — divided by
//! `SUPERMEM_RUN_THREADS` ([`env_run_threads`]) when intra-run
//! parallelism is on, so the two levels of parallelism share one host
//! budget instead of multiplying.
//!
//! ```
//! use supermem::sim::Config;
//! use supermem::workloads::{WorkloadKind, WorkloadSpec};
//! use supermem::{run_batch, Scheme};
//!
//! let cfg = Scheme::SuperMem.apply(Config::default());
//! let spec = WorkloadSpec::new(WorkloadKind::Array).with_txns(5);
//! let results = run_batch(&[(cfg.clone(), spec.clone()), (cfg, spec)]);
//! assert_eq!(results[0].total_cycles, results[1].total_cycles);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use supermem_sim::Config;
use supermem_workloads::WorkloadSpec;

use crate::experiment::Experiment;
use crate::metrics::RunResult;

/// The intra-run worker-thread count requested via the
/// `SUPERMEM_RUN_THREADS` environment variable, or 1 (sequential) when
/// unset or unparsable. Figure runs and CLI commands set
/// [`Config::run_threads`] from this, and [`worker_count`] divides the
/// sweep's worker budget by it so that `run_threads × sweep workers`
/// never oversubscribes the host.
pub fn env_run_threads() -> usize {
    std::env::var("SUPERMEM_RUN_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// Number of worker threads a sweep will use: the host thread budget
/// ([`thread_budget`]) divided by the intra-run worker count
/// ([`env_run_threads`]), so `sweep workers × run_threads` never
/// oversubscribes the host. With `SUPERMEM_RUN_THREADS` unset (the
/// default `run_threads = 1`) this is exactly the budget.
pub fn worker_count() -> usize {
    (thread_budget() / env_run_threads()).max(1)
}

/// The host thread budget before intra-run arbitration:
/// `SUPERMEM_THREADS` if set to a positive integer, else the host's
/// available parallelism.
pub fn thread_budget() -> usize {
    if let Some(n) = std::env::var("SUPERMEM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        return n.max(1);
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `worker` over every job on [`worker_count`] threads, returning
/// results in input order.
///
/// Jobs are claimed dynamically (an atomic cursor), so a long-running
/// cell does not stall the rest of its row. With one worker (or one
/// job) this degenerates to a plain sequential map — no threads are
/// spawned — which keeps single-core hosts and `SUPERMEM_THREADS=1`
/// A/B runs free of scheduling noise.
///
/// # Panics
///
/// Propagates a panic from any worker (the scope joins all threads
/// first).
pub fn sweep<J, T, F>(jobs: &[J], worker: F) -> Vec<T>
where
    J: Sync,
    T: Send,
    F: Fn(&J) -> T + Sync,
{
    sweep_on(worker_count(), jobs, worker)
}

/// [`sweep`] with an explicit thread count (testable without touching
/// the process environment).
pub fn sweep_on<J, T, F>(threads: usize, jobs: &[J], worker: F) -> Vec<T>
where
    J: Sync,
    T: Send,
    F: Fn(&J) -> T + Sync,
{
    let threads = threads.max(1).min(jobs.len());
    if threads <= 1 {
        return jobs.iter().map(worker).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                let out = worker(job);
                *slots[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every claimed job stores a result")
        })
        .collect()
}

/// Runs a batch of one-program experiments through
/// [`Experiment::run`] in parallel, preserving input order.
///
/// # Panics
///
/// Panics if a job fails [`Experiment::new`]'s validation.
pub fn run_batch(jobs: &[(Config, WorkloadSpec)]) -> Vec<RunResult> {
    sweep(jobs, run_one)
}

fn run_one((cfg, spec): &(Config, WorkloadSpec)) -> RunResult {
    Experiment::new(cfg.clone(), spec.clone())
        .unwrap_or_else(|e| panic!("{e}"))
        .run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WorkloadKind;
    use crate::Scheme;

    #[test]
    fn preserves_input_order() {
        let jobs: Vec<u64> = (0..100).collect();
        let out = sweep_on(8, &jobs, |&j| j * 3);
        assert_eq!(out, (0..100).map(|j| j * 3).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_equals_sequential() {
        let jobs: Vec<u64> = (0..64).collect();
        let seq = sweep_on(1, &jobs, |&j| j.wrapping_mul(0x9E37_79B9).rotate_left(7));
        for threads in [2, 3, 8, 64, 200] {
            let par = sweep_on(threads, &jobs, |&j| {
                j.wrapping_mul(0x9E37_79B9).rotate_left(7)
            });
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single_job() {
        let out: Vec<u64> = sweep_on(4, &[], |j: &u64| *j);
        assert!(out.is_empty());
        assert_eq!(sweep_on(4, &[7u64], |j| j + 1), vec![8]);
    }

    #[test]
    fn run_batch_matches_run_single() {
        let job = (
            Scheme::SuperMem.apply(Config::default()),
            WorkloadSpec::new(WorkloadKind::Array).with_txns(10),
        );
        let jobs = vec![job.clone(), job.clone()];
        let batch = sweep_on(2, &jobs, run_one);
        let solo = Experiment::new(job.0, job.1).unwrap().run_single();
        for r in &batch {
            assert_eq!(r.total_cycles, solo.total_cycles);
            assert_eq!(r.stats, solo.stats);
        }
    }

    #[test]
    fn worker_count_is_positive() {
        assert!(worker_count() >= 1);
    }
}
