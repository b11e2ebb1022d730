//! Parallel experiment engine.
//!
//! Every figure in the evaluation is a grid of independent runs: each
//! `(Config, WorkloadSpec)` pair fully determines its [`RunResult`](crate::RunResult)
//! (the simulator is seeded and single-threaded), so a figure's cell
//! jobs can execute on any host thread in any order without changing a
//! single output bit. This module fans a job list over a scoped worker
//! pool and returns results **in input order**, which is what makes the
//! figures' tables byte-identical to their sequential output.
//!
//! Worker count comes from [`worker_count`]: the `SUPERMEM_THREADS`
//! environment variable when set (a value of `1` forces the sequential
//! path, useful for A/B timing), otherwise
//! [`std::thread::available_parallelism`].
//!
//! ```
//! use supermem::sim::Config;
//! use supermem::workloads::{WorkloadKind, WorkloadSpec};
//! use supermem::{sweep, Experiment, Scheme};
//!
//! let cfg = Scheme::SuperMem.apply(Config::default());
//! let specs = [WorkloadKind::Array, WorkloadKind::Queue, WorkloadKind::Array]
//!     .map(|kind| WorkloadSpec::new(kind).with_txns(5));
//! let results = sweep(&specs, |spec| {
//!     Experiment::new(cfg.clone(), spec.clone()).unwrap().run()
//! });
//! assert_eq!(results[0].total_cycles, results[2].total_cycles);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads a sweep will use: `SUPERMEM_THREADS` if set
/// to an integer (0 counts as 1), else the host's available
/// parallelism.
pub fn worker_count() -> usize {
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
fn sweep_on<J, T, F>(threads: usize, jobs: &[J], worker: F) -> Vec<T>
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn worker_count_is_positive() {
        assert!(worker_count() >= 1);
    }
}
