//! Determinism: identical configurations must produce bit-identical
//! results — the property that makes the figures reproducible.

use supermem::sim::Config;
use supermem::workloads::spec::ALL_KINDS;
use supermem::workloads::{WorkloadKind, WorkloadSpec};
use supermem::{Experiment, RunResult, Scheme};

/// `programs` copies of `spec` under `scheme`, machine and workload
/// seeded alike.
fn run(scheme: Scheme, spec: &WorkloadSpec, programs: usize) -> RunResult {
    let cfg = scheme.apply(Config::default()).with_seed(spec.seed);
    Experiment::new(cfg, spec.clone())
        .and_then(|e| e.with_programs(programs))
        .unwrap()
        .run()
}

#[test]
fn identical_seeds_produce_identical_runs() {
    for kind in ALL_KINDS {
        let spec = WorkloadSpec::new(kind)
            .with_txns(40)
            .with_req_bytes(256)
            .with_array_footprint(512 << 10);
        let a = run(Scheme::SuperMem, &spec, 1);
        let b = run(Scheme::SuperMem, &spec, 1);
        assert_eq!(a.total_cycles, b.total_cycles, "{kind}");
        assert_eq!(a.stats, b.stats, "{kind}");
    }
}

#[test]
fn different_seeds_produce_different_runs() {
    let spec = WorkloadSpec::new(WorkloadKind::Array)
        .with_txns(40)
        .with_array_footprint(512 << 10);
    let a = run(Scheme::SuperMem, &spec, 1);
    let b = run(Scheme::SuperMem, &spec.with_seed(999), 1);
    assert_ne!(
        a.stats.txn_latencies, b.stats.txn_latencies,
        "different seeds must change the access pattern"
    );
}

#[test]
fn multicore_is_deterministic_too() {
    let spec = WorkloadSpec::new(WorkloadKind::Queue).with_txns(15);
    let a = run(Scheme::WriteThrough, &spec, 4);
    let b = run(Scheme::WriteThrough, &spec, 4);
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(a.stats, b.stats);
}

#[test]
fn encryption_key_is_seed_stable() {
    let a = Config::default().with_seed(5).encryption_key();
    let b = Config::default().with_seed(5).encryption_key();
    let c = Config::default().with_seed(6).encryption_key();
    assert_eq!(a, b);
    assert_ne!(a, c);
}
