//! Whole-data-structure crash consistency: run each workload on the
//! full timed SuperMem system, pull the plug at many different write
//! -queue append boundaries, recover (undo-log rollback included), and
//! validate the *structural invariants* of what came back — B-tree
//! ordering and balance, red-black properties, hash placement, queue
//! bounds — using only the recovered bytes, no shadow model.
//!
//! This is the paper's end-to-end claim: applications built for
//! un-encrypted persistent memory run unmodified on SuperMem and stay
//! recoverable.

use supermem::persist::{recover_transactions, RecoveredMemory, RecoveryOutcome};
use supermem::sim::Config;
use supermem::workloads::{btree, hashtable, queue, rbtree};
use supermem::workloads::{WorkloadKind, WorkloadSpec};
use supermem::{Scheme, System};

const REQ: u64 = 256;
const TXNS: u64 = 30;

/// Runs `kind` with a crash armed after `appends` events and returns the
/// recovered memory (after transaction rollback) plus the recovery
/// outcome.
fn crash_run(kind: WorkloadKind, appends: u64, seed: u64) -> (RecoveredMemory, RecoveryOutcome) {
    let mut sys = System::new(Scheme::SuperMem.apply(Config::default()).with_seed(seed));
    let cfg = sys.config().clone();
    let spec = WorkloadSpec::new(kind)
        .with_txns(TXNS)
        .with_req_bytes(REQ)
        .with_seed(seed)
        .with_hash_buckets(256);
    let mut w = spec.build(&mut sys).expect("valid spec");
    sys.checkpoint();
    sys.arm_crash_after_appends(appends);
    for _ in 0..TXNS {
        w.step(&mut sys).expect("txn");
    }
    let image = sys
        .take_machine_crash_image()
        .unwrap_or_else(|| sys.machine_crash_now()); // ran to completion: crash at end
    let mut rec = RecoveredMemory::from_machine_image_checked(&cfg, image).expect("image recovers");
    let outcome = recover_transactions(&mut rec, 0) // log is the region's first allocation
        .unwrap_or_else(|e| panic!("recovery failed: {e}"));
    (rec, outcome)
}

/// Crash points to sample: early (during the first transactions), middle,
/// and far beyond the run (i.e. no crash at all).
const CRASH_POINTS: [u64; 6] = [1, 3, 7, 19, 53, 131];

#[test]
fn btree_survives_crashes_at_many_points() {
    for &k in &CRASH_POINTS {
        let (mut rec, _) = crash_run(WorkloadKind::BTree, k, 11);
        let keys = btree::check_recovered(&mut rec, 0, REQ)
            .unwrap_or_else(|e| panic!("crash point {k}: {e}"));
        assert!(keys as u64 <= TXNS, "crash point {k}: too many keys");
    }
}

#[test]
fn rbtree_survives_crashes_at_many_points() {
    for &k in &CRASH_POINTS {
        let (mut rec, _) = crash_run(WorkloadKind::RbTree, k, 12);
        let keys = rbtree::check_recovered(&mut rec, 0, REQ)
            .unwrap_or_else(|e| panic!("crash point {k}: {e}"));
        assert!(keys as u64 <= TXNS, "crash point {k}: too many keys");
    }
}

#[test]
fn hashtable_survives_crashes_at_many_points() {
    for &k in &CRASH_POINTS {
        let (mut rec, _) = crash_run(WorkloadKind::HashTable, k, 13);
        let occupied = hashtable::check_recovered(&mut rec, 0, REQ, 256)
            .unwrap_or_else(|e| panic!("crash point {k}: {e}"));
        assert!(occupied <= TXNS, "crash point {k}: too many buckets");
    }
}

#[test]
fn queue_survives_crashes_at_many_points() {
    for &k in &CRASH_POINTS {
        let (mut rec, _) = crash_run(WorkloadKind::Queue, k, 14);
        let (head, tail) = queue::check_recovered(&mut rec, 0, REQ, 1024)
            .unwrap_or_else(|e| panic!("crash point {k}: {e}"));
        assert!(tail <= TXNS, "crash point {k}: tail {tail} too large");
        assert!(head <= tail, "crash point {k}");
    }
}

#[test]
fn recovered_structures_grow_with_later_crashes() {
    // Sanity that the sweep is meaningful: a later crash point must not
    // recover *fewer* committed keys than an earlier one.
    let keys_at = |k: u64| {
        let (mut rec, _) = crash_run(WorkloadKind::BTree, k, 11);
        btree::check_recovered(&mut rec, 0, REQ).expect("consistent")
    };
    let early = keys_at(2);
    let late = keys_at(120);
    assert!(late >= early, "later crash lost data: {early} -> {late}");
    assert!(late > 0, "a late crash must retain committed inserts");
}
