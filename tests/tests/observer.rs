//! Observer-layer reconciliation and non-perturbation tests.
//!
//! The probe layer must be a pure *view*: attaching the built-in
//! `Telemetry` collector has to reproduce the controller's own `Stats`
//! counters exactly, and attaching nothing must leave runs untouched.

use supermem::sim::{Config, Event, Observer};
use supermem::workloads::{WorkloadKind, WorkloadSpec};
use supermem::{Experiment, RunResult, Scheme};

/// A 30-transaction session, machine and workload seeded alike.
fn session(scheme: Scheme, kind: WorkloadKind, seed: u64) -> Experiment {
    let cfg = scheme.apply(Config::default()).with_seed(seed);
    let spec = WorkloadSpec::new(kind)
        .with_txns(30)
        .with_req_bytes(512)
        .with_seed(seed)
        .with_array_footprint(256 << 10);
    Experiment::new(cfg, spec).expect("valid config")
}

fn observed(exp: Experiment) -> RunResult {
    exp.observe().run()
}

/// Telemetry aggregates must reconcile exactly with the independently
/// maintained `Stats` counters, across random scheme/workload/seed
/// picks (deterministic xorshift so failures reproduce).
#[test]
fn telemetry_reconciles_with_stats() {
    let schemes = [
        Scheme::Unsec,
        Scheme::WriteThrough,
        Scheme::WtCwc,
        Scheme::WtXbank,
        Scheme::SuperMem,
    ];
    let kinds = [
        WorkloadKind::Array,
        WorkloadKind::Queue,
        WorkloadKind::HashTable,
        WorkloadKind::BTree,
    ];
    let mut x = 0x9e3779b97f4a7c15u64;
    for _ in 0..8 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let scheme = schemes[(x >> 8) as usize % schemes.len()];
        let kind = kinds[(x >> 24) as usize % kinds.len()];
        let seed = x % 1000;
        let r = observed(session(scheme, kind, seed));
        let t = r.telemetry.as_ref().expect("observed run has telemetry");
        let b = &t.breakdown;
        let s = &r.stats;
        let label = format!("{scheme}/{kind} seed {seed}");

        // Transactions: count and total latency, event-for-event.
        assert_eq!(b.txns, s.txn_commits, "{label}: txn count");
        assert_eq!(
            t.txn_latency.count(),
            s.txn_commits,
            "{label}: txn histogram count"
        );
        let stats_txn_sum: u64 = s.txn_latencies.iter().sum();
        assert_eq!(
            t.txn_latency.sum(),
            stats_txn_sum,
            "{label}: txn latency sum"
        );

        // Write-queue issue events vs the controller's write counters.
        assert_eq!(
            b.data_writes_issued, s.nvm_data_writes,
            "{label}: data writes"
        );
        assert_eq!(
            b.counter_writes_issued, s.nvm_counter_writes,
            "{label}: counter writes"
        );
        assert_eq!(
            b.coalesced, s.counter_writes_coalesced,
            "{label}: coalesced"
        );
        assert_eq!(b.wq_stalls, s.wq_full_events, "{label}: wq stalls");
        assert_eq!(
            b.wq_stall_cycles, s.wq_stall_cycles,
            "{label}: wq stall cycles"
        );

        // Every enqueue either issues to a bank or coalesces away; after
        // a clean finish the queue is drained.
        assert_eq!(
            t.wq_occupancy.enqueues,
            s.nvm_writes_total() + s.counter_writes_coalesced,
            "{label}: enqueues"
        );
        assert_eq!(
            t.wq_occupancy.issues,
            s.nvm_writes_total(),
            "{label}: issues"
        );

        // Counter-cache events mirror the cache's own counters.
        assert_eq!(
            b.counter_cache_hits, s.counter_cache_hits,
            "{label}: cc hits"
        );
        assert_eq!(
            b.counter_cache_misses, s.counter_cache_misses,
            "{label}: cc misses"
        );

        // BankBusy write events land on the same banks Stats charged.
        let telemetry_bank_writes: Vec<u64> = t.banks.banks().iter().map(|bk| bk.writes).collect();
        for (bank, &writes) in s.bank_writes.iter().enumerate() {
            let seen = telemetry_bank_writes.get(bank).copied().unwrap_or(0);
            assert_eq!(seen, writes, "{label}: bank {bank} writes");
        }

        // Flush phases partition each flush's latency.
        assert_eq!(
            t.flush_latency.sum(),
            b.counter_fetch_cycles + b.crypto_cycles + b.queue_admission_cycles,
            "{label}: flush phase partition"
        );
        assert_eq!(t.flush_latency.count(), b.flushes, "{label}: flush count");
        assert_eq!(b.sfences, s.sfence_ops, "{label}: sfences");
    }
}

/// Attaching no observer must not change simulated results: identical
/// stats and cycle counts with and without the telemetry collector.
#[test]
fn unobserved_runs_match_observed_runs() {
    for scheme in [Scheme::Unsec, Scheme::SuperMem] {
        let plain = session(scheme, WorkloadKind::Queue, 7).run();
        let obs = observed(session(scheme, WorkloadKind::Queue, 7));
        assert!(plain.telemetry.is_none());
        assert!(obs.telemetry.is_some());
        assert_eq!(plain.total_cycles, obs.total_cycles, "{scheme}: cycles");
        assert_eq!(plain.stats, obs.stats, "{scheme}: stats");
    }
}

/// A user-supplied observer plugs in through `observe_with` and gets
/// every event the built-in collector sees.
#[test]
fn custom_observers_receive_events() {
    #[derive(Clone, Debug, Default)]
    struct CountEvents {
        enqueues: u64,
        txns: u64,
    }
    impl Observer for CountEvents {
        fn on_event(&mut self, ev: &Event) {
            match ev {
                Event::WqEnqueue { .. } => self.enqueues += 1,
                Event::TxnCommit { .. } => self.txns += 1,
                _ => {}
            }
        }
        fn box_clone(&self) -> Box<dyn Observer> {
            Box::new(self.clone())
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    let mut exp = session(Scheme::SuperMem, WorkloadKind::Array, 3)
        .observe()
        .observe_with(Box::new(CountEvents::default()));
    let r = exp.run();
    let t = r.telemetry.as_ref().expect("telemetry collected");
    let mut observers = exp.take_observers();
    assert_eq!(observers.len(), 1, "custom observer returned");
    let counts = observers[0]
        .as_any_mut()
        .downcast_mut::<CountEvents>()
        .expect("downcasts to CountEvents");
    assert_eq!(counts.enqueues, t.wq_occupancy.enqueues);
    assert_eq!(counts.txns, t.breakdown.txns);
    assert_eq!(counts.txns, r.stats.txn_commits);
}

/// Multi-core sessions attribute transactions to cores and reconcile
/// the same way single-core ones do.
#[test]
fn multicore_telemetry_reconciles() {
    let exp = session(Scheme::SuperMem, WorkloadKind::Queue, 11)
        .with_programs(4)
        .expect("4 programs fit 8 cores");
    let r = observed(exp);
    let t = r.telemetry.as_ref().expect("telemetry collected");
    assert_eq!(t.breakdown.txns, r.stats.txn_commits);
    assert_eq!(t.txn_latency.count(), r.stats.txn_commits);
    let stats_txn_sum: u64 = r.stats.txn_latencies.iter().sum();
    assert_eq!(t.txn_latency.sum(), stats_txn_sum);
    assert_eq!(t.breakdown.data_writes_issued, r.stats.nvm_data_writes);
    assert_eq!(
        t.breakdown.counter_writes_issued,
        r.stats.nvm_counter_writes
    );
}
