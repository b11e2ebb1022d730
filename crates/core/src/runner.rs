//! End-to-end tests of the run drivers in [`crate::experiment`]: every
//! scheme and workload, multi-core interleaving at transaction and event
//! granularity, and trace capture and replay.

#[cfg(test)]
mod tests {
    use supermem_sim::Config;
    use supermem_workloads::spec::ALL_KINDS;
    use supermem_workloads::{WorkloadKind, WorkloadSpec};

    use crate::experiment::Experiment;
    use crate::metrics::RunResult;
    use crate::scheme::Scheme;

    fn machine(scheme: Scheme) -> Config {
        scheme.apply(Config::default()).with_seed(1)
    }

    fn quick(kind: WorkloadKind) -> WorkloadSpec {
        WorkloadSpec::new(kind)
            .with_txns(40)
            .with_req_bytes(256)
            .with_array_footprint(256 << 10)
    }

    fn session(scheme: Scheme, spec: WorkloadSpec, programs: usize) -> Experiment {
        Experiment::new(machine(scheme), spec)
            .and_then(|e| e.with_programs(programs))
            .unwrap_or_else(|e| panic!("{e}"))
    }

    fn run_single(scheme: Scheme, kind: WorkloadKind) -> RunResult {
        session(scheme, quick(kind), 1).run_single()
    }

    #[test]
    fn single_core_all_schemes_on_array() {
        for scheme in crate::scheme::FIGURE_SCHEMES {
            let r = run_single(scheme, WorkloadKind::Array);
            assert_eq!(r.stats.txn_commits, 40, "{scheme}");
            assert!(r.mean_txn_latency() > 0.0);
        }
    }

    #[test]
    fn single_core_all_workloads_on_supermem() {
        for kind in ALL_KINDS {
            let r = run_single(Scheme::SuperMem, kind);
            assert_eq!(r.stats.txn_commits, 40, "{kind}");
        }
    }

    #[test]
    fn wt_costs_more_than_unsec_and_supermem_recovers_most() {
        let unsec = run_single(Scheme::Unsec, WorkloadKind::Queue);
        let wt = run_single(Scheme::WriteThrough, WorkloadKind::Queue);
        let sm = run_single(Scheme::SuperMem, WorkloadKind::Queue);
        let u = unsec.mean_txn_latency();
        let w = wt.mean_txn_latency();
        let s = sm.mean_txn_latency();
        assert!(
            w > u * 1.2,
            "WT ({w:.0}) must clearly exceed Unsec ({u:.0})"
        );
        assert!(s < w, "SuperMem ({s:.0}) must beat WT ({w:.0})");
    }

    #[test]
    fn wt_doubles_writes_supermem_reduces_them() {
        let unsec = run_single(Scheme::Unsec, WorkloadKind::Queue);
        let wt = run_single(Scheme::WriteThrough, WorkloadKind::Queue);
        let sm = run_single(Scheme::SuperMem, WorkloadKind::Queue);
        let base = unsec.nvm_writes() as f64;
        assert!(
            (wt.nvm_writes() as f64 / base - 2.0).abs() < 0.15,
            "WT ~2x writes"
        );
        assert!(
            (sm.nvm_writes() as f64) < wt.nvm_writes() as f64 * 0.9,
            "CWC must remove counter writes"
        );
    }

    #[test]
    fn multicore_runs_and_interleaves() {
        let spec = quick(WorkloadKind::Queue).with_txns(15);
        let r = session(Scheme::SuperMem, spec, 4).run_multicore();
        assert_eq!(r.stats.txn_commits, 60);
    }

    #[test]
    fn multicore_contention_slows_transactions() {
        let spec = quick(WorkloadKind::Queue).with_txns(25);
        let r1 = session(Scheme::WriteThrough, spec.clone(), 1).run_multicore();
        let r8 = session(Scheme::WriteThrough, spec, 8).run_multicore();
        assert!(
            r8.mean_txn_latency() > r1.mean_txn_latency(),
            "8 programs sharing banks must see longer transactions"
        );
    }

    #[test]
    fn multicore_trace_interleaves_at_event_granularity() {
        let spec = quick(WorkloadKind::Queue).with_txns(15);
        let r = session(Scheme::SuperMem, spec.clone(), 4).run_multicore_trace();
        assert_eq!(r.stats.txn_commits, 60);
        // Contention must be visible relative to a single program.
        let r1 = session(Scheme::SuperMem, spec, 1).run_multicore_trace();
        assert!(r.mean_txn_latency() > r1.mean_txn_latency());
    }

    #[test]
    fn trace_replay_matches_live_run_shape() {
        // Record once, replay per scheme: the trace-driven latencies must
        // preserve the live ordering Unsec < SuperMem < WT.
        let spec = quick(WorkloadKind::Queue);
        let trace = session(Scheme::SuperMem, spec.clone(), 1).record_trace();
        assert!(trace.iter().filter(|e| e.is_marker()).count() as u64 == 2 * spec.txns);
        let lat = |scheme: Scheme| {
            session(scheme, spec.clone(), 1)
                .replay(&trace)
                .mean_txn_latency()
        };
        let unsec = lat(Scheme::Unsec);
        let wt = lat(Scheme::WriteThrough);
        let sm = lat(Scheme::SuperMem);
        assert!(wt > unsec * 1.2, "WT {wt:.0} vs Unsec {unsec:.0}");
        assert!(sm < wt, "SuperMem {sm:.0} vs WT {wt:.0}");
    }

    #[test]
    fn trace_replay_reproduces_contents() {
        use crate::system::System;
        use supermem_persist::{PMem, RecoveredMemory, VecMem};
        let trace = session(Scheme::SuperMem, quick(WorkloadKind::HashTable), 1).record_trace();
        // Functional reference of the final bytes.
        let mut reference = VecMem::new();
        supermem_trace::replay(&trace, &mut reference);
        // Timed encrypted replay, then decrypt through a crash image.
        // Pre-zero the compared region: encrypted NVM merges partial-line
        // writes with garbage (uninitialized lines), VecMem with zeros.
        let mut sys = System::new(machine(Scheme::SuperMem));
        sys.write(0, &vec![0u8; 8192]);
        sys.checkpoint();
        supermem_trace::replay(&trace, &mut sys);
        sys.checkpoint();
        let cfg = sys.config().clone();
        let mut rec =
            RecoveredMemory::from_machine_image_checked(&cfg, sys.machine_crash_now()).unwrap();
        let mut a = vec![0u8; 4096];
        let mut b = vec![0u8; 4096];
        // Compare the log+bucket region head (written bytes only).
        reference.read(0, &mut a);
        rec.read(0, &mut b);
        assert_eq!(
            a, b,
            "replayed ciphertext must decrypt to the reference bytes"
        );
    }

    #[test]
    fn streaming_tree_run_commits_and_streams_node_writes() {
        let cfg = machine(Scheme::SuperMem)
            .with_integrity_tree(true)
            .with_persisted_levels(Some(1));
        let mut exp = Experiment::new(cfg, quick(WorkloadKind::Queue)).unwrap();
        // The knob reaches the machine config unchanged.
        assert_eq!(exp.config().persisted_levels, Some(1));
        let r = exp.run_single();
        assert_eq!(r.stats.txn_commits, 40);
        assert!(
            r.stats.nvm_tree_writes > 0,
            "persisted-frontier node writes must reach the media"
        );
        assert!(r.stats.tree_propagations > 0);
    }

    #[test]
    #[should_panic(expected = "programs must be in")]
    fn rejects_too_many_programs() {
        session(Scheme::Unsec, quick(WorkloadKind::Array), 9).run_multicore();
    }
}
