//! End-to-end integration: every scheme x every workload runs, verifies,
//! and reproduces the paper's headline relationships.

use supermem::scheme::FIGURE_SCHEMES;
use supermem::sim::Config;
use supermem::workloads::spec::ALL_KINDS;
use supermem::workloads::{WorkloadKind, WorkloadSpec};
use supermem::{Experiment, RunResult, Scheme};

fn quick(kind: WorkloadKind) -> WorkloadSpec {
    WorkloadSpec::new(kind)
        .with_txns(60)
        .with_req_bytes(1024)
        .with_array_footprint(1 << 20)
}

fn run_single(scheme: Scheme, spec: WorkloadSpec) -> RunResult {
    let cfg = scheme.apply(Config::default()).with_seed(1);
    Experiment::new(cfg, spec).unwrap().run()
}

#[test]
fn every_scheme_runs_every_workload() {
    for scheme in FIGURE_SCHEMES {
        for kind in ALL_KINDS {
            let r = run_single(scheme, quick(kind));
            assert_eq!(r.stats.txn_commits, 60, "{scheme}/{kind}");
            assert!(r.mean_txn_latency() > 0.0, "{scheme}/{kind}");
            assert!(r.nvm_writes() > 0, "{scheme}/{kind}");
        }
    }
}

#[test]
fn wt_roughly_doubles_latency_and_writes() {
    // Paper §5.1.1/§5.2: WT costs 1.7-2.4x Unsec and 2x the writes.
    for kind in ALL_KINDS {
        let unsec = run_single(Scheme::Unsec, quick(kind));
        let wt = run_single(Scheme::WriteThrough, quick(kind));
        let lat_ratio = wt.mean_txn_latency() / unsec.mean_txn_latency();
        assert!(
            (1.3..3.0).contains(&lat_ratio),
            "{kind}: WT latency ratio {lat_ratio:.2} out of the paper's band"
        );
        let writes_ratio = wt.nvm_writes() as f64 / unsec.nvm_writes() as f64;
        assert!(
            (1.9..2.1).contains(&writes_ratio),
            "{kind}: WT writes ratio {writes_ratio:.2} should be ~2x"
        );
    }
}

#[test]
fn supermem_beats_wt_and_approaches_ideal_wb() {
    // Paper headline: ~2x over WT; comparable to the ideal WB.
    for kind in ALL_KINDS {
        let wb = run_single(Scheme::WriteBackIdeal, quick(kind));
        let wt = run_single(Scheme::WriteThrough, quick(kind));
        let sm = run_single(Scheme::SuperMem, quick(kind));
        assert!(
            sm.mean_txn_latency() < wt.mean_txn_latency() * 0.85,
            "{kind}: SuperMem must clearly beat WT"
        );
        let gap = sm.mean_txn_latency() / wb.mean_txn_latency();
        assert!(
            gap < 1.25,
            "{kind}: SuperMem should be within 25% of ideal WB, got {gap:.2}"
        );
    }
}

#[test]
fn cwc_reduction_grows_with_request_size() {
    // Paper Fig. 15: larger transactions have better locality, so CWC
    // removes a larger share of counter writes.
    let reduction = |req: u64| {
        let r = run_single(
            Scheme::SuperMem,
            quick(WorkloadKind::BTree).with_req_bytes(req),
        );
        let coalesced = r.stats.counter_writes_coalesced;
        coalesced as f64 / (coalesced + r.stats.nvm_counter_writes) as f64
    };
    let small = reduction(256);
    let large = reduction(4096);
    assert!(
        large > small,
        "CWC share must grow with request size: 256B {small:.2} vs 4KB {large:.2}"
    );
}

#[test]
fn wb_adds_only_a_few_percent_writes() {
    // Paper §5.2: the ideal WB adds 3-16% writes over Unsec.
    for kind in [WorkloadKind::Queue, WorkloadKind::BTree] {
        let unsec = run_single(Scheme::Unsec, quick(kind));
        let wb = run_single(Scheme::WriteBackIdeal, quick(kind));
        let ratio = wb.nvm_writes() as f64 / unsec.nvm_writes() as f64;
        assert!(
            (1.0..1.35).contains(&ratio),
            "{kind}: WB writes ratio {ratio:.2} should stay near Unsec"
        );
    }
}

#[test]
fn xbank_spreads_counter_writes_singlebank_concentrates_them() {
    let run = |scheme: Scheme| run_single(scheme, quick(WorkloadKind::Queue));
    let single = run(Scheme::WriteThrough); // SingleBank placement
    let xbank = run(Scheme::WtXbank);
    // SingleBank: the last bank serves every counter write.
    let last_share =
        single.stats.bank_writes[7] as f64 / single.stats.bank_writes.iter().sum::<u64>() as f64;
    assert!(
        last_share > 0.4,
        "SingleBank must concentrate writes in bank 7 (got {last_share:.2})"
    );
    let max_share = xbank.stats.bank_writes.iter().copied().max().unwrap() as f64
        / xbank.stats.bank_writes.iter().sum::<u64>() as f64;
    assert!(
        max_share < last_share,
        "XBank must be less concentrated than SingleBank"
    );
}

#[test]
fn request_size_scales_write_volume() {
    let writes = |req: u64| {
        run_single(
            Scheme::Unsec,
            quick(WorkloadKind::Queue).with_req_bytes(req),
        )
        .nvm_writes()
    };
    let small = writes(256);
    let large = writes(4096);
    assert!(
        large > small * 4,
        "4KB txns must write far more than 256B txns"
    );
}
