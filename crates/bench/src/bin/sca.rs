//! SCA comparison (paper §2.3/§6): selective counter-atomicity gets
//! write-back efficiency by modifying software; SuperMem gets within a
//! few percent of it while staying application-transparent.
//!
//! The SCA rows here run every workload through the `ScaSystem`
//! adapter — the "recompiled" application — while the other rows run
//! the unmodified workload binary.

use supermem::metrics::TextTable;
use supermem::sca::ScaSystem;
use supermem::workloads::spec::ALL_KINDS;
use supermem::workloads::WorkloadSpec;
use supermem::{sweep, Experiment, Scheme, System};
use supermem_bench::{machine, txns, Report};

/// Runs one workload through the SCA adapter, mirroring
/// `Experiment::run_single`'s measurement discipline.
fn run_sca(spec: &WorkloadSpec) -> (f64, u64, u64) {
    let mut mem = ScaSystem::new(System::new(machine(Scheme::Sca)));
    let mut w = spec.build(&mut mem).expect("valid spec");
    mem.inner_mut().checkpoint();
    mem.inner_mut().reset_stats();
    let mut latencies = Vec::with_capacity(spec.txns as usize);
    for _ in 0..spec.txns {
        let start = mem.inner().now();
        w.step(&mut mem).expect("txn");
        latencies.push(mem.inner().now() - start);
    }
    mem.inner_mut().checkpoint();
    let writes = mem.stats().nvm_writes_total();
    let writebacks = mem.counter_writebacks();
    w.verify(&mut mem).expect("verify");
    let mean = latencies.iter().sum::<u64>() as f64 / latencies.len() as f64;
    (mean, writes, writebacks)
}

fn main() {
    let n = txns();
    // One job per workload row; each row needs the WB/SuperMem runs and
    // the SCA adapter run, so the row is the parallel grain.
    let rows = sweep(&ALL_KINDS, |kind| {
        let spec = WorkloadSpec::new(*kind).with_txns(n);
        let run = |scheme: Scheme| {
            Experiment::new(machine(scheme), spec.clone())
                .unwrap_or_else(|e| panic!("{e}"))
                .run_single()
        };
        let wb = run(Scheme::WriteBackIdeal);
        let sm = run(Scheme::SuperMem);
        let (sca_lat, sca_writes, writebacks) = run_sca(&spec);
        let base = wb.mean_txn_latency();
        vec![
            kind.name().into(),
            "1.00".into(),
            format!("{:.2}", sca_lat / base),
            format!("{:.2}", sm.mean_txn_latency() / base),
            format!("{:.2}", sca_writes as f64 / wb.nvm_writes() as f64),
            format!("{:.2}", sm.nvm_writes() as f64 / wb.nvm_writes() as f64),
            writebacks.to_string(),
        ]
    });

    let mut t = TextTable::new(vec![
        "workload".into(),
        "WB lat".into(),
        "SCA lat".into(),
        "SuperMem lat".into(),
        "SCA writes".into(),
        "SuperMem writes".into(),
        "SCA sw calls".into(),
    ]);
    for row in rows {
        t.row(row);
    }
    let mut rep = Report::new("sca");
    rep.section(
        "SCA vs SuperMem (normalized to the battery-backed ideal WB)",
        t,
    );
    rep.footnote("SCA needs \"SCA sw calls\" explicit counter_cache_writeback()s compiled");
    rep.footnote("into the application; SuperMem needs zero software changes (paper §1).");
    rep.emit();
}
