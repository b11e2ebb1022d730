//! SCA comparison (paper §2.3/§6): selective counter-atomicity gets
//! write-back efficiency by modifying software; SuperMem gets within a
//! few percent of it while staying application-transparent.
//!
//! The SCA rows here run every workload through the `ScaSystem`
//! adapter — the "recompiled" application — while the other rows run
//! the unmodified workload binary.

use supermem::sca::ScaSystem;

use super::prelude::*;

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

pub fn report(runs: &mut Runs, n: u64) -> Report {
    let specs = ALL_KINDS.map(|kind| WorkloadSpec::new(kind).with_txns(n));
    let results = per_kind(
        runs,
        &[Scheme::WriteBackIdeal, Scheme::SuperMem].map(machine),
        n,
    );
    let sca = sweep(&specs, run_sca);
    let rows = ALL_KINDS.iter().zip(results.chunks(2)).zip(sca);
    let rows = rows.map(|((kind, row), (sca_lat, sca_writes, writebacks))| {
        let (wb, sm) = (&row[0], &row[1]);
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

    let mut t = table(
        "workload | WB lat | SCA lat | SuperMem lat | SCA writes | SuperMem writes | \
         SCA sw calls",
    );
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
    rep
}
