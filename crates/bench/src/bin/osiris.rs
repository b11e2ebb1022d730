//! Osiris comparison (paper §6 related work).
//!
//! Ye et al.'s Osiris relaxes counter persistence: counters stay in a
//! volatile write-back cache, every Nth update is persisted, and spare
//! ECC bits let recovery re-derive lost counters by trial decryption.
//! The SuperMem paper's criticism: "Osiris incurs long counter recovery
//! time when the system is recovered from a failure and the recovery
//! time linearly increases with the memory size. In contrast, SuperMem
//! and SCA do not need to recover counters."
//!
//! This binary quantifies both halves of that trade:
//!   1. runtime — Osiris writes fewer counters than SuperMem (it is
//!      close to the ideal WB);
//!   2. recovery — Osiris must scan every written line and pay trial
//!      decryptions, growing linearly with the footprint, while
//!      SuperMem's recovery is O(1).

use supermem::metrics::TextTable;
use supermem::persist::recover_osiris;
use supermem::sim::Config;
use supermem::workloads::spec::ALL_KINDS;
use supermem::workloads::{WorkloadKind, WorkloadSpec};
use supermem::{run_batch, sweep, Scheme, System};
use supermem_bench::{machine, txns, Report};

const SCHEMES: [Scheme; 3] = [Scheme::WriteBackIdeal, Scheme::Osiris, Scheme::SuperMem];

fn main() {
    let n = txns();

    // --- Part 1: runtime comparison.
    let mut jobs = Vec::new();
    for kind in ALL_KINDS {
        for scheme in SCHEMES {
            jobs.push((machine(scheme), WorkloadSpec::new(kind).with_txns(n)));
        }
    }
    let results = run_batch(&jobs);

    let mut rt = TextTable::new(vec![
        "workload".into(),
        "WB(ideal) lat".into(),
        "Osiris lat".into(),
        "SuperMem lat".into(),
        "Osiris writes".into(),
        "SuperMem writes".into(),
    ]);
    for (kind, row) in ALL_KINDS.iter().zip(results.chunks(SCHEMES.len())) {
        let (wb, osiris, sm) = (&row[0], &row[1], &row[2]);
        let base = wb.mean_txn_latency();
        rt.row(vec![
            kind.name().into(),
            "1.00".into(),
            format!("{:.2}", osiris.mean_txn_latency() / base),
            format!("{:.2}", sm.mean_txn_latency() / base),
            format!("{:.2}", osiris.nvm_writes() as f64 / wb.nvm_writes() as f64),
            format!("{:.2}", sm.nvm_writes() as f64 / wb.nvm_writes() as f64),
        ]);
    }

    // --- Part 2: recovery cost vs footprint. Each footprint's
    // run-crash-recover cycle is independent, so they sweep too.
    let footprints: [u64; 4] = [256, 1024, 4096, 8192];
    let rec_rows = sweep(&footprints, |&footprint_kb| {
        let cfg = Scheme::Osiris.apply(Config::default());
        let mut sys = System::new(cfg.clone());
        let spec = WorkloadSpec::new(WorkloadKind::Array)
            .with_txns(50)
            .with_req_bytes(1024)
            .with_array_footprint(footprint_kb << 10);
        let mut w = spec.build(&mut sys).expect("valid spec");
        for _ in 0..50 {
            w.step(&mut sys).expect("txn");
        }
        let (_, report) = recover_osiris(&cfg, sys.crash_now()).expect("osiris window configured");
        vec![
            format!("{footprint_kb} KiB"),
            report.lines_scanned.to_string(),
            report.trial_decryptions.to_string(),
            report.counters_corrected.to_string(),
            "0 (strict counters)".into(),
        ]
    });
    let mut rec = TextTable::new(vec![
        "footprint".into(),
        "lines scanned".into(),
        "trial decryptions".into(),
        "counters fixed".into(),
        "SuperMem equivalent".into(),
    ]);
    for row in rec_rows {
        rec.row(row);
    }

    let mut rep = Report::new("osiris");
    rep.section(
        "Osiris vs SuperMem, runtime (normalized to the ideal WB)",
        rt,
    );
    rep.section(
        "Osiris post-crash counter recovery cost (array workload, 50 txns)",
        rec,
    );
    rep.footnote("Recovery work grows with the written footprint — the §6 criticism —");
    rep.footnote("while SuperMem restarts instantly: its counters are always persisted.");
    rep.emit();
}
