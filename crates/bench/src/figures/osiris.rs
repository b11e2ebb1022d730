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
//! This figure quantifies both halves of that trade:
//!   1. runtime — Osiris writes fewer counters than SuperMem (it is
//!      close to the ideal WB);
//!   2. recovery — Osiris must scan every written line and pay trial
//!      decryptions, growing linearly with the footprint, while
//!      SuperMem's recovery is O(1).

use supermem::persist::RecoveredMemory;

use super::prelude::*;

const SCHEMES: [Scheme; 3] = [Scheme::WriteBackIdeal, Scheme::Osiris, Scheme::SuperMem];

pub fn report(runs: &mut Runs, n: u64) -> Report {
    // --- Part 1: runtime comparison.
    let results = per_kind(runs, &SCHEMES.map(machine), n);

    let mut rt = table(
        "workload | WB(ideal) lat | Osiris lat | SuperMem lat | Osiris writes | \
         SuperMem writes",
    );
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
        let rec = RecoveredMemory::from_machine_image_checked(&cfg, sys.machine_crash_now())
            .expect("un-faulted image recovers");
        let report = rec.osiris_report();
        vec![
            format!("{footprint_kb} KiB"),
            report.lines_scanned.to_string(),
            report.trial_decryptions.to_string(),
            report.counters_corrected.to_string(),
            "0 (strict counters)".into(),
        ]
    });
    let mut rec = table(
        "footprint | lines scanned | trial decryptions | counters fixed | \
         SuperMem equivalent",
    );
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
    rep
}
