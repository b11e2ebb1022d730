//! §5.1.1 headline result: "SuperMem improves the performance by about
//! 2x compared with an encrypted NVM with a baseline write-through
//! counter cache, and achieves the performance comparable to an ideal
//! secure NVM."

use supermem::metrics::{geomean, TextTable};
use supermem::workloads::spec::ALL_KINDS;
use supermem::workloads::WorkloadSpec;
use supermem::{run_batch, Scheme};
use supermem_bench::{machine, txns, Report};

const SCHEMES: [Scheme; 4] = [
    Scheme::Unsec,
    Scheme::WriteBackIdeal,
    Scheme::WriteThrough,
    Scheme::SuperMem,
];

fn main() {
    let n = txns();
    let mut jobs = Vec::new();
    for kind in ALL_KINDS {
        for scheme in SCHEMES {
            jobs.push((machine(scheme), WorkloadSpec::new(kind).with_txns(n)));
        }
    }
    let results = run_batch(&jobs);

    let mut table = TextTable::new(vec![
        "workload".into(),
        "WT/Unsec".into(),
        "SuperMem/Unsec".into(),
        "WT/SuperMem (speedup)".into(),
        "SuperMem/WB (gap to ideal)".into(),
    ]);
    let mut speedups = Vec::new();
    let mut gaps = Vec::new();
    for (kind, row) in ALL_KINDS.iter().zip(results.chunks(SCHEMES.len())) {
        let [unsec, wb, wt, sm] = [
            row[0].mean_txn_latency(),
            row[1].mean_txn_latency(),
            row[2].mean_txn_latency(),
            row[3].mean_txn_latency(),
        ];
        speedups.push(wt / sm);
        gaps.push(sm / wb);
        table.row(vec![
            kind.name().into(),
            format!("{:.2}", wt / unsec),
            format!("{:.2}", sm / unsec),
            format!("{:.2}x", wt / sm),
            format!("{:.2}", sm / wb),
        ]);
    }
    table.row(vec![
        "geomean".into(),
        String::new(),
        String::new(),
        format!("{:.2}x", geomean(&speedups)),
        format!("{:.2}", geomean(&gaps)),
    ]);
    let mut rep = Report::new("headline");
    rep.section(
        "Headline (§5.1.1): 1 KB transactions, Table 2 configuration",
        table,
    );
    rep.emit();
}
