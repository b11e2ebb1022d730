//! Read/write-mix study (extension; paper §2.2.3 context).
//!
//! Counter-mode encryption hides OTP generation behind the NVM array
//! read, so an encrypted NVM's *read* path is nearly free — the entire
//! secure-PM overhead is on the write path. Sweeping a YCSB-style mix
//! from write-only to read-only makes that asymmetry measurable: every
//! scheme's gap to Unsec shrinks as reads dominate, and the gaps
//! between schemes (which differ only in counter-write handling)
//! collapse.

use supermem::metrics::TextTable;
use supermem::workloads::{WorkloadKind, WorkloadSpec};
use supermem::{run_batch, Scheme};
use supermem_bench::{machine, txns, Report};

const MIXES: [(u8, &str); 4] = [
    (0, "insert-only"),
    (50, "YCSB-A (50% read)"),
    (95, "YCSB-B (95% read)"),
    (100, "YCSB-C (read-only)"),
];

const SCHEMES: [Scheme; 3] = [Scheme::Unsec, Scheme::WriteThrough, Scheme::SuperMem];

fn main() {
    let n = txns();
    let mut jobs = Vec::new();
    for (pct, _) in MIXES {
        for scheme in SCHEMES {
            jobs.push((
                machine(scheme),
                WorkloadSpec::new(WorkloadKind::Ycsb)
                    .with_txns(n)
                    .with_ycsb_read_pct(pct),
            ));
        }
    }
    let results = run_batch(&jobs);

    let mut t = TextTable::new(vec![
        "mix".into(),
        "Unsec".into(),
        "WT".into(),
        "SuperMem".into(),
        "WT/Unsec".into(),
        "SuperMem/Unsec".into(),
    ]);
    for ((_, label), row) in MIXES.iter().zip(results.chunks(SCHEMES.len())) {
        let [unsec, wt, sm] = [
            row[0].mean_txn_latency(),
            row[1].mean_txn_latency(),
            row[2].mean_txn_latency(),
        ];
        t.row(vec![
            (*label).into(),
            format!("{unsec:.0}"),
            format!("{wt:.0}"),
            format!("{sm:.0}"),
            format!("{:.2}", wt / unsec),
            format!("{:.2}", sm / unsec),
        ]);
    }
    let mut rep = Report::new("mixed");
    rep.section(
        "Operation-mix sweep over the B-tree KV store (cycles per op)",
        t,
    );
    rep.footnote("Encryption overhead lives on the write path: as reads take over,");
    rep.footnote("even the naive WT scheme converges to Unsec (paper §2.2.3).");
    rep.emit();
}
