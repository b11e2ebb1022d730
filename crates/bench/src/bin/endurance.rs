//! NVM endurance ablation (paper §3.4.1 context).
//!
//! PCM cells survive 10^7–10^9 writes, so DIMM lifetime is bounded by
//! the *hottest* line. In an encrypted NVM the counter lines are that
//! hotspot: every data write anywhere in a 4 KB page rewrites the same
//! 64 B counter line. This binary measures the hottest counter line's
//! wear per scheme — CWC's merging protects the cells directly, not
//! just the write queue.

use supermem::metrics::TextTable;
use supermem::workloads::spec::ALL_KINDS;
use supermem::workloads::WorkloadSpec;
use supermem::{run_batch, Scheme};
use supermem_bench::{machine, txns, Report};

const SCHEMES: [(Scheme, &str); 3] = [
    (Scheme::WriteThrough, "WT"),
    (Scheme::SuperMem, "SuperMem"),
    (Scheme::WriteBackIdeal, "WB"),
];

fn main() {
    let n = txns();
    let mut jobs = Vec::new();
    for kind in ALL_KINDS {
        for (scheme, _) in SCHEMES {
            jobs.push((machine(scheme), WorkloadSpec::new(kind).with_txns(n)));
        }
    }
    let results = run_batch(&jobs);

    let mut table = TextTable::new(vec![
        "workload".into(),
        "scheme".into(),
        "hottest ctr line".into(),
        "hottest data line".into(),
        "ctr writes total".into(),
        "ctr wear vs WT".into(),
    ]);
    for (kind, row) in ALL_KINDS.iter().zip(results.chunks(SCHEMES.len())) {
        let mut wt_max = None;
        for ((_, label), r) in SCHEMES.iter().zip(row) {
            let max_ctr = r.wear.max_counter_wear;
            let base = *wt_max.get_or_insert(max_ctr);
            table.row(vec![
                kind.name().into(),
                (*label).into(),
                max_ctr.to_string(),
                r.wear.max_data_wear.to_string(),
                r.wear.total_counter_writes.to_string(),
                format!("{:.2}", max_ctr as f64 / base.max(1) as f64),
            ]);
        }
    }
    let mut rep = Report::new("endurance");
    rep.section(
        "Counter-line endurance by scheme (1 KB transactions)",
        table,
    );
    rep.footnote("The hottest counter line bounds DIMM lifetime; CWC merges pending");
    rep.footnote("counter writes so far fewer ever reach the cells (paper §3.4).");
    rep.footnote("(Start-Gap wear leveling — Config::wear_psi — additionally rotates");
    rep.footnote("hot lines across physical slots; at device scale one rotation takes");
    rep.footnote("billions of writes, so its effect shows in the unit tests, not here.)");
    rep.emit();
}
