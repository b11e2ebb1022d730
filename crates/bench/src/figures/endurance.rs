//! NVM endurance ablation (paper §3.4.1 context).
//!
//! PCM cells survive 10^7–10^9 writes, so DIMM lifetime is bounded by
//! the *hottest* line. In an encrypted NVM the counter lines are that
//! hotspot: every data write anywhere in a 4 KB page rewrites the same
//! 64 B counter line. This figure measures the hottest counter line's
//! wear per scheme — CWC's merging protects the cells directly, not
//! just the write queue.

use super::prelude::*;

const SCHEMES: [(Scheme, &str); 3] = [
    (Scheme::WriteThrough, "WT"),
    (Scheme::SuperMem, "SuperMem"),
    (Scheme::WriteBackIdeal, "WB"),
];

pub fn report(runs: &mut Runs, n: u64) -> Report {
    let results = per_kind(runs, &SCHEMES.map(|(scheme, _)| machine(scheme)), n);

    let mut table = table(
        "workload | scheme | hottest ctr line | hottest data line | ctr writes total | \
         ctr wear vs WT",
    );
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
    rep
}
