//! Figure 16: sensitivity to write-queue size (8 → 128 entries), with
//! the fixed 256 KB counter cache and 1 KB transactions.
//!
//! (a) Percentage of counter writes removed by CWC in SuperMem — longer
//!     queues hold more pending counter writes to merge with; the knee
//!     sits near 32 entries (which is why Table 2 uses 32).
//! (b) Mean transaction latency, normalized to the 8-entry queue.

use super::prelude::*;

const QUEUE_SIZES: [usize; 5] = [8, 16, 32, 64, 128];

pub fn report(runs: &mut Runs, n: u64) -> Report {
    let machines = QUEUE_SIZES.map(|q| machine(Scheme::SuperMem).with_write_queue_entries(q));
    let results = per_kind(runs, &machines, n);

    let headers: Vec<String> = std::iter::once("workload".to_owned())
        .chain(QUEUE_SIZES.iter().map(|q| format!("wq={q}")))
        .collect();
    let mut reduced = TextTable::new(headers.clone());
    let mut latency = TextTable::new(headers);
    for (kind, row) in ALL_KINDS.iter().zip(results.chunks(QUEUE_SIZES.len())) {
        let mut reduced_cells = vec![kind.name().to_owned()];
        let mut latency_cells = vec![kind.name().to_owned()];
        let mut base_latency = None;
        for r in row {
            let coalesced = r.stats.counter_writes_coalesced;
            let total = coalesced + r.stats.nvm_counter_writes;
            let pct = 100.0 * coalesced as f64 / total.max(1) as f64;
            reduced_cells.push(format!("{pct:.0}%"));
            let lat = r.mean_txn_latency();
            let base = *base_latency.get_or_insert(lat);
            latency_cells.push(format!("{:.2}", lat / base));
        }
        reduced.row(reduced_cells);
        latency.row(latency_cells);
    }
    let mut rep = Report::new("fig16");
    rep.section(
        "Figure 16a: % of counter writes coalesced by CWC (SuperMem)",
        reduced,
    );
    rep.section(
        "Figure 16b: txn latency vs write-queue size (normalized to wq=8)",
        latency,
    );
    rep
}
