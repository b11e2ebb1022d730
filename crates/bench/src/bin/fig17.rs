//! Figure 17: sensitivity to counter-cache size (1 KB → 4 MB), with the
//! fixed 32-entry write queue and 1 KB transactions.
//!
//! (a) Counter-cache hit rate: queue and btree access contiguous memory
//!     (one counter line covers a whole 4 KB page), so their hit rates
//!     are high regardless of size; array / hash / rbtree access random
//!     pages and gain with capacity.
//! (b) Workload execution time, normalized to the 1 KB counter cache.

use supermem::metrics::TextTable;
use supermem::workloads::spec::ALL_KINDS;
use supermem::workloads::WorkloadSpec;
use supermem::{run_batch, Scheme};
use supermem_bench::{machine, txns, Report};

const CC_SIZES: [(u64, &str); 7] = [
    (1 << 10, "1K"),
    (4 << 10, "4K"),
    (16 << 10, "16K"),
    (64 << 10, "64K"),
    (256 << 10, "256K"),
    (1 << 20, "1M"),
    (4 << 20, "4M"),
];

fn main() {
    let n = txns();
    let mut jobs = Vec::new();
    for kind in ALL_KINDS {
        for (bytes, _) in CC_SIZES {
            // Reuse must dominate first-touch misses for the hit rate to
            // reflect capacity: run several passes over each structure's
            // footprint (the paper's workloads run to completion).
            jobs.push((
                machine(Scheme::SuperMem).with_counter_cache_bytes(bytes),
                WorkloadSpec::new(kind)
                    .with_txns(n.max(600))
                    .with_hash_buckets(512),
            ));
        }
    }
    let results = run_batch(&jobs);

    let headers: Vec<String> = std::iter::once("workload".to_owned())
        .chain(CC_SIZES.iter().map(|(_, l)| (*l).to_owned()))
        .collect();
    let mut hits = TextTable::new(headers.clone());
    let mut time = TextTable::new(headers);
    for (kind, row) in ALL_KINDS.iter().zip(results.chunks(CC_SIZES.len())) {
        let mut hit_cells = vec![kind.name().to_owned()];
        let mut time_cells = vec![kind.name().to_owned()];
        let mut base_time = None;
        for r in row {
            let rate = r.counter_cache_hit_rate().unwrap_or(0.0);
            hit_cells.push(format!("{:.1}%", rate * 100.0));
            let cycles = r.total_cycles as f64;
            let base = *base_time.get_or_insert(cycles);
            time_cells.push(format!("{:.3}", cycles / base));
        }
        hits.row(hit_cells);
        time.row(time_cells);
    }
    let mut rep = Report::new("fig17");
    rep.section(
        "Figure 17a: counter-cache hit rate (SuperMem, 1 KB txns)",
        hits,
    );
    rep.section(
        "Figure 17b: execution time vs counter-cache size (normalized to 1K)",
        time,
    );
    rep.emit();
}
