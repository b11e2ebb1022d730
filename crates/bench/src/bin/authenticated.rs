//! Authentication overhead: SuperMem with the Bonsai Merkle Tree wired
//! into the counter-fetch path (the §2.2.1-footnote defense, here made
//! measurable).
//!
//! Verification runs only on counter-cache *misses* (hits are on-chip
//! and already trusted), so the overhead tracks the miss rate: near
//! zero with the 256 KB cache, visible with a deliberately tiny one.

use supermem::metrics::TextTable;
use supermem::workloads::spec::ALL_KINDS;
use supermem::workloads::WorkloadSpec;
use supermem::{run_batch, Scheme};
use supermem_bench::{machine, txns, Report};

const CC_SIZES: [(u64, &str); 2] = [(256 << 10, "256K"), (1 << 10, "1K")];

fn main() {
    let n = txns();
    let mut jobs = Vec::new();
    for kind in ALL_KINDS {
        for (cc, _) in CC_SIZES {
            for integrity in [false, true] {
                let cfg = machine(Scheme::SuperMem)
                    .with_counter_cache_bytes(cc)
                    .with_integrity_tree(integrity);
                jobs.push((cfg, WorkloadSpec::new(kind).with_txns(n)));
            }
        }
    }
    let results = run_batch(&jobs);

    let mut t = TextTable::new(vec![
        "workload".into(),
        "cc size".into(),
        "plain lat".into(),
        "auth lat".into(),
        "overhead".into(),
        "verifications".into(),
    ]);
    for (i, pair) in results.chunks(2).enumerate() {
        let kind = ALL_KINDS[i / CC_SIZES.len()];
        let (_, label) = CC_SIZES[i % CC_SIZES.len()];
        let (plain, auth) = (&pair[0], &pair[1]);
        t.row(vec![
            kind.name().into(),
            label.into(),
            format!("{:.0}", plain.mean_txn_latency()),
            format!("{:.0}", auth.mean_txn_latency()),
            format!(
                "{:+.1}%",
                (auth.mean_txn_latency() / plain.mean_txn_latency() - 1.0) * 100.0
            ),
            auth.stats.integrity_verifications.to_string(),
        ]);
    }
    let mut rep = Report::new("authenticated");
    rep.section(
        "SuperMem with counter-region authentication (Bonsai Merkle Tree)",
        t,
    );
    rep.footnote("Verification costs hash-latency x tree-height per counter-cache miss;");
    rep.footnote("with the paper's 256 KB counter cache the overhead is negligible.");
    rep.emit();
}
