//! Streaming integrity-tree figure: the throughput / recovery-cycles
//! Pareto across the persisted-levels frontier (Triad-NVM-style
//! selective tree persistence over the paper's counter region).
//!
//! Each row arms the Bonsai Merkle Tree and moves the persistence
//! frontier: `eager` is the fully-lazy volatile tree (today's default —
//! node updates are on-chip register writes, recovery re-hashes every
//! counter line), `L1`..`L3` persist tree levels strictly below the
//! frontier through the write queue as first-class node-line traffic.
//! Runtime pays per frontier level (extra NVM writes competing with
//! data/counter traffic); recovery gets cheaper, because the persisted
//! leaf-digest level replaces hashing the whole counter region.
//!
//! `recovery (cyc)` is the deterministic recovery-time estimate of the
//! checked rebuild for a fixed 512-page crash image: persisted line
//! reads at media latency plus SHA-node recomputation above the
//! frontier (`supermem_persist::recovery` accounting).

use supermem::persist::{PMem, RecoveredMemory};

use super::prelude::*;

const SCHEMES: [Scheme; 2] = [Scheme::WriteThrough, Scheme::SuperMem];

/// Swept frontier points: eager (volatile tree) plus three streaming
/// frontiers of the height-4 default tree.
const FRONTIERS: [(Option<u32>, &str); 4] = [
    (None, "eager"),
    (Some(1), "L1"),
    (Some(2), "L2"),
    (Some(3), "L3"),
];

/// Deterministic recovery cost of a fixed 512-page crash image under
/// `scheme` with the given frontier: the checked rebuild's cycle
/// estimate (line reads + node hashes).
fn recovery_cycles(scheme: Scheme, levels: Option<u32>) -> u64 {
    let mut cfg = scheme.apply(Config::default());
    cfg.integrity_tree = true;
    cfg.persisted_levels = levels;
    cfg.seed = 7;
    let mut sys = System::new(cfg.clone());
    for i in 0..512u64 {
        sys.write(i * 4096, &[i as u8; 64]);
        sys.clwb(i * 4096, 64);
        if i % 8 == 7 {
            sys.sfence();
        }
    }
    sys.sfence();
    sys.checkpoint();
    let rec = RecoveredMemory::from_machine_image_checked(&cfg, sys.machine_crash_now())
        .expect("un-faulted image recovers");
    rec.recovery_cycles()
}

pub fn report(runs: &mut Runs, n: u64) -> Report {
    let mut jobs = Vec::new();
    for scheme in SCHEMES {
        for (levels, _) in FRONTIERS {
            let cfg = machine(scheme)
                .with_integrity_tree(true)
                .with_persisted_levels(levels);
            jobs.push(Run::new(
                cfg,
                WorkloadSpec::new(WorkloadKind::Queue).with_txns(n),
            ));
        }
    }
    let results = runs.simulate(&jobs);

    let mut t = table(
        "scheme | frontier | txn lat | nvm writes | tree writes | coalesced | recovery (cyc)",
    );
    for (i, r) in results.iter().enumerate() {
        let scheme = SCHEMES[i / FRONTIERS.len()];
        let (levels, label) = FRONTIERS[i % FRONTIERS.len()];
        t.row(vec![
            scheme.to_string(),
            label.into(),
            format!("{:.0}", r.mean_txn_latency()),
            r.nvm_writes().to_string(),
            r.stats.nvm_tree_writes.to_string(),
            r.stats.tree_updates_coalesced.to_string(),
            recovery_cycles(scheme, levels).to_string(),
        ]);
    }

    let mut rep = Report::new("treesweep");
    rep.section(
        "Streaming integrity tree: persisted-levels frontier sweep \
         (queue workload, tree over the first 4096 counter lines)",
        t,
    );
    rep.footnote(
        "(eager = volatile tree: node updates are on-chip register writes, \
         recovery re-hashes every persisted counter line)",
    );
    rep.footnote(
        "(L{n} persists tree levels < n through the write queue: runtime pays \
         node-line NVM writes, recovery reads the persisted leaf-digest level \
         instead of hashing the counter region)",
    );
    rep.footnote(
        "(recovery (cyc) = checked-rebuild estimate for a fixed 512-page crash \
         image: persisted line reads + node hashes above the frontier)",
    );
    rep
}
