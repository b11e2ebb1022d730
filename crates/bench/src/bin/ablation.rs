//! Design ablations called out in DESIGN.md:
//!
//! 1. **Bank placement × CWC grid** (paper Figure 8 / §3.3): latency of
//!    every {SingleBank, SameBank, CrossBank} × {CWC off, CWC on}
//!    combination over the write-through counter cache, normalized to
//!    SingleBank without CWC (= the WT baseline). CrossBank+CWC is
//!    SuperMem.
//! 2. **Per-bank write distribution**: where data and counter writes
//!    land for each placement — SingleBank funnels every counter write
//!    into bank 7, SameBank doubles each data bank's load, CrossBank
//!    spreads pairs half the bank space apart.

use supermem::metrics::TextTable;
use supermem::sim::CounterPlacement;
use supermem::workloads::spec::ALL_KINDS;
use supermem::workloads::{WorkloadKind, WorkloadSpec};
use supermem::{run_batch, Scheme};
use supermem_bench::{machine, txns, Report};

const PLACEMENTS: [(CounterPlacement, &str); 3] = [
    (CounterPlacement::SingleBank, "SingleBank"),
    (CounterPlacement::SameBank, "SameBank"),
    (CounterPlacement::CrossBank, "XBank"),
];

fn main() {
    let n = txns();

    // Both experiments go into one job list so a single sweep covers
    // the full binary: the placement x CWC grid first, then the three
    // per-bank distribution runs.
    let mut jobs = Vec::new();
    for kind in ALL_KINDS {
        for (placement, _) in PLACEMENTS {
            for cwc in [false, true] {
                let mut cfg = machine(Scheme::WriteThrough);
                cfg.counter_placement = placement;
                cfg.cwc = cwc;
                jobs.push((cfg, WorkloadSpec::new(kind).with_txns(n)));
            }
        }
    }
    let grid_jobs = jobs.len();
    for (placement, _) in PLACEMENTS {
        let mut cfg = machine(Scheme::WriteThrough);
        cfg.counter_placement = placement;
        jobs.push((cfg, WorkloadSpec::new(WorkloadKind::Queue).with_txns(n)));
    }
    let results = run_batch(&jobs);

    // --- 1. placement x CWC latency grid.
    let mut headers = vec!["workload".to_owned()];
    for (_, pname) in PLACEMENTS {
        headers.push(pname.to_owned());
        headers.push(format!("{pname}+CWC"));
    }
    let mut grid = TextTable::new(headers);
    let cells_per_kind = PLACEMENTS.len() * 2;
    for (kind, row) in ALL_KINDS
        .iter()
        .zip(results[..grid_jobs].chunks(cells_per_kind))
    {
        let mut cells = vec![kind.name().to_owned()];
        let mut base = None;
        for r in row {
            let lat = r.mean_txn_latency();
            let b = *base.get_or_insert(lat);
            cells.push(format!("{:.2}", lat / b));
        }
        grid.row(cells);
    }

    // --- 2. per-bank write distribution (queue workload).
    let mut dist = TextTable::new(
        std::iter::once("placement".to_owned())
            .chain((0..8).map(|b| format!("bank{b}")))
            .collect(),
    );
    for ((_, pname), r) in PLACEMENTS.iter().zip(&results[grid_jobs..]) {
        let total: u64 = r.stats.bank_writes.iter().sum();
        let mut cells = vec![(*pname).to_owned()];
        for &w in r.stats.bank_writes.iter().take(8) {
            cells.push(format!("{:.0}%", 100.0 * w as f64 / total.max(1) as f64));
        }
        dist.row(cells);
    }

    let mut rep = Report::new("ablation");
    rep.section(
        "Ablation 1: WT latency by counter placement x CWC (normalized to SingleBank)",
        grid,
    );
    rep.section(
        "Ablation 2: share of NVM writes per bank (queue, WT, 1 KB txns)",
        dist,
    );
    rep.emit();
}
