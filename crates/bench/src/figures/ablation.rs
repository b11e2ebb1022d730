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

use supermem::sim::CounterPlacement;

use super::prelude::*;

const PLACEMENTS: [(CounterPlacement, &str); 3] = [
    (CounterPlacement::SingleBank, "SingleBank"),
    (CounterPlacement::SameBank, "SameBank"),
    (CounterPlacement::CrossBank, "XBank"),
];

pub fn report(runs: &mut Runs, n: u64) -> Report {
    let machines: Vec<Config> = PLACEMENTS
        .iter()
        .flat_map(|&(counter_placement, _)| {
            [false, true].map(|cwc| Config {
                counter_placement,
                cwc,
                ..machine(Scheme::WriteThrough)
            })
        })
        .collect();
    let results = per_kind(runs, &machines, n);
    // The per-bank distribution runs are the grid's queue cells without
    // CWC, so they are answered from the grid's results.
    let queue = WorkloadSpec::new(WorkloadKind::Queue).with_txns(n);
    let dist_runs: Vec<Run> = machines
        .iter()
        .step_by(2)
        .map(|cfg| Run::new(cfg.clone(), queue.clone()))
        .collect();
    let dist_results = runs.simulate(&dist_runs);

    // --- 1. placement x CWC latency grid.
    let names: Vec<String> = PLACEMENTS
        .iter()
        .flat_map(|(_, p)| [(*p).to_owned(), format!("{p}+CWC")])
        .collect();
    let rows: Vec<(String, Vec<f64>)> = ALL_KINDS
        .iter()
        .zip(results.chunks(machines.len()))
        .map(|(kind, row)| {
            (
                kind.name().to_owned(),
                row.iter().map(RunResult::mean_txn_latency).collect(),
            )
        })
        .collect();
    let grid = normalized_text_table(&names.iter().map(String::as_str).collect::<Vec<_>>(), &rows);

    // --- 2. per-bank write distribution (queue workload).
    let mut dist = TextTable::new(
        std::iter::once("placement".to_owned())
            .chain((0..8).map(|b| format!("bank{b}")))
            .collect(),
    );
    for ((_, pname), r) in PLACEMENTS.iter().zip(&dist_results) {
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
    rep
}
