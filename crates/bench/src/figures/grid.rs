//! Figures 13, 14 and 15: the workload × scheme grids. Each figure has
//! three parts, one table per part, and every cell is a metric
//! normalized to Unsec in the same row.

use super::prelude::*;

/// The paper's three transaction request sizes.
const REQUEST_SIZES: [u64; 3] = [256, 1024, 4096];

/// Programs (one per core) of Figure 14's three parts.
const PROGRAMS: [usize; 3] = [1, 4, 8];

type Metric = fn(&RunResult) -> f64;

/// Figure 13: single-core transaction execution latency, normalized to
/// the un-encrypted NVM (Unsec), for 256 B / 1 KB / 4 KB transaction
/// request sizes, across the five workloads and six schemes.
///
/// Paper shape to reproduce: WT costs 1.7–2x Unsec; WT+CWC recovers
/// 17–24% (256 B) up to 40–48% (4 KB); WT+XBank up to 45%; SuperMem
/// lands within a few percent of the ideal WB.
pub fn fig13(runs: &mut Runs, txns: u64) -> Report {
    let latency = RunResult::mean_txn_latency;
    sizes(runs, txns, "13", "single-core txn latency", latency)
}

/// Figure 15: the number of NVM write requests, normalized to Unsec, on
/// Figure 13's runs.
///
/// Paper shape to reproduce: WT is 2x regardless of request size; the
/// ideal WB adds only 3–16% (less at larger sizes); SuperMem removes
/// 20–27% of WT's writes at 256 B, 35–42% at 1 KB, and 45–48% at 4 KB
/// thanks to better spatial locality feeding CWC.
pub fn fig15(runs: &mut Runs, txns: u64) -> Report {
    sizes(runs, txns, "15", "NVM write requests", |r| {
        r.nvm_writes() as f64
    })
}

/// Figure 14: multi-core transaction execution latency with 1, 4, and 8
/// concurrent programs (one per core), normalized to Unsec at the same
/// program count.
///
/// Paper shape to reproduce: WT costs 1.8–2.4x; with more programs the
/// banks saturate, so WT+CWC (which removes writes) overtakes WT+XBank
/// (which only spreads them); SuperMem still tracks the ideal WB.
pub fn fig14(runs: &mut Runs, txns: u64) -> Report {
    programs(runs, txns, "fig14", "", Driver::Multicore)
}

/// Figure 14, event-granularity variant: the same multi-core sweep as
/// [`fig14`], but with per-core traces interleaved one memory operation
/// at a time — closer to the paper's cycle-driven gem5 cores than the
/// transaction-granularity scheduler of `fig14`.
pub fn fig14t(runs: &mut Runs, txns: u64) -> Report {
    let tag = " (event-interleaved)";
    programs(runs, txns, "fig14t", tag, Driver::MulticoreTrace)
}

/// Figures 13 and 15: one part per request size.
fn sizes(runs: &mut Runs, txns: u64, fig: &str, what: &str, metric: Metric) -> Report {
    let parts = REQUEST_SIZES.iter().zip('a'..).map(|(&req, letter)| {
        let title = format!("Figure {fig}{letter}: {what}, {req} B requests (normalized to Unsec)");
        let spec = |kind| WorkloadSpec::new(kind).with_txns(txns).with_req_bytes(req);
        (
            title,
            cells(|kind, scheme| Run::new(machine(scheme), spec(kind))),
        )
    });
    grid(runs, &format!("fig{fig}"), parts, metric)
}

/// Figure 14 and its event-interleaved variant: one part per program
/// count, each program with a 2 MiB array footprint.
fn programs(runs: &mut Runs, txns: u64, name: &str, tag: &str, driver: Driver) -> Report {
    let parts = PROGRAMS.iter().zip('a'..).map(|(&programs, letter)| {
        let title =
            format!("Figure 14{letter}{tag}: {programs}-program txn latency (normalized to Unsec)");
        let spec = |kind| {
            WorkloadSpec::new(kind)
                .with_txns(txns)
                .with_array_footprint(2 << 20)
        };
        let run = |kind, scheme| Run::new(machine(scheme), spec(kind)).on(programs, driver);
        (title, cells(run))
    });
    grid(runs, name, parts, RunResult::mean_txn_latency)
}

/// One table per titled part: workloads as rows, the six figure schemes
/// as columns, each cell `metric` of its run divided by the row's Unsec
/// cell.
fn grid(
    runs: &mut Runs,
    name: &str,
    parts: impl Iterator<Item = (String, Vec<Run>)>,
    metric: Metric,
) -> Report {
    let (titles, keys): (Vec<String>, Vec<Vec<Run>>) = parts.unzip();
    let results = runs.simulate(&keys.concat());
    let names = FIGURE_SCHEMES.map(Scheme::name);
    let mut rep = Report::new(name);
    for (title, part) in titles
        .iter()
        .zip(results.chunks(ALL_KINDS.len() * names.len()))
    {
        let rows: Vec<(String, Vec<f64>)> = ALL_KINDS
            .iter()
            .zip(part.chunks(names.len()))
            .map(|(kind, row)| (kind.name().to_owned(), row.iter().map(metric).collect()))
            .collect();
        rep.section(title, normalized_text_table(&names, &rows));
    }
    rep
}

/// One run per (workload, scheme) cell, in row order.
fn cells(run: impl Fn(WorkloadKind, Scheme) -> Run) -> Vec<Run> {
    ALL_KINDS
        .iter()
        .flat_map(|&kind| FIGURE_SCHEMES.map(|s| run(kind, s)))
        .collect()
}
