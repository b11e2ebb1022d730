//! Shared plumbing for the figure-regeneration binaries.
//!
//! Every table and figure of the paper's evaluation has a binary here:
//!
//! | Binary | Reproduces | What it prints |
//! |--------|-----------|----------------|
//! | `fig13` | Figure 13 a/b/c | single-core txn latency, normalized to Unsec, for 256 B / 1 KB / 4 KB requests |
//! | `fig14` | Figure 14 a/b/c | multi-core (1/4/8 programs) txn latency, normalized to Unsec |
//! | `fig14t` | Figure 14 a/b/c | same sweep with event-granularity trace interleaving (faithful cores) |
//! | `fig15` | Figure 15 a/b/c | NVM write requests, normalized to Unsec |
//! | `fig16` | Figure 16 a/b | write-queue-size sweep: % counter writes coalesced; txn latency |
//! | `fig17` | Figure 17 a/b | counter-cache-size sweep: hit rate; normalized execution time |
//! | `table1` | Table 1 | per-stage crash recoverability, per scheme |
//! | `headline` | §5.1.1 | SuperMem vs WT speedup and gap to the ideal WB |
//! | `ablation` | Figure 8 / §3.3-3.4 | bank-placement × CWC grid and per-bank write distribution |
//! | `osiris` | §6 related work | Osiris runtime vs recovery-cost trade |
//! | `endurance` | §3.4.1 context | hottest counter-line wear per scheme |
//! | `tracebench` | methodology | trace-driven replay across schemes |
//! | `battery` | §1/§7 motivation | ADR/battery-domain bytes per scheme |
//! | `mixed` | §2.2.3 context | YCSB-style read/write-mix sweep |
//! | `sca` | §2.3/§6 related work | SCA's software contract vs SuperMem's transparency |
//! | `bitwrites` | §6 related work | bits flipped per write: CTR vs DEUCE vs plaintext |
//! | `authenticated` | §2.2.1 footnote | Merkle-tree verification overhead on SuperMem |
//! | `servesweep` | serving extension | open-loop tail latency on shared lock-free structures: baseline, re-encryption storm, degraded bank |
//!
//! Set `SUPERMEM_TXNS` to change the per-run transaction count (default
//! 200) — the figures' *shapes* are stable well below that.
#![warn(missing_docs)]

pub mod guard;
pub mod micro;
pub mod report;

pub use report::Report;

use supermem::metrics::TextTable;
use supermem::scheme::FIGURE_SCHEMES;
use supermem::sim::Config;
use supermem::workloads::spec::ALL_KINDS;
use supermem::workloads::WorkloadKind;
use supermem::{env_run_threads, sweep, ConfigError, Experiment, RunResult, Scheme};

/// Transactions per run, from `SUPERMEM_TXNS` (default 200).
pub fn txns() -> u64 {
    std::env::var("SUPERMEM_TXNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200)
}

/// The paper's three transaction request sizes.
pub const REQUEST_SIZES: [u64; 3] = [256, 1024, 4096];

/// The machine of every figure run: `scheme`'s preset over the Table 2
/// defaults, machine seed 1 (it derives the AES key; the committed
/// figures were generated with it), and `SUPERMEM_RUN_THREADS`
/// intra-run workers.
pub fn machine(scheme: Scheme) -> Config {
    scheme
        .apply(Config::default())
        .with_seed(1)
        .with_run_threads(env_run_threads())
}

/// Builds one normalized-metric table: workloads as rows, schemes as
/// columns, each cell `metric(scheme) / metric(first scheme)`.
pub fn normalized_text_table(scheme_names: &[&str], rows: &[(String, Vec<f64>)]) -> TextTable {
    let mut headers = vec!["workload".to_owned()];
    headers.extend(scheme_names.iter().map(|s| (*s).to_owned()));
    let mut table = TextTable::new(headers);
    for (name, values) in rows {
        let base = values[0];
        let mut cells = vec![name.clone()];
        cells.extend(values.iter().map(|v| format!("{:.2}", v / base)));
        table.row(cells);
    }
    table
}

/// [`normalized_text_table`] rendered under a title line.
pub fn normalized_table(title: &str, scheme_names: &[&str], rows: &[(String, Vec<f64>)]) -> String {
    format!(
        "{title}\n{}",
        normalized_text_table(scheme_names, rows).render()
    )
}

/// The workload × scheme grid behind Figures 13–15: one [`Experiment`]
/// per (part, workload, scheme) cell, all cells executed through the
/// parallel sweep engine, one table per part with each workload row
/// normalized to the first scheme's metric.
///
/// Cells are reassembled **in input order**, so the rendered report is
/// byte-identical to the historical sequential nested loops.
///
/// # Panics
///
/// Panics if `make` refuses a cell.
pub fn normalized_figure_report<F, R, M>(
    name: &str,
    part_titles: &[String],
    make: F,
    runner: R,
    metric: M,
) -> Report
where
    F: Fn(usize, WorkloadKind, Scheme) -> Result<Experiment, ConfigError> + Sync,
    R: Fn(&mut Experiment) -> RunResult + Sync,
    M: Fn(&RunResult) -> f64,
{
    let mut cells = Vec::new();
    for part in 0..part_titles.len() {
        for kind in ALL_KINDS {
            for scheme in FIGURE_SCHEMES {
                cells.push((part, kind, scheme));
            }
        }
    }
    let results = sweep(&cells, |&(part, kind, scheme)| {
        runner(&mut make(part, kind, scheme).unwrap_or_else(|e| panic!("{e}")))
    });
    let scheme_names = FIGURE_SCHEMES.map(supermem::Scheme::name);
    let cells_per_part = ALL_KINDS.len() * FIGURE_SCHEMES.len();
    let mut rep = Report::new(name);
    for (part, chunk) in results.chunks(cells_per_part).enumerate() {
        let rows: Vec<(String, Vec<f64>)> = ALL_KINDS
            .iter()
            .zip(chunk.chunks(FIGURE_SCHEMES.len()))
            .map(|(kind, cells)| (kind.name().to_owned(), cells.iter().map(&metric).collect()))
            .collect();
        rep.section(
            &part_titles[part],
            normalized_text_table(&scheme_names, &rows),
        );
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txns_default() {
        // Cannot assume the env var is unset under `cargo test`, so only
        // check that the value is sane.
        assert!(txns() > 0);
    }

    #[test]
    fn normalized_table_divides_by_first_column() {
        let rows = vec![("array".to_owned(), vec![2.0, 4.0, 1.0])];
        let s = normalized_table("T", &["Unsec", "WT", "half"], &rows);
        assert!(s.contains("1.00"));
        assert!(s.contains("2.00"));
        assert!(s.contains("0.50"));
    }
}
