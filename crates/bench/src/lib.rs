//! The figure harness: every table and figure of the paper's evaluation,
//! and the extension studies, as one registry ([`figures::FIGURES`])
//! regenerated by the `figures` binary into `results/<name>.txt`.
//!
//! | Figure | Reproduces | What it prints |
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
//! | `channelsweep` | journal extension | throughput scaling over 1 → 8 interleaved channels |
//! | `treesweep` | integrity extension | streaming-tree frontier: runtime vs recovery cycles |
//! | `kvtorture` | KV extension | crash × fault verdicts of the recoverable KV store |
//!
//! Each registry entry pins its figure's size, so a figure prints the
//! same bytes wherever it is run. Every plain experiment run goes
//! through one [`Runs`], which simulates each distinct run once per
//! process.
#![warn(missing_docs)]

pub mod figures;
pub mod guard;
pub mod micro;
pub mod report;
pub mod runs;

pub use report::Report;
pub use runs::Runs;

use supermem::metrics::TextTable;
use supermem::sim::Config;
use supermem::{env_run_threads, Scheme};

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

/// A table whose headers are `headers` split at ` | `.
pub(crate) fn table(headers: &str) -> TextTable {
    TextTable::new(headers.split(" | ").map(str::to_owned).collect())
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_table_divides_by_first_column() {
        let rows = vec![("array".to_owned(), vec![2.0, 4.0, 1.0])];
        let s = normalized_text_table(&["Unsec", "WT", "half"], &rows).render();
        assert!(s.contains("1.00"));
        assert!(s.contains("2.00"));
        assert!(s.contains("0.50"));
    }
}
