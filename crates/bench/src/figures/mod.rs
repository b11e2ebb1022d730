//! The figure registry: one [`Figure`] per committed
//! `results/<name>.txt`, each with its size pinned.
//!
//! A figure's plain experiment runs go through the shared [`Runs`], so
//! a run two figures declare (Figure 15 is Figure 13's grid under
//! another metric) is simulated once. Runs that are not plain
//! experiments — recovery images, the SCA adapter, trace replays,
//! serving runs and crash campaigns — fan out over `supermem::sweep`
//! inside their figure.

mod ablation;
mod authenticated;
mod battery;
mod bitwrites;
mod channelsweep;
mod endurance;
mod fig16;
mod fig17;
mod grid;
mod headline;
mod kvtorture;
mod mixed;
mod osiris;
mod sca;
mod servesweep;
mod table1;
mod tracebench;
mod treesweep;

use prelude::*;

/// The names most figures use, imported by each with
/// `use super::prelude::*`.
mod prelude {
    pub(super) use supermem::metrics::TextTable;
    pub(super) use supermem::scheme::FIGURE_SCHEMES;
    pub(super) use supermem::sim::Config;
    pub(super) use supermem::workloads::spec::ALL_KINDS;
    pub(super) use supermem::workloads::{WorkloadKind, WorkloadSpec};
    pub(super) use supermem::{sweep, Experiment, RunResult, Scheme, System};

    pub(super) use super::per_kind;
    pub(super) use crate::runs::{Driver, Run, Runs};
    pub(super) use crate::{machine, normalized_text_table, table, Report};
}

/// One committed figure.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// The figure's name: its file `results/<name>.txt` and its JSON
    /// `name`.
    pub name: &'static str,
    /// Transactions per workload run (requests per serving run for
    /// `servesweep`); `None` for figures whose size their construction
    /// fixes.
    pub txns: Option<u64>,
    /// Renders the figure from a size.
    pub report: fn(&mut Runs, u64) -> Report,
}

impl Figure {
    /// Renders the figure at its pinned size.
    pub fn render(&self, runs: &mut Runs) -> Report {
        (self.report)(runs, self.txns.unwrap_or_default())
    }
}

/// Every committed figure: the paper's evaluation, then the extension
/// studies.
pub static FIGURES: [Figure; 21] = [
    figure("table1", None, table1::report),
    figure("fig13", Some(200), grid::fig13),
    figure("fig14", Some(120), grid::fig14),
    figure("fig14t", Some(60), grid::fig14t),
    figure("fig15", Some(200), grid::fig15),
    figure("fig16", Some(150), fig16::report),
    figure("fig17", Some(600), fig17::report),
    figure("headline", Some(200), headline::report),
    figure("ablation", Some(200), ablation::report),
    figure("osiris", Some(150), osiris::report),
    figure("sca", Some(150), sca::report),
    figure("battery", None, battery::report),
    figure("endurance", Some(150), endurance::report),
    figure("mixed", Some(150), mixed::report),
    figure("bitwrites", Some(150), bitwrites::report),
    figure("tracebench", Some(150), tracebench::report),
    figure("authenticated", Some(150), authenticated::report),
    figure("channelsweep", Some(150), channelsweep::report),
    figure("treesweep", Some(150), treesweep::report),
    figure("servesweep", Some(200), servesweep::report),
    figure("kvtorture", None, kvtorture::report),
];

const fn figure(
    name: &'static str,
    txns: Option<u64>,
    report: fn(&mut Runs, u64) -> Report,
) -> Figure {
    Figure { name, txns, report }
}

/// One `n`-transaction run of every paper workload on each of
/// `machines`, workload-major.
fn per_kind(runs: &mut Runs, machines: &[Config], n: u64) -> Vec<RunResult> {
    let jobs: Vec<Run> = ALL_KINDS
        .iter()
        .flat_map(|&kind| machines.iter().map(move |cfg| (cfg, kind)))
        .map(|(cfg, kind)| Run::new(cfg.clone(), WorkloadSpec::new(kind).with_txns(n)))
        .collect();
    runs.simulate(&jobs)
}

/// The registry entry named `name`.
pub fn find(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

/// The first line (1-based) at which `fresh` differs from `committed`,
/// line endings included; `None` when the two are identical.
pub fn first_difference(committed: &str, fresh: &str) -> Option<usize> {
    (committed != fresh).then(|| {
        let lines = committed.split_inclusive('\n');
        lines
            .zip(fresh.split_inclusive('\n'))
            .take_while(|(a, b)| a == b)
            .count()
            + 1
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::collections::BTreeSet;

    #[test]
    fn registry_and_committed_results_name_the_same_figures() {
        let names: BTreeSet<&str> = FIGURES.iter().map(|f| f.name).collect();
        assert_eq!(names.len(), FIGURES.len(), "figure names must be unique");
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let committed: BTreeSet<String> = std::fs::read_dir(dir)
            .expect("results/ exists")
            .filter_map(|entry| {
                let name = entry.expect("readable entry").file_name();
                let name = name.to_str().expect("UTF-8 file name");
                name.strip_suffix(".txt").map(str::to_owned)
            })
            .collect();
        let registered: BTreeSet<String> = names.iter().map(|&n| n.to_owned()).collect();
        assert_eq!(registered, committed);
    }

    #[test]
    fn first_difference_names_the_line() {
        assert_eq!(first_difference("a\nb\n", "a\nb\n"), None);
        assert_eq!(first_difference("a\nb\n", "a\nc\n"), Some(2));
        assert_eq!(first_difference("a\nb\n", "a\nb\nc\n"), Some(3));
        assert_eq!(first_difference("a\nb\n", "a\nb"), Some(2));
    }
}
