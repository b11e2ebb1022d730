//! Channel-scaling sweep (journal extension of the paper): transaction
//! throughput for WT and SuperMem as the memory system is sharded over
//! address-interleaved channels (default sweep 1 → 8, or any list given
//! via `--channels-list`).
//!
//! The conference paper evaluates a single memory channel; the journal
//! version (*A Secure and Persistent Memory System for NVM*) and
//! Triad-NVM both use multi-channel configurations. Each channel owns a
//! full controller — write queue, counter cache port, staging register,
//! banks — so flushes to different channels overlap completely. Cells
//! are throughput normalized to the first channel count of the same
//! scheme and workload (higher is better); scaling should be monotonic
//! but sub-linear, since same-channel dependences (counter and data of
//! one line share a channel) and core-side serialization remain.

use supermem::metrics::TextTable;
use supermem::workloads::spec::ALL_KINDS;
use supermem::workloads::WorkloadSpec;
use supermem::{run_batch, Scheme};
use supermem_bench::{machine, txns, Report};

const SCHEMES: [Scheme; 2] = [Scheme::WriteThrough, Scheme::SuperMem];

/// Parses `--channels-list 1,2,4,8` (or `--channels-list=1,2,4,8`) from
/// the process arguments; the hard-coded 1→8 sweep is only the default.
fn channels_list() -> Result<Vec<usize>, String> {
    let mut list = vec![1, 2, 4, 8];
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let value = if arg == "--channels-list" {
            args.next()
                .ok_or_else(|| "--channels-list needs a value (e.g. 1,2,4)".to_owned())?
        } else if let Some(v) = arg.strip_prefix("--channels-list=") {
            v.to_owned()
        } else {
            return Err(format!("unknown flag `{arg}` (only --channels-list)"));
        };
        list = value
            .split(',')
            .map(|tok| {
                let n: usize = tok
                    .trim()
                    .parse()
                    .map_err(|_| format!("invalid channel count `{tok}`"))?;
                if n == 0 || !n.is_power_of_two() {
                    return Err(format!("channel count {n} must be a power of two"));
                }
                Ok(n)
            })
            .collect::<Result<_, String>>()?;
        if list.is_empty() {
            return Err("--channels-list must name at least one channel count".to_owned());
        }
    }
    Ok(list)
}

fn main() {
    let channels = match channels_list() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("channelsweep: {e}");
            std::process::exit(2);
        }
    };
    let n = txns();
    let mut jobs = Vec::new();
    for scheme in SCHEMES {
        for kind in ALL_KINDS {
            for &ch in &channels {
                jobs.push((
                    machine(scheme).with_channels(ch),
                    WorkloadSpec::new(kind).with_txns(n),
                ));
            }
        }
    }
    let results = run_batch(&jobs);

    let headers: Vec<String> = std::iter::once("workload".to_owned())
        .chain(channels.iter().map(|c| format!("ch={c}")))
        .collect();
    let first = channels[0];
    let plural = if first == 1 { "" } else { "s" };
    let mut rep = Report::new("channelsweep");
    let mut chunks = results.chunks(channels.len());
    for scheme in SCHEMES {
        let mut t = TextTable::new(headers.clone());
        for kind in ALL_KINDS {
            let row = chunks.next().expect("one chunk per (scheme, workload)");
            let base = row[0].total_cycles;
            let mut cells = vec![kind.name().to_owned()];
            for r in row {
                cells.push(format!("{:.2}", base as f64 / r.total_cycles as f64));
            }
            t.row(cells);
        }
        rep.section(
            &format!("Channel scaling: {scheme} throughput, normalized to {first} channel{plural}"),
            t,
        );
    }
    rep.footnote(&format!(
        "(cells = cycles({first} channel{plural}) / cycles(N channels); higher is better)"
    ));
    rep.emit();
}
