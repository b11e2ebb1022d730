//! Figure 14, event-granularity variant: the same multi-core sweep as
//! `fig14`, but with per-core traces interleaved one memory operation
//! at a time — closer to the paper's cycle-driven gem5 cores than the
//! transaction-granularity scheduler in `fig14`.

use supermem::workloads::WorkloadSpec;
use supermem::Experiment;
use supermem_bench::{machine, normalized_figure_report, txns};

const PROGRAMS: [usize; 3] = [1, 4, 8];

fn main() {
    let n = txns().min(100);
    let titles: Vec<String> = PROGRAMS
        .iter()
        .enumerate()
        .map(|(part, programs)| {
            format!(
                "Figure 14{} (event-interleaved): {programs}-program txn latency (normalized to Unsec)",
                (b'a' + part as u8) as char
            )
        })
        .collect();
    normalized_figure_report(
        "fig14t",
        &titles,
        |part, kind, scheme| {
            // Each program gets this array footprint.
            let spec = WorkloadSpec::new(kind)
                .with_txns(n)
                .with_array_footprint(2 << 20);
            Experiment::new(machine(scheme), spec)?.with_programs(PROGRAMS[part])
        },
        Experiment::run_multicore_trace,
        supermem::RunResult::mean_txn_latency,
    )
    .emit();
}
