//! Figure 14: multi-core transaction execution latency with 1, 4, and 8
//! concurrent programs (one per core), normalized to Unsec at the same
//! program count.
//!
//! Paper shape to reproduce: WT costs 1.8–2.4x; with more programs the
//! banks saturate, so WT+CWC (which removes writes) overtakes WT+XBank
//! (which only spreads them); SuperMem still tracks the ideal WB.

use supermem::workloads::WorkloadSpec;
use supermem::Experiment;
use supermem_bench::{machine, normalized_figure_report, txns};

const PROGRAMS: [usize; 3] = [1, 4, 8];

fn main() {
    let n = txns().min(120); // multi-core runs are programs x txns
    let titles: Vec<String> = PROGRAMS
        .iter()
        .enumerate()
        .map(|(part, programs)| {
            format!(
                "Figure 14{}: {programs}-program txn latency (normalized to Unsec)",
                (b'a' + part as u8) as char
            )
        })
        .collect();
    normalized_figure_report(
        "fig14",
        &titles,
        |part, kind, scheme| {
            // Each program gets this array footprint.
            let spec = WorkloadSpec::new(kind)
                .with_txns(n)
                .with_array_footprint(2 << 20);
            Experiment::new(machine(scheme), spec)?.with_programs(PROGRAMS[part])
        },
        Experiment::run_multicore,
        supermem::RunResult::mean_txn_latency,
    )
    .emit();
}
