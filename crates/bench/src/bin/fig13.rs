//! Figure 13: single-core transaction execution latency, normalized to
//! the un-encrypted NVM (Unsec), for 256 B / 1 KB / 4 KB transaction
//! request sizes, across the five workloads and six schemes.
//!
//! Paper shape to reproduce: WT costs 1.7–2x Unsec; WT+CWC recovers
//! 17–24% (256 B) up to 40–48% (4 KB); WT+XBank up to 45%; SuperMem
//! lands within a few percent of the ideal WB.

use supermem::workloads::WorkloadSpec;
use supermem::Experiment;
use supermem_bench::{machine, normalized_figure_report, txns, REQUEST_SIZES};

fn main() {
    let n = txns();
    let titles: Vec<String> = REQUEST_SIZES
        .iter()
        .enumerate()
        .map(|(part, req)| {
            format!(
                "Figure 13{}: single-core txn latency, {req} B requests (normalized to Unsec)",
                (b'a' + part as u8) as char
            )
        })
        .collect();
    normalized_figure_report(
        "fig13",
        &titles,
        |part, kind, scheme| {
            Experiment::new(
                machine(scheme),
                WorkloadSpec::new(kind)
                    .with_txns(n)
                    .with_req_bytes(REQUEST_SIZES[part]),
            )
        },
        Experiment::run,
        supermem::RunResult::mean_txn_latency,
    )
    .emit();
}
