//! Figure 15: the number of NVM write requests, normalized to Unsec,
//! for 256 B / 1 KB / 4 KB transaction request sizes.
//!
//! Paper shape to reproduce: WT is 2x regardless of request size; the
//! ideal WB adds only 3–16% (less at larger sizes); SuperMem removes
//! 20–27% of WT's writes at 256 B, 35–42% at 1 KB, and 45–48% at 4 KB
//! thanks to better spatial locality feeding CWC.

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
                "Figure 15{}: NVM write requests, {req} B requests (normalized to Unsec)",
                (b'a' + part as u8) as char
            )
        })
        .collect();
    normalized_figure_report(
        "fig15",
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
        |r| r.nvm_writes() as f64,
    )
    .emit();
}
