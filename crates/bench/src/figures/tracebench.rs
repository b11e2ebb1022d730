//! Trace-driven scheme comparison.
//!
//! Captures each workload's memory-operation trace *once* on a
//! functional memory, then replays the identical trace through every
//! scheme's timed machine — the classic decoupled methodology of
//! trace-driven architecture simulation (gem5/NVMain studies work the
//! same way). Because every scheme sees byte-identical traffic, the
//! comparison isolates the memory system completely.

use supermem::trace::encode;

use super::prelude::*;

pub fn report(_: &mut Runs, n: u64) -> Report {
    // One job per workload: record the trace, then replay it through
    // every scheme. The replays share the recorded trace, so the
    // workload is the natural parallel grain.
    let rows = sweep(&ALL_KINDS, |kind| {
        let spec = WorkloadSpec::new(*kind)
            .with_txns(n)
            .with_array_footprint(1 << 20);
        let session = |scheme: Scheme| {
            Experiment::new(machine(scheme), spec.clone()).unwrap_or_else(|e| panic!("{e}"))
        };
        let trace = session(Scheme::SuperMem).record_trace();
        let encoded = encode(&trace);
        let mut cells = vec![kind.name().to_owned()];
        let mut base = None;
        for scheme in FIGURE_SCHEMES {
            let lat = session(scheme).replay(&trace).mean_txn_latency();
            let b = *base.get_or_insert(lat);
            cells.push(format!("{:.2}", lat / b));
        }
        cells.push(format!("{} KiB", encoded.len() / 1024));
        cells
    });

    let mut table = TextTable::new(
        std::iter::once("workload".to_owned())
            .chain(FIGURE_SCHEMES.iter().map(|s| s.name().to_owned()))
            .chain(std::iter::once("trace size".to_owned()))
            .collect(),
    );
    for cells in rows {
        table.row(cells);
    }
    let mut rep = Report::new("tracebench");
    rep.section(
        "Trace-driven replay: one recorded trace per workload, every scheme\n(txn latency normalized to Unsec; identical traffic everywhere)",
        table,
    );
    rep
}
