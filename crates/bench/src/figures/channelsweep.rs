//! Channel-scaling sweep (journal extension of the paper): transaction
//! throughput for WT and SuperMem as the memory system is sharded over
//! address-interleaved channels, 1 → 8.
//!
//! The conference paper evaluates a single memory channel; the journal
//! version (*A Secure and Persistent Memory System for NVM*) and
//! Triad-NVM both use multi-channel configurations. Each channel owns a
//! full controller — write queue, counter cache port, staging register,
//! banks — so flushes to different channels overlap completely. Cells
//! are throughput normalized to one channel of the same scheme and
//! workload (higher is better); scaling should be monotonic
//! but sub-linear, since same-channel dependences (counter and data of
//! one line share a channel) and core-side serialization remain.

use super::prelude::*;

const SCHEMES: [Scheme; 2] = [Scheme::WriteThrough, Scheme::SuperMem];

/// Swept channel counts.
const CHANNELS: [usize; 4] = [1, 2, 4, 8];

pub fn report(runs: &mut Runs, n: u64) -> Report {
    let mut rep = Report::new("channelsweep");
    for scheme in SCHEMES {
        let machines = CHANNELS.map(|ch| machine(scheme).with_channels(ch));
        let results = per_kind(runs, &machines, n);
        let mut t = table("workload | ch=1 | ch=2 | ch=4 | ch=8");
        for (kind, row) in ALL_KINDS.iter().zip(results.chunks(CHANNELS.len())) {
            let base = row[0].total_cycles as f64;
            let mut cells = vec![kind.name().to_owned()];
            cells.extend(
                row.iter()
                    .map(|r| format!("{:.2}", base / r.total_cycles as f64)),
            );
            t.row(cells);
        }
        rep.section(
            &format!("Channel scaling: {scheme} throughput, normalized to 1 channel"),
            t,
        );
    }
    rep.footnote("(cells = cycles(1 channel) / cycles(N channels); higher is better)");
    rep
}
