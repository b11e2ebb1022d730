//! Serving-tail figure (extension beyond the paper): p50/p99/p999
//! sojourn latency for four cores hammering one *shared* lock-free
//! persistent structure through the secure-memory write path.
//!
//! The paper's evaluation is closed-loop — each core owns its region
//! and throughput is the number. A storage service cares about the
//! other axis: when requests arrive on their own schedule, what do the
//! slowest ones pay? Three scenarios per structure:
//!
//! 1. **baseline** — mixed read/write Zipfian traffic at a moderate
//!    arrival rate; the tails reflect CAS contention plus the ordinary
//!    counter-fetch/crypto/queue path.
//! 2. **storm** — backlogged write-only traffic, long enough that the
//!    hot lines (the stack/queue heads, the hot hash buckets) wrap
//!    their 7-bit minor counters and force whole-page re-encryptions;
//!    the p999 column shows the requests that arrived mid-storm.
//! 3. **degraded** — bank 0 fail-stopped at time zero; the service
//!    keeps answering (poisoned reads, dropped writes are counted) and
//!    the tail shows what the loss costs.
//!
//! Every cell is deterministic in the seed: re-running this figure
//! reproduces the table byte for byte.

use supermem_serve::{run_serve, ServeConfig, ServeReport, StructureKind};

use super::prelude::*;

fn baseline(structure: StructureKind, requests: u64) -> ServeConfig {
    ServeConfig {
        structure,
        requests,
        ..ServeConfig::default()
    }
}

/// Write-only, backlogged, hot-keyed: the head/bucket lines absorb one
/// write per operation, so twice the baseline's requests wrap the 7-bit
/// minor counters (128 writes per line) several times over.
fn storm(structure: StructureKind, requests: u64) -> ServeConfig {
    ServeConfig {
        read_pct: 0,
        mean_gap: 0,
        requests: 2 * requests,
        // Two buckets concentrate the hash writes the way the single
        // head pointer concentrates the stack's and queue's.
        hash_buckets: 2,
        ..baseline(structure, requests)
    }
}

fn degraded(structure: StructureKind, requests: u64) -> ServeConfig {
    ServeConfig {
        degraded_bank: Some(0),
        ..baseline(structure, requests)
    }
}

fn row(label: &str, r: &ServeReport) -> Vec<String> {
    vec![
        label.to_owned(),
        r.structure.to_string(),
        r.completed.to_string(),
        r.p50.to_string(),
        r.p99.to_string(),
        r.p999.to_string(),
        format!("{:.0}", r.mean),
        r.max.to_string(),
        r.retries.to_string(),
        r.reencryptions.to_string(),
    ]
}

/// The three serving tables, `requests` per baseline and degraded run.
pub fn report(_: &mut Runs, requests: u64) -> Report {
    let mut tails =
        table("scenario | structure | reqs | p50 | p99 | p999 | mean | max | retries | reenc");
    let mut storms: Vec<(ServeReport, ServeReport)> = Vec::new();
    let mut degraded_rows = table("structure | reqs | p50 | p999 | max | poisoned | dropped");

    for structure in StructureKind::ALL {
        let base = run_serve(&baseline(structure, requests)).expect("baseline serve");
        tails.row(row("baseline", &base));
        let hot = run_serve(&storm(structure, requests)).expect("storm serve");
        tails.row(row("storm", &hot));
        storms.push((base, hot));

        let deg = run_serve(&degraded(structure, requests)).expect("degraded serve");
        degraded_rows.row(vec![
            deg.structure.to_string(),
            deg.completed.to_string(),
            deg.p50.to_string(),
            deg.p999.to_string(),
            deg.max.to_string(),
            deg.poisoned_reads.to_string(),
            deg.dropped_writes.to_string(),
        ]);
    }

    let mut blowup = table("structure | storm reenc | p999/p50 (storm) | p999 vs baseline");
    for (base, hot) in &storms {
        blowup.row(vec![
            hot.structure.to_string(),
            hot.reencryptions.to_string(),
            format!("{:.1}x", hot.p999 as f64 / hot.p50.max(1) as f64),
            format!("{:.1}x", hot.p999 as f64 / base.p999.max(1) as f64),
        ]);
    }

    let mut rep = Report::new("servesweep");
    rep.section(
        "Open-loop serving tails: 4 cores, one shared structure, SuperMem \
         (sojourn latency, cycles)",
        tails,
    );
    rep.section(
        "Re-encryption storms: tail blowup under backlogged write-only traffic",
        blowup,
    );
    rep.section(
        "Degraded mode: bank 0 fail-stopped, service keeps answering",
        degraded_rows,
    );
    rep.footnote(
        "(sojourn = completion - arrival; storm traffic wraps the hot lines' \
         7-bit minor counters, forcing page re-encryptions mid-run)",
    );
    rep.footnote(
        "(degraded runs skip shadow verification: poisoned reads legitimately \
         diverge; baseline and storm runs are verified against the shadow model)",
    );
    rep
}
