//! KV crash-torture figure (extension beyond the paper): the
//! recoverable KV store — checksummed WAL plus rotating validated
//! snapshots on the secure machine — crashed at **every** write-queue
//! append it performs, crossed with every media fault class, recovered,
//! and differentially judged against the in-DRAM oracle of
//! acknowledged operations.
//!
//! Reading the tables:
//!
//! * **recovered-committed** — every operation issued before the crash
//!   survived (the in-flight one happened to reach the media).
//! * **lost-unacked-tail** — acknowledged operations all survived; only
//!   the never-acknowledged in-flight tail is gone. This is the WAL
//!   contract working as designed, not a failure.
//! * **detected** — the recovered state is degraded but *honestly* so:
//!   a typed `RecoveryError`, damage visible in the recovery report
//!   (rejected snapshots, skipped records), or a hardware signal (ECC
//!   detection, poisoned read, dirty-shutdown latch).
//! * **silent** — acknowledged data wrong with no signal. The whole
//!   figure exists to show this column is zero everywhere.
//!
//! Every cell is deterministic in the seed set: re-running this figure
//! reproduces the table byte for byte, at any `SUPERMEM_THREADS`.

use supermem::campaign::{Fault, Subject, Verdict};
use supermem_kv::kv_campaign;
use supermem_kv::torture::{KV_TORTURE_KEYSPACE, KV_TORTURE_SCHEMES, KV_TORTURE_SNAPSHOT_EVERY};

use super::prelude::*;

/// The table columns after `cases`, in order.
const COLUMNS: [Verdict; 4] = [
    Verdict::New,
    Verdict::Old,
    Verdict::Detected,
    Verdict::Silent,
];

/// Both verdict tables.
///
/// # Panics
///
/// Panics if any case is silent corruption.
pub fn report(_: &mut Runs, _: u64) -> Report {
    let campaign = kv_campaign(&KV_TORTURE_SCHEMES, &[1]);
    let report = campaign.run();
    assert!(
        report.silent().is_empty(),
        "silent corruption in the committed figure campaign"
    );
    let label = |v| campaign.subject.label(v).to_owned();
    let headers = |lead: &[&str]| {
        let mut h: Vec<String> = lead.iter().map(|&s| s.to_owned()).collect();
        h.push("cases".into());
        h.extend(COLUMNS[..3].iter().map(|&v| label(v)));
        h.push("silent".into());
        h
    };

    let mut by_scheme = TextTable::new(
        headers(&["scheme"])
            .into_iter()
            .chain(["verdict".to_owned()])
            .collect(),
    );
    for (scheme, s) in report.tally_by(|r| r.case.cell.label.clone()) {
        let mut row = vec![scheme, s.cases.to_string()];
        row.extend(COLUMNS.map(|v| s.of(v).to_string()));
        row.push(s.verdict().to_owned());
        by_scheme.row(row);
    }

    let mut by_class = TextTable::new(headers(&["fault", "scheme"]));
    let cells = report.tally_by(|r| (r.case.fault, r.case.cell.label.clone()));
    for &fault in &campaign.faults {
        for scheme in KV_TORTURE_SCHEMES {
            let s = cells
                .iter()
                .find(|((f, l), _)| *f == fault && l == scheme.name())
                .map(|(_, s)| *s)
                .unwrap_or_default();
            let mut row = vec![
                if fault == Fault::None {
                    "none (crash only)".to_owned()
                } else {
                    fault.name().to_owned()
                },
                scheme.name().to_owned(),
                s.cases.to_string(),
            ];
            row.extend(COLUMNS.map(|v| s.of(v).to_string()));
            by_class.row(row);
        }
    }

    let points: Vec<String> = campaign
        .seeds
        .iter()
        .map(|&seed| {
            format!(
                "seed {seed}: {}",
                campaign.crash_points(&campaign.cells[0], seed)
            )
        })
        .collect();

    let mut rep = Report::new("kvtorture");
    rep.section(
        "KV store under differential crash torture, per scheme (crash point x fault class x seed)",
        by_scheme,
    );
    rep.section(
        "Per fault class: how each crash landed (SuperMem and the write-through baseline)",
        by_class,
    );
    rep.footnote(&format!(
        "{} injections: every write-queue append of a {}-op WAL+snapshot workload ({} keys, light \
         checkpoint every {} mutations, one epoch rotation) is a crash point; crash points per \
         dry run ({}); {} fault classes + crash-only; seeds {:?}",
        report.total(),
        campaign.subject.ops,
        KV_TORTURE_KEYSPACE,
        KV_TORTURE_SNAPSHOT_EVERY,
        points.join(", "),
        campaign.faults.len() - 1,
        campaign.seeds,
    ));
    rep.footnote(
        "(silent = acknowledged data wrong with no typed error, no damage in the recovery \
         report, and no hardware signal; the campaign's pass criterion is zero)",
    );
    rep
}
