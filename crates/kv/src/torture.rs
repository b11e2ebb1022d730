//! The KV store as a crash-campaign subject: every WAL append,
//! snapshot write, and checkpoint-pointer flip is a crash point; every
//! crash point is crossed with the media fault classes; every recovered
//! store is checked against the shadow oracle of acknowledged
//! operations. The crash-campaign engine ([`supermem::campaign`]) runs
//! the loop; [`KvSubject`] supplies the store, its op stream, the
//! paranoid [`recover`] and the oracle.
//!
//! The campaign's verdicts read, for this subject:
//!
//! * **recovered-committed** ([`Verdict::New`]) — every operation issued
//!   before the crash survived (possibly including the unacknowledged
//!   in-flight one).
//! * **lost-unacked-tail** ([`Verdict::Old`]) — all *acknowledged*
//!   operations survived; the in-flight tail did not. This is the
//!   contract working as designed.
//! * **detected** — the recovered state is degraded, but honestly:
//!   recovery refused with a typed [`RecoveryError`], or the damage is
//!   visible in [`RecoveryResult`] (skipped records, rejected
//!   snapshots) or in a hardware signal (ECC detection, poisoned read,
//!   dirty-shutdown latch).
//! * **SILENT** — acknowledged data is wrong and *nothing* noticed, or
//!   recovery broke its own bounded-skip contract (R6). One of these
//!   fails the campaign.
//!
//! Because the KV workload's persists *are* its WAL appends, snapshot
//! payload/header writes, and manifest flips, a crash after every
//! write-queue append hits every durability edge of the store.
//!
//! [`RecoveryError`]: crate::recovery::RecoveryError

use supermem::campaign::{Campaign, Case, Fault, Judgement, Machine, Subject, Verdict};
use supermem::persist::{DirectMem, RecoveredMemory};
use supermem::sim::Config;
use supermem::Scheme;

use crate::invariants::{r3_prefix_consistent, r6_bounded_skip};
use crate::oracle::{op_stream, Legality, ShadowOracle};
use crate::recovery::{recover, RecoveryOptions, RecoveryResult};
use crate::store::KvStore;
use crate::wal::KvOp;
use crate::KvLayout;

/// Region base of the tortured store.
pub const KV_TORTURE_BASE: u64 = 0x8000;
/// WAL body bytes — deliberately tight so the op stream crosses at
/// least one rotating checkpoint.
pub const KV_TORTURE_WAL_BODY: u64 = 384;
/// Snapshot slot bytes.
pub const KV_TORTURE_SNAP_CAP: u64 = 1024;
/// Mutations between automatic light checkpoints.
pub const KV_TORTURE_SNAPSHOT_EVERY: u64 = 3;
/// Distinct keys in the tortured working set.
pub const KV_TORTURE_KEYSPACE: u64 = 6;
/// Maximum value bytes in the tortured op stream.
pub const KV_TORTURE_MAX_VAL: usize = 20;

/// Schemes the KV campaign sweeps by default: the paper's scheme and
/// the strongest baseline. (Any scheme the PR 4 campaign certifies can
/// be requested explicitly; these two keep the default grid dense but
/// affordable.)
pub const KV_TORTURE_SCHEMES: [Scheme; 2] = [Scheme::SuperMem, Scheme::WriteThrough];

/// The tortured store's layout.
///
/// # Panics
///
/// Never: the constants above satisfy [`KvLayout::new`] by
/// construction (checked in tests).
fn kv_torture_layout() -> KvLayout {
    #[allow(clippy::disallowed_methods)]
    // Justified panic: compile-time constants; the layout test pins them.
    KvLayout::new(KV_TORTURE_BASE, KV_TORTURE_WAL_BODY, KV_TORTURE_SNAP_CAP)
        .expect("torture layout constants are valid")
}

/// A seeded stream of `ops` puts and deletes against a freshly
/// formatted store. The seed fixes the stream and every injection choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvSubject {
    /// Operations per tortured run.
    pub ops: u64,
}

impl Default for KvSubject {
    fn default() -> Self {
        Self { ops: 10 }
    }
}

/// The store positioned before the op stream, with the stream and its
/// shadow oracle (acknowledged ops with their append counts).
#[derive(Clone)]
pub struct KvState {
    store: KvStore,
    stream: Vec<KvOp>,
    oracle: ShadowOracle,
}

/// Runs one operation against the store.
fn apply_op(store: &mut KvStore, mem: &mut DirectMem, op: &KvOp) {
    // Justified panic: the torture layout is statically sized for the
    // op stream; a failure here would be a harness bug, not a media
    // event.
    #[allow(clippy::disallowed_methods)]
    match op {
        KvOp::Put(k, v) => store.put(mem, k, v).expect("torture put"),
        KvOp::Del(k) => store.delete(mem, k).expect("torture delete"),
    }
}

impl Subject for KvSubject {
    type Cell = Machine;
    type State = KvState;
    type Evidence = RecoveryResult;

    fn config(&self, cell: &Machine) -> Config {
        cell.cfg.clone()
    }

    /// Formats the store, shuts down durably, and dry-runs the stream on
    /// a clone to build the oracle.
    fn base(&self, cfg: &Config, _: &Machine, seed: u64) -> (DirectMem, KvState) {
        let mut mem = DirectMem::new(cfg);
        // Justified panic: see `apply_op`.
        #[allow(clippy::disallowed_methods)]
        let store = KvStore::format(&mut mem, kv_torture_layout(), KV_TORTURE_SNAPSHOT_EVERY)
            .expect("format torture store");
        mem.shutdown();
        let stream = op_stream(seed, self.ops, KV_TORTURE_KEYSPACE, KV_TORTURE_MAX_VAL);
        let (mut dry_mem, mut dry_store) = (mem.clone(), store.clone());
        let before = dry_mem.controller().append_events();
        let mut oracle = ShadowOracle::new();
        for op in &stream {
            apply_op(&mut dry_store, &mut dry_mem, op);
            oracle.record(op.clone(), dry_mem.controller().append_events() - before);
        }
        let state = KvState {
            store,
            stream,
            oracle,
        };
        (mem, state)
    }

    fn workload(&self, mem: &mut DirectMem, st: &mut KvState) {
        for op in &st.stream {
            apply_op(&mut st.store, mem, op);
        }
    }

    fn judge(
        &self,
        rec: &mut RecoveredMemory,
        st: &KvState,
        point: u64,
    ) -> Judgement<RecoveryResult> {
        let opts = RecoveryOptions {
            paranoid: true,
            ..RecoveryOptions::default()
        };
        let recovered = match recover(rec, kv_torture_layout(), &opts) {
            Ok(r) => r,
            Err(e) => return Judgement::of(Verdict::Detected, format!("kv recovery refused: {e}")),
        };
        let report = recovered.result;

        // R6 is recovery's own contract; a breach is a store bug the
        // campaign must fail on, not a media outcome.
        if let Err(msg) = r6_bounded_skip(&report, &opts) {
            return Judgement::of(Verdict::Silent, msg).with_evidence(report);
        }

        // R3: differential check against the acknowledged history.
        match r3_prefix_consistent(&st.oracle, point, recovered.store.entries()) {
            Ok(Legality::Committed) => Judgement::of(
                Verdict::New,
                format!(
                    "all issued ops durable ({} replayed from snapshot {})",
                    report.records_replayed, report.snapshot_seq
                ),
            ),
            Ok(Legality::LostUnackedTail) => Judgement::of(
                Verdict::Old,
                format!(
                    "acked prefix intact; unacked tail cut ({})",
                    report.torn_tail_at.map_or(
                        "no torn record; tail never reached the queue".to_owned(),
                        |o| format!("torn record truncated at offset {o}")
                    )
                ),
            ),
            Ok(Legality::Illegal) | Err(_) => Judgement::wrong(
                report.damaged(),
                format!(
                    "report_damaged={} (skipped={} snapshots_rejected={})",
                    report.damaged(),
                    report.corrupt_entries_skipped,
                    report.snapshots_rejected,
                ),
            ),
        }
        .with_evidence(report)
    }

    fn repro(&self, case: &Case<Machine>) -> String {
        case.scheme_repro("kv torture")
    }

    fn label(&self, verdict: Verdict) -> &'static str {
        match verdict {
            Verdict::New => "recovered-committed",
            Verdict::Old => "lost-unacked-tail",
            v => v.name(),
        }
    }
}

/// `supermem kv torture`'s default shape over `schemes` × `channels`
/// (channel count outermost): the 10-op stream, crash-only plus every
/// media fault class, seeds 1–4, every crash point of each seed's stream.
pub fn kv_campaign(schemes: &[Scheme], channels: &[usize]) -> Campaign<KvSubject> {
    Campaign {
        subject: KvSubject::default(),
        cells: channels
            .iter()
            .flat_map(|&ch| schemes.iter().map(move |&s| Machine::scheme(s, ch)))
            .collect(),
        faults: Fault::media_grid(),
        seeds: vec![1, 2, 3, 4],
        point: None,
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;

    #[test]
    fn torture_layout_constants_are_valid() {
        let l = kv_torture_layout();
        assert_eq!(l.base, KV_TORTURE_BASE);
    }

    #[test]
    fn crash_points_are_deterministic_and_plentiful() {
        let campaign = kv_campaign(&[Scheme::SuperMem], &[1]);
        let a = campaign.crash_points(&campaign.cells[0], 1);
        let b = campaign.crash_points(&campaign.cells[0], 1);
        assert_eq!(a, b);
        // The stream crosses WAL appends, light checkpoints, and a
        // rotation: well over one append per op.
        assert!(a > 10, "only {a} crash points");
    }

    #[test]
    fn unfaulted_crashes_never_lose_acked_data() {
        // The crash-only baseline at every point, one scheme, one seed:
        // every case must land in a legal (non-detected) bucket.
        let campaign = Campaign {
            faults: vec![Fault::None],
            seeds: vec![1],
            ..kv_campaign(&[Scheme::SuperMem], &[1])
        };
        let report = campaign.run();
        assert!(report.total() > 10);
        for r in &report.results {
            assert!(
                matches!(r.verdict, Verdict::New | Verdict::Old),
                "{}: un-faulted case must recover cleanly, got {} ({})",
                campaign.subject.repro(&r.case),
                campaign.subject.label(r.verdict),
                r.detail
            );
        }
    }

    #[test]
    fn faulted_smoke_grid_has_no_silent_corruption() {
        let campaign = Campaign {
            seeds: vec![1],
            ..kv_campaign(&[Scheme::SuperMem], &[1])
        };
        let report = campaign.run();
        let silent = report.silent();
        assert!(
            silent.is_empty(),
            "SILENT: {}",
            silent
                .iter()
                .map(|r| format!("{} ({})", campaign.subject.repro(&r.case), r.detail))
                .collect::<Vec<_>>()
                .join("; ")
        );
    }

    #[test]
    fn the_last_counted_point_commits_the_whole_stream() {
        // A campaign tortures the stream it counted: at the last counted
        // point (the shutdown drain's final append) every one of its
        // `ops` operations is durable, whatever `ops` is.
        for (ops, seed) in [(8, 2), (8, 3), (12, 1)] {
            let subject = KvSubject { ops };
            let campaign = Campaign {
                subject,
                faults: vec![Fault::None],
                seeds: vec![seed],
                ..kv_campaign(&[Scheme::SuperMem], &[1])
            };
            let cell = &campaign.cells[0];
            let total = campaign.crash_points(cell, seed);
            let last = campaign.run_case(&Case {
                cell: cell.clone(),
                fault: Fault::None,
                point: total,
                seed,
            });
            assert_eq!(
                subject.label(last.verdict),
                "recovered-committed",
                "ops {ops} seed {seed}: {}",
                last.detail
            );
            // Every op durable: the recovered store holds exactly what a
            // completed run of the stream leaves.
            let (mut mem, mut st) = subject.base(&cell.cfg, cell, seed);
            subject.workload(&mut mem, &mut st);
            assert_eq!(st.oracle.len() as u64, ops);
            assert_eq!(
                last.evidence.map(|e| e.entries),
                Some(st.store.len() as u64)
            );
        }
    }
}
