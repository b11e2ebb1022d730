//! The R1–R6 recovery invariants, enforced as executable checks.
//!
//! | # | Invariant | Enforced by |
//! |---|-----------|-------------|
//! | R1 | **Deterministic**: the same image recovers to the same state, bit for bit | [`r1_deterministic`]; [`RecoveryOptions::paranoid`] runs it inside every recovery |
//! | R2 | **Idempotent**: recovering an already-recovered image is a no-op | [`r2_idempotent`] (recovery is read-only by construction; this check proves it) |
//! | R3 | **Prefix-consistent**: the recovered state is some prefix of the acknowledged history | [`r3_prefix_consistent`] |
//! | R4 | **Never invents data**: every recovered value was written by some acknowledged put | [`r4_no_invented_data`] |
//! | R5 | **Never drops acknowledged data silently**: an undamaged recovery reflects every acknowledged op | [`r5_no_silent_drop`] |
//! | R6 | **Bounded degradation**: corrupt-entry skipping stays within the typed limit | [`r6_bounded_skip`] |
//!
//! The torture campaign ([`crate::torture`]) and the property tests in
//! `tests/kv_properties.rs` call these directly; a violation is a
//! `String` describing the breach, never a panic.

use supermem_persist::PMem;

use crate::bytes::KvMap;
use crate::oracle::{Legality, ShadowOracle};
use crate::recovery::{recover, RecoveryOptions, RecoveryResult};
use crate::wal::KvOp;
use crate::KvLayout;

/// R1: two independent recovery passes over the same image must agree
/// exactly (state, report, everything).
///
/// # Errors
///
/// Describes the first divergence, or a recovery refusal (refusing
/// *consistently* is not a violation — both passes must refuse alike).
pub fn r1_deterministic<M: PMem>(
    mem: &mut M,
    layout: KvLayout,
    opts: &RecoveryOptions,
) -> Result<(), String> {
    let a = recover(mem, layout, opts);
    let b = recover(mem, layout, opts);
    match (&a, &b) {
        (Ok(ra), Ok(rb)) => {
            if ra.result != rb.result {
                return Err(format!(
                    "R1 violated: reports differ ({:?} vs {:?})",
                    ra.result, rb.result
                ));
            }
            if ra.store.entries() != rb.store.entries() {
                return Err("R1 violated: recovered states differ".into());
            }
            Ok(())
        }
        (Err(ea), Err(eb)) if ea == eb => Ok(()),
        _ => Err(format!(
            "R1 violated: one pass succeeded where the other refused ({a:?} vs {b:?})"
        )),
    }
}

/// R2: recovery does not change the image, so a second recovery is a
/// no-op — same state, same report, and in particular the second pass
/// replays exactly what the first did.
///
/// # Errors
///
/// Describes the divergence between the first and second recovery.
pub fn r2_idempotent<M: PMem>(
    mem: &mut M,
    layout: KvLayout,
    opts: &RecoveryOptions,
) -> Result<(), String> {
    let first = recover(mem, layout, opts).map(|r| (r.store.entries().clone(), r.result));
    let second = recover(mem, layout, opts).map(|r| (r.store.entries().clone(), r.result));
    if first == second {
        Ok(())
    } else {
        Err(format!(
            "R2 violated: second recovery diverged ({first:?} vs {second:?})"
        ))
    }
}

/// R3: the recovered state equals the oracle state after some legal
/// prefix of the history at crash point `point`. Returns the legality
/// verdict on success.
///
/// # Errors
///
/// Describes the breach when the state matches no legal prefix.
pub fn r3_prefix_consistent(
    oracle: &ShadowOracle,
    point: u64,
    recovered: &KvMap,
) -> Result<Legality, String> {
    match oracle.legal_at(point, recovered) {
        Legality::Illegal => Err(format!(
            "R3 violated: recovered state ({} entries) matches no acknowledged prefix at crash point {point} ({} acked of {} ops)",
            recovered.len(),
            oracle.acked_before(point),
            oracle.len(),
        )),
        ok => Ok(ok),
    }
}

/// R4: recovery never invents data — every recovered pair was written
/// by some acknowledged put.
///
/// # Errors
///
/// Names the first alien key.
pub fn r4_no_invented_data(oracle: &ShadowOracle, recovered: &KvMap) -> Result<(), String> {
    for (k, v) in recovered {
        let written = oracle
            .ops()
            .iter()
            .any(|op| matches!(op, KvOp::Put(pk, pv) if pk == k && pv == v));
        if !written {
            return Err(format!(
                "R4 violated: recovered pair {k:02x?} => {v:02x?} was never written"
            ));
        }
    }
    Ok(())
}

/// R5: acknowledged data is never dropped *silently* — if the report
/// claims an undamaged recovery ([`RecoveryResult::damaged`] false and
/// no torn tail cutting acknowledged records), every acknowledged
/// operation must be reflected.
///
/// # Errors
///
/// Describes the silently dropped suffix.
pub fn r5_no_silent_drop(
    oracle: &ShadowOracle,
    point: u64,
    recovered: &KvMap,
    result: &RecoveryResult,
) -> Result<(), String> {
    if result.damaged() {
        return Ok(()); // damage is reported, not silent
    }
    let acked = oracle.acked_before(point);
    for n in acked..=oracle.len() {
        if &oracle.state_after(n) == recovered {
            return Ok(());
        }
    }
    Err(format!(
        "R5 violated: an allegedly undamaged recovery dropped acknowledged data \
         (state matches no prefix >= {acked} acked ops)"
    ))
}

/// R6: degradation is bounded — skipped corrupt entries never exceed
/// the configured limit (beyond it recovery must have refused with a
/// typed error instead of returning).
///
/// # Errors
///
/// Describes the breach of the bound.
pub fn r6_bounded_skip(result: &RecoveryResult, opts: &RecoveryOptions) -> Result<(), String> {
    if result.corrupt_entries_skipped <= opts.max_corrupt_entries {
        Ok(())
    } else {
        Err(format!(
            "R6 violated: {} entries skipped, limit {}",
            result.corrupt_entries_skipped, opts.max_corrupt_entries
        ))
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;
    use crate::KvStore;
    use supermem_persist::VecMem;

    #[test]
    fn clean_image_passes_every_machine_checkable_invariant() {
        let layout = KvLayout::new(0x1000, 4096, 4096).unwrap();
        let mut mem = VecMem::new();
        let mut kv = KvStore::format(&mut mem, layout, 3).unwrap();
        let mut oracle = ShadowOracle::new();
        for (i, op) in crate::oracle::op_stream(5, 12, 6, 16)
            .into_iter()
            .enumerate()
        {
            match &op {
                KvOp::Put(k, v) => kv.put(&mut mem, k, v).unwrap(),
                KvOp::Del(k) => kv.delete(&mut mem, k).unwrap(),
            }
            oracle.record(op, (i + 1) as u64); // synthetic ack counts
        }
        let opts = RecoveryOptions::default();
        r1_deterministic(&mut mem, layout, &opts).unwrap();
        r2_idempotent(&mut mem, layout, &opts).unwrap();
        let rec = recover(&mut mem, layout, &opts).unwrap();
        let verdict = r3_prefix_consistent(&oracle, u64::MAX, rec.store.entries()).unwrap();
        assert_eq!(verdict, Legality::Committed);
        r4_no_invented_data(&oracle, rec.store.entries()).unwrap();
        r5_no_silent_drop(&oracle, u64::MAX, rec.store.entries(), &rec.result).unwrap();
        r6_bounded_skip(&rec.result, &opts).unwrap();
    }

    #[test]
    fn invented_and_dropped_data_are_caught() {
        let mut oracle = ShadowOracle::new();
        oracle.record(KvOp::Put(b"a".into(), b"1".into()), 1);
        oracle.record(KvOp::Put(b"b".into(), b"2".into()), 2);

        let mut alien = oracle.state_after(2);
        alien.insert(b"ghost".into(), b"!".into());
        assert!(r4_no_invented_data(&oracle, &alien).is_err());
        assert!(r3_prefix_consistent(&oracle, 2, &alien).is_err());

        let dropped = oracle.state_after(1); // acked "b" missing
        let clean_result = RecoveryResult {
            snapshot_slot: 0,
            snapshot_seq: 1,
            snapshots_rejected: 0,
            manifest_ok: true,
            wal_header_ok: true,
            wal_seq: 1,
            records_replayed: 1,
            corrupt_entries_skipped: 0,
            torn_tail_at: None,
            resume_offset: 0,
            entries: 1,
            state_digest: 0,
        };
        assert!(r5_no_silent_drop(&oracle, 2, &dropped, &clean_result).is_err());
        let damaged = RecoveryResult {
            snapshots_rejected: 1,
            ..clean_result
        };
        assert!(r5_no_silent_drop(&oracle, 2, &dropped, &damaged).is_ok());
    }
}
