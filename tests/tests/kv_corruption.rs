//! Randomized WAL/snapshot corruption: flip, truncate, and duplicate
//! bytes at seeded offsets anywhere in the store's media region, then
//! recover. The contract under *arbitrary* byte damage (not just crash
//! shapes) is fail-safe, never fail-silent:
//!
//! * recovery never panics — every outcome is `Ok` or a typed
//!   [`supermem_kv::RecoveryError`];
//! * it is deterministic and idempotent even on garbage (R1/R2);
//! * an `Ok` whose report claims **no damage** must equal some prefix
//!   of the applied history — corruption may eat the tail (zeroed
//!   bytes are indistinguishable from never-written log), but it can
//!   never reorder, relocate, or invent operations silently;
//! * a non-prefix state is only acceptable with the damage flag raised
//!   (e.g. a mid-log record skipped, and counted, under R6).
//!
//! Deterministic randomized testing: a seeded SplitMix64 generates the
//! mutations (stands in for proptest, which is unavailable in offline
//! builds). Every case is reproducible from the fixed seeds.

use supermem_kv::invariants::{r1_deterministic, r2_idempotent, r4_no_invented_data};
use supermem_kv::{
    op_stream, recover, KvLayout, KvMap, KvOp, KvStore, RecoveryOptions, ShadowOracle,
};
use supermem_persist::{PMem, VecMem};
use supermem_sim::SplitMix64;

const BASE: u64 = 0x4000;

fn build_image(seed: u64, n: u64, snapshot_every: u64) -> (VecMem, KvLayout, ShadowOracle) {
    let layout = KvLayout::new(BASE, 1 << 12, 1 << 11).expect("layout");
    let mut mem = VecMem::new();
    let mut kv = KvStore::format(&mut mem, layout, snapshot_every).expect("format");
    let mut oracle = ShadowOracle::new();
    for (i, op) in op_stream(seed, n, 8, 24).into_iter().enumerate() {
        match &op {
            KvOp::Put(k, v) => kv.put(&mut mem, k, v).expect("put"),
            KvOp::Del(k) => kv.delete(&mut mem, k).expect("delete"),
        }
        oracle.record(op, (i + 1) as u64);
    }
    (mem, layout, oracle)
}

fn is_prefix(oracle: &ShadowOracle, state: &KvMap) -> bool {
    (0..=oracle.len()).any(|n| &oracle.state_after(n) == state)
}

#[derive(Debug)]
enum Mutation {
    /// XOR 1–8 bytes at random offsets with random nonzero masks.
    Flip,
    /// Zero from a random offset to the end of the region.
    Truncate,
    /// Copy a random 8–64 byte chunk over another random offset.
    Duplicate,
}

fn mutate(rng: &mut SplitMix64, img: &mut VecMem, layout: &KvLayout) -> Mutation {
    let region = layout.total_len();
    let addr = |off: u64| layout.base + off;
    match rng.next_below(3) {
        0 => {
            for _ in 0..rng.next_range(1, 9) {
                let off = rng.next_below(region);
                let mut b = [0u8; 1];
                img.read(addr(off), &mut b);
                b[0] ^= rng.next_range(1, 256) as u8;
                img.write(addr(off), &b);
            }
            Mutation::Flip
        }
        1 => {
            let off = rng.next_below(region);
            let zeros = vec![0u8; (region - off) as usize];
            img.write(addr(off), &zeros);
            Mutation::Truncate
        }
        _ => {
            let len = rng.next_range(8, 65);
            let src = rng.next_below(region - len);
            let dst = rng.next_below(region - len);
            let mut chunk = vec![0u8; len as usize];
            img.read(addr(src), &mut chunk);
            img.write(addr(dst), &chunk);
            Mutation::Duplicate
        }
    }
}

#[test]
fn random_corruption_never_panics_and_never_silently_diverges() {
    let mut rng = SplitMix64::new(0x4B56_4652); // "KVFR"
    let opts = RecoveryOptions::default();
    let (mut ok_clean, mut ok_damaged, mut refused) = (0u32, 0u32, 0u32);

    for case in 0..60u64 {
        let seed = 100 + case;
        let n = rng.next_range(10, 36);
        let snapshot_every = rng.next_range(3, 10);
        let (mem, layout, oracle) = build_image(seed, n, snapshot_every);
        let mut img = mem.clone();
        let kind = mutate(&mut rng, &mut img, &layout);

        // Garbage in, determinism still out: both passes agree, and a
        // third is a no-op (recovery never writes).
        r1_deterministic(&mut img, layout, &opts)
            .unwrap_or_else(|e| panic!("case {case} ({kind:?}): {e}"));
        r2_idempotent(&mut img, layout, &opts)
            .unwrap_or_else(|e| panic!("case {case} ({kind:?}): {e}"));

        match recover(&mut img, layout, &opts) {
            Ok(rec) => {
                assert!(
                    rec.result.corrupt_entries_skipped <= opts.max_corrupt_entries,
                    "case {case} ({kind:?}): R6 breached"
                );
                r4_no_invented_data(&oracle, rec.store.entries())
                    .unwrap_or_else(|e| panic!("case {case} ({kind:?}): {e}"));
                if rec.result.damaged() {
                    ok_damaged += 1;
                } else {
                    assert!(
                        is_prefix(&oracle, rec.store.entries()),
                        "case {case} ({kind:?}): SILENT divergence — report claims no \
                         damage but the state matches no prefix of the history"
                    );
                    ok_clean += 1;
                }
            }
            Err(_) => refused += 1, // typed refusal is fail-safe by definition
        }
    }

    // The campaign must actually exercise all three outcomes; a
    // mutation generator that never bites proves nothing.
    assert!(ok_clean > 0, "no mutation left a cleanly recoverable image");
    assert!(ok_damaged > 0, "no mutation raised the damage flag");
    assert!(refused > 0, "no mutation forced a typed refusal");
}

#[test]
fn duplicated_record_cannot_replay_at_the_wrong_offset() {
    // The record CRC binds the body offset: copying a valid record's
    // bytes over a *different* record of the same epoch must read as
    // corruption there (skipped with the damage flag, or truncated),
    // never as the copied operation replayed at the wrong point in
    // history.
    let layout = KvLayout::new(BASE, 1 << 12, 1 << 11).expect("layout");
    let mut mem = VecMem::new();
    let mut kv = KvStore::format(&mut mem, layout, 1 << 30).expect("format");
    let mut oracle = ShadowOracle::new();
    // Equal-length records so the splice is byte-exact.
    let ops = [
        KvOp::Put(b"aaaa".into(), b"1111".into()),
        KvOp::Put(b"bbbb".into(), b"2222".into()),
        KvOp::Put(b"cccc".into(), b"3333".into()),
    ];
    for (i, op) in ops.iter().enumerate() {
        match op {
            KvOp::Put(k, v) => kv.put(&mut mem, k, v).expect("put"),
            KvOp::Del(_) => unreachable!(),
        }
        oracle.record(op.clone(), (i + 1) as u64);
    }
    let rec_len = supermem_kv::wal::record_len(&ops[0]);
    assert!(ops
        .iter()
        .all(|o| supermem_kv::wal::record_len(o) == rec_len));

    // Splice record 0's bytes over record 1.
    let mut chunk = vec![0u8; rec_len as usize];
    mem.read(layout.wal_body_addr(), &mut chunk);
    mem.write(layout.wal_body_addr() + rec_len, &chunk);

    let opts = RecoveryOptions::default();
    let rec = recover(&mut mem, layout, &opts).expect("recovers around the splice");
    let replayed_alias = rec.store.get(b"bbbb").is_none() && rec.store.len() == 2;
    assert!(
        rec.result.damaged() || !replayed_alias || is_prefix(&oracle, rec.store.entries()),
        "spliced record replayed silently: {:?}",
        rec.result
    );
    // Concretely: the splice is mid-log damage — record 1 is skipped
    // (and counted), record 2 still replays.
    assert_eq!(rec.result.corrupt_entries_skipped, 1);
    assert_eq!(rec.result.records_replayed, 2);
    assert!(rec.result.damaged());
    assert_eq!(rec.store.get(b"aaaa"), Some(b"1111".as_slice()));
    assert_eq!(rec.store.get(b"bbbb"), None, "skipped, not aliased");
    assert_eq!(rec.store.get(b"cccc"), Some(b"3333".as_slice()));
}
