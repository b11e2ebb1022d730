//! The shadow oracle: an in-DRAM record of every acknowledged
//! operation, against which a recovered store is differentially
//! checked.
//!
//! Each acknowledged operation carries the machine-wide write-queue
//! append count observed when its WAL persist returned. A crash armed
//! at append `k` therefore has an exact durability frontier: every
//! operation acknowledged at or below `k` must survive recovery, the
//! one operation in flight across `k` may or may not, and nothing else
//! may appear. [`ShadowOracle::legal_at`] encodes that contract.

use supermem_sim::SplitMix64;

use crate::bytes::{KvBytes, KvMap};
use crate::wal::KvOp;

/// How a recovered state relates to the oracle at a crash point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Legality {
    /// Every operation issued before the crash point survived —
    /// including, possibly, the unacknowledged in-flight one.
    Committed,
    /// All acknowledged operations survived; the in-flight tail (and
    /// everything after the crash point) did not. Fine: it was never
    /// acknowledged.
    LostUnackedTail,
    /// Neither: acknowledged data is missing or alien data appeared.
    Illegal,
}

/// The acknowledged-operation history of one run.
#[derive(Debug, Clone, Default)]
pub struct ShadowOracle {
    ops: Vec<KvOp>,
    ack_appends: Vec<u64>,
}

impl ShadowOracle {
    /// An empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an acknowledged operation and the append count at which
    /// its persist completed.
    pub fn record(&mut self, op: KvOp, ack_append: u64) {
        self.ops.push(op);
        self.ack_appends.push(ack_append);
    }

    /// Operations recorded.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when no operations were recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The recorded operations.
    pub fn ops(&self) -> &[KvOp] {
        &self.ops
    }

    /// State after applying the first `n` operations.
    pub fn state_after(&self, n: usize) -> KvMap {
        let mut map = KvMap::new();
        for op in &self.ops[..n.min(self.ops.len())] {
            op.clone().apply(&mut map);
        }
        map
    }

    /// Number of operations acknowledged at or before append `point`.
    pub fn acked_before(&self, point: u64) -> usize {
        self.ack_appends.iter().filter(|&&a| a <= point).count()
    }

    /// Differential verdict for a recovered state at crash point
    /// `point` (see module docs for the durability frontier).
    pub fn legal_at(&self, point: u64, recovered: &KvMap) -> Legality {
        let acked = self.acked_before(point);
        // Prefer the larger match: "everything durable" beats "tail
        // lost" when both prefixes produce the same state.
        for n in [(acked + 1).min(self.ops.len()), acked] {
            if &self.state_after(n) == recovered {
                return if n == self.ops.len() {
                    Legality::Committed
                } else {
                    Legality::LostUnackedTail
                };
            }
        }
        Legality::Illegal
    }
}

/// The seeded operation stream the torture campaign and the property
/// tests share: `n` puts/deletes over a `keyspace`-key working set,
/// with values of 1..=`max_val` bytes. Fully determined by `seed`.
pub fn op_stream(seed: u64, n: u64, keyspace: u64, max_val: usize) -> Vec<KvOp> {
    let mut rng = SplitMix64::new(seed ^ 0x6b76_6f70); // "kvop"
    let mut out = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let key = KvBytes::from(&rng.next_below(keyspace.max(1)).to_le_bytes());
        if rng.next_below(4) == 0 {
            out.push(KvOp::Del(key));
        } else {
            let vlen = 1 + rng.next_below(max_val.max(1) as u64) as usize;
            let mut val = vec![0u8; vlen];
            rng.fill_bytes(&mut val);
            out.push(KvOp::Put(key, val.into()));
        }
    }
    out
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;

    fn oracle() -> ShadowOracle {
        let mut o = ShadowOracle::new();
        o.record(KvOp::Put(b"a".into(), b"1".into()), 2);
        o.record(KvOp::Put(b"b".into(), b"2".into()), 5);
        o.record(KvOp::Del(b"a".into()), 9);
        o
    }

    #[test]
    fn durability_frontier_counts_acks() {
        let o = oracle();
        assert_eq!(o.acked_before(1), 0);
        assert_eq!(o.acked_before(2), 1);
        assert_eq!(o.acked_before(8), 2);
        assert_eq!(o.acked_before(100), 3);
    }

    #[test]
    fn legality_verdicts() {
        let o = oracle();
        // Crash at append 5: first two ops acked; the delete in flight.
        assert_eq!(o.legal_at(5, &o.state_after(2)), Legality::LostUnackedTail);
        assert_eq!(o.legal_at(5, &o.state_after(3)), Legality::Committed);
        // Missing acked op "b": illegal.
        assert_eq!(o.legal_at(5, &o.state_after(1)), Legality::Illegal);
        // Alien data: illegal.
        let mut alien = o.state_after(2);
        alien.insert(b"zz".into(), b"?".into());
        assert_eq!(o.legal_at(5, &alien), Legality::Illegal);
        // Full run completed cleanly.
        assert_eq!(o.legal_at(9, &o.state_after(3)), Legality::Committed);
    }

    #[test]
    fn op_stream_is_deterministic_and_bounded() {
        let a = op_stream(7, 50, 12, 20);
        let b = op_stream(7, 50, 12, 20);
        assert_eq!(a, b);
        assert_ne!(a, op_stream(8, 50, 12, 20));
        assert!(a.iter().any(|o| matches!(o, KvOp::Del(_))));
        for op in &a {
            if let KvOp::Put(_, v) = op {
                assert!((1..=20).contains(&v.len()));
            }
        }
    }
}
