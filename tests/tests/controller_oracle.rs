//! Oracle-based property tests of the memory controller: under any
//! operation sequence and any scheme, the controller must behave as a
//! simple byte-addressable memory (the oracle is a HashMap), both
//! during execution and through a crash at the end.
//!
//! Deterministic randomized testing: a seeded SplitMix64 generates the
//! operation sequences (stands in for proptest, which is unavailable in
//! offline builds). Every case is reproducible from the fixed seeds.

use std::collections::HashMap;

use supermem::memctrl::MemoryController;
use supermem::nvm::addr::LineAddr;
use supermem::persist::{PMem, RecoveredMemory};
use supermem::scheme::FIGURE_SCHEMES;
use supermem::sim::Config;
use supermem_sim::SplitMix64;

#[derive(Debug, Clone)]
enum Op {
    /// Flush a line with the given fill byte.
    Flush { line: u64, fill: u8 },
    /// Read a line back.
    Read { line: u64 },
}

/// 24 lines across 3 pages: enough to exercise CWC, cc eviction, and
/// same-line reordering hazards without slowing the test down.
fn random_op(rng: &mut SplitMix64) -> Op {
    if rng.next_below(2) == 0 {
        Op::Flush {
            line: rng.next_below(24) * 64,
            fill: rng.next_u64() as u8,
        }
    } else {
        Op::Read {
            line: rng.next_below(24) * 64,
        }
    }
}

/// Live reads always return the newest flushed value; after a crash
/// the recovered image matches the oracle exactly.
#[test]
fn controller_matches_oracle() {
    let mut rng = SplitMix64::new(0x04AC1E);
    for _ in 0..48 {
        let scheme = FIGURE_SCHEMES[rng.next_below(FIGURE_SCHEMES.len() as u64) as usize];
        let ops: Vec<Op> = (0..rng.next_range(1, 120))
            .map(|_| random_op(&mut rng))
            .collect();
        let cfg = scheme.apply(Config::default());
        let mut mc = MemoryController::new(&cfg);
        let mut oracle: HashMap<u64, u8> = HashMap::new();
        let mut t = 0u64;
        for op in &ops {
            match op {
                Op::Flush { line, fill } => {
                    t = mc.flush_line(LineAddr(*line), [*fill; 64], t);
                    oracle.insert(*line, *fill);
                }
                Op::Read { line } => {
                    let (data, done) = mc.read_line(LineAddr(*line), t);
                    t = done;
                    if let Some(&fill) = oracle.get(line) {
                        assert_eq!(data, [fill; 64], "live read at {line:#x} under {scheme}");
                    }
                }
            }
        }
        // Everything flushed is durable: crash and decrypt.
        let mut rec = RecoveredMemory::from_machine_image_checked(&cfg, mc.crash_now().into())
            .expect("image recovers");
        for (&line, &fill) in &oracle {
            let mut buf = [0u8; 64];
            rec.read(line, &mut buf);
            assert_eq!(
                buf, [fill; 64],
                "post-crash read at {line:#x} under {scheme}"
            );
        }
    }
}

/// Hammering a single line across the minor-counter overflow keeps
/// both the hot line and a cold neighbor intact, live and post-crash.
#[test]
fn overflow_boundary_is_oracle_clean() {
    let mut rng = SplitMix64::new(0x0F10);
    for _ in 0..24 {
        let extra = rng.next_range(1, 40);
        let seed = rng.next_u64() as u8;
        let cfg = supermem::Scheme::SuperMem.apply(Config::default());
        let mut mc = MemoryController::new(&cfg);
        let mut t = mc.flush_line(LineAddr(64), [seed; 64], 0);
        let total = 127 + extra; // crosses exactly one re-encryption
        let mut last = 0u8;
        for i in 0..total {
            last = (i as u8).wrapping_add(seed);
            t = mc.flush_line(LineAddr(0), [last; 64], t);
        }
        let (data, done) = mc.read_line(LineAddr(0), t);
        assert_eq!(data, [last; 64]);
        let (data, _) = mc.read_line(LineAddr(64), done);
        assert_eq!(data, [seed; 64]);
        assert_eq!(mc.stats().pages_reencrypted, 1);

        let mut rec = RecoveredMemory::from_machine_image_checked(&cfg, mc.crash_now().into())
            .expect("image recovers");
        let mut buf = [0u8; 64];
        rec.read(0, &mut buf);
        assert_eq!(buf, [last; 64]);
        rec.read(64, &mut buf);
        assert_eq!(buf, [seed; 64]);
    }
}

/// Timing sanity under random traffic: retire cycles are meaningful
/// (monotone per line's visibility) and stats add up.
#[test]
fn stats_are_consistent() {
    let mut rng = SplitMix64::new(0x57A7);
    for _ in 0..48 {
        let ops: Vec<Op> = (0..rng.next_range(1, 80))
            .map(|_| random_op(&mut rng))
            .collect();
        let cfg = supermem::Scheme::SuperMem.apply(Config::default());
        let mut mc = MemoryController::new(&cfg);
        let mut t = 0u64;
        let mut flushes = 0u64;
        for op in &ops {
            match op {
                Op::Flush { line, fill } => {
                    t = mc.flush_line(LineAddr(*line), [*fill; 64], t);
                    flushes += 1;
                }
                Op::Read { line } => {
                    let (_, done) = mc.read_line(LineAddr(*line), t);
                    t = done;
                }
            }
        }
        mc.finish(t);
        let s = mc.stats();
        // Every flush lands exactly one data write; counter writes plus
        // coalesced merges account for the other half of each pair.
        assert_eq!(s.nvm_data_writes, flushes + 64 * s.pages_reencrypted);
        assert_eq!(s.nvm_counter_writes + s.counter_writes_coalesced, flushes);
        let bank_total: u64 = s.bank_writes.iter().sum();
        assert_eq!(bank_total, s.nvm_writes_total());
    }
}
