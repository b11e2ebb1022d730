//! Property-based integration tests: the timed secure system must be
//! byte-equivalent to the functional reference under arbitrary
//! operation sequences, for every scheme.
//!
//! Deterministic randomized testing: a seeded SplitMix64 generates the
//! operation sequences (stands in for proptest, which is unavailable in
//! offline builds). Every case is reproducible from the fixed seeds.

use supermem::persist::{PMem, RecoveredMemory, VecMem};
use supermem::scheme::FIGURE_SCHEMES;
use supermem::sim::Config;
use supermem::{Scheme, System};
use supermem_sim::SplitMix64;

#[derive(Debug, Clone)]
enum Op {
    Write { addr: u64, bytes: Vec<u8> },
    Read { addr: u64, len: usize },
    Clwb { addr: u64, len: u64 },
    Sfence,
}

fn random_op(rng: &mut SplitMix64) -> Op {
    let addr = rng.next_below(48 << 10);
    match rng.next_below(4) {
        0 => {
            let mut bytes = vec![0u8; rng.next_range(1, 150) as usize];
            rng.fill_bytes(&mut bytes);
            Op::Write { addr, bytes }
        }
        1 => Op::Read {
            addr,
            len: rng.next_range(1, 150) as usize,
        },
        2 => Op::Clwb {
            addr,
            len: rng.next_range(1, 150),
        },
        _ => Op::Sfence,
    }
}

#[test]
fn system_matches_functional_reference() {
    let mut rng = SplitMix64::new(0xF19A);
    for case in 0..16 {
        let scheme = FIGURE_SCHEMES[rng.next_below(FIGURE_SCHEMES.len() as u64) as usize];
        let ops: Vec<Op> = (0..rng.next_range(1, 80))
            .map(|_| random_op(&mut rng))
            .collect();
        let mut sys = System::new(scheme.apply(Config::default()));
        let mut reference = VecMem::new();
        // Both views start from "initialized zeros" over the exercised
        // range (uninitialized encrypted NVM reads as garbage by design).
        let zeros = vec![0u8; (48 << 10) + 256];
        sys.write(0, &zeros);
        reference.write(0, &zeros);
        for op in &ops {
            match op {
                Op::Write { addr, bytes } => {
                    sys.write(*addr, bytes);
                    reference.write(*addr, bytes);
                }
                Op::Read { addr, len } => {
                    let mut a = vec![0u8; *len];
                    let mut b = vec![0u8; *len];
                    sys.read(*addr, &mut a);
                    reference.read(*addr, &mut b);
                    assert_eq!(
                        a, b,
                        "case {case}: read divergence at {addr:#x} under {scheme}"
                    );
                }
                Op::Clwb { addr, len } => sys.clwb(*addr, *len),
                Op::Sfence => sys.sfence(),
            }
        }
    }
}

#[test]
fn checkpointed_state_always_recovers() {
    let mut rng = SplitMix64::new(0xC4EC);
    for case in 0..16 {
        // Whatever was written before a checkpoint must survive a crash
        // bit-for-bit, under the full SuperMem scheme.
        let writes: Vec<(u64, Vec<u8>)> = (0..rng.next_range(1, 30))
            .map(|_| {
                let mut bytes = vec![0u8; rng.next_range(1, 100) as usize];
                rng.fill_bytes(&mut bytes);
                (rng.next_below(16 << 10), bytes)
            })
            .collect();
        let mut sys = System::new(Scheme::SuperMem.apply(Config::default()));
        let mut reference = VecMem::new();
        for (addr, bytes) in &writes {
            sys.write(*addr, bytes);
            reference.write(*addr, bytes);
        }
        sys.checkpoint();
        let cfg = sys.config().clone();
        let mut rec = RecoveredMemory::from_machine_image_checked(&cfg, sys.machine_crash_now())
            .expect("image recovers");
        for (addr, bytes) in &writes {
            let mut got = vec![0u8; bytes.len()];
            let mut want = vec![0u8; bytes.len()];
            rec.read(*addr, &mut got);
            reference.read(*addr, &mut want);
            assert_eq!(got, want, "case {case}: divergence at {addr:#x}");
        }
    }
}

#[test]
fn clock_is_monotone() {
    let mut rng = SplitMix64::new(0xC10C);
    for _ in 0..16 {
        let ops: Vec<Op> = (0..rng.next_range(1, 60))
            .map(|_| random_op(&mut rng))
            .collect();
        let mut sys = System::new(Scheme::SuperMem.apply(Config::default()));
        let mut last = sys.now();
        for op in &ops {
            match op {
                Op::Write { addr, bytes } => sys.write(*addr, bytes),
                Op::Read { addr, len } => {
                    let mut buf = vec![0u8; *len];
                    sys.read(*addr, &mut buf);
                }
                Op::Clwb { addr, len } => sys.clwb(*addr, *len),
                Op::Sfence => sys.sfence(),
            }
            let now = sys.now();
            assert!(now >= last, "clock went backwards: {last} -> {now}");
            last = now;
        }
    }
}
