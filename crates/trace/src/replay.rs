//! Trace replay.

use supermem_persist::PMem;

use crate::event::TraceEvent;

/// Replays a trace into `mem`, discarding read data. Marker events are
/// skipped. After replay, `mem` holds exactly the bytes the recorded
/// program produced.
pub fn replay<M: PMem>(events: &[TraceEvent], mem: &mut M) {
    let mut scratch = Vec::new();
    for e in events {
        e.apply(mem, &mut scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TraceRecorder;
    use supermem_persist::VecMem;
    use supermem_sim::SplitMix64;

    #[test]
    fn replay_reproduces_final_contents() {
        // Record a pseudo-random op sequence, replay into a fresh
        // memory, and compare the exercised range byte for byte.
        let mut rng = SplitMix64::new(5);
        let mut original = VecMem::new();
        let trace = {
            let mut rec = TraceRecorder::new(&mut original);
            for _ in 0..200 {
                let addr = rng.next_below(4096);
                let len = 1 + rng.next_below(64) as usize;
                match rng.next_below(3) {
                    0 => {
                        let mut bytes = vec![0u8; len];
                        rng.fill_bytes(&mut bytes);
                        rec.write(addr, &bytes);
                    }
                    1 => {
                        let mut buf = vec![0u8; len];
                        rec.read(addr, &mut buf);
                    }
                    _ => {
                        rec.clwb(addr, len as u64);
                        rec.sfence();
                    }
                }
            }
            rec.into_trace()
        };
        let mut replayed = VecMem::new();
        replay(&trace, &mut replayed);
        let mut a = vec![0u8; 8192];
        let mut b = vec![0u8; 8192];
        original.read(0, &mut a);
        replayed.read(0, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn unbalanced_markers_are_tolerated() {
        let mut mem = VecMem::new();
        let trace = vec![
            TraceEvent::TxnEnd, // stray end
            TraceEvent::Write {
                addr: 0x40,
                bytes: vec![9],
            },
            TraceEvent::TxnBegin, // never closed
        ];
        replay(&trace, &mut mem);
        let mut b = [0u8; 1];
        mem.read(0x40, &mut b);
        assert_eq!(b, [9]);
    }
}
