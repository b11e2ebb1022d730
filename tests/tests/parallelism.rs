//! Drain fast-path equivalence: `Config::fast_forward` is a host
//! execution knob, not a machine parameter, so statistics, payloads and
//! the raw event stream must be bit-identical to the tick-by-tick
//! reference behavior it skips.

use supermem::memctrl::ChannelSet;
use supermem::nvm::addr::LineAddr;
use supermem::sim::{Config, EventTape};
use supermem::Scheme;

/// Fast-forward vs tick-by-tick equivalence on an idle-heavy pattern:
/// bursts of flushes separated by long quiescent gaps, which is exactly
/// when the drain fast path skips work. Stats, payloads, and the event
/// stream must not change.
#[test]
fn fast_forward_matches_tick_by_tick_reference() {
    let drive = |fast_forward: bool| -> (supermem::sim::Stats, Vec<supermem::sim::Event>) {
        let cfg = Scheme::SuperMem
            .apply(Config::default())
            .with_channels(2)
            .with_fast_forward(fast_forward);
        let page = cfg.page_bytes;
        let mut set = ChannelSet::new(&cfg);
        set.attach_observer(Box::new(EventTape::default()));
        let mut t = 0u64;
        for burst in 0..12u64 {
            for i in 0..6u64 {
                let line = LineAddr((burst % 3) * page + i * 64);
                t = set.flush_line(line, [(burst * 7 + i) as u8; 64], t);
            }
            // A long idle gap: every queue is quiescent well before the
            // next burst, so the fast path skips the drain scans while
            // the reference build performs them (and issues nothing).
            t += 500_000;
            set.drain_until(t);
        }
        let done = set.finish(t);
        // Burst 9 is the last to target page 0; its i = 1 flush wrote
        // 9 * 7 + 1 = 64 to LineAddr(64).
        let (data, _) = set.read_line(LineAddr(64), done);
        assert_eq!(data[0], 64, "last burst's payload must be readable");
        let mut events = Vec::new();
        for mut obs in set.take_observers() {
            if let Some(tape) = obs.as_any_mut().downcast_mut::<EventTape>() {
                events = std::mem::take(tape).into_events();
            }
        }
        (set.stats().clone(), events)
    };
    let (fast_stats, fast_events) = drive(true);
    let (ref_stats, ref_events) = drive(false);
    assert_eq!(fast_stats, ref_stats);
    assert!(!fast_events.is_empty());
    assert_eq!(fast_events, ref_events);
}
