//! Intra-run parallelism invariance: `run_threads` is a host execution
//! knob, not a machine parameter, so every observable output — `Stats`,
//! telemetry histograms, checker verdicts, and the raw event stream —
//! must be bit-identical at every thread count. The drain fast path
//! (`Config::fast_forward`) carries the same contract against its
//! tick-by-tick reference behavior.

use supermem::memctrl::ChannelSet;
use supermem::nvm::addr::LineAddr;
use supermem::sim::{Config, EventTape, SplitMix64};
use supermem::verify::check_run;
use supermem::workloads::spec::ALL_KINDS;
use supermem::workloads::{WorkloadKind, WorkloadSpec};
use supermem::{Experiment, Scheme};

/// Random (scheme, workload, seed, channels) picks drawn from a fixed
/// master seed: the machine (scheme preset, seed, channel count) and
/// the workload, seeded alike.
fn random_triples(master: u64, count: usize) -> Vec<(Scheme, Config, WorkloadSpec)> {
    const SCHEMES: [Scheme; 4] = [
        Scheme::SuperMem,
        Scheme::WriteThrough,
        Scheme::WtCwc,
        Scheme::Osiris,
    ];
    let mut rng = SplitMix64::new(master);
    (0..count)
        .map(|_| {
            let scheme = SCHEMES[rng.next_below(SCHEMES.len() as u64) as usize];
            let kind = ALL_KINDS[rng.next_below(ALL_KINDS.len() as u64) as usize];
            let seed = rng.next_u64();
            let cfg = scheme
                .apply(Config::default())
                .with_seed(seed)
                .with_channels(1 << (1 + rng.next_below(3))); // 2, 4, or 8
            let spec = WorkloadSpec::new(kind)
                .with_seed(seed)
                .with_txns(15)
                .with_req_bytes(256)
                .with_array_footprint(512 << 10);
            (scheme, cfg, spec)
        })
        .collect()
}

#[test]
fn run_threads_leave_stats_and_telemetry_identical() {
    for (scheme, cfg, spec) in random_triples(0x0015_57E6, 5) {
        let mut reference = None;
        for threads in [1usize, 2, 4] {
            let session = || {
                Experiment::new(cfg.clone().with_run_threads(threads), spec.clone())
                    .expect("valid config")
            };
            let r = session().run_single();
            let observed = session().observe().run();
            let telemetry_json = observed
                .telemetry
                .as_ref()
                .expect("observed run returns telemetry")
                .to_json(observed.total_cycles);
            match &reference {
                None => reference = Some((r.total_cycles, r.stats.clone(), telemetry_json)),
                Some((cycles, stats, json)) => {
                    let label = format!("{scheme} {} threads={threads}", spec.kind);
                    assert_eq!(r.total_cycles, *cycles, "{label}");
                    assert_eq!(&r.stats, stats, "{label}");
                    assert_eq!(&telemetry_json, json, "{label} telemetry");
                }
            }
        }
    }
}

#[test]
fn run_threads_leave_checker_verdicts_identical() {
    for (scheme, cfg, spec) in random_triples(0x00C4_EC12, 3) {
        let checked = |threads: usize| {
            let cfg = cfg.clone().with_run_threads(threads);
            check_run(Experiment::new(cfg, spec.clone()).expect("valid config"))
        };
        let base = checked(1);
        for threads in [2usize, 4] {
            let par = checked(threads);
            let label = format!("{scheme} {} threads={threads}", spec.kind);
            assert_eq!(par.is_clean(), base.is_clean(), "{label}");
            assert_eq!(par.events_seen, base.events_seen, "{label}");
            assert_eq!(par.violations.len(), base.violations.len(), "{label}");
        }
    }
}

/// The strongest form of the invariance claim: the *raw event stream*
/// (every probe event, in order) is byte-identical when sibling-channel
/// drains run on worker threads and replay through their tapes.
#[test]
fn run_threads_leave_event_stream_identical() {
    let cfg = Scheme::SuperMem
        .apply(Config::default())
        .with_seed(1)
        .with_channels(4);
    let spec = WorkloadSpec::new(WorkloadKind::Queue)
        .with_txns(12)
        .with_req_bytes(256);
    let tape_of = |threads: usize| -> Vec<supermem::sim::Event> {
        let mut exp = Experiment::new(cfg.clone().with_run_threads(threads), spec.clone())
            .expect("valid config")
            .observe_with(Box::new(EventTape::default()));
        exp.run();
        for mut obs in exp.take_observers() {
            if let Some(tape) = obs.as_any_mut().downcast_mut::<EventTape>() {
                return std::mem::take(tape).into_events();
            }
        }
        unreachable!("the attached EventTape must come back from the run")
    };
    let seq = tape_of(1);
    assert!(!seq.is_empty(), "the run must emit events");
    for threads in [2usize, 4] {
        let par = tape_of(threads);
        assert_eq!(par.len(), seq.len(), "threads={threads}");
        assert_eq!(par, seq, "threads={threads}");
    }
}

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
