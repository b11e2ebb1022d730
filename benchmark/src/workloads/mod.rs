//! The five workloads and the pass loop that times them.
//!
//! A workload is set up once per pass, then runs fixed-size batches of
//! ops. The first [`Workload::window_batches`] batches form the
//! *window*: its simulated outcome depends only on (code, seed), so two
//! commits, or a traced and an untraced pass, compare exactly. Host time
//! is taken per batch, over as many batches as the time budget allows.

mod crash_recover;
mod figure_grid;
mod serve_tail;
mod steady_read;
mod steady_write;

use std::time::Instant;

use supermem::sim::{Stats, Telemetry};
use supermem::System;

use crate::trace::{EventCount, Mem, Tracer};

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 5] = [
    "steady-write",
    "steady-read",
    "serve-tail",
    "crash-recover",
    "figure-grid",
];

/// Full size for measurement; tiny (about 1/1000 of the work) for the
/// smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

impl Size {
    fn pick<T>(self, full: T, tiny: T) -> T {
        match self {
            Size::Full => full,
            Size::Tiny => tiny,
        }
    }
}

/// The simulated outcome of a window or a whole pass. Observers and
/// timers never feed back into the model, so this repeats exactly for
/// a given (code, seed, size) whether or not the pass is traced.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Sim {
    /// Ops in the window.
    pub ops: u64,
    /// Simulated latency of each op that reached simulated memory.
    pub lat: Vec<u64>,
    /// Machine counters over the window (without `txn_latencies`).
    pub stats: Stats,
    /// Simulated cycles the window spans.
    pub cycles: u64,
    /// Workload-specific simulated metrics.
    pub extra: Vec<(&'static str, f64)>,
    /// Digest of the workload's visible results (op stream, final state).
    pub digest: u64,
}

impl Sim {
    /// Folds one machine's counters in, moving its latencies to `lat`.
    fn absorb(&mut self, mut stats: Stats) {
        self.lat.append(&mut stats.txn_latencies);
        self.stats.merge(&stats);
    }
}

/// What only observers see: event counts and the `Telemetry` figures
/// the per-layer metrics use, summed over every machine in the window.
#[derive(Debug, Clone, Default)]
pub struct Observed {
    pub events: u64,
    pub flushes: u64,
    pub counter_fetch_cycles: u64,
    pub crypto_cycles: u64,
    pub queue_admission_cycles: u64,
    pub sfence_stall_cycles: u64,
    pub wq_occupancy_max: usize,
    pub bank_busy_cycles: Vec<u64>,
}

impl Observed {
    fn add(&mut self, t: &Telemetry, events: u64) {
        let b = &t.breakdown;
        self.events += events;
        self.flushes += b.flushes;
        self.counter_fetch_cycles += b.counter_fetch_cycles;
        self.crypto_cycles += b.crypto_cycles;
        self.queue_admission_cycles += b.queue_admission_cycles;
        self.sfence_stall_cycles += b.sfence_stall_cycles;
        self.wq_occupancy_max = self.wq_occupancy_max.max(t.wq_occupancy.max);
        let banks = t.banks.banks();
        if self.bank_busy_cycles.len() < banks.len() {
            self.bank_busy_cycles.resize(banks.len(), 0);
        }
        for (sum, bank) in self.bank_busy_cycles.iter_mut().zip(banks) {
            *sum += bank.busy_cycles;
        }
    }
}

/// Attaches the traced pass's observers to a machine.
fn attach_observers(sys: &mut System) {
    sys.attach_observer(Box::new(Telemetry::default()));
    sys.attach_observer(Box::new(EventCount::default()));
}

/// Reads the traced pass's observers without detaching them for good.
fn observe(sys: &mut System, into: &mut Observed) {
    let mut observers = sys.take_observers();
    let tel = observers
        .iter_mut()
        .find_map(|o| o.as_any_mut().downcast_mut::<Telemetry>().cloned());
    let events = observers
        .iter_mut()
        .find_map(|o| o.as_any_mut().downcast_mut::<EventCount>().map(|e| e.0));
    for o in observers {
        sys.attach_observer(o);
    }
    if let Some(t) = tel {
        into.add(&t, events.unwrap_or(0));
    }
}

/// One batch's outcome.
#[derive(Debug, Clone, Copy, Default)]
pub struct Batch {
    pub ops: u64,
    pub failed: u64,
}

/// A workload [`run_pass`] can time.
pub trait Workload: Sized {
    /// Batches in the simulated window.
    fn window_batches(size: Size) -> u64;

    /// Builds the machine and the structures and warms them up. A
    /// `Some` tracer makes this the traced pass.
    fn setup(seed: u64, size: Size, tracer: Option<Tracer>) -> Result<Self, String>;

    /// Runs the next fixed batch of ops.
    fn batch(&mut self) -> Batch;

    /// The simulated outcome so far; called once, right after the last
    /// window batch.
    fn window(&mut self) -> (Sim, Observed);

    /// Ends the pass: drains the machine, checks every output, and
    /// returns the whole pass's simulated outcome and the tracer.
    fn finish(self) -> (Result<Sim, String>, Option<Tracer>);
}

/// How long a pass measures.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Batches until this many seconds have passed (and the window is
    /// complete).
    Seconds(f64),
    /// Exactly this many batches (at least the window).
    Batches(u64),
}

/// Everything one pass measured.
#[derive(Debug)]
pub struct Pass {
    /// Seconds each set-up took.
    pub setup_s: Vec<f64>,
    /// Ops per second of each batch.
    pub batch_rates: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Peak resident memory (MiB) when the window ended: set-up plus a
    /// fixed amount of work, whatever the time budget.
    pub peak_rss_mb: f64,
    pub window: Sim,
    pub observed: Observed,
    /// The whole pass's simulated outcome, or why its final check failed.
    pub fin: Result<Sim, String>,
    pub tracer: Option<Tracer>,
}

impl Pass {
    pub fn batches(&self) -> u64 {
        self.batch_rates.len() as u64
    }
}

/// Sets the workload up `setups` times (keeping the last), then runs
/// batches within `budget`.
pub fn run_pass<W: Workload>(
    seed: u64,
    size: Size,
    traced: bool,
    setups: u32,
    budget: Budget,
) -> Result<Pass, String> {
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..setups.max(1) {
        drop(state.take());
        let t0 = Instant::now();
        state = Some(W::setup(seed, size, traced.then(Tracer::default))?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut w = state.expect("at least one set-up ran");

    let window = W::window_batches(size);
    let mut batch_rates = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut snapshot = None;
    let mut peak_rss_mb = 0.0;
    let start = Instant::now();
    loop {
        let done = batch_rates.len() as u64;
        let more = match budget {
            Budget::Seconds(s) => done < window || start.elapsed().as_secs_f64() < s,
            Budget::Batches(n) => done < n.max(window),
        };
        if !more {
            break;
        }
        let t0 = Instant::now();
        let b = w.batch();
        batch_rates.push(b.ops as f64 / t0.elapsed().as_secs_f64());
        attempted += b.ops;
        failed += b.failed;
        if done + 1 == window {
            snapshot = Some(w.window());
            peak_rss_mb = crate::report::peak_rss_mb();
        }
    }
    let (window, observed) = snapshot.expect("the window always completes");
    let (fin, tracer) = w.finish();
    Ok(Pass {
        setup_s,
        batch_rates,
        attempted,
        failed,
        peak_rss_mb,
        window,
        observed,
        fin,
        tracer,
    })
}

/// Runs the named workload's pass; `None` for an unknown name.
pub fn run_named(
    name: &str,
    seed: u64,
    size: Size,
    traced: bool,
    setups: u32,
    budget: Budget,
) -> Option<Result<Pass, String>> {
    Some(match name {
        "steady-write" => run_pass::<steady_write::SteadyWrite>(seed, size, traced, setups, budget),
        "steady-read" => run_pass::<steady_read::SteadyRead>(seed, size, traced, setups, budget),
        "serve-tail" => run_pass::<serve_tail::ServeTail>(seed, size, traced, setups, budget),
        "crash-recover" => {
            run_pass::<crash_recover::CrashRecover>(seed, size, traced, setups, budget)
        }
        "figure-grid" => run_pass::<figure_grid::FigureGrid>(seed, size, traced, setups, budget),
        _ => return None,
    })
}

/// Machine counters plus the latencies and window span of a
/// single-machine workload.
fn machine_sim(sys: &System, ops: u64, start_cycle: u64) -> Sim {
    let mut sim = Sim {
        ops,
        cycles: sys.now() - start_cycle,
        ..Sim::default()
    };
    sim.absorb(sys.stats().clone());
    sim
}

/// The window of a single-machine workload.
fn machine_window(m: &mut Mem, ops: u64, start_cycle: u64) -> (Sim, Observed) {
    let sim = machine_sim(&m.sys, ops, start_cycle);
    let mut obs = Observed::default();
    observe(&mut m.sys, &mut obs);
    (sim, obs)
}

/// Ends a single-machine pass: drains the machine, takes its counters,
/// then verifies. Verifying last keeps the full-structure scan out of
/// the counters.
fn machine_finish(
    mut m: Mem,
    ops: u64,
    start_cycle: u64,
    verify: impl FnOnce(&mut System) -> Result<(), String>,
) -> (Result<Sim, String>, Option<Tracer>) {
    m.span("system.checkpoint", System::checkpoint);
    let sim = machine_sim(&m.sys, ops, start_cycle);
    let verdict = m.span("workloads.verify", verify);
    (verdict.map(|()| sim), m.tr.take())
}

/// SplitMix64's finalizer: decorrelates derived seeds and folds digests.
pub fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}
