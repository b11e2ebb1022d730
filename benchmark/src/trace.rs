//! Host-side tracing from outside the simulator: the benchmark times its
//! own calls into each layer's public functions, keeps per-call
//! aggregates for every op and full spans for every 100th op, and writes
//! the spans as JSON lines when the run ends.
//!
//! Nothing here reaches into the simulator. [`Mem`] wraps a `System`
//! behind the same `PMem` interface the workloads already program
//! against; with no tracer attached it forwards each call after one
//! branch.

use std::any::Any;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

use supermem::persist::PMem;
use supermem::sim::{Event, Observer};
use supermem::System;

use crate::json::quote;

/// Every `SAMPLE_EVERY`-th op keeps its full span tree.
const SAMPLE_EVERY: u64 = 100;
/// Upper bound on spans held in memory for one run.
const SPAN_CAP: usize = 1 << 19;

/// The four `PMem` calls a workload makes into `System`.
#[derive(Debug, Clone, Copy)]
pub enum Call {
    Read,
    Write,
    Clwb,
    Sfence,
}

impl Call {
    fn name(self) -> &'static str {
        match self {
            Call::Read => "system.read",
            Call::Write => "system.write",
            Call::Clwb => "system.clwb",
            Call::Sfence => "system.sfence",
        }
    }
}

/// Calls made and host nanoseconds spent in them.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub calls: u64,
    pub ns: u64,
}

impl Agg {
    fn add(&mut self, ns: u64) {
        self.calls += 1;
        self.ns += ns;
    }

    /// Mean nanoseconds per call (0 when never called).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

#[derive(Debug)]
struct Span {
    op: Option<u64>,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug)]
struct OpInFlight {
    id: u64,
    name: &'static str,
    start: Instant,
    child_ns: u64,
    span: Option<u64>,
}

/// Per-layer host timings of one traced pass.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    fine: [Agg; 4],
    coarse: BTreeMap<&'static str, Agg>,
    ops: u64,
    op_ns: u64,
    op_child_ns: u64,
    cur: Option<OpInFlight>,
    spans: Vec<Span>,
    next_span: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            fine: [Agg::default(); 4],
            coarse: BTreeMap::new(),
            ops: 0,
            op_ns: 0,
            op_child_ns: 0,
            cur: None,
            spans: Vec::new(),
            next_span: 0,
        }
    }
}

fn ns_between(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a).as_nanos() as u64
}

impl Tracer {
    fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let sampled_op = self.cur.as_ref().map(|op| (op.id, op.span));
        let keep = match sampled_op {
            None => true,
            Some((_, span)) => span.is_some(),
        };
        if keep && self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                op: sampled_op.map(|(id, _)| id),
                id: self.next_span,
                parent: sampled_op.and_then(|(_, span)| span),
                name,
                start_ns: ns_between(self.epoch, start),
                end_ns: ns_between(self.epoch, end),
            });
            self.next_span += 1;
        }
    }

    /// Accounts one `PMem` call. Only calls inside an op count: set-up
    /// and verification traffic is charged to its enclosing coarse span.
    fn fine_call(&mut self, call: Call, start: Instant) {
        let end = Instant::now();
        let Some(op) = &mut self.cur else {
            return;
        };
        let ns = ns_between(start, end);
        op.child_ns += ns;
        self.fine[call as usize].add(ns);
        self.record(call.name(), start, end);
    }

    /// Runs `f` as a host span called `name` (a coarse call into one
    /// layer: a checkpoint, a recovery, a whole serving run).
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        self.coarse
            .entry(name)
            .or_default()
            .add(ns_between(start, end));
        self.record(name, start, end);
        r
    }

    /// Opens the span of one op; every `SAMPLE_EVERY`-th op keeps its
    /// calls as child spans.
    pub fn op_begin(&mut self, name: &'static str) {
        let id = self.ops;
        let span = (id.is_multiple_of(SAMPLE_EVERY) && self.spans.len() < SPAN_CAP).then(|| {
            self.next_span += 1;
            self.next_span - 1
        });
        self.cur = Some(OpInFlight {
            id,
            name,
            start: Instant::now(),
            child_ns: 0,
            span,
        });
    }

    /// Closes the op opened by [`Tracer::op_begin`].
    pub fn op_end(&mut self) {
        let end = Instant::now();
        let Some(op) = self.cur.take() else {
            return;
        };
        self.ops += 1;
        self.op_ns += ns_between(op.start, end);
        self.op_child_ns += op.child_ns;
        if let Some(id) = op.span {
            self.spans.push(Span {
                op: Some(op.id),
                id,
                parent: None,
                name: op.name,
                start_ns: ns_between(self.epoch, op.start),
                end_ns: ns_between(self.epoch, end),
            });
        }
    }

    /// Aggregate of one `PMem` call kind.
    pub fn fine(&self, call: Call) -> Agg {
        self.fine[call as usize]
    }

    /// Aggregate of a named coarse span (zeros if it never ran).
    pub fn coarse(&self, name: &str) -> Agg {
        self.coarse.get(name).copied().unwrap_or_default()
    }

    /// Ops closed so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Mean host microseconds per op spent outside the `System` calls
    /// the op made (its self time).
    pub fn op_self_us(&self) -> f64 {
        if self.ops == 0 {
            return 0.0;
        }
        self.op_ns.saturating_sub(self.op_child_ns) as f64 / self.ops as f64 / 1e3
    }

    /// Writes the spans, one JSON object per line.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: Option<u64>| v.map_or_else(|| "null".to_owned(), |v| v.to_string());
        for s in &self.spans {
            writeln!(
                out,
                "{{\"op\":{},\"id\":{},\"parent\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{}}}",
                opt(s.op),
                s.id,
                opt(s.parent),
                quote(s.name),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }

    /// Spans held for the span file.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }
}

/// Runs `f` inside a span when a tracer is present.
pub fn span<R>(tr: &mut Option<Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tr {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// A `System` seen through `PMem`, timing each call when traced.
#[derive(Debug)]
pub struct Mem {
    pub sys: System,
    pub tr: Option<Tracer>,
}

impl Mem {
    pub fn new(sys: System, tr: Option<Tracer>) -> Self {
        Self { sys, tr }
    }

    /// A coarse call on the machine, timed as a span when traced.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut System) -> R) -> R {
        let sys = &mut self.sys;
        span(&mut self.tr, name, || f(sys))
    }

    /// Runs one op: opens its span, runs `f`, closes it.
    pub fn op<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if let Some(t) = &mut self.tr {
            t.op_begin(name);
        }
        let r = f(self);
        if let Some(t) = &mut self.tr {
            t.op_end();
        }
        r
    }

    fn timed(&mut self, call: Call, f: impl FnOnce(&mut System)) {
        match &mut self.tr {
            None => f(&mut self.sys),
            Some(t) => {
                let start = Instant::now();
                f(&mut self.sys);
                t.fine_call(call, start);
            }
        }
    }
}

impl PMem for Mem {
    fn read(&mut self, addr: u64, buf: &mut [u8]) {
        self.timed(Call::Read, |s| s.read(addr, buf));
    }

    fn write(&mut self, addr: u64, bytes: &[u8]) {
        self.timed(Call::Write, |s| s.write(addr, bytes));
    }

    fn clwb(&mut self, addr: u64, len: u64) {
        self.timed(Call::Clwb, |s| s.clwb(addr, len));
    }

    fn sfence(&mut self) {
        self.timed(Call::Sfence, PMem::sfence);
    }
}

/// Counts every probe event: the per-op cost of the event stream.
#[derive(Debug, Clone, Default)]
pub struct EventCount(pub u64);

impl Observer for EventCount {
    fn on_event(&mut self, _ev: &Event) {
        self.0 += 1;
    }
    fn box_clone(&self) -> Box<dyn Observer> {
        Box::new(self.clone())
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Exact per-request latencies from `TxnCommit` events, as
/// `(arrival, latency)` in commit order. The serving engine's own log2
/// histogram folds p99 into p999 under load; this keeps every sample.
#[derive(Debug, Clone, Default)]
pub struct TxnLog(pub Vec<(u64, u64)>);

impl Observer for TxnLog {
    fn on_event(&mut self, ev: &Event) {
        if let Event::TxnCommit { start, end, .. } = *ev {
            self.0.push((start, end.saturating_sub(start)));
        }
    }
    fn box_clone(&self) -> Box<dyn Observer> {
        Box::new(self.clone())
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Takes the first observer of type `T` out of `observers`.
pub fn take_observer<T: Default + 'static>(observers: &mut [Box<dyn Observer>]) -> Option<T> {
    observers
        .iter_mut()
        .find_map(|o| o.as_any_mut().downcast_mut::<T>().map(std::mem::take))
}
