//! Probe/observer layer: fine-grained event stream from the simulated
//! memory system, plus reusable collectors.
//!
//! The memory controller emits [`Event`]s into a [`Probes`] hub. With no
//! observer attached the hub is a single empty-`Vec` branch on the hot path
//! and the event payload is never even constructed (emission sites pass a
//! closure). Attaching an [`Observer`] — typically the batteries-included
//! [`Telemetry`] collector — turns the stream on without perturbing the
//! simulation: observers see events, they never feed back into timing.
//!
//! # Examples
//!
//! ```
//! use supermem_sim::probe::{Event, Log2Histogram, Observer, Probes};
//!
//! /// Counts write-queue enqueues and histograms the queue occupancy.
//! #[derive(Debug, Default, Clone)]
//! struct EnqueueWatcher {
//!     enqueues: u64,
//!     occupancy: Log2Histogram,
//! }
//!
//! impl Observer for EnqueueWatcher {
//!     fn on_event(&mut self, ev: &Event) {
//!         if let Event::WqEnqueue { occupancy, .. } = ev {
//!             self.enqueues += 1;
//!             self.occupancy.record(*occupancy as u64);
//!         }
//!     }
//!     fn box_clone(&self) -> Box<dyn Observer> {
//!         Box::new(self.clone())
//!     }
//!     fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
//!         self
//!     }
//! }
//!
//! let mut probes = Probes::default();
//! probes.attach(Box::new(EnqueueWatcher::default()));
//! probes.emit_with(|| Event::WqEnqueue {
//!     counter: false,
//!     addr: 0x40,
//!     seq: 1,
//!     bank: 0,
//!     at: 10,
//!     occupancy: 1,
//! });
//! ```

use crate::time::Cycle;
use std::any::Any;
use std::fmt;

/// One fine-grained occurrence inside the simulated memory system.
///
/// Variants carry only plain data (cycles, indices, line addresses) so the
/// event stream stays decoupled from controller internals. All cycle values
/// are absolute simulation time.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Event {
    /// A data or counter line entered the ADR-protected write queue.
    WqEnqueue {
        /// `true` for a counter line, `false` for a data line.
        counter: bool,
        /// Line address for data entries; page id for counter entries.
        addr: u64,
        /// Queue sequence number assigned to the entry (monotonic).
        seq: u64,
        /// Destination bank.
        bank: usize,
        /// Cycle at which the entry was appended.
        at: Cycle,
        /// Queue occupancy (entries) immediately after the append.
        occupancy: usize,
    },
    /// A queued line was issued to its NVM bank (left the write queue).
    WqIssue {
        /// `true` for a counter line, `false` for a data line.
        counter: bool,
        /// Line address for data entries; page id for counter entries.
        addr: u64,
        /// Queue sequence number of the departing entry.
        seq: u64,
        /// Destination bank.
        bank: usize,
        /// Cycle at which the entry became eligible to issue.
        ready: Cycle,
        /// Cycle at which the bank actually started servicing it.
        start: Cycle,
        /// Queue occupancy (entries) immediately after the removal.
        occupancy: usize,
    },
    /// Counter write coalescing absorbed a counter write into an entry
    /// already queued for the same counter line.
    WqCoalesce {
        /// Counter page whose queued counter line absorbed the write.
        page: u64,
        /// Queue sequence number of the removed (victim) entry.
        victim_seq: u64,
        /// Cycle of the coalesced (dropped) append.
        at: Cycle,
    },
    /// The 2-line staging register latched a data+counter pair for an
    /// atomic write-queue append (paper Figure 7, `Sto` step). The next
    /// two enqueues must be exactly this pair, at this cycle.
    RegisterStage {
        /// Data line held in the register.
        line: u64,
        /// Counter page paired with the line.
        page: u64,
        /// Cycle the pair leaves the register for the queue.
        at: Cycle,
    },
    /// The write queue was full; the producer stalled waiting for slots.
    WqStall {
        /// Number of free slots the producer needed.
        needed: usize,
        /// Cycle the producer started waiting.
        from: Cycle,
        /// Cycle enough slots became free.
        until: Cycle,
    },
    /// An NVM bank serviced one operation (busy interval).
    BankBusy {
        /// Bank index.
        bank: usize,
        /// First busy cycle.
        start: Cycle,
        /// Cycle the operation completed (exclusive end of interval).
        end: Cycle,
        /// `true` for a write service, `false` for a read.
        write: bool,
    },
    /// The write-through counter cache hit.
    CounterCacheHit {
        /// Counter page that hit.
        page: u64,
        /// Cycle of the lookup.
        at: Cycle,
    },
    /// The write-through counter cache missed (counter fetched from NVM).
    CounterCacheMiss {
        /// Counter page that missed.
        page: u64,
        /// Cycle of the lookup.
        at: Cycle,
    },
    /// An `sfence` retired on a core.
    SfenceRetire {
        /// Core index.
        core: usize,
        /// Cycle the fence retired.
        at: Cycle,
        /// Cycles the core stalled waiting for pending persists (0 if none).
        stall: Cycle,
    },
    /// Minor-counter overflow triggered a page re-encryption.
    ReencryptStart {
        /// Data page being re-encrypted.
        page: u64,
        /// Cycle re-encryption began.
        at: Cycle,
    },
    /// A page re-encryption finished rewriting all its lines.
    ReencryptDone {
        /// Data page that was re-encrypted.
        page: u64,
        /// Number of cache lines rewritten.
        lines: u32,
        /// Cycle the rewrite loop completed.
        at: Cycle,
    },
    /// One line's done-bit was set in the re-encryption status register
    /// (its rewrite entered the ADR domain; a crash now replays only the
    /// remaining lines).
    RsrMarkDone {
        /// Data page being re-encrypted.
        page: u64,
        /// Index of the line within the page whose bit was set.
        idx: u32,
        /// Cycle the rewrite was appended (bit set at the same instant).
        at: Cycle,
    },
    /// The re-encryption status register for a page was retired (all lines
    /// confirmed re-encrypted, RSR slot freed; the resume point after a
    /// crash lands here once recovery completes the page).
    RsrRetired {
        /// Data page whose RSR entry was freed.
        page: u64,
        /// Cycle the RSR entry was released.
        at: Cycle,
    },
    /// One persisted cache-line flush retired, with per-phase timestamps.
    ///
    /// Phases are monotonically ordered: `issued <= counter_ready <=
    /// encrypted <= retired`. `counter_ready - issued` is counter fetch
    /// (cache lookup, NVM counter read, any re-encryption drain),
    /// `encrypted - counter_ready` is crypto (AES pad + register), and
    /// `retired - encrypted` is write-queue admission (slot wait).
    FlushRetired {
        /// Line address being flushed.
        line: u64,
        /// Cycle the flush was issued by the core.
        issued: Cycle,
        /// Cycle the encryption counter was available.
        counter_ready: Cycle,
        /// Cycle the ciphertext was ready.
        encrypted: Cycle,
        /// Cycle the line was accepted into the ADR write queue.
        retired: Cycle,
    },
    /// One memory read was serviced end-to-end.
    ReadServed {
        /// Line address read.
        line: u64,
        /// Cycle the read was issued.
        issued: Cycle,
        /// Cycle data was available.
        done: Cycle,
        /// `true` if data was forwarded from the write queue.
        forwarded: bool,
    },
    /// A transaction committed on a core.
    TxnCommit {
        /// Core index.
        core: usize,
        /// Cycle the transaction began.
        start: Cycle,
        /// Cycle the transaction committed.
        end: Cycle,
    },
    /// A counter write armed a leaf update in the streaming
    /// integrity-tree pending cache (it has not yet reached any
    /// persisted ancestor).
    TreeArm {
        /// Page whose counter line was armed.
        page: u64,
        /// Cycle of the arming.
        at: Cycle,
    },
    /// One armed leaf update was propagated to the root (eviction,
    /// fence, or shutdown flush).
    TreePropagate {
        /// Page whose pending update was folded into the tree.
        page: u64,
        /// Cycle of the propagation.
        at: Cycle,
    },
    /// A propagated node-group line at a strictly-persisted tree level
    /// entered the ADR write queue as first-class write traffic.
    TreeNodeEnqueue {
        /// Digest-array level of the node group (0 = leaf digests).
        level: u32,
        /// Tree-region line id (`level << 32 | group`).
        line: u64,
        /// Queue sequence number assigned to the entry.
        seq: u64,
        /// Cycle at which the entry was appended.
        at: Cycle,
    },
    /// The on-chip root register latched a new value (exactly one per
    /// propagated leaf).
    TreeRootUpdate {
        /// Cycle the root was latched.
        at: Cycle,
    },
}

/// A sink for simulator [`Event`]s.
///
/// Implementations must be pure observers: they may accumulate state but
/// must not influence the simulation (the controller never reads anything
/// back from them). `box_clone`/`as_any_mut` are boilerplate required
/// because the memory controller itself is `Clone` and collectors are
/// retrieved by downcast; see the module-level example for the two-line
/// implementations.
pub trait Observer: fmt::Debug + 'static {
    /// Called once per emitted event, in simulation order.
    fn on_event(&mut self, ev: &Event);
    /// Clone this observer behind a fresh box ([`Probes`] is `Clone`).
    fn box_clone(&self) -> Box<dyn Observer>;
    /// Downcast support for retrieving concrete collectors after a run.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl Clone for Box<dyn Observer> {
    fn clone(&self) -> Self {
        self.box_clone()
    }
}

/// Hub the memory controller emits events into.
///
/// Default-constructed with no observers, in which case [`Probes::emit_with`]
/// is a single branch and the event closure is never invoked — the hot path
/// is unchanged.
#[derive(Debug, Default, Clone)]
pub struct Probes {
    observers: Vec<Box<dyn Observer>>,
}

impl Probes {
    /// Attach an observer; it receives every event emitted from now on.
    pub fn attach(&mut self, obs: Box<dyn Observer>) {
        self.observers.push(obs);
    }

    /// Detach and return all observers.
    pub fn take(&mut self) -> Vec<Box<dyn Observer>> {
        std::mem::take(&mut self.observers)
    }

    /// Emit an event, constructing it lazily.
    ///
    /// The closure runs only when at least one observer is attached, so
    /// emission sites can compute event payloads for free in the common
    /// unobserved case.
    #[inline]
    pub fn emit_with(&mut self, make: impl FnOnce() -> Event) {
        if self.observers.is_empty() {
            return;
        }
        let ev = make();
        for obs in &mut self.observers {
            obs.on_event(&ev);
        }
    }
}

/// An observer that records every event verbatim, in emission order,
/// for tests and tools that assert on exact event sequences.
///
/// # Examples
///
/// ```
/// use supermem_sim::probe::{Event, EventTape, Probes};
///
/// let mut probes = Probes::default();
/// probes.attach(Box::new(EventTape::default()));
/// probes.emit_with(|| Event::SfenceRetire { core: 0, at: 7, stall: 0 });
/// let tape: Box<EventTape> = probes
///     .take()
///     .remove(0)
///     .as_any_mut()
///     .downcast_mut::<EventTape>()
///     .map(std::mem::take)
///     .map(Box::new)
///     .expect("tape observer");
/// assert_eq!(tape.events().len(), 1);
/// ```
#[derive(Debug, Default, Clone)]
pub struct EventTape {
    events: Vec<Event>,
}

impl EventTape {
    /// The recorded events, in emission order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Consumes the tape, returning the recorded events.
    pub fn into_events(self) -> Vec<Event> {
        self.events
    }
}

impl Observer for EventTape {
    fn on_event(&mut self, ev: &Event) {
        self.events.push(ev.clone());
    }
    fn box_clone(&self) -> Box<dyn Observer> {
        Box::new(self.clone())
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Power-of-two latency histogram with 65 buckets.
///
/// Bucket 0 counts the value 0; bucket `i >= 1` counts values in
/// `[2^(i-1), 2^i)`. Also tracks exact `count`, `sum`, and `max` so
/// aggregate reconciliation against [`crate::Stats`] is lossless.
///
/// # Examples
///
/// ```
/// use supermem_sim::probe::Log2Histogram;
///
/// let mut h = Log2Histogram::default();
/// h.record(0);
/// h.record(5);
/// h.record(5);
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.sum(), 10);
/// assert_eq!(h.buckets()[0], 1); // the zero
/// assert_eq!(h.buckets()[3], 2); // 5 is in [4, 8)
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

// Buckets are summarized rather than dumped; the raw array is noise.
#[allow(clippy::missing_fields_in_debug)]
impl fmt::Debug for Log2Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Log2Histogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("max", &self.max)
            .finish()
    }
}

impl Log2Histogram {
    /// Record one value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let idx = if value == 0 {
            0
        } else {
            value.ilog2() as usize + 1
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (exact until it saturates at `u64::MAX`,
    /// unreachable for realistic latency streams).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// All 65 buckets; bucket 0 is the value 0, bucket `i` covers
    /// `[2^(i-1), 2^i)`.
    pub fn buckets(&self) -> &[u64; 65] {
        &self.buckets
    }

    /// Inclusive lower bound of bucket `idx`.
    fn bucket_lo(idx: usize) -> u64 {
        if idx == 0 {
            0
        } else {
            1u64 << (idx - 1)
        }
    }

    /// `(lo, count)` for each non-empty bucket, in increasing order.
    pub fn nonzero(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_lo(i), c))
    }

    /// The `q`-th percentile (`0.0..=100.0`) of the recorded values:
    /// nearest rank, linearly interpolated toward the *upper* edge of
    /// the matched power-of-two bucket (conservative for tails), and
    /// clamped to the exact observed [`max`] — so the top rank always
    /// reports the true maximum.
    ///
    /// Deterministic: integer arithmetic over the bucket counts, so the
    /// same histogram always reports the same percentile. Returns 0 for
    /// an empty histogram.
    ///
    /// [`max`]: Log2Histogram::max
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 100.0);
        // Nearest rank, 1-based: the smallest rank covering q percent.
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let rank = ((q / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let lo = Self::bucket_lo(i);
                let width = lo; // bucket i >= 1 spans [lo, 2*lo); bucket 0 is {0}
                let k = rank - seen; // 1-based position inside the bucket
                let interp = (u128::from(width) * u128::from(k) / u128::from(c)) as u64;
                // Saturating: in the top bucket `lo + width` is 2^64;
                // the max clamp below restores the right answer.
                return lo.saturating_add(interp).min(self.max);
            }
            seen += c;
        }
        self.max
    }

    /// Median latency (50th percentile).
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// Tail latency: 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// Extreme tail latency: 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.percentile(99.9)
    }

    /// Render the histogram as a self-contained JSON object: exact
    /// aggregates, the percentile summary, and the non-empty buckets.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        s.push_str(&format!(
            "\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p99\":{},\"p999\":{},\"buckets\":[",
            self.count,
            self.sum,
            self.max,
            self.p50(),
            self.p99(),
            self.p999()
        ));
        let mut first = true;
        for (lo, c) in self.nonzero() {
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!("{{\"lo\":{lo},\"count\":{c}}}"));
        }
        s.push_str("]}");
        s
    }
}

/// Write-queue occupancy time series.
///
/// Samples occupancy at every enqueue and issue. Aggregates (`samples`,
/// `max`, histogram) are always exact; the raw `(cycle, occupancy)` series
/// is retained up to a fixed cap so long runs stay bounded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OccupancySeries {
    /// Number of enqueue-side samples (equals lines accepted into the queue).
    pub enqueues: u64,
    /// Number of issue-side samples (equals lines drained to banks).
    pub issues: u64,
    /// Maximum observed occupancy.
    pub max: usize,
    /// Log2 histogram over sampled occupancy values.
    pub histogram: Log2Histogram,
    series: Vec<(Cycle, usize)>,
}

/// Cap on the retained raw occupancy series (aggregates are unaffected).
const OCCUPANCY_SERIES_CAP: usize = 1 << 20;

impl OccupancySeries {
    fn sample(&mut self, at: Cycle, occupancy: usize, enqueue: bool) {
        if enqueue {
            self.enqueues += 1;
        } else {
            self.issues += 1;
        }
        self.max = self.max.max(occupancy);
        self.histogram.record(occupancy as u64);
        if self.series.len() < OCCUPANCY_SERIES_CAP {
            self.series.push((at, occupancy));
        }
    }

    /// Raw `(cycle, occupancy)` samples, in simulation order (capped).
    pub fn series(&self) -> &[(Cycle, usize)] {
        &self.series
    }

    /// Total samples taken (enqueue-side plus issue-side).
    pub fn samples(&self) -> u64 {
        self.enqueues + self.issues
    }
}

/// Per-bank service activity accumulated from [`Event::BankBusy`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BankActivity {
    /// Read operations serviced.
    pub reads: u64,
    /// Write operations serviced.
    pub writes: u64,
    /// Total busy cycles (sum of service intervals).
    pub busy_cycles: u64,
    /// Last cycle at which this bank finished an operation.
    pub last_end: Cycle,
}

/// Per-bank utilization collector.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BankUtilization {
    banks: Vec<BankActivity>,
}

impl BankUtilization {
    fn record(&mut self, bank: usize, start: Cycle, end: Cycle, write: bool) {
        if bank >= self.banks.len() {
            self.banks.resize(bank + 1, BankActivity::default());
        }
        let b = &mut self.banks[bank];
        if write {
            b.writes += 1;
        } else {
            b.reads += 1;
        }
        b.busy_cycles += end.saturating_sub(start);
        b.last_end = b.last_end.max(end);
    }

    /// Activity per bank, indexed by bank id.
    pub fn banks(&self) -> &[BankActivity] {
        &self.banks
    }

    /// Busy fraction of `total_cycles` for bank `bank` (0.0 when unknown).
    pub fn utilization(&self, bank: usize, total_cycles: u64) -> f64 {
        if total_cycles == 0 || bank >= self.banks.len() {
            return 0.0;
        }
        self.banks[bank].busy_cycles as f64 / total_cycles as f64
    }
}

/// Where cycles went, summed over every observed flush/read/stall.
///
/// The three flush phases partition each persisted line's latency:
/// `counter_fetch_cycles` (counter cache lookup, NVM counter reads,
/// re-encryption drains), `crypto_cycles` (AES pad + register), and
/// `queue_admission_cycles` (waiting for a free ADR write-queue slot).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyBreakdown {
    /// Flush cycles spent making the encryption counter available.
    pub counter_fetch_cycles: u64,
    /// Flush cycles spent on AES pad generation and the OTP register.
    pub crypto_cycles: u64,
    /// Flush cycles spent waiting for write-queue admission.
    pub queue_admission_cycles: u64,
    /// Persisted line flushes observed.
    pub flushes: u64,
    /// Memory reads observed.
    pub reads: u64,
    /// Reads satisfied by write-queue forwarding.
    pub read_forwards: u64,
    /// Total read service cycles (issue to data-ready).
    pub read_cycles: u64,
    /// Data lines issued from the write queue to banks.
    pub data_writes_issued: u64,
    /// Counter lines issued from the write queue to banks.
    pub counter_writes_issued: u64,
    /// Counter writes absorbed by coalescing.
    pub coalesced: u64,
    /// Producer stalls on a full write queue.
    pub wq_stalls: u64,
    /// Cycles spent stalled on a full write queue.
    pub wq_stall_cycles: u64,
    /// Counter-cache hits observed.
    pub counter_cache_hits: u64,
    /// Counter-cache misses observed.
    pub counter_cache_misses: u64,
    /// Sfences retired.
    pub sfences: u64,
    /// Cycles cores stalled in `sfence` waiting for pending persists.
    pub sfence_stall_cycles: u64,
    /// Page re-encryptions started.
    pub reencryptions: u64,
    /// Transactions committed.
    pub txns: u64,
    /// Total transaction cycles (sum of commit - begin).
    pub txn_cycles: u64,
}

/// Batteries-included collector aggregating the full event stream.
///
/// Attach via `Experiment::observe()` (in `supermem`) or directly with
/// [`Probes::attach`]; retrieve after the run and read the histograms and
/// the [`LatencyBreakdown`].
///
/// # Examples
///
/// ```
/// use supermem_sim::probe::{Event, Observer, Telemetry};
///
/// let mut t = Telemetry::default();
/// t.on_event(&Event::TxnCommit { core: 0, start: 100, end: 250 });
/// assert_eq!(t.txn_latency.count(), 1);
/// assert_eq!(t.txn_latency.sum(), 150);
/// assert_eq!(t.breakdown.txns, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// Cycle-attribution totals.
    pub breakdown: LatencyBreakdown,
    /// Per-transaction latency histogram (commit - begin).
    pub txn_latency: Log2Histogram,
    /// Per-flush end-to-end latency histogram (issue to WQ admission).
    pub flush_latency: Log2Histogram,
    /// Per-read service latency histogram.
    pub read_latency: Log2Histogram,
    /// Write-queue occupancy time series.
    pub wq_occupancy: OccupancySeries,
    /// Per-bank busy accounting.
    pub banks: BankUtilization,
    /// Per-core transaction latency histograms, indexed by the issuing
    /// core of each [`Event::TxnCommit`] (grown on demand).
    pub per_core_txn: Vec<Log2Histogram>,
}

impl Observer for Telemetry {
    fn on_event(&mut self, ev: &Event) {
        let b = &mut self.breakdown;
        match *ev {
            Event::WqEnqueue { at, occupancy, .. } => {
                self.wq_occupancy.sample(at, occupancy, true);
            }
            Event::WqIssue {
                counter,
                start,
                occupancy,
                ..
            } => {
                if counter {
                    b.counter_writes_issued += 1;
                } else {
                    b.data_writes_issued += 1;
                }
                self.wq_occupancy.sample(start, occupancy, false);
            }
            Event::WqCoalesce { .. } => b.coalesced += 1,
            Event::WqStall { from, until, .. } => {
                b.wq_stalls += 1;
                b.wq_stall_cycles += until.saturating_sub(from);
            }
            Event::BankBusy {
                bank,
                start,
                end,
                write,
            } => {
                self.banks.record(bank, start, end, write);
            }
            Event::CounterCacheHit { .. } => b.counter_cache_hits += 1,
            Event::CounterCacheMiss { .. } => b.counter_cache_misses += 1,
            Event::SfenceRetire { stall, .. } => {
                b.sfences += 1;
                b.sfence_stall_cycles += stall;
            }
            Event::ReencryptStart { .. } => b.reencryptions += 1,
            Event::ReencryptDone { .. }
            | Event::RsrRetired { .. }
            | Event::RsrMarkDone { .. }
            | Event::RegisterStage { .. }
            | Event::TreeArm { .. }
            | Event::TreePropagate { .. }
            | Event::TreeNodeEnqueue { .. }
            | Event::TreeRootUpdate { .. } => {}
            Event::FlushRetired {
                issued,
                counter_ready,
                encrypted,
                retired,
                ..
            } => {
                b.flushes += 1;
                b.counter_fetch_cycles += counter_ready.saturating_sub(issued);
                b.crypto_cycles += encrypted.saturating_sub(counter_ready);
                b.queue_admission_cycles += retired.saturating_sub(encrypted);
                self.flush_latency.record(retired.saturating_sub(issued));
            }
            Event::ReadServed {
                issued,
                done,
                forwarded,
                ..
            } => {
                b.reads += 1;
                if forwarded {
                    b.read_forwards += 1;
                }
                b.read_cycles += done.saturating_sub(issued);
                self.read_latency.record(done.saturating_sub(issued));
            }
            Event::TxnCommit { core, start, end } => {
                b.txns += 1;
                b.txn_cycles += end.saturating_sub(start);
                self.txn_latency.record(end.saturating_sub(start));
                if core >= self.per_core_txn.len() {
                    self.per_core_txn.resize(core + 1, Log2Histogram::default());
                }
                self.per_core_txn[core].record(end.saturating_sub(start));
            }
        }
    }

    fn box_clone(&self) -> Box<dyn Observer> {
        Box::new(self.clone())
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl Telemetry {
    /// Render the collected telemetry as a self-contained JSON object.
    ///
    /// `total_cycles` scales the per-bank utilization figures; pass the
    /// run's end-to-end cycle count.
    pub fn to_json(&self, total_cycles: u64) -> String {
        let b = &self.breakdown;
        let mut s = String::from("{");
        s.push_str(&format!("\"total_cycles\":{total_cycles},"));
        s.push_str(&format!(
            "\"breakdown\":{{\"counter_fetch_cycles\":{},\"crypto_cycles\":{},\
             \"queue_admission_cycles\":{},\"flushes\":{},\"reads\":{},\
             \"read_forwards\":{},\"read_cycles\":{},\"data_writes_issued\":{},\
             \"counter_writes_issued\":{},\"coalesced\":{},\"wq_stalls\":{},\
             \"wq_stall_cycles\":{},\"counter_cache_hits\":{},\
             \"counter_cache_misses\":{},\"sfences\":{},\"sfence_stall_cycles\":{},\
             \"reencryptions\":{},\"txns\":{},\"txn_cycles\":{}}},",
            b.counter_fetch_cycles,
            b.crypto_cycles,
            b.queue_admission_cycles,
            b.flushes,
            b.reads,
            b.read_forwards,
            b.read_cycles,
            b.data_writes_issued,
            b.counter_writes_issued,
            b.coalesced,
            b.wq_stalls,
            b.wq_stall_cycles,
            b.counter_cache_hits,
            b.counter_cache_misses,
            b.sfences,
            b.sfence_stall_cycles,
            b.reencryptions,
            b.txns,
            b.txn_cycles,
        ));
        s.push_str(&format!(
            "\"histograms\":{{\"txn_latency\":{},\"flush_latency\":{},\"read_latency\":{}}},",
            self.txn_latency.to_json(),
            self.flush_latency.to_json(),
            self.read_latency.to_json()
        ));
        s.push_str(&format!(
            "\"wq_occupancy\":{{\"enqueues\":{},\"issues\":{},\"max\":{},\"mean\":{:.3},\"histogram\":{}}},",
            self.wq_occupancy.enqueues,
            self.wq_occupancy.issues,
            self.wq_occupancy.max,
            self.wq_occupancy.histogram.mean(),
            self.wq_occupancy.histogram.to_json()
        ));
        s.push_str("\"per_core_txn\":[");
        for (i, h) in self.per_core_txn.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&h.to_json());
        }
        s.push_str("],");
        s.push_str("\"banks\":[");
        for (i, bank) in self.banks.banks().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"bank\":{},\"reads\":{},\"writes\":{},\"busy_cycles\":{},\"utilization\":{:.4}}}",
                i,
                bank.reads,
                bank.writes,
                bank.busy_cycles,
                self.banks.utilization(i, total_cycles)
            ));
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_aggregates() {
        let mut h = Log2Histogram::default();
        for v in [0u64, 1, 1, 2, 3, 4, 7, 8, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 9);
        assert_eq!(h.sum(), 1050);
        assert_eq!(h.max(), 1024);
        assert_eq!(h.buckets()[0], 1); // 0
        assert_eq!(h.buckets()[1], 2); // 1
        assert_eq!(h.buckets()[2], 2); // 2..4
        assert_eq!(h.buckets()[3], 2); // 4..8
        assert_eq!(h.buckets()[4], 1); // 8..16
        assert_eq!(h.buckets()[11], 1); // 1024..2048
        assert_eq!(Log2Histogram::bucket_lo(11), 1024);
    }

    #[test]
    fn emit_with_is_lazy_when_unobserved() {
        let mut probes = Probes::default();
        let mut constructed = false;
        probes.emit_with(|| {
            constructed = true;
            Event::SfenceRetire {
                core: 0,
                at: 0,
                stall: 0,
            }
        });
        assert!(!constructed);
    }

    #[test]
    fn telemetry_accumulates_flush_phases() {
        let mut t = Telemetry::default();
        t.on_event(&Event::FlushRetired {
            line: 0,
            issued: 100,
            counter_ready: 110,
            encrypted: 135,
            retired: 140,
        });
        assert_eq!(t.breakdown.counter_fetch_cycles, 10);
        assert_eq!(t.breakdown.crypto_cycles, 25);
        assert_eq!(t.breakdown.queue_admission_cycles, 5);
        assert_eq!(t.flush_latency.sum(), 40);
        let json = t.to_json(1000);
        assert!(json.contains("\"counter_fetch_cycles\":10"));
        assert!(json.contains("\"total_cycles\":1000"));
    }

    #[test]
    fn percentiles_are_exact_on_single_bucket_values() {
        let mut h = Log2Histogram::default();
        assert_eq!(h.percentile(99.0), 0, "empty histogram reports 0");
        for _ in 0..100 {
            h.record(64); // all in [64, 128)
        }
        // Every rank interpolates inside one bucket of identical values;
        // the clamp to max() pins the answer to the exact value.
        assert_eq!(h.p50(), 64);
        assert_eq!(h.p99(), 64);
        assert_eq!(h.p999(), 64);
    }

    #[test]
    fn percentiles_rank_across_buckets() {
        let mut h = Log2Histogram::default();
        for _ in 0..99 {
            h.record(10);
        }
        // One extreme tail sample on top of the 99 small ones.
        h.record(100_000);
        // Rank 50 of 100 interpolates inside the [8,16) bucket.
        assert!((8..16).contains(&h.p50()), "p50 {}", h.p50());
        // Rank 99 of 100 still lands in the [8,16) bucket (upper-edge
        // interpolation can report the bucket's closing edge) ...
        assert!(h.p99() <= 16, "p99 {}", h.p99());
        // ... and the 99.9th percentile is the tail sample itself.
        assert_eq!(h.p999(), 100_000);
        // Monotonic in q.
        assert!(h.p50() <= h.p99() && h.p99() <= h.p999());
    }

    #[test]
    fn percentile_json_and_accessors_agree() {
        let mut h = Log2Histogram::default();
        for v in [5u64, 50, 500, 5000] {
            h.record(v);
        }
        let json = h.to_json();
        assert!(json.contains(&format!("\"p50\":{}", h.p50())), "{json}");
        assert!(json.contains(&format!("\"p999\":{}", h.p999())), "{json}");
    }

    #[test]
    fn telemetry_attributes_txns_to_cores() {
        let mut t = Telemetry::default();
        t.on_event(&Event::TxnCommit {
            core: 0,
            start: 0,
            end: 10,
        });
        t.on_event(&Event::TxnCommit {
            core: 2,
            start: 0,
            end: 30,
        });
        assert_eq!(t.per_core_txn.len(), 3);
        assert_eq!(t.per_core_txn[0].count(), 1);
        assert_eq!(t.per_core_txn[1].count(), 0);
        assert_eq!(t.per_core_txn[2].sum(), 30);
        assert_eq!(t.txn_latency.count(), 2, "aggregate still fed");
        let json = t.to_json(100);
        assert!(json.contains("\"per_core_txn\":["), "{json}");
    }

    #[test]
    fn probes_clone_duplicates_observer_state() {
        let mut probes = Probes::default();
        probes.attach(Box::new(Telemetry::default()));
        probes.emit_with(|| Event::CounterCacheHit { page: 1, at: 5 });
        let mut cloned = probes.clone();
        cloned.emit_with(|| Event::CounterCacheHit { page: 2, at: 6 });
        let orig = probes.take().pop().unwrap();
        let dup = cloned.take().pop().unwrap();
        let mut orig = orig;
        let mut dup = dup;
        let o = orig.as_any_mut().downcast_mut::<Telemetry>().unwrap();
        let d = dup.as_any_mut().downcast_mut::<Telemetry>().unwrap();
        assert_eq!(o.breakdown.counter_cache_hits, 1);
        assert_eq!(d.breakdown.counter_cache_hits, 2);
    }
}
