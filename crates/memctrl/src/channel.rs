//! Interleaved multi-channel memory system.
//!
//! [`ChannelSet`] fronts one [`MemoryController`] per channel and routes
//! every read and flush to the channel that owns the target line
//! (pages interleave round-robin: `channel = page % channels`, see
//! `supermem_nvm::addr`). The set owns the *machine-level* shared state
//! — one probe hub, one statistics block, and one armed-crash countdown
//! — and swaps it into whichever controller is executing, so telemetry,
//! statistics, and crash arming behave exactly as they did when the
//! machine had a single controller. With `channels = 1` (the
//! paper-faithful default) the set is a transparent wrapper: routing is
//! the identity and every code path reduces to the single-controller
//! one, cycle for cycle and byte for byte.
//!
//! Crash semantics: a power failure hits *all* channels at once, so a
//! crash produces a [`MachineCrashImage`] holding one per-channel
//! [`CrashImage`]; [`MachineCrashImage::merged`] folds them into the
//! single flat NVM image recovery consumes (channels own disjoint
//! address sets, so the union is conflict-free).

use supermem_nvm::addr::{AddressMap, LineAddr, PageId};
use supermem_nvm::fault::FaultSpec;
use supermem_nvm::{LineData, NvmStore, WearReport};
use supermem_sim::{Config, Cycle, EventTape, Observer, Probes, Stats};

use crate::controller::{CrashImage, MemoryController};

/// The persistent state every channel leaves behind at a simultaneous
/// power failure: one [`CrashImage`] per channel, in channel order.
#[derive(Debug, Clone)]
pub struct MachineCrashImage {
    /// Per-channel crash images, indexed by channel.
    pub channels: Vec<CrashImage>,
}

impl MachineCrashImage {
    /// Folds the per-channel images into the single flat NVM image that
    /// recovery consumes. Channels own disjoint line/page sets, so the
    /// union is conflict-free; the RSR comes from whichever channel had
    /// a re-encryption in flight (at most one page machine-wide per
    /// paper §3.4.4 — each channel has its own register, and recovery
    /// completes them one at a time). The integrity-tree root only
    /// survives the merge for a single-channel machine: with several
    /// per-channel trees there is no one root to hand over.
    ///
    /// # Panics
    ///
    /// Panics if the image holds no channels.
    #[must_use]
    pub fn merged(self) -> CrashImage {
        let n = self.channels.len();
        assert!(n > 0, "machine crash image must hold at least one channel");
        let mut it = self.channels.into_iter();
        let Some(mut out) = it.next() else {
            unreachable!("asserted non-empty above")
        };
        for img in it {
            out.store.absorb(img.store);
            if out.rsr.is_none() {
                out.rsr = img.rsr;
            }
        }
        if n > 1 {
            out.bmt_root = None;
        }
        out
    }
}

/// One memory controller per channel behind a single-controller
/// interface.
///
/// All machine-global state (probes, statistics, the armed-crash
/// countdown) lives here and is lent to the executing controller for
/// the duration of each call, so cross-channel aggregates need no
/// merging: there is only ever one [`Stats`] and one [`Probes`].
///
/// # Examples
///
/// ```
/// use supermem_memctrl::ChannelSet;
/// use supermem_nvm::addr::LineAddr;
/// use supermem_sim::Config;
///
/// let mut set = ChannelSet::new(&Config::default().with_channels(2));
/// let retire = set.flush_line(LineAddr(0x1000), [1u8; 64], 100);
/// let (data, _) = set.read_line(LineAddr(0x1000), retire);
/// assert_eq!(data, [1u8; 64]);
/// ```
#[derive(Debug, Clone)]
pub struct ChannelSet {
    channels: Vec<MemoryController>,
    probes: Probes,
    /// Boxed like each controller's, so lending it is a pointer swap.
    stats: Box<Stats>,
    armed: Option<u64>,
    machine_image: Option<MachineCrashImage>,
    banks_per_channel: usize,
    /// Host worker threads for sibling-channel drains between barriers
    /// (`Config::run_threads`; 1 = fully sequential). Results are
    /// identical at every setting — see [`ChannelSet::drain_others`].
    run_threads: usize,
}

impl ChannelSet {
    /// Builds one controller per configured channel over fresh NVM.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`Config::validate`].
    pub fn new(cfg: &Config) -> Self {
        let channels: Vec<MemoryController> = (0..cfg.channels)
            .map(|ch| MemoryController::for_channel(cfg, ch))
            .collect();
        Self {
            probes: Probes::default(),
            stats: Box::new(Stats::new(cfg.banks * cfg.channels)),
            armed: None,
            machine_image: None,
            banks_per_channel: cfg.banks,
            run_threads: cfg.run_threads.max(1),
            channels,
        }
    }

    /// Wraps a single existing controller (e.g. one restarted on a
    /// recovered store). The controller's accumulated statistics carry
    /// over as the machine statistics.
    ///
    /// # Panics
    ///
    /// Panics if the controller was built for a multi-channel
    /// configuration: a lone channel cannot stand in for the machine.
    pub fn from_single(mut mc: MemoryController) -> Self {
        let cfg = mc.config().clone();
        assert_eq!(
            cfg.channels, 1,
            "from_single requires a single-channel configuration"
        );
        let mut stats = Box::new(Stats::new(cfg.banks));
        std::mem::swap(&mut stats, mc.stats_box_mut());
        let mut probes = Probes::default();
        std::mem::swap(&mut probes, mc.probes_mut());
        Self {
            probes,
            stats,
            armed: None,
            machine_image: None,
            banks_per_channel: cfg.banks,
            run_threads: 1,
            channels: vec![mc],
        }
    }

    /// Worker threads used for sibling-channel drains (diagnostics).
    pub fn run_threads(&self) -> usize {
        self.run_threads
    }

    /// Number of channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// The per-channel controllers, in channel order (diagnostics).
    pub fn channels(&self) -> &[MemoryController] {
        &self.channels
    }

    /// The shared address map (every channel decodes addresses
    /// identically).
    pub fn map(&self) -> &AddressMap {
        self.channels[0].map()
    }

    /// Machine statistics accumulated so far.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Mutable machine statistics (the system layer records transaction
    /// latencies here).
    pub fn stats_mut(&mut self) -> &mut Stats {
        &mut self.stats
    }

    /// The machine probe hub (the system layer emits core-level events
    /// here).
    pub fn probes_mut(&mut self) -> &mut Probes {
        &mut self.probes
    }

    /// Attaches an [`Observer`] to the machine's event stream.
    pub fn attach_observer(&mut self, obs: Box<dyn Observer>) {
        self.probes.attach(obs);
    }

    /// Detaches and returns all attached observers.
    pub fn take_observers(&mut self) -> Vec<Box<dyn Observer>> {
        self.probes.take()
    }

    /// Total append events across all channels (an atomic data+counter
    /// pair counts as one). The crash experiments sweep their injection
    /// point over this count.
    pub fn append_events(&self) -> u64 {
        self.channels
            .iter()
            .map(MemoryController::append_events)
            .sum()
    }

    /// Total pending write-queue entries across all channels.
    pub fn wq_len(&self) -> usize {
        self.channels.iter().map(MemoryController::wq_len).sum()
    }

    /// Direct view of the persistent byte store (verification only).
    ///
    /// # Panics
    ///
    /// Panics on a multi-channel set: there is no single flat store —
    /// merge a crash image or aggregate [`ChannelSet::wear_report`]
    /// instead.
    pub fn store(&self) -> &NvmStore {
        assert_eq!(
            self.channels.len(),
            1,
            "store() is only meaningful on a single-channel set"
        );
        self.channels[0].store()
    }

    /// Endurance summary across every channel: per-line maxima are the
    /// machine maxima, totals are summed.
    pub fn wear_report(&self) -> WearReport {
        let mut out = WearReport::default();
        for mc in &self.channels {
            let w = mc.store().wear_report();
            out.max_data_wear = out.max_data_wear.max(w.max_data_wear);
            out.max_counter_wear = out.max_counter_wear.max(w.max_counter_wear);
            out.total_data_writes += w.total_data_writes;
            out.total_counter_writes += w.total_counter_writes;
        }
        out
    }

    /// Lends the shared probe hub, statistics, and armed-crash countdown
    /// to channel `ch` for one call. If the call trips the armed crash,
    /// the sibling channels are snapshotted immediately after it returns
    /// — exact, because calls are serialized on the machine clock.
    fn with_channel<R>(&mut self, ch: usize, f: impl FnOnce(&mut MemoryController) -> R) -> R {
        self.swap_shared(ch);
        let r = f(&mut self.channels[ch]);
        self.swap_shared(ch);
        if let Some(img) = self.channels[ch].take_crash_image() {
            self.machine_image = Some(self.machine_image_with(ch, img));
        }
        r
    }

    fn swap_shared(&mut self, ch: usize) {
        let mc = &mut self.channels[ch];
        std::mem::swap(&mut self.probes, mc.probes_mut());
        std::mem::swap(&mut self.stats, mc.stats_box_mut());
        std::mem::swap(&mut self.armed, mc.armed_crash_mut());
    }

    /// A machine image in which channel `ch` contributes the frozen
    /// `img` and every sibling is snapshotted as of now.
    fn machine_image_with(&self, ch: usize, img: CrashImage) -> MachineCrashImage {
        MachineCrashImage {
            channels: self
                .channels
                .iter()
                .enumerate()
                .map(|(i, mc)| if i == ch { img.clone() } else { mc.crash_now() })
                .collect(),
        }
    }

    /// Advances every channel but `target` to `at`, so the banks of the
    /// whole machine share one clock. A no-op on a single channel.
    ///
    /// This call is the cross-channel *barrier* of the intra-run
    /// parallel engine. Two exact shortcuts apply at every
    /// `run_threads` setting:
    ///
    /// * channels whose write queue provably cannot issue by `at`
    ///   ([`MemoryController::would_drain`]) are skipped outright — the
    ///   skipped drain would have had no side effects;
    /// * with `run_threads > 1`, the remaining sibling drains run on
    ///   worker threads. A drain touches only channel-local state
    ///   (pages interleave `channel = page % channels`, so banks,
    ///   store, and queue are disjoint per channel), never appends
    ///   (the armed-crash countdown cannot trip), and never records
    ///   transactions, so each channel accumulates into a private
    ///   [`Stats`] and a private event tape; after the join the stats
    ///   merge additively and the tapes replay into the shared hub in
    ///   ascending channel order — byte-for-byte the sequential
    ///   stream.
    fn drain_others(&mut self, target: usize, at: Cycle) {
        if self.channels.len() == 1 {
            return;
        }
        if self.run_threads > 1 {
            self.drain_others_threaded(target, at);
            return;
        }
        for ch in 0..self.channels.len() {
            if ch != target && self.channels[ch].would_drain(at) {
                self.with_channel(ch, |mc| mc.drain_until(at));
            }
        }
    }

    /// The `run_threads > 1` body of [`ChannelSet::drain_others`]:
    /// fork-join over the sibling channels that have work, merging
    /// deterministically afterwards.
    fn drain_others_threaded(&mut self, target: usize, at: Cycle) {
        let record_events = self.probes.is_active();
        let mut pending: Vec<(usize, &mut MemoryController)> = self
            .channels
            .iter_mut()
            .enumerate()
            .filter(|(ch, mc)| *ch != target && mc.would_drain(at))
            .collect();
        if pending.is_empty() {
            return;
        }
        if record_events {
            for (_, mc) in &mut pending {
                mc.attach_observer(Box::new(EventTape::default()));
            }
        }
        let workers = self.run_threads.min(pending.len());
        if workers > 1 {
            let chunk = pending.len().div_ceil(workers);
            std::thread::scope(|scope| {
                for batch in pending.chunks_mut(chunk) {
                    scope.spawn(move || {
                        for (_, mc) in batch {
                            mc.drain_until(at);
                        }
                    });
                }
            });
        } else {
            for (_, mc) in &mut pending {
                mc.drain_until(at);
            }
        }
        // Deterministic merge, in ascending channel order (`pending`
        // preserves it): fold each channel's private stats delta into
        // the machine stats — drains only bump additive counters, so
        // the sums equal the sequential path's — and replay each
        // channel's event tape into the shared hub.
        for (_, mc) in &mut pending {
            let delta = std::mem::take(mc.stats_mut());
            self.stats.merge(&delta);
            if record_events {
                for mut obs in mc.take_observers() {
                    // Justified panic: sibling drains attach only EventTape
                    // observers (see the attach sites in this fn's callers),
                    // so the downcast cannot fail.
                    #[allow(clippy::disallowed_methods)]
                    let tape = obs
                        .as_any_mut()
                        .downcast_mut::<EventTape>()
                        .map(std::mem::take)
                        .expect("sibling drains attach only EventTape observers");
                    for ev in tape.into_events() {
                        self.probes.emit_with(move || ev);
                    }
                }
            }
        }
    }

    /// Routes a cache-line flush to the owning channel (Figure 7 write
    /// sequence). Returns the retire cycle.
    pub fn flush_line(&mut self, line: LineAddr, plaintext: LineData, at: Cycle) -> Cycle {
        let ch = self.channels[0].map().line_channel(line);
        self.drain_others(ch, at);
        self.with_channel(ch, |mc| mc.flush_line(line, plaintext, at))
    }

    /// Routes a demand read to the owning channel; returns the plaintext
    /// and the completion cycle.
    pub fn read_line(&mut self, line: LineAddr, at: Cycle) -> (LineData, Cycle) {
        let ch = self.channels[0].map().line_channel(line);
        self.drain_others(ch, at);
        self.with_channel(ch, |mc| mc.read_line(line, at))
    }

    /// Lets every channel's write queue issue what can start by `now`.
    pub fn drain_until(&mut self, now: Cycle) {
        for ch in 0..self.channels.len() {
            if self.channels[ch].would_drain(now) {
                self.with_channel(ch, |mc| mc.drain_until(now));
            }
        }
    }

    /// Explicitly writes back one page's dirty counter line from the
    /// owning channel's write-back counter cache. Returns the retire
    /// cycle, or `at` if the page's counters are clean or absent.
    pub fn writeback_page_counters(&mut self, page: PageId, at: Cycle) -> Cycle {
        let ch = self.channels[0].map().page_channel(page);
        self.with_channel(ch, |mc| mc.writeback_page_counters(page, at))
    }

    /// Propagates every channel's armed streaming-tree updates into its
    /// write queue (the persistence fence of the lazy tree). A no-op in
    /// eager mode, so fences cost nothing there.
    pub fn fence_tree_flush(&mut self, at: Cycle) {
        if !self.channels[0].config().streaming_tree() {
            return;
        }
        for ch in 0..self.channels.len() {
            self.with_channel(ch, |mc| mc.fence_tree_flush(at));
        }
    }

    /// Clean shutdown of every channel. Returns the cycle the last write
    /// of the machine began service.
    pub fn finish(&mut self, from: Cycle) -> Cycle {
        let mut done = from;
        for ch in 0..self.channels.len() {
            done = done.max(self.with_channel(ch, |mc| mc.finish(from)));
        }
        done
    }

    /// Arms a crash that triggers after `appends` more append events on
    /// any channel (the countdown is machine-global). The frozen image
    /// is retrievable with [`ChannelSet::take_crash_image`] or
    /// [`ChannelSet::take_machine_crash_image`].
    ///
    /// # Panics
    ///
    /// Panics if `appends` is zero.
    pub fn arm_crash_after_appends(&mut self, appends: u64) {
        assert!(appends > 0, "crash countdown must be positive");
        self.armed = Some(appends);
        self.machine_image = None;
    }

    /// The merged image frozen by an armed crash, if it has triggered.
    pub fn take_crash_image(&mut self) -> Option<CrashImage> {
        self.machine_image.take().map(MachineCrashImage::merged)
    }

    /// The per-channel image frozen by an armed crash, if it has
    /// triggered.
    pub fn take_machine_crash_image(&mut self) -> Option<MachineCrashImage> {
        self.machine_image.take()
    }

    /// Simulates an immediate power failure across all channels and
    /// returns the merged surviving NVM image.
    pub fn crash_now(&self) -> CrashImage {
        self.machine_crash_now().merged()
    }

    /// Simulates an immediate power failure across all channels,
    /// keeping the per-channel images separate.
    pub fn machine_crash_now(&self) -> MachineCrashImage {
        MachineCrashImage {
            channels: self
                .channels
                .iter()
                .map(MemoryController::crash_now)
                .collect(),
        }
    }

    /// Makes the next power event go wrong per `spec` on the channel the
    /// spec's seed selects (a media fault strikes one DIMM; the others
    /// drain cleanly).
    pub fn set_fault_plan(&mut self, spec: FaultSpec) {
        let ch = (spec.seed as usize) % self.channels.len();
        self.channels[ch].set_fault_plan(spec);
    }

    /// Fail-stops a bank by machine-global index: channel
    /// `bank / banks_per_channel`, local bank `bank % banks_per_channel`.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn mark_bank_failed(&mut self, bank: usize) {
        let ch = bank / self.banks_per_channel;
        assert!(ch < self.channels.len(), "bank {bank} out of range");
        self.channels[ch].mark_bank_failed(bank % self.banks_per_channel);
    }

    /// True when any bank of any channel has fail-stopped.
    pub fn is_degraded(&self) -> bool {
        self.channels.iter().any(MemoryController::is_degraded)
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;
    use supermem_crypto::{CounterLine, EncryptionEngine};
    use supermem_nvm::fault::FaultClass;

    fn cfg(channels: usize) -> Config {
        Config::default().with_channels(channels)
    }

    #[test]
    fn single_channel_matches_bare_controller_exactly() {
        // The wrapper must be transparent at channels = 1: same retire
        // cycles, same statistics, same crash image contents.
        let mut set = ChannelSet::new(&cfg(1));
        let mut mc = MemoryController::new(&cfg(1));
        let mut t_set = 0;
        let mut t_mc = 0;
        for i in 0..32u64 {
            let line = LineAddr(i * 4096);
            t_set = set.flush_line(line, [i as u8; 64], t_set);
            t_mc = mc.flush_line(line, [i as u8; 64], t_mc);
            assert_eq!(t_set, t_mc, "retire cycle diverged at flush {i}");
        }
        assert_eq!(set.finish(t_set), mc.finish(t_mc));
        assert_eq!(set.stats().nvm_data_writes, mc.stats().nvm_data_writes);
        assert_eq!(set.stats().bank_writes, mc.stats().bank_writes);
        let a = set.crash_now();
        let b = mc.crash_now();
        for line in b.store.data_lines() {
            assert_eq!(a.store.read_data(line), b.store.read_data(line));
        }
    }

    #[test]
    fn writes_route_to_owning_channel() {
        let mut set = ChannelSet::new(&cfg(4));
        let mut t = 0;
        for p in 0..8u64 {
            t = set.flush_line(LineAddr(p * 4096), [p as u8; 64], t);
        }
        set.finish(t);
        for (ch, mc) in set.channels().iter().enumerate() {
            let lines = mc.store().data_lines();
            assert!(!lines.is_empty(), "channel {ch} got no writes");
            for line in lines {
                assert_eq!(
                    set.map().line_channel(line),
                    ch,
                    "line {line:?} landed on the wrong channel"
                );
            }
        }
    }

    #[test]
    fn round_trips_across_channels() {
        let mut set = ChannelSet::new(&cfg(2));
        let mut t = 0;
        for p in 0..16u64 {
            t = set.flush_line(LineAddr(p * 4096 + 128), [0xA0 + p as u8; 64], t);
        }
        for p in 0..16u64 {
            let (data, done) = set.read_line(LineAddr(p * 4096 + 128), t);
            assert_eq!(data, [0xA0 + p as u8; 64]);
            t = done;
        }
    }

    #[test]
    fn merged_crash_image_unions_all_channels() {
        let mut set = ChannelSet::new(&cfg(2));
        let mut t = 0;
        for p in 0..4u64 {
            t = set.flush_line(LineAddr(p * 4096), [0x10 + p as u8; 64], t);
        }
        let image = set.crash_now();
        let key = cfg(2).encryption_key();
        let engine = EncryptionEngine::new(key);
        for p in 0..4u64 {
            let line = LineAddr(p * 4096);
            let ctr = CounterLine::decode(&image.store.read_counter(PageId(p)));
            assert_eq!(ctr.minor(0), 1, "page {p} counter persisted");
            let plain = engine.decrypt_line(&image.store.read_data(line), line.0, 0, 1);
            assert_eq!(plain, [0x10 + p as u8; 64], "page {p} data persisted");
        }
        let _ = t;
    }

    #[test]
    fn armed_crash_counts_appends_machine_wide() {
        // Pages 0 and 1 live on different channels at channels = 2; the
        // countdown must tick for both.
        let mut set = ChannelSet::new(&cfg(2));
        set.arm_crash_after_appends(2);
        let t = set.flush_line(LineAddr(0), [1; 64], 0);
        assert!(
            set.take_machine_crash_image().is_none(),
            "one append so far"
        );
        set.flush_line(LineAddr(4096), [2; 64], t);
        let image = set.take_machine_crash_image().expect("second append fires");
        assert_eq!(image.channels.len(), 2);
        let merged = image.merged();
        assert_eq!(merged.store.counter_lines().len(), 2);
    }

    #[test]
    fn global_bank_ids_span_channels() {
        let mut set = ChannelSet::new(&cfg(2));
        let mut t = 0;
        // Page 1 lives on channel 1 bank 0 -> global bank 8.
        for p in 0..2u64 {
            t = set.flush_line(LineAddr(p * 4096), [1; 64], t);
        }
        set.finish(t);
        assert_eq!(set.stats().bank_writes.len(), 16);
        assert!(set.stats().bank_writes[0] > 0, "channel 0 bank 0 wrote");
        assert!(set.stats().bank_writes[8] > 0, "channel 1 bank 0 wrote");
    }

    #[test]
    fn fault_plan_routes_by_seed_and_merge_carries_it() {
        let mut set = ChannelSet::new(&cfg(2));
        let mut t = 0;
        for p in 0..4u64 {
            t = set.flush_line(LineAddr(p * 4096), [3; 64], t);
        }
        set.finish(t);
        set.set_fault_plan(FaultSpec {
            class: FaultClass::Torn,
            seed: 1,
        });
        let image = set.machine_crash_now();
        assert!(image.channels[1].store.faults().is_some());
        assert!(image.channels[0].store.faults().is_none());
        let merged = image.merged();
        assert!(
            merged.store.faults().is_some(),
            "merge keeps the fault plan"
        );
    }

    #[test]
    fn worker_threads_preserve_stats_and_event_stream() {
        // Queue work on every channel at small cycles, then force one
        // sibling drain at a far-future cycle: with run_threads > 1
        // that drain takes the fork-join path (3 pending siblings), so
        // this exercises the scoped-thread barrier, the private-stats
        // merge, and the event-tape replay. Also the test the CI miri
        // job interprets to check the barrier for UB and races.
        let run = |threads: usize| {
            let mut set = ChannelSet::new(&cfg(4).with_run_threads(threads));
            set.attach_observer(Box::new(EventTape::default()));
            for i in 0..24u64 {
                let line = LineAddr((i % 4) * 4096 + (i / 4) * 64);
                set.flush_line(line, [i as u8; 64], i);
            }
            let pending = (1..4)
                .filter(|&ch| set.channels()[ch].would_drain(100_000))
                .count();
            assert!(pending >= 2, "barrier must have siblings to fork over");
            let (_, done) = set.read_line(LineAddr(0), 100_000);
            set.finish(done);
            let mut events = Vec::new();
            for mut obs in set.take_observers() {
                if let Some(tape) = obs.as_any_mut().downcast_mut::<EventTape>() {
                    events = std::mem::take(tape).into_events();
                }
            }
            (set.stats().clone(), events)
        };
        let (seq_stats, seq_events) = run(1);
        assert!(!seq_events.is_empty(), "the run must emit events");
        for threads in [2, 4] {
            let (stats, events) = run(threads);
            assert_eq!(stats, seq_stats, "threads={threads}");
            assert_eq!(events, seq_events, "threads={threads}");
        }
    }

    #[test]
    fn global_bank_failure_degrades_only_owning_channel() {
        let mut set = ChannelSet::new(&cfg(2));
        assert!(!set.is_degraded());
        set.mark_bank_failed(8); // channel 1, local bank 0
        assert!(set.is_degraded());
        assert!(!set.channels()[0].is_degraded());
        assert!(set.channels()[1].is_degraded());
    }

    #[test]
    fn wear_report_aggregates_channels() {
        let mut set = ChannelSet::new(&cfg(2));
        let mut t = 0;
        for p in 0..4u64 {
            t = set.flush_line(LineAddr(p * 4096), [1; 64], t);
        }
        set.finish(t);
        let w = set.wear_report();
        assert_eq!(w.total_data_writes, 4);
        assert!(w.max_data_wear >= 1);
    }

    #[test]
    #[should_panic(expected = "single-channel")]
    fn store_rejects_multi_channel_access() {
        let _ = ChannelSet::new(&cfg(2)).store();
    }
}
