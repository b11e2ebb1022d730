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
//! [`CrashImage`], the only image a machine hands to recovery (a bare
//! controller's image converts into a one-channel machine image).
//! [`MachineCrashImage::merged`] folds the channels into one flat NVM
//! image for inspection (channels own disjoint address sets, so the
//! union is conflict-free).

use supermem_nvm::addr::{AddressMap, LineAddr, PageId};
use supermem_nvm::fault::FaultSpec;
use supermem_nvm::{LineData, NvmStore, WearReport};
use supermem_sim::{Config, Cycle, Observer, Probes, Stats};

use crate::controller::{CrashImage, MemoryController};

/// The persistent state every channel leaves behind at a simultaneous
/// power failure: one [`CrashImage`] per channel, in channel order.
#[derive(Debug, Clone)]
pub struct MachineCrashImage {
    /// Per-channel crash images, indexed by channel.
    pub channels: Vec<CrashImage>,
}

impl From<CrashImage> for MachineCrashImage {
    /// A single controller's image is a one-channel machine image.
    fn from(image: CrashImage) -> Self {
        Self {
            channels: vec![image],
        }
    }
}

impl MachineCrashImage {
    /// Folds the per-channel images into one flat NVM image, for
    /// inspecting a machine's stores; recovery takes the machine image
    /// itself. Channels own disjoint line/page sets, so the union is
    /// conflict-free. The RSR comes from the first channel with a
    /// re-encryption in flight, and the integrity-tree root survives only
    /// for a single-channel machine: with several per-channel trees
    /// there is no one root to hand over.
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
            channels,
        }
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
    /// Channels whose write queue provably cannot issue by `at`
    /// ([`MemoryController::would_drain`]) are skipped outright: the
    /// skipped drain would have had no side effects.
    fn drain_others(&mut self, target: usize, at: Cycle) {
        if self.channels.len() == 1 {
            return;
        }
        for ch in 0..self.channels.len() {
            if ch != target && self.channels[ch].would_drain(at) {
                self.with_channel(ch, |mc| mc.drain_until(at));
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

    /// The plaintext a demand read of `line` would return now, from the
    /// owning channel, with no effect on any channel
    /// ([`MemoryController::peek_line`]).
    pub fn peek_line(&self, line: LineAddr) -> LineData {
        let ch = self.channels[0].map().line_channel(line);
        self.channels[ch].peek_line(line)
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
    /// is retrievable with [`ChannelSet::take_machine_crash_image`].
    ///
    /// # Panics
    ///
    /// Panics if `appends` is zero.
    pub fn arm_crash_after_appends(&mut self, appends: u64) {
        assert!(appends > 0, "crash countdown must be positive");
        self.armed = Some(appends);
        self.machine_image = None;
    }

    /// The per-channel image frozen by an armed crash, if it has
    /// triggered.
    pub fn take_machine_crash_image(&mut self) -> Option<MachineCrashImage> {
        self.machine_image.take()
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
        let a = set.machine_crash_now().merged();
        let b = mc.crash_now();
        for line in b.store.data_lines() {
            assert_eq!(a.store.read_data(line), b.store.read_data(line));
        }
    }

    #[test]
    fn peek_decrypts_what_the_dimm_holds() {
        // A peek opens the NVM ciphertext under the line's counters, as
        // a timed read does: one rewritten ciphertext byte shows up in
        // the peeked plaintext, and the untampered twin peeks back what
        // was written.
        for channels in [1, 2] {
            let mut set = ChannelSet::new(&cfg(channels));
            let mut t = 0;
            for i in 0..16u64 {
                t = set.flush_line(LineAddr(i * 64 * 37), [i as u8; 64], t);
            }
            t = set.finish(t);
            let twin = set.clone();
            let line = LineAddr(5 * 64 * 37);
            let ch = set.map().line_channel(line);
            let mut mask = [0; 64];
            mask[7] = 0x10;
            set.channels[ch].tamper_data_line(line, mask);
            assert_eq!(twin.peek_line(line), [5; 64]);
            let mut want = [5; 64];
            want[7] ^= 0x10;
            assert_eq!(set.peek_line(line), want);
            assert_eq!(set.read_line(line, t).0, want);
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
        let image = set.machine_crash_now().merged();
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
