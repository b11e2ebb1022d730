//! The timed full-system model.
//!
//! [`System`] wires the CPU cache hierarchy (per-core L1/L2, shared L3)
//! to the secure memory controller and exposes the
//! [`PMem`] interface, so any persistent data
//! structure or transaction runs unmodified on every scheme — the
//! *application transparency* the paper's title promises.
//!
//! Timing model: each core owns a logical clock. Loads advance it by the
//! cache hit latency or the NVM read completion; stores hit L1;
//! `clwb` sends the newest dirty copy down the encrypted write path and
//! records its retire cycle; `sfence` advances the clock past all
//! outstanding retires. Dirty cache *evictions* also flow through the
//! controller but do not block the core (hardware write-buffers them).

use supermem_cache::CacheHierarchy;
use supermem_memctrl::{ChannelSet, MachineCrashImage};
use supermem_nvm::addr::LineAddr;
use supermem_persist::PMem;
use supermem_sim::{Config, Cycle, Event, Observer, Stats};

/// Per-core execution state.
#[derive(Debug, Clone, Copy, Default)]
struct CoreState {
    now: Cycle,
    pending_retire: Cycle,
}

/// The timed secure-PM machine.
///
/// Implements [`PMem`] for the currently active core (see
/// [`System::set_active_core`]); single-core users never need to touch
/// core selection.
///
/// # Examples
///
/// ```
/// use supermem::sim::Config;
/// use supermem::{Scheme, System};
///
/// // A scheme preset plus direct knob edits is the whole configuration.
/// let cfg = Scheme::WtCwc
///     .apply(Config::default())
///     .with_write_queue_entries(64)
///     .with_seed(7);
/// let sys = System::new(cfg);
/// assert!(sys.config().cwc);
/// ```
#[derive(Debug, Clone)]
pub struct System {
    cfg: Config,
    mc: ChannelSet,
    caches: CacheHierarchy,
    cores: Vec<CoreState>,
    active: usize,
}

impl System {
    /// Builds a system over fresh NVM.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid.
    pub fn new(cfg: Config) -> Self {
        let mc = ChannelSet::new(&cfg);
        let caches = CacheHierarchy::new(&cfg);
        Self {
            cores: vec![CoreState::default(); cfg.cores],
            active: 0,
            mc,
            caches,
            cfg,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// Statistics accumulated by the memory controller and system.
    pub fn stats(&self) -> &Stats {
        self.mc.stats()
    }

    /// Mutable statistics (experiment drivers record transaction
    /// latencies here).
    pub fn stats_mut(&mut self) -> &mut Stats {
        self.mc.stats_mut()
    }

    /// Selects which core subsequent [`PMem`] operations run on.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn set_active_core(&mut self, core: usize) {
        assert!(core < self.cores.len(), "core {core} out of range");
        self.active = core;
    }

    /// The active core's clock.
    pub fn now(&self) -> Cycle {
        self.cores[self.active].now
    }

    /// A specific core's clock.
    pub fn core_now(&self, core: usize) -> Cycle {
        self.cores[core].now
    }

    /// The simulated time at which every core has finished.
    pub fn max_now(&self) -> Cycle {
        self.cores.iter().map(|c| c.now).max().unwrap_or(0)
    }

    /// Warps an idle core's clock forward to `cycle` (no-op if the core
    /// is already past it). Open-loop traffic generators use this to
    /// model a core sitting idle until the next request's arrival time:
    /// core clocks otherwise only advance through memory operations.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn advance_core_to(&mut self, core: usize, cycle: Cycle) {
        self.cores[core].now = self.cores[core].now.max(cycle);
    }

    /// Discards accumulated statistics (used after warm-up /
    /// initialization so figures measure only the steady phase).
    pub fn reset_stats(&mut self) {
        *self.mc.stats_mut() = Stats::new(self.cfg.banks * self.cfg.channels);
    }

    /// Flushes every dirty cache line and drains the write queue: a
    /// clean checkpoint making all prior stores durable. Advances the
    /// active core's clock past the drain.
    pub fn checkpoint(&mut self) {
        let now = self.cores[self.active].now;
        let mut t = now;
        for (line, data) in self.caches.drain_dirty() {
            t = t.max(self.mc.flush_line(line, data, t));
        }
        // Lines were drained (removed); the hierarchy is cold but clean.
        let done = self.mc.finish(t);
        for core in &mut self.cores {
            core.now = core.now.max(done);
            core.pending_retire = 0;
        }
    }

    /// Simulates a power failure right now: one image per channel.
    pub fn machine_crash_now(&self) -> MachineCrashImage {
        self.mc.machine_crash_now()
    }

    /// Arms a crash after `appends` more write-queue append events
    /// machine-wide (see [`ChannelSet::arm_crash_after_appends`]).
    pub fn arm_crash_after_appends(&mut self, appends: u64) {
        self.mc.arm_crash_after_appends(appends);
    }

    /// Retrieves the image frozen by an armed crash, if it triggered.
    pub fn take_machine_crash_image(&mut self) -> Option<MachineCrashImage> {
        self.mc.take_machine_crash_image()
    }

    /// Direct access to the memory system (diagnostics).
    pub fn controller(&self) -> &ChannelSet {
        &self.mc
    }

    /// Direct access to the memory system, mutably (fault plans,
    /// degraded-mode injection).
    pub fn controller_mut(&mut self) -> &mut ChannelSet {
        &mut self.mc
    }

    /// Attaches an [`Observer`] to the machine's probe stream. All
    /// controller- and core-level events emitted from now on are
    /// delivered to it; observers never affect simulated timing.
    pub fn attach_observer(&mut self, obs: Box<dyn Observer>) {
        self.mc.attach_observer(obs);
    }

    /// Detaches and returns all attached observers (typically at the end
    /// of the measured window, before verification traffic).
    pub fn take_observers(&mut self) -> Vec<Box<dyn Observer>> {
        self.mc.take_observers()
    }

    /// Records a committed transaction spanning `[start, end]` on the
    /// active core: updates [`Stats`] and emits a probe event.
    pub fn record_txn(&mut self, start: Cycle, end: Cycle) {
        self.mc.stats_mut().record_txn(end.saturating_sub(start));
        let core = self.active;
        self.mc
            .probes_mut()
            .emit_with(|| Event::TxnCommit { core, start, end });
    }

    /// Explicitly writes back one page's dirty counter line — the SCA
    /// `counter_cache_writeback()` primitive (see [`crate::sca`]).
    /// Returns whether a writeback was actually issued; its retire is
    /// awaited by the next `sfence`.
    pub fn writeback_page_counters(&mut self, page: supermem_nvm::addr::PageId) -> bool {
        let core = &mut self.cores[self.active];
        let before = core.now;
        let retire = self.mc.writeback_page_counters(page, before);
        if retire == before {
            return false;
        }
        core.pending_retire = core.pending_retire.max(retire);
        true
    }

    fn line_of(addr: u64) -> u64 {
        addr & !63
    }

    /// Loads a line into the hierarchy and returns its contents.
    fn load_line(&mut self, line_addr: u64) -> [u8; 64] {
        let core = self.active;
        let line = LineAddr(line_addr);
        let res = self.caches.load(core, line);
        let now = self.cores[core].now;
        match res.level {
            1 => self.mc.stats_mut().l1_hits += 1,
            2 => self.mc.stats_mut().l2_hits += 1,
            3 => self.mc.stats_mut().l3_hits += 1,
            _ => {}
        }
        for &(wb_line, wb_data) in res.writebacks {
            // Evictions do not block the core.
            self.mc.flush_line(wb_line, wb_data, now);
        }
        if let Some(data) = res.data {
            self.cores[core].now += res.latency;
            return data;
        }
        // Full miss: demand read from the secure NVM.
        self.mc.stats_mut().mem_accesses += 1;
        let (data, done) = self.mc.read_line(line, now + res.latency);
        self.cores[core].now = done;
        for &(wb_line, wb_data) in self.caches.fill(core, line, data) {
            let t = self.cores[core].now;
            self.mc.flush_line(wb_line, wb_data, t);
        }
        data
    }
}

/// The pieces of `[addr, addr + len)` by cache line: `(line, offset in
/// the line, offset in the range, length)`.
fn line_pieces(addr: u64, len: usize) -> impl Iterator<Item = (u64, usize, usize, usize)> {
    let mut i = 0usize;
    std::iter::from_fn(move || {
        (i < len).then(|| {
            let a = addr + i as u64;
            let line = System::line_of(a);
            let off = (a - line) as usize;
            let n = (64 - off).min(len - i);
            let piece = (line, off, i, n);
            i += n;
            piece
        })
    })
}

impl PMem for System {
    fn read(&mut self, addr: u64, buf: &mut [u8]) {
        for (line, off, i, n) in line_pieces(addr, buf.len()) {
            let data = self.load_line(line);
            buf[i..i + n].copy_from_slice(&data[off..off + n]);
        }
    }

    /// The newest architectural bytes: a cached copy, else what the
    /// memory system would answer a demand read with
    /// ([`ChannelSet::peek_line`]). Clocks, statistics, probe events,
    /// caches, the counter cache and the banks are left untouched.
    fn peek(&mut self, addr: u64, buf: &mut [u8]) {
        for (line, off, i, n) in line_pieces(addr, buf.len()) {
            let line = LineAddr(line);
            let data = self
                .caches
                .peek(line)
                .unwrap_or_else(|| self.mc.peek_line(line));
            buf[i..i + n].copy_from_slice(&data[off..off + n]);
        }
    }

    fn write(&mut self, addr: u64, bytes: &[u8]) {
        for (line, off, i, n) in line_pieces(addr, bytes.len()) {
            // Write-allocate: establish residency, then store.
            let mut data = self.load_line(line);
            data[off..off + n].copy_from_slice(&bytes[i..i + n]);
            let core = self.active;
            let lat = self.caches.store(core, LineAddr(line), data);
            self.cores[core].now += lat;
        }
    }

    fn clwb(&mut self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        self.mc.stats_mut().clwb_ops += 1;
        let core = self.active;
        let first = Self::line_of(addr);
        let last = Self::line_of(addr + len - 1);
        let mut line = first;
        loop {
            let (dirty, lat) = self.caches.flush_line(core, LineAddr(line));
            self.cores[core].now += lat;
            if let Some(data) = dirty {
                let now = self.cores[core].now;
                let retire = self.mc.flush_line(LineAddr(line), data, now);
                self.cores[core].pending_retire = self.cores[core].pending_retire.max(retire);
            }
            if line == last {
                break;
            }
            line += 64;
        }
    }

    fn sfence(&mut self) {
        self.mc.stats_mut().sfence_ops += 1;
        let core_idx = self.active;
        let core = &mut self.cores[core_idx];
        let stall = core.pending_retire.saturating_sub(core.now);
        core.now = core.now.max(core.pending_retire) + 1;
        core.pending_retire = 0;
        let at = core.now;
        // Fence semantics for the lazy tree: armed leaf updates must
        // propagate before the fence is visible as retired.
        self.mc.fence_tree_flush(at);
        self.mc.probes_mut().emit_with(|| Event::SfenceRetire {
            core: core_idx,
            at,
            stall,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supermem_nvm::NvmStore;
    use supermem_persist::{RecoveredMemory, VecMem};
    use supermem_sim::probe::EventTape;

    use crate::scheme::Scheme;

    fn sys(scheme: Scheme) -> System {
        System::new(scheme.apply(Config::default()))
    }

    #[test]
    fn read_write_roundtrip_all_schemes() {
        for scheme in crate::scheme::FIGURE_SCHEMES {
            let mut s = sys(scheme);
            let data: Vec<u8> = (0..300).map(|i| i as u8).collect();
            s.write(0x1234, &data);
            let mut buf = vec![0u8; 300];
            s.read(0x1234, &mut buf);
            assert_eq!(buf, data, "{scheme}");
        }
    }

    #[test]
    fn matches_functional_reference() {
        // The timed system must be byte-equivalent to the functional
        // VecMem under an arbitrary operation sequence.
        let mut s = sys(Scheme::SuperMem);
        let mut r = VecMem::new();
        let mut rng = supermem_sim::SplitMix64::new(99);
        // Initialize the whole exercised range: encrypted NVM reads of
        // never-written lines are garbage (decrypt of zero ciphertext),
        // while VecMem reads zero — both are "uninitialized memory".
        let zeros = vec![0u8; (1 << 16) + 256];
        s.write(0, &zeros);
        r.write(0, &zeros);
        for _ in 0..200 {
            let addr = rng.next_below(1 << 16);
            let len = 1 + rng.next_below(200) as usize;
            let mut bytes = vec![0u8; len];
            rng.fill_bytes(&mut bytes);
            match rng.next_below(4) {
                0 => {
                    s.write(addr, &bytes);
                    r.write(addr, &bytes);
                }
                1 => {
                    let mut a = vec![0u8; len];
                    let mut b = vec![0u8; len];
                    s.read(addr, &mut a);
                    r.read(addr, &mut b);
                    assert_eq!(a, b);
                }
                2 => {
                    s.clwb(addr, len as u64);
                }
                _ => s.sfence(),
            }
        }
    }

    #[test]
    fn clocks_advance_monotonically() {
        let mut s = sys(Scheme::SuperMem);
        let t0 = s.now();
        s.write(0x100, &[1; 64]);
        let t1 = s.now();
        assert!(t1 > t0);
        s.clwb(0x100, 64);
        s.sfence();
        let t2 = s.now();
        assert!(t2 > t1);
    }

    #[test]
    fn sfence_waits_for_flush_retire() {
        let mut s = sys(Scheme::WriteThrough);
        s.write(0x100, &[1; 64]);
        let before = s.now();
        s.clwb(0x100, 64);
        s.sfence();
        // The flush passes counter fetch + AES before retiring, so the
        // fence must cost noticeably more than the 2-cycle L1 probe.
        assert!(s.now() > before + 10, "sfence must wait for the write path");
    }

    #[test]
    fn flushed_data_survives_crash_unflushed_does_not() {
        let mut s = sys(Scheme::SuperMem);
        s.write(0x1000, &[0xAA; 64]);
        s.clwb(0x1000, 64);
        s.sfence();
        s.write(0x2000, &[0xBB; 64]); // never flushed
        let image = s.machine_crash_now();
        let cfg = s.config().clone();
        let mut rec = RecoveredMemory::from_machine_image_checked(&cfg, image).unwrap();
        let mut buf = [0u8; 64];
        rec.read(0x1000, &mut buf);
        assert_eq!(buf, [0xAA; 64]);
        rec.read(0x2000, &mut buf);
        assert_ne!(buf, [0xBB; 64]);
    }

    #[test]
    fn checkpoint_makes_everything_durable() {
        let mut s = sys(Scheme::SuperMem);
        s.write(0x3000, &[0xCC; 256]);
        s.checkpoint();
        let cfg = s.config().clone();
        let mut rec =
            RecoveredMemory::from_machine_image_checked(&cfg, s.machine_crash_now()).unwrap();
        let mut buf = [0u8; 256];
        rec.read(0x3000, &mut buf);
        assert_eq!(buf, [0xCC; 256]);
    }

    #[test]
    fn cores_have_independent_clocks() {
        let mut s = sys(Scheme::SuperMem);
        s.set_active_core(0);
        s.write(0x100, &[1; 64]);
        s.clwb(0x100, 64);
        s.sfence();
        let t0 = s.core_now(0);
        assert_eq!(s.core_now(1), 0);
        s.set_active_core(1);
        s.write(0x40000, &[2; 64]);
        assert!(s.core_now(1) > 0);
        assert_eq!(s.core_now(0), t0);
        assert_eq!(s.max_now(), t0.max(s.core_now(1)));
    }

    #[test]
    fn fences_are_per_core() {
        // Core 1's sfence must not wait for core 0's outstanding flush.
        let mut s = sys(Scheme::SuperMem);
        s.set_active_core(0);
        s.write(0x100, &[1; 64]);
        s.clwb(0x100, 64); // outstanding on core 0
        s.set_active_core(1);
        let before = s.core_now(1);
        s.sfence();
        assert_eq!(s.core_now(1), before + 1, "core 1 had nothing to wait for");
        s.set_active_core(0);
        s.sfence();
        assert!(s.core_now(0) > before + 1, "core 0 waits for its flush");
    }

    #[test]
    fn reset_stats_clears_counters() {
        let mut s = sys(Scheme::SuperMem);
        s.write(0x100, &[1; 64]);
        s.clwb(0x100, 64);
        s.sfence();
        assert!(s.stats().clwb_ops > 0);
        s.reset_stats();
        assert_eq!(s.stats().clwb_ops, 0);
        assert_eq!(s.stats().nvm_data_writes, 0);
    }

    #[test]
    fn unsec_writes_half_as_much_as_wt() {
        let run = |scheme: Scheme| {
            let mut s = sys(scheme);
            // Touch many distinct pages so CWC-free counter writes pair
            // 1:1 with data writes.
            for i in 0..32u64 {
                s.write(i * 4096, &[i as u8; 64]);
                s.clwb(i * 4096, 64);
                s.sfence();
            }
            s.checkpoint();
            s.stats().nvm_writes_total()
        };
        let unsec = run(Scheme::Unsec);
        let wt = run(Scheme::WriteThrough);
        assert_eq!(wt, unsec * 2, "WT doubles NVM writes (paper §5.2)");
    }

    /// A small machine, so that random histories evict dirty lines from
    /// every level and keep the write queue busy.
    fn small(scheme: Scheme, channels: usize) -> Config {
        Config {
            l1_bytes: 1024,
            l2_bytes: 4096,
            l3_bytes: 8192,
            write_queue_entries: 8,
            ..scheme.apply(Config::default())
        }
        .with_channels(channels)
    }

    /// Events, statistics, clocks and the crash image: everything a
    /// later observer of the machine can tell apart.
    fn observable(s: &mut System) -> (Vec<Event>, Stats, Vec<Cycle>, Vec<NvmStore>) {
        let tape = s
            .take_observers()
            .pop()
            .and_then(|mut o| {
                o.as_any_mut()
                    .downcast_mut::<EventTape>()
                    .map(std::mem::take)
            })
            .expect("the tape is attached");
        s.attach_observer(Box::new(EventTape::default()));
        let clocks = (0..2).map(|c| s.core_now(c)).collect();
        let image = s
            .machine_crash_now()
            .channels
            .into_iter()
            .map(|c| c.store)
            .collect();
        (tape.into_events(), s.stats().clone(), clocks, image)
    }

    #[test]
    fn peek_returns_what_read_would_and_leaves_the_machine_untouched() {
        use supermem_nvm::{FaultClass, FaultSpec};
        let mut scheme_cfgs: Vec<Config> = Vec::new();
        for scheme in crate::scheme::FIGURE_SCHEMES
            .into_iter()
            .chain([Scheme::Osiris])
        {
            for channels in [1, 2] {
                scheme_cfgs.push(small(scheme, channels));
            }
        }
        scheme_cfgs.push(
            small(Scheme::SuperMem, 1)
                .with_integrity_tree(true)
                .with_persisted_levels(Some(1)),
        );
        let mut rng = supermem_sim::SplitMix64::new(0x9EE4);
        for (n, cfg) in scheme_cfgs.into_iter().enumerate() {
            let mut plain = System::new(cfg);
            let class = FaultClass::ALL[n % FaultClass::ALL.len()];
            plain.controller_mut().set_fault_plan(FaultSpec {
                class,
                seed: n as u64,
            });
            plain.attach_observer(Box::new(EventTape::default()));
            let mut peeked = plain.clone();
            let (mut compared, mut queued, mut cached) = (0, 0, 0);
            for _ in 0..600 {
                let addr = rng.next_below(48 << 10);
                let len = 1 + rng.next_below(300) as usize;
                match rng.next_below(20) {
                    0..=7 => {
                        let mut bytes = vec![0u8; len];
                        rng.fill_bytes(&mut bytes);
                        plain.write(addr, &bytes);
                        peeked.write(addr, &bytes);
                    }
                    8..=10 => {
                        let (mut a, mut b) = (vec![0u8; len], vec![0u8; len]);
                        plain.read(addr, &mut a);
                        peeked.read(addr, &mut b);
                        assert_eq!(a, b);
                    }
                    11..=12 => {
                        plain.clwb(addr, len as u64);
                        peeked.clwb(addr, len as u64);
                    }
                    13 => {
                        plain.sfence();
                        peeked.sfence();
                    }
                    14 => {
                        let core = rng.next_below(2) as usize;
                        plain.set_active_core(core);
                        peeked.set_active_core(core);
                    }
                    15 if rng.next_below(8) == 0 => {
                        plain.checkpoint();
                        peeked.checkpoint();
                    }
                    _ => {
                        let (mut got, mut want) = (vec![0u8; len], vec![0u8; len]);
                        peeked.peek(addr, &mut got);
                        plain.clone().read(addr, &mut want);
                        assert_eq!(got, want, "{n}: peek of {addr:#x}+{len}");
                        compared += 1;
                        queued += usize::from(plain.controller().wq_len() > 0);
                        cached += usize::from(plain.caches.peek(LineAddr(addr & !63)).is_some());
                    }
                }
            }
            assert!(compared > 50 && queued > 10 && cached > 10 && compared - cached > 10);
            assert!(
                observable(&mut peeked) == observable(&mut plain),
                "{n}: peeking changed the run"
            );
            plain.checkpoint();
            peeked.checkpoint();
            assert!(
                observable(&mut peeked) == observable(&mut plain),
                "{n}: peeking changed the run"
            );
        }
    }

    #[test]
    fn peek_matches_read_in_degraded_mode() {
        // Reads only, from a drained queue, on write-through counter
        // caches: no timed read can drop a queued write on the failed
        // bank, so peek and read agree exactly (see
        // `MemoryController::peek_line`).
        for scheme in [Scheme::Unsec, Scheme::WriteThrough, Scheme::SuperMem] {
            let mut s = System::new(small(scheme, 2));
            let mut rng = supermem_sim::SplitMix64::new(0xBAD);
            let mut bytes = vec![0u8; 32 << 10];
            rng.fill_bytes(&mut bytes);
            s.write(0, &bytes);
            s.checkpoint();
            s.controller_mut().mark_bank_failed(3);
            s.controller_mut().mark_bank_failed(9);
            let mut poisoned = 0;
            for _ in 0..400 {
                let addr = rng.next_below(32 << 10);
                let (mut got, mut want) = ([0u8; 64], [0u8; 64]);
                s.peek(addr, &mut got);
                s.read(addr, &mut want);
                assert_eq!(got, want, "{scheme}: {addr:#x}");
                poisoned += usize::from(got == [0; 64]);
            }
            assert!(poisoned > 0, "{scheme}: some reads must hit a failed bank");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_core_rejected() {
        sys(Scheme::Unsec).set_active_core(99);
    }
}
