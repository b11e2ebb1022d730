//! The secure-PM memory controller.
//!
//! Implements the paper's Figure 7 write sequence with a write-through
//! counter cache and the 2-line staging register: fetch the counter
//! (counter cache, forwarding from pending writes, or NVM), increment the
//! minor counter, run the AES pipeline, then append the encrypted data
//! line *and* its counter line to the ADR-protected write queue in one
//! atomic step. Counter write coalescing and XBank placement are applied
//! at append time. The read path overlaps OTP generation with the NVM
//! array read (Figure 2b).
//!
//! Crash behavior: [`MemoryController::crash_now`] produces the NVM image
//! a real power failure would leave behind — the byte store plus the
//! ADR-drained write queue (and, for a battery-backed write-back counter
//! cache, the dirty counters). [`MemoryController::arm_crash_after_appends`]
//! freezes such an image mid-run at a chosen append boundary, which is how
//! the Table 1 experiments land a failure *between* the counter append and
//! the data append when the atomic register is disabled (Figure 6).

use supermem_cache::CounterCache;
use supermem_crypto::EncryptionEngine;
use supermem_integrity::Bmt;
use supermem_nvm::addr::{AddressMap, LineAddr, PageId};
use supermem_nvm::bank::{BankTimer, OpKind};
use supermem_nvm::fault::{FaultSpec, MediaError};
use supermem_nvm::{LineData, NvmStore};
use supermem_sim::{Config, Cycle, Event, Mutation, Observer, Probes, Stats};

use crate::bankmap::counter_bank;
use crate::rsr::Rsr;
use crate::wqueue::WriteQueue;

mod append;
mod counter;
mod crash;
mod drain;
mod encrypt;

/// Latency of forwarding a read from a pending write-queue entry.
const FORWARD_LATENCY: Cycle = 4;

/// Latency of the staging-register store step (`Sto` in Figure 7).
const REGISTER_LATENCY: Cycle = 1;

/// Bounded retries for transiently failing NVM array reads.
const READ_RETRY_LIMIT: u32 = 3;

/// Base backoff (cycles) before re-issuing a transiently failed read;
/// doubles on every retry.
const RETRY_BACKOFF: Cycle = 8;

/// The persistent state left behind by a (simulated) power failure:
/// the NVM byte store after the ADR battery drained the write queue,
/// plus the ADR-protected re-encryption status register.
#[derive(Debug, Clone)]
pub struct CrashImage {
    /// NVM contents after the ADR drain.
    pub store: NvmStore,
    /// RSR contents if a page re-encryption was in flight.
    pub rsr: Option<Rsr>,
    /// The integrity tree's trusted root register, if authentication is
    /// on (the register survives power loss like the processor key).
    pub bmt_root: Option<u64>,
}

/// The memory controller of the simulated secure NVM system.
///
/// # Examples
///
/// ```
/// use supermem_memctrl::MemoryController;
/// use supermem_nvm::addr::LineAddr;
/// use supermem_sim::Config;
///
/// let mut mc = MemoryController::new(&Config::default());
/// let retire = mc.flush_line(LineAddr(0x1000), [1u8; 64], 100);
/// let (data, _) = mc.read_line(LineAddr(0x1000), retire);
/// assert_eq!(data, [1u8; 64]);
/// ```
#[derive(Debug, Clone)]
pub struct MemoryController {
    cfg: Config,
    map: AddressMap,
    banks: Vec<BankTimer>,
    store: NvmStore,
    wq: WriteQueue,
    cc: CounterCache,
    engine: EncryptionEngine,
    /// Boxed so [`ChannelSet`](crate::ChannelSet) lends the machine
    /// statistics by swapping a pointer, not the whole block.
    stats: Box<Stats>,
    rsr: Option<Rsr>,
    armed_crash: Option<u64>,
    crash_image: Option<CrashImage>,
    append_events: u64,
    bmt: Option<Bmt>,
    probes: Probes,
    fault_spec: Option<FaultSpec>,
    /// Offset of this controller's bank 0 in the machine-global bank
    /// numbering (`channel_index * cfg.banks`; 0 for a single channel).
    /// Bank timers and write-queue entries stay channel-local; only
    /// stats and emitted events carry global bank ids.
    bank_base: usize,
}

impl MemoryController {
    /// Builds a controller over a fresh (all-zero) NVM DIMM.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`Config::validate`].
    pub fn new(cfg: &Config) -> Self {
        Self::with_store(cfg, NvmStore::new())
    }

    /// Builds a controller over existing NVM contents — how a system
    /// restarts after a crash, with the DIMM retaining its bytes.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`Config::validate`].
    pub fn with_store(cfg: &Config, store: NvmStore) -> Self {
        Self::with_store_for_channel(cfg, store, 0)
    }

    /// Builds the controller of channel `channel` over a fresh DIMM
    /// slice. Stats and events report machine-global bank ids offset by
    /// `channel * cfg.banks`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`Config::validate`] or `channel` is out of
    /// range.
    pub fn for_channel(cfg: &Config, channel: usize) -> Self {
        Self::with_store_for_channel(cfg, NvmStore::new(), channel)
    }

    /// [`MemoryController::for_channel`] over existing NVM contents.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`Config::validate`] or `channel` is out of
    /// range.
    pub fn with_store_for_channel(cfg: &Config, mut store: NvmStore, channel: usize) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid configuration: {e}");
        }
        assert!(channel < cfg.channels, "channel {channel} out of range");
        if let Some(psi) = cfg.wear_psi {
            store.enable_wear_leveling(cfg.nvm_bytes / cfg.line_bytes, psi);
        }
        let map = AddressMap::with_channels(
            cfg.nvm_bytes,
            cfg.line_bytes,
            cfg.page_bytes,
            cfg.banks,
            cfg.channels,
        );
        let read = cfg.nvm_read_service_cycles();
        let write = cfg.nvm_write_service_cycles();
        let wtr = cfg.nvm_wtr_cycles();
        let mut cc = CounterCache::new(
            cfg.counter_cache_bytes,
            cfg.line_bytes,
            cfg.counter_cache_ways,
            cfg.counter_cache_mode,
        );
        if cfg.mutation == Some(Mutation::WtOff) {
            cc.inject_drop_write_through();
        }
        let bank_base = channel * cfg.banks;
        let mut wq = WriteQueue::new(cfg.write_queue_entries, cfg.cwc);
        wq.set_bank_base(bank_base);
        wq.set_fast_forward(cfg.fast_forward);
        let bmt = cfg.integrity_tree.then(|| {
            let built = match cfg.persisted_levels {
                // Streaming mode: only levels below the frontier persist
                // through the write queue; the rest stay volatile.
                Some(levels) if cfg.streaming_tree() => {
                    Bmt::with_frontier(cfg.encryption_key(), cfg.integrity_pages, levels as usize)
                }
                // Eager/legacy mode (also `persisted_levels = height`).
                _ => Bmt::new(cfg.encryption_key(), cfg.integrity_pages),
            };
            match built {
                Ok(b) => b,
                // Unreachable in practice: Config::validate rejects the
                // zero-page and out-of-range-frontier shapes first.
                Err(e) => panic!("invalid configuration: {e}"),
            }
        });
        Self {
            map,
            banks: (0..cfg.banks)
                .map(|_| BankTimer::new(read, write, wtr))
                .collect(),
            store,
            wq,
            cc,
            engine: EncryptionEngine::new(cfg.encryption_key()),
            stats: Box::new(Stats::new(cfg.banks * cfg.channels)),
            rsr: None,
            armed_crash: None,
            crash_image: None,
            append_events: 0,
            bmt,
            probes: Probes::default(),
            fault_spec: None,
            bank_base,
            cfg: cfg.clone(),
        }
    }

    /// Attaches an [`Observer`] to the controller's event stream. With no
    /// observer attached the probe layer is a single branch per emission
    /// site and event payloads are never constructed.
    pub fn attach_observer(&mut self, obs: Box<dyn Observer>) {
        self.probes.attach(obs);
    }

    /// Detaches and returns all attached observers.
    pub fn take_observers(&mut self) -> Vec<Box<dyn Observer>> {
        self.probes.take()
    }

    /// The probe hub (the system layer emits core-level events here).
    pub fn probes_mut(&mut self) -> &mut Probes {
        &mut self.probes
    }

    /// The address map in use.
    pub fn map(&self) -> &AddressMap {
        &self.map
    }

    /// The configuration this controller was built with.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Mutable statistics (the system layer records transaction
    /// latencies here).
    pub fn stats_mut(&mut self) -> &mut Stats {
        &mut self.stats
    }

    /// The boxed statistics, for lending machine stats by pointer swap.
    pub(crate) fn stats_box_mut(&mut self) -> &mut Box<Stats> {
        &mut self.stats
    }

    /// Direct view of the persistent byte store (verification only).
    pub fn store(&self) -> &NvmStore {
        &self.store
    }

    /// Pending write-queue entries (diagnostics).
    pub fn wq_len(&self) -> usize {
        self.wq.len()
    }

    /// Total append events so far (an atomic data+counter pair counts as
    /// one). The crash experiments sweep their injection point over this
    /// count.
    pub fn append_events(&self) -> u64 {
        self.append_events
    }

    /// Pending write-queue entries in age order (diagnostics).
    ///
    /// Allocation-free: yields straight from the queue's slot slab, so
    /// per-event inspection (the checker probes this on its hot path)
    /// does not clone the queue into a `Vec`.
    pub fn wq_pending(&self) -> impl Iterator<Item = (crate::wqueue::WqTarget, u64)> + '_ {
        self.wq.pending()
    }

    /// Number of leaf updates armed in the streaming tree's pending
    /// cache (0 in eager mode or without an integrity tree).
    pub fn tree_pending_len(&self) -> usize {
        self.bmt.as_ref().map_or(0, Bmt::pending_len)
    }

    /// This controller's channel index (0 for a single-channel machine).
    pub fn channel(&self) -> usize {
        self.bank_base / self.cfg.banks.max(1)
    }

    fn ctr_bank(&self, page: PageId) -> usize {
        counter_bank(
            self.cfg.counter_placement,
            self.map.page_bank(page),
            self.cfg.banks,
        )
    }

    /// Services a demand read of `line` issued at cycle `at`; returns the
    /// plaintext and the completion cycle. OTP generation overlaps the
    /// array read (Figure 2b), so the counter fetch usually hides behind
    /// tRCD + tCL.
    pub fn read_line(&mut self, line: LineAddr, at: Cycle) -> (LineData, Cycle) {
        self.drain_until(at);
        if let Some(entry) = self.wq.forward_data(line) {
            self.stats.wq_read_forwards += 1;
            let payload = entry.payload;
            let enc = entry.enc_counter;
            let done = at + FORWARD_LATENCY;
            let data = match enc {
                Some((major, minor)) if self.cfg.encryption => {
                    self.engine.decrypt_line(&payload, line.0, major, minor)
                }
                _ => payload,
            };
            self.probes.emit_with(|| Event::ReadServed {
                line: line.0,
                issued: at,
                done,
                forwarded: true,
            });
            return (data, done);
        }
        let bank = self.map.data_bank(line);
        if self.banks[bank].is_failed() {
            // Degraded mode: the bank is gone; answer with poison
            // rather than wedging behind dead hardware.
            self.stats.poisoned_reads += 1;
            let done = at + 1;
            self.probes.emit_with(|| Event::ReadServed {
                line: line.0,
                issued: at,
                done,
                forwarded: false,
            });
            return ([0; 64], done);
        }
        let done_data = self.banks[bank].issue(OpKind::Read, at);
        self.stats.nvm_data_reads += 1;
        let read_service = self.cfg.nvm_read_service_cycles();
        let gbank = self.bank_base + bank;
        self.probes.emit_with(|| Event::BankBusy {
            bank: gbank,
            start: done_data - read_service,
            end: done_data,
            write: false,
        });
        let (cipher, done_data) = self.media_read_data(line, bank, done_data);
        let Some(cipher) = cipher else {
            self.stats.poisoned_reads += 1;
            self.probes.emit_with(|| Event::ReadServed {
                line: line.0,
                issued: at,
                done: done_data,
                forwarded: false,
            });
            return ([0; 64], done_data);
        };
        if !self.cfg.encryption {
            self.probes.emit_with(|| Event::ReadServed {
                line: line.0,
                issued: at,
                done: done_data,
                forwarded: false,
            });
            return (cipher, done_data);
        }
        let page = self.map.page_of_line(line);
        let idx = self.map.line_index_in_page(line);
        let (ctr, t_ctr) = self.fetch_counter(page, at);
        let otp_ready = t_ctr + self.cfg.aes_latency;
        let plain = self
            .engine
            .decrypt_line(&cipher, line.0, ctr.major(), ctr.minor(idx));
        let done = done_data.max(otp_ready) + 1;
        self.probes.emit_with(|| Event::ReadServed {
            line: line.0,
            issued: at,
            done,
            forwarded: false,
        });
        (plain, done)
    }

    /// Handles a cache-line flush arriving at cycle `at` (Figure 7) by
    /// running the staged write-path pipeline: drain what the banks can
    /// take, update the counter (overflow triggers a page
    /// re-encryption), run the AES pipeline, then hand the sealed line
    /// to the append stage, which releases it into the ADR write queue
    /// per the configured staging discipline. Returns the retire cycle —
    /// the moment the entries are accepted into the ADR domain, which is
    /// when the flush is architecturally durable (§2.1).
    pub fn flush_line(&mut self, line: LineAddr, plaintext: LineData, at: Cycle) -> Cycle {
        self.drain_until(at);
        if !self.cfg.encryption {
            return self.flush_unsec(line, plaintext, at);
        }
        let page = self.map.page_of_line(line);
        let idx = self.map.line_index_in_page(line);
        let (ctr, t_ctr) = self.counter_update(page, idx, at);
        let enc = self.encrypt_stage(line, &plaintext, &ctr, idx, t_ctr);
        // The counter cache entry is resident (the counter stage filled
        // it); its update outcome picks the append discipline.
        let action = self.cc.update(page, ctr.clone());
        let retire = self.dispatch_append(line, page, &ctr, &enc, action);
        // The re-encryption's new counters are durable now (write queue in
        // write-through mode, battery-backed counter cache in write-back):
        // free the RSR.
        if self
            .rsr
            .as_ref()
            .is_some_and(|r| r.page() == page && r.all_done())
        {
            self.rsr = None;
            self.probes.emit_with(|| Event::RsrRetired {
                page: page.0,
                at: retire,
            });
        }
        let t_enc = enc.ready;
        self.probes.emit_with(|| Event::FlushRetired {
            line: line.0,
            issued: at,
            counter_ready: t_ctr,
            encrypted: t_enc,
            retired: retire,
        });
        retire
    }

    /// Reads a data line through the media model with bounded
    /// retry-with-backoff on transient failures. Returns `None` (and
    /// the final completion cycle) when the line is unreadable — the
    /// caller poisons the response instead of panicking.
    fn media_read_data(
        &mut self,
        line: LineAddr,
        bank: usize,
        done: Cycle,
    ) -> (Option<LineData>, Cycle) {
        let before = self.store.fault_counters().ecc_corrections;
        let mut done = done;
        let mut backoff = RETRY_BACKOFF;
        let mut out = None;
        for attempt in 0..=READ_RETRY_LIMIT {
            match self.store.read_data_checked(line) {
                Ok(d) => {
                    out = Some(d);
                    break;
                }
                Err(MediaError::Transient) if attempt < READ_RETRY_LIMIT => {
                    self.stats.read_retries += 1;
                    done = self.banks[bank].issue(OpKind::Read, done + backoff);
                    backoff *= 2;
                }
                Err(_) => break,
            }
        }
        self.stats.ecc_corrections += self.store.fault_counters().ecc_corrections - before;
        (out, done)
    }

    /// [`Self::media_read_data`] for a counter line.
    fn media_read_counter(
        &mut self,
        page: PageId,
        bank: usize,
        done: Cycle,
    ) -> (Option<LineData>, Cycle) {
        let before = self.store.fault_counters().ecc_corrections;
        let mut done = done;
        let mut backoff = RETRY_BACKOFF;
        let mut out = None;
        for attempt in 0..=READ_RETRY_LIMIT {
            match self.store.read_counter_checked(page) {
                Ok(d) => {
                    out = Some(d);
                    break;
                }
                Err(MediaError::Transient) if attempt < READ_RETRY_LIMIT => {
                    self.stats.read_retries += 1;
                    done = self.banks[bank].issue(OpKind::Read, done + backoff);
                    backoff *= 2;
                }
                Err(_) => break,
            }
        }
        self.stats.ecc_corrections += self.store.fault_counters().ecc_corrections - before;
        (out, done)
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;
    use supermem_crypto::CounterLine;
    use supermem_nvm::fault::FaultPlan;
    use supermem_sim::{CounterCacheBacking, CounterCacheMode, CounterPlacement};

    fn cfg() -> Config {
        Config::default()
    }

    fn unsec() -> Config {
        let mut c = cfg();
        c.encryption = false;
        c
    }

    #[test]
    fn write_then_read_roundtrips_plaintext() {
        let mut mc = MemoryController::new(&cfg());
        let line = LineAddr(0x4000);
        let retire = mc.flush_line(line, [0x5A; 64], 0);
        let (data, done) = mc.read_line(line, retire);
        assert_eq!(data, [0x5A; 64]);
        assert!(done > retire);
    }

    #[test]
    fn store_holds_ciphertext_not_plaintext() {
        let mut mc = MemoryController::new(&cfg());
        let line = LineAddr(0x4000);
        let retire = mc.flush_line(line, [0x5A; 64], 0);
        mc.finish(retire);
        assert_ne!(
            mc.store().read_data(line),
            [0x5A; 64],
            "NVM must hold ciphertext"
        );
    }

    #[test]
    fn unsec_store_holds_plaintext() {
        let mut mc = MemoryController::new(&unsec());
        let line = LineAddr(0x4000);
        let retire = mc.flush_line(line, [0x5A; 64], 0);
        mc.finish(retire);
        assert_eq!(mc.store().read_data(line), [0x5A; 64]);
    }

    #[test]
    fn write_through_doubles_write_requests() {
        let mut c = cfg();
        c.cwc = false;
        let mut mc = MemoryController::new(&c);
        let mut t = 0;
        for i in 0..16u64 {
            // Distinct pages so CWC (even if on) could not merge.
            t = mc.flush_line(LineAddr(i * 4096), [i as u8; 64], t);
        }
        mc.finish(t);
        assert_eq!(mc.stats().nvm_data_writes, 16);
        assert_eq!(mc.stats().nvm_counter_writes, 16);
    }

    #[test]
    fn cwc_coalesces_same_page_counter_writes() {
        let mut c = cfg();
        c.cwc = true;
        let mut mc = MemoryController::new(&c);
        let mut t = 0;
        // 16 lines of ONE page flushed back-to-back: counters share one
        // line, so pending counter writes merge.
        for i in 0..16u64 {
            t = mc.flush_line(LineAddr(i * 64), [i as u8; 64], t);
        }
        mc.finish(t);
        assert_eq!(mc.stats().nvm_data_writes, 16);
        assert!(
            mc.stats().counter_writes_coalesced >= 8,
            "expected heavy coalescing, got {}",
            mc.stats().counter_writes_coalesced
        );
        assert_eq!(
            mc.stats().nvm_counter_writes + mc.stats().counter_writes_coalesced,
            16
        );
    }

    #[test]
    fn write_back_defers_counter_writes() {
        let mut c = cfg();
        c.counter_cache_mode = CounterCacheMode::WriteBack;
        c.counter_cache_backing = CounterCacheBacking::Battery;
        let mut mc = MemoryController::new(&c);
        let mut t = 0;
        for i in 0..16u64 {
            t = mc.flush_line(LineAddr(i * 64), [1; 64], t);
        }
        // Before finish: only data writes reach NVM.
        assert_eq!(mc.stats().nvm_counter_writes, 0);
        mc.finish(t);
        // One page -> one dirty counter line at shutdown.
        assert_eq!(mc.stats().nvm_counter_writes, 1);
        assert_eq!(mc.stats().counter_cache_writebacks, 1);
    }

    #[test]
    fn xbank_separates_data_and_counter_banks() {
        let mut c = cfg();
        c.counter_placement = CounterPlacement::CrossBank;
        c.cwc = false;
        let mut mc = MemoryController::new(&c);
        // Page 0 -> bank 0; its counters must land in bank 4.
        let t = mc.flush_line(LineAddr(0), [1; 64], 0);
        mc.finish(t);
        assert_eq!(mc.stats().bank_writes[0], 1);
        assert_eq!(mc.stats().bank_writes[4], 1);
    }

    #[test]
    fn single_bank_funnels_counters_to_last_bank() {
        let mut c = cfg();
        c.counter_placement = CounterPlacement::SingleBank;
        c.cwc = false;
        let mut mc = MemoryController::new(&c);
        let mut t = 0;
        for p in 0..4u64 {
            t = mc.flush_line(LineAddr(p * 4096), [1; 64], t);
        }
        mc.finish(t);
        assert_eq!(mc.stats().bank_writes[7], 4, "all counters in bank 7");
    }

    #[test]
    fn read_forwards_from_pending_write() {
        let mut c = cfg();
        // Huge queue so nothing drains at t=0.
        c.write_queue_entries = 128;
        let mut mc = MemoryController::new(&c);
        let line = LineAddr(0x2000);
        let retire = mc.flush_line(line, [7; 64], 0);
        // Read while the entry is still pending (one cycle before it
        // becomes issuable): it must be forwarded from the queue.
        let (data, done) = mc.read_line(line, retire - 1);
        assert_eq!(data, [7; 64]);
        assert!(mc.stats().wq_read_forwards >= 1);
        assert_eq!(done, retire - 1 + FORWARD_LATENCY);
    }

    #[test]
    fn crash_preserves_adr_write_queue() {
        let mut mc = MemoryController::new(&cfg());
        let line = LineAddr(0x8000);
        let retire = mc.flush_line(line, [3; 64], 0);
        // Crash immediately: entries are still queued but in the ADR
        // domain, so they survive.
        let image = mc.crash_now();
        let page = mc.map().page_of_line(line);
        let idx = mc.map().line_index_in_page(line);
        let ctr = CounterLine::decode(&image.store.read_counter(page));
        assert_eq!(ctr.minor(idx), 1);
        let engine = EncryptionEngine::new(cfg().encryption_key());
        let plain = engine.decrypt_line(&image.store.read_data(line), line.0, ctr.major(), 1);
        assert_eq!(plain, [3; 64]);
        let _ = retire;
    }

    #[test]
    fn atomic_append_keeps_pairs_together_across_crash() {
        // With the register, any armed crash point sees counter and data
        // either both present or both absent.
        for crash_at in 1..=4u64 {
            let mut mc = MemoryController::new(&cfg());
            mc.arm_crash_after_appends(crash_at);
            let mut t = 0;
            for i in 0..4u64 {
                t = mc.flush_line(LineAddr(i * 4096), [0xC0 + i as u8; 64], t);
            }
            let image = mc.take_crash_image().expect("crash must trigger");
            let engine = EncryptionEngine::new(cfg().encryption_key());
            for i in 0..crash_at {
                let line = LineAddr((i) * 4096);
                let page = PageId(i);
                let ctr = CounterLine::decode(&image.store.read_counter(page));
                if i < crash_at {
                    assert_eq!(ctr.minor(0), 1, "counter persisted for flush {i}");
                    let plain = engine.decrypt_line(&image.store.read_data(line), line.0, 0, 1);
                    assert_eq!(plain, [0xC0 + i as u8; 64], "data persisted for flush {i}");
                }
            }
        }
    }

    #[test]
    fn nonatomic_append_exposes_figure6_window() {
        // Without the register, a crash can land after the counter append
        // but before the data append: the new counter is durable, the old
        // data is still in place, and decryption fails (Figure 6).
        let mut c = cfg();
        c.atomic_pair_append = false;
        let line = LineAddr(0x6000);
        // First write the line once so it holds real old data.
        let mut mc = MemoryController::with_store(&c, NvmStore::new());
        let t = mc.flush_line(line, [0x01; 64], 0);
        mc.finish(t);
        let base = mc.store().clone();

        let mut mc = MemoryController::with_store(&c, base);
        mc.arm_crash_after_appends(1); // right between counter and data
        mc.flush_line(line, [0x02; 64], 0);
        let image = mc.take_crash_image().expect("crash armed");
        let page = PageId(line.0 / 4096);
        let idx = (line.0 % 4096) / 64;
        let ctr = CounterLine::decode(&image.store.read_counter(page));
        assert_eq!(ctr.minor(idx as usize), 2, "new counter persisted");
        let engine = EncryptionEngine::new(c.encryption_key());
        let plain = engine.decrypt_line(
            &image.store.read_data(line),
            line.0,
            ctr.major(),
            ctr.minor(idx as usize),
        );
        assert_ne!(plain, [0x01; 64], "old data no longer decryptable");
        assert_ne!(plain, [0x02; 64], "new data never became durable");
    }

    #[test]
    fn battery_backed_write_back_survives_crash() {
        let mut c = cfg();
        c.counter_cache_mode = CounterCacheMode::WriteBack;
        c.counter_cache_backing = CounterCacheBacking::Battery;
        let mut mc = MemoryController::new(&c);
        let line = LineAddr(0x3000);
        mc.flush_line(line, [9; 64], 0);
        let image = mc.crash_now();
        let page = PageId(line.0 / 4096);
        let ctr = CounterLine::decode(&image.store.read_counter(page));
        assert_eq!(ctr.minor(((line.0 % 4096) / 64) as usize), 1);
    }

    #[test]
    fn unbacked_write_back_loses_counters_on_crash() {
        let mut c = cfg();
        c.counter_cache_mode = CounterCacheMode::WriteBack;
        c.counter_cache_backing = CounterCacheBacking::None;
        let mut mc = MemoryController::new(&c);
        let line = LineAddr(0x3000);
        mc.flush_line(line, [9; 64], 0);
        let image = mc.crash_now();
        let page = PageId(line.0 / 4096);
        let ctr = CounterLine::decode(&image.store.read_counter(page));
        assert_eq!(ctr.minor(12), 0, "counter lost: stale zero in NVM");
    }

    #[test]
    fn minor_overflow_triggers_reencryption_and_stays_readable() {
        let mut mc = MemoryController::new(&cfg());
        let line = LineAddr(0);
        let mut t = 0;
        for i in 0..128u64 {
            t = mc.flush_line(line, [i as u8; 64], t);
        }
        assert_eq!(mc.stats().pages_reencrypted, 1);
        let (data, _) = mc.read_line(line, t);
        assert_eq!(data, [127; 64]);
        // Another line of the same page must also still decrypt.
        let other = LineAddr(64);
        let t2 = mc.flush_line(other, [0xEE; 64], t);
        let (data, _) = mc.read_line(other, t2);
        assert_eq!(data, [0xEE; 64]);
    }

    #[test]
    fn reencryption_preserves_other_lines() {
        let mut mc = MemoryController::new(&cfg());
        let hot = LineAddr(0);
        let cold = LineAddr(64 * 10);
        let mut t = mc.flush_line(cold, [0xAB; 64], 0);
        for i in 0..128u64 {
            t = mc.flush_line(hot, [i as u8; 64], t);
        }
        assert!(mc.stats().pages_reencrypted >= 1);
        let (data, _) = mc.read_line(cold, t);
        assert_eq!(data, [0xAB; 64], "cold line survives page re-encryption");
    }

    #[test]
    fn counter_fetch_forwards_from_pending_queue_entry() {
        // Tiny counter cache: entry evicted while its write is pending.
        let mut c = cfg();
        c.counter_cache_bytes = 64; // one entry
        c.counter_cache_ways = 1;
        c.write_queue_entries = 128;
        let mut mc = MemoryController::new(&c);
        let a = LineAddr(0); // page 0
        let b = LineAddr(4096); // page 1 evicts page 0 from the 1-entry cc
        let t = mc.flush_line(a, [1; 64], 0);
        let t = mc.flush_line(b, [2; 64], t);
        // Flush to page 0 again: cc miss, but the pending WQ entry has
        // minor=1; NVM still has 0. The next minor must be 2.
        let t = mc.flush_line(a, [3; 64], t);
        mc.finish(t);
        let ctr = CounterLine::decode(&mc.store().read_counter(PageId(0)));
        assert_eq!(
            ctr.minor(0),
            2,
            "counter forwarding must see the pending value"
        );
        let (data, _) = mc.read_line(a, t + 10_000);
        assert_eq!(data, [3; 64]);
    }

    #[test]
    fn wq_backpressure_stalls_flushes() {
        let mut c = cfg();
        c.write_queue_entries = 4;
        c.cwc = false;
        c.counter_placement = CounterPlacement::SingleBank;
        let mut mc = MemoryController::new(&c);
        let mut t = 0;
        // All lines in one page: counter-cache hits keep the flush rate
        // high while every write lands in two banks only, so the 4-entry
        // queue must fill.
        for i in 0..32u64 {
            t = mc.flush_line(LineAddr(i % 64 * 64), [1; 64], t);
        }
        assert!(mc.stats().wq_stall_cycles > 0, "tiny queue must stall");
        assert!(mc.stats().wq_full_events > 0);
    }

    #[test]
    fn stats_accessors() {
        let mut mc = MemoryController::new(&cfg());
        mc.stats_mut().record_txn(10);
        assert_eq!(mc.stats().txn_commits, 1);
        assert_eq!(mc.wq_len(), 0);
    }

    /// Writes a line durably and returns the controller plus the retire
    /// cycle, for the media-fault tests below.
    fn settled_line(c: &Config, line: LineAddr, fill: u8) -> (MemoryController, Cycle) {
        let mut mc = MemoryController::new(c);
        let retire = mc.flush_line(line, [fill; 64], 0);
        let t = mc.finish(retire);
        (mc, t)
    }

    #[test]
    fn transient_read_failures_are_retried_through() {
        let line = LineAddr(0x4000);
        let (mut mc, t) = settled_line(&cfg(), line, 0x5A);
        let mut plan = FaultPlan::default();
        plan.fail_data_reads(line, 2);
        mc.attach_store_faults(plan);
        let (data, done) = mc.read_line(line, t);
        assert_eq!(data, [0x5A; 64], "retries must recover the data");
        assert_eq!(mc.stats().read_retries, 2);
        assert_eq!(mc.stats().poisoned_reads, 0);
        assert!(done > t, "backoff costs cycles");
    }

    #[test]
    fn exhausted_retries_poison_instead_of_panicking() {
        let line = LineAddr(0x4000);
        let (mut mc, t) = settled_line(&cfg(), line, 0x5A);
        let mut plan = FaultPlan::default();
        // One more failure than the initial attempt plus its retries.
        plan.fail_data_reads(line, 4);
        mc.attach_store_faults(plan);
        let (data, _) = mc.read_line(line, t);
        assert_eq!(data, [0; 64], "unreadable line answers poison");
        assert_eq!(mc.stats().poisoned_reads, 1);
        assert_eq!(mc.stats().read_retries, 3);
    }

    #[test]
    fn single_bit_flip_is_corrected_and_counted() {
        let line = LineAddr(0x4000);
        let (mut mc, t) = settled_line(&cfg(), line, 0x5A);
        let mut plan = FaultPlan::default();
        plan.flip_data_bit(line, 17);
        mc.attach_store_faults(plan);
        let (data, _) = mc.read_line(line, t);
        assert_eq!(data, [0x5A; 64], "SECDED corrects a single wrong bit");
        assert!(mc.stats().ecc_corrections >= 1);
        assert_eq!(mc.stats().poisoned_reads, 0);
    }

    #[test]
    fn double_bit_flip_is_detected_and_poisoned() {
        let line = LineAddr(0x4000);
        let (mut mc, t) = settled_line(&cfg(), line, 0x5A);
        let mut plan = FaultPlan::default();
        plan.flip_data_bit(line, 3);
        plan.flip_data_bit(line, 100);
        mc.attach_store_faults(plan);
        let (data, _) = mc.read_line(line, t);
        assert_eq!(data, [0; 64], "uncorrectable line answers poison");
        assert_eq!(mc.stats().poisoned_reads, 1);
        assert!(mc.store().fault_counters().ecc_detections >= 1);
    }

    #[test]
    fn failed_bank_degrades_reads_and_writes() {
        let c = cfg();
        let line = LineAddr(0x4000);
        let (mut mc, t) = settled_line(&c, line, 0x5A);
        let map = AddressMap::new(c.nvm_bytes, c.line_bytes, c.page_bytes, c.banks);
        assert!(!mc.is_degraded());
        mc.mark_bank_failed(map.data_bank(line));
        assert!(mc.is_degraded());
        // Reads of the dead bank answer poison, not a wedge or a panic.
        let (data, _) = mc.read_line(line, t);
        assert_eq!(data, [0; 64]);
        assert_eq!(mc.stats().poisoned_reads, 1);
        // Writes headed there are dropped and counted.
        let dropped_before = mc.stats().dropped_writes;
        let retire = mc.flush_line(line, [0x77; 64], t);
        mc.finish(retire);
        assert!(mc.stats().dropped_writes > dropped_before);
    }

    fn streaming_cfg(levels: u32) -> Config {
        let c = cfg()
            .with_integrity_tree(true)
            .with_persisted_levels(Some(levels));
        // Justified panic: a malformed test config is a test bug.
        #[allow(clippy::disallowed_methods)]
        c.validate().expect("streaming test config valid");
        c
    }

    #[test]
    fn streaming_run_arms_updates_and_persists_tree_nodes() {
        let mut mc = MemoryController::new(&streaming_cfg(2));
        let mut t = 0;
        for i in 0..8u64 {
            t = mc.flush_line(LineAddr(i * 4096), [i as u8; 64], t);
        }
        assert!(mc.stats().tree_updates_enqueued > 0);
        assert!(
            mc.tree_pending_len() > 0,
            "updates stay armed until a fence"
        );
        mc.fence_tree_flush(t);
        assert_eq!(mc.tree_pending_len(), 0, "fence drains the pending cache");
        assert!(mc.stats().tree_propagations >= 8);
        mc.finish(t);
        assert!(mc.stats().nvm_tree_writes > 0, "node lines reach the media");
        assert!(!mc.store().tree_lines().is_empty());
    }

    #[test]
    fn streaming_cache_pressure_evicts_oldest_leaf() {
        // More distinct pages than pending-cache slots: the oldest armed
        // leaves must propagate on their own, without any fence.
        let mut mc = MemoryController::new(&streaming_cfg(1));
        let mut t = 0;
        for i in 0..24u64 {
            t = mc.flush_line(LineAddr(i * 4096), [i as u8; 64], t);
        }
        assert!(mc.stats().tree_evictions > 0);
        assert!(mc.stats().tree_propagations > 0);
        let _ = t;
    }

    #[test]
    fn repeated_writes_to_one_page_coalesce_in_tree_cache() {
        let mut mc = MemoryController::new(&streaming_cfg(2));
        let mut t = 0;
        for i in 0..8u64 {
            t = mc.flush_line(LineAddr(i * 64), [i as u8; 64], t);
        }
        assert!(mc.stats().tree_updates_coalesced >= 7);
        assert_eq!(mc.tree_pending_len(), 1);
        let _ = t;
    }

    #[test]
    fn streaming_crash_root_matches_eager_root() {
        // The ADR battery flushes the pending cache at power loss, so a
        // streaming crash image must agree with the eager tree about the
        // root over the same write sequence.
        let eager_cfg = cfg().with_integrity_tree(true);
        let mut eager = MemoryController::new(&eager_cfg);
        let mut lazy = MemoryController::new(&streaming_cfg(2));
        let (mut te, mut tl) = (0, 0);
        for i in 0..12u64 {
            let line = LineAddr((i % 5) * 4096 + (i * 64) % 4096);
            te = eager.flush_line(line, [i as u8; 64], te);
            tl = lazy.flush_line(line, [i as u8; 64], tl);
        }
        let img_e = eager.crash_now();
        let img_l = lazy.crash_now();
        assert!(img_e.bmt_root.is_some());
        assert_eq!(img_e.bmt_root, img_l.bmt_root);
        // And the flushed node lines land in the image's tree region.
        assert!(!img_l.store.tree_lines().is_empty());
    }

    #[test]
    fn eager_mode_never_touches_the_tree_queue_path() {
        // The safety rail: with persisted_levels unset the streaming
        // machinery is dormant — no tree WQ traffic, no armed updates.
        let mut mc = MemoryController::new(&cfg().with_integrity_tree(true));
        let mut t = 0;
        for i in 0..8u64 {
            t = mc.flush_line(LineAddr(i * 4096), [i as u8; 64], t);
        }
        mc.fence_tree_flush(t);
        mc.finish(t);
        assert_eq!(mc.stats().tree_updates_enqueued, 0);
        assert_eq!(mc.stats().nvm_tree_writes, 0);
        assert_eq!(mc.tree_pending_len(), 0);
        assert!(mc.store().tree_lines().is_empty());
    }
}
