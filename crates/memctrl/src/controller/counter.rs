//! Counter-update stage of the write path.
//!
//! Owns every interaction with the split-counter metadata: fetching the
//! authoritative counter line (counter cache, forwarded write-queue
//! entry, or NVM), incrementing minors, resolving a minor overflow via
//! whole-page re-encryption (§3.4.4), and pushing counter lines back
//! toward NVM from the write-back cache.

use supermem_crypto::counter::IncrementOutcome;
use supermem_crypto::CounterLine;
use supermem_integrity::Propagation;
use supermem_nvm::addr::PageId;
use supermem_nvm::bank::OpKind;
use supermem_sim::{Cycle, Event, Mutation};

use crate::wqueue::WqTarget;

use super::{MemoryController, FORWARD_LATENCY};

/// The source of a page's counters on a counter-cache miss.
enum UncachedCounter {
    /// The newest queued counter write.
    Queued(CounterLine),
    /// The counter bank has fail-stopped: reads are poisoned.
    FailedBank,
    /// NVM, on this channel-local bank.
    Nvm(usize),
}

impl MemoryController {
    /// Fetches the counter, increments the target minor, and resolves a
    /// minor overflow by re-encrypting the whole page before retrying
    /// the increment. Returns the post-increment counters and the cycle
    /// at which they are ready.
    pub(super) fn counter_update(
        &mut self,
        page: PageId,
        idx: usize,
        at: Cycle,
    ) -> (CounterLine, Cycle) {
        let (mut ctr, mut t_ctr) = self.fetch_counter(page, at);
        if ctr.increment(idx) == IncrementOutcome::Overflow {
            t_ctr = self.reencrypt_page(page, &mut ctr, t_ctr);
            match ctr.increment(idx) {
                IncrementOutcome::Incremented(_) => {}
                IncrementOutcome::Overflow => unreachable!("fresh minors cannot overflow"),
            }
        }
        (ctr, t_ctr)
    }

    /// Fetches the authoritative counters for `page`: counter cache, then
    /// a pending write-queue entry (the NVM copy may lag it), then NVM.
    /// Returns the counters and the cycle at which they are available.
    pub(super) fn fetch_counter(&mut self, page: PageId, at: Cycle) -> (CounterLine, Cycle) {
        let t = at + self.cfg.counter_cache_latency;
        if let Some(ctr) = self.cc.get(page) {
            let ctr = ctr.clone();
            self.stats.counter_cache_hits += 1;
            self.probes.emit_with(|| Event::CounterCacheHit {
                page: page.0,
                at: t,
            });
            return (ctr, t);
        }
        self.stats.counter_cache_misses += 1;
        self.probes.emit_with(|| Event::CounterCacheMiss {
            page: page.0,
            at: t,
        });
        let bank = match self.uncached_counter(page) {
            UncachedCounter::Queued(ctr) => {
                self.stats.wq_read_forwards += 1;
                self.fill_counter_cache(page, ctr.clone(), t + FORWARD_LATENCY);
                return (ctr, t + FORWARD_LATENCY);
            }
            UncachedCounter::FailedBank => {
                // Degraded mode: poison (fresh, all-zero) counters; skip
                // the cache fill so later reads can see a repaired bank.
                self.stats.poisoned_reads += 1;
                return (CounterLine::decode(&[0; 64]), t + 1);
            }
            UncachedCounter::Nvm(bank) => bank,
        };
        let mut done = self.banks[bank].issue(OpKind::Read, t);
        self.stats.nvm_counter_reads += 1;
        let read_service = self.cfg.nvm_read_service_cycles();
        let gbank = self.bank_base + bank;
        self.probes.emit_with(|| Event::BankBusy {
            bank: gbank,
            start: done - read_service,
            end: done,
            write: false,
        });
        let (raw, done_media) = self.media_read_counter(page, bank, done);
        done = done_media;
        let Some(raw) = raw else {
            self.stats.poisoned_reads += 1;
            return (CounterLine::decode(&[0; 64]), done);
        };
        // Counters arriving from (attacker-writable) NVM are verified
        // against the trusted root before use. In streaming mode any
        // armed update for this page must propagate first, or the leaf
        // digest would lag the line the write queue already drained.
        if self.bmt.is_some() && page.0 < self.cfg.integrity_pages {
            if self.cfg.streaming_tree() {
                let prop = match &mut self.bmt {
                    Some(bmt) => bmt.propagate_page(page.0),
                    None => None,
                };
                if let Some(prop) = prop {
                    self.apply_tree_propagation(&prop, done);
                }
            }
            if let Some(bmt) = &self.bmt {
                self.stats.integrity_verifications += 1;
                done += self.cfg.hash_latency * bmt.height() as Cycle;
                if !bmt.verify(page.0, &raw) {
                    self.stats.integrity_violations += 1;
                }
            }
        }
        let ctr = CounterLine::decode(&raw);
        self.fill_counter_cache(page, ctr.clone(), done);
        (ctr, done)
    }

    /// Where the counters of `page` come from when the counter cache
    /// misses: a queued counter write (the NVM copy may lag it), else
    /// NVM, unless the counter bank has failed.
    fn uncached_counter(&self, page: PageId) -> UncachedCounter {
        if let Some(entry) = self.wq.forward_counter(page) {
            return UncachedCounter::Queued(CounterLine::decode(&entry.payload));
        }
        let bank = self.ctr_bank(page);
        if self.banks[bank].is_failed() {
            UncachedCounter::FailedBank
        } else {
            UncachedCounter::Nvm(bank)
        }
    }

    /// The counters [`Self::fetch_counter`] would return for a `page`
    /// the counter cache misses, without its side effects.
    pub(super) fn peek_uncached_counter(&self, page: PageId) -> CounterLine {
        match self.uncached_counter(page) {
            UncachedCounter::Queued(ctr) => ctr,
            UncachedCounter::FailedBank => CounterLine::decode(&[0; 64]),
            UncachedCounter::Nvm(_) => CounterLine::decode(&self.store.read_counter(page)),
        }
    }

    /// Inserts counters into the counter cache; a dirty write-back
    /// eviction becomes a counter write to NVM.
    fn fill_counter_cache(&mut self, page: PageId, ctr: CounterLine, at: Cycle) {
        if let Some((evicted_page, evicted_ctr, dirty)) = self.cc.fill(page, ctr) {
            if dirty {
                self.stats.counter_cache_writebacks += 1;
                let t = self.wait_slots(1, at);
                self.append_counter(evicted_page, evicted_ctr.encode(), t);
                self.note_append_event();
            }
        }
    }

    /// Folds a counter write into the integrity tree (the hash engine
    /// runs alongside the write path; its latency is off the retire
    /// critical path because the tree root is an on-chip register).
    ///
    /// Eager mode recomputes the whole path to the root synchronously.
    /// Streaming mode instead *arms* the leaf digest in the bounded
    /// pending-update cache; repeat writes to the same page coalesce in
    /// place, and a full cache evicts its oldest entry, whose
    /// persisted-level node updates enter the write queue as
    /// first-class traffic.
    pub(super) fn note_counter_write(&mut self, page: PageId, encoded: &[u8; 64], at: Cycle) {
        if self.bmt.is_none() || page.0 >= self.cfg.integrity_pages {
            return;
        }
        if !self.cfg.streaming_tree() {
            if let Some(bmt) = &mut self.bmt {
                bmt.update(page.0, encoded);
            }
            return;
        }
        // Injected defect (tree-skip): the counter line enqueues but
        // the tree is never armed — its data can drain uncovered (T2).
        if self.cfg.mutation == Some(Mutation::TreeSkip) {
            return;
        }
        self.stats.tree_updates_enqueued += 1;
        self.probes
            .emit_with(|| Event::TreeArm { page: page.0, at });
        let outcome = match &mut self.bmt {
            Some(bmt) => bmt.enqueue_update(page.0, encoded),
            None => return, // unreachable: bmt presence checked above
        };
        if outcome.coalesced {
            self.stats.tree_updates_coalesced += 1;
        }
        if let Some(prop) = outcome.eviction {
            self.stats.tree_evictions += 1;
            self.apply_tree_propagation(&prop, at);
        }
    }

    /// Lands a finished propagation: per-leaf accounting and root
    /// latching, then one write-queue append per touched persisted-level
    /// node-group line (visible to stats, probes, and bank scheduling
    /// like any other write).
    pub(super) fn apply_tree_propagation(&mut self, prop: &Propagation, at: Cycle) {
        for &page in &prop.pages {
            self.stats.tree_propagations += 1;
            self.probes.emit_with(|| Event::TreePropagate { page, at });
            // The on-chip root register latches exactly once per
            // propagated leaf.
            self.probes.emit_with(|| Event::TreeRootUpdate { at });
            if self.cfg.mutation == Some(Mutation::TreeDoubleRoot) {
                // Injected defect: a second spurious latch per leaf —
                // T3's exactly-once audit must notice.
                self.probes.emit_with(|| Event::TreeRootUpdate { at });
            }
        }
        for w in &prop.node_writes {
            let id = w.line_id();
            let bank = self.tree_bank(id);
            // Three slots: this append plus headroom for a staged
            // data+counter pair the caller may already have reserved
            // (Config::validate guarantees capacity >= 4 in streaming
            // mode).
            let t = self.wait_slots(3, at);
            let seq = self.wq.append(WqTarget::Tree(id), bank, w.payload, None, t);
            let level = w.level;
            self.probes.emit_with(|| Event::TreeNodeEnqueue {
                level,
                line: id,
                seq,
                at: t,
            });
        }
    }

    /// Flushes every armed leaf update out of the streaming pending
    /// cache. After this call the persisted-level node updates are in
    /// the ADR write queue and the root register is current. No-op in
    /// eager mode (the tree is always current there).
    pub(super) fn flush_tree_pending(&mut self, at: Cycle) {
        if !self.cfg.streaming_tree() {
            return;
        }
        let prop = match &mut self.bmt {
            Some(bmt) if bmt.pending_len() > 0 => bmt.propagate_pending(),
            _ => return,
        };
        self.apply_tree_propagation(&prop, at);
    }

    /// The fence hook of the streaming tree: an `sfence` must not retire
    /// with armed leaf updates still pending (T1), so the fence drains
    /// the pending cache.
    pub fn fence_tree_flush(&mut self, at: Cycle) {
        // Injected defect (tree-late): the fence "forgets" the tree —
        // armed updates stay pending across the retire.
        if self.cfg.mutation == Some(Mutation::TreeLate) {
            return;
        }
        self.flush_tree_pending(at);
    }

    /// Destination bank of a tree node-group line (hashed over the
    /// packed line id; tree metadata interleaves across all banks).
    pub(super) fn tree_bank(&self, id: u64) -> usize {
        (id % self.cfg.banks as u64) as usize
    }

    /// Dirty counter-cache entries (crash snapshots of a battery-backed
    /// write-back cache persist these).
    pub(super) fn cc_dirty_entries(&self) -> Vec<(PageId, CounterLine)> {
        self.cc.dirty_entries()
    }

    /// Re-encrypts `page` after a minor-counter overflow (§3.4.4):
    /// reads all 64 lines, decrypts under the old counters, re-encrypts
    /// under `major + 1` with zeroed minors, and appends the rewrites.
    /// `ctr` is updated in place. The caller persists the new counter
    /// line through its normal path.
    fn reencrypt_page(&mut self, page: PageId, ctr: &mut CounterLine, at: Cycle) -> Cycle {
        self.stats.pages_reencrypted += 1;
        self.probes
            .emit_with(|| Event::ReencryptStart { page: page.0, at });
        // No stale ciphertext for this page may drain after the rewrite:
        // push out everything pending first.
        let t0 = self.wq.drain_all(
            at,
            &mut self.banks,
            &mut self.store,
            &mut self.stats,
            &mut self.probes,
        );
        let old = ctr.clone();
        self.rsr = Some(crate::rsr::Rsr::new(page, old.major()));
        ctr.bump_major();
        let data_bank = self.map.page_bank(page);
        let gbank = self.bank_base + data_bank;
        let mut t = t0;
        for idx in 0..self.map.lines_per_page() as usize {
            let line = self.map.line_in_page(page, idx);
            let done_read = self.banks[data_bank].issue(OpKind::Read, t);
            self.stats.nvm_data_reads += 1;
            let read_service = self.cfg.nvm_read_service_cycles();
            self.probes.emit_with(|| Event::BankBusy {
                bank: gbank,
                start: done_read - read_service,
                end: done_read,
                write: false,
            });
            let cipher_old = self.store.read_data(line);
            let plain = self
                .engine
                .decrypt_line(&cipher_old, line.0, old.major(), old.minor(idx));
            let cipher_new = self.engine.encrypt_line(&plain, line.0, ctr.major(), 0);
            let tag = self
                .cfg
                .osiris_window
                .map(|_| supermem_crypto::line_tag(&plain));
            let t_app = self.wait_slots(1, done_read + self.cfg.aes_latency);
            let seq = self.wq.append_tagged(
                WqTarget::Data(line),
                data_bank,
                cipher_new,
                Some((ctr.major(), 0)),
                tag,
                t_app,
            );
            self.note_enqueue(WqTarget::Data(line), data_bank, t_app, seq);
            // Injected defect (rsr-skip): line 0's done-bit is never set,
            // so the RSR can never retire and a crash after this rewrite
            // replays the line under an ambiguous epoch.
            let skip_done = self.cfg.mutation == Some(supermem_sim::Mutation::RsrSkip) && idx == 0;
            if !skip_done {
                if let Some(r) = self.rsr.as_mut() {
                    r.set_done(idx);
                    self.probes.emit_with(|| Event::RsrMarkDone {
                        page: page.0,
                        idx: idx as u32,
                        at: t_app,
                    });
                }
            }
            self.note_append_event();
            t = t_app;
        }
        let lines = self.map.lines_per_page() as u32;
        self.probes.emit_with(|| Event::ReencryptDone {
            page: page.0,
            lines,
            at: t,
        });
        t
    }

    /// Explicitly writes back one page's dirty counter line from the
    /// write-back counter cache (the `counter_cache_writeback()`
    /// primitive of Liu et al.'s selective counter-atomicity, discussed
    /// in the paper's §2.3/§6). Returns the retire cycle, or `at` if the
    /// page's counters are clean or absent.
    pub fn writeback_page_counters(&mut self, page: PageId, at: Cycle) -> Cycle {
        // Only dirty entries need persisting; `is_dirty` tests this
        // without LRU side effects (and, unlike snapshotting the full
        // dirty set, without cloning every dirty counter line).
        if !self.cc.is_dirty(page) {
            return at;
        }
        // Justified panic: `is_dirty` returned true just above, and only
        // resident pages can be dirty.
        #[allow(clippy::disallowed_methods)]
        let encoded = self
            .cc
            .peek(page)
            .expect("dirty page must be resident")
            .encode();
        let t = self.wait_slots(1, at + self.cfg.counter_cache_latency);
        self.append_counter(page, encoded, t);
        self.note_append_event();
        self.cc.clear_dirty(page);
        t
    }
}
