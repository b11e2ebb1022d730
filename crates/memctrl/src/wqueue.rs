//! The ADR-protected write queue with counter write coalescing.
//!
//! Entries reaching this queue are durable (the ADR battery drains them
//! to NVM on a power failure, §2.1), so a cache-line flush *retires* the
//! moment its entry is appended. Each entry carries the paper's one-bit
//! flag distinguishing counter-cache lines from CPU-cache lines, which
//! bounds the CWC search (§3.4.3).
//!
//! CWC: when a new counter line for page `p` arrives and an older counter
//! entry for `p` is still pending, the *older* entry is removed and the
//! new one appended at the tail — the newer line supersedes the older
//! one's contents (split counters are monotone), and keeping the younger
//! entry maximizes further merging (Figure 10/11).
//!
//! Draining: entries issue to banks oldest-first among the entries whose
//! target bank is free — a compact FR-FCFS-like policy. An entry's queue
//! slot is released when its bank begins service.

use std::collections::hash_map::Entry;
use supermem_nvm::addr::{LineAddr, PageId};
use supermem_nvm::bank::{BankTimer, OpKind};
use supermem_nvm::fault::{tear_line, DrainTear, FaultPlan};
use supermem_nvm::{LineData, NvmStore};

use supermem_sim::{Cycle, Event, FxHashMap, Probes, Stats};

/// What a write-queue entry targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WqTarget {
    /// An (encrypted) data line.
    Data(LineAddr),
    /// The counter line of a page.
    Counter(PageId),
    /// An integrity-tree node-group line, keyed by the packed
    /// `(level, group)` id ([`supermem_integrity::tree_line_id`]).
    /// Streaming-tree propagation emits these as first-class write-queue
    /// traffic; they are invisible in eager mode.
    Tree(u64),
}

/// One pending write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WqEntry {
    /// Target line.
    pub target: WqTarget,
    /// Destination bank (already resolved by the placement policy).
    pub bank: usize,
    /// The 64 bytes to persist (ciphertext for data, raw for counters).
    pub payload: LineData,
    /// For data entries: the (major, minor) used at encryption time, so
    /// forwarded reads can decrypt without consulting the counter store.
    pub enc_counter: Option<(u64, u8)>,
    /// ECC-derived plaintext tag (Osiris mode); persisted beside the
    /// line at no extra write cost.
    pub tag: Option<u64>,
    /// Cycle at which the entry became eligible to issue.
    pub ready: Cycle,
    /// Monotonic appendage order (FIFO tiebreak).
    pub seq: u64,
}

impl WqEntry {
    /// The paper's flag bit: `true` for entries from the counter cache.
    pub fn is_counter(&self) -> bool {
        matches!(self.target, WqTarget::Counter(_))
    }
}

/// "No slot": the end of a same-target chain, or a bank without a
/// candidate.
const NIL: usize = usize::MAX;

/// Packed candidate key of a bank with no eligible slot.
const NO_CANDIDATE: u128 = u128::MAX;

/// Packs an issue candidate as `start << 64 | seq`, so one integer
/// compare orders candidates by start, then FIFO.
fn pack(start: Cycle, seq: u64) -> u128 {
    (u128::from(start) << 64) | u128::from(seq)
}

/// The service start of a packed candidate ([`Cycle::MAX`] for
/// [`NO_CANDIDATE`]).
fn start_of(key: u128) -> Cycle {
    (key >> 64) as Cycle
}

/// The scheduling key of one occupied slot — everything the issue pick
/// reads, kept apart from the 64-byte payloads so recomputing a bank's
/// candidate touches only these — plus the slot's links in its
/// target's age-ordered chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SlotKey {
    ready: Cycle,
    seq: u64,
    bank: usize,
    /// The next older pending write to the same target, or [`NIL`] when
    /// this slot is the chain's front (and therefore eligible).
    older: usize,
    /// The next younger pending write to the same target, or [`NIL`].
    younger: usize,
}

impl Default for SlotKey {
    fn default() -> Self {
        Self {
            ready: 0,
            seq: 0,
            bank: 0,
            older: NIL,
            younger: NIL,
        }
    }
}

/// Per-bank issue state: the best eligible write headed for the bank
/// under the bank timer value `seen`.
///
/// A write's service start is `max(ready, busy_until)`, so the best
/// candidate is a pure function of the eligible set and `busy_until`:
/// the cache stays exact until one of the two changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BankSched {
    /// The bank's `busy_until` when the queue last read its timer.
    seen: Cycle,
    /// Packed `(start, seq)` of the bank's next write under `seen`
    /// ([`NO_CANDIDATE`] when none is eligible); meaningful only while
    /// `fresh`.
    best: u128,
    /// The slot holding `best` ([`NIL`] when there is none).
    best_slot: usize,
    /// `best` is exact for `seen`. Cleared when the best slot leaves;
    /// the next pick recomputes the bank against its live timer.
    fresh: bool,
}

impl BankSched {
    /// A bank the queue has not seen yet: idle timer, no candidate.
    const NEW: Self = Self {
        seen: 0,
        best: NO_CANDIDATE,
        best_slot: NIL,
        fresh: true,
    };
}

/// The memory controller's write queue.
///
/// # Examples
///
/// ```
/// use supermem_memctrl::{WriteQueue, WqTarget};
/// use supermem_nvm::addr::LineAddr;
///
/// let mut wq = WriteQueue::new(32, true);
/// assert_eq!(wq.free_slots(), 32);
/// ```
#[derive(Debug, Clone)]
pub struct WriteQueue {
    /// Slab of `capacity` slots; `None` slots are free.
    slots: Vec<Option<WqEntry>>,
    /// Schedule key and chain links of each occupied slot (left over in
    /// free slots).
    keys: Vec<SlotKey>,
    /// Free slot indices (reuse order is irrelevant to results).
    free: Vec<usize>,
    /// Target → `(oldest, newest)` slot of its pending writes, which
    /// are threaded oldest to newest through [`SlotKey::younger`]. The
    /// front is the oldest pending write to the target, which makes
    /// CWC, read forwarding, and the same-address ordering rule (only a
    /// chain front is eligible) O(1) per entry, with no per-target
    /// allocation.
    index: FxHashMap<WqTarget, (usize, usize)>,
    /// Per-bank candidates, indexed by channel-local bank.
    sched: Vec<BankSched>,
    /// Per-bank eligible-slot bitsets, `words` `u64`s per bank: bit `s`
    /// of bank `b` is set iff slot `s` fronts its chain and targets `b`.
    eligible: Vec<u64>,
    /// Bitset words per bank (`capacity.div_ceil(64)`).
    words: usize,
    /// A lower bound on `max(ready, seen)` over every eligible slot
    /// (with `seen` its bank's [`BankSched::seen`]); [`Cycle::MAX`] when
    /// nothing is eligible. A full pick sets it exactly and a newly
    /// eligible slot lowers it, so while no bank timer has moved below
    /// its `seen`, nothing can start before it.
    floor: Cycle,
    capacity: usize,
    cwc: bool,
    seq: u64,
    /// Offset added to entry bank indices when reporting stats/events, so
    /// a per-channel queue attributes its writes to machine-global bank
    /// ids (`channel * banks_per_channel + local_bank`). Entry `bank`
    /// fields stay channel-local (they index the channel's bank timers).
    bank_base: usize,
    /// When false, the issue pick ignores the cached bank candidates and
    /// recomputes every bank on every call, and no drain is skipped (the
    /// reference behavior the equivalence tests A/B against).
    fast_forward: bool,
}

impl WriteQueue {
    /// Creates an empty queue of `capacity` entries; `cwc` enables
    /// counter write coalescing.
    ///
    /// # Panics
    ///
    /// Panics if `capacity < 2` (a data+counter pair must fit).
    pub fn new(capacity: usize, cwc: bool) -> Self {
        assert!(capacity >= 2, "write queue must hold a data+counter pair");
        Self {
            slots: (0..capacity).map(|_| None).collect(),
            keys: vec![SlotKey::default(); capacity],
            free: (0..capacity).rev().collect(),
            index: FxHashMap::default(),
            sched: Vec::new(),
            eligible: Vec::new(),
            words: capacity.div_ceil(64),
            floor: Cycle::MAX,
            capacity,
            cwc,
            seq: 0,
            bank_base: 0,
            fast_forward: true,
        }
    }

    /// Enables or disables the cached bank candidates and the drain gate
    /// (on by default). Both are exact — a bank is recomputed whenever
    /// its eligible set or its timer moved, and a drain is skipped only
    /// when nothing can issue — so this knob exists for A/B equivalence
    /// tests and for ruling them out while debugging.
    pub fn set_fast_forward(&mut self, enabled: bool) {
        self.fast_forward = enabled;
    }

    /// Whether a drain at `now` against `banks` could issue anything. A
    /// `false` answer is exact (the queue is empty, or every pending
    /// entry provably starts after `now`), so callers may skip the drain
    /// outright; a `true` answer is conservative and merely means
    /// "drain needed".
    ///
    /// O(1) plus one compare per bank: the answer is `false` when the
    /// queue's floor is after `now` and no bank timer has moved below
    /// the value the floor was computed with. Timers only move forward
    /// on a live controller (which only delays a write), but
    /// [`BankTimer::reset`] moves one backwards, and then the floor is
    /// no longer a bound until the next pick recomputes it.
    pub fn may_issue_by(&self, now: Cycle, banks: &[BankTimer]) -> bool {
        !self.is_empty()
            && (!self.fast_forward
                || self.floor <= now
                || self
                    .sched
                    .iter()
                    .zip(banks)
                    .any(|(s, timer)| timer.busy_until() < s.seen))
    }

    /// Sets the global-bank offset reported in stats and events (a
    /// channel's queue reports `bank_base + local_bank`).
    pub fn set_bank_base(&mut self, bank_base: usize) {
        self.bank_base = bank_base;
    }

    /// Entries currently pending.
    pub fn len(&self) -> usize {
        self.capacity - self.free.len()
    }

    /// True when no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.free.len() == self.capacity
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Free slots right now.
    pub fn free_slots(&self) -> usize {
        self.free.len()
    }

    /// Whether CWC is enabled.
    pub fn cwc_enabled(&self) -> bool {
        self.cwc
    }

    /// Occupied entries, any order.
    fn entries(&self) -> impl Iterator<Item = (usize, &WqEntry)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|e| (i, e)))
    }

    /// Removes and returns the entry in `slot`, unlinking it from its
    /// target chain (from any position).
    ///
    /// # Panics
    ///
    /// Panics if the slot is free (a queue-internal sequencing bug).
    // Justified panics: the `expect`s below are the documented sequencing
    // invariant above — slot, index, and chain links move together.
    #[allow(clippy::disallowed_methods)]
    fn remove_slot(&mut self, slot: usize) -> WqEntry {
        let e = self.slots[slot].take().expect("slot occupied");
        self.free.push(slot);
        let SlotKey { older, younger, .. } = self.keys[slot];
        if older != NIL {
            self.keys[older].younger = younger;
        }
        if younger != NIL {
            self.keys[younger].older = older;
        }
        // Only a chain's ends are recorded in the index.
        if older == NIL && younger == NIL {
            self.index.remove(&e.target);
        } else if older == NIL || younger == NIL {
            let ends = self
                .index
                .get_mut(&e.target)
                .expect("indexed target for occupied slot");
            if older == NIL {
                ends.0 = younger;
            } else {
                ends.1 = older;
            }
        }
        // Only a chain front is eligible; when it leaves, the next write
        // to the same target (if any) is unblocked.
        if older == NIL {
            self.make_ineligible(slot);
            if younger != NIL {
                self.make_eligible(younger);
            }
        }
        e
    }

    /// Marks `slot` (now the front of its target chain) issuable: sets
    /// its bank bit, folds it into the bank's cached candidate, and
    /// lowers the floor to its start under the bank's last-seen timer.
    fn make_eligible(&mut self, slot: usize) {
        let key = self.keys[slot];
        if key.bank >= self.sched.len() {
            self.sched.resize(key.bank + 1, BankSched::NEW);
            self.eligible.resize(self.sched.len() * self.words, 0);
        }
        self.eligible[key.bank * self.words + slot / 64] |= 1 << (slot % 64);
        let bank = &mut self.sched[key.bank];
        let start = key.ready.max(bank.seen);
        let cand = pack(start, key.seq);
        if bank.fresh && cand < bank.best {
            bank.best = cand;
            bank.best_slot = slot;
        }
        self.floor = self.floor.min(start);
    }

    /// Drops `slot` from its bank's eligible set. Losing the bank's
    /// best candidate leaves the bank stale until the next pick
    /// recomputes it against the live timer — on the issue path that
    /// timer is about to move anyway. The floor stays a lower bound.
    fn make_ineligible(&mut self, slot: usize) {
        let bank = self.keys[slot].bank;
        self.eligible[bank * self.words + slot / 64] &= !(1 << (slot % 64));
        let s = &mut self.sched[bank];
        if s.best_slot == slot {
            s.fresh = false;
            s.best = NO_CANDIDATE;
            s.best_slot = NIL;
        }
    }

    /// The best `(packed candidate, slot)` among `bank`'s eligible slots
    /// under timer value `busy`: one pass over the bank's bitset.
    fn bank_best(&self, bank: usize, busy: Cycle) -> (u128, usize) {
        let mut best = (NO_CANDIDATE, NIL);
        let words = &self.eligible[bank * self.words..(bank + 1) * self.words];
        for (w, &word) in words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let slot = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let k = &self.keys[slot];
                let cand = pack(k.ready.max(busy), k.seq);
                if cand < best.0 {
                    best = (cand, slot);
                }
            }
        }
        best
    }

    /// Pending entries as `(target, seq)` pairs, in queue (age) order
    /// (diagnostics).
    ///
    /// Allocation-free: each step is a min-scan over the (capacity-bounded,
    /// ≤ ~64-slot) slab for the next sequence number, so per-event probe
    /// inspection does not allocate a `Vec` on the hot path.
    pub fn pending(&self) -> impl Iterator<Item = (WqTarget, u64)> + '_ {
        let mut last_seq = 0u64;
        std::iter::from_fn(move || {
            let next = self
                .entries()
                .filter(|(_, e)| e.seq > last_seq)
                .min_by_key(|(_, e)| e.seq)
                .map(|(_, e)| (e.target, e.seq))?;
            last_seq = next.1;
            Some(next)
        })
    }

    /// Applies CWC for an incoming counter line of `page`: removes an
    /// older pending counter entry with the same address, if any.
    /// Returns the removed entry's sequence number if a merge happened.
    /// No-op when CWC is disabled.
    pub fn coalesce_counter(&mut self, page: PageId, stats: &mut Stats) -> Option<u64> {
        if !self.cwc {
            return None;
        }
        // The flag bit restricts the lookup to counter entries; at most
        // one can be pending because this very rule keeps them unique
        // per page.
        let &(oldest, _) = self.index.get(&WqTarget::Counter(page))?;
        let victim = self.remove_slot(oldest);
        stats.counter_writes_coalesced += 1;
        Some(victim.seq)
    }

    /// Appends an entry. The caller must have ensured a free slot via
    /// [`WriteQueue::wait_for_slots`].
    ///
    /// # Panics
    ///
    /// Panics if the queue is full — that is a controller sequencing bug.
    pub fn append(
        &mut self,
        target: WqTarget,
        bank: usize,
        payload: LineData,
        enc_counter: Option<(u64, u8)>,
        ready: Cycle,
    ) -> u64 {
        self.append_tagged(target, bank, payload, enc_counter, None, ready)
    }

    /// [`WriteQueue::append`] with an Osiris ECC tag attached.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full — that is a controller sequencing bug.
    pub fn append_tagged(
        &mut self,
        target: WqTarget,
        bank: usize,
        payload: LineData,
        enc_counter: Option<(u64, u8)>,
        tag: Option<u64>,
        ready: Cycle,
    ) -> u64 {
        // Justified panic: overflow is the documented contract violation.
        #[allow(clippy::disallowed_methods)]
        let slot = self
            .free
            .pop()
            .expect("write queue overflow: wait_for_slots first");
        self.seq += 1;
        self.slots[slot] = Some(WqEntry {
            target,
            bank,
            payload,
            enc_counter,
            tag,
            ready,
            seq: self.seq,
        });
        let mut key = SlotKey {
            ready,
            seq: self.seq,
            bank,
            older: NIL,
            younger: NIL,
        };
        match self.index.entry(target) {
            Entry::Occupied(mut ends) => {
                // Thread the slot behind the target's newest write; an
                // older write still blocks it from issuing.
                let newest = std::mem::replace(&mut ends.get_mut().1, slot);
                self.keys[newest].younger = slot;
                key.older = newest;
                self.keys[slot] = key;
            }
            Entry::Vacant(v) => {
                v.insert((slot, slot));
                self.keys[slot] = key;
                self.make_eligible(slot);
            }
        }
        self.seq
    }

    /// The newest pending entry for `target` (back of its chain).
    fn newest(&self, target: WqTarget) -> Option<&WqEntry> {
        let &(_, slot) = self.index.get(&target)?;
        self.slots[slot].as_ref()
    }

    /// The newest pending write to data line `line`, for read forwarding.
    pub fn forward_data(&self, line: LineAddr) -> Option<&WqEntry> {
        self.newest(WqTarget::Data(line))
    }

    /// The newest pending counter write for `page`, for counter-fetch
    /// forwarding (the NVM copy may be stale while an entry is pending).
    pub fn forward_counter(&self, page: PageId) -> Option<&WqEntry> {
        self.newest(WqTarget::Counter(page))
    }

    /// Index and start time of the next entry to issue: the entry with
    /// the earliest possible service start, FIFO order breaking ties.
    ///
    /// Same-address ordering: an entry is eligible only if no *older*
    /// entry targets the same line. Ready times can be non-monotonic
    /// (posted writes queued behind an earlier stall), and issuing two
    /// writes to one line out of order would persist the older payload
    /// last.
    ///
    /// The pick is the `(start, seq)` minimum over the per-bank cached
    /// candidates. A bank is recomputed only when it is stale or its
    /// timer no longer matches the value its candidate was computed for
    /// (or, with the cache off, always), so a call costs O(banks) plus
    /// one bitset pass per bank that changed. The minimum becomes the
    /// exact floor.
    fn next_issuable(&mut self, banks: &[BankTimer]) -> Option<(usize, Cycle)> {
        let mut best = (NO_CANDIDATE, NIL);
        for (bank, timer) in banks.iter().enumerate().take(self.sched.len()) {
            let busy = timer.busy_until();
            let s = self.sched[bank];
            let cand = if !self.fast_forward || !s.fresh || s.seen != busy {
                let (cand, slot) = self.bank_best(bank, busy);
                self.sched[bank] = BankSched {
                    seen: busy,
                    best: cand,
                    best_slot: slot,
                    fresh: true,
                };
                (cand, slot)
            } else {
                (s.best, s.best_slot)
            };
            if cand.0 < best.0 {
                best = cand;
            }
        }
        self.floor = start_of(best.0);
        (best.1 != NIL).then_some((best.1, self.floor))
    }

    fn issue_at(
        &mut self,
        idx: usize,
        banks: &mut [BankTimer],
        store: &mut NvmStore,
        stats: &mut Stats,
        probes: &mut Probes,
    ) -> Cycle {
        let e = self.remove_slot(idx);
        if banks[e.bank].is_failed() {
            // Degraded mode: the bank is gone, so the write is dropped
            // rather than wedging the queue behind dead hardware.
            stats.dropped_writes += 1;
            return e.ready;
        }
        let start = banks[e.bank].earliest_start(OpKind::Write, e.ready);
        let end = banks[e.bank].issue(OpKind::Write, e.ready);
        let global_bank = self.bank_base + e.bank;
        if stats.bank_writes.len() <= global_bank {
            stats.bank_writes.resize(global_bank + 1, 0);
        }
        stats.bank_writes[global_bank] += 1;
        // Tree node lines are metadata traffic: they occupy the bank like
        // any write, but they are not part of the WqEnqueue/WqIssue
        // ordering stream the checker audits (the T-rules track them
        // through TreeNodeEnqueue instead).
        if !matches!(e.target, WqTarget::Tree(_)) {
            probes.emit_with(|| Event::WqIssue {
                counter: e.is_counter(),
                addr: match e.target {
                    WqTarget::Data(line) => line.0,
                    WqTarget::Counter(page) => page.0,
                    WqTarget::Tree(id) => id,
                },
                seq: e.seq,
                bank: global_bank,
                ready: e.ready,
                start,
                occupancy: self.capacity - self.free.len(),
            });
        }
        probes.emit_with(|| Event::BankBusy {
            bank: global_bank,
            start,
            end,
            write: true,
        });
        match e.target {
            WqTarget::Data(line) => {
                stats.nvm_data_writes += 1;
                store.write_data(line, e.payload);
                if let Some(tag) = e.tag {
                    store.write_tag(line, tag);
                }
            }
            WqTarget::Counter(page) => {
                stats.nvm_counter_writes += 1;
                store.write_counter(page, e.payload);
            }
            WqTarget::Tree(id) => {
                stats.nvm_tree_writes += 1;
                store.write_tree(id, e.payload);
            }
        }
        start
    }

    /// Issues every entry whose service can start at or before `now`.
    pub fn drain_until(
        &mut self,
        now: Cycle,
        banks: &mut [BankTimer],
        store: &mut NvmStore,
        stats: &mut Stats,
        probes: &mut Probes,
    ) {
        if !self.may_issue_by(now, banks) {
            return;
        }
        while let Some((idx, start)) = self.next_issuable(banks) {
            if start > now {
                break;
            }
            self.issue_at(idx, banks, store, stats, probes);
        }
    }

    /// Blocks (in simulated time) until `needed` slots are free, issuing
    /// entries as required. Returns the cycle at which the slots are
    /// available, `>= from`. Stall time is charged to
    /// [`Stats::wq_stall_cycles`].
    ///
    /// # Panics
    ///
    /// Panics if `needed > capacity`.
    pub fn wait_for_slots(
        &mut self,
        needed: usize,
        from: Cycle,
        banks: &mut [BankTimer],
        store: &mut NvmStore,
        stats: &mut Stats,
        probes: &mut Probes,
    ) -> Cycle {
        assert!(needed <= self.capacity, "cannot wait for {needed} slots");
        // Opportunistically drain what has already had time to issue.
        self.drain_until(from, banks, store, stats, probes);
        if self.free_slots() >= needed {
            return from;
        }
        stats.wq_full_events += 1;
        let mut t = from;
        while self.free_slots() < needed {
            // Justified panic: a full queue always has an issuable entry
            // (every occupied slot eventually becomes ready).
            #[allow(clippy::disallowed_methods)]
            let (idx, start) = self
                .next_issuable(banks)
                .expect("full queue must have an issuable entry");
            let freed_at = start.max(t);
            self.issue_at(idx, banks, store, stats, probes);
            t = freed_at;
        }
        stats.wq_stall_cycles += t - from;
        probes.emit_with(|| Event::WqStall {
            needed,
            from,
            until: t,
        });
        t
    }

    /// Issues everything (end of run). Returns the cycle the last entry
    /// began service, or `from` if the queue was already empty.
    pub fn drain_all(
        &mut self,
        from: Cycle,
        banks: &mut [BankTimer],
        store: &mut NvmStore,
        stats: &mut Stats,
        probes: &mut Probes,
    ) -> Cycle {
        let mut t = from;
        while let Some((idx, start)) = self.next_issuable(banks) {
            t = t.max(start);
            self.issue_at(idx, banks, store, stats, probes);
        }
        t
    }

    /// Writes all pending entries into `store` in age order without
    /// touching bank timers or statistics — the ADR battery drain
    /// performed at a crash.
    pub fn flush_into(&self, store: &mut NvmStore) {
        let mut ordered: Vec<&WqEntry> = self.entries().map(|(_, e)| e).collect();
        ordered.sort_by_key(|e| e.seq);
        for e in ordered {
            match e.target {
                WqTarget::Data(line) => {
                    store.write_data(line, e.payload);
                    if let Some(tag) = e.tag {
                        store.write_tag(line, tag);
                    }
                }
                WqTarget::Counter(page) => store.write_counter(page, e.payload),
                WqTarget::Tree(id) => store.write_tree(id, e.payload),
            }
        }
    }

    /// [`WriteQueue::flush_into`] under a failing power event: the ADR
    /// drain tears at `tear` (entries past the cut are dropped, the
    /// entry at the cut lands as a seeded old/new word mix) and entries
    /// headed for `failed_bank` are lost with the hardware. Everything
    /// dropped or torn is recorded in `plan` so recovery's checked reads
    /// and the torture classifier can see what the media did.
    pub fn flush_into_faulted(
        &self,
        store: &mut NvmStore,
        failed_bank: Option<usize>,
        tear: Option<DrainTear>,
        plan: &mut FaultPlan,
    ) {
        let mut ordered: Vec<&WqEntry> = self.entries().map(|(_, e)| e).collect();
        ordered.sort_by_key(|e| e.seq);
        for (i, e) in ordered.iter().enumerate() {
            if let Some(t) = tear {
                if i > t.cut {
                    // Power died before this entry drained.
                    plan.note_torn_entry();
                    continue;
                }
            }
            if Some(e.bank) == failed_bank {
                match e.target {
                    WqTarget::Data(line) => plan.note_lost_data(line),
                    WqTarget::Counter(page) => plan.note_lost_counter(page),
                    WqTarget::Tree(id) => plan.note_lost_tree(id),
                }
                continue;
            }
            let torn = tear.filter(|t| t.cut == i);
            match e.target {
                WqTarget::Data(line) => {
                    let payload = match torn {
                        Some(t) => {
                            plan.note_torn_entry();
                            tear_line(&store.read_data(line), &e.payload, t.mask)
                        }
                        None => e.payload,
                    };
                    store.write_data(line, payload);
                    if let Some(tag) = e.tag {
                        store.write_tag(line, tag);
                    }
                }
                WqTarget::Counter(page) => {
                    let payload = match torn {
                        Some(t) => {
                            plan.note_torn_entry();
                            tear_line(&store.read_counter(page), &e.payload, t.mask)
                        }
                        None => e.payload,
                    };
                    store.write_counter(page, payload);
                }
                WqTarget::Tree(id) => {
                    let payload = match torn {
                        Some(t) => {
                            plan.note_torn_entry();
                            tear_line(&store.read_tree(id), &e.payload, t.mask)
                        }
                        None => e.payload,
                    };
                    store.write_tree(id, payload);
                }
            }
        }
    }

    /// The issue pick by a linear scan of the slab: an entry is
    /// eligible iff no occupied slot holds an older write to its target
    /// — the reference the per-bank scheduler must match exactly
    /// (test-only).
    #[cfg(test)]
    pub(crate) fn linear_scan_pick(&self, banks: &[BankTimer]) -> Option<(usize, Cycle)> {
        let mut best: Option<(usize, Cycle, u64)> = None;
        for (i, e) in self.entries() {
            if self
                .entries()
                .any(|(_, o)| o.target == e.target && o.seq < e.seq)
            {
                continue; // an older write to the same target pends
            }
            let start = banks[e.bank].earliest_start(OpKind::Write, e.ready);
            match best {
                Some((_, bs, bseq)) if (bs, bseq) <= (start, e.seq) => {}
                _ => best = Some((i, start, e.seq)),
            }
        }
        best.map(|(i, s, _)| (i, s))
    }

    /// Test-only invariant check against a linear scan of the slot slab.
    ///
    /// * Chains: walking each indexed chain oldest to newest through the
    ///   `younger` links (checking every `older` back link and the
    ///   recorded newest end) yields exactly the target's occupied slots
    ///   in age (seq) order; no free slot is linked in.
    /// * Free-list accounting matches, and forwarding answers equal the
    ///   max-seq entry a scan would find.
    /// * Scheduler: keys mirror their entries; a bank bit is set iff the
    ///   slot is occupied, targets that bank and fronts its chain; every
    ///   fresh bank candidate equals a recomputation under the timer
    ///   value it was cached for; and the floor is at most every eligible
    ///   slot's start under its bank's last-seen timer.
    #[cfg(test)]
    pub(crate) fn assert_index_matches_linear_scan(&self) {
        let mut occupied: Vec<(usize, &WqEntry)> = self.entries().collect();
        occupied.sort_by_key(|&(_, e)| e.seq);
        let mut oracle: FxHashMap<WqTarget, Vec<usize>> = FxHashMap::default();
        for &(slot, e) in &occupied {
            oracle.entry(e.target).or_default().push(slot);
        }
        let mut chains: FxHashMap<WqTarget, Vec<usize>> = FxHashMap::default();
        for (&target, &(oldest, newest)) in &self.index {
            let mut chain = Vec::new();
            let (mut prev, mut slot) = (NIL, oldest);
            while slot != NIL {
                assert!(chain.len() < self.capacity, "chain of {target:?} loops");
                assert_eq!(self.keys[slot].older, prev, "back link of slot {slot}");
                chain.push(slot);
                (prev, slot) = (slot, self.keys[slot].younger);
            }
            assert_eq!(prev, newest, "newest end of {target:?}");
            chains.insert(target, chain);
        }
        assert_eq!(chains, oracle, "chains diverged from slot scan");
        assert_eq!(
            self.free.len() + occupied.len(),
            self.capacity,
            "free-list accounting broken"
        );
        for &slot in &self.free {
            assert!(self.slots[slot].is_none(), "free slot {slot} is occupied");
        }
        for (target, chain) in &oracle {
            let newest_scan = chain.last().and_then(|&s| self.slots[s].as_ref());
            assert_eq!(
                self.newest(*target).map(|e| e.seq),
                newest_scan.map(|e| e.seq),
                "forwarding answer diverged from linear scan for {target:?}"
            );
        }
        for &(slot, e) in &occupied {
            let k = self.keys[slot];
            assert_eq!((k.ready, k.seq, k.bank), (e.ready, e.seq, e.bank));
        }
        assert_eq!(self.eligible.len(), self.sched.len() * self.words);
        for (bank, s) in self.sched.iter().enumerate() {
            for slot in 0..self.capacity {
                let bit = self.eligible[bank * self.words + slot / 64] >> (slot % 64) & 1 == 1;
                let front = self.slots[slot]
                    .as_ref()
                    .is_some_and(|e| e.bank == bank && oracle[&e.target][0] == slot);
                assert_eq!(bit, front, "bank {bank} eligible bit of slot {slot}");
                if front {
                    let start = self.keys[slot].ready.max(s.seen);
                    assert!(self.floor <= start, "floor above slot {slot}");
                }
            }
            if s.fresh {
                assert_eq!(
                    (s.best, s.best_slot),
                    self.bank_best(bank, s.seen),
                    "bank {bank} candidate drifted"
                );
            } else {
                assert_eq!((s.best, s.best_slot), (NO_CANDIDATE, NIL));
            }
        }
        for &(slot, e) in &occupied {
            assert!(e.bank < self.sched.len(), "slot {slot} bank unknown");
        }
    }

    /// Removes and returns every pending entry touching page `page`
    /// (its data lines or its counter line). Used before page
    /// re-encryption so no stale ciphertext can land after the rewrite.
    pub fn extract_page_entries(&mut self, page: PageId, page_bytes: u64) -> Vec<WqEntry> {
        let hits: Vec<usize> = self
            .entries()
            .filter(|(_, e)| match e.target {
                WqTarget::Data(line) => line.0 / page_bytes == page.0,
                WqTarget::Counter(p) => p == page,
                // Tree nodes cover whole leaf groups, not one page; they
                // stay queued across a page re-encryption.
                WqTarget::Tree(_) => false,
            })
            .map(|(i, _)| i)
            .collect();
        let mut out: Vec<WqEntry> = hits.into_iter().map(|i| self.remove_slot(i)).collect();
        out.sort_by_key(|e| e.seq);
        out
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;

    fn banks(n: usize) -> Vec<BankTimer> {
        (0..n).map(|_| BankTimer::new(126, 626, 15)).collect()
    }

    fn data_entry_args(addr: u64, bank: usize) -> (WqTarget, usize, LineData) {
        (WqTarget::Data(LineAddr(addr)), bank, [addr as u8; 64])
    }

    #[test]
    fn append_then_drain_writes_store() {
        let mut wq = WriteQueue::new(4, false);
        let mut b = banks(2);
        let mut store = NvmStore::new();
        let mut stats = Stats::new(2);
        let (t, bank, payload) = data_entry_args(0x40, 0);
        wq.append(t, bank, payload, None, 0);
        wq.drain_all(0, &mut b, &mut store, &mut stats, &mut Probes::default());
        assert_eq!(store.read_data(LineAddr(0x40)), [0x40; 64]);
        assert_eq!(stats.nvm_data_writes, 1);
        assert_eq!(stats.bank_writes[0], 1);
    }

    #[test]
    fn cwc_removes_older_counter_entry() {
        let mut wq = WriteQueue::new(8, true);
        let mut stats = Stats::new(1);
        let seq = wq.append(WqTarget::Counter(PageId(3)), 0, [1; 64], None, 0);
        assert_eq!(wq.coalesce_counter(PageId(3), &mut stats), Some(seq));
        assert_eq!(wq.len(), 0);
        assert_eq!(stats.counter_writes_coalesced, 1);
        // Nothing left to merge.
        assert_eq!(wq.coalesce_counter(PageId(3), &mut stats), None);
    }

    #[test]
    fn cwc_disabled_never_merges() {
        let mut wq = WriteQueue::new(8, false);
        let mut stats = Stats::new(1);
        wq.append(WqTarget::Counter(PageId(3)), 0, [1; 64], None, 0);
        assert_eq!(wq.coalesce_counter(PageId(3), &mut stats), None);
        assert_eq!(wq.len(), 1);
    }

    #[test]
    fn cwc_does_not_touch_other_pages_or_data() {
        let mut wq = WriteQueue::new(8, true);
        let mut stats = Stats::new(1);
        wq.append(WqTarget::Counter(PageId(4)), 0, [1; 64], None, 0);
        wq.append(WqTarget::Data(LineAddr(0x40)), 0, [2; 64], None, 0);
        assert_eq!(wq.coalesce_counter(PageId(3), &mut stats), None);
        assert_eq!(wq.len(), 2);
    }

    #[test]
    fn drain_until_respects_time() {
        let mut wq = WriteQueue::new(4, false);
        let mut b = banks(1);
        let mut store = NvmStore::new();
        let mut stats = Stats::new(1);
        wq.append(WqTarget::Data(LineAddr(0)), 0, [1; 64], None, 100);
        wq.drain_until(50, &mut b, &mut store, &mut stats, &mut Probes::default());
        assert_eq!(wq.len(), 1, "not ready yet");
        wq.drain_until(100, &mut b, &mut store, &mut stats, &mut Probes::default());
        assert_eq!(wq.len(), 0);
    }

    #[test]
    fn same_bank_entries_serialize() {
        let mut wq = WriteQueue::new(4, false);
        let mut b = banks(1);
        let mut store = NvmStore::new();
        let mut stats = Stats::new(1);
        wq.append(WqTarget::Data(LineAddr(0)), 0, [1; 64], None, 0);
        wq.append(WqTarget::Data(LineAddr(64)), 0, [2; 64], None, 0);
        // At t=0 only the first can start; the second starts at 626.
        wq.drain_until(0, &mut b, &mut store, &mut stats, &mut Probes::default());
        assert_eq!(wq.len(), 1);
        wq.drain_until(626, &mut b, &mut store, &mut stats, &mut Probes::default());
        assert_eq!(wq.len(), 0);
    }

    #[test]
    fn different_banks_issue_in_parallel() {
        let mut wq = WriteQueue::new(4, false);
        let mut b = banks(2);
        let mut store = NvmStore::new();
        let mut stats = Stats::new(2);
        wq.append(WqTarget::Data(LineAddr(0)), 0, [1; 64], None, 0);
        wq.append(WqTarget::Data(LineAddr(4096)), 1, [2; 64], None, 0);
        wq.drain_until(0, &mut b, &mut store, &mut stats, &mut Probes::default());
        assert_eq!(wq.len(), 0, "both banks start at t=0");
    }

    #[test]
    fn wait_for_slots_charges_stall() {
        // Queue of 2, single bank: filling it forces a stall.
        let mut wq = WriteQueue::new(2, false);
        let mut b = banks(1);
        let mut store = NvmStore::new();
        let mut stats = Stats::new(1);
        wq.append(WqTarget::Data(LineAddr(0)), 0, [1; 64], None, 0);
        wq.append(WqTarget::Data(LineAddr(64)), 0, [2; 64], None, 0);
        // Both pending; second can't start until 626. Wait for 2 slots at t=0:
        // first frees its slot at 0 (service start), second at 626.
        let t = wq.wait_for_slots(2, 0, &mut b, &mut store, &mut stats, &mut Probes::default());
        assert_eq!(t, 626);
        assert_eq!(stats.wq_stall_cycles, 626);
        assert_eq!(stats.wq_full_events, 1);
        assert_eq!(wq.free_slots(), 2);
    }

    #[test]
    fn wait_for_slots_fast_path_free() {
        let mut wq = WriteQueue::new(4, false);
        let mut b = banks(1);
        let mut store = NvmStore::new();
        let mut stats = Stats::new(1);
        let t = wq.wait_for_slots(
            2,
            77,
            &mut b,
            &mut store,
            &mut stats,
            &mut Probes::default(),
        );
        assert_eq!(t, 77);
        assert_eq!(stats.wq_stall_cycles, 0);
    }

    #[test]
    fn forwarding_returns_newest() {
        let mut wq = WriteQueue::new(4, false);
        wq.append(WqTarget::Data(LineAddr(0)), 0, [1; 64], Some((0, 1)), 0);
        wq.append(WqTarget::Data(LineAddr(0)), 0, [2; 64], Some((0, 2)), 5);
        let e = wq.forward_data(LineAddr(0)).unwrap();
        assert_eq!(e.payload, [2; 64]);
        assert_eq!(e.enc_counter, Some((0, 2)));
        assert!(wq.forward_data(LineAddr(64)).is_none());
    }

    #[test]
    fn counter_forwarding() {
        let mut wq = WriteQueue::new(4, false);
        wq.append(WqTarget::Counter(PageId(1)), 0, [9; 64], None, 0);
        assert!(wq.forward_counter(PageId(1)).is_some());
        assert!(wq.forward_counter(PageId(2)).is_none());
    }

    #[test]
    fn flush_into_applies_in_age_order() {
        let mut wq = WriteQueue::new(4, false);
        wq.append(WqTarget::Data(LineAddr(0)), 0, [1; 64], None, 0);
        wq.append(WqTarget::Data(LineAddr(0)), 0, [2; 64], None, 0);
        let mut store = NvmStore::new();
        wq.flush_into(&mut store);
        assert_eq!(store.read_data(LineAddr(0)), [2; 64], "newest wins");
        assert_eq!(wq.len(), 2, "ADR drain is non-destructive in the model");
    }

    #[test]
    fn extract_page_entries_filters_by_page() {
        let mut wq = WriteQueue::new(8, false);
        wq.append(WqTarget::Data(LineAddr(0)), 0, [1; 64], None, 0); // page 0
        wq.append(WqTarget::Data(LineAddr(4096)), 1, [2; 64], None, 0); // page 1
        wq.append(WqTarget::Counter(PageId(0)), 0, [3; 64], None, 0);
        let got = wq.extract_page_entries(PageId(0), 4096);
        assert_eq!(got.len(), 2);
        assert_eq!(wq.len(), 1);
    }

    #[test]
    fn tree_entries_issue_to_the_tree_region() {
        let mut wq = WriteQueue::new(4, false);
        let mut b = banks(2);
        let mut store = NvmStore::new();
        let mut stats = Stats::new(2);
        wq.append(WqTarget::Tree(7), 1, [0x5C; 64], None, 0);
        assert!(!wq.slots.iter().flatten().any(WqEntry::is_counter));
        wq.drain_all(0, &mut b, &mut store, &mut stats, &mut Probes::default());
        assert_eq!(store.read_tree(7), [0x5C; 64]);
        assert_eq!(stats.nvm_tree_writes, 1);
        assert_eq!(stats.nvm_data_writes, 0);
        assert_eq!(stats.nvm_counter_writes, 0);
        assert_eq!(stats.bank_writes[1], 1, "tree writes occupy their bank");
    }

    #[test]
    fn flush_into_lands_tree_entries() {
        let mut wq = WriteQueue::new(4, false);
        wq.append(WqTarget::Tree(3), 0, [1; 64], None, 0);
        wq.append(WqTarget::Tree(3), 0, [2; 64], None, 0);
        let mut store = NvmStore::new();
        wq.flush_into(&mut store);
        assert_eq!(store.read_tree(3), [2; 64], "newest wins");
    }

    #[test]
    fn faulted_flush_loses_tree_entries_with_their_bank() {
        use supermem_nvm::fault::FaultPlan;
        let mut wq = WriteQueue::new(8, false);
        let mut store = NvmStore::new();
        wq.append(WqTarget::Tree(1), 0, [1; 64], None, 0);
        wq.append(WqTarget::Tree(2), 1, [2; 64], None, 0);
        let mut plan = FaultPlan::default();
        wq.flush_into_faulted(&mut store, Some(0), None, &mut plan);
        assert_eq!(store.read_tree(1), [0; 64]);
        assert!(plan.tree_lost(1));
        assert_eq!(store.read_tree(2), [2; 64]);
        assert!(!plan.tree_lost(2));
    }

    #[test]
    fn extract_page_entries_leaves_tree_entries_queued() {
        let mut wq = WriteQueue::new(8, false);
        wq.append(WqTarget::Data(LineAddr(0)), 0, [1; 64], None, 0); // page 0
        wq.append(WqTarget::Tree(0), 0, [2; 64], None, 0);
        let got = wq.extract_page_entries(PageId(0), 4096);
        assert_eq!(got.len(), 1);
        assert_eq!(wq.len(), 1, "the tree entry stays");
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn append_past_capacity_panics() {
        let mut wq = WriteQueue::new(2, false);
        wq.append(WqTarget::Data(LineAddr(0)), 0, [0; 64], None, 0);
        wq.append(WqTarget::Data(LineAddr(64)), 0, [0; 64], None, 0);
        wq.append(WqTarget::Data(LineAddr(128)), 0, [0; 64], None, 0);
    }

    #[test]
    fn same_line_writes_issue_in_seq_order_despite_inverted_ready() {
        // Regression: a later write to the same line can carry an
        // *earlier* ready time (posted write behind a queue stall); it
        // must still issue after the older write or the store ends up
        // with stale data.
        let mut wq = WriteQueue::new(4, false);
        let mut b = banks(1);
        let mut store = NvmStore::new();
        let mut stats = Stats::new(1);
        wq.append(WqTarget::Data(LineAddr(0)), 0, [5; 64], None, 1000);
        wq.append(WqTarget::Data(LineAddr(0)), 0, [6; 64], None, 10);
        wq.drain_all(0, &mut b, &mut store, &mut stats, &mut Probes::default());
        assert_eq!(
            store.read_data(LineAddr(0)),
            [6; 64],
            "newest payload must win"
        );
    }

    #[test]
    fn different_lines_can_bypass_a_stalled_older_entry() {
        // Same-address ordering must not serialize unrelated lines.
        let mut wq = WriteQueue::new(4, false);
        let mut b = banks(2);
        let mut store = NvmStore::new();
        let mut stats = Stats::new(2);
        wq.append(WqTarget::Data(LineAddr(0)), 0, [1; 64], None, 1000);
        wq.append(WqTarget::Data(LineAddr(4096)), 1, [2; 64], None, 0);
        wq.drain_until(0, &mut b, &mut store, &mut stats, &mut Probes::default());
        assert_eq!(wq.len(), 1, "the line in the other bank issues at t=0");
        assert_eq!(store.read_data(LineAddr(4096)), [2; 64]);
    }

    #[test]
    fn pending_snapshot_reflects_queue_order() {
        let mut wq = WriteQueue::new(4, false);
        wq.append(WqTarget::Data(LineAddr(0)), 0, [1; 64], None, 0);
        wq.append(WqTarget::Counter(PageId(2)), 1, [2; 64], None, 0);
        let p: Vec<_> = wq.pending().collect();
        assert_eq!(p.len(), 2);
        assert_eq!(p[0].0, WqTarget::Data(LineAddr(0)));
        assert!(p[0].1 < p[1].1, "seq must increase");
    }

    #[test]
    fn pending_iterator_matches_sorted_scan() {
        // The lazy min-scan iterator must yield exactly what collecting
        // and sorting the slab by seq would, in the same order.
        let mut wq = WriteQueue::new(8, true);
        let mut stats = Stats::new(2);
        for addr in [0u64, 64, 128, 192] {
            wq.append(WqTarget::Data(LineAddr(addr)), 0, [1; 64], None, 0);
        }
        wq.append(WqTarget::Counter(PageId(1)), 1, [2; 64], None, 0);
        // Punch a hole in the seq sequence so order != slot order.
        wq.coalesce_counter(PageId(1), &mut stats);
        wq.append(WqTarget::Counter(PageId(1)), 1, [3; 64], None, 0);
        let mut oracle: Vec<(WqTarget, u64)> =
            wq.entries().map(|(_, e)| (e.target, e.seq)).collect();
        oracle.sort_by_key(|&(_, seq)| seq);
        let got: Vec<_> = wq.pending().collect();
        assert_eq!(got, oracle);
        assert!(
            got.windows(2).all(|w| w[0].1 < w[1].1),
            "strictly ascending"
        );
    }

    /// The drain gate after a bank timer moved backwards: the floor was
    /// computed under a busy bank, the reset makes the write issuable
    /// early, and the drain must see it exactly as the gate-free
    /// reference does.
    #[test]
    fn drain_after_a_timer_reset_issues_like_the_reference() {
        let run = |fast_forward: bool| {
            let mut wq = WriteQueue::new(4, false);
            wq.set_fast_forward(fast_forward);
            let mut b = banks(1);
            let mut store = NvmStore::new();
            let mut stats = Stats::new(1);
            let mut probes = Probes::default();
            assert_eq!(
                b[0].issue(OpKind::Read, 874),
                1000,
                "bank 0 busy until 1000"
            );
            wq.append(WqTarget::Data(LineAddr(0)), 0, [7; 64], None, 10);
            wq.drain_until(20, &mut b, &mut store, &mut stats, &mut probes);
            assert_eq!(wq.len(), 1, "the bank is busy until 1000");
            assert_eq!(wq.may_issue_by(100, &b), !fast_forward);
            b[0].reset();
            assert!(wq.may_issue_by(100, &b), "the reset bank frees the write");
            wq.drain_until(100, &mut b, &mut store, &mut stats, &mut probes);
            assert_eq!(wq.len(), 0, "the write issues at 10 on the reset bank");
            assert_eq!(b[0].busy_until(), 10 + 626);
            assert_eq!(store.read_data(LineAddr(0)), [7; 64]);
            stats
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn drain_gate_skips_only_what_cannot_issue() {
        let mut wq = WriteQueue::new(4, false);
        let mut b = banks(2);
        let mut store = NvmStore::new();
        let mut stats = Stats::new(2);
        let mut probes = Probes::default();
        assert!(
            !wq.may_issue_by(Cycle::MAX, &b),
            "an empty queue never drains"
        );
        wq.append(WqTarget::Data(LineAddr(0)), 0, [1; 64], None, 500);
        assert!(
            !wq.may_issue_by(499, &b),
            "a new entry lowers the floor to 500"
        );
        assert!(wq.may_issue_by(500, &b));
        wq.drain_until(499, &mut b, &mut store, &mut stats, &mut probes);
        assert_eq!(wq.len(), 1);
        // A write to an idle bank with an earlier ready reopens the gate.
        wq.append(WqTarget::Data(LineAddr(4096)), 1, [2; 64], None, 100);
        assert!(!wq.may_issue_by(99, &b));
        assert!(wq.may_issue_by(100, &b));
        // A demand read only delays writes: the gate stays exact.
        b[0].issue(OpKind::Read, 0);
        wq.drain_until(100, &mut b, &mut store, &mut stats, &mut probes);
        assert_eq!(wq.len(), 1);
        assert!(!wq.may_issue_by(499, &b));
        wq.set_fast_forward(false);
        assert!(
            wq.may_issue_by(0, &b),
            "the gate is off without fast-forward"
        );
    }

    /// Same-target chains are threaded through the slots, so a chain
    /// can be cut at its front, in its middle or at its back, and its
    /// slots need not be in age order.
    #[test]
    fn threaded_chains_survive_cuts_anywhere() {
        let mut wq = WriteQueue::new(8, true);
        let mut stats = Stats::new(2);
        let line = WqTarget::Data(LineAddr(0));
        // Slot 0 first holds a write to page 1, so the chain's second
        // entry reuses it: the chain runs slot 1 -> 0 -> 2 -> 3.
        wq.append(WqTarget::Data(LineAddr(4096)), 1, [9; 64], None, 0);
        let a = wq.append(line, 0, [1; 64], None, 0);
        assert_eq!(wq.extract_page_entries(PageId(1), 4096).len(), 1);
        let b = wq.append(line, 0, [2; 64], None, 0);
        let c = wq.append(line, 0, [3; 64], None, 0);
        let d = wq.append(line, 0, [4; 64], None, 0);
        assert_eq!(wq.slots[0].as_ref().map(|e| e.seq), Some(b));
        wq.assert_index_matches_linear_scan();
        // Middle cut: the front keeps issuing first, forwarding is intact.
        assert_eq!(wq.remove_slot(0).seq, b);
        wq.assert_index_matches_linear_scan();
        assert_eq!(wq.forward_data(LineAddr(0)).map(|e| e.seq), Some(d));
        // Back cut: forwarding falls back to the new newest.
        assert_eq!(wq.remove_slot(3).seq, d);
        wq.assert_index_matches_linear_scan();
        assert_eq!(wq.forward_data(LineAddr(0)).map(|e| e.seq), Some(c));
        // Front cut: the successor becomes eligible.
        assert_eq!(wq.remove_slot(1).seq, a);
        wq.assert_index_matches_linear_scan();
        assert_eq!(wq.keys[2].older, NIL);
        // A counter chain three deep, cut by CWC at its front.
        let ctr = WqTarget::Counter(PageId(0));
        let seqs: Vec<u64> = (1..=3u8)
            .map(|fill| wq.append(ctr, 1, [fill; 64], None, 0))
            .collect();
        wq.assert_index_matches_linear_scan();
        assert_eq!(wq.coalesce_counter(PageId(0), &mut stats), Some(seqs[0]));
        wq.assert_index_matches_linear_scan();
        assert_eq!(wq.forward_counter(PageId(0)).map(|e| e.seq), Some(seqs[2]));
        // Extraction takes what is left of both chains, in age order.
        let got: Vec<u64> = wq
            .extract_page_entries(PageId(0), 4096)
            .iter()
            .map(|e| e.seq)
            .collect();
        assert_eq!(got, vec![c, seqs[1], seqs[2]]);
        wq.assert_index_matches_linear_scan();
        assert!(wq.is_empty() && wq.index.is_empty());
    }

    #[test]
    fn oldest_first_among_equal_starts() {
        let mut wq = WriteQueue::new(4, false);
        let mut b = banks(2);
        let mut store = NvmStore::new();
        let mut stats = Stats::new(2);
        // Same bank, same ready: the older one must issue first so the
        // final store value is the newer payload.
        wq.append(WqTarget::Data(LineAddr(0)), 0, [1; 64], None, 0);
        wq.append(WqTarget::Data(LineAddr(0)), 0, [2; 64], None, 0);
        wq.drain_all(0, &mut b, &mut store, &mut stats, &mut Probes::default());
        assert_eq!(store.read_data(LineAddr(0)), [2; 64]);
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod randomized {
    //! Deterministic randomized tests (seeded SplitMix64 stands in for
    //! proptest, which is unavailable in offline builds).
    use super::*;
    use std::collections::HashMap;
    use supermem_nvm::bank::BankTimer;
    use supermem_sim::{EventTape, SplitMix64};

    fn banks(n: usize) -> Vec<BankTimer> {
        (0..n).map(|_| BankTimer::new(126, 626, 15)).collect()
    }

    #[derive(Debug, Clone)]
    enum QOp {
        AppendData { line: u64, fill: u8, ready: u64 },
        AppendCounter { page: u64, fill: u8, ready: u64 },
        Drain { until: u64 },
    }

    /// A random queue op over the first `lines` data lines, draining to
    /// a cycle below `drain_max`.
    fn random_qop(rng: &mut SplitMix64, lines: u64, drain_max: u64) -> QOp {
        match rng.next_below(3) {
            0 => QOp::AppendData {
                line: rng.next_below(lines) * 64,
                fill: rng.next_u64() as u8,
                ready: rng.next_below(10_000),
            },
            1 => QOp::AppendCounter {
                page: rng.next_below(4),
                fill: rng.next_u64() as u8,
                ready: rng.next_below(10_000),
            },
            _ => QOp::Drain {
                until: rng.next_below(drain_max),
            },
        }
    }

    /// Under arbitrary appends (with arbitrary, possibly inverted
    /// ready times), coalescing, and partial drains, the queue never
    /// exceeds capacity and the final store holds the newest payload
    /// for every line — no write is ever lost or misordered.
    #[test]
    fn no_lost_or_stale_writes() {
        let mut rng = SplitMix64::new(0x90EE);
        for _ in 0..64 {
            let ops: Vec<QOp> = (0..rng.next_range(1, 150))
                .map(|_| random_qop(&mut rng, 16, 100_000))
                .collect();
            let mut wq = WriteQueue::new(8, true);
            let mut b = banks(2);
            let mut store = NvmStore::new();
            let mut stats = Stats::new(2);
            let mut newest_data: HashMap<u64, u8> = HashMap::new();
            let mut newest_ctr: HashMap<u64, u8> = HashMap::new();
            for op in &ops {
                match op {
                    QOp::AppendData { line, fill, ready } => {
                        wq.wait_for_slots(
                            1,
                            *ready,
                            &mut b,
                            &mut store,
                            &mut stats,
                            &mut Probes::default(),
                        );
                        wq.append(
                            WqTarget::Data(LineAddr(*line)),
                            (*line / 64 % 2) as usize,
                            [*fill; 64],
                            None,
                            *ready,
                        );
                        newest_data.insert(*line, *fill);
                    }
                    QOp::AppendCounter { page, fill, ready } => {
                        wq.wait_for_slots(
                            1,
                            *ready,
                            &mut b,
                            &mut store,
                            &mut stats,
                            &mut Probes::default(),
                        );
                        wq.coalesce_counter(PageId(*page), &mut stats);
                        // Coalescing may have freed a slot; capacity is
                        // still guaranteed by the earlier wait.
                        wq.append(
                            WqTarget::Counter(PageId(*page)),
                            (*page % 2) as usize,
                            [*fill; 64],
                            None,
                            *ready,
                        );
                        newest_ctr.insert(*page, *fill);
                    }
                    QOp::Drain { until } => {
                        wq.drain_until(
                            *until,
                            &mut b,
                            &mut store,
                            &mut stats,
                            &mut Probes::default(),
                        );
                    }
                }
                assert!(wq.len() <= wq.capacity());
            }
            wq.drain_all(0, &mut b, &mut store, &mut stats, &mut Probes::default());
            for (&line, &fill) in &newest_data {
                assert_eq!(store.read_data(LineAddr(line)), [fill; 64]);
            }
            for (&page, &fill) in &newest_ctr {
                assert_eq!(store.read_counter(PageId(page)), [fill; 64]);
            }
        }
    }

    /// Operations the scheduler oracle drives: the queue ops above plus
    /// everything else that moves a bank candidate.
    #[derive(Debug, Clone)]
    enum SchedOp {
        Queue(QOp),
        /// A counter append that skips CWC, so a second same-page entry
        /// queues behind the first until a later coalesce removes the
        /// older one and unblocks it.
        AppendCounterUncoalesced {
            page: u64,
            fill: u8,
            ready: u64,
        },
        /// A demand read moving a bank timer between writes.
        DemandRead {
            bank: usize,
            at: u64,
        },
        /// A bank timer reset (its `busy_until` moves *backwards*).
        ResetBank {
            bank: usize,
        },
        /// Page re-encryption pulls arbitrary, not only front, entries.
        Extract {
            page: u64,
        },
    }

    const SCHED_BANKS: usize = 4;
    /// Small pages so the 16-line data domain spans the 4 counter pages.
    const SCHED_PAGE_BYTES: u64 = 256;

    /// The shape of one randomized scheduler campaign.
    #[derive(Debug, Clone, Copy)]
    struct Shape {
        capacity: usize,
        /// Data appends target the first `lines` lines; fewer lines make
        /// deeper same-target chains.
        lines: u64,
        /// Drains target a cycle below this; a small value lets a large
        /// queue fill up.
        drain_max: u64,
        /// Relative weights of queue ops, uncoalesced counter appends,
        /// demand reads, bank resets and page extractions.
        mix: [u64; 5],
        /// Every case opens by making all banks busy until cycle 90,126
        /// and appending this many data writes (ready at 0), which fills
        /// a queue of this capacity.
        prefill: usize,
    }

    /// The original campaign: an 8-entry queue over 16 lines.
    const SMALL: Shape = Shape {
        capacity: 8,
        lines: 16,
        drain_max: 100_000,
        mix: [4, 1, 2, 1, 1],
        prefill: 0,
    };

    fn random_sched_op(rng: &mut SplitMix64, shape: Shape) -> SchedOp {
        let pick = rng.next_below(shape.mix.iter().sum());
        let kind = shape
            .mix
            .iter()
            .scan(0, |end, &w| {
                *end += w;
                Some(*end)
            })
            .position(|end| pick < end)
            .expect("pick < total weight");
        match kind {
            0 => SchedOp::Queue(random_qop(rng, shape.lines, shape.drain_max)),
            1 => SchedOp::AppendCounterUncoalesced {
                page: rng.next_below(4),
                fill: rng.next_u64() as u8,
                ready: rng.next_below(10_000),
            },
            2 => SchedOp::DemandRead {
                bank: rng.next_below(SCHED_BANKS as u64) as usize,
                at: rng.next_below(100_000),
            },
            3 => SchedOp::ResetBank {
                bank: rng.next_below(SCHED_BANKS as u64) as usize,
            },
            _ => SchedOp::Extract {
                page: rng.next_below(4),
            },
        }
    }

    /// Checks the CWC contract on one coalesce: it fires iff a counter
    /// entry for the page pends, and removes exactly the oldest one.
    /// Returns how many counter entries for the page pended before.
    fn coalesce_checked(wq: &mut WriteQueue, page: u64, stats: &mut Stats) -> usize {
        let target = WqTarget::Counter(PageId(page));
        let seqs = |wq: &WriteQueue| -> Vec<u64> {
            wq.pending()
                .filter(|&(t, _)| t == target)
                .map(|(_, s)| s)
                .collect()
        };
        let before = seqs(wq);
        let merged = wq.coalesce_counter(PageId(page), stats);
        assert_eq!(
            merged.is_some(),
            !before.is_empty(),
            "CWC fires iff one pends"
        );
        if let Some(victim) = merged {
            let oldest = *before.iter().min().expect("non-empty");
            assert_eq!(victim, oldest, "CWC reports the oldest as victim");
            let after = seqs(wq);
            assert!(!after.contains(&oldest), "CWC drops the oldest");
            assert_eq!(after.len(), before.len() - 1);
        }
        before.len()
    }

    /// The deepest same-target chain among pending entries that `hit`
    /// selects.
    fn deepest_chain(wq: &WriteQueue, hit: impl Fn(WqTarget) -> bool) -> usize {
        let mut depth: HashMap<WqTarget, usize> = HashMap::new();
        for (t, _) in wq.pending().filter(|&(t, _)| hit(t)) {
            *depth.entry(t).or_default() += 1;
        }
        depth.into_values().max().unwrap_or(0)
    }

    /// What one campaign exercised, so a test can insist its cases
    /// actually reach the structures they are meant to cover.
    #[derive(Debug, Default, Clone, Copy)]
    struct Coverage {
        /// Deepest same-target chain seen.
        max_chain: usize,
        /// Page extractions that removed part of a chain >= 3 deep.
        deep_extracts: usize,
        /// CWC merges that cut a counter chain >= 3 deep.
        deep_merges: usize,
        /// Highest slot index ever eligible (>= 64 means a bank bitset
        /// used its second word).
        max_eligible_slot: usize,
        /// Drains skipped by the gate.
        gated_drains: usize,
    }

    /// The outcome of one op sequence: the final store, statistics and
    /// event stream, plus after every op the queue length and whether a
    /// drain at each of [`PROBES`] would issue (computed by the linear
    /// scan).
    #[derive(Debug, PartialEq)]
    struct Outcome {
        store: NvmStore,
        stats: Stats,
        events: Vec<Event>,
        trace: Vec<(usize, [bool; PROBES.len()])>,
    }

    /// Cycles at which the queue's drain gate is checked after every op.
    const PROBES: [Cycle; 5] = [0, 2_000, 10_000, 50_000, 200_000];

    /// Runs one op sequence. After every op the index and scheduler
    /// invariants must hold, the incremental pick (slot and start) must
    /// equal the linear-scan reference, forwarding must match a scan, and
    /// `may_issue_by` must answer `true` whenever a drain would issue
    /// (and, with the gate off, whenever the queue is non-empty).
    fn run_sched_ops(ops: &[SchedOp], shape: Shape, fast_forward: bool) -> (Outcome, Coverage) {
        let mut wq = WriteQueue::new(shape.capacity, true);
        wq.set_fast_forward(fast_forward);
        let mut b = banks(SCHED_BANKS);
        let mut store = NvmStore::new();
        let mut stats = Stats::new(SCHED_BANKS);
        let mut probes = Probes::default();
        probes.attach(Box::new(EventTape::default()));
        let mut cov = Coverage::default();
        let mut trace = Vec::with_capacity(ops.len());
        for op in ops {
            match op {
                SchedOp::Queue(QOp::AppendData { line, fill, ready }) => {
                    wq.wait_for_slots(1, *ready, &mut b, &mut store, &mut stats, &mut probes);
                    let bank = (*line / 64) as usize % SCHED_BANKS;
                    wq.append(
                        WqTarget::Data(LineAddr(*line)),
                        bank,
                        [*fill; 64],
                        None,
                        *ready,
                    );
                }
                SchedOp::Queue(QOp::AppendCounter { page, fill, ready }) => {
                    wq.wait_for_slots(1, *ready, &mut b, &mut store, &mut stats, &mut probes);
                    if coalesce_checked(&mut wq, *page, &mut stats) >= 3 {
                        cov.deep_merges += 1;
                    }
                    let target = WqTarget::Counter(PageId(*page));
                    wq.append(target, *page as usize, [*fill; 64], None, *ready);
                }
                SchedOp::AppendCounterUncoalesced { page, fill, ready } => {
                    wq.wait_for_slots(1, *ready, &mut b, &mut store, &mut stats, &mut probes);
                    let target = WqTarget::Counter(PageId(*page));
                    wq.append(target, *page as usize, [*fill; 64], None, *ready);
                }
                SchedOp::Queue(QOp::Drain { until }) => {
                    if !wq.may_issue_by(*until, &b) {
                        cov.gated_drains += 1;
                    }
                    wq.drain_until(*until, &mut b, &mut store, &mut stats, &mut probes);
                    // The drain's last pick leaves the floor exact.
                    assert!(!fast_forward || !wq.may_issue_by(*until, &b));
                }
                SchedOp::DemandRead { bank, at } => {
                    b[*bank].issue(OpKind::Read, *at);
                }
                SchedOp::ResetBank { bank } => b[*bank].reset(),
                SchedOp::Extract { page } => {
                    let in_page = |t: WqTarget| match t {
                        WqTarget::Data(line) => line.0 / SCHED_PAGE_BYTES == *page,
                        WqTarget::Counter(p) => p.0 == *page,
                        WqTarget::Tree(_) => false,
                    };
                    if deepest_chain(&wq, in_page) >= 3 {
                        cov.deep_extracts += 1;
                    }
                    wq.extract_page_entries(PageId(*page), SCHED_PAGE_BYTES);
                }
            }
            wq.assert_index_matches_linear_scan();
            let reference = wq.linear_scan_pick(&b);
            let mut issuable = [false; PROBES.len()];
            for (i, &now) in PROBES.iter().enumerate() {
                issuable[i] = reference.is_some_and(|(_, start)| start <= now);
                let may = wq.may_issue_by(now, &b);
                assert!(
                    may || !issuable[i],
                    "gate skips an issuable drain at {now} after {op:?}"
                );
                if !fast_forward {
                    assert_eq!(may, !wq.is_empty(), "the gate is off without fast-forward");
                }
            }
            trace.push((wq.len(), issuable));
            cov.max_chain = cov.max_chain.max(deepest_chain(&wq, |_| true));
            cov.max_eligible_slot = (0..wq.capacity)
                .filter(|&s| wq.slots[s].is_some() && wq.keys[s].older == NIL)
                .fold(cov.max_eligible_slot, usize::max);
            // Picked on a clone: a pick refreshes the bank candidates and
            // the floor, and the run must keep the state the ops left.
            assert_eq!(
                wq.clone().next_issuable(&b),
                reference,
                "pick diverged after {op:?}"
            );
            // Forwarding vs oracle over the whole address domain,
            // including targets with nothing pending (must be None).
            let mut newest: HashMap<WqTarget, u64> = HashMap::new();
            for (_, e) in wq.entries() {
                let seq = newest.entry(e.target).or_default();
                *seq = e.seq.max(*seq);
            }
            for line in 0..shape.lines {
                let addr = LineAddr(line * 64);
                let scan = newest.get(&WqTarget::Data(addr)).copied();
                assert_eq!(wq.forward_data(addr).map(|e| e.seq), scan);
            }
            for page in 0..4u64 {
                let scan = newest.get(&WqTarget::Counter(PageId(page))).copied();
                assert_eq!(wq.forward_counter(PageId(page)).map(|e| e.seq), scan);
            }
        }
        wq.drain_all(0, &mut b, &mut store, &mut stats, &mut probes);
        wq.assert_index_matches_linear_scan();
        assert!(wq.is_empty(), "drain_all empties the queue");
        assert_eq!(wq.next_issuable(&b), None);
        let tape = probes
            .take()
            .pop()
            .and_then(|mut obs| {
                obs.as_any_mut()
                    .downcast_mut::<EventTape>()
                    .map(std::mem::take)
            })
            .expect("the attached tape");
        let outcome = Outcome {
            store,
            stats,
            events: tape.into_events(),
            trace,
        };
        (outcome, cov)
    }

    /// Runs `cases` seeded op sequences of `shape` with the scheduler
    /// cache and drain gate on and off; both must produce the same
    /// outcome. Returns the summed coverage of the cached runs.
    fn sched_campaign(seed: u64, shape: Shape, cases: usize, max_ops: u64) -> Coverage {
        let mut rng = SplitMix64::new(seed);
        let mut total = Coverage::default();
        for _ in 0..cases {
            let busy = (0..SCHED_BANKS).map(|bank| SchedOp::DemandRead { bank, at: 90_000 });
            let fill = (0..shape.prefill as u64).map(|i| {
                SchedOp::Queue(QOp::AppendData {
                    line: i % shape.lines * 64,
                    fill: i as u8,
                    ready: 0,
                })
            });
            let prefix: Vec<SchedOp> = if shape.prefill > 0 {
                busy.chain(fill).collect()
            } else {
                Vec::new()
            };
            let ops: Vec<SchedOp> = prefix
                .into_iter()
                .chain((0..rng.next_range(1, max_ops)).map(|_| random_sched_op(&mut rng, shape)))
                .collect();
            let (cached, cov) = run_sched_ops(&ops, shape, true);
            let (reference, _) = run_sched_ops(&ops, shape, false);
            if let Some(op) = (0..ops.len()).find(|&i| cached.trace[i] != reference.trace[i]) {
                panic!(
                    "fast_forward changed the queue after op {op}: {:?}",
                    ops[op]
                );
            }
            assert!(cached == reference, "fast_forward changed the outcome");
            total.max_chain = total.max_chain.max(cov.max_chain);
            total.deep_extracts += cov.deep_extracts;
            total.deep_merges += cov.deep_merges;
            total.max_eligible_slot = total.max_eligible_slot.max(cov.max_eligible_slot);
            total.gated_drains += cov.gated_drains;
        }
        total
    }

    /// The threaded target chains and the per-bank scheduler must stay
    /// in lockstep with a linear scan of the slot slab under arbitrary
    /// append / CWC coalesce / page extraction / partial drain
    /// sequences interleaved with demand reads and bank resets that move
    /// the timers: after every op the incremental pick equals the
    /// linear-scan pick, forwarding returns exactly what a scan for the
    /// max-seq matching entry would, CWC fires iff a counter entry for
    /// the page is pending — removing exactly the oldest one — and the
    /// drain gate never hides an issuable write. With the bank-candidate
    /// cache and the gate on and off, the same ops produce the same queue
    /// length after every op, store, statistics and event stream.
    #[test]
    fn index_agrees_with_linear_scan_oracle() {
        let cov = sched_campaign(0x1D0C, SMALL, 64, 200);
        assert!(cov.gated_drains > 0, "the gate skipped no drain: {cov:?}");
    }

    /// Few lines, so chains run deep: extraction and CWC cut chains at
    /// least 3 long.
    #[test]
    fn deep_chains_agree_with_linear_scan_oracle() {
        let shape = Shape { lines: 6, ..SMALL };
        let cov = sched_campaign(0xC4A1, shape, 64, 200);
        assert!(cov.max_chain >= 3, "{cov:?}");
        assert!(
            cov.deep_extracts > 0,
            "no extraction cut a deep chain: {cov:?}"
        );
        assert!(cov.deep_merges > 0, "no CWC cut a deep chain: {cov:?}");
    }

    /// Capacities past one bitset word: 65 (one slot in the second
    /// word) and 128 (two full words), run until the queue fills.
    #[test]
    fn wide_queues_agree_with_linear_scan_oracle() {
        for (seed, capacity) in [(0x65, 65), (0x128, 128)] {
            let shape = Shape {
                capacity,
                lines: 32,
                drain_max: 12_000,
                mix: [8, 2, 2, 1, 1],
                prefill: capacity,
            };
            let cov = sched_campaign(seed, shape, 12, 400);
            assert!(cov.max_eligible_slot >= 64, "capacity {capacity}: {cov:?}");
            assert!(cov.max_chain >= 3, "capacity {capacity}: {cov:?}");
        }
    }

    #[test]
    fn faulted_flush_tears_the_cut_entry_and_drops_the_rest() {
        use supermem_nvm::fault::{DrainTear, FaultPlan};
        let mut wq = WriteQueue::new(8, false);
        let mut store = NvmStore::new();
        store.write_data(LineAddr(0x80), [0xAA; 64]); // old bytes at the cut
        for addr in [0x40u64, 0x80, 0xC0] {
            wq.append(WqTarget::Data(LineAddr(addr)), 0, [addr as u8; 64], None, 0);
        }
        let mut plan = FaultPlan::default();
        let tear = DrainTear {
            cut: 1,
            mask: 0x0F, // words 0..4 land new, words 4..8 keep old
        };
        wq.flush_into_faulted(&mut store, None, Some(tear), &mut plan);
        // Before the cut: fully applied.
        assert_eq!(store.read_data(LineAddr(0x40)), [0x40; 64]);
        // At the cut: a seeded old/new word mix, not either whole line.
        let torn = store.read_data(LineAddr(0x80));
        assert_eq!(
            &torn[..32],
            &[0x80; 32][..],
            "mask=0x0F lands new low words"
        );
        assert_eq!(
            &torn[32..],
            &[0xAA; 32][..],
            "mask=0x0F keeps old high words"
        );
        // After the cut: never written, and the loss is recorded.
        assert_eq!(store.read_data(LineAddr(0xC0)), [0; 64]);
        assert_eq!(plan.counters().torn_entries, 2, "one torn + one dropped");
    }

    #[test]
    fn faulted_flush_loses_entries_headed_for_the_failed_bank() {
        use supermem_nvm::fault::FaultPlan;
        let mut wq = WriteQueue::new(8, false);
        let mut store = NvmStore::new();
        wq.append(WqTarget::Data(LineAddr(0x40)), 0, [1; 64], None, 0);
        wq.append(WqTarget::Data(LineAddr(0x80)), 1, [2; 64], None, 0);
        wq.append(WqTarget::Counter(PageId(3)), 0, [4; 64], None, 0);
        let mut plan = FaultPlan::default();
        wq.flush_into_faulted(&mut store, Some(0), None, &mut plan);
        // Bank 0's data and counter entries died with the hardware.
        assert_eq!(store.read_data(LineAddr(0x40)), [0; 64]);
        assert!(plan.data_lost(LineAddr(0x40)));
        assert!(plan.counter_lost(PageId(3)));
        // Bank 1's entry landed.
        assert_eq!(store.read_data(LineAddr(0x80)), [2; 64]);
        assert!(!plan.data_lost(LineAddr(0x80)));
    }
}
