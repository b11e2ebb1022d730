//! Post-crash recovery.
//!
//! [`RecoveredMemory::from_machine_image_checked`] is the one way back
//! from the [`MachineCrashImage`] a power failure left behind. For each
//! channel it:
//!
//! 1. re-verifies the channel's integrity tree against the trusted root
//!    register through the checked media path, rebuilding from the
//!    persisted frontier (Triad-NVM) or from the counter lines. Osiris
//!    machines, whose counters are stale by design, and machines without
//!    `Config::integrity_tree` skip this;
//! 2. finishes an interrupted page re-encryption from the ADR-preserved
//!    RSR (paper §3.4.4): lines with a set done bit are already under
//!    `(old_major + 1, 0)`; the rest still decrypt with the *old*
//!    counter line, which the controller deliberately left untouched in
//!    NVM (on an Osiris machine, by trial decryption past its stale
//!    minors).
//!
//! The channels then merge into one address space. On an Osiris machine
//! (`Config::osiris_window`) a trial-decryption scan re-derives the
//! stale minor counters. The result serves byte reads by decrypting
//! through the stored counters, succeeding exactly when counter and data
//! were persisted atomically and yielding garbage otherwise (Figure 4),
//! and [`recover_transactions`] rolls back an uncommitted transaction.
//!
//! Recovery runs against an *imperfect* DIMM and a possibly hostile
//! image: every media access goes through the store's checked read path,
//! so a [`FaultPlan`] attached to the image surfaces as retried
//! transients, ECC corrections, or, for uncorrectable damage, a typed
//! [`RecoveryError`] instead of a panic or silently wrong bytes.
//!
//! [`FaultPlan`]: supermem_nvm::FaultPlan

use supermem_crypto::{CounterLine, EncryptionEngine, IncrementOutcome};
use supermem_memctrl::{CrashImage, MachineCrashImage, Rsr};
use supermem_nvm::addr::{AddressMap, LineAddr, PageId};
use supermem_nvm::{LineData, MediaError, NvmStore};
use supermem_sim::Config;

use crate::log::{
    decode_records, log_checksum, read_header, LOG_MAGIC, STATE_COMMITTED, STATE_EMPTY, STATE_VALID,
};
use crate::pmem::PMem;

/// Transient reads are re-issued this many times before the line is
/// declared failed (mirrors the controller's live-path retry budget).
const READ_RETRY_LIMIT: u32 = 3;

/// Recovery-time cost charged per persisted line (counter or tree node)
/// read back from the media, in cycles: one NVM array read.
const RECOVERY_LINE_READ_CYCLES: u64 = 126;

/// Recovery-time cost charged per node hash recomputed or audited.
const RECOVERY_NODE_HASH_CYCLES: u64 = 40;

/// What the log scan found and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// No recognizable log header at the given address (fresh memory —
    /// or a log whose counters were lost, rendering it undecryptable).
    NoLog,
    /// The last transaction committed; nothing to do.
    CleanCommitted {
        /// Sequence number of the committed transaction.
        seq: u64,
    },
    /// An uncommitted transaction was rolled back from its undo records.
    RolledBack {
        /// Sequence number of the rolled-back transaction.
        seq: u64,
        /// Number of undo records applied.
        records: usize,
    },
}

/// Why a recovery pass could not produce a trusted state.
///
/// The taxonomy matters to the caller: `TornLog` means the *log* is
/// unusable but the data region may simply be pre-transaction;
/// `DetectedCorrupt` means the media itself reported damage the ECC
/// could not correct; `Unrecoverable` means the damage reaches state
/// the recovery algorithm has no second copy of.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryError {
    /// The configuration or the image's shape cannot drive recovery
    /// (a tree geometry the configuration cannot host, an image with no
    /// channels).
    Config(String),
    /// An uncorrectable media error was detected (ECC detection, a lost
    /// line, retry exhaustion, or an integrity-root mismatch) — the
    /// damage is *known*, not silent.
    DetectedCorrupt(String),
    /// The log header or payload is internally inconsistent (bad state
    /// word, bad checksum, undecodable records): a torn log write.
    TornLog(String),
    /// Damage reaches state with no redundant copy; the image cannot be
    /// rebuilt.
    Unrecoverable(String),
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Config(s) => write!(f, "configuration error: {s}"),
            Self::DetectedCorrupt(s) => write!(f, "detected media corruption: {s}"),
            Self::TornLog(s) => write!(f, "torn log: {s}"),
            Self::Unrecoverable(s) => write!(f, "unrecoverable: {s}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// Re-issues a checked media read while it fails transiently, up to the
/// retry budget, counting each retry in `retries`. Returns the first
/// success, or the error that ended the attempts.
fn read_retrying(
    retries: &mut u64,
    mut read: impl FnMut() -> Result<LineData, MediaError>,
) -> Result<LineData, MediaError> {
    let mut attempt = 0u32;
    loop {
        match read() {
            Err(MediaError::Transient) if attempt < READ_RETRY_LIMIT => {
                attempt += 1;
                *retries += 1;
            }
            result => return result,
        }
    }
}

/// A functional, decrypted view of a post-crash NVM image.
///
/// Implements [`PMem`] (flush/fence are no-ops — recovery runs against
/// durable state) so the log machinery can operate on it directly.
///
/// All media accesses go through the store's checked read path:
/// transient failures are retried (counted in
/// [`RecoveredMemory::read_retries`]); uncorrectable errors poison the
/// line to zeroes and count in [`RecoveredMemory::media_failures`], so
/// callers can distinguish "clean read" from "the DIMM lied".
///
/// # Examples
///
/// ```
/// use supermem_memctrl::MemoryController;
/// use supermem_nvm::addr::LineAddr;
/// use supermem_persist::{pmem::PMem, RecoveredMemory};
/// use supermem_sim::Config;
///
/// let cfg = Config::default();
/// let mut mc = MemoryController::new(&cfg);
/// mc.flush_line(LineAddr(0x1000), [7u8; 64], 0);
/// // A bare controller's image is a one-channel machine image.
/// let mut rec = RecoveredMemory::from_machine_image_checked(&cfg, mc.crash_now().into())?;
/// let mut buf = [0u8; 4];
/// rec.read(0x1000, &mut buf);
/// assert_eq!(buf, [7, 7, 7, 7]);
/// # Ok::<(), supermem_persist::RecoveryError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RecoveredMemory {
    store: NvmStore,
    map: AddressMap,
    engine: EncryptionEngine,
    encryption: bool,
    read_retries: u64,
    media_failures: u64,
    tree: TreeRebuild,
    osiris: OsirisReport,
    memo: ReadMemo,
}

/// What [`PMem::read`] on a [`RecoveredMemory`] remembers between lines
/// and between calls. Each entry is keyed on every input of a pure
/// function, so a hit yields exactly what recomputing would.
#[derive(Debug, Clone, Default)]
struct ReadMemo {
    /// The last counter line decoded, keyed on its raw bytes: a run of
    /// lines in one page reads the same counter line again and again.
    counter: Option<(LineData, CounterLine)>,
    /// The pad of the last line of the last read, keyed on its pad input
    /// (address, major, minor): a WAL record's body read starts on the
    /// line its length word was read from.
    pad: Option<((u64, u64, u8), LineData)>,
}

/// A line of a read whose ciphertext is already in the caller's buffer
/// and whose pad is not yet derived, so that two such lines can share
/// one AES batch.
struct PendingPad {
    /// The pad input: line address, major, minor.
    input: (u64, u64, u8),
    /// Offset of the line's bytes in the caller's buffer.
    at: usize,
    /// Offset of the first byte read within the line.
    off: usize,
    /// Bytes read from the line.
    n: usize,
}

/// Copies `line[off..]` into `dst`. The two helpers below take a
/// whole line as a fixed-size array, which compiles to a few vector
/// moves instead of a call for a run-time length.
fn copy_line_part(dst: &mut [u8], line: &LineData, off: usize) {
    match <&mut LineData>::try_from(&mut *dst) {
        Ok(whole) => *whole = *line,
        Err(_) => dst.copy_from_slice(&line[off..off + dst.len()]),
    }
}

/// XORs `pad[off..]` into `dst`.
fn xor_line_part(dst: &mut [u8], pad: &LineData, off: usize) {
    match <&mut LineData>::try_from(&mut *dst) {
        Ok(whole) => {
            for (d, p) in whole.iter_mut().zip(pad) {
                *d ^= p;
            }
        }
        Err(_) => {
            for (d, p) in dst.iter_mut().zip(&pad[off..]) {
                *d ^= p;
            }
        }
    }
}

impl RecoveredMemory {
    /// Recovers a machine crash image. Each channel's integrity tree is
    /// re-verified against that channel's root (skipped on Osiris
    /// machines and for channels without a root) and its interrupted
    /// page re-encryption completed; the disjoint per-channel stores are
    /// then merged into one address space. An Osiris machine finally
    /// re-derives its stale minor counters by trial decryption (see
    /// [`RecoveredMemory::osiris_report`]).
    ///
    /// A single-channel image, such as a bare
    /// [`MemoryController`](supermem_memctrl::MemoryController)'s
    /// [`CrashImage`], converts with `.into()`.
    ///
    /// # Errors
    ///
    /// - [`RecoveryError::Config`] when the image holds no channels or
    ///   the configuration cannot host the integrity tree;
    /// - [`RecoveryError::DetectedCorrupt`] when a counter or tree-node
    ///   line is unreadable (uncorrectable ECC error, lost line, retry
    ///   exhaustion), a persisted tree level does not hash from the
    ///   level below, or a recomputed root diverges from its channel's
    ///   trusted root register;
    /// - [`RecoveryError::Unrecoverable`] when an RSR names a page
    ///   outside the NVM or outside its channel, or an old major counter
    ///   that cannot advance.
    pub fn from_machine_image_checked(
        cfg: &Config,
        machine: MachineCrashImage,
    ) -> Result<Self, RecoveryError> {
        let map = AddressMap::with_channels(
            cfg.nvm_bytes,
            cfg.line_bytes,
            cfg.page_bytes,
            cfg.banks,
            cfg.channels,
        );
        let engine = EncryptionEngine::new(cfg.encryption_key());
        let mut tree = TreeRebuild::default();
        let mut settle = |channel: usize, image: CrashImage| -> Result<NvmStore, RecoveryError> {
            let CrashImage {
                mut store,
                rsr,
                bmt_root,
            } = image;
            // An Osiris machine's NVM counters lag by design: no root check.
            if let (None, Some(root)) = (cfg.osiris_window, bmt_root) {
                rebuild_image_tree(cfg, &mut store, root, &mut tree)?;
            }
            if let (true, Some(rsr)) = (cfg.encryption, rsr) {
                complete_rsr(&map, &engine, &mut store, &rsr, channel, cfg.osiris_window)?;
            }
            Ok(store)
        };
        let mut channels = machine.channels.into_iter().enumerate();
        let Some((_, first)) = channels.next() else {
            return Err(RecoveryError::Config(
                "machine crash image holds no channels".into(),
            ));
        };
        let mut store = settle(0, first)?;
        for (channel, image) in channels {
            store.absorb(settle(channel, image)?);
        }
        let mut rec = Self {
            store,
            map,
            engine,
            encryption: cfg.encryption,
            read_retries: tree.read_retries,
            media_failures: 0,
            tree,
            osiris: OsirisReport::default(),
            memo: ReadMemo::default(),
        };
        if let Some(window) = cfg.osiris_window {
            rec.osiris_scan(window);
        }
        Ok(rec)
    }

    /// Transient-read retries performed so far: the tree rebuild's plus
    /// those of every read since (the Osiris scan's are not counted).
    pub fn read_retries(&self) -> u64 {
        self.read_retries
    }

    /// Modeled recovery-time cost, in cycles, of the integrity-tree
    /// rebuild (0 for images without a root and for Osiris machines):
    /// persisted lines read at 126 cycles each plus node hashes at 40
    /// cycles each.
    pub fn recovery_cycles(&self) -> u64 {
        self.tree.recovery_cycles()
    }

    /// Reads answered with poison (or writes skipped) because the media
    /// reported an uncorrectable error or a counter could not advance.
    pub fn media_failures(&self) -> u64 {
        self.media_failures
    }

    /// What the integrity-tree rebuild did, summed over channels (all
    /// zeros when no channel carried a root or on an Osiris machine).
    pub fn tree_rebuild(&self) -> &TreeRebuild {
        &self.tree
    }

    /// What the Osiris counter reconstruction did (all zeros on a
    /// machine without `Config::osiris_window`).
    pub fn osiris_report(&self) -> &OsirisReport {
        &self.osiris
    }

    /// Checked media read on the merged store: retries transients,
    /// returns `None` after an uncorrectable error (counted in
    /// `media_failures`).
    fn checked_read(
        &mut self,
        mut read: impl FnMut(&mut NvmStore) -> Result<LineData, MediaError>,
    ) -> Option<LineData> {
        let store = &mut self.store;
        let line = read_retrying(&mut self.read_retries, || read(store)).ok();
        if line.is_none() {
            self.media_failures += 1;
        }
        line
    }

    fn read_line_plain(&mut self, line: LineAddr) -> LineData {
        let Some(cipher) = self.checked_read(|s| s.read_data_checked(line)) else {
            return [0; 64];
        };
        if !self.encryption {
            return cipher;
        }
        let page = self.map.page_of_line(line);
        let idx = self.map.line_index_in_page(line);
        let Some(raw) = self.checked_read(|s| s.read_counter_checked(page)) else {
            return [0; 64];
        };
        let ctr = CounterLine::decode(&raw);
        self.engine
            .decrypt_line(&cipher, line.0, ctr.major(), ctr.minor(idx))
    }

    /// The checked reads of one line of a [`PMem::read`], issued exactly
    /// as [`Self::read_line_plain`] issues them: the data line, then (on
    /// an encrypted machine) its page's counter line. The line's read
    /// bytes land in `dst`: poison, or an unencrypted machine's
    /// plaintext, or ciphertext. For ciphertext whose pad is memoized
    /// the pad is applied at once; otherwise the pad input is returned.
    fn fetch_line(
        &mut self,
        (line, page, idx): (LineAddr, PageId, usize),
        off: usize,
        dst: &mut [u8],
    ) -> Option<(u64, u64, u8)> {
        let Some(cipher) = self.checked_read(|s| s.read_data_checked(line)) else {
            dst.fill(0);
            return None;
        };
        if !self.encryption {
            copy_line_part(dst, &cipher, off);
            return None;
        }
        let Some(raw) = self.checked_read(|s| s.read_counter_checked(page)) else {
            dst.fill(0);
            return None;
        };
        copy_line_part(dst, &cipher, off);
        let ctr = match &mut self.memo.counter {
            Some((memo_raw, ctr)) if *memo_raw == raw => ctr,
            slot => &slot.insert((raw, CounterLine::decode(&raw))).1,
        };
        let input = (line.0, ctr.major(), ctr.minor(idx));
        match &self.memo.pad {
            Some((memo_input, pad)) if *memo_input == input => {
                xor_line_part(dst, pad, off);
                None
            }
            _ => Some(input),
        }
    }

    /// Applies a freshly derived pad to its pending line. The read's
    /// last line's pad is memoized.
    fn apply_pad(&mut self, p: PendingPad, pad: LineData, buf: &mut [u8]) {
        xor_line_part(&mut buf[p.at..p.at + p.n], &pad, p.off);
        if p.at + p.n == buf.len() {
            self.memo.pad = Some((p.input, pad));
        }
    }

    fn write_line_plain(&mut self, line: LineAddr, plain: LineData) {
        if !self.encryption {
            self.store.write_data(line, plain);
            return;
        }
        let page = self.map.page_of_line(line);
        let idx = self.map.line_index_in_page(line);
        let Some(raw) = self.checked_read(|s| s.read_counter_checked(page)) else {
            return; // counter unreadable: cannot re-encrypt, skip the write
        };
        let mut ctr = CounterLine::decode(&raw);
        if ctr.increment(idx) == IncrementOutcome::Overflow {
            let Some(major) = ctr.major().checked_add(1) else {
                // A major counter no live controller reaches: the page
                // cannot be re-keyed, so skip the write like an
                // unreadable counter.
                self.media_failures += 1;
                return;
            };
            self.reencrypt_page_functional(page, &ctr, major);
            ctr = CounterLine::with_major(major);
            assert!(matches!(
                ctr.increment(idx),
                IncrementOutcome::Incremented(_)
            ));
        }
        let cipher = self
            .engine
            .encrypt_line(&plain, line.0, ctr.major(), ctr.minor(idx));
        self.store.write_data(line, cipher);
        self.store.write_counter(page, ctr.encode());
    }

    /// Re-encrypts every line of `page` from `old` to `(major, 0)`.
    fn reencrypt_page_functional(&mut self, page: PageId, old: &CounterLine, major: u64) {
        for idx in 0..self.map.lines_per_page() as usize {
            let line = self.map.line_in_page(page, idx);
            let cipher = self.store.read_data(line);
            let plain = self
                .engine
                .decrypt_line(&cipher, line.0, old.major(), old.minor(idx));
            self.store
                .write_data(line, self.engine.encrypt_line(&plain, line.0, major, 0));
        }
    }

    /// Osiris counter reconstruction: for every written data line,
    /// trial-decrypts under candidate minors `stored..stored + window`
    /// and accepts the one matching the line's ECC tag, then rewrites
    /// the corrected counter lines.
    ///
    /// Scan reads go through the checked media path, but outside the
    /// `read_retries`/`media_failures` accounting: a data line the media
    /// cannot produce counts as unrecoverable, and an unreadable counter
    /// line makes every trial for its page fail, with the same effect.
    fn osiris_scan(&mut self, window: u8) {
        let Self {
            store,
            map,
            engine,
            osiris: report,
            ..
        } = self;
        let mut uncounted = 0;
        // Group written lines by page so each counter line is decoded and
        // rewritten once.
        let mut current_page: Option<(PageId, CounterLine, bool)> = None;
        for line in store.data_lines() {
            let page = map.page_of_line(line);
            if current_page.as_ref().is_none_or(|(p, _, _)| *p != page) {
                if let Some((p, ctr, true)) = current_page.take() {
                    store.write_counter(p, ctr.encode());
                }
                // An unreadable counter line decodes as zeroes: every trial
                // for this page misses its tag and counts unrecoverable.
                let raw = read_retrying(&mut uncounted, || store.read_counter_checked(page))
                    .unwrap_or([0; 64]);
                current_page = Some((page, CounterLine::decode(&raw), false));
            }
            let Some((_, ctr, changed)) = current_page.as_mut() else {
                unreachable!("page context set above");
            };
            report.lines_scanned += 1;
            let tag = store.read_tag(line);
            if tag == 0 {
                continue; // never written through the Osiris path
            }
            let idx = map.line_index_in_page(line);
            let Ok(cipher) = read_retrying(&mut uncounted, || store.read_data_checked(line)) else {
                report.unrecoverable_lines += 1;
                continue;
            };
            let stored = ctr.minor(idx);
            let found = trial_minors(stored, window).find(|&candidate| {
                report.trial_decryptions += 1;
                let plain = engine.decrypt_line(&cipher, line.0, ctr.major(), candidate);
                supermem_crypto::line_tag(&plain) == tag
            });
            match found {
                Some(candidate) if candidate != stored => {
                    ctr.set_minor(idx, candidate);
                    *changed = true;
                    report.counters_corrected += 1;
                }
                Some(_) => {}
                None => report.unrecoverable_lines += 1,
            }
        }
        if let Some((p, ctr, true)) = current_page {
            store.write_counter(p, ctr.encode());
        }
    }

    /// Borrow of the underlying store (verification).
    pub fn store(&self) -> &NvmStore {
        &self.store
    }
}

impl PMem for RecoveredMemory {
    /// Reads `buf.len()` bytes at `addr`. Every line's checked reads are
    /// issued in address order, as a line-at-a-time read would issue
    /// them; only the pad derivation is deferred, so that two lines
    /// share one eight-block AES batch ([`EncryptionEngine::otp2`]).
    fn read(&mut self, addr: u64, buf: &mut [u8]) {
        // The run's lines are walked page by page: the page and the
        // line's index in it advance with the line, with no division.
        let lines_per_page = self.map.lines_per_page() as usize;
        let mut line = LineAddr(addr & !63);
        let mut page = self.map.page_of_line(line);
        let mut idx = self.map.line_index_in_page(line);
        let mut held: Option<PendingPad> = None;
        let (mut at, mut off) = (0usize, (addr % 64) as usize);
        while at < buf.len() {
            let n = (64 - off).min(buf.len() - at);
            let dst = &mut buf[at..at + n];
            if let Some(input) = self.fetch_line((line, page, idx), off, dst) {
                let p = PendingPad { input, at, off, n };
                match held.take() {
                    None => held = Some(p),
                    Some(first) => {
                        let [pad0, pad1] = self.engine.otp2([first.input, p.input]);
                        self.apply_pad(first, pad0, buf);
                        self.apply_pad(p, pad1, buf);
                    }
                }
            }
            at += n;
            off = 0;
            line = LineAddr(line.0 + 64);
            idx += 1;
            if idx == lines_per_page {
                (page, idx) = (PageId(page.0 + 1), 0);
            }
        }
        if let Some(p) = held {
            let (addr, major, minor) = p.input;
            let pad = self.engine.otp(addr, major, minor);
            self.apply_pad(p, pad, buf);
        }
    }

    fn write(&mut self, addr: u64, bytes: &[u8]) {
        let line_bytes = 64u64;
        let mut i = 0usize;
        while i < bytes.len() {
            let a = addr + i as u64;
            let line = LineAddr(a & !(line_bytes - 1));
            let off = (a % line_bytes) as usize;
            let n = ((line_bytes as usize) - off).min(bytes.len() - i);
            let mut data = self.read_line_plain(line);
            data[off..off + n].copy_from_slice(&bytes[i..i + n]);
            self.write_line_plain(line, data);
            i += n;
        }
    }

    fn clwb(&mut self, _addr: u64, _len: u64) {}

    fn sfence(&mut self) {}
}

/// The candidate minors of an Osiris trial decryption: `stored` and the
/// `window` counters after it, up to the largest minor.
fn trial_minors(stored: u8, window: u8) -> impl Iterator<Item = u8> {
    (0..=window).map_while(move |delta| Some(stored.saturating_add(delta)).filter(|&m| m < 128))
}

/// Finishes the page re-encryption an RSR recorded as in flight: done
/// lines already decrypt under `(old_major + 1, 0)`, the rest still
/// decrypt with the old counter line the controller left untouched;
/// everything is rewritten under the new epoch and the counter line
/// reset (paper §3.4.4).
///
/// On an Osiris machine (`osiris_window` set) the old counter line's
/// minors may lag the ones the controller encrypted with, so an undone
/// line is recovered by trial decryption under the old major against its
/// tag, as the Osiris scan does. A line no trial matches is rewritten
/// from its stored minor, and the scan then counts it unrecoverable.
///
/// # Errors
///
/// [`RecoveryError::Unrecoverable`] for an RSR no controller writes: a
/// page outside the NVM or outside `channel`, or an old major counter
/// that cannot advance.
fn complete_rsr(
    map: &AddressMap,
    engine: &EncryptionEngine,
    store: &mut NvmStore,
    rsr: &Rsr,
    channel: usize,
    osiris_window: Option<u8>,
) -> Result<(), RecoveryError> {
    let page = rsr.page();
    if page.0 >= map.pages() {
        return Err(RecoveryError::Unrecoverable(format!(
            "RSR names page {}, outside the {}-page NVM",
            page.0,
            map.pages()
        )));
    }
    if map.page_channel(page) != channel {
        return Err(RecoveryError::Unrecoverable(format!(
            "RSR of channel {channel} names page {}, which channel {} owns",
            page.0,
            map.page_channel(page)
        )));
    }
    let Some(new_major) = rsr.old_major().checked_add(1) else {
        return Err(RecoveryError::Unrecoverable(format!(
            "RSR of page {} holds old major {}, which cannot advance",
            page.0,
            rsr.old_major()
        )));
    };
    let old = CounterLine::decode(&store.read_counter(page));
    for idx in 0..map.lines_per_page() as usize {
        let line = map.line_in_page(page, idx);
        let cipher = store.read_data(line);
        let stored = old.minor(idx);
        let old_plain = |minor| engine.decrypt_line(&cipher, line.0, old.major(), minor);
        let tag = store.read_tag(line);
        let plain = match osiris_window {
            _ if rsr.is_done(idx) => engine.decrypt_line(&cipher, line.0, new_major, 0),
            Some(window) if tag != 0 => trial_minors(stored, window)
                .map(old_plain)
                .find(|plain| supermem_crypto::line_tag(plain) == tag)
                .unwrap_or_else(|| old_plain(stored)),
            _ => old_plain(stored),
        };
        store.write_data(line, engine.encrypt_line(&plain, line.0, new_major, 0));
    }
    store.write_counter(page, CounterLine::with_major(new_major).encode());
    Ok(())
}

/// Result of an Osiris-style counter reconstruction pass
/// ([`RecoveredMemory::osiris_report`]).
///
/// The interesting cost metric is `trial_decryptions`: real hardware
/// performs one AES + ECC check per trial, and the scan visits every
/// written line — so recovery time grows linearly with the memory
/// footprint, which is precisely the drawback the SuperMem paper's §6
/// cites. SuperMem itself needs none of this (strict counter
/// persistence), so its equivalent report is all zeros.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OsirisReport {
    /// Data lines visited by the scan.
    pub lines_scanned: u64,
    /// Trial decryptions performed.
    pub trial_decryptions: u64,
    /// Minor counters found stale and corrected.
    pub counters_corrected: u64,
    /// Lines whose counter could not be re-derived within the window.
    pub unrecoverable_lines: u64,
}

/// Cost report of the crash-image tree rebuild
/// ([`RecoveredMemory::tree_rebuild`]), summed over channels.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TreeRebuild {
    /// Counter lines read back to reconstruct leaf digests (0 when the
    /// leaf-digest level itself was persisted).
    pub counter_lines_checked: u64,
    /// Persisted tree-node lines read back from the tree region.
    pub persisted_lines_installed: u64,
    /// Node hashes the recovery hardware performs: leaf digests,
    /// per-level audits, and the volatile-level recompute. The model
    /// charges every node of each audited and recomputed level; the
    /// host itself rehashes only what the crash changed
    /// ([`supermem_integrity::BmtRebuild`]).
    pub nodes_recomputed: u64,
    /// Transient-read retries spent on the rebuild's media reads.
    pub read_retries: u64,
}

impl TreeRebuild {
    /// Modeled rebuild cost: 126 cycles per line read back (one NVM
    /// array read) plus 40 cycles per node hash recomputed or audited.
    pub fn recovery_cycles(&self) -> u64 {
        (self.counter_lines_checked + self.persisted_lines_installed) * RECOVERY_LINE_READ_CYCLES
            + self.nodes_recomputed * RECOVERY_NODE_HASH_CYCLES
    }
}

/// Rebuilds the integrity tree over one channel's store through the
/// checked media path, adds its cost to `rep`, and checks the result
/// against the trusted root register.
///
/// In eager mode (and at `persisted_levels = 0`) every leaf digest is
/// rebuilt from its persisted counter line and the whole tree is
/// recomputed bottom-up — the Phoenix-style full rebuild. With a
/// streaming frontier the persisted node levels are *read back* from
/// the tree region instead, audited level-against-level, and only the
/// volatile levels above the frontier are recomputed — the Triad-NVM
/// recovery-time saving the `treesweep` figure quantifies.
///
/// # Errors
///
/// [`RecoveryError::DetectedCorrupt`] when a counter or tree-node line
/// is unreadable (uncorrectable ECC damage, lost line, retry
/// exhaustion), a persisted level does not hash from its children, or
/// the root mismatches; [`RecoveryError::Config`] when the configuration
/// cannot host a tree at all.
fn rebuild_image_tree(
    cfg: &Config,
    store: &mut NvmStore,
    root: u64,
    rep: &mut TreeRebuild,
) -> Result<(), RecoveryError> {
    let unreadable = |what: String, e: MediaError| {
        RecoveryError::DetectedCorrupt(format!(
            "{what} unreadable during integrity verification: {e}"
        ))
    };
    let frontier = if cfg.streaming_tree() {
        cfg.persisted_levels.unwrap_or(0) as usize
    } else {
        0
    };
    let mut bmt =
        supermem_integrity::Bmt::rebuild(cfg.encryption_key(), cfg.integrity_pages, frontier)
            .map_err(|e| RecoveryError::Config(format!("integrity tree: {e}")))?;
    if frontier == 0 {
        // Leaves from the (always-persisted) counter lines themselves.
        for page in store.counter_lines() {
            if page.0 >= cfg.integrity_pages {
                continue;
            }
            let raw = read_retrying(&mut rep.read_retries, || store.read_counter_checked(page))
                .map_err(|e| unreadable(format!("counter line of page {}", page.0), e))?;
            bmt.set_leaf(page.0, &raw);
            rep.counter_lines_checked += 1;
            rep.nodes_recomputed += 1; // the leaf digest hash
        }
    } else {
        // Persisted levels come back from the tree region.
        for id in store.tree_lines() {
            let level = supermem_integrity::tree_line_level(id) as usize;
            if level >= frontier {
                continue; // stale line from a deeper former frontier
            }
            let raw = read_retrying(&mut rep.read_retries, || store.read_tree_checked(id))
                .map_err(|e| unreadable(format!("tree node line {id:#x}"), e))?;
            bmt.install_node_line(level, supermem_integrity::tree_line_group(id), &raw);
            rep.persisted_lines_installed += 1;
        }
    }
    // Audit the persisted levels, then recompute the volatile ones.
    let (rebuilt, hashes) = bmt.finish();
    rep.nodes_recomputed += hashes;
    let tree = rebuilt.map_err(|level| {
        RecoveryError::DetectedCorrupt(format!(
            "persisted tree level {level} does not match its children"
        ))
    })?;
    if tree.root() != root {
        return Err(RecoveryError::DetectedCorrupt(
            "integrity root mismatch: counter region does not match the trusted root".into(),
        ));
    }
    Ok(())
}

/// Scans the log region at `log_base` and rolls back an uncommitted
/// transaction. Returns what was found; on [`RecoveryOutcome::RolledBack`]
/// the undo records have been applied to `mem`.
///
/// # Errors
///
/// [`RecoveryError::DetectedCorrupt`] when reading the header or payload
/// hit an uncorrectable media error; [`RecoveryError::TornLog`] when the
/// log is internally inconsistent (bad checksum, undecodable records, or
/// a state word no protocol stage writes).
pub fn recover_transactions(
    mem: &mut RecoveredMemory,
    log_base: u64,
) -> Result<RecoveryOutcome, RecoveryError> {
    let failures_before = mem.media_failures();
    let h = read_header(mem, log_base);
    if mem.media_failures() > failures_before {
        return Err(RecoveryError::DetectedCorrupt(
            "log header read hit an uncorrectable media error".into(),
        ));
    }
    if h.magic != LOG_MAGIC {
        return Ok(RecoveryOutcome::NoLog);
    }
    match h.state {
        STATE_COMMITTED => Ok(RecoveryOutcome::CleanCommitted { seq: h.seq }),
        STATE_EMPTY => Ok(RecoveryOutcome::NoLog),
        STATE_VALID => {
            let mut payload = vec![0u8; h.len as usize];
            mem.read(log_base + crate::log::LOG_HEADER_BYTES, &mut payload);
            if mem.media_failures() > failures_before {
                return Err(RecoveryError::DetectedCorrupt(
                    "log payload read hit an uncorrectable media error".into(),
                ));
            }
            if log_checksum(h.seq, &payload) != h.checksum {
                return Err(RecoveryError::TornLog(format!(
                    "log seq {} fails its checksum",
                    h.seq
                )));
            }
            match decode_records(&payload) {
                Some(records) => {
                    for r in &records {
                        mem.write(r.addr, &r.data);
                    }
                    // Retire the log so a second recovery is a no-op.
                    mem.write_u64(log_base + 16, STATE_COMMITTED);
                    Ok(RecoveryOutcome::RolledBack {
                        seq: h.seq,
                        records: records.len(),
                    })
                }
                None => Err(RecoveryError::TornLog(format!(
                    "log seq {} payload does not decode",
                    h.seq
                ))),
            }
        }
        other => Err(RecoveryError::TornLog(format!(
            "log state word {other} matches no protocol stage"
        ))),
    }
}

#[cfg(test)]
impl RecoveredMemory {
    /// The line-at-a-time read [`PMem::read`] replaced: per line, both
    /// checked reads, a fresh counter decode and a single-line pad. Kept
    /// as the reference the batched, memoized read must agree with.
    fn read_reference(&mut self, addr: u64, buf: &mut [u8]) {
        let mut i = 0usize;
        while i < buf.len() {
            let a = addr + i as u64;
            let line = LineAddr(a & !63);
            let off = (a % 64) as usize;
            let n = (64 - off).min(buf.len() - i);
            let data = self.read_line_plain(line);
            buf[i..i + n].copy_from_slice(&data[off..off + n]);
            i += n;
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;
    use supermem_memctrl::MemoryController;

    fn cfg() -> Config {
        Config::default()
    }

    /// Recovers a bare controller's image as a one-channel machine.
    fn recover(cfg: &Config, image: CrashImage) -> RecoveredMemory {
        RecoveredMemory::from_machine_image_checked(cfg, image.into()).expect("image recovers")
    }

    fn recover_err(cfg: &Config, image: CrashImage) -> RecoveryError {
        RecoveredMemory::from_machine_image_checked(cfg, image.into()).unwrap_err()
    }

    #[test]
    fn reads_decrypt_flushed_data() {
        let mut mc = MemoryController::new(&cfg());
        let t = mc.flush_line(LineAddr(0x40), [0xAB; 64], 0);
        mc.flush_line(LineAddr(0x80), [0xCD; 64], t);
        let mut rec = recover(&cfg(), mc.crash_now());
        let mut buf = [0u8; 128];
        rec.read(0x40, &mut buf);
        assert_eq!(&buf[..64], &[0xAB; 64]);
        assert_eq!(&buf[64..], &[0xCD; 64]);
    }

    /// A seeded image over the first four pages: random lines flushed
    /// one to several times (so minors differ within a page), then a
    /// random fault plan mixing every read-side fault the media model
    /// has: transient failures (some past the retry budget), lost lines,
    /// single and double flips, and stuck cells, on data and counter
    /// lines alike.
    fn faulty_image(cfg: &Config, rng: &mut supermem_sim::SplitMix64) -> CrashImage {
        use supermem_nvm::{FaultClass, FaultPlan, FaultSpec};
        const LINES: u64 = 4 * 64;
        let mut mc = MemoryController::new(cfg);
        let mut t = 0;
        for _ in 0..rng.next_range(20, 200) {
            let line = LineAddr(rng.next_below(LINES) * 64);
            let mut data = [0u8; 64];
            rng.fill_bytes(&mut data);
            t = mc.flush_line(line, data, t);
        }
        mc.finish(t);
        let mut image = mc.crash_now();
        let mut plan = FaultPlan::new(FaultSpec {
            class: FaultClass::BitFlip,
            seed: rng.next_u64(),
        });
        for _ in 0..rng.next_below(12) {
            let line = LineAddr(rng.next_below(LINES) * 64);
            let page = PageId(rng.next_below(4));
            let bit = rng.next_below(512) as usize;
            match rng.next_below(9) {
                0 => plan.fail_data_reads(line, rng.next_range(1, 6) as u32),
                1 => plan.fail_counter_reads(page, rng.next_range(1, 6) as u32),
                2 => plan.note_lost_data(line),
                3 => plan.note_lost_counter(page),
                4 => plan.flip_data_bit(line, bit),
                5 => plan.flip_counter_bit(page, bit),
                6 => {
                    plan.flip_data_bit(line, bit);
                    plan.flip_data_bit(line, (bit + 1 + rng.next_below(511) as usize) % 512);
                }
                7 => {
                    plan.flip_counter_bit(page, bit);
                    plan.flip_counter_bit(page, (bit + 1 + rng.next_below(511) as usize) % 512);
                }
                _ => plan.stick_data_cell(line, bit, rng.next_below(2) == 1),
            }
        }
        image.store.attach_faults(plan);
        image
    }

    /// A random read: one byte, a short unaligned run, a run across a
    /// page boundary, or a long run, anywhere in (and just past) the
    /// four written pages.
    fn random_span(rng: &mut supermem_sim::SplitMix64) -> (u64, usize) {
        match rng.next_below(4) {
            0 => (rng.next_below(4 * 4096 + 128), 1),
            1 => (rng.next_below(4 * 4096), rng.next_range(1, 70) as usize),
            2 => {
                let boundary = rng.next_range(1, 5) * 4096;
                (
                    boundary - rng.next_range(1, 200),
                    rng.next_range(2, 400) as usize,
                )
            }
            _ => (rng.next_below(4096), rng.next_range(64, 3 * 4096) as usize),
        }
    }

    /// The batched, memoized read against the line-at-a-time reference,
    /// over random images, fault plans and spans, on an encrypted and an
    /// unencrypted machine: the same bytes, the same retry and failure
    /// counts, and the same fault-plan tallies after every span. Writes
    /// are interleaved so the memos see ciphertexts and counters change
    /// under them, and reads repeat or continue where the last one
    /// ended, as a WAL record's length read and body read do.
    #[test]
    fn batched_read_matches_the_line_at_a_time_reference() {
        let mut rng = supermem_sim::SplitMix64::new(0x0BA7_C4ED);
        let (mut retried, mut failed) = (0, 0);
        for round in 0..160 {
            let cfg = Config {
                encryption: round % 4 != 3,
                ..cfg()
            };
            let mut fast = recover(&cfg, faulty_image(&cfg, &mut rng));
            let mut reference = fast.clone();
            for step in 0..40 {
                let what = format!("round {round}, step {step}");
                let (addr, len) = random_span(&mut rng);
                if rng.next_below(8) == 0 {
                    let mut bytes = vec![0u8; len.min(200)];
                    rng.fill_bytes(&mut bytes);
                    fast.write(addr, &bytes);
                    reference.write(addr, &bytes);
                    continue;
                }
                // The span, then the same span again or the span right
                // after it (a WAL record's body after its length word).
                let mut span = (addr, len);
                for _ in 0..=rng.next_below(3) {
                    let (addr, len) = span;
                    let (mut got, mut want) = (vec![0u8; len], vec![0u8; len]);
                    fast.read(addr, &mut got);
                    reference.read_reference(addr, &mut want);
                    assert_eq!(got, want, "{what}: bytes at {addr:#x}+{len}");
                    match rng.next_below(4) {
                        0 | 1 => span = (addr + len as u64, rng.next_range(1, 100) as usize),
                        // Rewrite the span's last byte: its line's minor
                        // advances under the memoized pad.
                        2 => {
                            let last = addr + len as u64 - 1;
                            let byte = [rng.next_u64() as u8];
                            fast.write(last, &byte);
                            reference.write(last, &byte);
                        }
                        _ => {}
                    }
                }
                assert_eq!(fast.read_retries(), reference.read_retries(), "{what}");
                assert_eq!(fast.media_failures(), reference.media_failures(), "{what}");
                assert_eq!(
                    fast.store().fault_counters(),
                    reference.store().fault_counters(),
                    "{what}"
                );
            }
            retried += u32::from(fast.read_retries() > 0);
            failed += u32::from(fast.media_failures() > 0);
        }
        assert!(
            retried > 20 && failed > 20,
            "fault plans too tame: {retried} rounds retried, {failed} failed"
        );
    }

    #[test]
    fn writes_reencrypt_consistently() {
        let mut mc = MemoryController::new(&cfg());
        mc.flush_line(LineAddr(0x100), [1; 64], 0);
        let mut rec = recover(&cfg(), mc.crash_now());
        rec.write(0x110, &[9, 9, 9]);
        let mut buf = [0u8; 64];
        rec.read(0x100, &mut buf);
        assert_eq!(buf[0x10..0x13], [9, 9, 9]);
        assert_eq!(buf[0], 1);
        // The store still holds ciphertext.
        assert_ne!(rec.store().read_data(LineAddr(0x100))[0], buf[0]);
    }

    #[test]
    fn functional_write_handles_minor_overflow() {
        let cfg = cfg();
        let mut rec = recover(&cfg, MemoryController::new(&cfg).crash_now());
        // Initialize the neighbor so we can check it survives re-keying.
        rec.write(64, &[5u8; 8]);
        for i in 0..200u32 {
            rec.write(0, &i.to_le_bytes());
        }
        let mut buf = [0u8; 4];
        rec.read(0, &mut buf);
        assert_eq!(u32::from_le_bytes(buf), 199);
        let mut buf = [0u8; 8];
        rec.read(64, &mut buf);
        assert_eq!(buf, [5u8; 8]);
    }

    #[test]
    fn unencrypted_mode_passthrough() {
        let mut c = cfg();
        c.encryption = false;
        let mut mc = MemoryController::new(&c);
        mc.flush_line(LineAddr(0), [3; 64], 0);
        let mut rec = recover(&c, mc.crash_now());
        let mut buf = [0u8; 8];
        rec.read(0, &mut buf);
        assert_eq!(buf, [3; 8]);
        rec.write(0, &[4; 8]);
        assert_eq!(rec.store().read_data(LineAddr(0))[0], 4, "plaintext store");
    }

    /// Writes line 0 to minor 124, a bystander line 5 twice, line 0 to
    /// minor 127, then overflows line 0's minor counter and crashes
    /// `appends` appends into the page re-encryption. Under
    /// [`osiris_cfg`] the NVM counter line was last persisted at minor
    /// 124, so it holds a stale minor for line 5.
    fn crash_mid_reencryption(cfg: &Config, appends: u64) -> CrashImage {
        let mut mc = MemoryController::new(cfg);
        let mut t = 0;
        for i in 0..127u64 {
            if i == 124 {
                t = mc.flush_line(LineAddr(5 * 64), [0x76; 64], t);
                t = mc.flush_line(LineAddr(5 * 64), [0x77; 64], t);
            }
            t = mc.flush_line(LineAddr(0), [i as u8; 64], t);
        }
        // The next flush overflows and starts the re-encryption.
        mc.arm_crash_after_appends(appends);
        mc.flush_line(LineAddr(0), [0xFF; 64], t);
        let image = mc.take_crash_image().expect("crash fired mid-reencryption");
        assert!(image.rsr.is_some(), "RSR must be live in the image");
        image
    }

    /// Both lines of [`crash_mid_reencryption`] read back one of their
    /// consistent versions.
    fn assert_consistent_after_reencryption_crash(rec: &mut RecoveredMemory, what: &str) {
        let mut buf = [0u8; 64];
        rec.read(5 * 64, &mut buf);
        assert_eq!(buf, [0x77; 64], "{what}: bystander line survives the crash");
        rec.read(0, &mut buf);
        // Line 0 is either the pre-overflow value (126) or the new one.
        assert!(
            buf == [126; 64] || buf == [0xFF; 64],
            "{what}: hot line must be one of its two consistent versions"
        );
    }

    #[test]
    fn completes_interrupted_reencryption_via_rsr() {
        let cfg = cfg();
        let mut rec = recover(&cfg, crash_mid_reencryption(&cfg, 10));
        assert_consistent_after_reencryption_crash(&mut rec, "strict counters");
    }

    /// The RSR is completed before the Osiris scan, so the lines the
    /// interrupted re-encryption already rewrote under the new major
    /// are not mistaken for unrecoverable ones, and the lines it had not
    /// yet rewritten are recovered past their stale NVM minors.
    #[test]
    fn osiris_crash_mid_reencryption_reports_no_damage() {
        let cfg = osiris_cfg();
        for appends in [2, 5, 10, 20, 40, 60] {
            let mut rec = recover(&cfg, crash_mid_reencryption(&cfg, appends));
            assert_eq!(
                rec.osiris_report().unrecoverable_lines,
                0,
                "crash after {appends} appends"
            );
            assert_consistent_after_reencryption_crash(&mut rec, &format!("{appends} appends"));
        }
    }

    fn osiris_cfg() -> Config {
        Config {
            counter_cache_mode: supermem_sim::CounterCacheMode::WriteBack,
            counter_cache_backing: supermem_sim::CounterCacheBacking::None,
            osiris_window: Some(4),
            ..Config::default()
        }
    }

    #[test]
    fn osiris_recovers_stale_counters_by_trial_decryption() {
        let cfg = osiris_cfg();
        let mut mc = MemoryController::new(&cfg);
        // Write the same line three times: minors advance to 3 but in
        // write-back mode only the increment hitting `minor % 4 == 0`
        // (none here) persists the counter line — the NVM counter is
        // stale at the crash.
        let mut t = 0;
        for i in 1..=3u8 {
            t = mc.flush_line(LineAddr(0x40), [i; 64], t);
        }
        let image = mc.crash_now();
        // Without reconstruction the line is garbage...
        let no_scan = Config {
            osiris_window: None,
            ..cfg.clone()
        };
        let mut naive = recover(&no_scan, image.clone());
        let mut buf = [0u8; 64];
        naive.read(0x40, &mut buf);
        assert_ne!(buf, [3u8; 64], "stale counter must not decrypt");
        // ...with Osiris reconstruction it comes back.
        let mut rec = recover(&cfg, image);
        rec.read(0x40, &mut buf);
        assert_eq!(buf, [3u8; 64]);
        let report = rec.osiris_report();
        assert_eq!(report.counters_corrected, 1);
        assert_eq!(report.unrecoverable_lines, 0);
        assert!(report.trial_decryptions >= 4, "search cost must show up");
        let _ = t;
    }

    #[test]
    fn osiris_scan_cost_scales_with_footprint() {
        let cfg = osiris_cfg();
        let lines_written = |n: u64| {
            let mut mc = MemoryController::new(&cfg);
            let mut t = 0;
            for i in 0..n {
                t = mc.flush_line(LineAddr(i * 64), [i as u8; 64], t);
            }
            recover(&cfg, mc.crash_now()).osiris_report().lines_scanned
        };
        assert_eq!(lines_written(16), 16);
        assert_eq!(lines_written(64), 64);
    }

    #[test]
    fn osiris_report_is_clean_when_counters_are_fresh() {
        // A checkpointed (fully drained) Osiris system has current
        // counters: recovery corrects nothing.
        let cfg = osiris_cfg();
        let mut mc = MemoryController::new(&cfg);
        let t = mc.flush_line(LineAddr(0x80), [9; 64], 0);
        mc.finish(t);
        let mut rec = recover(&cfg, mc.crash_now());
        assert_eq!(rec.osiris_report().counters_corrected, 0);
        assert_eq!(rec.osiris_report().unrecoverable_lines, 0);
        let mut buf = [0u8; 64];
        rec.read(0x80, &mut buf);
        assert_eq!(buf, [9; 64]);
    }

    #[test]
    fn osiris_report_is_zero_without_a_window() {
        let cfg = Config::default();
        let mut mc = MemoryController::new(&cfg);
        let t = mc.flush_line(LineAddr(0x80), [9; 64], 0);
        mc.finish(t);
        let rec = recover(&cfg, mc.crash_now());
        assert_eq!(rec.osiris_report(), &OsirisReport::default());
    }

    #[test]
    fn recovery_of_fresh_memory_reports_nolog() {
        let cfg = cfg();
        let mut rec = recover(&cfg, MemoryController::new(&cfg).crash_now());
        assert_eq!(
            recover_transactions(&mut rec, 0x10000),
            Ok(RecoveryOutcome::NoLog)
        );
    }

    #[test]
    fn rollback_restores_old_data_and_is_idempotent() {
        use crate::log::{
            encode_records, log_checksum as ck, UndoRecord, LOG_HEADER_BYTES, LOG_MAGIC,
            STATE_VALID,
        };
        let cfg = cfg();
        let mut rec = recover(&cfg, MemoryController::new(&cfg).crash_now());
        let log = 0x20000u64;
        // Data was "mutated" to 9s; the log says it used to be 1s.
        rec.write(0x100, &[9; 16]);
        let payload = encode_records(&[UndoRecord {
            addr: 0x100,
            data: vec![1; 16],
        }]);
        rec.write(log + LOG_HEADER_BYTES, &payload);
        rec.write_u64(log, LOG_MAGIC);
        rec.write_u64(log + 8, 5);
        rec.write_u64(log + 16, STATE_VALID);
        rec.write_u64(log + 24, payload.len() as u64);
        rec.write_u64(log + 32, ck(5, &payload));

        let out = recover_transactions(&mut rec, log).expect("clean media");
        assert_eq!(out, RecoveryOutcome::RolledBack { seq: 5, records: 1 });
        let mut buf = [0u8; 16];
        rec.read(0x100, &mut buf);
        assert_eq!(buf, [1; 16]);
        // Second scan finds a committed (retired) log: recovering twice
        // is a no-op and the rolled-back data is untouched.
        assert_eq!(
            recover_transactions(&mut rec, log),
            Ok(RecoveryOutcome::CleanCommitted { seq: 5 })
        );
        rec.read(0x100, &mut buf);
        assert_eq!(buf, [1; 16], "second recovery must not reapply records");
    }

    #[test]
    fn bad_checksum_is_a_torn_log() {
        use crate::log::{LOG_MAGIC, STATE_VALID};
        let cfg = cfg();
        let mut rec = recover(&cfg, MemoryController::new(&cfg).crash_now());
        let log = 0x30000u64;
        rec.write_u64(log, LOG_MAGIC);
        rec.write_u64(log + 8, 1);
        rec.write_u64(log + 16, STATE_VALID);
        rec.write_u64(log + 24, 8);
        rec.write_u64(log + 32, 0xBAD);
        let err = recover_transactions(&mut rec, log).unwrap_err();
        assert!(matches!(err, RecoveryError::TornLog(_)), "got {err:?}");
        assert!(err.to_string().contains("checksum"));
    }

    #[test]
    fn insane_state_is_a_torn_log() {
        use crate::log::LOG_MAGIC;
        let cfg = cfg();
        let mut rec = recover(&cfg, MemoryController::new(&cfg).crash_now());
        let log = 0x40000u64;
        rec.write_u64(log, LOG_MAGIC);
        rec.write_u64(log + 16, 77);
        let err = recover_transactions(&mut rec, log).unwrap_err();
        assert!(matches!(err, RecoveryError::TornLog(_)), "got {err:?}");
    }

    #[test]
    fn recovery_error_displays_its_taxonomy() {
        let cases = [
            (RecoveryError::Config("c".into()), "configuration error"),
            (
                RecoveryError::DetectedCorrupt("d".into()),
                "detected media corruption",
            ),
            (RecoveryError::TornLog("t".into()), "torn log"),
            (RecoveryError::Unrecoverable("u".into()), "unrecoverable"),
        ];
        for (err, needle) in cases {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn an_image_without_channels_is_refused() {
        let machine = MachineCrashImage { channels: vec![] };
        let err = RecoveredMemory::from_machine_image_checked(&cfg(), machine).unwrap_err();
        assert!(matches!(err, RecoveryError::Config(_)), "got {err:?}");
    }

    #[test]
    fn an_rsr_whose_major_cannot_advance_is_refused() {
        let cfg = cfg();
        let mut image = MemoryController::new(&cfg).crash_now();
        image.rsr = Some(Rsr::new(PageId(0), u64::MAX));
        let err = recover_err(&cfg, image);
        assert!(
            matches!(err, RecoveryError::Unrecoverable(_)),
            "got {err:?}"
        );
    }

    #[test]
    fn an_rsr_outside_the_nvm_is_refused() {
        let cfg = cfg();
        let mut image = MemoryController::new(&cfg).crash_now();
        image.rsr = Some(Rsr::new(PageId(u64::MAX), 0));
        let err = recover_err(&cfg, image);
        assert!(
            matches!(err, RecoveryError::Unrecoverable(_)),
            "got {err:?}"
        );
    }

    #[test]
    fn a_write_that_would_overflow_the_major_counter_is_skipped_and_counted() {
        let cfg = cfg();
        let mut mc = MemoryController::new(&cfg);
        let t = mc.flush_line(LineAddr(0), [1; 64], 0);
        mc.finish(t);
        let mut image = mc.crash_now();
        let mut exhausted = CounterLine::with_major(u64::MAX);
        exhausted.set_minor(0, 127);
        image.store.write_counter(PageId(0), exhausted.encode());
        let before = image.store.read_data(LineAddr(0));
        let mut rec = recover(&cfg, image);
        rec.write(0, &[2; 8]);
        assert_eq!(
            rec.media_failures(),
            1,
            "the skipped write is a detection signal"
        );
        assert_eq!(rec.store().read_data(LineAddr(0)), before, "write skipped");
    }

    fn integrity_cfg() -> Config {
        Config {
            integrity_tree: true,
            ..Config::default()
        }
    }

    #[test]
    fn checked_build_accepts_a_clean_image() {
        let cfg = integrity_cfg();
        let mut mc = MemoryController::new(&cfg);
        let t = mc.flush_line(LineAddr(0x40), [0xAA; 64], 0);
        mc.finish(t);
        let mut rec = recover(&cfg, mc.crash_now());
        let mut buf = [0u8; 8];
        rec.read(0x40, &mut buf);
        assert_eq!(buf, [0xAA; 8]);
        assert_eq!(rec.media_failures(), 0);
        assert!(rec.tree_rebuild().counter_lines_checked > 0);
    }

    #[test]
    fn checked_build_detects_counter_tampering() {
        let cfg = integrity_cfg();
        let mut mc = MemoryController::new(&cfg);
        let t = mc.flush_line(LineAddr(0x40), [0xAA; 64], 0);
        mc.finish(t);
        let mut image = mc.crash_now();
        // Flip stored counter bytes behind the controller's back.
        let page = image
            .store
            .counter_lines()
            .into_iter()
            .next()
            .expect("a counter line");
        let mut raw = image.store.read_counter(page);
        raw[0] ^= 0xFF;
        image.store.write_counter(page, raw);
        let err = recover_err(&cfg, image);
        assert!(
            matches!(err, RecoveryError::DetectedCorrupt(_)),
            "got {err:?}"
        );
        assert!(err.to_string().contains("integrity root mismatch"));
    }

    #[test]
    fn checked_build_detects_uncorrectable_counter_flips() {
        use supermem_nvm::{FaultClass, FaultPlan, FaultSpec};
        let cfg = integrity_cfg();
        let mut mc = MemoryController::new(&cfg);
        let t = mc.flush_line(LineAddr(0x40), [0xAA; 64], 0);
        mc.finish(t);
        let mut image = mc.crash_now();
        // Force a double-bit flip onto the image's only counter line.
        let page = image
            .store
            .counter_lines()
            .into_iter()
            .next()
            .expect("a counter line");
        let mut plan = FaultPlan::new(FaultSpec {
            class: FaultClass::DoubleFlip,
            seed: 1,
        });
        plan.flip_counter_bit(page, 3);
        plan.flip_counter_bit(page, 200);
        image.store.attach_faults(plan);
        let err = recover_err(&cfg, image);
        assert!(
            matches!(err, RecoveryError::DetectedCorrupt(_)),
            "got {err:?}"
        );
        assert!(err.to_string().contains("unreadable"));
    }

    #[test]
    fn recovery_retries_transient_reads_and_succeeds() {
        use supermem_nvm::{FaultClass, FaultPlan, FaultSpec};
        let cfg = cfg();
        let mut mc = MemoryController::new(&cfg);
        let t = mc.flush_line(LineAddr(0x40), [0x5A; 64], 0);
        mc.finish(t);
        let mut image = mc.crash_now();
        let mut plan = FaultPlan::new(FaultSpec {
            class: FaultClass::TransientRead,
            seed: 1,
        });
        plan.fail_data_reads(LineAddr(0x40), 2);
        image.store.attach_faults(plan);
        let mut rec = recover(&cfg, image);
        let mut buf = [0u8; 8];
        rec.read(0x40, &mut buf);
        assert_eq!(buf, [0x5A; 8], "retries must recover the line");
        assert!(rec.read_retries() >= 2);
        assert_eq!(rec.media_failures(), 0);
    }

    #[test]
    fn recovery_poisons_lost_lines_and_counts_the_failure() {
        use supermem_nvm::{FaultClass, FaultPlan, FaultSpec};
        let cfg = cfg();
        let mut mc = MemoryController::new(&cfg);
        let t = mc.flush_line(LineAddr(0x40), [0x5A; 64], 0);
        mc.finish(t);
        let mut image = mc.crash_now();
        let mut plan = FaultPlan::new(FaultSpec {
            class: FaultClass::BankFail,
            seed: 1,
        });
        plan.note_lost_data(LineAddr(0x40));
        image.store.attach_faults(plan);
        let mut rec = recover(&cfg, image);
        let mut buf = [0u8; 8];
        rec.read(0x40, &mut buf);
        assert_eq!(buf, [0; 8], "lost lines read as poison");
        assert!(rec.media_failures() > 0, "the failure must be counted");
    }

    fn streaming_cfg(levels: u32) -> Config {
        Config {
            integrity_tree: true,
            persisted_levels: Some(levels),
            ..Config::default()
        }
    }

    fn streaming_image(levels: u32) -> (Config, CrashImage) {
        let cfg = streaming_cfg(levels);
        let mut mc = MemoryController::new(&cfg);
        let mut t = 0;
        for i in 0..12u64 {
            t = mc.flush_line(LineAddr(i * 4096), [i as u8 + 1; 64], t);
        }
        mc.finish(t);
        (cfg, mc.crash_now())
    }

    #[test]
    fn streaming_recovery_rebuilds_from_the_persisted_frontier() {
        let (cfg, image) = streaming_image(2);
        let mut rec = recover(&cfg, image);
        assert!(rec.recovery_cycles() > 0, "rebuild cost must be accounted");
        let mut buf = [0u8; 8];
        rec.read(5 * 4096, &mut buf);
        assert_eq!(buf, [6; 8]);
    }

    #[test]
    fn streaming_verdict_reads_node_lines_not_counter_lines() {
        let (cfg, image) = streaming_image(2);
        let rec = recover(&cfg, image);
        let rebuild = rec.tree_rebuild();
        assert!(rebuild.persisted_lines_installed > 0);
        assert_eq!(
            rebuild.counter_lines_checked, 0,
            "a persisted leaf-digest level replaces the counter scan"
        );
    }

    #[test]
    fn deeper_frontier_cuts_recovery_cycles() {
        // The Triad-NVM trade: persisting the leaf-digest level skips
        // hashing every counter line at rebuild time.
        let cost = |(cfg, image): (Config, CrashImage)| recover(&cfg, image).recovery_cycles();
        assert!(cost(streaming_image(2)) < cost(streaming_image(0)));
    }

    /// The modeled rebuild cost is a function of the image alone: a
    /// thread whose fresh-tree template is empty, or holds another
    /// geometry, reports the same rebuild as one whose template is warm.
    #[test]
    fn tree_rebuild_report_does_not_depend_on_the_template_cache() {
        for levels in [0, 1, 2] {
            let (cfg, image) = streaming_image(levels);
            let rebuild = || recover(&cfg, image.clone()).tree_rebuild().clone();
            // This thread built the same tree for the controller above.
            let warm = rebuild();
            let (cold, displaced) = std::thread::scope(|s| {
                s.spawn(|| {
                    let cold = rebuild();
                    supermem_integrity::Bmt::new([0x3C; 16], 9).expect("valid");
                    (cold, rebuild())
                })
                .join()
                .expect("rebuild thread")
            });
            assert!(warm.nodes_recomputed > 0 && warm.recovery_cycles() > 0);
            assert_eq!(cold, warm, "levels {levels}: cold template");
            assert_eq!(displaced, warm, "levels {levels}: displaced template");
            assert_eq!(rebuild(), warm, "levels {levels}: warm again");
        }
    }

    #[test]
    fn tampered_tree_node_line_is_detected() {
        let (cfg, mut image) = streaming_image(2);
        let id = image.store.tree_lines()[0];
        let mut raw = image.store.read_tree(id);
        raw[3] ^= 0x40;
        image.store.write_tree(id, raw);
        let err = recover_err(&cfg, image);
        assert!(
            matches!(err, RecoveryError::DetectedCorrupt(_)),
            "got {err:?}"
        );
    }

    #[test]
    fn uncorrectable_tree_line_damage_is_detected() {
        use supermem_nvm::{FaultClass, FaultSpec};
        let (cfg, mut image) = streaming_image(1);
        let struck = image.store.strike_tree_fault(FaultSpec {
            class: FaultClass::DoubleFlip,
            seed: 7,
        });
        assert!(struck.is_some(), "image must hold tree lines to strike");
        let err = recover_err(&cfg, image);
        assert!(
            matches!(err, RecoveryError::DetectedCorrupt(_)),
            "got {err:?}"
        );
        assert!(err.to_string().contains("unreadable"));
    }

    #[test]
    fn machine_image_recovers_lines_from_every_channel() {
        use supermem_memctrl::ChannelSet;
        let cfg = cfg().with_channels(4);
        let mut set = ChannelSet::new(&cfg);
        let mut t = 0;
        // One line per channel: pages 0..4 interleave round-robin.
        for ch in 0..4u64 {
            let addr = ch * cfg.page_bytes + 0x40;
            t = set.flush_line(LineAddr(addr), [ch as u8 + 1; 64], t);
        }
        set.finish(t);
        let mut rec = RecoveredMemory::from_machine_image_checked(&cfg, set.machine_crash_now())
            .expect("clean image");
        for ch in 0..4u64 {
            let mut buf = [0u8; 8];
            rec.read(ch * cfg.page_bytes + 0x40, &mut buf);
            assert_eq!(buf, [ch as u8 + 1; 8], "channel {ch} line lost");
        }
    }

    #[test]
    fn machine_image_completes_each_channels_rsr() {
        use supermem_memctrl::ChannelSet;
        let cfg = cfg().with_channels(2);
        let mut set = ChannelSet::new(&cfg);
        // Overflow the minor counter of page 0 (channel 0) while page 1
        // (channel 1) holds steady data, then crash mid-re-encryption.
        let mut t = set.flush_line(LineAddr(cfg.page_bytes + 0x40), [0x77; 64], 0);
        for i in 0..127u64 {
            t = set.flush_line(LineAddr(0x40), [i as u8; 64], t);
        }
        set.arm_crash_after_appends(10);
        set.flush_line(LineAddr(0x40), [0xEE; 64], t);
        let machine = set
            .take_machine_crash_image()
            .expect("crash fired mid-reencryption");
        assert!(
            machine.channels.iter().any(|c| c.rsr.is_some()),
            "the overflow must leave an RSR in some channel"
        );
        let mut rec =
            RecoveredMemory::from_machine_image_checked(&cfg, machine).expect("clean image");
        let mut buf = [0u8; 8];
        rec.read(cfg.page_bytes + 0x40, &mut buf);
        assert_eq!(buf, [0x77; 8], "the other channel's data must survive");
        rec.read(0x40, &mut buf);
        assert!(
            buf == [126; 8] || buf == [0xEE; 8],
            "re-encrypted line must decrypt to old or new value, got {buf:?}"
        );
    }

    #[test]
    fn an_rsr_naming_another_channels_page_is_refused() {
        use supermem_memctrl::ChannelSet;
        let cfg = cfg().with_channels(2);
        let mut set = ChannelSet::new(&cfg);
        let t = set.flush_line(LineAddr(0x40), [0x11; 64], 0);
        set.flush_line(LineAddr(cfg.page_bytes + 0x40), [0x22; 64], t);
        let mut machine = set.machine_crash_now();
        // Page 0 belongs to channel 0; channel 1 comes later and would
        // win the merge with its rewrite of the page.
        machine.channels[1].rsr = Some(Rsr::new(PageId(0), 0));
        let err = RecoveredMemory::from_machine_image_checked(&cfg, machine).unwrap_err();
        assert!(
            matches!(err, RecoveryError::Unrecoverable(_)),
            "got {err:?}"
        );
    }

    #[test]
    fn machine_image_checked_verifies_each_channel_root() {
        use supermem_memctrl::ChannelSet;
        let mut cfg = cfg().with_channels(2);
        cfg.integrity_tree = true;
        let mut set = ChannelSet::new(&cfg);
        let mut t = 0;
        for ch in 0..2u64 {
            t = set.flush_line(LineAddr(ch * cfg.page_bytes + 0x40), [9; 64], t);
        }
        set.finish(t);

        // Clean machine image verifies and recovers.
        let mut rec = RecoveredMemory::from_machine_image_checked(&cfg, set.machine_crash_now())
            .expect("clean image must verify");
        let mut buf = [0u8; 8];
        rec.read(cfg.page_bytes + 0x40, &mut buf);
        assert_eq!(buf, [9; 8]);

        // Tamper with one channel's counter line: that channel's root
        // check must reject the whole recovery.
        let mut machine = set.machine_crash_now();
        let victim = machine
            .channels
            .iter_mut()
            .find(|c| !c.store.counter_lines().is_empty())
            .expect("some channel holds counters");
        let page = victim.store.counter_lines()[0];
        let mut raw = victim.store.read_counter(page);
        raw[0] ^= 0xFF;
        victim.store.write_counter(page, raw);
        assert!(matches!(
            RecoveredMemory::from_machine_image_checked(&cfg, machine),
            Err(RecoveryError::DetectedCorrupt(_))
        ));
    }
}
