//! A cache-model-free [`PMem`] over the memory controller.
//!
//! [`DirectMem`] gives programs byte-addressable access to the simulated
//! secure NVM with an *unbounded* volatile write-back buffer standing in
//! for the CPU caches: stores land in the buffer, `clwb` pushes a line
//! through the controller's encrypted write path, `sfence` waits for the
//! retire cycles. On a crash the buffer's dirty lines are simply lost —
//! the same semantics as real CPU caches, without a capacity model.
//!
//! The fully timed system (finite L1/L2/L3) lives in the `supermem`
//! crate; `DirectMem` exists so the persistence and crash-consistency
//! machinery can be exercised and tested below the system layer, and it
//! is what the Table 1 experiments use.

use supermem_memctrl::{ChannelSet, MachineCrashImage};
use supermem_nvm::addr::LineAddr;
use supermem_nvm::LineData;
use supermem_sim::{Config, Cycle};

use crate::pmem::PMem;

/// Per-instruction cost charged for buffer hits (an L1-ish latency).
const HIT_COST: Cycle = 2;

/// Byte-addressable persistent memory backed by a [`ChannelSet`] (one
/// memory controller per configured channel), with an unbounded volatile
/// buffer in place of a cache hierarchy.
///
/// # Examples
///
/// ```
/// use supermem_persist::{pmem::PMem, DirectMem};
/// use supermem_sim::Config;
///
/// let mut mem = DirectMem::new(&Config::default());
/// mem.write_u64(0x100, 77);
/// mem.clwb(0x100, 8);
/// mem.sfence();
/// assert_eq!(mem.read_u64(0x100), 77);
/// ```
#[derive(Debug, Clone)]
pub struct DirectMem {
    mc: ChannelSet,
    buffer: supermem_sim::FxHashMap<u64, (LineData, bool)>,
    now: Cycle,
    pending_retire: Cycle,
}

impl DirectMem {
    /// A fresh system over zeroed NVM.
    pub fn new(cfg: &Config) -> Self {
        Self::from_channels(ChannelSet::new(cfg))
    }

    /// Wraps an existing channel set.
    pub fn from_channels(mc: ChannelSet) -> Self {
        Self {
            mc,
            buffer: supermem_sim::FxHashMap::default(),
            now: 0,
            pending_retire: 0,
        }
    }

    /// Current simulated cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The underlying memory system.
    pub fn controller(&self) -> &ChannelSet {
        &self.mc
    }

    /// The underlying memory system, mutably (arming crashes,
    /// statistics).
    pub fn controller_mut(&mut self) -> &mut ChannelSet {
        &mut self.mc
    }

    /// Simulates an immediate power failure: buffered dirty lines vanish;
    /// the ADR domain survives, one image per channel.
    pub fn machine_crash_now(&self) -> MachineCrashImage {
        self.mc.machine_crash_now()
    }

    /// Flushes every dirty buffered line and drains the controller —
    /// a clean shutdown. Returns the final cycle.
    pub fn shutdown(&mut self) -> Cycle {
        let mut dirty: Vec<(u64, LineData)> = self
            .buffer
            .iter()
            .filter(|(_, (_, d))| *d)
            .map(|(&a, (data, _))| (a, *data))
            .collect();
        dirty.sort_by_key(|(a, _)| *a);
        for (addr, data) in dirty {
            let retire = self.mc.flush_line(LineAddr(addr), data, self.now);
            self.pending_retire = self.pending_retire.max(retire);
            if let Some(entry) = self.buffer.get_mut(&addr) {
                entry.1 = false;
            }
        }
        self.now = self.now.max(self.pending_retire);
        self.now = self.now.max(self.mc.finish(self.now));
        self.now
    }

    fn line_of(addr: u64) -> u64 {
        addr & !63
    }

    fn load_line(&mut self, line_addr: u64) -> LineData {
        if let Some((data, _)) = self.buffer.get(&line_addr) {
            self.now += HIT_COST;
            return *data;
        }
        let (data, done) = self.mc.read_line(LineAddr(line_addr), self.now);
        self.now = done;
        self.buffer.insert(line_addr, (data, false));
        data
    }
}

impl PMem for DirectMem {
    fn read(&mut self, addr: u64, buf: &mut [u8]) {
        let mut i = 0usize;
        while i < buf.len() {
            let a = addr + i as u64;
            let line = Self::line_of(a);
            let off = (a - line) as usize;
            let n = (64 - off).min(buf.len() - i);
            let data = self.load_line(line);
            buf[i..i + n].copy_from_slice(&data[off..off + n]);
            i += n;
        }
    }

    fn write(&mut self, addr: u64, bytes: &[u8]) {
        let mut i = 0usize;
        while i < bytes.len() {
            let a = addr + i as u64;
            let line = Self::line_of(a);
            let off = (a - line) as usize;
            let n = (64 - off).min(bytes.len() - i);
            let mut data = self.load_line(line);
            data[off..off + n].copy_from_slice(&bytes[i..i + n]);
            self.buffer.insert(line, (data, true));
            self.now += 1;
            i += n;
        }
    }

    fn clwb(&mut self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        let first = Self::line_of(addr);
        let last = Self::line_of(addr + len - 1);
        let mut line = first;
        loop {
            if let Some((data, dirty)) = self.buffer.get_mut(&line) {
                if *dirty {
                    *dirty = false;
                    let data = *data;
                    let retire = self.mc.flush_line(LineAddr(line), data, self.now);
                    self.pending_retire = self.pending_retire.max(retire);
                    self.now += HIT_COST;
                }
            }
            if line == last {
                break;
            }
            line += 64;
        }
    }

    fn sfence(&mut self) {
        self.now = self.now.max(self.pending_retire) + 1;
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;
    use crate::recovery::{recover_transactions, RecoveredMemory, RecoveryOutcome};
    use crate::txn::TxnManager;

    fn cfg() -> Config {
        Config::default()
    }

    fn recover(cfg: &Config, image: MachineCrashImage) -> RecoveredMemory {
        RecoveredMemory::from_machine_image_checked(cfg, image).expect("image recovers")
    }

    #[test]
    fn write_read_roundtrip() {
        let mut mem = DirectMem::new(&cfg());
        let data: Vec<u8> = (0..300).map(|i| i as u8).collect();
        mem.write(1000, &data);
        let mut buf = vec![0u8; 300];
        mem.read(1000, &mut buf);
        assert_eq!(buf, data);
    }

    #[test]
    fn unflushed_writes_lost_on_crash() {
        let cfg = cfg();
        let mut mem = DirectMem::new(&cfg);
        mem.write(0x100, &[7; 8]);
        // No clwb: the write sits in the volatile buffer.
        let image = mem.machine_crash_now();
        let mut rec = recover(&cfg, image);
        let mut buf = [0u8; 8];
        rec.read(0x100, &mut buf);
        assert_ne!(buf, [7; 8], "unflushed data must not survive");
    }

    #[test]
    fn flushed_writes_survive_crash() {
        let cfg = cfg();
        let mut mem = DirectMem::new(&cfg);
        mem.persist(0x100, &[7; 8]);
        let mut rec = recover(&cfg, mem.machine_crash_now());
        let mut buf = [0u8; 8];
        rec.read(0x100, &mut buf);
        assert_eq!(buf, [7; 8]);
    }

    #[test]
    fn sfence_waits_for_retires() {
        let mut mem = DirectMem::new(&cfg());
        let before = mem.now();
        mem.write(0x100, &[1; 64]);
        mem.clwb(0x100, 64);
        mem.sfence();
        assert!(mem.now() > before);
    }

    #[test]
    fn clwb_of_clean_lines_is_cheap() {
        let mut mem = DirectMem::new(&cfg());
        mem.persist(0x100, &[1; 8]);
        let writes_before =
            mem.controller().stats().nvm_data_writes + mem.controller().wq_len() as u64;
        mem.clwb(0x100, 8); // clean: no new flush
        mem.sfence();
        let writes_after =
            mem.controller().stats().nvm_data_writes + mem.controller().wq_len() as u64;
        assert_eq!(writes_before, writes_after);
    }

    #[test]
    fn committed_txn_survives_crash_and_recovers_clean() {
        let cfg = cfg();
        let mut mem = DirectMem::new(&cfg);
        let mut txm = TxnManager::new(0x100000, 4096);
        let mut txn = txm.begin();
        txn.write(0x2000, vec![0xAA; 128]);
        txn.commit(&mut mem).unwrap();
        let mut rec = recover(&cfg, mem.machine_crash_now());
        assert_eq!(
            recover_transactions(&mut rec, 0x100000),
            Ok(RecoveryOutcome::CleanCommitted { seq: 1 })
        );
        let mut buf = [0u8; 128];
        rec.read(0x2000, &mut buf);
        assert_eq!(buf, [0xAA; 128]);
    }

    #[test]
    fn crash_mid_mutate_rolls_back_with_supermem() {
        // The heart of Table 1: crash during the mutate stage; the log
        // is decryptable (counter atomicity!) so the old data returns.
        let cfg = cfg();
        let mut mem = DirectMem::new(&cfg);
        // Establish old data durably.
        mem.persist(0x2000, &[0x11; 128]);
        let mut txm = TxnManager::new(0x100000, 4096);

        // The commit sequence appends: ~3 log lines + header flushes,
        // then data. Arm the crash so it lands inside the data flushes.
        // Log: 2 payload lines + 1 header line + 1 state line = 4 pairs;
        // crash after 5 appends = first data line flushed, second not.
        mem.controller_mut().arm_crash_after_appends(5);
        let mut txn = txm.begin();
        txn.write(0x2000, vec![0x22; 128]);
        txn.commit(&mut mem).unwrap();
        let image = mem
            .controller_mut()
            .take_machine_crash_image()
            .expect("crash fired during mutate");
        let mut rec = recover(&cfg, image);
        let out = recover_transactions(&mut rec, 0x100000).expect("clean media");
        assert!(
            matches!(out, RecoveryOutcome::RolledBack { .. }),
            "expected rollback, got {out:?}"
        );
        let mut buf = [0u8; 128];
        rec.read(0x2000, &mut buf);
        assert_eq!(buf, [0x11; 128], "old data restored");
    }

    #[test]
    fn shutdown_drains_everything() {
        let cfg = cfg();
        let mut mem = DirectMem::new(&cfg);
        mem.write(0x300, &[5; 8]); // never flushed explicitly
        mem.shutdown();
        let mut rec = recover(&cfg, mem.machine_crash_now());
        let mut buf = [0u8; 8];
        rec.read(0x300, &mut buf);
        assert_eq!(buf, [5; 8], "shutdown must flush dirty lines");
    }

    #[test]
    fn works_unencrypted_too() {
        let mut c = cfg();
        c.encryption = false;
        let mut mem = DirectMem::new(&c);
        mem.persist(0x500, &[9; 16]);
        let mut rec = recover(&c, mem.machine_crash_now());
        let mut buf = [0u8; 16];
        rec.read(0x500, &mut buf);
        assert_eq!(buf, [9; 16]);
    }
}
