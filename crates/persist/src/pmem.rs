//! The persistent-memory programming interface.
//!
//! [`PMem`] is what a persistent data structure sees: byte-addressable
//! loads and stores plus the two persistence primitives of §2.1 — `clwb`
//! (flush the cache lines covering a range toward the ADR domain) and
//! `sfence` (block until all prior flushes have retired). The timed
//! implementation lives in the `supermem` crate's `System`; [`VecMem`]
//! here is the functional reference used by unit tests and by trace-free
//! data-structure testing.

use supermem_sim::FxHashMap;

/// Byte-addressable persistent memory as seen by a program.
///
/// Addresses are absolute physical addresses. Implementations must make
/// `read` observe the newest `write` regardless of flush state (stores
/// are visible through the cache hierarchy immediately; only *crash
/// durability* depends on `clwb`/`sfence`).
pub trait PMem {
    /// Reads `buf.len()` bytes starting at `addr`.
    fn read(&mut self, addr: u64, buf: &mut [u8]);

    /// Reads the bytes [`PMem::read`] would return, without advancing
    /// simulated time or changing any state a later operation can
    /// observe (caches, statistics, probe events). The default forwards
    /// to `read`, which is exact for memories without a timing model.
    fn peek(&mut self, addr: u64, buf: &mut [u8]) {
        self.read(addr, buf);
    }

    /// Writes `bytes` starting at `addr`.
    fn write(&mut self, addr: u64, bytes: &[u8]);

    /// Flushes the cache lines covering `[addr, addr + len)` toward
    /// persistence (clwb semantics: lines stay cached, dirty bits clear).
    fn clwb(&mut self, addr: u64, len: u64);

    /// Orders and awaits all previously issued flushes (sfence).
    fn sfence(&mut self);

    /// Convenience: read a little-endian `u64` at `addr`.
    fn read_u64(&mut self, addr: u64) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Convenience: write a little-endian `u64` at `addr`.
    fn write_u64(&mut self, addr: u64, v: u64) {
        self.write(addr, &v.to_le_bytes());
    }

    /// Convenience: write, flush, and fence a range — the idiomatic
    /// "persist this now" sequence.
    fn persist(&mut self, addr: u64, bytes: &[u8]) {
        self.write(addr, bytes);
        self.clwb(addr, bytes.len() as u64);
        self.sfence();
    }
}

/// A purely functional `PMem` with no timing and no crash semantics.
/// Reads of never-written bytes return zero.
///
/// # Examples
///
/// ```
/// use supermem_persist::pmem::{PMem, VecMem};
///
/// let mut m = VecMem::new();
/// m.write_u64(0x100, 42);
/// assert_eq!(m.read_u64(0x100), 42);
/// ```
#[derive(Debug, Clone, Default)]
pub struct VecMem {
    lines: FxHashMap<u64, [u8; 64]>,
    flushes: u64,
    fences: u64,
}

impl VecMem {
    /// An empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of `clwb` calls observed (test instrumentation).
    pub fn flush_count(&self) -> u64 {
        self.flushes
    }

    /// Number of `sfence` calls observed (test instrumentation).
    pub fn fence_count(&self) -> u64 {
        self.fences
    }
}

impl PMem for VecMem {
    fn read(&mut self, addr: u64, buf: &mut [u8]) {
        for (i, b) in buf.iter_mut().enumerate() {
            let a = addr + i as u64;
            let line = a / 64;
            let off = (a % 64) as usize;
            *b = self.lines.get(&line).map_or(0, |l| l[off]);
        }
    }

    fn write(&mut self, addr: u64, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            let a = addr + i as u64;
            let line = a / 64;
            let off = (a % 64) as usize;
            self.lines.entry(line).or_insert([0; 64])[off] = b;
        }
    }

    fn clwb(&mut self, _addr: u64, _len: u64) {
        self.flushes += 1;
    }

    fn sfence(&mut self) {
        self.fences += 1;
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;

    #[test]
    fn zero_initialized() {
        let mut m = VecMem::new();
        let mut buf = [0xFFu8; 16];
        m.read(0x1234, &mut buf);
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    fn write_read_roundtrip_across_lines() {
        let mut m = VecMem::new();
        let data: Vec<u8> = (0..200).map(|i| i as u8).collect();
        m.write(60, &data); // straddles several 64 B lines
        let mut buf = vec![0u8; 200];
        m.read(60, &mut buf);
        assert_eq!(buf, data);
    }

    #[test]
    fn overlapping_writes_last_wins() {
        let mut m = VecMem::new();
        m.write(0, &[1, 1, 1, 1]);
        m.write(2, &[9, 9]);
        let mut buf = [0u8; 4];
        m.read(0, &mut buf);
        assert_eq!(buf, [1, 1, 9, 9]);
    }

    #[test]
    fn u64_helpers() {
        let mut m = VecMem::new();
        m.write_u64(8, u64::MAX - 1);
        assert_eq!(m.read_u64(8), u64::MAX - 1);
        // Unaligned is fine too.
        m.write_u64(13, 0xDEADBEEF);
        assert_eq!(m.read_u64(13), 0xDEADBEEF);
    }

    #[test]
    fn persist_counts_flush_and_fence() {
        let mut m = VecMem::new();
        m.persist(0, &[1, 2, 3]);
        assert_eq!(m.flush_count(), 1);
        assert_eq!(m.fence_count(), 1);
    }
}
