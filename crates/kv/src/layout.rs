//! On-media layout of one KV store instance: manifest line, WAL
//! segment, and snapshot slots, carved from a contiguous region of the
//! secure machine's physical address space.
//!
//! ```text
//! base ──► ┌────────────────────────┐
//!          │ manifest (64 B line)   │  checkpoint pointer, CRC-sealed
//!          ├────────────────────────┤
//!          │ WAL segment            │  32 B header + record body
//!          ├────────────────────────┤
//!          │ snapshot slot 0        │  64 B header + payload
//!          ├────────────────────────┤
//!          │ snapshot slot 1        │
//!          └────────────────────────┘
//! ```
//!
//! Every structure is independently validated on recovery; the manifest
//! is only a *hint* (the flip is a crash point, not a single point of
//! failure — discovery re-validates both slots regardless).

use supermem_persist::PMem;

use crate::crc32::crc32;

/// Bytes reserved for the manifest (one cache line).
pub const MANIFEST_LEN: u64 = 64;
/// Bytes of the WAL segment header.
pub const WAL_HEADER_LEN: u64 = 32;
/// Bytes of a snapshot slot header.
pub const SNAP_HEADER_LEN: u64 = 64;
/// Number of snapshot slots (alternating generations).
pub const SNAP_SLOTS: u64 = 2;

/// Maximum key length in bytes.
pub const MAX_KEY: usize = 64;
/// Maximum value length in bytes.
pub const MAX_VAL: usize = 256;

/// Manifest magic ("SKVMANI1").
pub const MANIFEST_MAGIC: u64 = u64::from_le_bytes(*b"SKVMANI1");
/// WAL segment magic ("SKVWAL01").
pub const WAL_MAGIC: u64 = u64::from_le_bytes(*b"SKVWAL01");
/// Snapshot slot magic ("SKVSNAP1").
pub const SNAP_MAGIC: u64 = u64::from_le_bytes(*b"SKVSNAP1");
/// Format version stamped into every header.
pub const FORMAT_VERSION: u32 = 1;

/// A rejected layout (region too small for even one record or one
/// snapshot of the configured working set).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutError(pub String);

impl std::fmt::Display for LayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid KV layout: {}", self.0)
    }
}

impl std::error::Error for LayoutError {}

/// Where one store instance lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvLayout {
    /// First byte of the region (must be 64-byte aligned).
    pub base: u64,
    /// Bytes of WAL record body (excludes the 32 B segment header).
    pub wal_body: u64,
    /// Bytes per snapshot slot (includes the 64 B slot header).
    pub snap_cap: u64,
}

impl KvLayout {
    /// Validates and builds a layout.
    ///
    /// # Errors
    ///
    /// [`LayoutError`] when `base` is unaligned, the WAL body cannot
    /// hold one maximum-size record plus a terminator, or a snapshot
    /// slot cannot hold its header plus one maximum-size entry.
    pub fn new(base: u64, wal_body: u64, snap_cap: u64) -> Result<Self, LayoutError> {
        if !base.is_multiple_of(64) {
            return Err(LayoutError(format!("base {base:#x} not 64-byte aligned")));
        }
        let min_wal = crate::wal::MAX_RECORD_LEN as u64 + 12;
        if wal_body < min_wal {
            return Err(LayoutError(format!(
                "WAL body {wal_body} B below minimum {min_wal} B (one max record + terminator)"
            )));
        }
        let min_snap = SNAP_HEADER_LEN + 8 + MAX_KEY as u64 + MAX_VAL as u64;
        if snap_cap < min_snap {
            return Err(LayoutError(format!(
                "snapshot slot {snap_cap} B below minimum {min_snap} B"
            )));
        }
        Ok(Self {
            base,
            wal_body,
            snap_cap,
        })
    }

    /// Address of the manifest line.
    fn manifest_addr(&self) -> u64 {
        self.base
    }

    /// Address of the WAL segment header.
    pub fn wal_addr(&self) -> u64 {
        self.base + MANIFEST_LEN
    }

    /// Address of the first WAL record byte.
    pub fn wal_body_addr(&self) -> u64 {
        self.wal_addr() + WAL_HEADER_LEN
    }

    /// Address of snapshot slot `i` (`i < SNAP_SLOTS`).
    pub fn slot_addr(&self, i: u64) -> u64 {
        self.wal_body_addr() + self.wal_body + i * self.snap_cap
    }

    /// Total bytes the layout occupies from `base`.
    pub fn total_len(&self) -> u64 {
        MANIFEST_LEN + WAL_HEADER_LEN + self.wal_body + SNAP_SLOTS * self.snap_cap
    }

    /// Payload capacity of one snapshot slot.
    pub fn snap_payload_cap(&self) -> u64 {
        self.snap_cap - SNAP_HEADER_LEN
    }
}

/// The manifest: which snapshot slot is active and the checkpoint
/// sequence that made it so. One 28-byte record inside one cache line,
/// rewritten whole at every checkpoint-pointer flip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Manifest {
    /// Active snapshot slot (0 or 1).
    pub active_slot: u32,
    /// Checkpoint sequence number the flip published.
    pub seq: u64,
}

impl Manifest {
    const LEN: usize = 28;

    /// Serializes the manifest (magic, version, slot, seq, CRC).
    pub fn encode(&self) -> [u8; Self::LEN] {
        let mut b = [0u8; Self::LEN];
        b[0..8].copy_from_slice(&MANIFEST_MAGIC.to_le_bytes());
        b[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        b[12..16].copy_from_slice(&self.active_slot.to_le_bytes());
        b[16..24].copy_from_slice(&self.seq.to_le_bytes());
        let crc = crc32(&b[0..24]);
        b[24..28].copy_from_slice(&crc.to_le_bytes());
        b
    }

    /// Writes and persists the manifest (the checkpoint-pointer flip).
    pub fn persist<M: PMem>(&self, mem: &mut M, layout: &KvLayout) {
        mem.persist(layout.manifest_addr(), &self.encode());
    }

    /// Reads and validates the manifest. `None` means the line is
    /// unreadable or mid-flip garbage — recovery then falls back to
    /// full slot discovery.
    pub fn load<M: PMem>(mem: &mut M, layout: &KvLayout) -> Option<Self> {
        let mut b = [0u8; Self::LEN];
        mem.read(layout.manifest_addr(), &mut b);
        let magic = u64::from_le_bytes(read8(&b, 0)?);
        let version = u32::from_le_bytes(read4(&b, 8)?);
        let active_slot = u32::from_le_bytes(read4(&b, 12)?);
        let seq = u64::from_le_bytes(read8(&b, 16)?);
        let crc = u32::from_le_bytes(read4(&b, 24)?);
        if magic != MANIFEST_MAGIC
            || version != FORMAT_VERSION
            || u64::from(active_slot) >= SNAP_SLOTS
            || crc != crc32(&b[0..24])
        {
            return None;
        }
        Some(Self { active_slot, seq })
    }
}

/// Fallible fixed-size slice read (avoids `try_into().unwrap()` under
/// the crate's no-panic policy).
pub(crate) fn read8(b: &[u8], at: usize) -> Option<[u8; 8]> {
    let s = b.get(at..at + 8)?;
    let mut out = [0u8; 8];
    out.copy_from_slice(s);
    Some(out)
}

/// Fallible 4-byte slice read.
pub(crate) fn read4(b: &[u8], at: usize) -> Option<[u8; 4]> {
    let s = b.get(at..at + 4)?;
    let mut out = [0u8; 4];
    out.copy_from_slice(s);
    Some(out)
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;
    use supermem_persist::VecMem;

    #[test]
    fn layout_rejects_degenerate_regions() {
        assert!(KvLayout::new(0x1001, 4096, 4096).is_err(), "unaligned");
        assert!(KvLayout::new(0x1000, 16, 4096).is_err(), "wal too small");
        assert!(KvLayout::new(0x1000, 4096, 64).is_err(), "slot too small");
        let l = KvLayout::new(0x1000, 4096, 4096).unwrap();
        assert_eq!(l.wal_addr(), 0x1000 + 64);
        assert_eq!(l.wal_body_addr(), 0x1000 + 96);
        assert_eq!(l.slot_addr(1), l.slot_addr(0) + 4096);
        assert_eq!(l.total_len(), 64 + 32 + 4096 + 2 * 4096);
    }

    #[test]
    fn manifest_roundtrip_and_corruption_detection() {
        let l = KvLayout::new(0x1000, 4096, 4096).unwrap();
        let mut mem = VecMem::new();
        let m = Manifest {
            active_slot: 1,
            seq: 7,
        };
        m.persist(&mut mem, &l);
        assert_eq!(Manifest::load(&mut mem, &l), Some(m));

        // Any single corrupted byte must invalidate the line.
        for at in 0..28u64 {
            let mut dirty = mem.clone();
            let mut one = [0u8; 1];
            dirty.read(l.manifest_addr() + at, &mut one);
            one[0] ^= 0x40;
            dirty.write(l.manifest_addr() + at, &one);
            assert_eq!(Manifest::load(&mut dirty, &l), None, "byte {at}");
        }
    }
}
