//! Trace events.

use supermem_persist::PMem;

/// One recorded memory operation.
///
/// Writes carry their payload so a replay reconstructs identical NVM
/// contents (and identical ciphertexts, given the same key); reads
/// carry only the length — the data returned at replay time comes from
/// the replayed memory itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A load of `len` bytes at `addr`.
    Read {
        /// Start address.
        addr: u64,
        /// Bytes read.
        len: u32,
    },
    /// A store of the contained bytes at `addr`.
    Write {
        /// Start address.
        addr: u64,
        /// The stored bytes.
        bytes: Vec<u8>,
    },
    /// A `clwb` covering `[addr, addr + len)`.
    Clwb {
        /// Start address.
        addr: u64,
        /// Range length.
        len: u64,
    },
    /// An `sfence`.
    Sfence,
    /// Start of a transaction (latency-measurement marker).
    TxnBegin,
    /// Commit completion of a transaction (latency-measurement marker).
    TxnEnd,
}

impl TraceEvent {
    /// Performs this event's memory operation on `mem`; markers do
    /// nothing. A read lands in `scratch`, which is resized to its
    /// length and reused across calls.
    pub fn apply<M: PMem>(&self, mem: &mut M, scratch: &mut Vec<u8>) {
        match self {
            TraceEvent::Read { addr, len } => {
                scratch.resize(*len as usize, 0);
                mem.read(*addr, scratch);
            }
            TraceEvent::Write { addr, bytes } => mem.write(*addr, bytes),
            TraceEvent::Clwb { addr, len } => mem.clwb(*addr, *len),
            TraceEvent::Sfence => mem.sfence(),
            TraceEvent::TxnBegin | TraceEvent::TxnEnd => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supermem_persist::VecMem;

    #[test]
    fn markers_are_markers() {
        // Markers carry no memory semantics: applying them touches
        // nothing, while a memory event does.
        let mut mem = VecMem::new();
        let mut scratch = Vec::new();
        for marker in [TraceEvent::TxnBegin, TraceEvent::TxnEnd] {
            marker.apply(&mut mem, &mut scratch);
        }
        assert_eq!((mem.flush_count(), mem.fence_count()), (0, 0));
        assert!(scratch.is_empty());
        TraceEvent::Sfence.apply(&mut mem, &mut scratch);
        assert_eq!(mem.fence_count(), 1);
    }
}
