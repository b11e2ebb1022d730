//! Persistence layer for the SuperMem reproduction.
//!
//! The paper's workloads are durable transactions over persistent memory
//! (§2.1, §2.3, Table 1). This crate provides that software substrate:
//!
//! * [`pmem`] — the [`PMem`] abstraction of byte-addressable persistent
//!   memory with `clwb`/`sfence` semantics, plus [`VecMem`], a purely
//!   functional implementation for tests.
//! * [`arena`] — a bump allocator carving data-structure storage out of
//!   the persistent address space.
//! * [`log`] — the on-NVM undo-log format with 8-byte-atomic state
//!   transitions and a checksummed header.
//! * [`txn`] — durable transactions: *prepare* (log the old data),
//!   *mutate* (write in place), *commit* (invalidate the log), each stage
//!   fenced exactly as in Table 1.
//! * [`slot`] — per-core operation-descriptor slots (memento-style)
//!   making lock-free CAS linearization points crash-recoverable, with
//!   a checksummed recovery scan.
//! * [`recovery`] — rebuilding a consistent state from a post-crash
//!   machine image through one entry point,
//!   [`RecoveredMemory::from_machine_image_checked`]: verifying each
//!   channel's integrity tree, completing an interrupted page
//!   re-encryption from the RSR, re-deriving Osiris counters, decrypting
//!   through the stored counters, and rolling back uncommitted
//!   transactions.
//!
//! # Examples
//!
//! ```
//! use supermem_persist::{pmem::{PMem, VecMem}, txn::TxnManager};
//!
//! let mut mem = VecMem::new();
//! let mut txm = TxnManager::new(0x10_0000, 4096);
//! let mut txn = txm.begin();
//! txn.write(0x1000, vec![1, 2, 3, 4]);
//! txn.commit(&mut mem).unwrap();
//! let mut buf = [0u8; 4];
//! mem.read(0x1000, &mut buf);
//! assert_eq!(buf, [1, 2, 3, 4]);
//! ```
#![warn(missing_docs)]

pub mod arena;
pub mod direct;
pub mod log;
pub mod pmem;
pub mod recovery;
pub mod slot;
pub mod txn;

pub use arena::Arena;
pub use direct::DirectMem;
pub use pmem::{PMem, VecMem};
pub use recovery::{
    recover_transactions, OsirisReport, RecoveredMemory, RecoveryError, RecoveryOutcome,
    TreeRebuild,
};
pub use slot::{SlotArray, SlotError, SlotRecord, SlotState, SlotView};
pub use txn::{Txn, TxnError, TxnManager};
