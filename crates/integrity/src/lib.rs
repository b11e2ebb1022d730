//! Memory-authentication substrate: a Bonsai Merkle Tree over counter
//! storage.
//!
//! The SuperMem paper's threat model (§2.2.1) covers stolen-DIMM and
//! bus-snooping attacks; *bus tampering* — an active attacker rewriting
//! NVM contents — is explicitly deferred to Merkle-tree authentication
//! "orthogonal to our work". This crate supplies that orthogonal piece
//! in the Bonsai style (Rogers et al.): because data lines are already
//! bound to their counters by counter-mode encryption, only the
//! *counter* lines need tree protection; data integrity follows from
//! counter integrity plus per-line MACs.
//!
//! * [`digest`] — a keyed 64-bit line digest built from the workspace's
//!   AES (Davies–Meyer style compression).
//! * [`bmt`] — the tree: 8-ary, leaves are counter-line digests, inner
//!   nodes live in (attacker-writable) NVM, and only the root lives in
//!   an on-chip register the attacker cannot touch. Updates fold either
//!   eagerly ([`Bmt::update`]) or through the streaming pending-update
//!   cache ([`Bmt::enqueue_update`]) with a Triad-NVM-style
//!   persisted-levels frontier.
//!
//! # Examples
//!
//! ```
//! use supermem_integrity::Bmt;
//!
//! let mut bmt = Bmt::new([7u8; 16], 64)?;
//! let counters = [0x11u8; 64];
//! bmt.update(5, &counters);
//! assert!(bmt.verify(5, &counters));
//! // An attacker flips a counter bit on the DIMM:
//! let mut tampered = counters;
//! tampered[0] ^= 1;
//! assert!(!bmt.verify(5, &tampered));
//! # Ok::<(), supermem_integrity::TreeConfigError>(())
//! ```
//!
//! Streaming mode arms updates in a bounded cache and propagates them
//! lazily, reporting which persisted node-group lines changed:
//!
//! ```
//! use supermem_integrity::Bmt;
//!
//! // 64 pages -> height 2; persist digest level 0 only.
//! let mut bmt = Bmt::with_frontier([7u8; 16], 64, 1)?;
//! bmt.enqueue_update(5, &[0x11u8; 64]);
//! bmt.enqueue_update(5, &[0x22u8; 64]); // coalesces in place
//! let prop = bmt.propagate_pending();
//! assert_eq!(prop.pages, vec![5]);
//! assert_eq!(prop.node_writes.len(), 1); // one leaf-digest group line
//! assert!(bmt.verify(5, &[0x22u8; 64]));
//! # Ok::<(), supermem_integrity::TreeConfigError>(())
//! ```
#![warn(missing_docs)]

pub mod bmt;
pub mod digest;

pub use bmt::{
    tree_line_group, tree_line_id, tree_line_level, Bmt, BmtRebuild, EnqueueOutcome, Propagation,
    TreeConfigError, TreeNodeWrite, ARITY, PENDING_CACHE_SLOTS,
};
pub use digest::LineDigester;
