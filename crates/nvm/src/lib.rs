//! Cycle-level NVM device model for the SuperMem reproduction.
//!
//! This crate replaces NVMain, the cycle-accurate NVM simulator the paper
//! couples to gem5. It models:
//!
//! * [`addr`] — the physical address map: 64 B lines, 4 KB pages, and
//!   page-interleaved banks (consecutive pages land in consecutive banks,
//!   matching the paper's observation that OS-contiguous allocations span
//!   adjacent banks, §3.3).
//! * [`bank`] — per-bank service timing with the PCM latencies of Table 2
//!   (reads tRCD+tCL, writes tCWD+tWR, write→read turnaround tWTR).
//! * [`store`] — the persistent byte contents: 64 B lines holding
//!   *ciphertext*, the counter-line region and the tree-node lines, each
//!   allocated a 4 KiB page at a time. This is what survives a
//!   simulated crash.
//! * [`fault`] — the imperfect-DIMM model: seeded torn drains, bit
//!   flips / stuck-at cells under a SECDED ECC, transient read failures,
//!   and fail-stopped banks, all layered over the store without
//!   disturbing its ground truth.
//!
//! # Examples
//!
//! ```
//! use supermem_nvm::addr::AddressMap;
//!
//! let map = AddressMap::new(8 << 30, 64, 4096, 8);
//! // Consecutive pages interleave across banks.
//! assert_eq!(map.data_bank(map.line_of(0)), 0);
//! assert_eq!(map.data_bank(map.line_of(4096)), 1);
//! ```
#![warn(missing_docs)]

pub mod addr;
pub mod bank;
pub mod fault;
pub mod store;
pub mod wearlevel;

pub use addr::{AddressMap, LineAddr, PageId};
pub use bank::{BankTimer, OpKind};
pub use fault::{DrainTear, FaultClass, FaultCounters, FaultPlan, FaultSpec, MediaError};
pub use store::{NvmStore, WearReport};
pub use wearlevel::StartGap;

/// Size of a memory line in bytes throughout the workspace.
pub const LINE_BYTES: usize = 64;

/// One 64-byte memory line's worth of data.
pub type LineData = [u8; LINE_BYTES];
