//! # SuperMem — application-transparent secure persistent memory
//!
//! A full-system reproduction of *"SuperMem: Enabling
//! Application-transparent Secure Persistent Memory with Low Overheads"*
//! (MICRO 2019): counter-mode encrypted NVM made crash consistent with a
//! write-through counter cache, an atomic data+counter append register,
//! locality-aware counter write coalescing (CWC), and cross-bank counter
//! storage (XBank) — plus the cycle-level NVM system simulator, cache
//! hierarchy, persistence stack, and workloads needed to evaluate it.
//!
//! ## Quickstart
//!
//! ```
//! use supermem::sim::Config;
//! use supermem::{Scheme, System};
//! use supermem_persist::PMem;
//!
//! // Build a SuperMem system (WT counter cache + CWC + XBank).
//! let mut sys = System::new(Scheme::SuperMem.apply(Config::default()));
//!
//! // Store, persist, and read back through the encrypted NVM.
//! sys.write(0x1000, b"hello supermem");
//! sys.clwb(0x1000, 14);
//! sys.sfence();
//! let mut buf = [0u8; 14];
//! sys.read(0x1000, &mut buf);
//! assert_eq!(&buf, b"hello supermem");
//!
//! // The NVM itself holds only ciphertext; a crash preserves exactly
//! // what was flushed.
//! let image = sys.crash_now();
//! let cfg = sys.config().clone();
//! let mut recovered = supermem_persist::RecoveredMemory::from_image(&cfg, image);
//! let mut buf = [0u8; 14];
//! recovered.read(0x1000, &mut buf);
//! assert_eq!(&buf, b"hello supermem");
//! ```
//!
//! ## Crate map
//!
//! * [`scheme`] — the evaluated configurations (Unsec, ideal WB, WT,
//!   WT+CWC, WT+XBank, SuperMem, plus the SameBank ablation).
//! * [`system`] — the timed machine: per-core L1/L2 + shared L3 over the
//!   secure memory controller, exposing the
//!   [`PMem`](supermem_persist::PMem) interface.
//! * [`experiment`] — the [`Experiment`] session: a run is a machine
//!   [`sim::Config`] plus a [`workloads::WorkloadSpec`], validated up
//!   front, with pluggable [`sim::Observer`]s and the run drivers
//!   (single-core, multi-core, trace record and replay).
//! * [`mod@sweep`] — parallel experiment engine: fans independent runs over
//!   a scoped worker pool, results in input order (bit-identical to a
//!   sequential sweep).
//! * [`metrics`] — result aggregation and normalization helpers for the
//!   figure harness.
//! * [`verify`] — checked runs: the persistency-ordering checker
//!   (`supermem-check`) attached to an experiment's probe stream, plus
//!   the mutant harness proving each invariant fires.
//! * [`campaign`] — the crash-campaign engine: crash after every
//!   write-queue append, inject a media fault, recover, judge against a
//!   subject's oracle, shrink silent corruption to a minimal reproducer.
//! * [`torture`] — the undo-logged transaction as a campaign subject
//!   (`supermem torture`, `torture --tree`, `crash`, `table1`).
#![deny(missing_docs)]

pub mod campaign;
pub mod experiment;
pub mod metrics;
#[cfg(test)]
mod runner;
pub mod sca;
pub mod scheme;
pub mod sweep;
pub mod system;
pub mod torture;
pub mod verify;

pub use campaign::{Campaign, Fault, Verdict};
pub use experiment::{ConfigError, Experiment};
pub use metrics::RunResult;
pub use sca::ScaSystem;
pub use scheme::Scheme;
pub use sweep::{env_run_threads, run_batch, sweep, thread_budget, worker_count};
pub use system::System;
pub use torture::{torture_campaign, tree_campaign, TxnSubject, TORTURE_SCHEMES};
pub use verify::{
    check_run, check_run_trace, run_mutant, run_mutant_sharded, CheckReport, Checker, CheckerMode,
    Rule,
};

// Re-export the substrate crates so downstream users need only one
// dependency.
pub use supermem_cache as cache;
pub use supermem_check as check;
pub use supermem_crypto as crypto;
pub use supermem_integrity as integrity;
pub use supermem_memctrl as memctrl;
pub use supermem_nvm as nvm;
pub use supermem_persist as persist;
pub use supermem_sim as sim;
pub use supermem_trace as trace;
pub use supermem_workloads as workloads;
