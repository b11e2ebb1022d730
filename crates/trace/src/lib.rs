//! Memory-trace recording and replay.
//!
//! Cycle-level architecture studies (gem5+NVMain included) are usually
//! *trace-driven*: capture a program's memory operations once, then
//! replay them through many machine configurations. This crate brings
//! that methodology to the SuperMem reproduction:
//!
//! * [`TraceRecorder`] wraps any [`supermem_persist::PMem`] and records every read, write,
//!   flush, and fence — plus transaction markers — while passing the
//!   operations through.
//! * [`codec`] serializes traces to a compact, versioned binary format.
//! * [`replay()`] feeds a trace into any other `PMem`, e.g. the timed
//!   `supermem::System` under a different scheme, reproducing exactly
//!   the same memory behavior without re-running the data structures.
//!
//! # Examples
//!
//! ```
//! use supermem_persist::{PMem, VecMem};
//! use supermem_trace::{replay, TraceEvent, TraceRecorder};
//!
//! // Record some activity.
//! let mut inner = VecMem::new();
//! let mut rec = TraceRecorder::new(&mut inner);
//! rec.write(0x100, &[1, 2, 3]);
//! rec.clwb(0x100, 3);
//! rec.sfence();
//! let trace = rec.into_trace();
//! assert_eq!(trace.len(), 3);
//!
//! // Replay it into a fresh memory: same final contents.
//! let mut other = VecMem::new();
//! replay(&trace, &mut other);
//! let mut buf = [0u8; 3];
//! other.read(0x100, &mut buf);
//! assert_eq!(buf, [1, 2, 3]);
//! ```
#![warn(missing_docs)]

pub mod codec;
pub mod event;
pub mod record;
pub mod replay;

pub use codec::{decode, encode, CodecError};
pub use event::TraceEvent;
pub use record::TraceRecorder;
pub use replay::replay;
