//! A recoverable key-value store on the secure persistent-memory
//! machine: checksummed write-ahead log, rotating validated snapshots,
//! and hardened recovery, with differential crash torture as the
//! correctness oracle.
//!
//! The paper's transparency claim is memory-level: SuperMem encrypts
//! and integrity-protects whatever the application persists. This
//! crate is the application — a storage engine whose own durability
//! protocol must compose with the secure machine's crash semantics.
//! Layout on NVM (all addresses through [`KvLayout`]):
//!
//! ```text
//! [ manifest | WAL header | WAL body ............ | snap slot 0 | snap slot 1 ]
//! ```
//!
//! * **WAL** ([`wal`]): length-prefixed records, each carrying a CRC32
//!   mixed with the segment's epoch sequence so a stale epoch's bytes
//!   never replay; a record and its zero terminator persist in one
//!   flush, so the log tail is always parseable or detectably torn.
//! * **Snapshots** ([`snapshot`]): two slots written alternately,
//!   payload before header, header CRC last — a slot is either wholly
//!   valid or rejected, and discovery falls back to the older slot.
//! * **Recovery** ([`recovery`]): read-only reconstruction — newest
//!   valid snapshot, then WAL replay from the snapshot's offset, with
//!   bounded corrupt-entry skipping and torn-tail truncation, all
//!   reported in a typed [`RecoveryResult`].
//! * **Invariants** ([`invariants`]): R1–R6 (deterministic,
//!   idempotent, prefix-consistent, never invents, never silently
//!   drops, bounded degradation) as executable checks.
//! * **Torture** ([`torture`]): the store as a crash-campaign subject —
//!   crashes armed at every write-queue append (every WAL append,
//!   snapshot write, and manifest flip), crossed with the media fault
//!   classes, recovered, and judged against the [`oracle`] of
//!   acknowledged operations. The campaign passes only with zero
//!   silent-corruption cases.
//! * **Workload** ([`workload`]): the store behind the unified
//!   `Workload` trait, driven by the serving engine's Zipfian traffic.
//!
//! [`RecoveryResult`]: crate::recovery::RecoveryResult

#![warn(missing_docs)]

pub mod bytes;
pub mod crc32;
pub mod invariants;
pub mod layout;
pub mod oracle;
pub mod recovery;
pub mod snapshot;
pub mod store;
pub mod torture;
pub mod wal;
pub mod workload;

pub use bytes::{KvBytes, KvMap};
pub use crc32::{crc32, Crc32};
pub use layout::{KvLayout, LayoutError};
pub use oracle::{op_stream, Legality, ShadowOracle};
pub use recovery::{recover, Recovered, RecoveryError, RecoveryOptions, RecoveryResult};
pub use store::{KvError, KvStats, KvStore};
pub use torture::{kv_campaign, KvSubject};
pub use wal::KvOp;
pub use workload::KvWorkload;
