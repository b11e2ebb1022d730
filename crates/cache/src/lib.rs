//! Cache substrate for the SuperMem reproduction.
//!
//! Provides the volatile storage components of the simulated machine:
//!
//! * [`setassoc`] — a generic set-associative LRU cache used by every
//!   concrete cache in the workspace.
//! * [`hierarchy`] — the CPU-side L1/L2/L3 write-back hierarchy with
//!   `clwb`-style line flushing. These caches hold *plaintext*; anything
//!   dirty here is lost on a crash, which is why programs must flush.
//! * [`counter_cache`] — the memory controller's on-chip counter cache
//!   (paper §2.2.4), operable in write-through (SuperMem) or write-back
//!   (conventional/ideal WB) mode.
//!
//! # Examples
//!
//! ```
//! use supermem_cache::setassoc::SetAssocCache;
//!
//! let mut c: SetAssocCache<u32> = SetAssocCache::new(4, 2, 0);
//! c.insert(1, 100);
//! assert_eq!(c.get(1), Some(&100));
//! assert_eq!(c.get(2), None);
//! ```
#![warn(missing_docs)]

pub mod counter_cache;
pub mod hierarchy;
pub mod setassoc;

pub use counter_cache::{CounterCache, CounterCacheOutcome};
pub use hierarchy::CacheHierarchy;
pub use setassoc::SetAssocCache;
