//! Simulation kernel for the SuperMem reproduction.
//!
//! This crate provides the time base, deterministic pseudo-random number
//! generation, configuration, and statistics plumbing shared by every other
//! crate in the workspace. It replaces the gem5 event core used by the
//! paper's evaluation with a compact, deterministic substrate.
//!
//! # Examples
//!
//! ```
//! use supermem_sim::{Config, SplitMix64};
//!
//! let cfg = Config::default();
//! assert_eq!(cfg.banks, 8);
//!
//! let mut rng = SplitMix64::new(42);
//! let a = rng.next_u64();
//! let b = rng.next_u64();
//! assert_ne!(a, b);
//! ```
#![deny(missing_docs)]

pub mod config;
pub mod hash;
pub mod json;
pub mod probe;
pub mod rng;
pub mod stats;
pub mod time;

pub use config::{
    Config, ConfigError, CounterCacheBacking, CounterCacheMode, CounterPlacement, Mutation,
};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use json::json_escape;
pub use probe::{
    BankUtilization, Event, EventTape, LatencyBreakdown, Log2Histogram, Observer, OccupancySeries,
    Probes, Telemetry,
};
pub use rng::SplitMix64;
pub use stats::Stats;
pub use time::{ns_to_cycles, Cycle};
