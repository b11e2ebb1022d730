//! System configuration.
//!
//! [`Config`] collects every knob of the simulated machine. Defaults follow
//! Table 2 of the paper: an 8-core 2 GHz x86-64 system, 32 KB L1 / 512 KB L2
//! / 4 MB L3, an 8 GB 8-bank PCM main memory with the Xu et al. latency
//! model, a 32-entry ADR-protected write queue, and a 256 KB 8-way counter
//! cache with 8-cycle latency. The AES engine has the 24-cycle latency used
//! by the paper (citing prior work).

use crate::time::{ns_to_cycles, Cycle};
use std::error::Error;
use std::fmt;

/// A violated [`Config`] invariant, reported by [`Config::validate`].
///
/// Each variant names one constraint and carries the offending value(s),
/// so callers can match on the failure class instead of parsing strings.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `line_bytes` is not a power of two.
    LineBytesNotPow2(u64),
    /// `page_bytes` is not a power of two at least as large as a line.
    PageBytesInvalid(u64),
    /// `banks` is not a power of two.
    BanksNotPow2(usize),
    /// `channels` is not a power of two.
    ChannelsNotPow2(usize),
    /// XBank counter placement requires an even number of banks.
    XBankOddBanks(usize),
    /// The write queue cannot hold a data+counter pair.
    WriteQueueTooSmall(usize),
    /// `nvm_bytes` is not a whole number of pages.
    NvmNotWholePages(u64),
    /// The NVM does not split into at least one page per channel.
    NvmTooSmallForChannels {
        /// Total pages in the NVM.
        pages: u64,
        /// Configured channel count.
        channels: usize,
    },
    /// `cores` is zero.
    NoCores,
    /// A cache capacity is not divisible by `ways * line_bytes`.
    CacheGeometry {
        /// Which cache (`"l1"`, `"l2"`, `"l3"`, or `"counter_cache"`).
        cache: &'static str,
        /// Configured capacity in bytes.
        bytes: u64,
        /// Configured associativity.
        ways: usize,
    },
    /// The integrity tree is enabled over zero pages.
    IntegrityTreeNeedsPages,
    /// `persisted_levels` is set while the integrity tree is off.
    PersistedLevelsWithoutTree(u32),
    /// `persisted_levels` exceeds the integrity tree's height.
    PersistedLevelsOutOfRange {
        /// The requested persistence frontier.
        levels: u32,
        /// The tree height for the configured `integrity_pages`.
        height: u32,
    },
    /// Streaming-tree mode needs queue headroom for tree-node writes
    /// alongside a staged data+counter pair.
    StreamingTreeQueueTooSmall(usize),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::LineBytesNotPow2(v) => {
                write!(f, "line_bytes {v} must be a power of two")
            }
            ConfigError::PageBytesInvalid(v) => {
                write!(f, "page_bytes {v} must be a power of two >= line_bytes")
            }
            ConfigError::BanksNotPow2(v) => write!(f, "banks {v} must be a power of two"),
            ConfigError::ChannelsNotPow2(v) => {
                write!(f, "channels {v} must be a power of two")
            }
            ConfigError::XBankOddBanks(v) => {
                write!(f, "XBank placement requires an even bank count (got {v})")
            }
            ConfigError::WriteQueueTooSmall(v) => {
                write!(
                    f,
                    "write queue must hold at least a data+counter pair (got {v})"
                )
            }
            ConfigError::NvmNotWholePages(v) => {
                write!(f, "nvm_bytes {v} must be a whole number of pages")
            }
            ConfigError::NvmTooSmallForChannels { pages, channels } => {
                write!(
                    f,
                    "NVM of {pages} pages cannot be interleaved over {channels} channels"
                )
            }
            ConfigError::NoCores => write!(f, "at least one core is required"),
            ConfigError::CacheGeometry { cache, bytes, ways } => {
                write!(
                    f,
                    "{cache}: {bytes} bytes must be divisible by ways*line ({ways} ways)"
                )
            }
            ConfigError::IntegrityTreeNeedsPages => {
                write!(f, "integrity_tree requires integrity_pages > 0")
            }
            ConfigError::PersistedLevelsWithoutTree(v) => {
                write!(f, "persisted_levels {v} requires integrity_tree")
            }
            ConfigError::PersistedLevelsOutOfRange { levels, height } => {
                write!(
                    f,
                    "persisted_levels {levels} exceeds integrity-tree height {height}"
                )
            }
            ConfigError::StreamingTreeQueueTooSmall(v) => {
                write!(
                    f,
                    "streaming integrity tree requires write_queue_entries >= 4 (got {v})"
                )
            }
        }
    }
}

impl Error for ConfigError {}

/// Policy of the on-chip counter cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CounterCacheMode {
    /// Every counter update is immediately written to NVM (SuperMem).
    WriteThrough,
    /// Counter updates stay in the cache until the line is evicted.
    WriteBack,
}

/// Whether the counter cache contents survive a power failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CounterCacheBacking {
    /// A (large, expensive) battery flushes the whole counter cache on a
    /// crash. This is the paper's *ideal* write-back baseline (WB).
    Battery,
    /// No backup: dirty counters in the cache are lost on a crash.
    None,
}

/// Where the counter line of a data page is placed (paper Figure 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CounterPlacement {
    /// All counters live in one dedicated bank (the conventional layout).
    SingleBank,
    /// The counter line lives in the same bank as its data page.
    SameBank,
    /// The counter line for data in bank `X` lives in bank `(X + N/2) % N`
    /// (the paper's XBank scheme).
    CrossBank,
}

/// A deliberate, named defect injected into the memory controller so the
/// persistency-ordering checker (`supermem-check`) can prove its rules
/// fire. `None` (the default) is the faithful design; every mutation
/// models one of the crash-consistency hazards the paper's mechanisms
/// exist to close.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mutation {
    /// Drop the write-through counter persist: data lines enqueue alone
    /// and the updated counter stays (dirty) in the unbacked cache — the
    /// hazard of §3.2 that rule P1 detects.
    WtOff,
    /// Split the 2-line staging-register append: the controller still
    /// claims atomicity but releases the counter and data lines
    /// separately, reopening the Figure 6 window that rule P2 detects.
    PairSplit,
    /// Invert CWC victim choice: coalescing keeps the *stale* pending
    /// counter entry and drops the newest update — the §3.4 hazard that
    /// rule P3 detects.
    CwcNewest,
    /// Skip one RSR done-bit during page re-encryption, leaving a crash
    /// point where recovery cannot tell the line's encryption epoch —
    /// the §3.4.4 hazard the R-series rules detect.
    RsrSkip,
    /// Skip arming the streaming integrity-tree cache on a counter
    /// write: the data line drains with no tree update ever armed for
    /// its page — the hazard rule T2 detects.
    TreeSkip,
    /// Drop the fence-triggered flush of the pending tree-update cache:
    /// armed leaves survive past the epoch's sfence without reaching
    /// their persisted ancestors — the hazard rule T1 detects.
    TreeLate,
    /// Latch (and report) the root register twice per propagated leaf,
    /// modeling a double-pumped root update — the hazard rule T3
    /// detects.
    TreeDoubleRoot,
}

impl Mutation {
    /// The CLI spelling of this mutation (`--mutate <name>`).
    pub fn name(self) -> &'static str {
        match self {
            Mutation::WtOff => "wt-off",
            Mutation::PairSplit => "pair-split",
            Mutation::CwcNewest => "cwc-newest",
            Mutation::RsrSkip => "rsr-skip",
            Mutation::TreeSkip => "tree-skip",
            Mutation::TreeLate => "tree-late",
            Mutation::TreeDoubleRoot => "tree-double-root",
        }
    }

    /// Parses a CLI spelling; returns `None` for unknown names.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|m| m.name() == s)
    }

    /// All mutations, in CLI listing order.
    pub const ALL: [Mutation; 7] = [
        Mutation::WtOff,
        Mutation::PairSplit,
        Mutation::CwcNewest,
        Mutation::RsrSkip,
        Mutation::TreeSkip,
        Mutation::TreeLate,
        Mutation::TreeDoubleRoot,
    ];
}

/// Full configuration of the simulated secure-PM system.
///
/// Construct with [`Config::default`] and override fields, or use the
/// builder-style `with_*` helpers.
///
/// # Examples
///
/// ```
/// use supermem_sim::Config;
///
/// let cfg = Config::default().with_write_queue_entries(64);
/// assert_eq!(cfg.write_queue_entries, 64);
/// assert_eq!(cfg.nvm_write_service_cycles(), 626); // tCWD + tWR at 2 GHz
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// CPU frequency in GHz (paper: 2 GHz).
    pub cpu_ghz: f64,
    /// Number of cores (paper: 8).
    pub cores: usize,

    /// Cache line size in bytes (64 everywhere in the paper).
    pub line_bytes: u64,
    /// Page size in bytes (4 KB; one counter line covers one page).
    pub page_bytes: u64,

    /// L1 data cache capacity in bytes.
    pub l1_bytes: u64,
    /// L1 associativity.
    pub l1_ways: usize,
    /// L1 hit latency in cycles.
    pub l1_latency: Cycle,
    /// L2 capacity in bytes.
    pub l2_bytes: u64,
    /// L2 associativity.
    pub l2_ways: usize,
    /// L2 hit latency in cycles.
    pub l2_latency: Cycle,
    /// Shared L3 capacity in bytes.
    pub l3_bytes: u64,
    /// L3 associativity.
    pub l3_ways: usize,
    /// L3 hit latency in cycles.
    pub l3_latency: Cycle,

    /// NVM capacity in bytes (paper: 8 GB).
    pub nvm_bytes: u64,
    /// Number of NVM banks per channel (paper: 8).
    pub banks: usize,
    /// Number of address-interleaved memory channels (power of two).
    ///
    /// Pages interleave across channels (`channel = page % channels`);
    /// each channel owns an independent controller, write queue, counter
    /// cache, and bank set. The paper evaluates a single channel, so the
    /// default is 1 and the `channels = 1` address mapping is bit-identical
    /// to the unsharded layout.
    pub channels: usize,
    /// PCM activate latency tRCD in ns.
    pub trcd_ns: f64,
    /// PCM CAS latency tCL in ns.
    pub tcl_ns: f64,
    /// PCM write delay tCWD in ns.
    pub tcwd_ns: f64,
    /// PCM write-to-read turnaround tWTR in ns.
    pub twtr_ns: f64,
    /// PCM write-recovery time tWR in ns (the dominant PCM write cost).
    pub twr_ns: f64,

    /// ADR-protected write-queue capacity in entries (paper: 32).
    pub write_queue_entries: usize,

    /// Counter cache capacity in bytes (paper: 256 KB).
    pub counter_cache_bytes: u64,
    /// Counter cache associativity (paper: 8).
    pub counter_cache_ways: usize,
    /// Counter cache hit latency in cycles (paper: 8).
    pub counter_cache_latency: Cycle,
    /// Counter cache write policy.
    pub counter_cache_mode: CounterCacheMode,
    /// Counter cache crash backing.
    pub counter_cache_backing: CounterCacheBacking,

    /// Whether memory encryption is enabled at all (`false` = Unsec).
    pub encryption: bool,
    /// AES engine latency in cycles (paper: 24).
    pub aes_latency: Cycle,
    /// Counter-line placement across banks.
    pub counter_placement: CounterPlacement,
    /// Whether counter write coalescing (CWC) runs in the write queue.
    pub cwc: bool,
    /// Whether data+counter pairs are appended to the write queue
    /// atomically through the staging register (paper §3.2, Figure 7).
    /// Disabling this models the vulnerable baseline of Figure 6.
    pub atomic_pair_append: bool,
    /// Osiris-style relaxed counter persistence (Ye et al., MICRO'18 —
    /// discussed in the paper's §6): counters stay write-back and
    /// unbacked, but every `window`-th minor increment is persisted and
    /// each data line carries an ECC-derived tag, so recovery can
    /// re-derive lost counters by trial decryption. `None` disables it.
    pub osiris_window: Option<u8>,
    /// Bonsai-Merkle-Tree authentication over the counter region (the
    /// bus-tampering defense the paper's §2.2.1 footnote defers to).
    /// When enabled, counter fetches from NVM verify against the
    /// on-chip root and counter writes update the tree.
    pub integrity_tree: bool,
    /// Pages covered by the integrity tree (a protected region from
    /// page 0; covering all of an 8 GB DIMM would make every simulated
    /// controller carry a multi-megabyte tree).
    pub integrity_pages: u64,
    /// Latency of one tree-level hash in cycles.
    pub hash_latency: Cycle,
    /// Streaming integrity-tree persistence frontier (Triad-NVM style):
    /// `Some(L)` with `L < height` switches the tree to the streaming
    /// engine — counter writes arm a bounded pending-update cache,
    /// propagation is lazy (eviction/fence), and node-group lines at
    /// digest levels `0..L` persist through the write queue while
    /// levels `L..=height` stay volatile and are rebuilt at recovery.
    /// `None` (default) or `Some(height)` keeps the eager engine:
    /// every counter write folds the full root path immediately and no
    /// tree traffic reaches the write queue — byte-identical to the
    /// pre-streaming behavior.
    pub persisted_levels: Option<u32>,
    /// Start-Gap wear leveling beneath the data region: move the gap
    /// every `psi` writes (`None` disables it).
    pub wear_psi: Option<u64>,
    /// Injected known-bad behavior for checker validation (`None` = the
    /// faithful design; see [`Mutation`]).
    pub mutation: Option<Mutation>,

    /// Whether the write-queue drain fast path may skip slab scans that
    /// provably issue nothing (on by default; exact either way). Off
    /// gives the tick-by-tick reference behavior for equivalence tests.
    pub fast_forward: bool,

    /// Master seed for the run.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            cpu_ghz: 2.0,
            cores: 8,
            line_bytes: 64,
            page_bytes: 4096,
            l1_bytes: 32 * 1024,
            l1_ways: 8,
            l1_latency: 2,
            l2_bytes: 512 * 1024,
            l2_ways: 8,
            l2_latency: 16,
            l3_bytes: 4 * 1024 * 1024,
            l3_ways: 8,
            l3_latency: 30,
            nvm_bytes: 8 << 30,
            banks: 8,
            channels: 1,
            trcd_ns: 48.0,
            tcl_ns: 15.0,
            tcwd_ns: 13.0,
            twtr_ns: 7.5,
            twr_ns: 300.0,
            write_queue_entries: 32,
            counter_cache_bytes: 256 * 1024,
            counter_cache_ways: 8,
            counter_cache_latency: 8,
            counter_cache_mode: CounterCacheMode::WriteThrough,
            counter_cache_backing: CounterCacheBacking::None,
            encryption: true,
            aes_latency: 24,
            counter_placement: CounterPlacement::CrossBank,
            cwc: true,
            atomic_pair_append: true,
            osiris_window: None,
            integrity_tree: false,
            integrity_pages: 4096,
            hash_latency: 40,
            persisted_levels: None,
            wear_psi: None,
            mutation: None,
            fast_forward: true,
            seed: 0xC0FFEE,
        }
    }
}

impl Config {
    /// Sets the write-queue capacity (entries) and returns the config.
    pub fn with_write_queue_entries(mut self, entries: usize) -> Self {
        self.write_queue_entries = entries;
        self
    }

    /// Sets the counter-cache capacity (bytes) and returns the config.
    pub fn with_counter_cache_bytes(mut self, bytes: u64) -> Self {
        self.counter_cache_bytes = bytes;
        self
    }

    /// Sets the master seed and returns the config.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the memory channel count and returns the config.
    pub fn with_channels(mut self, channels: usize) -> Self {
        self.channels = channels;
        self
    }

    /// Enables or disables the drain fast path and returns the config.
    pub fn with_fast_forward(mut self, fast_forward: bool) -> Self {
        self.fast_forward = fast_forward;
        self
    }

    /// Injects a known-bad [`Mutation`] (checker validation only).
    pub fn with_mutation(mut self, mutation: Mutation) -> Self {
        self.mutation = Some(mutation);
        self
    }

    /// Enables the integrity tree and returns the config.
    pub fn with_integrity_tree(mut self, enabled: bool) -> Self {
        self.integrity_tree = enabled;
        self
    }

    /// Sets the streaming-tree persistence frontier and returns the
    /// config (`None` restores the eager engine).
    pub fn with_persisted_levels(mut self, levels: Option<u32>) -> Self {
        self.persisted_levels = levels;
        self
    }

    /// Height of the integrity tree over `integrity_pages` leaves
    /// (8-ary levels above the leaf digests; 4096 pages -> 4).
    fn integrity_tree_height(&self) -> u32 {
        let mut n = self.integrity_pages.max(1);
        let mut height = 0;
        while n > 1 {
            n = n.div_ceil(8);
            height += 1;
        }
        height
    }

    /// True when the streaming tree engine is active: the integrity
    /// tree is on and `persisted_levels` sits strictly below the tree
    /// height. `None` or a frontier at/above the height is the eager
    /// engine.
    pub fn streaming_tree(&self) -> bool {
        self.integrity_tree
            && self
                .persisted_levels
                .is_some_and(|l| l < self.integrity_tree_height())
    }

    /// The 128-bit memory-encryption key, derived deterministically from
    /// the seed so a recovered system (same config) can decrypt what the
    /// crashed system wrote — the processor key survives power loss in
    /// real hardware too.
    pub fn encryption_key(&self) -> [u8; 16] {
        let mut rng = crate::rng::SplitMix64::new(self.seed ^ 0x5EC0_4E0E_0FF1_CE00);
        let mut key = [0u8; 16];
        rng.fill_bytes(&mut key);
        key
    }

    /// NVM read service time in cycles: activate + CAS (tRCD + tCL).
    pub fn nvm_read_service_cycles(&self) -> Cycle {
        ns_to_cycles(self.trcd_ns + self.tcl_ns, self.cpu_ghz)
    }

    /// NVM write service time in cycles: write delay + write recovery
    /// (tCWD + tWR). PCM write recovery dominates at 300 ns.
    pub fn nvm_write_service_cycles(&self) -> Cycle {
        ns_to_cycles(self.tcwd_ns + self.twr_ns, self.cpu_ghz)
    }

    /// Write-to-read turnaround penalty in cycles (tWTR).
    pub fn nvm_wtr_cycles(&self) -> Cycle {
        ns_to_cycles(self.twtr_ns, self.cpu_ghz)
    }

    /// Number of cache lines per page (64 for 64 B lines and 4 KB pages).
    pub fn lines_per_page(&self) -> u64 {
        self.page_bytes / self.line_bytes
    }

    /// Total number of pages in the NVM.
    pub fn pages(&self) -> u64 {
        self.nvm_bytes / self.page_bytes
    }

    /// Validates internal consistency of the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a typed [`ConfigError`]
    /// (power-of-two sizes, non-zero capacities, an even bank count for
    /// the XBank mapping, and so on).
    pub fn validate(&self) -> Result<(), ConfigError> {
        fn pow2(v: u64) -> bool {
            v != 0 && v.is_power_of_two()
        }
        if !pow2(self.line_bytes) {
            return Err(ConfigError::LineBytesNotPow2(self.line_bytes));
        }
        if !pow2(self.page_bytes) || self.page_bytes < self.line_bytes {
            return Err(ConfigError::PageBytesInvalid(self.page_bytes));
        }
        if !pow2(self.banks as u64) {
            return Err(ConfigError::BanksNotPow2(self.banks));
        }
        if !pow2(self.channels as u64) {
            return Err(ConfigError::ChannelsNotPow2(self.channels));
        }
        if self.counter_placement == CounterPlacement::CrossBank && !self.banks.is_multiple_of(2) {
            return Err(ConfigError::XBankOddBanks(self.banks));
        }
        if self.write_queue_entries < 2 {
            return Err(ConfigError::WriteQueueTooSmall(self.write_queue_entries));
        }
        if !self.nvm_bytes.is_multiple_of(self.page_bytes) {
            return Err(ConfigError::NvmNotWholePages(self.nvm_bytes));
        }
        if self.pages() < self.channels as u64 {
            return Err(ConfigError::NvmTooSmallForChannels {
                pages: self.pages(),
                channels: self.channels,
            });
        }
        if self.cores == 0 {
            return Err(ConfigError::NoCores);
        }
        for (name, bytes, ways) in [
            ("l1", self.l1_bytes, self.l1_ways),
            ("l2", self.l2_bytes, self.l2_ways),
            ("l3", self.l3_bytes, self.l3_ways),
            (
                "counter_cache",
                self.counter_cache_bytes,
                self.counter_cache_ways,
            ),
        ] {
            if ways == 0 || !bytes.is_multiple_of(self.line_bytes * ways as u64) {
                return Err(ConfigError::CacheGeometry {
                    cache: name,
                    bytes,
                    ways,
                });
            }
        }
        if self.integrity_tree && self.integrity_pages == 0 {
            return Err(ConfigError::IntegrityTreeNeedsPages);
        }
        if let Some(levels) = self.persisted_levels {
            if !self.integrity_tree {
                return Err(ConfigError::PersistedLevelsWithoutTree(levels));
            }
            let height = self.integrity_tree_height();
            if levels > height {
                return Err(ConfigError::PersistedLevelsOutOfRange { levels, height });
            }
        }
        if self.streaming_tree() && self.write_queue_entries < 4 {
            return Err(ConfigError::StreamingTreeQueueTooSmall(
                self.write_queue_entries,
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_table2() {
        let c = Config::default();
        assert!(c.validate().is_ok());
        assert_eq!(c.cores, 8);
        assert_eq!(c.banks, 8);
        assert_eq!(c.nvm_bytes, 8 << 30);
        assert_eq!(c.write_queue_entries, 32);
        assert_eq!(c.counter_cache_bytes, 256 * 1024);
        assert_eq!(c.aes_latency, 24);
        assert_eq!(c.lines_per_page(), 64);
    }

    #[test]
    fn derived_service_times() {
        let c = Config::default();
        assert_eq!(c.nvm_read_service_cycles(), 126); // (48+15) * 2
        assert_eq!(c.nvm_write_service_cycles(), 626); // (13+300) * 2
        assert_eq!(c.nvm_wtr_cycles(), 15); // 7.5 * 2
    }

    #[test]
    fn builder_helpers() {
        let c = Config::default()
            .with_write_queue_entries(8)
            .with_counter_cache_bytes(1024)
            .with_seed(9);
        assert_eq!(c.write_queue_entries, 8);
        assert_eq!(c.counter_cache_bytes, 1024);
        assert_eq!(c.seed, 9);
    }

    #[test]
    fn validate_rejects_bad_geometry() {
        let c = Config {
            line_bytes: 48,
            ..Config::default()
        };
        assert!(c.validate().is_err());
        let c = Config {
            banks: 6,
            ..Config::default()
        };
        assert!(c.validate().is_err());
        let c = Config {
            write_queue_entries: 1,
            ..Config::default()
        };
        assert!(c.validate().is_err());
        // Page smaller than a line.
        let c = Config {
            page_bytes: 32,
            ..Config::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_odd_banks_for_xbank() {
        let mut c = Config {
            banks: 1,
            counter_placement: CounterPlacement::CrossBank,
            ..Config::default()
        };
        assert!(c.validate().is_err());
        c.counter_placement = CounterPlacement::SingleBank;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_rejects_indivisible_cache() {
        let c = Config {
            l1_bytes: 1000,
            ..Config::default()
        };
        assert!(matches!(
            c.validate(),
            Err(ConfigError::CacheGeometry { cache: "l1", .. })
        ));
    }

    #[test]
    fn validate_rejects_non_pow2_channels() {
        let c = Config::default().with_channels(3);
        assert_eq!(c.validate(), Err(ConfigError::ChannelsNotPow2(3)));
        let c = Config::default().with_channels(0);
        assert_eq!(c.validate(), Err(ConfigError::ChannelsNotPow2(0)));
        for ch in [1, 2, 4, 8] {
            assert!(Config::default().with_channels(ch).validate().is_ok());
        }
    }

    #[test]
    fn config_error_displays_offending_value() {
        let c = Config {
            banks: 6,
            ..Config::default()
        };
        let err = c.validate().unwrap_err();
        assert_eq!(err, ConfigError::BanksNotPow2(6));
        assert!(err.to_string().contains('6'));
    }

    #[test]
    fn pages_count() {
        let c = Config::default();
        assert_eq!(c.pages(), (8u64 << 30) / 4096);
    }

    #[test]
    fn integrity_tree_height_matches_arity8() {
        for (pages, height) in [(1u64, 0u32), (8, 1), (9, 2), (64, 2), (512, 3), (4096, 4)] {
            let c = Config {
                integrity_pages: pages,
                ..Config::default()
            };
            assert_eq!(c.integrity_tree_height(), height, "{pages} pages");
        }
    }

    #[test]
    fn persisted_levels_validation() {
        // The knob requires the tree.
        let c = Config::default().with_persisted_levels(Some(2));
        assert_eq!(
            c.validate(),
            Err(ConfigError::PersistedLevelsWithoutTree(2))
        );
        // In range: 4096 pages -> height 4, so 0..=4 are legal.
        for l in 0..=4u32 {
            let c = Config::default()
                .with_integrity_tree(true)
                .with_persisted_levels(Some(l));
            assert!(c.validate().is_ok(), "levels {l}");
        }
        let c = Config::default()
            .with_integrity_tree(true)
            .with_persisted_levels(Some(5));
        assert_eq!(
            c.validate(),
            Err(ConfigError::PersistedLevelsOutOfRange {
                levels: 5,
                height: 4
            })
        );
        // Tree over zero pages is a typed error, not a downstream panic.
        let c = Config {
            integrity_tree: true,
            integrity_pages: 0,
            ..Config::default()
        };
        assert_eq!(c.validate(), Err(ConfigError::IntegrityTreeNeedsPages));
        // Streaming mode needs queue headroom for tree-node traffic.
        let c = Config::default()
            .with_integrity_tree(true)
            .with_persisted_levels(Some(1))
            .with_write_queue_entries(3);
        assert_eq!(
            c.validate(),
            Err(ConfigError::StreamingTreeQueueTooSmall(3))
        );
        // Eager mode keeps the old minimum.
        let c = Config::default()
            .with_integrity_tree(true)
            .with_write_queue_entries(3);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn streaming_tree_predicate() {
        let eager = Config::default().with_integrity_tree(true);
        assert!(!eager.streaming_tree(), "no knob means eager");
        let full = eager.clone().with_persisted_levels(Some(4));
        assert!(
            !full.streaming_tree(),
            "frontier at the height is the eager engine"
        );
        let streaming = eager.clone().with_persisted_levels(Some(1));
        assert!(streaming.streaming_tree());
        let tree_off = Config::default().with_persisted_levels(Some(1));
        assert!(!tree_off.streaming_tree());
    }

    #[test]
    fn tree_mutations_parse_and_list() {
        assert_eq!(Mutation::ALL.len(), 7);
        for m in Mutation::ALL {
            assert_eq!(Mutation::parse(m.name()), Some(m));
        }
        assert_eq!(Mutation::parse("tree-skip"), Some(Mutation::TreeSkip));
        assert_eq!(Mutation::parse("tree-late"), Some(Mutation::TreeLate));
        assert_eq!(
            Mutation::parse("tree-double-root"),
            Some(Mutation::TreeDoubleRoot)
        );
        assert_eq!(Mutation::parse("bogus"), None);
    }
}
