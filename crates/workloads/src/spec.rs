//! Workload selection and construction.
//!
//! [`WorkloadSpec`] captures the evaluation parameters the paper sweeps —
//! workload kind, transaction count, and transaction request size (256 B
//! / 1 KB / 4 KB in Figures 13 and 15) — plus the memory region the
//! instance lives in (each simulated core gets a private region).
//! [`AnyWorkload`] is the enum-dispatched instance.
//!
//! Construction is unified: [`WorkloadSpec::validate`] rejects malformed
//! parameters with a typed [`SpecError`], and [`WorkloadSpec::build`] is
//! the one fallible entry point producing an [`AnyWorkload`]. Every
//! benchmark — including external crates' structures, such as the serve
//! engine's shared lock-free services — speaks the object-safe
//! [`Workload`] trait, so drivers never match on concrete types.

use supermem_persist::{PMem, TxnError};

use crate::array::ArrayWorkload;
use crate::btree::BTreeWorkload;
use crate::hashtable::HashTableWorkload;
use crate::queue::QueueWorkload;
use crate::rbtree::RbTreeWorkload;
use crate::ycsb::YcsbWorkload;

/// The five micro-benchmarks of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// Random element swaps in a flat array.
    Array,
    /// Enqueue/dequeue on a ring buffer.
    Queue,
    /// Key-value inserts into a B-tree.
    BTree,
    /// Key-value inserts into a hash table.
    HashTable,
    /// Key-value inserts into a red-black tree.
    RbTree,
    /// Mixed read/insert KV operations over the B-tree (extension; not
    /// part of the paper's five, so excluded from [`ALL_KINDS`]).
    Ycsb,
}

/// All five kinds in the paper's plotting order.
pub const ALL_KINDS: [WorkloadKind; 5] = [
    WorkloadKind::Array,
    WorkloadKind::Queue,
    WorkloadKind::BTree,
    WorkloadKind::HashTable,
    WorkloadKind::RbTree,
];

impl WorkloadKind {
    /// The short name used in figures ("array", "queue", ...).
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Array => "array",
            WorkloadKind::Queue => "queue",
            WorkloadKind::BTree => "btree",
            WorkloadKind::HashTable => "hash",
            WorkloadKind::RbTree => "rbtree",
            WorkloadKind::Ycsb => "ycsb",
        }
    }

    /// Parses a figure name back into a kind.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "array" => Some(WorkloadKind::Array),
            "queue" => Some(WorkloadKind::Queue),
            "btree" => Some(WorkloadKind::BTree),
            "hash" | "hashtable" => Some(WorkloadKind::HashTable),
            "rbtree" => Some(WorkloadKind::RbTree),
            "ycsb" => Some(WorkloadKind::Ycsb),
            _ => None,
        }
    }
}

impl std::fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A malformed [`WorkloadSpec`], reported instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SpecError {
    /// YCSB read percentage above 100.
    ReadPct(u8),
    /// Hash bucket count is zero or not a power of two.
    HashBuckets(u64),
    /// Request size below the structure's minimum record size.
    ReqBytes {
        /// The workload the size is too small for.
        kind: WorkloadKind,
        /// The offending request size.
        req_bytes: u64,
        /// The smallest size the structure accepts.
        min: u64,
    },
    /// The memory region cannot hold the structure's initial state.
    RegionTooSmall {
        /// The workload that did not fit.
        kind: WorkloadKind,
        /// What failed while seeding the structure.
        detail: String,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::ReadPct(p) => write!(f, "ycsb read percentage {p} exceeds 100"),
            SpecError::HashBuckets(b) => {
                write!(f, "hash bucket count {b} must be a nonzero power of two")
            }
            SpecError::ReqBytes {
                kind,
                req_bytes,
                min,
            } => write!(
                f,
                "request size {req_bytes} B below {kind}'s minimum of {min} B"
            ),
            SpecError::RegionTooSmall { kind, detail } => {
                write!(f, "region too small for {kind}: {detail}")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// The behavior every benchmark exposes to a driver: run transactions,
/// verify against the shadow model, report progress.
///
/// The core `Experiment`, the CLI, and the bench binaries drive
/// workloads exclusively through this trait (via [`AnyWorkload`]'s
/// impl), so adding a structure — in this crate or another, like the
/// serve engine's shared lock-free services — never edits their match
/// arms.
pub trait Workload<M: PMem> {
    /// The workload's figure name.
    fn name(&self) -> &'static str;

    /// Executes one durable transaction.
    ///
    /// # Errors
    ///
    /// Propagates [`TxnError`] from the commit.
    fn step(&mut self, mem: &mut M) -> Result<(), TxnError>;

    /// Verifies the persistent state against the shadow model.
    ///
    /// # Errors
    ///
    /// Returns a description of the first divergence.
    fn verify(&mut self, mem: &mut M) -> Result<(), String>;

    /// Committed transactions so far.
    fn committed(&self) -> u64;

    /// Re-attaches to the structure's persistent state after a crash,
    /// replacing this instance's volatile view with whatever recovery
    /// reconstructs from `mem`.
    ///
    /// The default refuses: the paper's micro-benchmarks are recovered
    /// by the memory-level machinery (`RecoveredMemory`, Osiris), not
    /// by the workload itself. Storage workloads with their own
    /// recovery protocol — such as the KV store's checksummed
    /// WAL-plus-snapshot recovery — override this.
    ///
    /// # Errors
    ///
    /// Returns a description of why recovery failed (or is
    /// unsupported).
    fn recover(&mut self, mem: &mut M) -> Result<(), String> {
        let _ = mem;
        Err(format!(
            "workload '{}' has no application-level recovery protocol",
            self.name()
        ))
    }
}

/// Parameters of one workload instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Which benchmark to run.
    pub kind: WorkloadKind,
    /// Number of transactions to execute in the measured phase.
    pub txns: u64,
    /// Transaction request size in bytes (paper: 256 / 1024 / 4096).
    pub req_bytes: u64,
    /// RNG seed.
    pub seed: u64,
    /// Base address of the instance's private memory region.
    pub region_base: u64,
    /// Length of the region.
    pub region_len: u64,
    /// Array workload: total initialized footprint in bytes.
    pub array_footprint: u64,
    /// Queue workload: ring capacity in items.
    pub queue_capacity: u64,
    /// Hash workload: bucket count (power of two).
    pub hash_buckets: u64,
    /// YCSB workload: percentage of operations that are lookups.
    pub ycsb_read_pct: u8,
}

impl WorkloadSpec {
    /// A spec with the paper's defaults: 1 KB requests, 1000
    /// transactions, an 8 MiB array footprint, 1024-slot queue, and 4096
    /// hash buckets.
    pub fn new(kind: WorkloadKind) -> Self {
        Self {
            kind,
            txns: 1000,
            req_bytes: 1024,
            seed: 1,
            region_base: 0,
            region_len: 1 << 28,
            array_footprint: 8 << 20,
            queue_capacity: 1024,
            hash_buckets: 4096,
            ycsb_read_pct: 50,
        }
    }

    /// Sets the transaction count.
    pub fn with_txns(mut self, txns: u64) -> Self {
        self.txns = txns;
        self
    }

    /// Sets the transaction request size.
    pub fn with_req_bytes(mut self, req_bytes: u64) -> Self {
        self.req_bytes = req_bytes;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Places the instance at a different region (multi-core runs give
    /// each core a private slice of the address space).
    pub fn with_region(mut self, base: u64, len: u64) -> Self {
        self.region_base = base;
        self.region_len = len;
        self
    }

    /// Sets the array footprint in bytes.
    pub fn with_array_footprint(mut self, bytes: u64) -> Self {
        self.array_footprint = bytes;
        self
    }

    /// Sets the hash-table bucket count (power of two).
    pub fn with_hash_buckets(mut self, buckets: u64) -> Self {
        self.hash_buckets = buckets;
        self
    }

    /// Sets the YCSB read percentage (0..=100).
    pub fn with_ycsb_read_pct(mut self, pct: u8) -> Self {
        self.ycsb_read_pct = pct;
        self
    }

    /// The smallest request size `kind` accepts (the structures' record
    /// headers put a floor under the per-transaction payload).
    fn min_req_bytes(kind: WorkloadKind) -> u64 {
        match kind {
            WorkloadKind::Queue => 8,
            WorkloadKind::Array | WorkloadKind::BTree | WorkloadKind::Ycsb => 16,
            WorkloadKind::HashTable => 17, // must exceed the 16 B bucket header
            WorkloadKind::RbTree => 41,    // must exceed the 40 B node header
        }
    }

    /// Checks the spec's parameters without building anything.
    ///
    /// # Errors
    ///
    /// Returns the first [`SpecError`] found. The checks mirror the
    /// construction-time assertions of the individual structures, so a
    /// spec that validates does not panic in [`WorkloadSpec::build`].
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.ycsb_read_pct > 100 {
            return Err(SpecError::ReadPct(self.ycsb_read_pct));
        }
        if self.hash_buckets == 0 || !self.hash_buckets.is_power_of_two() {
            return Err(SpecError::HashBuckets(self.hash_buckets));
        }
        let min = Self::min_req_bytes(self.kind);
        if self.req_bytes < min {
            return Err(SpecError::ReqBytes {
                kind: self.kind,
                req_bytes: self.req_bytes,
                min,
            });
        }
        Ok(())
    }

    /// Builds and initializes the workload described by this spec
    /// inside `mem` — the unified, fallible construction path.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] for malformed parameters (see
    /// [`WorkloadSpec::validate`]) or a region too small to seed the
    /// structure.
    pub fn build<M: PMem>(&self, mem: &mut M) -> Result<AnyWorkload, SpecError> {
        self.validate()?;
        let (base, len, req, seed) = (self.region_base, self.region_len, self.req_bytes, self.seed);
        Ok(match self.kind {
            WorkloadKind::Array => {
                let item = (req / 2).max(8);
                let count = (self.array_footprint / item).max(2);
                AnyWorkload::Array(ArrayWorkload::new(mem, base, len, req, count, seed))
            }
            WorkloadKind::Queue => AnyWorkload::Queue(QueueWorkload::new(
                mem,
                base,
                len,
                req,
                self.queue_capacity,
                seed,
            )),
            WorkloadKind::BTree => {
                AnyWorkload::BTree(BTreeWorkload::new(mem, base, len, req, seed))
            }
            WorkloadKind::HashTable => AnyWorkload::HashTable(HashTableWorkload::new(
                mem,
                base,
                len,
                req,
                self.hash_buckets,
                seed,
            )),
            WorkloadKind::RbTree => {
                AnyWorkload::RbTree(RbTreeWorkload::new(mem, base, len, req, seed))
            }
            WorkloadKind::Ycsb => AnyWorkload::Ycsb(YcsbWorkload::try_new(
                mem,
                base,
                len,
                req,
                self.ycsb_read_pct,
                seed,
            )?),
        })
    }
}

/// A constructed workload instance (enum dispatch over the five kinds).
#[derive(Debug, Clone)]
pub enum AnyWorkload {
    /// Flat-array swaps.
    Array(ArrayWorkload),
    /// Ring-buffer queue.
    Queue(QueueWorkload),
    /// B-tree inserts.
    BTree(BTreeWorkload),
    /// Hash-table inserts.
    HashTable(HashTableWorkload),
    /// Red-black-tree inserts.
    RbTree(RbTreeWorkload),
    /// Mixed read/insert KV operations.
    Ycsb(YcsbWorkload),
}

impl AnyWorkload {
    /// The workload's figure name.
    pub fn name(&self) -> &'static str {
        match self {
            AnyWorkload::Array(_) => "array",
            AnyWorkload::Queue(_) => "queue",
            AnyWorkload::BTree(_) => "btree",
            AnyWorkload::HashTable(_) => "hash",
            AnyWorkload::RbTree(_) => "rbtree",
            AnyWorkload::Ycsb(_) => "ycsb",
        }
    }

    /// Executes one durable transaction.
    ///
    /// # Errors
    ///
    /// Propagates [`TxnError`] from the commit.
    pub fn step<M: PMem>(&mut self, mem: &mut M) -> Result<(), TxnError> {
        match self {
            AnyWorkload::Array(w) => w.step(mem),
            AnyWorkload::Queue(w) => w.step(mem),
            AnyWorkload::BTree(w) => w.step(mem),
            AnyWorkload::HashTable(w) => w.step(mem),
            AnyWorkload::RbTree(w) => w.step(mem),
            AnyWorkload::Ycsb(w) => w.step(mem),
        }
    }

    /// Verifies the persistent state against the shadow model. Every
    /// read is a [`PMem::peek`], so checking a timed memory leaves its
    /// clock, statistics and caches as the run left them.
    ///
    /// # Errors
    ///
    /// Returns a description of the first divergence.
    pub fn verify<M: PMem>(&mut self, mem: &mut M) -> Result<(), String> {
        let mem = &mut Peeking(mem);
        match self {
            AnyWorkload::Array(w) => w.verify(mem),
            AnyWorkload::Queue(w) => w.verify(mem),
            AnyWorkload::BTree(w) => w.verify(mem),
            AnyWorkload::HashTable(w) => w.verify(mem),
            AnyWorkload::RbTree(w) => w.verify(mem),
            AnyWorkload::Ycsb(w) => w.verify(mem),
        }
    }

    /// Committed transactions so far.
    pub fn committed(&self) -> u64 {
        match self {
            AnyWorkload::Array(w) => w.committed(),
            AnyWorkload::Queue(w) => w.committed(),
            AnyWorkload::BTree(w) => w.committed(),
            AnyWorkload::HashTable(w) => w.committed(),
            AnyWorkload::RbTree(w) => w.committed(),
            AnyWorkload::Ycsb(w) => w.committed(),
        }
    }
}

impl<M: PMem> Workload<M> for AnyWorkload {
    fn name(&self) -> &'static str {
        AnyWorkload::name(self)
    }

    fn step(&mut self, mem: &mut M) -> Result<(), TxnError> {
        AnyWorkload::step(self, mem)
    }

    fn verify(&mut self, mem: &mut M) -> Result<(), String> {
        AnyWorkload::verify(self, mem)
    }

    fn committed(&self) -> u64 {
        AnyWorkload::committed(self)
    }
}

/// Implements [`Workload`] for a concrete structure by delegating to
/// its inherent methods of the same shape.
macro_rules! impl_workload {
    ($ty:ty, $name:literal) => {
        impl<M: PMem> Workload<M> for $ty {
            fn name(&self) -> &'static str {
                $name
            }

            fn step(&mut self, mem: &mut M) -> Result<(), TxnError> {
                <$ty>::step(self, mem)
            }

            fn verify(&mut self, mem: &mut M) -> Result<(), String> {
                <$ty>::verify(self, mem)
            }

            fn committed(&self) -> u64 {
                <$ty>::committed(self)
            }
        }
    };
}

impl_workload!(ArrayWorkload, "array");
impl_workload!(QueueWorkload, "queue");
impl_workload!(BTreeWorkload, "btree");
impl_workload!(HashTableWorkload, "hash");
impl_workload!(RbTreeWorkload, "rbtree");
impl_workload!(YcsbWorkload, "ycsb");

/// A memory whose reads are the wrapped memory's [`PMem::peek`]s: the
/// view [`AnyWorkload::verify`] checks through.
struct Peeking<'a, M>(&'a mut M);

impl<M: PMem> PMem for Peeking<'_, M> {
    fn read(&mut self, addr: u64, buf: &mut [u8]) {
        self.0.peek(addr, buf);
    }

    fn write(&mut self, addr: u64, bytes: &[u8]) {
        self.0.write(addr, bytes);
    }

    fn clwb(&mut self, addr: u64, len: u64) {
        self.0.clwb(addr, len);
    }

    fn sfence(&mut self) {
        self.0.sfence();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supermem_persist::VecMem;

    #[test]
    fn all_kinds_build_step_verify() {
        for kind in ALL_KINDS {
            let spec = WorkloadSpec::new(kind)
                .with_txns(30)
                .with_req_bytes(256)
                .with_array_footprint(64 << 10);
            let mut mem = VecMem::new();
            let mut w = spec.build(&mut mem).unwrap();
            assert_eq!(w.name(), kind.name());
            for _ in 0..spec.txns {
                w.step(&mut mem).unwrap_or_else(|e| panic!("{kind}: {e}"));
            }
            w.verify(&mut mem).unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert_eq!(w.committed(), 30);
        }
    }

    #[test]
    fn names_roundtrip() {
        for kind in ALL_KINDS {
            assert_eq!(WorkloadKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(WorkloadKind::from_name("nope"), None);
        assert_eq!(
            WorkloadKind::from_name("hashtable"),
            Some(WorkloadKind::HashTable)
        );
        assert_eq!(WorkloadKind::from_name("ycsb"), Some(WorkloadKind::Ycsb));
    }

    #[test]
    fn spec_builders() {
        let s = WorkloadSpec::new(WorkloadKind::Array)
            .with_txns(5)
            .with_req_bytes(4096)
            .with_seed(9)
            .with_region(0x1000, 0x100000)
            .with_array_footprint(1 << 20);
        assert_eq!(s.txns, 5);
        assert_eq!(s.req_bytes, 4096);
        assert_eq!(s.seed, 9);
        assert_eq!(s.region_base, 0x1000);
        assert_eq!(s.array_footprint, 1 << 20);
    }

    #[test]
    fn different_regions_do_not_collide() {
        // Two instances in disjoint regions of the same memory, stepped
        // alternately, must both verify — the multi-core setup.
        let mut mem = VecMem::new();
        let s1 = WorkloadSpec::new(WorkloadKind::Queue).with_region(0, 1 << 24);
        let s2 = WorkloadSpec::new(WorkloadKind::BTree)
            .with_region(1 << 24, 1 << 24)
            .with_seed(5);
        let mut w1 = s1.build(&mut mem).unwrap();
        let mut w2 = s2.build(&mut mem).unwrap();
        for _ in 0..50 {
            w1.step(&mut mem).unwrap();
            w2.step(&mut mem).unwrap();
        }
        w1.verify(&mut mem).unwrap();
        w2.verify(&mut mem).unwrap();
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(WorkloadKind::RbTree.to_string(), "rbtree");
    }

    #[test]
    fn validate_rejects_malformed_specs() {
        let bad_pct = WorkloadSpec::new(WorkloadKind::Ycsb).with_ycsb_read_pct(101);
        assert_eq!(bad_pct.validate(), Err(SpecError::ReadPct(101)));

        let bad_buckets = WorkloadSpec::new(WorkloadKind::HashTable).with_hash_buckets(3);
        assert_eq!(bad_buckets.validate(), Err(SpecError::HashBuckets(3)));

        let tiny_req = WorkloadSpec::new(WorkloadKind::RbTree).with_req_bytes(16);
        assert_eq!(
            tiny_req.validate(),
            Err(SpecError::ReqBytes {
                kind: WorkloadKind::RbTree,
                req_bytes: 16,
                min: 41,
            })
        );
    }

    #[test]
    fn build_reports_spec_errors_without_panicking() {
        let mut mem = VecMem::new();
        let bad = WorkloadSpec::new(WorkloadKind::Ycsb).with_ycsb_read_pct(200);
        assert_eq!(bad.build(&mut mem).unwrap_err(), SpecError::ReadPct(200));
    }

    #[test]
    fn validate_accepts_every_default_spec() {
        for kind in ALL_KINDS.into_iter().chain([WorkloadKind::Ycsb]) {
            WorkloadSpec::new(kind).validate().unwrap();
        }
    }

    #[test]
    fn workloads_drive_through_the_trait_object() {
        // The unified API: a driver holding only `dyn Workload` can run
        // any structure, including ones added outside this enum.
        let mut mem = VecMem::new();
        let spec = WorkloadSpec::new(WorkloadKind::BTree)
            .with_txns(10)
            .with_req_bytes(256);
        let built = spec.build(&mut mem).unwrap();
        let mut w: Box<dyn Workload<VecMem>> = Box::new(built);
        for _ in 0..10 {
            w.step(&mut mem).unwrap();
        }
        assert_eq!(w.name(), "btree");
        assert_eq!(w.committed(), 10);
        w.verify(&mut mem).unwrap();
    }
}
