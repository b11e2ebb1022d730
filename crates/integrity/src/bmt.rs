//! The Bonsai Merkle Tree, with streaming (lazily propagated) updates.
//!
//! An 8-ary hash tree whose leaves are keyed digests of counter lines
//! (one per 4 KB data page). Inner nodes and leaves live in NVM — an
//! attacker with bus access can rewrite them — but the root stays in an
//! on-chip register. Any modification of a counter line, a leaf, or an
//! inner node makes the recomputed root diverge from the trusted one.
//!
//! # Eager vs streaming updates
//!
//! The original engine recomputed the full root path on every counter
//! write ([`Bmt::update`], still available and byte-identical). The
//! streaming engine (Freij et al., "Streamlining Integrity Tree
//! Updates") instead *arms* dirty leaves in a bounded pending-update
//! cache ([`Bmt::enqueue_update`]): repeated writes to the same page
//! coalesce in place, and the root path is recomputed only when the
//! entry is propagated — on cache eviction, at a fence, or at
//! shutdown ([`Bmt::propagate_pending`]).
//!
//! # The persistence frontier
//!
//! `persisted_levels = L` (Triad-NVM style) splits the tree at level
//! `L`: digest arrays `0..L` are strictly persisted — every propagation
//! reports the touched 64-byte node-group lines as [`TreeNodeWrite`]s
//! that the memory controller pushes through its ADR write queue —
//! while levels `L..=height` stay volatile and are recomputed at
//! recovery ([`Bmt::rebuild`]). At `L = 0` nothing but the counter
//! lines themselves is persisted and recovery re-digests every leaf
//! from them (Phoenix-style recoverable counter tree,
//! [`BmtRebuild::set_leaf`]).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;

use crate::digest::LineDigester;

/// Tree fan-out (counter lines per first-level node).
pub const ARITY: usize = 8;

/// Capacity of the pending-update cache, in dirty leaves. Sixteen
/// slots mirror a small on-controller SRAM: enough to coalesce bursty
/// rewrites of hot pages, small enough that eviction traffic stays
/// visible in the persisted-levels sweep.
pub const PENDING_CACHE_SLOTS: usize = 16;

/// A structurally invalid tree configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TreeConfigError {
    /// The tree was asked to cover zero counter lines.
    NoLeaves,
    /// `persisted_levels` exceeds the tree height.
    FrontierOutOfRange {
        /// The requested persistence frontier.
        levels: usize,
        /// The tree's height (maximum legal frontier).
        height: usize,
    },
}

impl fmt::Display for TreeConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoLeaves => write!(f, "integrity tree needs at least one leaf"),
            Self::FrontierOutOfRange { levels, height } => {
                write!(f, "persisted_levels {levels} exceeds tree height {height}")
            }
        }
    }
}

impl std::error::Error for TreeConfigError {}

/// A 64-byte NVM line holding one group of eight sibling digests,
/// produced by a propagation for every touched node group at a
/// strictly-persisted level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeNodeWrite {
    /// Digest-array level (0 = leaf digests).
    pub level: u32,
    /// Group index within the level (`node_index / 8`).
    pub group: u64,
    /// The eight digests, packed little-endian.
    pub payload: [u8; 64],
}

impl TreeNodeWrite {
    /// The line's address in the NVM tree region.
    pub fn line_id(&self) -> u64 {
        tree_line_id(self.level, self.group)
    }
}

/// Packs a (level, group) coordinate into a single tree-region line id.
pub fn tree_line_id(level: u32, group: u64) -> u64 {
    (u64::from(level) << 32) | group
}

/// The level encoded in a tree-region line id.
pub fn tree_line_level(id: u64) -> u32 {
    (id >> 32) as u32
}

/// The group index encoded in a tree-region line id.
pub fn tree_line_group(id: u64) -> u64 {
    id & 0xFFFF_FFFF
}

/// The result of propagating pending leaf updates: which pages were
/// folded into the tree, and which persisted node-group lines changed
/// (deduplicated, in first-touch order).
#[derive(Debug, Clone, Default)]
pub struct Propagation {
    /// Pages whose pending updates were applied, in cache (FIFO) order.
    pub pages: Vec<u64>,
    /// Node-group lines at strictly-persisted levels that must now be
    /// pushed through the write queue.
    pub node_writes: Vec<TreeNodeWrite>,
}

impl Propagation {
    /// True when the propagation did nothing.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }
}

/// The outcome of arming a leaf update in the pending cache.
#[derive(Debug, Clone, Default)]
pub struct EnqueueOutcome {
    /// True when an already-pending entry for the page absorbed the
    /// new value in place (no new slot consumed).
    pub coalesced: bool,
    /// When the cache was full, the oldest entry was evicted and
    /// propagated to make room.
    pub eviction: Option<Propagation>,
}

/// A Bonsai Merkle Tree over `pages` counter lines.
///
/// # Examples
///
/// ```
/// use supermem_integrity::Bmt;
///
/// let mut bmt = Bmt::new([1u8; 16], 100)?;
/// bmt.update(42, &[9u8; 64]);
/// assert!(bmt.verify(42, &[9u8; 64]));
/// assert!(!bmt.verify(42, &[8u8; 64]));
/// # Ok::<(), supermem_integrity::TreeConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Bmt {
    digester: LineDigester,
    /// `levels[0]` are the leaf digests; each higher level is 8x
    /// smaller. All of this is "in NVM" (untrusted).
    levels: Vec<Vec<u64>>,
    /// The trusted on-chip root register.
    root: u64,
    /// Digest arrays `0..frontier` are strictly persisted; levels
    /// `frontier..=height` are volatile (rebuilt at recovery).
    frontier: usize,
    /// The pending-update cache: dirty leaves not yet folded into the
    /// tree, oldest first. Bounded by [`PENDING_CACHE_SLOTS`].
    pending: VecDeque<(u64, [u8; 64])>,
}

impl Bmt {
    /// Builds the tree for `pages` fresh (all-zero) counter lines in
    /// eager mode: the persistence frontier sits at the full height, and
    /// callers fold updates with [`Bmt::update`].
    ///
    /// A fresh tree is a pure function of `(key, pages)`, and recovery
    /// asks for the same one at every crash. Each thread therefore
    /// derives it once, keeps it as a template in a one-entry cache, and
    /// hands out clones; a different `(key, pages)` replaces the entry.
    ///
    /// # Errors
    ///
    /// [`TreeConfigError::NoLeaves`] if `pages` is zero.
    pub fn new(key: [u8; 16], pages: u64) -> Result<Self, TreeConfigError> {
        thread_local! {
            static FRESH: RefCell<Option<([u8; 16], Bmt)>> = const { RefCell::new(None) };
        }
        if pages == 0 {
            return Err(TreeConfigError::NoLeaves);
        }
        Ok(FRESH.with_borrow_mut(|cached| {
            if let Some((k, tree)) = cached {
                if *k == key && tree.pages() == pages {
                    return tree.clone();
                }
            }
            let tree = Self::derive_fresh(key, pages);
            *cached = Some((key, tree.clone()));
            tree
        }))
    }

    /// Derives every digest of a fresh tree over `pages` (> 0) all-zero
    /// counter lines.
    fn derive_fresh(key: [u8; 16], pages: u64) -> Self {
        let digester = LineDigester::new(key);
        let zero = [0u8; 64];
        let leaves: Vec<u64> = (0..pages).map(|p| digester.line(p, &zero)).collect();
        let mut levels = vec![leaves];
        loop {
            let next: Vec<u64> = {
                let below = &levels[levels.len() - 1];
                if below.len() <= 1 {
                    break;
                }
                below
                    .chunks(ARITY)
                    .enumerate()
                    .map(|(i, children)| digester.node(i as u64, children))
                    .collect()
            };
            levels.push(next);
        }
        let root = levels[levels.len() - 1][0];
        let frontier = levels.len() - 1;
        Self {
            digester,
            levels,
            root,
            frontier,
            pending: VecDeque::new(),
        }
    }

    /// Builds the tree with an explicit persistence frontier
    /// (`persisted_levels`, Triad-NVM style) for the streaming engine.
    ///
    /// # Errors
    ///
    /// [`TreeConfigError::NoLeaves`] if `pages` is zero;
    /// [`TreeConfigError::FrontierOutOfRange`] if `persisted_levels`
    /// exceeds the tree height.
    pub fn with_frontier(
        key: [u8; 16],
        pages: u64,
        persisted_levels: usize,
    ) -> Result<Self, TreeConfigError> {
        let mut bmt = Self::new(key, pages)?;
        if persisted_levels > bmt.height() {
            return Err(TreeConfigError::FrontierOutOfRange {
                levels: persisted_levels,
                height: bmt.height(),
            });
        }
        bmt.frontier = persisted_levels;
        Ok(bmt)
    }

    /// Opens a crash-time rebuild ([`BmtRebuild`]) of the tree over
    /// `pages` counter lines with `persisted_levels` strictly persisted
    /// digest arrays, starting from the fresh tree.
    ///
    /// # Errors
    ///
    /// As [`Bmt::with_frontier`].
    pub fn rebuild(
        key: [u8; 16],
        pages: u64,
        persisted_levels: usize,
    ) -> Result<BmtRebuild, TreeConfigError> {
        Ok(BmtRebuild {
            tree: Self::with_frontier(key, pages, persisted_levels)?,
            changed: vec![Vec::new(); persisted_levels.max(1)],
        })
    }

    /// Number of protected counter lines.
    pub fn pages(&self) -> u64 {
        self.levels[0].len() as u64
    }

    /// Tree height (levels above the leaves).
    pub fn height(&self) -> usize {
        self.levels.len() - 1
    }

    /// The persistence frontier: digest arrays `0..frontier()` are
    /// strictly persisted through the write queue.
    pub fn frontier(&self) -> usize {
        self.frontier
    }

    /// The trusted root register.
    pub fn root(&self) -> u64 {
        self.root
    }

    /// Records a new value for page `page`'s counter line, updating the
    /// path to the root (the eager fold the memory controller performs
    /// on a counter write when streaming is off).
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn update(&mut self, page: u64, counter_line: &[u8; 64]) {
        let mut idx = page as usize;
        self.levels[0][idx] = self.digester.line(page, counter_line);
        for level in 1..=self.height() {
            idx /= ARITY;
            self.levels[level][idx] = self.hash_node(level, idx);
        }
        self.root = self.levels[self.height()][0];
    }

    /// Hashes node `index` of level `level` (>= 1) from its children:
    /// the stored digests of group `index` one level down.
    fn hash_node(&self, level: usize, index: usize) -> u64 {
        let below = &self.levels[level - 1];
        let start = index * ARITY;
        self.digester.node(
            index as u64,
            &below[start..(start + ARITY).min(below.len())],
        )
    }

    /// Arms a leaf update in the pending cache (the streaming fold). A
    /// pending entry for the same page absorbs the new value in place;
    /// when the cache is full the oldest entry is evicted and
    /// propagated, and its node writes are returned for the caller to
    /// push through the write queue.
    pub fn enqueue_update(&mut self, page: u64, counter_line: &[u8; 64]) -> EnqueueOutcome {
        if let Some(slot) = self.pending.iter_mut().find(|(p, _)| *p == page) {
            slot.1 = *counter_line;
            return EnqueueOutcome {
                coalesced: true,
                eviction: None,
            };
        }
        let eviction = if self.pending.len() >= PENDING_CACHE_SLOTS {
            Some(self.propagate_batch(1))
        } else {
            None
        };
        self.pending.push_back((page, *counter_line));
        EnqueueOutcome {
            coalesced: false,
            eviction,
        }
    }

    /// Pending (armed, not yet propagated) leaf updates.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Propagates every pending leaf update (fence / shutdown / crash
    /// flush), returning the pages folded and the persisted node-group
    /// lines touched.
    pub fn propagate_pending(&mut self) -> Propagation {
        self.propagate_batch(self.pending.len())
    }

    /// Propagates only `page`'s pending update, if one is armed — the
    /// memory controller does this before verifying a counter fetched
    /// from NVM, so verification always sees the leaf's newest value.
    pub fn propagate_page(&mut self, page: u64) -> Option<Propagation> {
        let pos = self.pending.iter().position(|&(p, _)| p == page)?;
        let (page, line) = self.pending.remove(pos)?;
        let mut pages = Vec::new();
        let mut touched = Vec::new();
        self.propagate_entry(page, &line, &mut pages, &mut touched);
        Some(self.finish_propagation(pages, touched))
    }

    /// Pops and propagates the oldest `take` pending entries.
    fn propagate_batch(&mut self, take: usize) -> Propagation {
        let mut pages = Vec::new();
        let mut touched: Vec<(usize, u64)> = Vec::new();
        for _ in 0..take {
            let Some((page, line)) = self.pending.pop_front() else {
                break;
            };
            self.propagate_entry(page, &line, &mut pages, &mut touched);
        }
        self.finish_propagation(pages, touched)
    }

    /// Folds one leaf into the tree and records the persisted node
    /// groups its path touched.
    fn propagate_entry(
        &mut self,
        page: u64,
        line: &[u8; 64],
        pages: &mut Vec<u64>,
        touched: &mut Vec<(usize, u64)>,
    ) {
        self.update(page, line);
        pages.push(page);
        let mut idx = page as usize;
        for level in 0..self.frontier {
            let group = (idx / ARITY) as u64;
            if !touched.contains(&(level, group)) {
                touched.push((level, group));
            }
            idx /= ARITY;
        }
    }

    /// Payloads are read once, after every update in the batch has been
    /// applied, so a group touched by several leaves is written once
    /// with its final contents.
    fn finish_propagation(&self, pages: Vec<u64>, touched: Vec<(usize, u64)>) -> Propagation {
        let node_writes = touched
            .into_iter()
            .map(|(level, group)| TreeNodeWrite {
                level: level as u32,
                group,
                payload: self.line_payload(level, group),
            })
            .collect();
        Propagation { pages, node_writes }
    }

    /// The 64-byte node-group line at (`level`, `group`): eight sibling
    /// digests packed little-endian, zero-padded past the level's end.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    fn line_payload(&self, level: usize, group: u64) -> [u8; 64] {
        let mut out = [0u8; 64];
        let start = group as usize * ARITY;
        for i in 0..ARITY {
            let digest = self.levels[level].get(start + i).copied().unwrap_or(0);
            out[i * 8..(i + 1) * 8].copy_from_slice(&digest.to_le_bytes());
        }
        out
    }

    /// Verifies page `page`'s counter line against the trusted root,
    /// recomputing the path and using stored *siblings* — which are
    /// themselves untrusted, so any tampering along the way surfaces as
    /// a root mismatch (what the memory controller does on a counter
    /// fetch from NVM). A pending streaming update for the page must be
    /// propagated first ([`Bmt::propagate_page`]).
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn verify(&self, page: u64, counter_line: &[u8; 64]) -> bool {
        let mut idx = page as usize;
        let mut digest = self.digester.line(page, counter_line);
        let mut group = [0u64; ARITY];
        for level in 0..self.height() {
            let parent = idx / ARITY;
            let start = parent * ARITY;
            let end = (start + ARITY).min(self.levels[level].len());
            let children = &mut group[..end - start];
            children.copy_from_slice(&self.levels[level][start..end]);
            children[idx - start] = digest;
            digest = self.digester.node(parent as u64, children);
            idx = parent;
        }
        digest == self.root
    }
}

/// A crash-time rebuild of the tree from what NVM persisted, opened by
/// [`Bmt::rebuild`] and closed by [`BmtRebuild::finish`].
///
/// Phoenix-style leaves ([`BmtRebuild::set_leaf`]) or Triad-NVM-style
/// persisted node lines ([`BmtRebuild::install_node_line`]) are written
/// over a fresh tree, and the rebuild notes every node group they
/// overwrite. A node digest is a pure function of its index and its
/// children, so every group no input reached still holds the fresh
/// tree's digests, which already hash from their children. `finish`
/// therefore audits only the nodes beside a changed group and
/// recomputes only the changed groups' ancestors; the digests, the root
/// and the audit verdict equal a full rebuild's. The hash count it
/// reports is the full modeled one: recovery hardware cannot know which
/// lines a crash left untouched, so it hashes every node of every
/// audited and recomputed level.
#[derive(Debug)]
pub struct BmtRebuild {
    tree: Bmt,
    /// For each level below the first recomputed one, the groups an
    /// input overwrote (unsorted, with repeats until `finish`).
    changed: Vec<Vec<usize>>,
}

impl BmtRebuild {
    /// Installs a persisted node-group line read back from NVM. Entries
    /// past the level's end are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `level` is not below the persistence frontier.
    pub fn install_node_line(&mut self, level: usize, group: u64, payload: &[u8; 64]) {
        assert!(
            level < self.tree.frontier,
            "level {level} is above the persisted levels"
        );
        let digests = &mut self.tree.levels[level];
        let start = group as usize * ARITY;
        if start >= digests.len() {
            return;
        }
        for (slot, bytes) in digests[start..].iter_mut().zip(payload.chunks_exact(8)) {
            let mut word = [0u8; 8];
            word.copy_from_slice(bytes);
            *slot = u64::from_le_bytes(word);
        }
        self.changed[level].push(group as usize);
    }

    /// Sets page `page`'s leaf digest from its counter line: the
    /// Phoenix-style leaf reconstruction at `persisted_levels = 0`.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn set_leaf(&mut self, page: u64, counter_line: &[u8; 64]) {
        let leaf = self.tree.digester.line(page, counter_line);
        self.tree.levels[0][page as usize] = leaf;
        self.changed[0].push(page as usize / ARITY);
    }

    /// Audits the persisted levels bottom-up, then recomputes the
    /// volatile levels `frontier.max(1)..=height` and the root.
    ///
    /// Each persisted level `1..frontier` must hash from the level below
    /// it: the recomputed root reads only the frontier's top array, so
    /// damage beneath it is caught here or not at all. Returns the
    /// rebuilt tree, or `Err(level)` for the first level that does not
    /// match its children, together with the modeled node hashes spent
    /// (audits up to the verdict, plus the recompute on success).
    pub fn finish(mut self) -> (Result<Bmt, usize>, u64) {
        for groups in &mut self.changed {
            groups.sort_unstable();
            groups.dedup();
        }
        let tree = &mut self.tree;
        let mut hashes = 0u64;
        for level in 1..tree.frontier {
            let len = tree.levels[level].len();
            hashes += len as u64;
            // Parents of a changed child group, and every node of a
            // changed parent group; each other node is still fresh.
            let parent_groups = self.changed[level].iter().map(|&g| g * ARITY);
            let mut audited = self.changed[level - 1]
                .iter()
                .copied()
                .chain(parent_groups.flat_map(|start| start..(start + ARITY).min(len)));
            if !audited.all(|i| tree.hash_node(level, i) == tree.levels[level][i]) {
                return (Err(level), hashes);
            }
        }
        let from = tree.frontier.max(1);
        let mut groups = std::mem::take(&mut self.changed[from - 1]);
        for level in from..=tree.height() {
            hashes += tree.levels[level].len() as u64;
            for &g in &groups {
                let digest = tree.hash_node(level, g);
                tree.levels[level][g] = digest;
            }
            for g in &mut groups {
                *g /= ARITY;
            }
            groups.dedup();
        }
        tree.root = tree.levels[tree.height()][0];
        (Ok(self.tree), hashes)
    }
}

#[cfg(test)]
impl Bmt {
    /// Corrupts a stored (NVM-resident) node, modeling an active
    /// bus/DIMM attacker. `level` 0 addresses leaf digests.
    fn tamper_node(&mut self, level: usize, index: usize, xor: u64) {
        self.levels[level][index] ^= xor;
    }

    /// The full recompute [`BmtRebuild::finish`] must equal: rehashes
    /// every node of levels `level.max(1)..=height` bottom-up from the
    /// array below and refreshes the root. Returns the node hashes.
    fn recompute_from_level(&mut self, level: usize) -> u64 {
        let mut hashes = 0u64;
        for l in level.max(1)..=self.height() {
            let next: Vec<u64> = (0..self.levels[l].len())
                .map(|i| self.hash_node(l, i))
                .collect();
            hashes += next.len() as u64;
            self.levels[l] = next;
        }
        self.root = self.levels[self.height()][0];
        hashes
    }

    /// The full audit [`BmtRebuild::finish`] must agree with: rehashes
    /// every node of `level` (>= 1) from the stored level below and
    /// compares. Returns the node hashes and whether all matched.
    fn audit_level(&self, level: usize) -> (u64, bool) {
        let nodes = self.levels[level].len();
        let clean = (0..nodes).all(|i| self.hash_node(level, i) == self.levels[level][i]);
        (nodes as u64, clean)
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;

    fn bmt(pages: u64) -> Bmt {
        Bmt::new([0xA5; 16], pages).expect("valid page count")
    }

    #[test]
    fn zero_pages_is_a_typed_error() {
        assert!(matches!(
            Bmt::new([0; 16], 0).map(|b| b.root()),
            Err(TreeConfigError::NoLeaves)
        ));
        assert!(matches!(
            Bmt::with_frontier([0; 16], 0, 0).map(|b| b.root()),
            Err(TreeConfigError::NoLeaves)
        ));
    }

    #[test]
    fn frontier_past_height_is_a_typed_error() {
        // 64 pages -> height 2; frontier 3 is out of range.
        assert!(matches!(
            Bmt::with_frontier([0; 16], 64, 3).map(|b| b.root()),
            Err(TreeConfigError::FrontierOutOfRange {
                levels: 3,
                height: 2
            })
        ));
        assert_eq!(
            Bmt::with_frontier([0; 16], 64, 2)
                .expect("frontier == height is legal")
                .frontier(),
            2
        );
    }

    #[test]
    fn fresh_tree_verifies_zero_lines() {
        let b = bmt(100);
        for p in [0u64, 1, 50, 99] {
            assert!(b.verify(p, &[0u8; 64]));
        }
    }

    #[test]
    fn update_then_verify() {
        let mut b = bmt(1000);
        b.update(123, &[7u8; 64]);
        assert!(b.verify(123, &[7u8; 64]));
        assert!(
            !b.verify(123, &[0u8; 64]),
            "old value must no longer verify"
        );
        // Untouched pages still verify.
        assert!(b.verify(124, &[0u8; 64]));
    }

    #[test]
    fn detects_counter_line_tampering() {
        let mut b = bmt(64);
        b.update(10, &[3u8; 64]);
        let mut forged = [3u8; 64];
        forged[17] ^= 0x40;
        assert!(!b.verify(10, &forged));
    }

    #[test]
    fn detects_leaf_digest_tampering() {
        let mut b = bmt(64);
        b.update(10, &[3u8; 64]);
        // The attacker rewrites a *sibling* leaf digest in NVM: page 10's
        // verification walks past it and must notice.
        b.tamper_node(0, 11, 0xDEAD);
        assert!(!b.verify(10, &[3u8; 64]));
    }

    #[test]
    fn detects_inner_node_tampering() {
        let mut b = bmt(512);
        b.update(100, &[9u8; 64]);
        // Page 100's level-1 parent is node 12 (group 8..16). Corrupt a
        // *sibling* inner node in that group: the level-2 recombination
        // must expose it.
        b.tamper_node(1, 8, 1);
        assert!(!b.verify(100, &[9u8; 64]), "sibling-subtree tampering");
    }

    #[test]
    fn single_page_tree() {
        let mut b = bmt(1);
        assert_eq!(b.height(), 0);
        b.update(0, &[5u8; 64]);
        assert!(b.verify(0, &[5u8; 64]));
        assert!(!b.verify(0, &[6u8; 64]));
    }

    #[test]
    fn non_power_of_arity_page_counts() {
        for pages in [7u64, 9, 63, 65, 100] {
            let mut b = bmt(pages);
            let last = pages - 1;
            b.update(last, &[1u8; 64]);
            assert!(b.verify(last, &[1u8; 64]), "{pages} pages");
            assert!(b.verify(0, &[0u8; 64]), "{pages} pages");
        }
    }

    #[test]
    fn height_grows_logarithmically() {
        assert_eq!(bmt(8).height(), 1);
        assert_eq!(bmt(9).height(), 2);
        assert_eq!(bmt(64).height(), 2);
        assert_eq!(bmt(4096).height(), 4);
    }

    #[test]
    fn root_changes_with_every_update() {
        let mut b = bmt(256);
        let r0 = b.root();
        b.update(0, &[1u8; 64]);
        let r1 = b.root();
        b.update(255, &[1u8; 64]);
        let r2 = b.root();
        assert_ne!(r0, r1);
        assert_ne!(r1, r2);
    }

    #[test]
    fn line_id_round_trips() {
        let id = tree_line_id(3, 0x1234_5678);
        assert_eq!(tree_line_level(id), 3);
        assert_eq!(tree_line_group(id), 0x1234_5678);
    }

    #[test]
    fn streaming_coalesces_same_page_in_place() {
        let mut b = Bmt::with_frontier([1; 16], 64, 1).expect("valid");
        assert!(!b.enqueue_update(5, &[1; 64]).coalesced);
        let again = b.enqueue_update(5, &[2; 64]);
        assert!(again.coalesced);
        assert!(again.eviction.is_none());
        assert_eq!(b.pending_len(), 1);
        // The coalesced (newest) value is what propagation folds in.
        let prop = b.propagate_pending();
        assert_eq!(prop.pages, vec![5]);
        assert!(b.verify(5, &[2; 64]));
        assert!(!b.verify(5, &[1; 64]));
    }

    #[test]
    fn full_cache_evicts_and_propagates_the_oldest() {
        let mut b = Bmt::with_frontier([1; 16], 4096, 2).expect("valid");
        for page in 0..PENDING_CACHE_SLOTS as u64 {
            assert!(b.enqueue_update(page, &[page as u8; 64]).eviction.is_none());
        }
        assert_eq!(b.pending_len(), PENDING_CACHE_SLOTS);
        let out = b.enqueue_update(1000, &[7; 64]);
        let evicted = out.eviction.expect("cache was full");
        assert_eq!(evicted.pages, vec![0], "oldest entry propagates");
        assert_eq!(b.pending_len(), PENDING_CACHE_SLOTS);
        // Page 0's path touches one group per persisted level.
        assert_eq!(evicted.node_writes.len(), 2);
        assert!(b.verify(0, &[0; 64]));
    }

    #[test]
    fn propagation_dedupes_node_groups_across_leaves() {
        // Pages 0..8 share the level-0 group 0 and the level-1 group 0:
        // one flush of all eight must write each group line once.
        let mut b = Bmt::with_frontier([1; 16], 4096, 2).expect("valid");
        for page in 0..8u64 {
            b.enqueue_update(page, &[page as u8 + 1; 64]);
        }
        let prop = b.propagate_pending();
        assert_eq!(prop.pages.len(), 8);
        assert_eq!(prop.node_writes.len(), 2, "level 0 + level 1, deduped");
        for page in 0..8u64 {
            assert!(b.verify(page, &[page as u8 + 1; 64]));
        }
    }

    #[test]
    fn propagate_page_targets_one_entry() {
        let mut b = Bmt::with_frontier([1; 16], 4096, 1).expect("valid");
        b.enqueue_update(9, &[9; 64]);
        b.enqueue_update(700, &[7; 64]);
        let prop = b.propagate_page(700).expect("armed");
        assert_eq!(prop.pages, vec![700]);
        assert_eq!(b.pending_len(), 1);
        assert!(b.propagate_page(700).is_none(), "no longer pending");
        assert!(b.verify(700, &[7; 64]));
    }

    #[test]
    fn node_line_round_trips_through_payload_and_install() {
        let mut b = Bmt::with_frontier([3; 16], 100, 1).expect("valid");
        for page in 90..100u64 {
            b.enqueue_update(page, &[page as u8; 64]);
        }
        let prop = b.propagate_pending();
        // Install every persisted line into a fresh tree and recompute
        // the volatile levels: the roots must agree.
        let mut fresh = Bmt::rebuild([3; 16], 100, 1).expect("valid");
        for w in &prop.node_writes {
            assert_eq!(w.level, 0, "frontier 1 persists only leaf lines");
            fresh.install_node_line(w.level as usize, w.group, &w.payload);
        }
        let (rebuilt, _) = fresh.finish();
        assert_eq!(rebuilt.expect("clean lines audit").root(), b.root());
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod template {
    //! The per-thread fresh-tree template behind [`Bmt::new`].
    use super::*;
    use supermem_sim::SplitMix64;

    fn assert_same(got: &Bmt, want: &Bmt, what: &str) {
        assert_eq!(got.levels, want.levels, "{what}: levels");
        assert_eq!(got.root, want.root, "{what}: root");
        assert_eq!(got.frontier, want.frontier, "{what}: frontier");
        assert_eq!(got.pending_len(), 0, "{what}: pending");
    }

    fn random_key(rng: &mut SplitMix64) -> [u8; 16] {
        let mut key = [0u8; 16];
        key[..8].copy_from_slice(&rng.next_u64().to_le_bytes());
        key[8..].copy_from_slice(&rng.next_u64().to_le_bytes());
        key
    }

    /// Cached builds equal a cold derivation for random geometries,
    /// whether the template was hit, missed, or displaced by another
    /// key or page count on the same thread.
    #[test]
    fn warm_builds_equal_cold_derivations() {
        let mut rng = SplitMix64::new(0x7E3A);
        let keys: Vec<[u8; 16]> = (0..3).map(|_| random_key(&mut rng)).collect();
        for _ in 0..40 {
            let key = keys[rng.next_below(3) as usize];
            let pages = rng.next_range(1, 700);
            let cold = Bmt::derive_fresh(key, pages);
            let first = Bmt::new(key, pages).expect("valid");
            assert_same(&first, &cold, "first build");
            let warm = Bmt::new(key, pages).expect("valid");
            assert_same(&warm, &cold, "warm build");
            // Same page count, other key; then same key, other count.
            let other = keys[(rng.next_below(2) as usize + 1) % 3];
            if other != key {
                let displacing = Bmt::new(other, pages).expect("valid");
                assert_same(&displacing, &Bmt::derive_fresh(other, pages), "other key");
                assert_same(&Bmt::new(key, pages).expect("valid"), &cold, "after key");
            }
            let displacing = Bmt::new(key, pages + 1).expect("valid");
            assert_same(
                &displacing,
                &Bmt::derive_fresh(key, pages + 1),
                "other count",
            );
            assert_same(&Bmt::new(key, pages).expect("valid"), &cold, "after pages");
        }
    }

    /// Every mutator works on the caller's clone: the next build is
    /// still the fresh tree.
    #[test]
    fn mutating_a_clone_never_reaches_the_template() {
        let key = [0x42; 16];
        let cold = Bmt::derive_fresh(key, 300);
        let mut a = Bmt::new(key, 300).expect("valid");
        a.update(17, &[9; 64]);
        a.tamper_node(1, 3, 0xFFFF);
        a.recompute_from_level(1);
        let mut r = Bmt::rebuild(key, 300, 2).expect("valid");
        r.install_node_line(0, 5, &[0xAB; 64]);
        r.install_node_line(1, 0, &[0xCD; 64]);
        assert!(r.finish().0.is_err(), "forged lines fail the audit");
        let mut r = Bmt::rebuild(key, 300, 0).expect("valid");
        r.set_leaf(299, &[1; 64]);
        assert!(r.finish().0.is_ok());
        assert_same(
            &Bmt::new(key, 300).expect("valid"),
            &cold,
            "after eager mutators",
        );
        let mut b = Bmt::with_frontier(key, 300, 1).expect("valid");
        b.enqueue_update(4, &[3; 64]);
        b.propagate_pending();
        let fresh = Bmt::new(key, 300).expect("valid");
        assert_same(&fresh, &cold, "after streaming mutators");
        assert_eq!(fresh.frontier(), fresh.height(), "new() is eager");
    }

    /// Each thread keeps its own template; all of them agree.
    #[test]
    fn spawned_threads_build_the_main_threads_tree() {
        let geometries = [([1u8; 16], 4096u64), ([2; 16], 65), ([1; 16], 9)];
        let here: Vec<Bmt> = geometries
            .iter()
            .map(|&(k, p)| Bmt::new(k, p).expect("valid"))
            .collect();
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..3)
                .map(|t| {
                    s.spawn(move || {
                        // Different visiting orders displace the
                        // template differently on each thread.
                        (0..geometries.len() * 2)
                            .map(|i| (i + t) % geometries.len())
                            .map(|g| (g, Bmt::new(geometries[g].0, geometries[g].1)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for w in workers {
                for (g, tree) in w.join().expect("worker") {
                    assert_same(&tree.expect("valid"), &here[g], "spawned thread");
                }
            }
        });
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod randomized {
    //! Deterministic randomized tests (seeded SplitMix64 stands in for
    //! proptest, which is unavailable in offline builds).
    use super::*;
    use std::collections::HashMap;
    use supermem_sim::SplitMix64;

    /// After any update sequence, the latest value of every touched
    /// page verifies and a forged value does not.
    #[test]
    fn updates_verify_and_forgeries_fail() {
        let mut rng = SplitMix64::new(0xB317);
        for _ in 0..24 {
            let mut b = Bmt::new([1; 16], 200).expect("valid");
            let mut latest = std::collections::HashMap::new();
            for _ in 0..rng.next_range(1, 60) {
                let page = rng.next_below(200);
                let fill = rng.next_u64() as u8;
                b.update(page, &[fill; 64]);
                latest.insert(page, fill);
            }
            for (page, fill) in &latest {
                assert!(b.verify(*page, &[*fill; 64]));
                assert!(!b.verify(*page, &[fill.wrapping_add(1); 64]));
            }
        }
    }

    /// Tampering any stored node that verification consults as a
    /// *sibling* (not a node it recomputes itself) is detected.
    /// Nodes on the page's own path are recomputed and substituted,
    /// so tampering them is inconsequential — and correctly NOT
    /// reported, because the recomputation supersedes them.
    #[test]
    fn sibling_tampering_is_detected() {
        let mut rng = SplitMix64::new(0x7A3B);
        for _ in 0..64 {
            let page = rng.next_below(64);
            let level = rng.next_below(2) as usize;
            let offset = rng.next_range(1, 8) as usize; // never the page's own node
            let xor = rng.next_range(1, u64::MAX);
            let mut b = Bmt::new([2; 16], 64).expect("valid");
            b.update(page, &[0xCC; 64]);
            let own = if level == 0 {
                page as usize
            } else {
                page as usize / 8
            };
            let group = own / 8 * 8;
            let idx = group + (own % 8 + offset) % 8;
            b.tamper_node(level, idx, xor);
            assert!(!b.verify(page, &[0xCC; 64]));
        }
    }

    /// Conversely: tampering a node the verifier recomputes (its own
    /// path) does not break verification of the true value.
    #[test]
    fn own_path_nodes_are_self_healing() {
        let mut rng = SplitMix64::new(0x4EA1);
        for _ in 0..64 {
            let page = rng.next_below(64);
            let level = rng.next_below(2) as usize;
            let xor = rng.next_range(1, u64::MAX);
            let mut b = Bmt::new([2; 16], 64).expect("valid");
            b.update(page, &[0xCC; 64]);
            let own = if level == 0 {
                page as usize
            } else {
                page as usize / 8
            };
            b.tamper_node(level, own, xor);
            assert!(b.verify(page, &[0xCC; 64]));
        }
    }

    /// The streaming engine against the brute-force eager oracle: the
    /// same update sequence fed through [`Bmt::enqueue_update`] (with
    /// random interleaved partial flushes) and through [`Bmt::update`]
    /// must converge to the same root once all pending entries are
    /// propagated — over non-power-of-8 leaf counts and heavy
    /// duplicate-page coalescing.
    #[test]
    fn streaming_matches_eager_oracle() {
        let mut rng = SplitMix64::new(0x57EE);
        for pages in [7u64, 9, 64, 65, 100, 512, 1000] {
            let height = Bmt::new([9; 16], pages).expect("valid").height();
            for _ in 0..8 {
                let frontier = (rng.next_below(4) as usize).min(height);
                let mut streaming = Bmt::with_frontier([9; 16], pages, frontier).expect("valid");
                let mut eager = Bmt::new([9; 16], pages).expect("valid");
                for _ in 0..rng.next_range(1, 120) {
                    let page = rng.next_below(pages.max(4)) % pages;
                    let fill = rng.next_u64() as u8;
                    streaming.enqueue_update(page, &[fill; 64]);
                    eager.update(page, &[fill; 64]);
                    if rng.next_below(10) == 0 {
                        streaming.propagate_pending();
                    }
                }
                streaming.propagate_pending();
                assert_eq!(streaming.root(), eager.root(), "{pages} pages");
                assert_eq!(streaming.pending_len(), 0);
            }
        }
    }

    /// Crash recovery at every persisted-levels setting: persist the
    /// node lines a streaming run reports (newest write wins, as NVM
    /// would hold them), rebuild a fresh tree from the persisted
    /// frontier plus the counter lines, and the recomputed root must
    /// equal the live root — and every page's latest counter line must
    /// verify against it.
    #[test]
    fn recovery_from_the_frontier_matches_at_every_setting() {
        let mut rng = SplitMix64::new(0xF30A);
        for pages in [9u64, 100, 520] {
            let probe = Bmt::new([4; 16], pages).expect("valid");
            for frontier in 0..=probe.height() {
                let mut live = Bmt::with_frontier([4; 16], pages, frontier).expect("valid");
                let mut nvm_tree: HashMap<u64, [u8; 64]> = HashMap::new();
                let mut counters: HashMap<u64, [u8; 64]> = HashMap::new();
                let persist = |prop: &Propagation, nvm: &mut HashMap<u64, [u8; 64]>| {
                    for w in &prop.node_writes {
                        nvm.insert(w.line_id(), w.payload);
                    }
                };
                for _ in 0..rng.next_range(1, 80) {
                    let page = rng.next_below(pages);
                    let line = [rng.next_u64() as u8; 64];
                    counters.insert(page, line);
                    let out = live.enqueue_update(page, &line);
                    if let Some(ev) = &out.eviction {
                        persist(ev, &mut nvm_tree);
                    }
                    if rng.next_below(12) == 0 {
                        let prop = live.propagate_pending();
                        persist(&prop, &mut nvm_tree);
                    }
                }
                // Crash: the ADR domain flushes the pending cache.
                let flush = live.propagate_pending();
                persist(&flush, &mut nvm_tree);

                // Recover: fresh tree, persisted lines for levels
                // 0..frontier, Phoenix leaves when the frontier is 0,
                // volatile levels recomputed bottom-up.
                let mut rec = Bmt::rebuild([4; 16], pages, frontier).expect("valid");
                if frontier == 0 {
                    for (&page, line) in &counters {
                        rec.set_leaf(page, line);
                    }
                } else {
                    for (&id, payload) in &nvm_tree {
                        let level = tree_line_level(id) as usize;
                        assert!(level < frontier, "only persisted levels hit NVM");
                        rec.install_node_line(level, tree_line_group(id), payload);
                    }
                }
                let (rec, _) = rec.finish();
                let rec = rec.expect("persisted levels audit clean");
                assert_eq!(
                    rec.root(),
                    live.root(),
                    "{pages} pages, frontier {frontier}"
                );
                for (&page, line) in &counters {
                    assert!(rec.verify(page, line));
                }
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod rebuild {
    //! [`BmtRebuild`] against the full audit and recompute it replaces.
    use super::*;
    use std::collections::BTreeMap;
    use supermem_sim::SplitMix64;

    /// The full rebuild: every node of every persisted level audited
    /// bottom-up, then every node of every volatile level recomputed.
    fn full_rebuild(mut tree: Bmt) -> (Result<Bmt, usize>, u64) {
        let mut hashes = 0;
        for level in 1..tree.frontier {
            let (audited, clean) = tree.audit_level(level);
            hashes += audited;
            if !clean {
                return (Err(level), hashes);
            }
        }
        hashes += tree.recompute_from_level(tree.frontier.max(1));
        (Ok(tree), hashes)
    }

    fn line(rng: &mut SplitMix64) -> [u8; 64] {
        let mut out = [0u8; 64];
        rng.fill_bytes(&mut out);
        out
    }

    /// 64-byte lines by id: tree-region line ids or page numbers.
    type Lines = BTreeMap<u64, [u8; 64]>;

    /// The live tree of a streaming run at `frontier`, the node lines it
    /// persisted (newest write wins) and the counter lines it wrote.
    fn crashed_run(
        rng: &mut SplitMix64,
        key: [u8; 16],
        pages: u64,
        frontier: usize,
    ) -> (Bmt, Lines, Lines) {
        let mut live = Bmt::with_frontier(key, pages, frontier).expect("valid");
        let (mut nvm, mut counters) = (BTreeMap::new(), BTreeMap::new());
        for _ in 0..rng.next_range(0, 60) {
            let page = rng.next_below(pages);
            let counter = line(rng);
            counters.insert(page, counter);
            let evicted = live.enqueue_update(page, &counter).eviction;
            for w in evicted.iter().flat_map(|p| &p.node_writes) {
                nvm.insert(w.line_id(), w.payload);
            }
        }
        for w in live.propagate_pending().node_writes {
            nvm.insert(w.line_id(), w.payload);
        }
        (live, nvm, counters)
    }

    /// Over genuine and replayed inputs, plus at most one flipped bit,
    /// forged line (sometimes past its level's end) or forged leaf per
    /// case, at every frontier, the incremental rebuild yields the full
    /// rebuild's levels, root, audit verdict and hash count.
    #[test]
    fn incremental_rebuild_matches_the_full_reference() {
        let mut rng = SplitMix64::new(0x1BC7);
        let key = [0x5E; 16];
        // Clean and live root, clean with another root (damage at the
        // frontier's top array), refused at level 1, refused above it.
        let mut outcomes = [0usize; 4];
        for pages in [1u64, 7, 9, 64, 65, 300, 520, 4096] {
            let height = Bmt::new(key, pages).expect("valid").height();
            for frontier in 0..=height {
                for case in 0..12 {
                    let (live, nvm, counters) = crashed_run(&mut rng, key, pages, frontier);
                    let mut lines: Vec<(usize, u64, [u8; 64])> = nvm
                        .iter()
                        .map(|(&id, &p)| (tree_line_level(id) as usize, tree_line_group(id), p))
                        .collect();
                    let mut leaves: Vec<(u64, [u8; 64])> = counters.into_iter().collect();
                    match (case % 4, frontier) {
                        (0, _) => {}
                        (1, 1..) if !lines.is_empty() => {
                            let i = rng.next_below(lines.len() as u64) as usize;
                            lines[i].2[rng.next_below(64) as usize] ^= 1 << rng.next_below(8);
                        }
                        (2, 1..) => {
                            let level = rng.next_below(frontier as u64) as usize;
                            let groups = (Bmt::new(key, pages).expect("valid").levels[level].len()
                                / ARITY
                                + 2) as u64;
                            lines.push((level, rng.next_below(groups), line(&mut rng)));
                        }
                        _ => leaves.push((rng.next_below(pages), line(&mut rng))),
                    }
                    let mut rb = Bmt::rebuild(key, pages, frontier).expect("valid");
                    if frontier == 0 {
                        for (page, counter) in &leaves {
                            rb.set_leaf(*page, counter);
                        }
                    } else {
                        if case % 4 == 3 {
                            let (page, counter) = leaves[leaves.len() - 1];
                            rb.set_leaf(page, &counter);
                        }
                        for (level, group, payload) in &lines {
                            rb.install_node_line(*level, *group, payload);
                            if rng.next_below(4) == 0 {
                                // A replayed line changes nothing.
                                rb.install_node_line(*level, *group, payload);
                            }
                        }
                    }
                    let (want, want_hashes) = full_rebuild(rb.tree.clone());
                    let (got, got_hashes) = rb.finish();
                    let what = format!("{pages} pages, frontier {frontier}, case {case}");
                    assert_eq!(got_hashes, want_hashes, "{what}: hashes");
                    match (got, want) {
                        (Ok(got), Ok(want)) => {
                            assert_eq!(got.levels, want.levels, "{what}: levels");
                            assert_eq!(got.root(), want.root(), "{what}: root");
                            if case % 4 == 0 {
                                assert_eq!(got.root(), live.root(), "{what}: live root");
                            }
                            outcomes[usize::from(got.root() != live.root())] += 1;
                        }
                        (Err(got), Err(want)) => {
                            assert_eq!(got, want, "{what}: failing level");
                            outcomes[if got == 1 { 2 } else { 3 }] += 1;
                        }
                        (got, want) => panic!(
                            "{what}: verdicts differ: {:?} vs {:?}",
                            got.map(|t| t.root()),
                            want.map(|t| t.root())
                        ),
                    }
                }
            }
        }
        assert!(
            outcomes.iter().all(|&n| n >= 5),
            "every outcome exercised: {outcomes:?}"
        );
    }

    /// A clean rebuild reports the modeled cost of a full one even when
    /// nothing was installed.
    #[test]
    fn untouched_rebuild_is_the_fresh_tree_at_full_cost() {
        let key = [0x11; 16];
        for frontier in 0..=4 {
            let fresh = Bmt::with_frontier(key, 4096, frontier).expect("valid");
            let (want, want_hashes) = full_rebuild(fresh.clone());
            let (got, got_hashes) = Bmt::rebuild(key, 4096, frontier).expect("valid").finish();
            assert_eq!(got_hashes, want_hashes);
            assert_eq!(got.expect("clean").levels, want.expect("clean").levels);
            // Audits below the frontier plus the recompute above it
            // cover every inner node once.
            assert_eq!(got_hashes, 512 + 64 + 8 + 1, "frontier {frontier}");
        }
    }
}
