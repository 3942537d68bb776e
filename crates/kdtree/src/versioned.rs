//! The seqlock arena tree: one writer publishing in place, lock-free
//! optimistic readers.
//!
//! This is the crate's one bucketed KD-tree: a `semtree-dist` partition
//! *is* a [`TreeWriter`] (its actor writes it, every reader reads it),
//! and [`VersionedKdTree`] is the same tree with no remote links, grown
//! by inserts or built by its bulk and chain loads.
//!
//! - **Publish-once node arena with stable ids.** Nodes live in chunked
//!   write-once slots ([`std::sync::OnceLock`]); a node's id is its
//!   arena index for life (root = 0), so logged split records, snapshot
//!   images and cross-partition links keep naming the same node.
//! - **Append-only buckets.** A leaf owns a first block of
//!   `bucket_size + 1` point slots — coordinates and payloads as flat,
//!   write-once words, so a scan walks contiguous memory — plus a
//!   publish-once overflow link (unsplittable duplicates, replayed
//!   inserts whose split record is still to come, adopted over-full
//!   buckets). An insert fills one slot, then publishes it through the
//!   bucket's length word — nothing is cloned and nothing dies.
//! - **A bounding box per node.** A node's first block's coordinate
//!   words start with the box (`dims` lows, then `dims` highs) of the
//!   points stored below it over local edges: a leaf's bucket, a routing
//!   node's subtree. An insert widens its leaf's box, then each
//!   ancestor's up to the first that already holds the point; a remote
//!   edge opens every box above it, since the points behind it are
//!   another partition's. A walk skips a leaf, or a whole subtree,
//!   whose box lies no nearer than its cut, without reading a point.
//! - **Splits publish, they do not replace.** An over-full leaf becomes
//!   a routing node by publishing its routing part once, after both
//!   children are fully built, each from one read of the leaf's bucket.
//!   A leaf whose box is one point holds copies no plane divides, so it
//!   stays over-full and its bucket is not read. Each child edge is one
//!   atomic word holding `Local(node)` or `Remote{partition, node}`, so
//!   relinking a subtree to another partition is one release store.
//! - **A tree-level seqlock.** The writer brackets every mutation with
//!   `version += 1` (odd = in progress, even = quiescent). A reader
//!   snapshots the version, traverses without any lock, then validates
//!   the version is unchanged; on mismatch it retries and reports the
//!   retry count so the serving layer can surface contention.
//!
//! The words that mutate after publication are the version, a leaf's
//! length, a routing node's two child words, and a node's box words;
//! everything else is write-once. Why a validated read is never torn:
//! every mutable word but the box is stored with release ordering and
//! loaded with acquire ordering, and whatever it guards (a point's
//! words, a child node, a routing part) was fully written first. A
//! traversal that overlaps a writer transaction either saw only
//! pre-transaction words (the pre-state, and validation passes) or saw
//! at least one post-transaction word — whose acquire load also makes
//! the writer's *entry* store (`version = odd`) visible, so validation
//! fails and the read retries. Structural safety does not depend on
//! validation: an unpublished slot reads as `None` ("retry"), edges only
//! ever point at higher ids, and so any mix of old and new words is
//! acyclic and every walk ends.
//!
//! The box words are `Relaxed`, like a point's own words, because they
//! only ever widen and each widening is stored before the length that
//! publishes its point. A reader validated against version `v` acquired
//! `v` first, so every widening before `v` is visible to it: whatever
//! box it loads holds every point of state `v`, and a later widening
//! only makes it wider. A routing node's box widens in the same
//! transaction, before the same length store, and an opened box is one
//! more widening. Relink leaves the evicted leaf's box in place, empties
//! the leaf and opens the boxes above the new link. A box that is too
//! wide costs a scan or a descent, never an answer.
//!
//! All of this is safe Rust (the workspace denies `unsafe`), so nothing
//! is freed while the tree lives. What stays behind is bounded per
//! point and independent of how many inserts ran: the bucket of a leaf
//! that split or was evicted — `bucket_size + 1` slots per routing node,
//! one to two dead slots per live point — whose box lives on as the
//! routing node's. A node born routing carries its box alone, `2·dims`
//! words.
//!
//! The module is generic over the [`semtree_conc::shim::Shim`], so the
//! same code runs under real atomics in production and under the
//! deterministic model checker (`kdtree_read_split`,
//! `kdtree_read_duplicate_split`, `kdtree_read_widen`,
//! `kdtree_read_widen_up` and `partition_read_relink` in
//! `crates/conc/tests/models.rs`).

use std::cell::Cell;
use std::collections::BinaryHeap;
use std::iter::repeat_n;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};

pub use semtree_conc::shim::{Shim, StdShim};

use crate::search::{Neighbor, SearchStats};
use crate::tree::{choose_split, KdConfig, SplitRule};

/// Number of arena chunks. Chunk `c` holds `64 << c` slots, so 25
/// chunks cap the arena at ~2.1 billion nodes — below `2^31`, which
/// leaves a child word's tag bit free.
const MAX_CHUNKS: usize = 25;
/// Total slot capacity across all chunks.
const MAX_NODES: u64 = 64 * ((1 << MAX_CHUNKS as u64) - 1);

/// `(chunk, offset)` of arena index `idx`.
fn locate(idx: u32) -> (usize, usize) {
    let q = idx / 64 + 1;
    let chunk = (31 - q.leading_zeros()) as usize;
    let base = 64 * ((1u32 << chunk) - 1);
    (chunk, (idx - base) as usize)
}

fn chunk_capacity(chunk: usize) -> usize {
    64 << chunk
}

/// A child edge: a node of this arena, or the root of a sub-tree hosted
/// by another partition (the paper's *direct link*).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Child {
    /// Arena index in this tree.
    Local(u32),
    /// `node` in the arena of `partition`.
    Remote {
        /// Hosting partition.
        partition: u32,
        /// Arena index there.
        node: u32,
    },
}

impl Child {
    /// One atomic word: partition high, `node << 1 | is_remote` low.
    /// `None` for a node id the arena cannot hold (corrupt input only).
    fn pack(self) -> Option<u64> {
        let (partition, node, tag) = match self {
            Child::Local(node) => (0, node, 0),
            Child::Remote { partition, node } => (partition, node, 1),
        };
        (u64::from(node) < MAX_NODES)
            .then_some(u64::from(partition) << 32 | u64::from(node) << 1 | tag)
    }

    fn unpack(word: u64) -> Self {
        #[allow(clippy::cast_possible_truncation)]
        let node = (word as u32) >> 1;
        if word & 1 == 0 {
            Child::Local(node)
        } else {
            Child::Remote {
                partition: (word >> 32) as u32,
                node,
            }
        }
    }
}

/// A run of point slots plus the overflow link. Coordinates (`f64`
/// bits, row-major, `dims` words per slot) and payloads are plain words,
/// so a leaf scan walks contiguous memory. A node's first block starts
/// its coordinate words with the node's bounding box — `dims` lows, then
/// `dims` highs — so a leaf's box test reads the lines a scan reads
/// first; a node born routing has a first block of the box alone. A
/// slot's word is written once and a box word only ever widens, both
/// before the leaf's length covers the point; the length's
/// release/acquire pair is what publishes them, hence `Relaxed` here.
struct Block {
    coords: Box<[AtomicU64]>,
    payloads: Box<[AtomicU64]>,
    next: OnceLock<Box<Block>>,
}

impl Block {
    /// `slots` zeroed slots; with `boxed`, behind an empty bounding box
    /// (lows `+∞`, highs `−∞`).
    fn with_capacity(slots: usize, dims: usize, boxed: bool) -> Self {
        let bound = |b: f64| std::iter::repeat_n(b.to_bits(), if boxed { dims } else { 0 });
        let head = bound(f64::INFINITY).chain(bound(f64::NEG_INFINITY));
        let words = head.chain(std::iter::repeat_n(0, slots * dims));
        Block {
            coords: words.map(AtomicU64::new).collect(),
            payloads: (0..slots).map(|_| AtomicU64::new(0)).collect(),
            next: OnceLock::new(),
        }
    }

    /// The box words ahead of slot 0 (none but in a node's first block),
    /// and the slots' coordinate words.
    fn rows(&self, dims: usize) -> (&[AtomicU64], &[AtomicU64]) {
        self.coords
            .split_at(self.coords.len() - self.payloads.len() * dims)
    }

    /// Fill slot `at` (writer only, before the length covers it).
    fn write(&self, at: usize, point: &[f64], payload: u64) {
        let row = &self.rows(point.len()).1[at * point.len()..][..point.len()];
        for (word, c) in row.iter().zip(point) {
            word.store(c.to_bits(), Relaxed);
        }
        self.payloads[at].store(payload, Relaxed);
    }
}

struct Routing<S: Shim> {
    split_dim: usize,
    split_val: f64,
    /// `[left, right]` packed [`Child`] words — the only mutable part.
    children: [S::AtomicU64; 2],
}

/// One arena node: a leaf until its routing part is published.
pub struct Node<S: Shim = StdShim> {
    depth: u32,
    parent: Option<(u32, bool)>,
    /// Coordinates per point.
    dims: usize,
    /// Published points in `bucket`; stored (release) after the slot.
    len: S::AtomicU64,
    bucket: Block,
    routing: OnceLock<Routing<S>>,
}

/// A routing node's fields as read at one instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutingView {
    /// Split dimension `Sr`.
    pub split_dim: usize,
    /// Split value `Sv`; points with `coords[Sr] <= Sv` go left.
    pub split_val: f64,
    /// Left child edge.
    pub left: Child,
    /// Right child edge.
    pub right: Child,
}

impl<S: Shim> Node<S> {
    /// *Global* depth of this node (the root partition's root = 0), so
    /// the split-dimension cycle stays aligned across partitions.
    #[must_use]
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// `(parent, is_left_child)`; `None` for the arena root.
    #[must_use]
    pub fn parent(&self) -> Option<(u32, bool)> {
        self.parent
    }

    /// The routing fields (children loaded with acquire), or `None`
    /// while this node is a leaf.
    #[must_use]
    pub fn routing(&self) -> Option<RoutingView> {
        let r = self.routing.get()?;
        Some(RoutingView {
            split_dim: r.split_dim,
            split_val: r.split_val,
            left: Child::unpack(S::load_acquire(&r.children[0])),
            right: Child::unpack(S::load_acquire(&r.children[1])),
        })
    }

    /// Points in this leaf's bucket (0 once it split or was evicted).
    #[must_use]
    pub fn point_count(&self) -> usize {
        if self.routing.get().is_some() {
            return 0;
        }
        S::load_acquire(&self.len) as usize
    }

    /// The bucket copied out, in insertion order (complete for the
    /// writer, which cannot race itself).
    #[must_use]
    pub fn bucket(&self) -> Vec<(Vec<f64>, u64)> {
        let (coords, payloads) = self.read_out();
        let rows = coords.chunks_exact(self.dims).map(<[f64]>::to_vec);
        rows.zip(payloads).collect()
    }

    /// The bucket read out in one scan: every point's coordinates, row
    /// after row (`dims` per point), and the payloads, in insertion order
    /// (complete for the writer).
    fn read_out(&self) -> (Vec<f64>, Vec<u64>) {
        let count = self.point_count();
        let mut coords = Vec::with_capacity(count * self.dims);
        let mut payloads = Vec::with_capacity(count);
        let _ = self.scan(|words, payload| {
            coords.extend(words.iter().map(|w| f64::from_bits(w.load(Relaxed))));
            payloads.push(payload.load(Relaxed));
        });
        (coords, payloads)
    }

    /// Visit the bucket's slots in insertion order, in place: a slot's
    /// coordinate words and its payload word. Returns how many were
    /// visited; `None` when the overflow link the length promises is not
    /// published yet — a writer race, never absence.
    fn scan(&self, mut visit: impl FnMut(&[AtomicU64], &AtomicU64)) -> Option<usize> {
        let count = self.point_count();
        let mut left = count;
        let mut block = &self.bucket;
        loop {
            let slots = block
                .rows(self.dims)
                .1
                .chunks_exact(self.dims)
                .zip(&block.payloads[..]);
            for (words, payload) in slots.take(left) {
                visit(words, payload);
            }
            left = left.saturating_sub(block.payloads.len());
            if left == 0 {
                return Some(count);
            }
            block = block.next.get()?;
        }
    }

    /// The box of every point stored below this node over local edges,
    /// as `(lows, highs)` words; open (`−∞`, `+∞`) once a remote edge
    /// lies below it.
    fn bbox(&self) -> (&[AtomicU64], &[AtomicU64]) {
        let words = self.bucket.rows(self.dims).0;
        words.split_at(words.len() / 2)
    }

    /// Whether the box is one point: `low == high` in every dimension. A
    /// leaf's box is the componentwise min and max of its own points (an
    /// opened box is a routing node's), so for a leaf holding points this
    /// is exactly "every dimension is constant", when no plane divides
    /// the bucket.
    fn is_one_point(&self) -> bool {
        let (lows, highs) = self.bbox();
        let bound = |w: &AtomicU64| f64::from_bits(w.load(Relaxed));
        lows.iter()
            .zip(highs)
            .all(|(lo, hi)| bound(lo) == bound(hi))
    }

    /// The box as `(lows, highs)`.
    #[cfg(test)]
    fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
        let read = |words: &[AtomicU64]| {
            let bound = |w: &AtomicU64| f64::from_bits(w.load(Relaxed));
            words.iter().map(bound).collect()
        };
        let (lows, highs) = self.bbox();
        (read(lows), read(highs))
    }

    /// Widen the box to hold the box `[lows, highs]` (writer only, before
    /// the length covers a point it adds); `false` when it already did.
    fn widen(&self, lows: impl Iterator<Item = f64>, highs: impl Iterator<Item = f64>) -> bool {
        let (lo_words, hi_words) = self.bbox();
        let mut wider = false;
        for (word, lo) in lo_words.iter().zip(lows) {
            if lo < f64::from_bits(word.load(Relaxed)) {
                word.store(lo.to_bits(), Relaxed);
                wider = true;
            }
        }
        for (word, hi) in hi_words.iter().zip(highs) {
            if hi > f64::from_bits(word.load(Relaxed)) {
                word.store(hi.to_bits(), Relaxed);
                wider = true;
            }
        }
        wider
    }

    /// `Σ gap_d²` in dimension order, `gap_d` the distance from `point`
    /// to the box along `d` (0 inside it): at most the `sq` of every
    /// point the box holds (DESIGN §14).
    fn box_sq(&self, point: &[f64]) -> f64 {
        let (lows, highs) = self.bbox();
        let term = |((lo, hi), &q): ((&AtomicU64, &AtomicU64), &f64)| {
            let lo = f64::from_bits(lo.load(Relaxed));
            let hi = f64::from_bits(hi.load(Relaxed));
            let gap = if q < lo {
                lo - q
            } else if q > hi {
                q - hi
            } else {
                0.0
            };
            gap * gap
        };
        lows.iter().zip(highs).zip(point).map(term).sum()
    }
}

/// One leaf split, in the exact form the WAL logs it: the leaf that
/// became a routing node, the chosen plane, and the arena ids handed to
/// the two children. Replay re-applies the event verbatim instead of
/// re-deriving the split, so a recovered arena is id-for-id identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitEvent {
    /// The leaf that split.
    pub leaf: u32,
    /// Chosen split dimension.
    pub split_dim: usize,
    /// Chosen split value.
    pub split_val: f64,
    /// Arena id of the new left child.
    pub left: u32,
    /// Arena id of the new right child.
    pub right: u32,
}

/// Search hits: `(distance, payload)` pairs.
type Hits = Vec<(f64, u64)>;

/// Every remote operation a traversal may need when it reaches a
/// [`Child::Remote`] edge. `semtree-dist` implements it over its
/// partitions, in place or by message; a reader of trees in one process
/// passes [`InPlace`]. Each operation can fail, and the failure ends the
/// traversal.
pub trait RemoteOps {
    /// Why a crossing failed.
    type Error;
    /// Forward an insert to the sub-tree at `node` of `partition`.
    fn insert(
        &self,
        partition: u32,
        node: u32,
        point: &[f64],
        payload: u64,
    ) -> Result<(), Self::Error>;
    /// k-NN below `node` of `partition`, pruned by the current `worst`.
    fn knn(
        &self,
        partition: u32,
        node: u32,
        point: &[f64],
        k: usize,
        worst: Option<f64>,
    ) -> Result<Vec<(f64, u64)>, Self::Error>;
    /// Range search below `node` of `partition`.
    fn range(
        &self,
        partition: u32,
        node: u32,
        point: &[f64],
        radius: f64,
    ) -> Result<Vec<(f64, u64)>, Self::Error>;
    /// Both children of a border node at once (§III-B.4: "the
    /// navigation is performed in a parallel way"); one after the other
    /// unless the implementor can do better.
    fn range_parallel(
        &self,
        [(lp, ln), (rp, rn)]: [(u32, u32); 2],
        point: &[f64],
        radius: f64,
    ) -> Result<[Vec<(f64, u64)>; 2], Self::Error> {
        let left = self.range(lp, ln, point, radius)?;
        Ok([left, self.range(rp, rn, point, radius)?])
    }
}

/// Why a lock-free walk stopped at a [`Child::Remote`] edge: the target
/// partition's tree is not readable from here — another process hosts it
/// — so the operation has to go through the owning partition's mailbox.
/// Inserts always do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NeedsMailbox;

/// The [`RemoteOps`] of a lock-free reader: a crossing runs the sub-walk
/// the target partition's actor would run, in place, on the tree `lookup`
/// finds for that partition, under that tree's own validated
/// [`Tree::read`], and hands the candidates back for the same merge.
/// Each partition is validated against its own version word; nothing
/// validates two partitions together, which is the mailbox path's
/// contract too (its sub-walks run at different times on different
/// actors). A partition `lookup` does not know is refused with
/// [`NeedsMailbox`]; with a lookup that knows none, every crossing is.
///
/// One value serves one read: it sums the retries of every validation
/// and counts the crossings made.
pub struct InPlace<S: Shim, L> {
    lookup: L,
    /// Failed validations allowed per partition entry before it is
    /// refused; `None` retries until one validates.
    attempts: Option<u64>,
    retries: Cell<u64>,
    crossed: Cell<u64>,
    shim: PhantomData<fn() -> S>,
}

impl<S: Shim> InPlace<S, fn(u32) -> Option<Arc<Tree<S>>>> {
    /// The reader of a tree with nothing behind its remote links.
    #[must_use]
    pub fn nowhere() -> Self {
        InPlace::new(|_| None)
    }
}

impl<S: Shim, L: Fn(u32) -> Option<Arc<Tree<S>>>> InPlace<S, L> {
    /// A reader that crosses into every partition `lookup` finds.
    pub fn new(lookup: L) -> Self {
        InPlace {
            lookup,
            attempts: None,
            retries: Cell::new(0),
            crossed: Cell::new(0),
            shim: PhantomData,
        }
    }

    /// Give up on a partition — as if it were not found — after
    /// `attempts` failed validations. The form the bounded model checker
    /// drives (see [`Tree::read_bounded`]).
    #[must_use]
    pub fn bounded(mut self, attempts: u64) -> Self {
        self.attempts = Some(attempts);
        self
    }

    /// Writer races lost so far, over every partition entered.
    pub fn retries(&self) -> u64 {
        self.retries.get()
    }

    /// [`Child::Remote`] edges followed in place, to a validated answer
    /// from the other side, so far.
    pub fn crossed(&self) -> u64 {
        self.crossed.get()
    }

    /// One validated `walk` over `partition`'s tree: how a lock-free read
    /// starts (at the root partition) and how each of its crossings
    /// continues. Refused when the partition is not readable here, or
    /// `node` or `point` do not fit its tree (the mailbox path reports
    /// those); otherwise the walk's outcome, whatever a crossing inside
    /// it failed with included.
    ///
    /// # Errors
    /// [`NeedsMailbox`]: the refusal.
    pub fn enter<T, E>(
        &self,
        (partition, node): (u32, u32),
        point: &[f64],
        walk: impl Fn(&Tree<S>) -> Option<Result<T, E>>,
    ) -> Result<Result<T, E>, NeedsMailbox> {
        let tree = (self.lookup)(partition).ok_or(NeedsMailbox)?;
        if point.len() != tree.config.dims() || node >= tree.nodes() {
            return Err(NeedsMailbox);
        }
        let (answer, stats) = match self.attempts {
            None => tree.read(&walk),
            Some(attempts) => tree.read_bounded(attempts, &walk).ok_or(NeedsMailbox)?,
        };
        self.retries.set(self.retries.get() + stats.retries);
        Ok(answer)
    }
}

impl<S: Shim, L: Fn(u32) -> Option<Arc<Tree<S>>>> RemoteOps for InPlace<S, L> {
    type Error = NeedsMailbox;
    fn insert(&self, _: u32, _: u32, _: &[f64], _: u64) -> Result<(), NeedsMailbox> {
        Err(NeedsMailbox)
    }
    fn knn(
        &self,
        partition: u32,
        node: u32,
        point: &[f64],
        k: usize,
        worst: Option<f64>,
    ) -> Result<Vec<(f64, u64)>, NeedsMailbox> {
        let walk = |tree: &Tree<S>| tree.knn(node, point, k, worst, self);
        let hits = self.enter((partition, node), point, walk)??;
        self.crossed.set(self.crossed.get() + 1);
        Ok(hits)
    }
    fn range(
        &self,
        partition: u32,
        node: u32,
        point: &[f64],
        radius: f64,
    ) -> Result<Vec<(f64, u64)>, NeedsMailbox> {
        let walk = |tree: &Tree<S>| tree.range(node, point, radius, self);
        let hits = self.enter((partition, node), point, walk)??;
        self.crossed.set(self.crossed.get() + 1);
        Ok(hits)
    }
}

/// Squared distance from a slot's coordinate words to `point`, summed in
/// dimension order exactly as `euclidean_sq` sums it, so its `sqrt` is
/// `euclidean`'s distance bit for bit.
fn sq_dist(words: &[AtomicU64], point: &[f64]) -> f64 {
    let term = |(w, q): (&AtomicU64, &f64)| {
        let d = f64::from_bits(w.load(Relaxed)) - q;
        d * d
    };
    words.iter().zip(point).map(term).sum()
}

/// The smallest `s` with `s.sqrt() >= bound`. `sqrt` is monotone, so a
/// squared distance `sq` has `sq.sqrt() >= bound` exactly when
/// `sq >= cut`, and a walk rejects it without a `sqrt`. NaN — which
/// rejects nothing — when `bound` is NaN or infinite.
fn sq_cut(bound: f64) -> f64 {
    if bound.is_nan() || bound == f64::INFINITY {
        return f64::NAN;
    }
    if bound <= 0.0 {
        return 0.0;
    }
    // Non-negative doubles order like their bits: ±1 is one ulp.
    let up = |s: f64| f64::from_bits(s.to_bits() + 1);
    let down = |s: f64| f64::from_bits(s.to_bits() - 1);
    let mut s = bound * bound;
    while s.sqrt() < bound {
        s = up(s);
    }
    while s > 0.0 && down(s).sqrt() >= bound {
        s = down(s);
    }
    s
}

/// Result-set state for a k-nearest traversal: bounded max-heap plus the
/// caller's pruning hint (the paper's `D`, "the distance between the
/// interested point and the most distant one in the result-set"). On a
/// distance tie the first-seen candidate stays.
struct KnnState {
    k: usize,
    hint: Option<f64>,
    heap: BinaryHeap<Candidate>,
    /// [`sq_cut`] of [`KnnState::bound`] (NaN while there is none): a
    /// squared distance `>= cut` is one [`KnnState::offer`] would refuse.
    cut: f64,
}

struct Candidate {
    dist: f64,
    payload: u64,
}
impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}
impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.dist.total_cmp(&other.dist)
    }
}

impl KnnState {
    fn new(k: usize, hint: Option<f64>) -> Self {
        KnnState {
            k,
            hint,
            heap: BinaryHeap::with_capacity(k.min(64)),
            cut: hint.map_or(f64::NAN, sq_cut),
        }
    }

    /// Offer a candidate; ignored when it cannot improve the global
    /// result. Only an accepted one can move the bound, so only it
    /// recomputes `cut`.
    fn offer(&mut self, dist: f64, payload: u64) {
        if self.hint.is_some_and(|h| dist >= h) {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(Candidate { dist, payload });
        } else if self.heap.peek().is_some_and(|top| dist < top.dist) {
            self.heap.pop();
            self.heap.push(Candidate { dist, payload });
        } else {
            return;
        }
        self.cut = self.bound().map_or(f64::NAN, sq_cut);
    }

    /// Upper bound on a useful candidate distance, `None` when any point
    /// could still qualify (`|Rs| < K` with no hint).
    fn bound(&self) -> Option<f64> {
        let own = (self.heap.len() >= self.k)
            .then(|| self.heap.peek().map(|c| c.dist))
            .flatten();
        match (own, self.hint) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, h) => h,
        }
    }

    /// The paper's descend condition: result set not full, or the
    /// splitting hyperplane closer than the current worst.
    fn must_descend(&self, plane_dist: f64) -> bool {
        self.bound().is_none_or(|b| plane_dist < b)
    }

    /// Drain into ascending-distance candidates.
    fn into_candidates(self) -> Vec<(f64, u64)> {
        let mut v: Vec<(f64, u64)> = self.heap.into_iter().map(|c| (c.dist, c.payload)).collect();
        v.sort_by(|a, b| a.0.total_cmp(&b.0));
        v
    }
}

/// How many failed validations spin (with doubling pause windows)
/// before the reader starts yielding its timeslice between attempts.
const SPIN_RETRIES: u64 = 6;

/// Bounded spin-then-yield backoff for the optimistic-read retry loop.
fn backoff(retries: u64) {
    if retries <= SPIN_RETRIES {
        // 2, 4, ... 64 pause hints: cheap enough to win when the writer
        // publishes within its own timeslice.
        for _ in 0..(1u32 << retries.min(SPIN_RETRIES)) {
            std::hint::spin_loop();
        }
    } else {
        // Persistent conflict: get off the CPU so the writer (or the
        // scheduler) can make progress before the next full traversal.
        std::thread::yield_now();
    }
}

/// Retry accounting for one optimistic read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadStats {
    /// The (even) version the result was validated against.
    pub version: u64,
    /// Attempts that had to be discarded before the validated one.
    pub retries: u64,
}

/// One lazily-allocated arena chunk: a block of publish-once node slots.
type NodeChunk<S> = Box<[OnceLock<Node<S>>]>;

/// The shared tree. Mutated only through its unique [`TreeWriter`];
/// everyone else holds an `Arc<Tree>` and reads — validated through
/// [`Tree::read`] when a writer may be running.
pub struct Tree<S: Shim = StdShim> {
    config: KdConfig,
    /// Tree-level seqlock: odd while a writer transaction is open.
    version: S::AtomicU64,
    /// Published nodes (written by the single writer only).
    next: S::AtomicU64,
    chunks: Box<[OnceLock<NodeChunk<S>>]>,
}

/// An open writer transaction: readers observe the version as odd and
/// retry until it is dropped.
struct Txn<'t, S: Shim> {
    tree: &'t Tree<S>,
    entry_version: u64,
}

impl<S: Shim> Drop for Txn<'_, S> {
    fn drop(&mut self) {
        // Close the seqlock: odd → next even. Everything stored inside
        // the transaction happens-before this release store.
        S::store_release(&self.tree.version, self.entry_version + 1);
    }
}

impl<S: Shim> Tree<S> {
    /// Dimensions, bucket size and split rule of this tree.
    #[must_use]
    pub fn config(&self) -> &KdConfig {
        &self.config
    }

    /// Published arena nodes: live leaves and routing nodes, plus the
    /// leaves a relink left unreachable.
    #[must_use]
    pub fn nodes(&self) -> u32 {
        #[allow(clippy::cast_possible_truncation)]
        let nodes = S::load_acquire(&self.next) as u32;
        nodes
    }

    /// The node at `idx`, or `None` when the slot is not (yet)
    /// published — for a racing reader "retry", never absence.
    #[must_use]
    pub fn node(&self, idx: u32) -> Option<&Node<S>> {
        let (chunk, offset) = locate(idx);
        self.chunks.get(chunk)?.get()?.get(offset)?.get()
    }

    /// Run `attempt` until it returns a value that validates against an
    /// unchanged version. `attempt` must return `None` when it observes
    /// an unpublished slot (writer race); the loop retries in both
    /// cases and reports how often.
    ///
    /// Failed validations back off before retrying: the first few
    /// retries spin (the writer transaction is usually a handful of
    /// stores), then the reader yields its timeslice. Without the yield
    /// a reader that lost the race keeps re-running full traversals
    /// against the same open transaction — on a loaded or single-core
    /// host that starves the very writer it is waiting on and the retry
    /// counter climbs by millions per second.
    pub fn read<R>(&self, mut attempt: impl FnMut(&Self) -> Option<R>) -> (R, ReadStats) {
        let mut retries = 0u64;
        loop {
            if let Some((value, version)) = self.read_once(&mut attempt) {
                return (value, ReadStats { version, retries });
            }
            retries = retries.saturating_add(1);
            backoff(retries);
        }
    }

    /// Like [`Tree::read`] but gives up after `attempts` failed
    /// validations instead of spinning — the form the bounded model
    /// checker drives, where an unbounded retry loop would be an
    /// unbounded schedule.
    pub fn read_bounded<R>(
        &self,
        attempts: u64,
        mut attempt: impl FnMut(&Self) -> Option<R>,
    ) -> Option<(R, ReadStats)> {
        (0..attempts).find_map(|retries| {
            let (value, version) = self.read_once(&mut attempt)?;
            Some((value, ReadStats { version, retries }))
        })
    }

    fn read_once<R>(&self, attempt: &mut impl FnMut(&Self) -> Option<R>) -> Option<(R, u64)> {
        let v1 = S::load_acquire(&self.version);
        if v1 & 1 == 1 {
            return None; // writer transaction open
        }
        let value = attempt(self)?;
        (S::load_acquire(&self.version) == v1).then_some((value, v1))
    }

    /// Every node reachable from `self`'s root over local edges: what a
    /// partition holds, without the leaves a relink left behind.
    #[must_use]
    pub fn reachable(&self) -> Vec<(u32, &Node<S>)> {
        let mut out = Vec::new();
        let mut stack = vec![0];
        while let Some(id) = stack.pop() {
            let Some(node) = self.node(id) else { continue };
            out.push((id, node));
            if let Some(r) = node.routing() {
                for child in [r.left, r.right] {
                    if let Child::Local(next) = child {
                        stack.push(next);
                    }
                }
            }
        }
        out
    }

    /// The one k-NN walk (§III-B.3): the `k` candidates nearest `point`
    /// below `start`, ascending, pruned by the caller's `worst` when
    /// given. Outer `None`: an unpublished slot (or an unknown `start`)
    /// — a racing reader retries. `Some(Err(_))`: a remote child the
    /// walk had to enter failed or was refused.
    pub fn knn<R: RemoteOps>(
        &self,
        start: u32,
        point: &[f64],
        k: usize,
        worst: Option<f64>,
        remote: &R,
    ) -> Option<Result<Hits, R::Error>> {
        self.knn_counted(start, point, k, worst, remote, &mut SearchStats::default())
    }

    /// [`Tree::knn`], adding the nodes of this arena it enters and the
    /// points it scans to `stats`.
    pub(crate) fn knn_counted<R: RemoteOps>(
        &self,
        start: u32,
        point: &[f64],
        k: usize,
        worst: Option<f64>,
        remote: &R,
        stats: &mut SearchStats,
    ) -> Option<Result<Hits, R::Error>> {
        if k == 0 {
            // Nothing can enter the result, so nothing is walked: with no
            // bound every cell would be entered and every point scanned.
            return Some(Ok(Vec::new()));
        }
        let mut state = KnnState::new(k, worst);
        // Explicit stack: the far-side descend condition is evaluated only
        // after the near side finished (classic backtracking), and deep
        // chain partitions cannot overflow the call stack.
        enum Task {
            Visit(Child),
            /// A routing node's far side and `point`'s distance to the
            /// routing node's plane.
            CheckFar(Child, f64),
        }
        let mut stack = Vec::with_capacity(64);
        stack.push(Task::Visit(Child::Local(start)));
        while let Some(task) = stack.pop() {
            let child = match task {
                Task::Visit(child) => child,
                Task::CheckFar(far, gap) if state.must_descend(gap) => far,
                Task::CheckFar(..) => continue,
            };
            let node = match child {
                Child::Remote { partition, node } => {
                    // Cross the border: ship the query and the current
                    // worst distance, merge the partial result set back.
                    match remote.knn(partition, node, point, state.k, state.bound()) {
                        Ok(hits) => hits.into_iter().for_each(|(d, p)| state.offer(d, p)),
                        Err(e) => return Some(Err(e)),
                    }
                    continue;
                }
                Child::Local(id) => self.node(id)?,
            };
            stats.nodes_visited += 1;
            let routing = node.routing();
            if node.box_sq(point) >= state.cut {
                stats.skipped(routing.is_some());
                continue; // every `sq` below is at least the cut
            }
            match routing {
                None => {
                    stats.distance_evals += node.scan(|words, payload| {
                        let sq = sq_dist(words, point);
                        if sq >= state.cut {
                            return; // `sq.sqrt()` is at least the bound
                        }
                        state.offer(sq.sqrt(), payload.load(Relaxed));
                    })?;
                }
                Some(r) => {
                    let delta = point[r.split_dim] - r.split_val;
                    let (near, far) = if delta <= 0.0 {
                        (r.left, r.right)
                    } else {
                        (r.right, r.left)
                    };
                    stack.push(Task::CheckFar(far, delta.abs()));
                    stack.push(Task::Visit(near));
                }
            }
        }
        Some(Ok(state.into_candidates()))
    }

    /// The one range walk (§III-B.4) from `start`: both children are
    /// descended whenever `|P[Sr] − Sv| <= D`, in parallel when both are
    /// remote. Hits come back in traversal order; outcome as for
    /// [`Tree::knn`].
    pub fn range<R: RemoteOps>(
        &self,
        start: u32,
        point: &[f64],
        radius: f64,
        remote: &R,
    ) -> Option<Result<Hits, R::Error>> {
        self.range_counted(start, point, radius, remote, &mut SearchStats::default())
    }

    /// [`Tree::range`], counting as [`Tree::knn_counted`] does.
    pub(crate) fn range_counted<R: RemoteOps>(
        &self,
        start: u32,
        point: &[f64],
        radius: f64,
        remote: &R,
        stats: &mut SearchStats,
    ) -> Option<Result<Hits, R::Error>> {
        let mut out = Vec::new();
        // A point is out when `sqrt(sq) > radius`, i.e. `>=` the next
        // double up, so `sq >= cut` rejects it before its `sqrt`. The
        // `d <= radius` below still decides, so the cut only has to be
        // sound: it is for a negative, NaN or infinite radius too.
        let cut = sq_cut(f64::from_bits(radius.abs().to_bits() + 1));
        let mut stack = vec![Child::Local(start)];
        while let Some(child) = stack.pop() {
            let node = match child {
                Child::Remote { partition, node } => {
                    match remote.range(partition, node, point, radius) {
                        Ok(hits) => out.extend(hits),
                        Err(e) => return Some(Err(e)),
                    }
                    continue;
                }
                Child::Local(id) => self.node(id)?,
            };
            stats.nodes_visited += 1;
            let routing = node.routing();
            if node.box_sq(point) >= cut {
                stats.skipped(routing.is_some());
                continue;
            }
            let Some(r) = routing else {
                stats.distance_evals += node.scan(|words, payload| {
                    let sq = sq_dist(words, point);
                    if sq >= cut {
                        return;
                    }
                    let d = sq.sqrt();
                    if d <= radius {
                        out.push((d, payload.load(Relaxed)));
                    }
                })?;
                continue;
            };
            let delta = point[r.split_dim] - r.split_val;
            if delta.abs() > radius {
                stack.push(if delta <= 0.0 { r.left } else { r.right });
            } else if let (
                Child::Remote {
                    partition: lp,
                    node: ln,
                },
                Child::Remote {
                    partition: rp,
                    node: rn,
                },
            ) = (r.left, r.right)
            {
                // Border case with both children remote: search the two
                // partitions in parallel and merge.
                match remote.range_parallel([(lp, ln), (rp, rn)], point, radius) {
                    Ok([l, r]) => {
                        out.extend(l);
                        out.extend(r);
                    }
                    Err(e) => return Some(Err(e)),
                }
            } else {
                stack.push(r.left);
                stack.push(r.right);
            }
        }
        Some(Ok(out))
    }

    /// Walk from `start` to the leaf that owns `point`, or to the remote
    /// child the point must be forwarded to — the insert's descent, which
    /// a lock-free reader runs too (under [`Tree::read`]) to route an
    /// insert to the partition that stores it. Outer `None`: an
    /// unpublished slot, as for [`Tree::knn`].
    pub fn navigate(&self, start: u32, point: &[f64]) -> Option<Child> {
        let mut at = start;
        loop {
            let Some(r) = self.node(at)?.routing() else {
                return Some(Child::Local(at));
            };
            let child = if point[r.split_dim] <= r.split_val {
                r.left
            } else {
                r.right
            };
            match child {
                Child::Local(next) => at = next,
                Child::Remote { .. } => return Some(child),
            }
        }
    }

    // Writer-only from here on: reached through `TreeWriter`'s `&mut
    // self` methods, inside a transaction once a reader can exist.

    fn begin(&self) -> Txn<'_, S> {
        let v = S::load(&self.version);
        S::store_release(&self.version, v | 1);
        Txn {
            tree: self,
            entry_version: v | 1,
        }
    }

    /// Whether `point` is one the tree can store: of its dimensionality,
    /// every coordinate finite.
    fn fits(&self, point: &[f64]) -> bool {
        point.len() == self.config.dims() && point.iter().all(|c| c.is_finite())
    }

    /// Publish a node in the next arena slot; `None` when the arena is
    /// exhausted or a point does not [fit](Tree::fits). Its box is the
    /// bounding box of `points`, widened as each is written — empty for a
    /// node born routing, which gets the box and no point slots — and its
    /// ancestors' boxes widen to it.
    fn push<'p>(
        &self,
        depth: u32,
        parent: Option<(u32, bool)>,
        points: impl ExactSizeIterator<Item = (&'p [f64], u64)> + Clone,
        routing: Option<Routing<S>>,
    ) -> Option<u32> {
        let idx = S::load(&self.next);
        let dims = self.config.dims();
        if idx >= MAX_NODES || !points.clone().all(|(c, _)| self.fits(c)) {
            return None;
        }
        let slots = match routing {
            Some(_) => 0,
            None => points.len().max(self.config.bucket_size() + 1),
        };
        let node = Node {
            depth,
            parent,
            dims,
            len: S::atomic_u64(points.len() as u64),
            bucket: Block::with_capacity(slots, dims, true),
            routing: routing.map_or_else(OnceLock::new, OnceLock::from),
        };
        for (at, (coords, payload)) in points.enumerate() {
            node.bucket.write(at, coords, payload);
            node.widen(coords.iter().copied(), coords.iter().copied());
        }
        #[allow(clippy::cast_possible_truncation)]
        let idx32 = idx as u32;
        let (chunk, offset) = locate(idx32);
        let slot = self.chunks.get(chunk)?.get_or_init(|| {
            (0..chunk_capacity(chunk))
                .map(|_| OnceLock::new())
                .collect()
        });
        // `set` fails only if the slot was already published, which a
        // single writer never does; treat it as exhaustion rather than
        // corrupting the arena.
        let slot = slot.get(offset)?;
        slot.set(node).ok()?;
        S::store_release(&self.next, idx + 1);
        let (lows, highs) = slot.get()?.bbox();
        let bound = |w: &AtomicU64| f64::from_bits(w.load(Relaxed));
        let up = parent.map(|(up, _)| up);
        self.widen_up(up, lows.iter().map(bound), highs.iter().map(bound));
        Some(idx32)
    }

    /// Widen the box of `at`, then of each ancestor, to hold `[lows,
    /// highs]`, up to the first that already holds it: that node's box
    /// holds its own box, and so do its ancestors'.
    fn widen_up(
        &self,
        mut at: Option<u32>,
        lows: impl Iterator<Item = f64> + Clone,
        highs: impl Iterator<Item = f64> + Clone,
    ) {
        while let Some(node) = at.and_then(|id| self.node(id)) {
            if !node.widen(lows.clone(), highs.clone()) {
                return;
            }
            at = node.parent.map(|(up, _)| up);
        }
    }

    /// Open the box of `at` and of each ancestor: a remote edge lies
    /// below them, whose points a box here cannot hold.
    fn open_up(&self, at: u32) {
        let dims = self.config.dims();
        let (lows, highs) = (f64::NEG_INFINITY, f64::INFINITY);
        self.widen_up(Some(at), repeat_n(lows, dims), repeat_n(highs, dims));
    }

    /// Publish one point in `leaf`'s next free slot and widen the boxes
    /// of the leaf and its ancestors to it, then its length.
    fn append(&self, leaf: u32, point: &[f64], payload: u64) -> Option<()> {
        let node = self.node(leaf).filter(|_| self.fits(point))?;
        let len = S::load(&node.len);
        let (mut block, mut at) = (&node.bucket, len as usize);
        while at >= block.payloads.len() {
            at -= block.payloads.len();
            let grow = || {
                Box::new(Block::with_capacity(
                    self.config.bucket_size() + 1,
                    node.dims,
                    false,
                ))
            };
            block = block.next.get_or_init(grow);
        }
        block.write(at, point, payload);
        let coords = point.iter().copied();
        self.widen_up(Some(leaf), coords.clone(), coords);
        S::store_release(&node.len, len + 1);
        Some(())
    }

    /// Turn leaf `node` into a routing node over two published children.
    fn set_routing(
        &self,
        node: u32,
        split_dim: usize,
        split_val: f64,
        children: [Child; 2],
    ) -> bool {
        match (self.node(node), new_routing(split_dim, split_val, children)) {
            (Some(node), Some(routing)) => node.routing.set(routing).is_ok(),
            _ => false,
        }
    }

    /// Store one child word of routing node `parent` (release); a
    /// remote child opens the boxes of `parent` and its ancestors.
    fn set_child(&self, parent: u32, left_side: bool, child: Child) -> bool {
        let routing = self.node(parent).and_then(|n| n.routing.get());
        let (Some(routing), Some(word)) = (routing, child.pack()) else {
            return false;
        };
        if let Child::Remote { .. } = child {
            self.open_up(parent);
        }
        S::store_release(&routing.children[usize::from(!left_side)], word);
        true
    }

    /// Partition `leaf`'s bucket, [read out](Node::read_out) as
    /// `(coords, payloads)`, at the plane into two freshly pushed
    /// children at depth `below` (`<=` goes left), each keeping insertion
    /// order. The leaf itself is untouched until [`Tree::set_routing`].
    fn push_children(
        &self,
        (leaf, below): (u32, u32),
        (coords, payloads): (&[f64], &[u64]),
        split_dim: usize,
        split_val: f64,
    ) -> Option<(u32, u32)> {
        if S::load(&self.next) + 2 > MAX_NODES {
            return None;
        }
        let dims = self.config.dims();
        let row = |i: usize| &coords[i * dims..][..dims];
        let (lb, rb): (Vec<usize>, Vec<usize>) =
            (0..payloads.len()).partition(|&i| row(i)[split_dim] <= split_val);
        let point = |&i: &usize| (row(i), payloads[i]);
        let left = self.push(below, Some((leaf, true)), lb.iter().map(point), None)?;
        let right = self.push(below, Some((leaf, false)), rb.iter().map(point), None)?;
        Some((left, right))
    }

    /// Split `leaf` while it is over capacity and a plane exists,
    /// reporting each split parent-first. A leaf whose box is one point
    /// holds copies of that point, which no plane divides: it stays
    /// over-full, and its bucket is not read.
    fn split(&self, leaf: u32, splits: &mut Vec<SplitEvent>) {
        let Some(node) = self.node(leaf) else { return };
        if node.point_count() <= self.config.bucket_size() {
            return;
        }
        if node.is_one_point() {
            debug_assert!(
                {
                    let bucket = node.bucket();
                    let rows = bucket.iter().map(|(c, _)| &c[..]);
                    choose_split(&self.config, rows, node.depth).is_none()
                },
                "leaf {leaf}'s box is one point, yet a plane divides its bucket"
            );
            return;
        }
        let (coords, payloads) = node.read_out();
        let rows = coords.chunks_exact(self.config.dims());
        let Some((split_dim, split_val)) = choose_split(&self.config, rows, node.depth) else {
            return;
        };
        let bucket = (&coords[..], &payloads[..]);
        let below = (leaf, node.depth + 1);
        let Some((left, right)) = self.push_children(below, bucket, split_dim, split_val) else {
            return;
        };
        splits.push(SplitEvent {
            leaf,
            split_dim,
            split_val,
            left,
            right,
        });
        self.split(left, splits);
        self.split(right, splits);
        // Children first, fully built; then the parent turns routing.
        self.set_routing(
            leaf,
            split_dim,
            split_val,
            [Child::Local(left), Child::Local(right)],
        );
    }
}

fn new_routing<S: Shim>(
    split_dim: usize,
    split_val: f64,
    children: [Child; 2],
) -> Option<Routing<S>> {
    Some(Routing {
        split_dim,
        split_val,
        children: [
            S::atomic_u64(children[0].pack()?),
            S::atomic_u64(children[1].pack()?),
        ],
    })
}

/// The single mutating handle of a [`Tree`]. Deliberately **not**
/// `Clone`: writers stay single-threaded per tree, which is what makes
/// the plain version counter a sufficient write lock. Every mutation is
/// one seqlock transaction.
pub struct TreeWriter<S: Shim = StdShim> {
    tree: Arc<Tree<S>>,
}

impl<S: Shim> TreeWriter<S> {
    /// An arena with no nodes yet; the first push becomes the root.
    #[must_use]
    pub fn new(config: KdConfig) -> Self {
        TreeWriter {
            tree: Arc::new(Tree {
                config,
                version: S::atomic_u64(0),
                next: S::atomic_u64(0),
                chunks: (0..MAX_CHUNKS).map(|_| OnceLock::new()).collect(),
            }),
        }
    }

    /// The tree: the writer's own view (it is the only mutator, so it
    /// reads without validation), and the handle lock-free readers clone.
    #[must_use]
    pub fn tree(&self) -> &Arc<Tree<S>> {
        &self.tree
    }

    /// Publish a leaf holding `points` at *global* depth `depth`, with
    /// **no** capacity check; `None` when the arena is exhausted or a
    /// point has the wrong dimensionality or a non-finite coordinate. No
    /// transaction: until an edge names it (or it is the root) a pushed
    /// node is invisible to readers, and widening its ancestors' boxes
    /// changes no answer.
    pub fn push_leaf(
        &mut self,
        depth: u32,
        parent: Option<(u32, bool)>,
        points: &[(Vec<f64>, u64)],
    ) -> Option<u32> {
        let points = points.iter().map(|(c, p)| (&c[..], *p));
        self.tree.push(depth, parent, points, None)
    }

    /// Publish a node that is born routing (snapshot images, the
    /// fan-out builder); `None` when a child id cannot be stored or the
    /// arena is exhausted. A remote child opens its box and its
    /// ancestors'.
    pub fn push_routing(
        &mut self,
        depth: u32,
        parent: Option<(u32, bool)>,
        split_dim: usize,
        split_val: f64,
        children: [Child; 2],
    ) -> Option<u32> {
        let routing = new_routing(split_dim, split_val, children)?;
        let id = self
            .tree
            .push(depth, parent, std::iter::empty(), Some(routing))?;
        if children.iter().any(|c| matches!(c, Child::Remote { .. })) {
            self.tree.open_up(id);
        }
        Some(id)
    }

    /// Point one child edge of routing node `parent` at `child` (one
    /// release store). `false` when `parent` is not a routing node.
    pub fn set_child(&mut self, parent: u32, left_side: bool, child: Child) -> bool {
        let _txn = self.tree.begin();
        self.tree.set_child(parent, left_side, child)
    }

    /// The one insert (§III-B.1): navigate from `start`; a point that
    /// reaches a remote child is forwarded (`Ok(false)`, no
    /// transaction), otherwise it is published in its leaf and the leaf
    /// split while over capacity, all in one transaction (`Ok(true)`,
    /// splits appended to `splits`). Outer `None`: `start` is not a
    /// node of this arena, or a point that reaches a leaf here has the
    /// wrong dimensionality or a non-finite coordinate.
    pub fn insert<R: RemoteOps>(
        &mut self,
        start: u32,
        point: &[f64],
        payload: u64,
        remote: &R,
        splits: &mut Vec<SplitEvent>,
    ) -> Option<Result<bool, R::Error>> {
        match self.tree.navigate(start, point)? {
            Child::Remote { partition, node } => Some(
                remote
                    .insert(partition, node, point, payload)
                    .map(|()| false),
            ),
            Child::Local(leaf) => {
                let _txn = self.tree.begin();
                self.tree.append(leaf, point, payload)?;
                self.tree.split(leaf, splits);
                Some(Ok(true))
            }
        }
    }

    /// Re-apply a logged insert: same navigation, same bucket append,
    /// but **no** split — splits replay from their own records.
    /// `Some(false)` (a no-op) when navigation reaches a remote child;
    /// `None` as for [`TreeWriter::insert`].
    pub fn append(&mut self, start: u32, point: &[f64], payload: u64) -> Option<bool> {
        let Child::Local(leaf) = self.tree.navigate(start, point)? else {
            return Some(false);
        };
        let _txn = self.tree.begin();
        self.tree.append(leaf, point, payload)?;
        Some(true)
    }

    /// Split `leaf` while it is over capacity (an adopted bucket may
    /// arrive over-full), reporting the splits.
    pub fn split(&mut self, leaf: u32, splits: &mut Vec<SplitEvent>) {
        let _txn = self.tree.begin();
        self.tree.split(leaf, splits);
    }

    /// Re-apply a logged [`SplitEvent`] verbatim.
    ///
    /// # Errors
    /// Fails when the log and the tree disagree — a corrupt or
    /// out-of-order WAL.
    pub fn apply_split(&mut self, event: &SplitEvent) -> Result<(), String> {
        let SplitEvent {
            leaf,
            split_dim,
            split_val,
            ..
        } = *event;
        let Some(node) = self.tree.node(leaf) else {
            return Err(format!("split of unknown node {leaf}"));
        };
        if node.routing.get().is_some() {
            return Err(format!("split of routing node {leaf}"));
        }
        if split_dim >= self.tree.config.dims() {
            return Err(format!("split of node {leaf} on dimension {split_dim}"));
        }
        let _txn = self.tree.begin();
        let (coords, payloads) = node.read_out();
        let (left, right) = self
            .tree
            .push_children(
                (leaf, node.depth + 1),
                (&coords, &payloads),
                split_dim,
                split_val,
            )
            .ok_or("node arena exhausted")?;
        if (left, right) != (event.left, event.right) {
            return Err(format!(
                "split of node {leaf} allocated children {left}/{right}, log says {}/{}",
                event.left, event.right
            ));
        }
        let children = [Child::Local(left), Child::Local(right)];
        self.tree.set_routing(leaf, split_dim, split_val, children);
        Ok(())
    }

    /// Build-partition's relink (§III-B.2): point leaf `evicted`'s
    /// parent edge at `to` and empty the leaf, in one transaction — a
    /// reader sees the leaf's points until then and validates against
    /// neither half alone. Returns how many points left the tree.
    ///
    /// # Errors
    /// Fails when `evicted` is not a leaf below the arena root or `to`
    /// cannot be stored.
    pub fn relink(&mut self, evicted: u32, to: Child) -> Result<usize, String> {
        let Some(node) = self.tree.node(evicted) else {
            return Err(format!("migration of unknown node {evicted}"));
        };
        if node.routing.get().is_some() {
            return Err(format!("migration of routing node {evicted}"));
        }
        let Some((parent, is_left)) = node.parent else {
            return Err("migration of the partition root".to_string());
        };
        let points = node.point_count();
        let _txn = self.tree.begin();
        if !self.tree.set_child(parent, is_left, to) {
            return Err(format!("node {evicted} cannot be relinked to {to:?}"));
        }
        S::store_release(&node.len, 0);
        Ok(points)
    }
}

// ---------------------------------------------------------------------
// The facade used by benches, tests, the paper's figures and the
// `kdtree_read_split` model target: the same tree with no remote links.
// ---------------------------------------------------------------------

/// Writer half of a concurrently-readable bucketed KD-tree. Obtain
/// readers with [`VersionedKdTree::reader`].
pub struct VersionedKdTree<S: Shim = StdShim> {
    writer: TreeWriter<S>,
    len: usize,
}

/// Cloneable lock-free read handle over a [`VersionedKdTree`].
pub struct VersionedKdReader<S: Shim = StdShim> {
    tree: Arc<Tree<S>>,
}

impl<S: Shim> Clone for VersionedKdReader<S> {
    fn clone(&self) -> Self {
        VersionedKdReader {
            tree: Arc::clone(&self.tree),
        }
    }
}

impl<S: Shim> VersionedKdTree<S> {
    /// Empty tree under `config`.
    #[must_use]
    pub fn new(config: KdConfig) -> Self {
        let mut writer = TreeWriter::new(config);
        let root = writer.push_leaf(0, None, &[]);
        debug_assert_eq!(root, Some(0), "the first push cannot exhaust the arena");
        VersionedKdTree { writer, len: 0 }
    }

    /// Balanced bulk load, the paper's "1 partition (balanced)" series:
    /// median recursion through the leaf split's rule, down to buckets of
    /// at most `bucket_size` points or that no plane divides; each side
    /// keeps its input order. Nodes are published parent first, routing
    /// nodes born routing, each point written once into its leaf; with
    /// no reader yet, a routing node's edges are patched in as its
    /// children are pushed.
    ///
    /// # Panics
    /// Panics if a point's dimensionality is not `config.dims()` or a
    /// coordinate is not finite.
    #[must_use]
    pub fn bulk_load(config: KdConfig, mut points: Vec<(Vec<f64>, u64)>) -> Self {
        for (coords, _) in &points {
            assert_eq!(coords.len(), config.dims(), "dimensionality mismatch");
            assert!(
                coords.iter().all(|c| c.is_finite()),
                "non-finite coordinate"
            );
        }
        let mut writer = TreeWriter::new(config);
        let mut todo = vec![(0..points.len(), 0, None)];
        while let Some((range, depth, parent)) = todo.pop() {
            let bucket = &mut points[range.clone()];
            let split = (bucket.len() > config.bucket_size())
                .then(|| choose_split(&config, bucket.iter().map(|(c, _)| &c[..]), depth))
                .flatten();
            let pushed = match split {
                None => writer.push_leaf(depth, parent, bucket),
                Some((dim, val)) => {
                    bucket.sort_by_key(|(c, _)| c[dim] > val);
                    let mid = range.start + bucket.partition_point(|(c, _)| c[dim] <= val);
                    let id = writer.push_routing(depth, parent, dim, val, [Child::Local(0); 2]);
                    if let Some(id) = id {
                        todo.push((mid..range.end, depth + 1, Some((id, false))));
                        todo.push((range.start..mid, depth + 1, Some((id, true))));
                    }
                    id
                }
            };
            debug_assert!(pushed.is_some(), "a bulk load fits the arena");
            if let (Some(id), Some((up, is_left))) = (pushed, parent) {
                writer.set_child(up, is_left, Child::Local(id));
            }
        }
        VersionedKdTree {
            writer,
            len: points.len(),
        }
    }

    /// Totally unbalanced ("chain") construction, the paper's worst-case
    /// series of Figures 3, 4 and 6: the points are inserted in
    /// lexicographic coordinate order under [`SplitRule::DegenerateMin`],
    /// so every split peels off only the minimum-valued points.
    #[must_use]
    pub fn chain_load(config: KdConfig, mut points: Vec<(Vec<f64>, u64)>) -> Self {
        points.sort_by(|(a, _), (b, _)| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let mut tree = VersionedKdTree::new(config.with_split_rule(SplitRule::DegenerateMin));
        for (coords, payload) in &points {
            tree.insert(coords, *payload);
        }
        tree
    }

    /// The arena, as the writer sees it.
    pub(crate) fn arena(&self) -> &Tree<S> {
        self.writer.tree()
    }

    /// A new lock-free read handle.
    #[must_use]
    pub fn reader(&self) -> VersionedKdReader<S> {
        VersionedKdReader {
            tree: Arc::clone(self.writer.tree()),
        }
    }

    /// Points stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert one point in one seqlock transaction: one slot and the
    /// leaf's length are published, and the leaf splits in place when
    /// the bucket overflows. Returns `false` only when the point could
    /// not be stored — a coordinate is not finite, or the arena is full
    /// (the tree is unchanged in that case).
    pub fn insert(&mut self, point: &[f64], payload: u64) -> bool {
        assert_eq!(
            point.len(),
            self.arena().config.dims(),
            "dimensionality mismatch"
        );
        let nowhere = InPlace::<S, _>::nowhere();
        let stored = self
            .writer
            .insert(0, point, payload, &nowhere, &mut Vec::new());
        let stored = stored == Some(Ok(true));
        self.len += usize::from(stored);
        stored
    }

    /// The `k` nearest stored points (§III-B.3), sorted by `(distance,
    /// payload)`.
    #[must_use]
    pub fn knn(&self, query: &[f64], k: usize) -> Vec<Neighbor<u64>> {
        self.knn_with_stats(query, k).0
    }

    /// [`VersionedKdTree::knn`] plus what the walk visited.
    #[must_use]
    pub fn knn_with_stats(&self, query: &[f64], k: usize) -> (Vec<Neighbor<u64>>, SearchStats) {
        self.arena().ask(query, Ask::Knn(k)).0
    }

    /// All stored points within `radius` of `query` (§III-B.4,
    /// inclusive), sorted by `(distance, payload)`.
    #[must_use]
    pub fn range(&self, query: &[f64], radius: f64) -> Vec<Neighbor<u64>> {
        self.range_with_stats(query, radius).0
    }

    /// [`VersionedKdTree::range`] plus what the walk visited.
    #[must_use]
    pub fn range_with_stats(
        &self,
        query: &[f64],
        radius: f64,
    ) -> (Vec<Neighbor<u64>>, SearchStats) {
        self.arena().ask(query, Ask::Range(radius)).0
    }
}

/// A facade read: the `k` nearest points, or those within a radius.
#[derive(Clone, Copy)]
enum Ask {
    Knn(usize),
    Range(f64),
}

impl<S: Shim> Tree<S> {
    /// Panics unless `query` fits this tree and `ask` is well formed.
    fn check(&self, query: &[f64], ask: Ask) {
        assert_eq!(query.len(), self.config.dims(), "dimensionality mismatch");
        assert!(
            query.iter().all(|c| c.is_finite()),
            "query point has a non-finite coordinate"
        );
        if let Ask::Range(radius) = ask {
            assert!(radius >= 0.0, "radius must be non-negative");
        }
    }

    /// One counted walk of `ask` from the root, its hits sorted by
    /// `(distance, payload)`; `None` on a writer race. A facade tree has
    /// no remote links, so the refusal arm cannot be taken.
    fn answer(&self, query: &[f64], ask: Ask) -> Option<(Vec<Neighbor<u64>>, SearchStats)> {
        let mut stats = SearchStats::default();
        let nowhere = InPlace::<S, _>::nowhere();
        let walked = match ask {
            Ask::Knn(k) => self.knn_counted(0, query, k, None, &nowhere, &mut stats),
            Ask::Range(radius) => self.range_counted(0, query, radius, &nowhere, &mut stats),
        };
        let mut hits = walked?.ok()?;
        hits.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let neighbor = |(dist, payload)| Neighbor { dist, payload };
        Some((hits.into_iter().map(neighbor).collect(), stats))
    }

    /// `ask`, validated: the hits and counters of the walk that
    /// validated, plus retry accounting.
    fn ask(&self, query: &[f64], ask: Ask) -> ((Vec<Neighbor<u64>>, SearchStats), ReadStats) {
        self.check(query, ask);
        self.read(|tree| tree.answer(query, ask))
    }
}

impl<S: Shim> VersionedKdReader<S> {
    /// The `k` nearest stored points, sorted by `(distance, payload)`,
    /// plus retry accounting. Lock-free: retries only when racing a
    /// writer transaction.
    #[must_use]
    pub fn knn(&self, query: &[f64], k: usize) -> (Vec<Neighbor<u64>>, ReadStats) {
        let ((hits, _), read) = self.tree.ask(query, Ask::Knn(k));
        (hits, read)
    }

    /// Bounded-retry [`VersionedKdReader::knn`] for the model checker:
    /// `None` when every attempt raced a writer.
    #[must_use]
    pub fn knn_bounded(
        &self,
        query: &[f64],
        k: usize,
        attempts: u64,
    ) -> Option<(Vec<Neighbor<u64>>, ReadStats)> {
        self.tree.check(query, Ask::Knn(k));
        let walk = |tree: &Tree<S>| tree.answer(query, Ask::Knn(k)).map(|(hits, _)| hits);
        self.tree.read_bounded(attempts, walk)
    }

    /// All stored points within `radius` of `query`, sorted by
    /// `(distance, payload)`, plus retry accounting.
    #[must_use]
    pub fn range(&self, query: &[f64], radius: f64) -> (Vec<Neighbor<u64>>, ReadStats) {
        let ((hits, _), read) = self.tree.ask(query, Ask::Range(radius));
        (hits, read)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{assert_knn_exact, brute, grid, grown, line, pairs, Point, Tree};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::sync::atomic::{AtomicBool, Ordering};

    type Arena = super::Tree<StdShim>;

    #[test]
    fn chunk_math_is_contiguous() {
        let mut expected = (0usize, 0usize);
        for idx in 0..200_000u32 {
            let (chunk, offset) = locate(idx);
            assert_eq!((chunk, offset), expected, "idx {idx}");
            expected = if offset + 1 == chunk_capacity(chunk) {
                (chunk + 1, 0)
            } else {
                (chunk, offset + 1)
            };
            assert!(offset < chunk_capacity(chunk));
        }
    }

    #[test]
    fn sq_cut_is_the_exact_sqrt_threshold() {
        let bits = |s: f64, by: i64| f64::from_bits(s.to_bits().wrapping_add_signed(by));
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut bounds = vec![
            f64::MIN_POSITIVE,
            5e-324,
            1e-160,
            1.0,
            2.0,
            1e154,
            1.4e154,
            1e300,
        ];
        let positive = (0..4_000).map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            f64::from_bits(x >> 1)
        });
        bounds.extend(positive.filter(|b| b.is_finite()));
        for bound in bounds {
            let cut = sq_cut(bound);
            assert!(cut.sqrt() >= bound, "{bound:e}: cut {cut:e} too small");
            for by in -3..=3 {
                let sq = bits(cut, by);
                if sq >= 0.0 {
                    assert_eq!(sq >= cut, sq.sqrt() >= bound, "{bound:e}: sq {sq:e}");
                }
            }
        }
        assert!(sq_cut(f64::NAN).is_nan() && sq_cut(f64::INFINITY).is_nan());
        assert_eq!((sq_cut(0.0), sq_cut(-0.0), sq_cut(-3.0)), (0.0, 0.0, 0.0));
    }

    #[test]
    fn children_pack_roundtrip() {
        let top = (MAX_NODES - 1) as u32;
        for child in [
            Child::Local(0),
            Child::Local(top),
            Child::Remote {
                partition: 0,
                node: 0,
            },
            Child::Remote {
                partition: u32::MAX,
                node: top,
            },
        ] {
            assert_eq!(child.pack().map(Child::unpack), Some(child));
        }
        assert_eq!(Child::Local(top + 1).pack(), None, "beyond the arena");
    }

    #[test]
    fn matches_sequential_tree_on_grid() {
        let config = KdConfig::new(2).with_bucket_size(4);
        let points = grid(100);
        let reader = grown(config, &points).reader();
        let bulk = Tree::bulk_load(config, points.clone());
        for query in [[3.2, 4.9], [0.0, 0.0], [9.9, 9.9], [5.0, 5.0]] {
            let (hits, stats) = reader.knn(&query, 5);
            assert_eq!(stats.retries, 0, "no writer, no retries");
            assert_knn_exact(&points, &query, 5, &hits);
            assert_knn_exact(&points, &query, 5, &bulk.knn(&query, 5));
        }
        let mut ball = brute(&points, &[5.0, 5.0]);
        ball.retain(|&(d, _)| d <= 2.5);
        assert_eq!(pairs(&reader.range(&[5.0, 5.0], 2.5).0), ball);
        assert_eq!(pairs(&bulk.range(&[5.0, 5.0], 2.5)), ball);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn bounded_knn_rejects_a_longer_query() {
        let tree = Tree::bulk_load(KdConfig::new(2), grid(10));
        let _ = tree.reader().knn_bounded(&[1.0, 2.0, 3.0], 1, 1);
    }

    #[test]
    fn insert_returns_points_immediately() {
        let mut tree = Tree::new(KdConfig::new(2).with_bucket_size(1));
        let reader = tree.reader();
        for (i, coords) in [[0.0, 0.0], [1.0, 0.0], [0.5, 2.0], [3.0, 3.0]]
            .iter()
            .enumerate()
        {
            assert!(tree.insert(coords, i as u64));
            let (hits, stats) = reader.knn(coords, 1);
            assert_eq!(
                hits[0].payload, i as u64,
                "read-your-writes after insert {i}"
            );
            assert_eq!(hits[0].dist, 0.0);
            assert_eq!(stats.version, 2 * (i as u64 + 1), "one transaction each");
        }
        assert_eq!(tree.len(), 4);
    }

    #[test]
    fn degenerate_chain_splits_stay_searchable() {
        let config = KdConfig::new(1).with_bucket_size(1);
        let tree = grown(config.with_split_rule(SplitRule::DegenerateMin), &line(32));
        let (hits, _) = tree.reader().knn(&[15.4], 3);
        assert_eq!(
            hits.iter().map(|h| h.payload).collect::<Vec<_>>(),
            [15, 16, 14]
        );
    }

    #[test]
    fn unsplittable_duplicates_spill_into_the_overflow_link() {
        let copies: Vec<_> = (0..20).map(|i| (vec![1.0, 1.0], i)).collect();
        let tree = grown(KdConfig::new(2).with_bucket_size(2), &copies);
        let arena = tree.arena();
        assert_eq!(arena.nodes(), 1, "duplicates never split");
        assert_eq!(arena.node(0).map(Node::point_count), Some(20));
        let (hits, _) = tree.reader().range(&[1.0, 1.0], 0.0);
        assert_eq!(
            hits.iter().map(|h| h.payload).collect::<Vec<_>>(),
            Vec::from_iter(0..20)
        );
    }

    #[test]
    fn knn_of_zero_walks_nothing() {
        // A routing root over a local leaf and a link nothing is behind:
        // any walk that reaches the link is refused.
        let mut writer = TreeWriter::<StdShim>::new(KdConfig::new(1).with_bucket_size(4));
        let remote = Child::Remote {
            partition: 3,
            node: 0,
        };
        assert_eq!(
            writer.push_routing(0, None, 0, 5.0, [Child::Local(1), remote]),
            Some(0)
        );
        assert_eq!(
            writer.push_leaf(1, Some((0, true)), &[(vec![1.0], 7)]),
            Some(1)
        );
        let tree = writer.tree();
        let nowhere = InPlace::<StdShim, _>::nowhere();
        // One point cannot fill two slots, so the walk reaches the link.
        assert_eq!(
            tree.knn(0, &[1.0], 2, None, &nowhere),
            Some(Err(NeedsMailbox))
        );
        assert_eq!(tree.knn(0, &[1.0], 0, None, &nowhere), Some(Ok(vec![])));
        assert_eq!(tree.navigate(0, &[1.0]), Some(Child::Local(1)));
        assert_eq!(tree.navigate(0, &[9.0]), Some(remote));
    }

    #[test]
    fn concurrent_readers_never_see_torn_state() {
        // Stress (not exhaustive — the model target is): readers
        // validate every result against "some prefix of the inserted
        // points" while the writer splits leaves underneath them.
        let config = KdConfig::new(2).with_bucket_size(2);
        let mut tree = Tree::new(config);
        let points = grid(400);
        let reader = tree.reader();
        let done = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for t in 0..3 {
            let reader = reader.clone();
            let done = Arc::clone(&done);
            handles.push(std::thread::spawn(move || {
                let query = [3.1 + f64::from(t), 4.2];
                let mut max_retries = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let (hits, stats) = reader.knn(&query, 4);
                    // Result sizes grow monotonically with the prefix;
                    // distances are sorted and deterministic.
                    for pair in hits.windows(2) {
                        assert!(pair[0].dist <= pair[1].dist);
                    }
                    max_retries = max_retries.max(stats.retries);
                }
                max_retries
            }));
        }
        for (coords, payload) in &points {
            assert!(tree.insert(coords, *payload));
        }
        done.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().expect("reader thread");
        }
        // Final state: brute force's nearest.
        let (hits, _) = reader.knn(&[3.1, 4.2], 4);
        assert_knn_exact(&points, &[3.1, 4.2], 4, &hits);
    }

    /// The published points stored below `id` over local edges, and
    /// whether a remote edge lies below it.
    fn below(tree: &Arena, id: u32) -> (Vec<Point>, bool) {
        let node = tree.node(id).expect("a reachable node");
        let Some(r) = node.routing() else {
            return (node.bucket(), false);
        };
        let (mut points, mut remote) = (Vec::new(), false);
        for child in [r.left, r.right] {
            match child {
                Child::Local(c) => {
                    let (more, linked) = below(tree, c);
                    points.extend(more);
                    remote |= linked;
                }
                Child::Remote { .. } => remote = true,
            }
        }
        (points, remote)
    }

    /// Every reachable node's box holds every published point below it
    /// over local edges, and is open when a remote edge lies below it.
    fn assert_boxes_hold(tree: &Arena, path: &str) {
        for (id, node) in tree.reachable() {
            let (lows, highs) = node.bounds();
            assert_eq!((lows.len(), highs.len()), (node.dims, node.dims));
            let (points, remote) = below(tree, id);
            for (coords, payload) in points {
                let inside = (0..node.dims).all(|d| lows[d] <= coords[d] && coords[d] <= highs[d]);
                assert!(
                    inside,
                    "{path}: node {id}, payload {payload} outside its box"
                );
            }
            if remote {
                let open = lows.iter().all(|&lo| lo == f64::NEG_INFINITY)
                    && highs.iter().all(|&hi| hi == f64::INFINITY);
                assert!(
                    open,
                    "{path}: node {id} has a remote edge below a closed box"
                );
            }
        }
    }

    /// Widen every box, leaves' and routing nodes', to the whole space.
    /// A walk then skips a node only at a cut of 0, which every point's
    /// `sq` meets: the box-free walk.
    fn open_boxes(tree: &Arena) {
        for (_, node) in tree.reachable() {
            let (lows, highs) = node.bbox();
            lows.iter()
                .for_each(|w| w.store(f64::NEG_INFINITY.to_bits(), Relaxed));
            highs
                .iter()
                .for_each(|w| w.store(f64::INFINITY.to_bits(), Relaxed));
        }
    }

    /// The raw walks — candidates in the order the walk returns them —
    /// of a k-NN with and without a `worst` hint and of a range.
    fn raw_walks(tree: &Arena, q: &[f64], k: usize, worst: f64, radius: f64) -> Vec<Hits> {
        let nowhere = InPlace::<StdShim, _>::nowhere();
        let walks = [
            tree.knn(0, q, k, None, &nowhere),
            tree.knn(0, q, k, Some(worst), &nowhere),
            tree.range(0, q, radius, &nowhere),
        ];
        let ok = |hits: Option<Result<Hits, _>>| hits.and_then(Result::ok).expect("no links");
        walks.into_iter().map(ok).collect()
    }

    /// `n` points with coordinates on `{0, 0.5, 1, 1.5}` — full of
    /// copies and distance ties — numbered in order.
    fn snapped(rng: &mut StdRng, n: usize, dims: usize) -> Vec<Point> {
        let mut coord = || f64::from(rng.random_range(0u32..4)) * 0.5;
        (0..n as u64)
            .map(|i| ((0..dims).map(|_| coord()).collect(), i))
            .collect()
    }

    /// `tree` rebuilt the way a snapshot image is restored: every node in
    /// arena order, parent first, routing nodes born routing.
    fn restored(tree: &Arena) -> Arc<Arena> {
        let mut writer = TreeWriter::<StdShim>::new(tree.config);
        for id in 0..tree.nodes() {
            let node = tree.node(id).expect("a published node");
            let pushed = match node.routing() {
                None => writer.push_leaf(node.depth, node.parent, &node.bucket()),
                Some(r) => {
                    let children = [r.left, r.right];
                    writer.push_routing(node.depth, node.parent, r.split_dim, r.split_val, children)
                }
            };
            assert_eq!(pushed, Some(id));
        }
        Arc::clone(writer.tree())
    }

    /// A tree in the fan-out builder's shape: routing nodes pushed
    /// parent first with unset edges, patched once each side exists. The
    /// root and its left child each send their right side to another
    /// partition; the points left of both planes fill one local leaf,
    /// which then splits.
    fn fanned_out(config: KdConfig, points: &[Point]) -> Arc<Arena> {
        let mut writer = TreeWriter::<StdShim>::new(config);
        let median = |dim: usize| {
            let mut values: Vec<f64> = points.iter().map(|(c, _)| c[dim]).collect();
            values.sort_by(f64::total_cmp);
            values[values.len() / 2]
        };
        let planes = [
            (0, median(0)),
            (config.dims() - 1, median(config.dims() - 1)),
        ];
        let unset = [Child::Local(0); 2];
        assert_eq!(
            writer.push_routing(0, None, planes[0].0, planes[0].1, unset),
            Some(0)
        );
        assert_eq!(
            writer.push_routing(1, Some((0, true)), planes[1].0, planes[1].1, unset),
            Some(1)
        );
        let local: Vec<Point> = points
            .iter()
            .filter(|(c, _)| planes.iter().all(|&(d, v)| c[d] <= v))
            .cloned()
            .collect();
        assert_eq!(writer.push_leaf(2, Some((1, true)), &local), Some(2));
        for (parent, left) in [(0, Child::Local(1)), (1, Child::Local(2))] {
            let right = Child::Remote {
                partition: 5 + parent,
                node: 0,
            };
            assert!(writer.set_child(parent, true, left));
            assert!(writer.set_child(parent, false, right));
        }
        writer.split(2, &mut Vec::new());
        Arc::clone(writer.tree())
    }

    /// Every way a tree is filled, on one population: inserts with
    /// splits, the bulk and chain loads, WAL-style replay (appends and
    /// logged splits), an over-full `push_leaf` split afterwards, the
    /// restore of the inserted tree, the inserted tree after a relink
    /// and its restore, and a fan-out-shaped tree. The last three have
    /// remote edges.
    fn every_fill(config: KdConfig, points: &[Point]) -> Vec<(&'static str, Arc<Arena>)> {
        let grow = |log: &mut Vec<_>| {
            let nowhere = InPlace::<StdShim, _>::nowhere();
            let mut writer = TreeWriter::<StdShim>::new(config);
            assert_eq!(writer.push_leaf(0, None, &[]), Some(0));
            for (coords, payload) in points {
                let mut splits = Vec::new();
                let stored = writer.insert(0, coords, *payload, &nowhere, &mut splits);
                assert_eq!(stored, Some(Ok(true)));
                log.push((coords, *payload, splits));
            }
            writer
        };
        let mut log = Vec::new();
        let inserted = grow(&mut log);
        let mut replayed = TreeWriter::<StdShim>::new(config);
        assert_eq!(replayed.push_leaf(0, None, &[]), Some(0));
        for (coords, payload, splits) in &log {
            assert_eq!(replayed.append(0, coords, *payload), Some(true));
            for split in splits {
                assert_eq!(replayed.apply_split(split), Ok(()));
            }
        }
        let mut adopted = TreeWriter::<StdShim>::new(config);
        assert_eq!(adopted.push_leaf(0, None, points), Some(0));
        adopted.split(0, &mut Vec::new());
        let bulk = Tree::bulk_load(config, points.to_vec());
        let chain = Tree::chain_load(config, points.to_vec());
        let arena = |t: &Tree| Arc::clone(t.writer.tree());
        let mut trees = vec![
            ("insert", Arc::clone(inserted.tree())),
            ("replay", Arc::clone(replayed.tree())),
            ("push_leaf", Arc::clone(adopted.tree())),
            ("bulk_load", arena(&bulk)),
            ("chain_load", arena(&chain)),
            ("restore", restored(inserted.tree())),
        ];
        let mut relinked = grow(&mut Vec::new());
        let evict = relinked
            .tree()
            .reachable()
            .into_iter()
            .find_map(|(id, node)| {
                (node.routing().is_none() && node.parent.is_some()).then_some(id)
            });
        if let Some(leaf) = evict {
            let to = Child::Remote {
                partition: 9,
                node: 0,
            };
            assert!(relinked.relink(leaf, to).is_ok());
            trees.push(("relink", Arc::clone(relinked.tree())));
            trees.push(("restore_relink", restored(relinked.tree())));
        }
        trees.push(("fan_out", fanned_out(config, points)));
        trees
    }

    #[test]
    fn a_leaf_entered_on_its_cell_is_skipped_on_its_box() {
        // Root plane at 5: left leaf {0, 1}, right leaf {9}. From 4 the
        // right cell is 1 away, inside the 1-NN bound of 3, but every
        // point of the right leaf is 5 away.
        let mut writer = TreeWriter::<StdShim>::new(KdConfig::new(1).with_bucket_size(4));
        let leaves = [Child::Local(1), Child::Local(2)];
        assert_eq!(writer.push_routing(0, None, 0, 5.0, leaves), Some(0));
        let (left, right) = ([(vec![0.0], 0), (vec![1.0], 1)], [(vec![9.0], 2)]);
        assert_eq!(writer.push_leaf(1, Some((0, true)), &left), Some(1));
        assert_eq!(writer.push_leaf(1, Some((0, false)), &right), Some(2));
        let points = [left.to_vec(), right.to_vec()].concat();
        let tree = writer.tree();
        let nowhere = InPlace::<StdShim, _>::nowhere();
        let skipped_right = SearchStats {
            nodes_visited: 3,
            distance_evals: 2,
            leaves_skipped: 1,
            subtrees_skipped: 0,
        };

        let mut stats = SearchStats::default();
        let hits = tree.knn_counted(0, &[4.0], 1, None, &nowhere, &mut stats);
        assert_eq!(hits, Some(Ok(brute(&points, &[4.0])[..1].to_vec())));
        assert_eq!(stats, skipped_right);

        let mut stats = SearchStats::default();
        let hits = tree.range_counted(0, &[4.0], 3.5, &nowhere, &mut stats);
        assert_eq!(hits, Some(Ok(vec![(3.0, 1)])));
        assert_eq!(stats, skipped_right);
    }

    #[test]
    fn a_subtree_entered_on_its_cell_is_skipped_on_its_box() {
        // Root plane at 5: left leaf {0, 1}, right routing node R (plane
        // at 8) over the leaves {9} and {10}. From 4 the right cell is 1
        // away, which passes the plane test against the 1-NN bound of 3,
        // but R's box [9, 10] lies 5 away.
        let mut writer = TreeWriter::<StdShim>::new(KdConfig::new(1).with_bucket_size(4));
        let (left, r) = ([(vec![0.0], 0), (vec![1.0], 1)], Child::Local(2));
        assert_eq!(
            writer.push_routing(0, None, 0, 5.0, [Child::Local(1), r]),
            Some(0)
        );
        assert_eq!(writer.push_leaf(1, Some((0, true)), &left), Some(1));
        let leaves = [Child::Local(3), Child::Local(4)];
        assert_eq!(
            writer.push_routing(1, Some((0, false)), 0, 8.0, leaves),
            Some(2)
        );
        let (nine, ten) = ([(vec![9.0], 2)], [(vec![10.0], 3)]);
        assert_eq!(writer.push_leaf(2, Some((2, true)), &nine), Some(3));
        assert_eq!(writer.push_leaf(2, Some((2, false)), &ten), Some(4));
        let tree = writer.tree();
        let bounds = |id| tree.node(id).map(Node::bounds);
        assert_eq!(
            bounds(2),
            Some((vec![9.0], vec![10.0])),
            "born empty, widened"
        );
        assert_eq!(bounds(0), Some((vec![0.0], vec![10.0])));
        let points = [left.to_vec(), nine.to_vec(), ten.to_vec()].concat();
        let nowhere = InPlace::<StdShim, _>::nowhere();
        let skipped_r = SearchStats {
            nodes_visited: 3,
            distance_evals: 2,
            leaves_skipped: 0,
            subtrees_skipped: 1,
        };

        let mut stats = SearchStats::default();
        let hits = tree.knn_counted(0, &[4.0], 1, None, &nowhere, &mut stats);
        assert_eq!(hits, Some(Ok(brute(&points, &[4.0])[..1].to_vec())));
        assert_eq!(stats, skipped_r);

        let mut stats = SearchStats::default();
        let hits = tree.range_counted(0, &[4.0], 3.5, &nowhere, &mut stats);
        let mut ball = brute(&points, &[4.0]);
        ball.retain(|&(d, _)| d <= 3.5);
        assert_eq!(hits, Some(Ok(ball)));
        assert_eq!(stats, skipped_r);
    }

    #[test]
    fn a_non_finite_point_is_refused_and_answers_stay_exact() {
        let mut tree = Tree::new(KdConfig::new(2).with_bucket_size(4));
        let points: Vec<Point> = (0..40u32)
            .map(|i| (vec![f64::from(i), 0.0], u64::from(i)))
            .collect();
        for (coords, payload) in &points {
            assert!(tree.insert(coords, *payload));
        }
        for bad in [
            [f64::NAN, 0.0],
            [0.0, f64::INFINITY],
            [f64::NEG_INFINITY, 1.0],
        ] {
            assert!(!tree.insert(&bad, 999), "{bad:?} stored");
        }
        assert_eq!(tree.len(), 40);
        assert_knn_exact(&points, &[39.0, 0.0], 5, &tree.knn(&[39.0, 0.0], 5));
        let mut ball = brute(&points, &[39.0, 0.0]);
        ball.retain(|&(d, _)| d <= 4.0);
        assert_eq!(pairs(&tree.range(&[39.0, 0.0], 4.0)), ball);

        let mut writer = TreeWriter::<StdShim>::new(KdConfig::new(2));
        assert_eq!(writer.push_leaf(0, None, &[(vec![f64::NAN, 0.0], 1)]), None);
        assert_eq!(writer.push_leaf(0, None, &[]), Some(0));
        assert_eq!(writer.append(0, &[1.0, f64::NAN], 1), None);
        let nowhere = InPlace::<StdShim, _>::nowhere();
        let stored = writer.insert(0, &[f64::INFINITY, 0.0], 1, &nowhere, &mut Vec::new());
        assert_eq!(stored, None);
        assert_eq!(writer.tree().node(0).map(Node::point_count), Some(0));
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn a_non_finite_query_panics() {
        let tree = Tree::bulk_load(KdConfig::new(2), grid(10));
        let _ = tree.knn(&[f64::NAN, 0.0], 1);
    }

    #[test]
    fn boxes_start_empty_and_only_widen() {
        let mut tree = Tree::new(KdConfig::new(2).with_bucket_size(8));
        let root = |t: &Tree| t.arena().node(0).expect("root").bounds();
        let (inf, ninf) = (f64::INFINITY, f64::NEG_INFINITY);
        assert_eq!(root(&tree), (vec![inf, inf], vec![ninf, ninf]));
        tree.insert(&[1.0, 5.0], 0);
        assert_eq!(root(&tree), (vec![1.0, 5.0], vec![1.0, 5.0]));
        tree.insert(&[3.0, -2.0], 1);
        tree.insert(&[2.0, 0.0], 2);
        assert_eq!(root(&tree), (vec![1.0, -2.0], vec![3.0, 5.0]));
        // An empty leaf is skipped as soon as there is a bound.
        let empty = Tree::new(KdConfig::new(2))
            .arena()
            .node(0)
            .map(|n| n.box_sq(&[0.0, 0.0]));
        assert_eq!(empty, Some(f64::INFINITY));
    }

    proptest! {
        /// Box ⊇ published points below, and open above a remote edge,
        /// on every path that fills a tree, and the box-pruned walks
        /// answer exactly as the box-free walk —
        /// the same candidates in the same order, ties included — and as
        /// brute force, on a population where ties are the rule.
        #[test]
        fn boxes_hold_their_points_and_keep_the_answers(
            seed in 0u64..u64::MAX,
            n in 1usize..300,
            dims in 1usize..5,
            bucket in 1usize..9,
            k in 1usize..20,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let points = snapped(&mut rng, n, dims);
            let mut queries: Vec<Vec<f64>> = (0..4)
                .map(|_| (0..dims).map(|_| rng.random_range(-0.5..2.0)).collect())
                .collect();
            queries.push(points[n / 2].0.clone());
            for (path, tree) in every_fill(KdConfig::new(dims).with_bucket_size(bucket), &points) {
                assert_boxes_hold(&tree, path);
                if ["relink", "restore_relink", "fan_out"].contains(&path) {
                    continue; // its walks may reach a link
                }
                let pruned: Vec<_> = queries
                    .iter()
                    .map(|q| {
                        let all = brute(&points, q);
                        let (worst, radius) = (all[n / 3].0, all[n / 2].0);
                        let hits = raw_walks(&tree, q, k, worst, radius);
                        let want: Vec<u64> = all.iter().take(k).map(|h| h.0.to_bits()).collect();
                        let got: Vec<u64> = hits[0].iter().map(|h| h.0.to_bits()).collect();
                        assert_eq!(got, want, "{path}: k-NN at {q:?}");
                        let mut ball = hits[2].clone();
                        ball.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                        let inside: Vec<_> = all.into_iter().filter(|h| h.0 <= radius).collect();
                        assert_eq!(ball, inside, "{path}: range at {q:?}");
                        (hits, worst, radius)
                    })
                    .collect();
                open_boxes(&tree);
                for (q, (hits, worst, radius)) in queries.iter().zip(pruned) {
                    let open = raw_walks(&tree, q, k, worst, radius);
                    prop_assert_eq!(&hits, &open, "{}: walks at {:?}", path, q);
                }
            }
        }
    }

    proptest! {
        /// A leaf's box is one point exactly when no plane divides its
        /// bucket, under every rule — the fact `Tree::split`'s early
        /// return stands on. Streams of copies of a few prototypes, with
        /// `-0.0` and `0.0` among the coordinates, go in through the
        /// writer with buckets of one to four slots, so over-full leaves
        /// chain overflow blocks.
        #[test]
        fn a_leaf_box_is_one_point_exactly_when_no_plane_divides_it(
            prototypes in prop::collection::vec(prop::collection::vec(0usize..4, 3), 1..6),
            picks in prop::collection::vec(0usize..5, 1..200),
            dims in 1usize..4,
            bucket in 1usize..5,
        ) {
            const VALUES: [f64; 4] = [-0.0, 0.0, 1.0, -2.5];
            let nowhere = InPlace::<StdShim, _>::nowhere();
            for rule in [SplitRule::Cycle, SplitRule::WidestSpread, SplitRule::DegenerateMin] {
                let config = KdConfig::new(dims).with_bucket_size(bucket).with_split_rule(rule);
                let mut writer = TreeWriter::<StdShim>::new(config);
                prop_assert_eq!(writer.push_leaf(0, None, &[]), Some(0));
                for (i, &pick) in picks.iter().enumerate() {
                    let cells = &prototypes[pick % prototypes.len()][..dims];
                    let point: Vec<f64> = cells.iter().map(|&c| VALUES[c]).collect();
                    let stored = writer.insert(0, &point, i as u64, &nowhere, &mut Vec::new());
                    prop_assert_eq!(stored, Some(Ok(true)));
                }
                let tree = writer.tree();
                for (id, node) in tree.reachable() {
                    if node.routing().is_some() || node.point_count() == 0 {
                        continue;
                    }
                    let bucket = node.bucket();
                    let rows = bucket.iter().map(|(c, _)| &c[..]);
                    let unsplittable = choose_split(&config, rows, node.depth).is_none();
                    prop_assert_eq!(node.is_one_point(), unsplittable, "{:?}: leaf {}", rule, id);
                }
            }
        }
    }

    /// Point slots `tree` has allocated, live and dead: every node's
    /// first block and every overflow block behind it.
    fn allocated_slots(tree: &VersionedKdTree) -> usize {
        let arena = tree.arena();
        let mut slots = 0;
        for node in (0..arena.nodes()).filter_map(|idx| arena.node(idx)) {
            let mut block = Some(&node.bucket);
            while let Some(b) = block {
                slots += b.payloads.len();
                block = b.next.get().map(|next| &**next);
            }
        }
        slots
    }

    /// DESIGN §14's bounded garbage, counted: growing a tree by inserts
    /// from n to 4n points does not raise the slots it holds per point.
    #[test]
    fn allocated_slots_per_point_stay_bounded_as_inserts_grow_the_tree() {
        const N: usize = 25_000;
        let mut rng = StdRng::seed_from_u64(14);
        let mut uniform = || -> Vec<f64> { (0..6).map(|_| rng.random_range(0.0..1.0)).collect() };
        let distinct: Vec<Vec<f64>> = (0..4 * N / 6).map(|_| uniform()).collect();
        let populations: [(&str, Vec<Vec<f64>>); 2] = [
            ("uniform", (0..4 * N).map(|_| uniform()).collect()),
            // 6 copies of each distinct point, one round of copies after
            // the other.
            (
                "duplicates",
                (0..4 * N)
                    .map(|i| distinct[i % distinct.len()].clone())
                    .collect(),
            ),
        ];
        for (name, points) in populations {
            let mut tree = VersionedKdTree::new(KdConfig::new(6));
            let mut ratios = Vec::new();
            for (i, p) in points.iter().enumerate() {
                assert!(tree.insert(p, i as u64));
                if [N, 4 * N].contains(&tree.len()) {
                    ratios.push(allocated_slots(&tree) as f64 / tree.len() as f64);
                }
            }
            let [at_n, at_4n] = ratios[..] else {
                unreachable!()
            };
            assert!(
                at_n <= 3.5 && at_4n <= 3.5,
                "{name}: {at_n} then {at_4n} slots per point"
            );
            // Leaf occupancy cycles as leaves fill and split, so the
            // ratio wanders by under a percent at any size; garbage that
            // grew with the inserts (a path copied per insert) would add
            // whole slots per point.
            assert!(
                at_4n <= at_n * 1.01,
                "{name}: {at_n} slots per point at n, {at_4n} at 4n"
            );
        }
    }
}
