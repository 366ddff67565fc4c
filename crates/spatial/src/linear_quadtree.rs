//! The linear (pointerless) quadtree — the query tier's snapshot form.
//!
//! A classic companion representation from the quadtree literature the
//! paper builds on (Gargantini's linear quadtrees; Samet's survey
//! \[Same84a\]): instead of pointer nodes, store one record per *leaf*,
//! keyed by its locational code — the Morton prefix of its block — in
//! sorted order. Point lookup is then a search over sorted codes, the
//! whole index is four flat allocations (three slabs and a small prefix
//! directory derived from them), and the structure is trivially
//! serializable.
//!
//! [`LinearQuadtree`] is built by freezing a [`crate::PrQuadtree`]; the
//! two answer queries identically (tested), with the linear form trading
//! mutability for compactness and cache-friendly search. PR 6 grew it
//! into the read-replica substrate of `popan-query`:
//!
//! * **Typed freeze.** [`LinearQuadtree::from_tree`] rejects trees with
//!   leaves deeper than [`morton::MORTON_BITS`] with
//!   [`FreezeError::DepthExceedsMortonBits`] instead of silently
//!   aliasing distinct blocks onto one locational code.
//! * **Morton-decomposed range queries.** [`LinearQuadtree::range_query_into`]
//!   and [`LinearQuadtree::count_in_range_with`] prune through
//!   [`morton::decompose_ranges_into`] spans: leaves wholly inside a
//!   *covered* span are bulk-copied (or bulk-counted off the flat
//!   offsets, never touching their points); only boundary leaves pay the
//!   per-point rectangle test.
//! * **Deterministic k-NN.** [`LinearQuadtree::k_nearest_into`] returns
//!   the `k` nearest points under the canonical
//!   `(distance², Point2::canonical_cmp)` order, so coincident-point and
//!   equidistant ties resolve identically on every backend.
//! * **One leaf search.** Every query reaches its leaves through
//!   [`LinearQuadtree::leaf_search`]: a freeze-time Morton prefix
//!   directory (one entry per depth-6 block, 16 KB) bounds the search
//!   to one prefix's run of leaves, and the search gallops from the
//!   caller's cursor inside it.
//! * **Zero-allocation serving.** The `_into` variants write into
//!   caller-owned buffers and a reusable [`QueryScratch`]; after warmup
//!   a query batch performs no heap allocation (pinned by
//!   `crates/query/tests/zero_alloc_read.rs`).

use crate::pr_quadtree::PrQuadtree;
use popan_geom::morton::{self, MortonSpan};
use popan_geom::{Interval, Point2, Rect};
use popan_rng::hash::{Fnv64, Mix64x4};
use std::cmp::Ordering;

/// Errors from freezing a pointer tree into linear form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FreezeError {
    /// A leaf sits deeper than the Morton code resolution: two distinct
    /// blocks at such depths would receive the *same* locational code,
    /// so the frozen index could return wrong blocks. The tree must be
    /// rebuilt with `max_depth ≤` [`morton::MORTON_BITS`].
    DepthExceedsMortonBits {
        /// The offending leaf depth.
        depth: u32,
        /// The deepest representable level, [`morton::MORTON_BITS`].
        max: u32,
    },
}

impl std::fmt::Display for FreezeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FreezeError::DepthExceedsMortonBits { depth, max } => write!(
                f,
                "leaf at depth {depth} exceeds the Morton resolution of {max} bits per axis; \
                 locational codes would alias"
            ),
        }
    }
}

impl std::error::Error for FreezeError {}

/// Depth of the Morton span decomposition used by the range paths: deep
/// enough that boundary leaves dominate only pathologically small
/// queries, shallow enough that the span list stays a few hundred
/// entries (it grows with the query perimeter, O(2^depth) worst case).
pub const RANGE_DECOMPOSE_DEPTH: u32 = 8;

/// Depth of the Morton prefix directory built at freeze: one entry per
/// depth-6 block (4,096 of them, plus a closing entry — 16 KB of `u32`s).
pub const DIRECTORY_DEPTH: u32 = 6;

/// A full-resolution code's directory cell is `code >> DIRECTORY_SHIFT`.
const DIRECTORY_SHIFT: u32 = 2 * (morton::MORTON_BITS - DIRECTORY_DEPTH);

/// Number of directory entries: one per depth-6 prefix plus the closing
/// entry (the slab length on a tiling slab).
const DIRECTORY_LEN: usize = (1 << (2 * DIRECTORY_DEPTH)) + 1;

/// Reusable buffers for the allocation-free query paths. One scratch per
/// reader thread; contents are meaningless between calls.
#[derive(Debug, Default, Clone)]
pub struct QueryScratch {
    /// Morton span decomposition of the current range query.
    spans: Vec<MortonSpan>,
    /// k-NN candidate list: `(distance², point)` sorted by the canonical
    /// k-NN order.
    best: Vec<(f64, Point2)>,
}

impl QueryScratch {
    /// Creates an empty scratch (buffers grow on first use and are
    /// reused afterwards).
    pub fn new() -> Self {
        QueryScratch::default()
    }
}

/// One frozen slab of a [`LinearQuadtree`], as named by integrity
/// reports and the fault-injection vocabulary (`corrupt:leaf|blocks|points`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SnapshotSection {
    /// The Morton-sorted leaf records (codes, depths, point offsets).
    Leaves,
    /// The parallel geometric block rects.
    Blocks,
    /// The flat point slab.
    Points,
}

impl std::fmt::Display for SnapshotSection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SnapshotSection::Leaves => "leaves",
            SnapshotSection::Blocks => "blocks",
            SnapshotSection::Points => "points",
        })
    }
}

/// The per-section FNV-1a 64 digests of a frozen index, plus a combined
/// digest folding in the region and the slab lengths. Computed once at
/// freeze, re-computed by `Snapshot::verify` in `popan-query`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionDigests {
    /// Digest of the leaf-record slab (codes, depths, offsets, lengths).
    pub leaves: u64,
    /// Digest of the block-rect slab (all four bounds, bit-exact).
    pub blocks: u64,
    /// Digest of the point slab (both coordinates, bit-exact).
    pub points: u64,
    /// Digest over the region bounds, slab lengths, and the three
    /// section digests — one number that pins the whole frozen index.
    pub combined: u64,
}

/// Heap bytes held per slab (allocated capacity, not live length — the
/// freeze shrinks each slab so the two coincide for a fresh snapshot).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SlabFootprint {
    /// Bytes held by the leaf-record slab.
    pub leaves: usize,
    /// Bytes held by the block-rect slab.
    pub blocks: usize,
    /// Bytes held by the point slab.
    pub points: usize,
    /// Bytes held by the Morton prefix directory (derived at freeze).
    pub directory: usize,
}

impl SlabFootprint {
    /// Total heap bytes across every slab.
    pub fn total(&self) -> usize {
        self.leaves + self.blocks + self.points + self.directory
    }
}

/// A work-unit budget for the degraded (bounded) query paths.
///
/// Work is measured in deterministic units — leaves scanned and points
/// read off the slabs — never wall-clock time, so a budgeted answer is a
/// pure function of (snapshot, query, budget) and the determinism lint's
/// D2 rule holds. Metadata sweeps (span decomposition, the pruning scan
/// over leaf records) are O(leaf count) and not charged: the budget
/// bounds slab traffic, which is what a pathological or corrupted query
/// would otherwise blow up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostBudget {
    /// Leaves whose point slices may be scanned.
    pub leaf_visits: u64,
    /// Points that may be read off the point slab.
    pub point_visits: u64,
}

impl CostBudget {
    /// No limit: the bounded paths behave exactly like the unbounded
    /// ones and always report [`BoundedOutcome::Complete`].
    pub fn unbounded() -> CostBudget {
        CostBudget {
            leaf_visits: u64::MAX,
            point_visits: u64::MAX,
        }
    }

    /// A budget of `leaf_visits` leaves and `point_visits` points.
    pub fn new(leaf_visits: u64, point_visits: u64) -> CostBudget {
        CostBudget {
            leaf_visits,
            point_visits,
        }
    }
}

/// Work actually performed by a bounded query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryCost {
    /// Leaves whose point slices were scanned.
    pub leaf_visits: u64,
    /// Points read off the point slab.
    pub point_visits: u64,
}

/// How a bounded query ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundedOutcome {
    /// The full answer was produced within budget.
    Complete {
        /// Work performed.
        visited: QueryCost,
    },
    /// The budget ran out. The answer is the *guaranteed canonical
    /// prefix* of the full answer: every returned element is correct and
    /// no element canonically before it is missing (range results under
    /// [`popan_geom::Point2::canonical_cmp`], k-NN under [`knn_cmp`]).
    Partial {
        /// Work performed before exhaustion.
        visited: QueryCost,
        /// Candidate leaves that were *not* examined; their contents are
        /// what the prefix guarantee had to truncate against.
        truncated_spans: usize,
    },
}

impl BoundedOutcome {
    /// `true` for [`BoundedOutcome::Complete`].
    pub fn is_complete(&self) -> bool {
        matches!(self, BoundedOutcome::Complete { .. })
    }

    /// The work performed.
    pub fn visited(&self) -> QueryCost {
        match *self {
            BoundedOutcome::Complete { visited } => visited,
            BoundedOutcome::Partial { visited, .. } => visited,
        }
    }
}

/// One leaf record: the block's locational code and its points.
#[derive(Debug, Clone, PartialEq)]
struct LeafEntry {
    /// Morton code of the block's low corner at full resolution — the
    /// first code contained in the block.
    code_lo: u64,
    /// One past the last full-resolution code contained in the block.
    code_hi: u64,
    /// Leaf depth (block side = region side / 2^depth).
    depth: u32,
    /// Offset of the leaf's points in the flat `points` array.
    points_start: u32,
    /// Number of points in the leaf.
    points_len: u32,
}

/// Incremental slab accumulator for [`LinearQuadtree::assemble`]: the
/// direct freeze emits leaves in ascending Morton order and points
/// grouped by leaf, exactly the frozen layout, so assembly is a move.
#[derive(Debug, Default)]
pub(crate) struct LinearBuilder {
    leaves: Vec<LeafEntry>,
    blocks: Vec<Rect>,
    points: Vec<Point2>,
}

impl LinearBuilder {
    /// Starts a leaf record; its `points_len` grows with each
    /// [`LinearBuilder::push_points`] until the next leaf begins.
    pub(crate) fn begin_leaf(&mut self, code_lo: u64, depth: u32, block: Rect) {
        self.leaves.push(LeafEntry {
            code_lo,
            code_hi: code_lo + morton::cells_at_depth(depth),
            depth,
            points_start: self.points.len() as u32,
            points_len: 0,
        });
        self.blocks.push(block);
    }

    /// Appends a whole run to the currently open leaf.
    pub(crate) fn push_points(&mut self, pts: &[Point2]) {
        self.points.extend_from_slice(pts);
        self.leaves
            .last_mut()
            .expect("push_points requires an open leaf")
            .points_len += pts.len() as u32;
    }

    /// Pre-reserves slab capacity (bulk-freeze hint).
    pub(crate) fn reserve(&mut self, leaves: usize, points: usize) {
        self.leaves.reserve(leaves);
        self.blocks.reserve(leaves);
        self.points.reserve(points);
    }
}

/// A frozen, pointerless PR quadtree.
#[derive(Debug, Clone)]
pub struct LinearQuadtree {
    region: Rect,
    /// Leaf entries sorted by `code_lo`; their `[code_lo, code_hi)`
    /// ranges partition the full Morton range.
    leaves: Vec<LeafEntry>,
    /// `blocks[i]` is the geometric rect of `leaves[i]` — precomputed at
    /// freeze so the k-NN pruning loop reads it straight off the slab.
    blocks: Vec<Rect>,
    /// All points, grouped by leaf.
    points: Vec<Point2>,
    /// The Morton prefix directory ([`prefix_directory`]): entry `q` is
    /// the first leaf whose `code_hi` passes the start of depth-6 prefix
    /// `q`. Derived from `leaves` at freeze and never digested; `verify`
    /// and [`LinearQuadtree::check_invariants`] re-derive it instead.
    directory: Vec<u32>,
}

/// The canonical k-NN candidate order: squared distance first
/// ([`f64::total_cmp`]), then [`Point2::canonical_cmp`]. Total, so ties
/// on coincident or equidistant points resolve bit-identically on every
/// backend.
pub fn knn_cmp(a: &(f64, Point2), b: &(f64, Point2)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then_with(|| a.1.canonical_cmp(&b.1))
}

impl LinearQuadtree {
    /// Freezes a PR quadtree into linear form.
    ///
    /// Fails with [`FreezeError::DepthExceedsMortonBits`] when any leaf
    /// sits below the Morton resolution — such leaves cannot be given
    /// unique locational codes, and silently clamping (the pre-PR 6
    /// behavior) would alias distinct blocks onto one code.
    pub fn from_tree(tree: &PrQuadtree) -> Result<Self, FreezeError> {
        let region = tree.region();
        let mut leaves = Vec::new();
        let mut blocks = Vec::new();
        let mut points = Vec::new();
        let mut too_deep: Option<u32> = None;
        tree.for_each_leaf(|block, depth, pts| {
            if depth > morton::MORTON_BITS {
                too_deep = Some(too_deep.map_or(depth, |d| d.max(depth)));
                return;
            }
            // The block's Morton range: its low corner's code is the
            // smallest in the block; a depth-d block spans
            // 4^(MORTON_BITS − d) codes.
            let corner = Point2::new(block.x().lo(), block.y().lo());
            let code_lo = morton::morton_of_point(&corner, &region);
            leaves.push(LeafEntry {
                code_lo,
                code_hi: code_lo + morton::cells_at_depth(depth),
                depth,
                points_start: points.len() as u32,
                points_len: pts.len() as u32,
            });
            blocks.push(block);
            points.extend_from_slice(pts);
        });
        if let Some(depth) = too_deep {
            return Err(FreezeError::DepthExceedsMortonBits {
                depth,
                max: morton::MORTON_BITS,
            });
        }
        let mut order: Vec<usize> = (0..leaves.len()).collect();
        order.sort_by_key(|&i| leaves[i].code_lo);
        let leaves: Vec<LeafEntry> = order.iter().map(|&i| leaves[i].clone()).collect();
        let blocks: Vec<Rect> = order.iter().map(|&i| blocks[i]).collect();
        // The snapshot is immutable from here on; return the incremental
        // growth slack so the footprint accounting is exact.
        points.shrink_to_fit();
        Ok(LinearQuadtree {
            region,
            directory: prefix_directory(&leaves).collect(),
            leaves,
            blocks,
            points,
        })
    }

    /// Crate-internal assembly for the direct freeze path
    /// ([`LinearQuadtree::from_points_direct`]), which emits leaves
    /// already in ascending Morton order and so skips both the pointer
    /// tree and the `from_tree` sort. The builder enforces nothing at
    /// push time; [`LinearQuadtree::check_invariants`] and the
    /// differential suites pin the result against the `from_tree` route.
    pub(crate) fn assemble(builder: LinearBuilder, region: Rect) -> Self {
        let LinearBuilder {
            mut leaves,
            mut blocks,
            mut points,
        } = builder;
        // Freeze contract: every slab at exact capacity, so the
        // footprint is a linear function of the lengths.
        leaves.shrink_to_fit();
        blocks.shrink_to_fit();
        points.shrink_to_fit();
        LinearQuadtree {
            region,
            directory: prefix_directory(&leaves).collect(),
            leaves,
            blocks,
            points,
        }
    }

    /// The region covered.
    pub fn region(&self) -> Rect {
        self.region
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when no points are stored.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Number of leaf records.
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// The geometric block of leaf `i` (freeze order, ascending Morton).
    pub fn leaf_block(&self, i: usize) -> Rect {
        self.blocks[i]
    }

    /// All stored points, grouped by leaf in ascending Morton order.
    pub fn points(&self) -> &[Point2] {
        &self.points
    }

    fn leaf_points(&self, l: &LeafEntry) -> &[Point2] {
        &self.points[l.points_start as usize..(l.points_start + l.points_len) as usize]
    }

    /// The one leaf search behind every snapshot query: the first leaf
    /// at or after `from` whose `code_hi` passes `code`. On a tiling
    /// slab that is `max(from, leaves.partition_point(|l| l.code_hi <=
    /// code))`, and with `from = 0` it is the leaf containing `code`.
    ///
    /// The directory bounds the answer to the leaves between the entries
    /// of `code`'s depth-6 prefix and the next one; the search gallops
    /// from `max(from, that first entry)`, so a sweep whose cursor is
    /// already past the entry pays O(log distance), not O(log leaves).
    /// Only `get` and slice-safe forms: on any slab, sorted or not, the
    /// result lies in `[from, max(from, len)]`.
    pub fn leaf_search(&self, from: usize, code: u64) -> usize {
        let len = self.leaves.len();
        let entry = |q: usize| self.directory.get(q).map_or(len, |&i| len.min(i as usize));
        let q = (code >> DIRECTORY_SHIFT) as usize;
        let lo = from.max(entry(q));
        let run = self.leaves.get(lo..entry(q + 1)).unwrap_or_default();
        lo + gallop(run, |l| l.code_hi <= code)
    }

    fn leaf_index_of(&self, p: &Point2) -> Option<usize> {
        if !self.region.contains(p) {
            return None;
        }
        let code = morton::morton_of_point(p, &self.region);
        let i = self.leaf_search(0, code);
        self.leaves.get(i).filter(|l| l.code_lo <= code).map(|_| i)
    }

    /// The points stored in the leaf block containing `p` (empty slice
    /// when `p` is outside the region).
    pub fn block_points(&self, p: &Point2) -> &[Point2] {
        match self.leaf_index_of(p).and_then(|i| self.leaves.get(i)) {
            Some(l) => self.leaf_points(l),
            None => &[],
        }
    }

    /// `true` when an exactly equal point is stored.
    pub fn contains(&self, p: &Point2) -> bool {
        self.block_points(p).contains(p)
    }

    /// The depth of the leaf block containing `p`.
    pub fn block_depth(&self, p: &Point2) -> Option<u32> {
        self.leaf_index_of(p)
            .and_then(|i| self.leaves.get(i))
            .map(|l| l.depth)
    }

    /// All stored points inside `query` (allocating convenience form of
    /// [`LinearQuadtree::range_query_into`]). Leaf-order output, same as
    /// the pointer tree's `range_query`.
    pub fn range_query(&self, query: &Rect) -> Vec<Point2> {
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        self.range_query_into(query, &mut scratch, &mut out);
        out
    }

    /// Appends all stored points inside `query` to `out` (cleared
    /// first), in leaf order: the budgeted sweep
    /// ([`LinearQuadtree::range_query_bounded_into`]) under
    /// [`CostBudget::unbounded`], without the canonical sort.
    ///
    /// The query rectangle is decomposed into Morton spans
    /// ([`morton::decompose_ranges_into`]); a single monotone cursor
    /// sweep over the sorted leaves then visits each candidate leaf
    /// exactly once. Leaves wholly inside a *covered* span bulk-copy
    /// their points without the per-point rectangle test; boundary
    /// leaves filter. Allocation-free once `scratch` and `out` have
    /// warmed to the workload's high-water marks.
    pub fn range_query_into(
        &self,
        query: &Rect,
        scratch: &mut QueryScratch,
        out: &mut Vec<Point2>,
    ) {
        out.clear();
        self.range_sweep(
            query,
            &CostBudget::unbounded(),
            scratch,
            copy_all,
            copy_inside,
            out,
        );
    }

    /// Counts stored points inside `query` without materializing them
    /// (allocating convenience form of
    /// [`LinearQuadtree::count_in_range_with`]).
    pub fn count_in_range(&self, query: &Rect) -> usize {
        self.count_in_range_with(query, &mut QueryScratch::new())
    }

    /// Counts stored points inside `query`: the budgeted sweep under
    /// [`CostBudget::unbounded`]. Leaves wholly inside a covered span
    /// are counted off the flat offsets — their points are never
    /// touched — so counts over large rectangles cost one directory
    /// lookup and a short gallop per span plus the boundary points.
    pub fn count_in_range_with(&self, query: &Rect, scratch: &mut QueryScratch) -> usize {
        let mut count = 0usize;
        self.range_sweep(
            query,
            &CostBudget::unbounded(),
            scratch,
            count_all,
            count_inside,
            &mut count,
        );
        count
    }

    /// The span-decomposed leaf sweep behind every range path: calls
    /// `bulk` for leaves wholly inside a covered span and `filter` for
    /// boundary leaves, each leaf at most once, in ascending Morton
    /// order, charging each leaf to `budget` before reading it. Returns
    /// the work performed and, when the budget ran out, the resume point
    /// `(span index, leaf cursor)` of the first leaf it could not afford.
    fn range_sweep<Acc>(
        &self,
        query: &Rect,
        budget: &CostBudget,
        scratch: &mut QueryScratch,
        mut bulk: impl FnMut(&[Point2], &mut Acc),
        mut filter: impl FnMut(&[Point2], &Rect, &mut Acc),
        acc: &mut Acc,
    ) -> (QueryCost, Option<(usize, usize)>) {
        let mut cost = QueryCost::default();
        if !self.region.overlaps(query) {
            scratch.spans.clear();
            return (cost, None);
        }
        morton::decompose_ranges_into(
            query,
            &self.region,
            RANGE_DECOMPOSE_DEPTH,
            &mut scratch.spans,
        );
        let mut cursor = 0usize;
        for (si, span) in scratch.spans.iter().enumerate() {
            // Skip leaves that end before this span starts. The cursor
            // never moves backwards: spans ascend and a leaf processed
            // under an earlier span was filtered against the full query,
            // so re-visiting it would double-report.
            cursor = self.leaf_search(cursor, span.lo);
            while let Some(l) = self.leaves.get(cursor).filter(|l| l.code_lo < span.hi) {
                let pts = u64::from(l.points_len);
                if cost.leaf_visits + 1 > budget.leaf_visits
                    || cost.point_visits + pts > budget.point_visits
                {
                    return (cost, Some((si, cursor)));
                }
                cost.leaf_visits += 1;
                cost.point_visits += pts;
                if span.covered && span.lo <= l.code_lo && l.code_hi <= span.hi {
                    // Covered span ⊇ leaf block: every point matches.
                    bulk(self.leaf_points(l), acc);
                } else {
                    filter(self.leaf_points(l), query, acc);
                }
                cursor += 1;
            }
        }
        (cost, None)
    }

    /// The `k` stored points nearest to `target` under the canonical
    /// order (allocating convenience form of
    /// [`LinearQuadtree::k_nearest_into`]).
    pub fn k_nearest(&self, target: &Point2, k: usize) -> Vec<Point2> {
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        self.k_nearest_into(target, k, &mut scratch, &mut out);
        out
    }

    /// Writes the `k` stored points nearest to `target` into `out`
    /// (cleared first), nearest first; fewer when the snapshot holds
    /// fewer than `k` points. This is the budgeted scan
    /// ([`LinearQuadtree::k_nearest_bounded_into`]) under
    /// [`CostBudget::unbounded`].
    ///
    /// Ordering and tie-breaking follow [`knn_cmp`]: squared distance,
    /// then canonical point order — fully deterministic even for
    /// coincident piles and equidistant rings. The scan seeds its bound
    /// from the leaf containing `target`, then sweeps the flat leaf
    /// slab, pruning every leaf whose block cannot *strictly* beat the
    /// current k-th candidate (strict, so equal-distance ties are still
    /// examined and resolved canonically).
    pub fn k_nearest_into(
        &self,
        target: &Point2,
        k: usize,
        scratch: &mut QueryScratch,
        out: &mut Vec<Point2>,
    ) {
        out.clear();
        self.knn_scan(target, k, &CostBudget::unbounded(), scratch);
        out.extend(scratch.best.iter().map(|&(_, p)| p));
    }

    /// The leaf-scan behind both k-NN paths: the seed leaf (the one
    /// containing `target`) first, then every other leaf in Morton
    /// order. A leaf whose block cannot strictly beat the current k-th
    /// candidate is pruned (no slab traffic, not charged); every other
    /// leaf is charged to `budget` before its points are folded into
    /// `scratch.best`. Returns the work performed and, when the budget
    /// ran out, the index of the first leaf it could not afford.
    fn knn_scan(
        &self,
        target: &Point2,
        k: usize,
        budget: &CostBudget,
        scratch: &mut QueryScratch,
    ) -> (QueryCost, Option<usize>) {
        scratch.best.clear();
        let mut cost = QueryCost::default();
        if k == 0 || self.points.is_empty() {
            return (cost, None);
        }
        scratch.best.reserve(k + 1);
        // Charges and scans one leaf; `None` when the budget cannot
        // afford it, else the new k-th candidate distance — infinite
        // until the list is full, so nothing is pruned before then (the
        // seed in particular never is).
        let visit = |l: &LeafEntry, cost: &mut QueryCost, best: &mut Vec<(f64, Point2)>| {
            let pts = u64::from(l.points_len);
            if cost.leaf_visits + 1 > budget.leaf_visits
                || cost.point_visits + pts > budget.point_visits
            {
                return None;
            }
            cost.leaf_visits += 1;
            cost.point_visits += pts;
            Self::knn_scan_leaf(self.leaf_points(l), target, k, best);
            Some(match best.last() {
                Some(&(d, _)) if best.len() == k => d,
                _ => f64::INFINITY,
            })
        };
        let seed = self.leaf_index_of(target);
        let mut worst = f64::INFINITY;
        if let Some((i, l)) = seed.and_then(|i| self.leaves.get(i).map(|l| (i, l))) {
            match visit(l, &mut cost, &mut scratch.best) {
                Some(w) => worst = w,
                None => return (cost, Some(i)),
            }
        }
        for (i, (l, block)) in self.leaves.iter().zip(&self.blocks).enumerate() {
            if Some(i) == seed || min_dist_squared(block, target) > worst {
                continue;
            }
            match visit(l, &mut cost, &mut scratch.best) {
                Some(w) => worst = w,
                None => return (cost, Some(i)),
            }
        }
        (cost, None)
    }

    /// Folds one leaf's points into the sorted candidate list.
    fn knn_scan_leaf(points: &[Point2], target: &Point2, k: usize, best: &mut Vec<(f64, Point2)>) {
        for p in points {
            let cand = (p.distance_squared(target), *p);
            if best.len() == k && knn_cmp(&cand, &best[k - 1]) == std::cmp::Ordering::Greater {
                continue;
            }
            let pos = best.partition_point(|e| knn_cmp(e, &cand) != std::cmp::Ordering::Greater);
            best.insert(pos, cand);
            if best.len() > k {
                best.pop();
            }
        }
    }

    /// Budgeted range query: like
    /// [`LinearQuadtree::range_query_into`], but stops when `budget` is
    /// exhausted and degrades to the **guaranteed canonical prefix** of
    /// the full answer instead of running unbounded work.
    ///
    /// `out` is always sorted by [`Point2::canonical_cmp`]. On
    /// [`BoundedOutcome::Partial`], every returned point is a true
    /// answer and *no* canonically-smaller answer is missing: the sweep
    /// stops at the first leaf it cannot afford, takes the canonically
    /// smallest possible answer point any unexamined candidate leaf
    /// could contain (the canonical-min corner of `block ∩ query`), and
    /// trims the collected answers strictly below that bound. The result
    /// is exactly the full answer's canonical prefix below the bound.
    pub fn range_query_bounded_into(
        &self,
        query: &Rect,
        budget: &CostBudget,
        scratch: &mut QueryScratch,
        out: &mut Vec<Point2>,
    ) -> BoundedOutcome {
        out.clear();
        let (visited, exhausted) =
            self.range_sweep(query, budget, scratch, copy_all, copy_inside, out);
        out.sort_unstable_by(Point2::canonical_cmp);
        match exhausted.and_then(|resume| self.truncation_bound(query, scratch, resume)) {
            // Every unexamined leaf was outside the query: the answer is
            // in fact complete.
            None => BoundedOutcome::Complete { visited },
            Some((bound, truncated_spans)) => {
                let keep = out.partition_point(|p| p.canonical_cmp(&bound) == Ordering::Less);
                out.truncate(keep);
                BoundedOutcome::Partial {
                    visited,
                    truncated_spans,
                }
            }
        }
    }

    /// Budgeted count: returns `(count, outcome)` where on
    /// [`BoundedOutcome::Partial`] the count equals
    /// `range_query_bounded_into(..).len()` under the same budget — the
    /// size of the guaranteed canonical prefix. No answer is
    /// materialized: after exhaustion the sweep re-runs with a budget
    /// equal to the work already spent, which stops at the same leaf,
    /// and counts the answers canonically below the truncation bound. A
    /// partial count therefore costs at most twice the point budget.
    pub fn count_in_range_bounded_with(
        &self,
        query: &Rect,
        budget: &CostBudget,
        scratch: &mut QueryScratch,
    ) -> (usize, BoundedOutcome) {
        let mut count = 0usize;
        let (visited, exhausted) =
            self.range_sweep(query, budget, scratch, count_all, count_inside, &mut count);
        let Some((bound, truncated_spans)) =
            exhausted.and_then(|resume| self.truncation_bound(query, scratch, resume))
        else {
            return (count, BoundedOutcome::Complete { visited });
        };
        let below = |p: &&Point2| p.canonical_cmp(&bound) == Ordering::Less;
        let mut kept = 0usize;
        self.range_sweep(
            query,
            &CostBudget::new(visited.leaf_visits, visited.point_visits),
            scratch,
            |points, kept| *kept += points.iter().filter(below).count(),
            |points, query, kept| {
                *kept += points
                    .iter()
                    .filter(|p| query.contains(p))
                    .filter(below)
                    .count();
            },
            &mut kept,
        );
        (
            kept,
            BoundedOutcome::Partial {
                visited,
                truncated_spans,
            },
        )
    }

    /// Enumerates the candidate leaves an exhausted sweep never reached
    /// (resuming at `(span index, leaf cursor)`) and returns the
    /// canonically smallest point any of them could contribute, plus
    /// their count. `None` means no unexamined leaf overlaps the query —
    /// the answer was complete after all.
    fn truncation_bound(
        &self,
        query: &Rect,
        scratch: &QueryScratch,
        resume: (usize, usize),
    ) -> Option<(Point2, usize)> {
        let (si, mut cursor) = resume;
        let mut bound: Option<Point2> = None;
        let mut truncated = 0usize;
        for span in scratch.spans.get(si..).unwrap_or_default() {
            cursor = self.leaf_search(cursor, span.lo);
            while let Some((_, b)) = self
                .leaves
                .get(cursor)
                .zip(self.blocks.get(cursor))
                .filter(|(l, _)| l.code_lo < span.hi)
            {
                if b.overlaps(query) {
                    truncated += 1;
                    let corner = Point2::new(
                        b.x().lo().max(query.x().lo()),
                        b.y().lo().max(query.y().lo()),
                    );
                    bound = Some(match bound {
                        Some(cur) if cur.canonical_cmp(&corner) != Ordering::Greater => cur,
                        _ => corner,
                    });
                }
                cursor += 1;
            }
        }
        bound.map(|b| (b, truncated))
    }

    /// Budgeted k-NN: like [`LinearQuadtree::k_nearest_into`], but stops
    /// scanning leaves when `budget` is exhausted and trims the
    /// candidate list to the **guaranteed prefix** of the true answer
    /// under [`knn_cmp`]: only candidates strictly closer than any
    /// unreached leaf's nearest possible point survive, so every
    /// returned neighbor is a true `i`-th nearest neighbor.
    ///
    /// Leaves the scan *pruned* do not cap the prefix: a leaf is pruned
    /// only when its nearest possible point is farther than the k-th
    /// candidate at that moment, and that distance only shrinks, so a
    /// pruned leaf can never undercut a kept candidate. The bound is
    /// therefore the minimum over the leaves the scan had not reached.
    /// `truncated_spans` counts every leaf not scanned, pruned ones
    /// included.
    pub fn k_nearest_bounded_into(
        &self,
        target: &Point2,
        k: usize,
        budget: &CostBudget,
        scratch: &mut QueryScratch,
        out: &mut Vec<Point2>,
    ) -> BoundedOutcome {
        out.clear();
        let (visited, exhausted) = self.knn_scan(target, k, budget, scratch);
        let Some(stop) = exhausted else {
            out.extend(scratch.best.iter().map(|&(_, p)| p));
            return BoundedOutcome::Complete { visited };
        };
        // Unreached: every leaf from `stop` on, except the seed when it
        // was scanned first; all of them when the seed itself was
        // unaffordable.
        let seed = self.leaf_index_of(target);
        let from = if seed == Some(stop) { 0 } else { stop };
        let bound = self
            .blocks
            .iter()
            .enumerate()
            .skip(from)
            .filter(|&(j, _)| j == stop || Some(j) != seed)
            .map(|(_, b)| min_dist_squared(b, target))
            .fold(f64::INFINITY, f64::min);
        out.extend(
            scratch
                .best
                .iter()
                .take_while(|&&(d, _)| d < bound)
                .map(|&(_, p)| p),
        );
        BoundedOutcome::Partial {
            visited,
            truncated_spans: self.leaves.len() - visited.leaf_visits as usize,
        }
    }

    /// Heap footprint in bytes across every slab. Counts *allocated
    /// capacity*, not live length — before PR 8 this under-reported the
    /// point slab's growth slack; the freeze now shrinks the slabs so
    /// the two coincide, and [`LinearQuadtree::footprint`] breaks the
    /// total down per slab.
    pub fn heap_bytes(&self) -> usize {
        self.footprint().total()
    }

    /// Per-slab heap bytes (allocated capacity).
    pub fn footprint(&self) -> SlabFootprint {
        SlabFootprint {
            leaves: self.leaves.capacity() * std::mem::size_of::<LeafEntry>(),
            blocks: self.blocks.capacity() * std::mem::size_of::<Rect>(),
            points: self.points.capacity() * std::mem::size_of::<Point2>(),
            directory: self.directory.capacity() * std::mem::size_of::<u32>(),
        }
    }

    /// `true` when the prefix directory equals its re-derivation from
    /// the leaf slab. The directory is derived data and in no digest, so
    /// `Snapshot::verify` checks it this way and reports a mismatch as
    /// leaf-slab damage.
    pub fn directory_is_consistent(&self) -> bool {
        self.directory
            .iter()
            .copied()
            .eq(prefix_directory(&self.leaves))
    }

    /// Digests of the frozen slabs (DESIGN.md §12): one per section
    /// over that slab's canonical word stream (four-lane word-at-a-time
    /// [`Mix64x4`] — the slabs are megabytes at serving scale, and the
    /// byte-serial FNV chain would double the freeze cost), plus a
    /// combined FNV-1a digest folding in the region bounds and slab
    /// lengths. The epoch is deliberately *not* part of any digest —
    /// the publisher re-stamps epochs at publish time and that must not
    /// invalidate the checksum.
    pub fn section_digests(&self) -> SectionDigests {
        // Each record maps onto one bulk absorb (a leaf record and a
        // block rect are four words; a pair of points is four), keeping
        // the multiply lanes saturated instead of paying round-robin
        // bookkeeping per word.
        let mut h = Mix64x4::new();
        h.write_word(self.leaves.len() as u64);
        for l in &self.leaves {
            // Two u32 fields share a word; points_len gets its own so
            // every field lands at a fixed word-lane position.
            h.write_words4([
                l.code_lo,
                l.code_hi,
                u64::from(l.depth) << 32 | u64::from(l.points_start),
                u64::from(l.points_len),
            ]);
        }
        let leaves = h.finish();

        let mut h = Mix64x4::new();
        h.write_word(self.blocks.len() as u64);
        for b in &self.blocks {
            h.write_words4([
                b.x().lo().to_bits(),
                b.x().hi().to_bits(),
                b.y().lo().to_bits(),
                b.y().hi().to_bits(),
            ]);
        }
        let blocks = h.finish();

        let mut h = Mix64x4::new();
        h.write_word(self.points.len() as u64);
        let mut pairs = self.points.chunks_exact(2);
        for pair in &mut pairs {
            h.write_words4([
                pair[0].x.to_bits(),
                pair[0].y.to_bits(),
                pair[1].x.to_bits(),
                pair[1].y.to_bits(),
            ]);
        }
        for p in pairs.remainder() {
            h.write_f64(p.x);
            h.write_f64(p.y);
        }
        let points = h.finish();

        let mut h = Fnv64::new();
        h.write_f64(self.region.x().lo());
        h.write_f64(self.region.x().hi());
        h.write_f64(self.region.y().lo());
        h.write_f64(self.region.y().hi());
        h.write_u64(self.leaves.len() as u64);
        h.write_u64(self.points.len() as u64);
        h.write_u64(leaves);
        h.write_u64(blocks);
        h.write_u64(points);
        SectionDigests {
            leaves,
            blocks,
            points,
            combined: h.finish(),
        }
    }

    /// **Fault-injection machinery** — flips one bit inside the chosen
    /// frozen slab, deterministically addressed by `bit` (taken modulo
    /// the section's total bit width, so any `u64` names a valid bit).
    /// Returns `false` when the section is empty and nothing could be
    /// damaged.
    ///
    /// This exists so the serving-path chaos suite (`popan-query`
    /// `tests/chaos.rs`, driven by `popan-engine`'s
    /// `Fault::Corrupt(..)`) can prove that `Snapshot::verify` catches
    /// arbitrary single-bit slab damage before a corrupt snapshot is
    /// published. The damaged index may violate every structural
    /// invariant — it must be quarantined, never queried.
    pub fn corrupt_slab_bit(&mut self, section: SnapshotSection, bit: u64) -> bool {
        match section {
            SnapshotSection::Leaves => {
                // 224 bits per record: code_lo | code_hi | depth |
                // points_start | points_len.
                if self.leaves.is_empty() {
                    return false;
                }
                let b = bit % (self.leaves.len() as u64 * 224);
                let l = &mut self.leaves[(b / 224) as usize];
                match b % 224 {
                    o @ 0..=63 => l.code_lo ^= 1 << o,
                    o @ 64..=127 => l.code_hi ^= 1 << (o - 64),
                    o @ 128..=159 => l.depth ^= 1 << (o - 128),
                    o @ 160..=191 => l.points_start ^= 1 << (o - 160),
                    o => l.points_len ^= 1 << (o - 192),
                }
            }
            SnapshotSection::Blocks => {
                // 256 bits per rect: x.lo | x.hi | y.lo | y.hi. The
                // damaged bounds may be inverted or non-finite; the
                // unchecked constructor is exactly for this.
                if self.blocks.is_empty() {
                    return false;
                }
                let b = bit % (self.blocks.len() as u64 * 256);
                let r = &mut self.blocks[(b / 256) as usize];
                let mut bounds = [
                    r.x().lo().to_bits(),
                    r.x().hi().to_bits(),
                    r.y().lo().to_bits(),
                    r.y().hi().to_bits(),
                ];
                let o = b % 256;
                bounds[(o / 64) as usize] ^= 1 << (o % 64);
                *r = Rect::new(
                    Interval::from_raw_unchecked(
                        f64::from_bits(bounds[0]),
                        f64::from_bits(bounds[1]),
                    ),
                    Interval::from_raw_unchecked(
                        f64::from_bits(bounds[2]),
                        f64::from_bits(bounds[3]),
                    ),
                );
            }
            SnapshotSection::Points => {
                // 128 bits per point: x | y.
                if self.points.is_empty() {
                    return false;
                }
                let b = bit % (self.points.len() as u64 * 128);
                let p = &mut self.points[(b / 128) as usize];
                let o = b % 128;
                if o < 64 {
                    p.x = f64::from_bits(p.x.to_bits() ^ (1 << o));
                } else {
                    p.y = f64::from_bits(p.y.to_bits() ^ (1 << (o - 64)));
                }
            }
        }
        true
    }

    /// **Fault-injection machinery** — flips one bit of the prefix
    /// directory (taken modulo its bit width), leaving every slab and
    /// digest intact, so tests can prove that `Snapshot::verify` catches
    /// damage to derived data no digest covers.
    pub fn corrupt_directory_bit(&mut self, bit: u64) {
        let b = bit % (DIRECTORY_LEN as u64 * 32);
        if let Some(entry) = self.directory.get_mut((b / 32) as usize) {
            *entry ^= 1 << (b % 32);
        }
    }

    /// Verifies that leaf ranges are sorted, disjoint, and tile the full
    /// Morton range, that blocks stay parallel to leaves, and that the
    /// prefix directory equals its re-derivation; panics on violation.
    pub fn check_invariants(&self) {
        assert!(!self.leaves.is_empty(), "at least the root leaf exists");
        assert_eq!(self.leaves.len(), self.blocks.len(), "blocks track leaves");
        let full_span = morton::cells_at_depth(0);
        assert_eq!(self.leaves[0].code_lo, 0, "first leaf starts at 0");
        for w in self.leaves.windows(2) {
            assert_eq!(w[0].code_hi, w[1].code_lo, "leaf ranges must be contiguous");
        }
        assert_eq!(
            self.leaves.last().expect("non-empty").code_hi,
            full_span,
            "last leaf ends the space"
        );
        let total: u32 = self.leaves.iter().map(|l| l.points_len).sum();
        assert_eq!(total as usize, self.points.len());
        for (l, b) in self.leaves.iter().zip(&self.blocks) {
            let corner = Point2::new(b.x().lo(), b.y().lo());
            assert_eq!(
                morton::morton_of_point(&corner, &self.region),
                l.code_lo,
                "block corner must reproduce the locational code"
            );
        }
        assert!(
            self.directory_is_consistent(),
            "prefix directory must equal its re-derivation"
        );
    }
}

/// The prefix directory of a Morton-sorted leaf slab, entry by entry:
/// entry `q` is the first leaf whose `code_hi` passes `q <<
/// DIRECTORY_SHIFT`, the first code of depth-6 prefix `q`, for `q` in
/// `0..=4096` (the closing entry is the slab length). One merge pass,
/// O(leaves + 4096): collected at freeze, compared in place at `verify`.
fn prefix_directory(leaves: &[LeafEntry]) -> impl Iterator<Item = u32> + '_ {
    let mut i = 0usize;
    (0..DIRECTORY_LEN as u64).map(move |q| {
        let start = q << DIRECTORY_SHIFT;
        while leaves.get(i).is_some_and(|l| l.code_hi <= start) {
            i += 1;
        }
        i as u32
    })
}

/// Exponential search: the partition point of `pred` over `run` (the
/// first index where it fails, given it holds on a prefix). Probes at
/// gaps 1, 2, 4, … from the front and binary-searches only the last
/// bracket, so an answer `d` places in costs O(log d). Panic-free on any
/// input; the result is in `[0, run.len()]`.
fn gallop<T>(run: &[T], pred: impl Fn(&T) -> bool) -> usize {
    let mut base = 0usize;
    let mut step = 1usize;
    while run.get(base + step - 1).is_some_and(&pred) {
        base += step;
        step *= 2;
    }
    let end = run.len().min(base + step);
    base + run.get(base..end).map_or(0, |r| r.partition_point(&pred))
}

/// Range-sweep accumulators: copy or count a covered leaf whole, or
/// only the points of a boundary leaf that fall inside the query.
fn copy_all(points: &[Point2], out: &mut Vec<Point2>) {
    out.extend_from_slice(points);
}

fn copy_inside(points: &[Point2], query: &Rect, out: &mut Vec<Point2>) {
    out.extend(points.iter().filter(|p| query.contains(p)).copied());
}

fn count_all(points: &[Point2], count: &mut usize) {
    *count += points.len();
}

fn count_inside(points: &[Point2], query: &Rect, count: &mut usize) {
    *count += points.iter().filter(|p| query.contains(p)).count();
}

/// Smallest squared distance from `p` to any point of `block`.
fn min_dist_squared(block: &Rect, p: &Point2) -> f64 {
    let dx = (block.x().lo() - p.x).max(p.x - block.x().hi()).max(0.0);
    let dy = (block.y().lo() - p.y).max(p.y - block.y().hi()).max(0.0);
    dx * dx + dy * dy
}

impl TryFrom<&PrQuadtree> for LinearQuadtree {
    type Error = FreezeError;

    fn try_from(tree: &PrQuadtree) -> Result<Self, FreezeError> {
        LinearQuadtree::from_tree(tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popan_rng::rngs::StdRng;
    use popan_rng::SeedableRng;
    use popan_workload::points::{PointSource, UniformRect};

    fn build_pair(n: usize, capacity: usize, seed: u64) -> (PrQuadtree, LinearQuadtree) {
        let mut rng = StdRng::seed_from_u64(seed);
        let points = UniformRect::unit().sample_n(&mut rng, n);
        let tree = PrQuadtree::build(Rect::unit(), capacity, points).unwrap();
        let linear = LinearQuadtree::from_tree(&tree).unwrap();
        (tree, linear)
    }

    #[test]
    fn empty_tree_freezes_to_single_leaf() {
        let tree = PrQuadtree::new(Rect::unit(), 1).unwrap();
        let linear = LinearQuadtree::from_tree(&tree).unwrap();
        assert!(linear.is_empty());
        assert_eq!(linear.leaf_count(), 1);
        linear.check_invariants();
    }

    #[test]
    fn ranges_tile_the_space() {
        let (_, linear) = build_pair(500, 2, 1);
        linear.check_invariants();
    }

    #[test]
    fn freeze_rejects_leaves_below_morton_resolution() {
        // Two points that separate only at depth 32 — representable in
        // the pointer tree (DEFAULT_MAX_DEPTH = 32) but one level below
        // the 31-bit Morton grid. The pre-PR 6 freeze silently clamped
        // the span, aliasing the two sibling blocks onto one code; now
        // the freeze refuses with a typed error.
        let step = (0.5f64).powi(32);
        let mut tree = PrQuadtree::new(Rect::unit(), 1).unwrap();
        tree.insert(Point2::new(0.0, 0.0)).unwrap();
        tree.insert(Point2::new(step, 0.0)).unwrap();
        let err = LinearQuadtree::from_tree(&tree).unwrap_err();
        assert_eq!(
            err,
            FreezeError::DepthExceedsMortonBits {
                depth: 32,
                max: morton::MORTON_BITS,
            }
        );
        assert!(err.to_string().contains("alias"), "{err}");
    }

    #[test]
    fn freeze_accepts_max_representable_depth() {
        // Separation exactly at depth 31 = MORTON_BITS: the deepest
        // representable leaf level must still freeze.
        let step = (0.5f64).powi(31);
        let mut tree = PrQuadtree::new(Rect::unit(), 1).unwrap();
        tree.insert(Point2::new(0.0, 0.0)).unwrap();
        tree.insert(Point2::new(step, 0.0)).unwrap();
        let linear = LinearQuadtree::from_tree(&tree).unwrap();
        linear.check_invariants();
        assert_eq!(linear.len(), 2);
        assert!(linear.contains(&Point2::new(step, 0.0)));
    }

    #[test]
    fn contains_matches_pointer_tree() {
        let (tree, linear) = build_pair(400, 3, 2);
        assert_eq!(linear.len(), tree.len());
        assert_eq!(linear.leaf_count(), tree.leaf_count());
        for p in tree.points() {
            assert!(linear.contains(&p), "{p}");
        }
        let mut rng = StdRng::seed_from_u64(3);
        for p in UniformRect::unit().sample_n(&mut rng, 200) {
            assert_eq!(linear.contains(&p), tree.contains(&p), "{p}");
        }
        assert!(!linear.contains(&Point2::new(2.0, 2.0)));
    }

    #[test]
    fn block_depth_matches_leaf_records() {
        use crate::node_stats::OccupancyInstrumented;
        let (tree, linear) = build_pair(300, 1, 4);
        // Every stored point's block depth appears in the tree's records.
        let depths: std::collections::BTreeSet<u32> =
            tree.leaf_records().iter().map(|r| r.depth).collect();
        for p in tree.points() {
            let d = linear.block_depth(&p).unwrap();
            assert!(depths.contains(&d), "depth {d}");
        }
        assert_eq!(linear.block_depth(&Point2::new(-1.0, 0.0)), None);
    }

    #[test]
    fn block_points_returns_the_leaf_contents() {
        let tree = PrQuadtree::build(
            Rect::unit(),
            2,
            [
                Point2::new(0.1, 0.1),
                Point2::new(0.15, 0.12),
                Point2::new(0.9, 0.9),
            ],
        )
        .unwrap();
        let linear = LinearQuadtree::from_tree(&tree).unwrap();
        let blk = linear.block_points(&Point2::new(0.12, 0.11));
        assert_eq!(blk.len(), 2);
        assert!(linear.block_points(&Point2::new(5.0, 5.0)).is_empty());
    }

    #[test]
    fn range_query_matches_pointer_tree() {
        let (tree, linear) = build_pair(600, 2, 5);
        for rect in [
            Rect::from_bounds(0.1, 0.2, 0.5, 0.9),
            Rect::from_bounds(0.0, 0.0, 1.0, 1.0),
            Rect::from_bounds(0.48, 0.48, 0.52, 0.52),
            Rect::from_bounds(0.9, 0.9, 0.95, 0.95),
        ] {
            let mut a = linear.range_query(&rect);
            let mut b = tree.range_query(&rect);
            a.sort_by(Point2::canonical_cmp);
            b.sort_by(Point2::canonical_cmp);
            assert_eq!(a, b, "{rect}");
        }
    }

    #[test]
    fn count_in_range_matches_range_query() {
        let (tree, linear) = build_pair(900, 3, 9);
        let mut scratch = QueryScratch::new();
        for rect in [
            Rect::from_bounds(0.0, 0.0, 1.0, 1.0),
            Rect::from_bounds(0.1, 0.2, 0.5, 0.9),
            Rect::from_bounds(0.25, 0.25, 0.75, 0.75),
            Rect::from_bounds(0.001, 0.001, 0.002, 0.002),
            Rect::from_bounds(0.5, 0.5, 0.500001, 0.500001),
        ] {
            assert_eq!(
                linear.count_in_range_with(&rect, &mut scratch),
                linear.range_query(&rect).len(),
                "{rect}"
            );
            assert_eq!(
                linear.count_in_range(&rect),
                tree.count_in_range(&rect),
                "{rect}"
            );
        }
    }

    #[test]
    fn range_query_outside_region_is_empty() {
        let (_, linear) = build_pair(100, 2, 6);
        assert!(linear
            .range_query(&Rect::from_bounds(2.0, 2.0, 3.0, 3.0))
            .is_empty());
        assert_eq!(
            linear.count_in_range(&Rect::from_bounds(2.0, 2.0, 3.0, 3.0)),
            0
        );
    }

    #[test]
    fn k_nearest_matches_sorted_scan() {
        let (tree, linear) = build_pair(400, 2, 7);
        let all = tree.points();
        for target in [
            Point2::new(0.3, 0.7),
            Point2::new(0.0, 0.0),
            Point2::new(2.0, -1.0), // outside the region
        ] {
            for k in [0usize, 1, 5, 50, 400, 500] {
                let got = linear.k_nearest(&target, k);
                let mut expect: Vec<(f64, Point2)> = all
                    .iter()
                    .map(|p| (p.distance_squared(&target), *p))
                    .collect();
                expect.sort_by(knn_cmp);
                expect.truncate(k);
                let expect: Vec<Point2> = expect.into_iter().map(|(_, p)| p).collect();
                assert_eq!(got.len(), expect.len(), "k={k}");
                for (g, e) in got.iter().zip(&expect) {
                    assert_eq!(g.x.to_bits(), e.x.to_bits(), "target {target} k={k}");
                    assert_eq!(g.y.to_bits(), e.y.to_bits(), "target {target} k={k}");
                }
            }
        }
    }

    #[test]
    fn k_nearest_breaks_coincident_ties_canonically() {
        // A pile of coincident points plus an equidistant ring: the
        // canonical order must pick the same winners every time.
        let pts = [
            Point2::new(0.5, 0.5),
            Point2::new(0.5, 0.5),
            Point2::new(0.5, 0.5),
            Point2::new(0.4, 0.5), // distance 0.1 (west)
            Point2::new(0.6, 0.5), // distance 0.1 (east)
            Point2::new(0.5, 0.4), // distance 0.1 (south)
            Point2::new(0.5, 0.6), // distance 0.1 (north)
        ];
        let tree = PrQuadtree::build(Rect::unit(), 1, pts).unwrap();
        let linear = LinearQuadtree::from_tree(&tree).unwrap();
        let got = linear.k_nearest(&Point2::new(0.5, 0.5), 5);
        // Three coincident points first, then the two canonically
        // smallest ring points: (0.4,0.5) before (0.5,0.4).
        assert_eq!(got.len(), 5);
        assert_eq!(got[0], Point2::new(0.5, 0.5));
        assert_eq!(got[1], Point2::new(0.5, 0.5));
        assert_eq!(got[2], Point2::new(0.5, 0.5));
        assert_eq!(got[3], Point2::new(0.4, 0.5));
        assert_eq!(got[4], Point2::new(0.5, 0.4));
    }

    #[test]
    fn into_variants_reuse_buffers() {
        let (_, linear) = build_pair(500, 4, 8);
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        let q = Rect::from_bounds(0.2, 0.2, 0.8, 0.8);
        linear.range_query_into(&q, &mut scratch, &mut out);
        let first = out.clone();
        linear.range_query_into(&q, &mut scratch, &mut out);
        assert_eq!(first, out, "repeat query must be identical");
        linear.k_nearest_into(&Point2::new(0.5, 0.5), 10, &mut scratch, &mut out);
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn footprint_is_reported() {
        let (_, linear) = build_pair(1000, 4, 7);
        let bytes = linear.heap_bytes();
        assert!(bytes > 0);
        // Flat arrays: points (16 bytes each), leaves ~32 bytes, blocks
        // 32, plus the fixed 16 KB prefix directory.
        assert!(bytes < 1000 * 16 + linear.leaf_count() * 96 + DIRECTORY_LEN * 4 + 1024);
    }

    #[test]
    fn leaf_blocks_are_exposed_in_morton_order() {
        let (_, linear) = build_pair(200, 2, 11);
        for i in 0..linear.leaf_count() {
            let b = linear.leaf_block(i);
            assert!(Rect::unit().contains_rect(&b));
        }
    }

    #[test]
    fn footprint_accounts_every_slab_exactly() {
        let (_, linear) = build_pair(777, 3, 12);
        let fp = linear.footprint();
        // The freeze shrinks the slabs, so capacity == live length and
        // the accounting is exact per slab.
        assert_eq!(
            fp.points,
            linear.len() * std::mem::size_of::<Point2>(),
            "point slab"
        );
        assert_eq!(
            fp.blocks,
            linear.leaf_count() * std::mem::size_of::<Rect>(),
            "block slab"
        );
        assert_eq!(
            fp.leaves,
            linear.leaf_count() * std::mem::size_of::<LeafEntry>(),
            "leaf slab"
        );
        assert_eq!(
            fp.directory,
            DIRECTORY_LEN * std::mem::size_of::<u32>(),
            "prefix directory"
        );
        assert_eq!(
            fp.total(),
            fp.leaves + fp.blocks + fp.points + fp.directory,
            "total counts every slab"
        );
        assert_eq!(linear.heap_bytes(), fp.total());
    }

    #[test]
    fn section_digests_localize_damage() {
        let (_, linear) = build_pair(300, 2, 13);
        let clean = linear.section_digests();
        assert_eq!(clean, linear.section_digests(), "digests are pure");

        for (section, bit) in [
            (SnapshotSection::Leaves, 7u64),
            (SnapshotSection::Blocks, 1_000_003),
            (SnapshotSection::Points, 42),
        ] {
            let mut damaged = linear.clone();
            assert!(damaged.corrupt_slab_bit(section, bit));
            let d = damaged.section_digests();
            let changed = |s: SnapshotSection| match s {
                SnapshotSection::Leaves => d.leaves != clean.leaves,
                SnapshotSection::Blocks => d.blocks != clean.blocks,
                SnapshotSection::Points => d.points != clean.points,
            };
            for probe in [
                SnapshotSection::Leaves,
                SnapshotSection::Blocks,
                SnapshotSection::Points,
            ] {
                assert_eq!(
                    changed(probe),
                    probe == section,
                    "corrupting {section} must change exactly that digest ({probe})"
                );
            }
            assert_ne!(d.combined, clean.combined, "{section}");
        }
    }

    #[test]
    fn corrupting_an_empty_section_is_a_no_op() {
        let tree = PrQuadtree::new(Rect::unit(), 1).unwrap();
        let mut linear = LinearQuadtree::from_tree(&tree).unwrap();
        assert!(!linear.corrupt_slab_bit(SnapshotSection::Points, 5));
        // Leaves/blocks always hold at least the root record.
        assert!(linear.corrupt_slab_bit(SnapshotSection::Leaves, 5));
    }

    #[test]
    fn unbounded_budget_reproduces_the_full_answers() {
        let (_, linear) = build_pair(800, 3, 14);
        let budget = CostBudget::unbounded();
        let mut scratch = QueryScratch::new();
        let mut bounded = Vec::new();
        for rect in [
            Rect::from_bounds(0.1, 0.2, 0.5, 0.9),
            Rect::from_bounds(0.0, 0.0, 1.0, 1.0),
            Rect::from_bounds(0.48, 0.48, 0.52, 0.52),
        ] {
            let outcome =
                linear.range_query_bounded_into(&rect, &budget, &mut scratch, &mut bounded);
            assert!(outcome.is_complete(), "{rect}");
            assert!(outcome.visited().leaf_visits > 0);
            let mut full = linear.range_query(&rect);
            full.sort_by(Point2::canonical_cmp);
            assert_eq!(bounded, full, "{rect}");
            let (count, c_outcome) =
                linear.count_in_range_bounded_with(&rect, &budget, &mut scratch);
            assert!(c_outcome.is_complete());
            assert_eq!(count, full.len(), "{rect}");
        }
        let target = Point2::new(0.3, 0.7);
        let outcome =
            linear.k_nearest_bounded_into(&target, 25, &budget, &mut scratch, &mut bounded);
        assert!(outcome.is_complete());
        assert_eq!(bounded, linear.k_nearest(&target, 25));
    }

    #[test]
    fn partial_range_is_a_canonical_prefix() {
        let (_, linear) = build_pair(600, 2, 15);
        let rect = Rect::from_bounds(0.05, 0.05, 0.95, 0.95);
        let mut full = linear.range_query(&rect);
        full.sort_by(Point2::canonical_cmp);
        let mut scratch = QueryScratch::new();
        let mut partial = Vec::new();
        // Tight and loose budgets, all in leaf visits.
        for leaf_budget in [1u64, 3, 10, 50] {
            let budget = CostBudget::new(leaf_budget, u64::MAX);
            let outcome =
                linear.range_query_bounded_into(&rect, &budget, &mut scratch, &mut partial);
            assert_eq!(&full[..partial.len()], &partial[..], "budget {leaf_budget}");
            if let BoundedOutcome::Partial { visited, .. } = outcome {
                assert!(visited.leaf_visits <= leaf_budget);
            }
            let (count, _) = linear.count_in_range_bounded_with(&rect, &budget, &mut scratch);
            assert_eq!(count, partial.len(), "count tracks the trimmed prefix");
        }
    }

    #[test]
    fn partial_knn_is_a_prefix_of_the_true_answer() {
        let (_, linear) = build_pair(500, 2, 16);
        let target = Point2::new(0.41, 0.57);
        let full = linear.k_nearest(&target, 40);
        let mut scratch = QueryScratch::new();
        let mut partial = Vec::new();
        for point_budget in [4u64, 16, 64, 256] {
            let budget = CostBudget::new(u64::MAX, point_budget);
            let outcome =
                linear.k_nearest_bounded_into(&target, 40, &budget, &mut scratch, &mut partial);
            assert_eq!(
                &full[..partial.len()],
                &partial[..],
                "budget {point_budget}"
            );
            if let BoundedOutcome::Partial {
                visited,
                truncated_spans,
            } = outcome
            {
                assert!(visited.point_visits <= point_budget);
                assert!(truncated_spans > 0);
            }
        }
    }

    fn hash_points(h: &mut Fnv64, pts: &[Point2]) {
        h.write_u64(pts.len() as u64);
        for p in pts {
            h.write_f64(p.x);
            h.write_f64(p.y);
        }
    }

    fn hash_outcome(h: &mut Fnv64, outcome: &BoundedOutcome) {
        let (variant, truncated) = match *outcome {
            BoundedOutcome::Complete { .. } => (0, 0),
            BoundedOutcome::Partial {
                truncated_spans, ..
            } => (1, truncated_spans as u64),
        };
        let visited = outcome.visited();
        h.write_u8(variant);
        h.write_u64(visited.leaf_visits);
        h.write_u64(visited.point_visits);
        h.write_u64(truncated);
    }

    /// Pins every answer the query paths give on a fixed snapshot —
    /// unbounded range (Morton leaf order), count and k-NN, and the
    /// budgeted forms with their exact outcomes — across a grid of
    /// windows, targets and budgets from unbounded down to one leaf and
    /// four points. Any change to an answer, its order, the work
    /// charged or the truncation count moves the digest.
    #[test]
    fn query_answers_and_outcomes_match_the_pinned_digest() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut points = UniformRect::unit().sample_n(&mut rng, 1500);
        points.extend(
            UniformRect::new(Rect::from_bounds(0.3, 0.6, 0.34, 0.64)).sample_n(&mut rng, 400),
        );
        points.extend([Point2::new(0.5, 0.5); 6]);
        let tree = PrQuadtree::build(Rect::unit(), 3, points).unwrap();
        let linear = LinearQuadtree::from_tree(&tree).unwrap();

        let windows = [
            Rect::from_bounds(0.0, 0.0, 1.0, 1.0),
            Rect::from_bounds(0.1, 0.2, 0.5, 0.9),
            Rect::from_bounds(0.29, 0.59, 0.35, 0.65),
            Rect::from_bounds(0.48, 0.48, 0.52, 0.52),
            Rect::from_bounds(0.7, 0.05, 0.72, 0.95),
            Rect::from_bounds(0.001, 0.001, 0.002, 0.002),
            Rect::from_bounds(2.0, 2.0, 3.0, 3.0),
        ];
        let targets = [
            (Point2::new(0.31, 0.62), 1usize),
            (Point2::new(0.5, 0.5), 8),
            (Point2::new(0.9, 0.1), 16),
            (Point2::new(0.0, 1.0), 32),
            (Point2::new(0.02, 0.03), 24),
            (Point2::new(2.0, -1.0), 5),
        ];
        let budgets = [
            CostBudget::unbounded(),
            CostBudget::new(1200, u64::MAX),
            CostBudget::new(u64::MAX, 1500),
            CostBudget::new(64, u64::MAX),
            CostBudget::new(16, u64::MAX),
            CostBudget::new(4, u64::MAX),
            CostBudget::new(1, u64::MAX),
            CostBudget::new(u64::MAX, 256),
            CostBudget::new(u64::MAX, 64),
            CostBudget::new(u64::MAX, 16),
            CostBudget::new(u64::MAX, 4),
            CostBudget::new(8, 32),
        ];

        let mut h = Fnv64::new();
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        for window in &windows {
            linear.range_query_into(window, &mut scratch, &mut out);
            hash_points(&mut h, &out);
            h.write_u64(linear.count_in_range_with(window, &mut scratch) as u64);
            for budget in &budgets {
                let outcome =
                    linear.range_query_bounded_into(window, budget, &mut scratch, &mut out);
                hash_points(&mut h, &out);
                hash_outcome(&mut h, &outcome);
                let (count, outcome) =
                    linear.count_in_range_bounded_with(window, budget, &mut scratch);
                h.write_u64(count as u64);
                hash_outcome(&mut h, &outcome);
            }
        }
        for &(target, k) in &targets {
            linear.k_nearest_into(&target, k, &mut scratch, &mut out);
            hash_points(&mut h, &out);
            for budget in &budgets {
                let outcome =
                    linear.k_nearest_bounded_into(&target, k, budget, &mut scratch, &mut out);
                hash_points(&mut h, &out);
                hash_outcome(&mut h, &outcome);
            }
        }
        assert_eq!(
            h.finish(),
            0x9dcc_4604_6b70_3102,
            "query answers or outcomes changed"
        );
    }

    #[test]
    fn try_from_reference_conversion() {
        let (tree, _) = build_pair(50, 1, 8);
        let linear: LinearQuadtree = (&tree).try_into().unwrap();
        assert_eq!(linear.len(), 50);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use popan_proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn linear_and_pointer_trees_agree(
            raw in popan_proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 0..120),
            capacity in 1usize..5,
            probe in popan_proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 10),
        ) {
            let points: Vec<Point2> = raw.iter().map(|&(x, y)| Point2::new(x, y)).collect();
            let tree = PrQuadtree::build(Rect::unit(), capacity, points).unwrap();
            let linear = LinearQuadtree::from_tree(&tree).unwrap();
            linear.check_invariants();
            for &(x, y) in &probe {
                let p = Point2::new(x, y);
                prop_assert_eq!(linear.contains(&p), tree.contains(&p));
            }
        }

        #[test]
        fn range_and_count_agree_with_scan(
            raw in popan_proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 0..150),
            capacity in 1usize..5,
            qx in 0.0f64..0.8,
            qy in 0.0f64..0.8,
            qw in 0.01f64..0.3,
        ) {
            let points: Vec<Point2> = raw.iter().map(|&(x, y)| Point2::new(x, y)).collect();
            let tree = PrQuadtree::build(Rect::unit(), capacity, points.iter().copied()).unwrap();
            let linear = LinearQuadtree::from_tree(&tree).unwrap();
            let query = Rect::from_bounds(qx, qy, qx + qw, qy + qw);
            let expect: Vec<&Point2> = points.iter().filter(|p| query.contains(p)).collect();
            let mut got = linear.range_query(&query);
            got.sort_by(Point2::canonical_cmp);
            let mut expect_sorted: Vec<Point2> = expect.iter().copied().copied().collect();
            expect_sorted.sort_by(Point2::canonical_cmp);
            prop_assert_eq!(got, expect_sorted);
            prop_assert_eq!(linear.count_in_range(&query), expect.len());
        }

        #[test]
        fn knn_matches_exhaustive_selection(
            raw in popan_proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..100),
            tx in 0.0f64..1.0,
            ty in 0.0f64..1.0,
            k in 1usize..12,
        ) {
            let points: Vec<Point2> = raw.iter().map(|&(x, y)| Point2::new(x, y)).collect();
            let tree = PrQuadtree::build(Rect::unit(), 2, points.iter().copied()).unwrap();
            let linear = LinearQuadtree::from_tree(&tree).unwrap();
            let target = Point2::new(tx, ty);
            let got = linear.k_nearest(&target, k);
            let mut expect: Vec<(f64, Point2)> = points
                .iter()
                .map(|p| (p.distance_squared(&target), *p))
                .collect();
            expect.sort_by(knn_cmp);
            expect.truncate(k);
            prop_assert_eq!(got.len(), expect.len());
            for (g, (_, e)) in got.iter().zip(&expect) {
                prop_assert_eq!(g.x.to_bits(), e.x.to_bits());
                prop_assert_eq!(g.y.to_bits(), e.y.to_bits());
            }
        }
    }
}
