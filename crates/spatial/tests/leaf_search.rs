//! The leaf search behind every snapshot query.
//!
//! [`LinearQuadtree::leaf_search`] answers "first leaf at or after
//! `from` whose `code_hi` passes `code`" through the freeze-time Morton
//! prefix directory and a galloping search. On every snapshot shape it
//! must equal the plain binary search it replaced — `partition_point`
//! over the whole leaf slab, raised to `from` — for any `(from, code)`,
//! including `from = len`, `code = 0`, codes on directory-cell
//! boundaries and codes at and past the end of the Morton range.
//!
//! The reference slab is rebuilt from public data only: each leaf's
//! `code_lo` is the Morton code of its block's low corner, and because
//! the leaves tile the Morton range (`check_invariants`), its `code_hi`
//! is the next leaf's `code_lo`, or the end of the range for the last.

use popan_geom::morton::{self, cells_at_depth, morton_of_point};
use popan_geom::{Point2, Rect};
use popan_proptest::prelude::*;
use popan_rng::rngs::StdRng;
use popan_rng::{Rng, SeedableRng};
use popan_spatial::linear_quadtree::DIRECTORY_DEPTH;
use popan_spatial::pr_quadtree::DEFAULT_MAX_DEPTH;
use popan_spatial::LinearQuadtree;
use popan_workload::points::{Clustered, PointSource, UniformRect};

/// Every leaf's `code_hi`, re-derived from the public block rects.
fn code_his(linear: &LinearQuadtree) -> Vec<u64> {
    let region = linear.region();
    let los: Vec<u64> = (0..linear.leaf_count())
        .map(|i| {
            let b = linear.leaf_block(i);
            morton_of_point(&Point2::new(b.x().lo(), b.y().lo()), &region)
        })
        .collect();
    los.iter()
        .skip(1)
        .copied()
        .chain([cells_at_depth(0)])
        .collect()
}

/// Codes that stress the directory: the ends of the Morton range (and
/// past it), every leaf boundary and its neighbours, and the first code
/// of every directory cell and its neighbours.
fn edge_codes(his: &[u64]) -> Vec<u64> {
    let end = cells_at_depth(0);
    let mut codes = vec![0, 1, end - 1, end, end + 1, u64::MAX];
    for &hi in his {
        codes.extend([hi.saturating_sub(1), hi, hi.saturating_add(1)]);
    }
    let shift = 2 * (morton::MORTON_BITS - DIRECTORY_DEPTH);
    for q in 0..=(1u64 << (2 * DIRECTORY_DEPTH)) {
        let start = q << shift;
        codes.extend([start.saturating_sub(1), start, start + 1]);
    }
    codes
}

/// Checks the helper against the whole-slab binary search for the edge
/// codes (at a few `from`s) and `random` random `(from, code)` pairs.
fn assert_matches_partition_point(linear: &LinearQuadtree, seed: u64, random: usize) {
    linear.check_invariants();
    let his = code_his(linear);
    let len = his.len();
    let expect = |from: usize, code: u64| from.max(his.partition_point(|&hi| hi <= code));
    for code in edge_codes(&his) {
        for from in [0, len / 2, len.saturating_sub(1), len] {
            assert_eq!(
                linear.leaf_search(from, code),
                expect(from, code),
                "from {from}, code {code:#x}, {len} leaves"
            );
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let end = cells_at_depth(0);
    for _ in 0..random {
        let from = rng.random_range(0..=len);
        let code = rng.random_range(0..=end);
        assert_eq!(
            linear.leaf_search(from, code),
            expect(from, code),
            "from {from}, code {code:#x}, {len} leaves"
        );
    }
}

fn freeze(region: Rect, capacity: usize, points: Vec<Point2>) -> LinearQuadtree {
    LinearQuadtree::from_points_direct(region, capacity, DEFAULT_MAX_DEPTH, points).unwrap()
}

#[test]
fn the_empty_snapshot_searches_its_one_root_leaf() {
    let linear = freeze(Rect::unit(), 4, Vec::new());
    assert_eq!(linear.leaf_count(), 1);
    assert_eq!(linear.leaf_search(0, 0), 0);
    assert_eq!(linear.leaf_search(0, cells_at_depth(0) - 1), 0);
    assert_eq!(linear.leaf_search(0, cells_at_depth(0)), 1);
    assert_eq!(linear.leaf_search(1, 0), 1);
    assert_matches_partition_point(&linear, 1, 2000);
}

#[test]
fn a_non_grid_exact_region_freezes_through_the_tree_and_searches_alike() {
    // Sides of 3: the direct freeze takes the pointer-tree route.
    let region = Rect::from_bounds(-1.0, 2.0, 2.0, 5.0);
    let mut rng = StdRng::seed_from_u64(2);
    let points = UniformRect::new(region).sample_n(&mut rng, 3000);
    assert_matches_partition_point(&freeze(region, 3, points), 3, 5000);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn leaf_search_equals_the_whole_slab_binary_search(
        shape in 0u8..3,
        n in 0usize..4000,
        capacity in 1usize..9,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let points = match shape {
            0 => UniformRect::unit().sample_n(&mut rng, n),
            1 => Clustered::new(Rect::unit(), 8, 0.01, &mut rng).sample_n(&mut rng, n),
            // Coincident piles on dyadic split boundaries, deep enough
            // at capacity 1 to reach the bottom of the Morton grid.
            _ => (0..n)
                .map(|i| {
                    let (x, y) = (i % 5, (i / 5) % 3);
                    Point2::new(x as f64 / 8.0, y as f64 / 8.0)
                })
                .chain(UniformRect::unit().sample_n(&mut rng, n / 4))
                .collect(),
        };
        assert_matches_partition_point(&freeze(Rect::unit(), capacity, points), seed, 2000);
    }
}
