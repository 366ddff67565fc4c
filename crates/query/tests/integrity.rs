//! Integrity and degraded-serving differentials.
//!
//! Two families of properties:
//!
//! * **Checksums catch damage** — for arbitrary point sets, flipping
//!   *any single bit* in *any* frozen section is caught by
//!   [`Snapshot::verify`], and the corruption report names exactly the
//!   damaged section. The FNV-1a state transition `h ← (h ⊕ b)·p` is a
//!   bijection for fixed remaining input (the prime is odd), so a
//!   one-bit flip provably changes the digest — the property holds by
//!   construction, and this suite pins the implementation to it.
//! * **Partial answers are canonical prefixes** — under any budget, a
//!   degraded range / count / k-NN answer is byte-identical to a prefix
//!   of the full answer: correct as far as it goes, with nothing
//!   skipped. Theory-derived default budgets
//!   ([`popan_query::default_budget`]) are generous enough that healthy
//!   queries on uniform data complete.

use popan_core::SplitSpec;
use popan_geom::{Point2, Rect};
use popan_proptest::prelude::*;
use popan_query::{default_budget, Snapshot};
use popan_rng::rngs::StdRng;
use popan_rng::{Rng, SeedableRng};
use popan_spatial::{CostBudget, QueryScratch, SnapshotSection};
use popan_workload::points::{PointSource, UniformRect};

const SECTIONS: [SnapshotSection; 3] = [
    SnapshotSection::Leaves,
    SnapshotSection::Blocks,
    SnapshotSection::Points,
];

fn uniform_snapshot(seed: u64, n: usize, capacity: usize) -> Snapshot {
    let mut rng = StdRng::seed_from_u64(seed);
    let pts = UniformRect::unit().sample_n(&mut rng, n);
    Snapshot::from_points(0, Rect::unit(), capacity, pts).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_single_bit_flip_is_caught(
        raw in popan_proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..120),
        capacity in 1usize..5,
        section_idx in 0usize..3,
        bit in 0u64..1_000_000,
    ) {
        let points: Vec<Point2> = raw.iter().map(|&(x, y)| Point2::new(x, y)).collect();
        let snap = Snapshot::from_points(0, Rect::unit(), capacity, points).unwrap();
        prop_assert!(snap.verify().is_ok(), "pristine snapshot must verify");

        let section = SECTIONS[section_idx];
        let mut damaged = snap.clone();
        if !damaged.corrupt_section(section, bit) {
            // Empty section (no leaves is impossible, but keep the
            // guard honest): nothing was damaged, nothing to detect.
            prop_assert!(damaged.verify().is_ok());
            return Ok(());
        }
        match damaged.verify() {
            Ok(()) => prop_assert!(false, "bit {bit} flip in {section} went undetected"),
            Err(report) => {
                prop_assert_eq!(report.damaged.clone(), vec![section]);
                prop_assert!(report.to_string().contains(&section.to_string()));
            }
        }
    }

    #[test]
    fn partial_range_and_count_are_canonical_prefixes(
        seed in 0u64..1_000,
        n in 1usize..400,
        capacity in 1usize..5,
        leaf_budget in 1u64..40,
        point_budget in 1u64..200,
        qx in 0.0f64..0.7,
        qy in 0.0f64..0.7,
        qw in 0.05f64..0.3,
    ) {
        let snap = uniform_snapshot(seed, n, capacity);
        let query = Rect::from_bounds(qx, qy, qx + qw, qy + qw);
        let mut scratch = QueryScratch::new();

        let mut full = Vec::new();
        snap.range_into(&query, &mut scratch, &mut full);

        let budget = CostBudget::new(leaf_budget, point_budget);
        let mut partial = Vec::new();
        let outcome = snap.range_bounded_into(&query, &budget, &mut scratch, &mut partial);
        if outcome.is_complete() {
            prop_assert_eq!(&partial, &full, "complete answer must be the full answer");
        } else {
            prop_assert!(partial.len() <= full.len());
        }
        // Prefix property, bit for bit.
        for (i, (got, want)) in partial.iter().zip(&full).enumerate() {
            prop_assert!(
                got.x.to_bits() == want.x.to_bits() && got.y.to_bits() == want.y.to_bits(),
                "prefix diverges at {i}: {got} vs {want}"
            );
        }
        // The budgeted count is the length of the budgeted range.
        let (count, _) = snap.count_bounded_with(&query, &budget, &mut scratch);
        prop_assert_eq!(count, partial.len());
    }

    #[test]
    fn partial_knn_is_a_prefix_of_the_true_answer(
        seed in 0u64..1_000,
        n in 1usize..300,
        capacity in 1usize..5,
        point_budget in 1u64..120,
        k in 1usize..20,
        tx in 0.0f64..1.0,
        ty in 0.0f64..1.0,
    ) {
        let snap = uniform_snapshot(seed ^ 0x5eed, n, capacity);
        let target = Point2::new(tx, ty);
        let mut scratch = QueryScratch::new();

        let mut full = Vec::new();
        snap.knn_into(&target, k, &mut scratch, &mut full);

        let budget = CostBudget::new(u64::MAX, point_budget);
        let mut partial = Vec::new();
        let outcome = snap.knn_bounded_into(&target, k, &budget, &mut scratch, &mut partial);
        if outcome.is_complete() {
            prop_assert_eq!(partial.len(), full.len());
        }
        for (i, (got, want)) in partial.iter().zip(&full).enumerate() {
            prop_assert!(
                got.x.to_bits() == want.x.to_bits() && got.y.to_bits() == want.y.to_bits(),
                "k-NN prefix diverges at {i}: {got} vs {want}"
            );
        }
    }
}

#[test]
fn theory_budgets_complete_healthy_uniform_queries() {
    // A PR quadtree splits its window in four equal parts: uniform
    // branch-4 spec with the tree's own capacity.
    let capacity = 4;
    let n = 4_000;
    let snap = uniform_snapshot(0xbeef, n, capacity);
    let spec = SplitSpec::uniform(4, capacity).unwrap();
    let mut scratch = QueryScratch::new();
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..20 {
        let x = rng.random_range(0.0..0.7);
        let y = rng.random_range(0.0..0.7);
        let w = rng.random_range(0.02..0.3);
        let query = Rect::from_bounds(x, y, x + w, y + w);
        let budget = default_budget(&spec, n, w * w).unwrap();

        let mut full = Vec::new();
        snap.range_into(&query, &mut scratch, &mut full);
        let mut bounded = Vec::new();
        let outcome = snap.range_bounded_into(&query, &budget, &mut scratch, &mut bounded);
        assert!(
            outcome.is_complete(),
            "theory budget {budget:?} exhausted on a healthy {w:.3}-window"
        );
        assert_eq!(bounded, full);
    }
}

#[test]
fn snapshot_footprint_regression() {
    // Freeze shrinks every slab to exact capacity, so the footprint is
    // an exact linear function of the slab lengths — any slab missing
    // from the accounting breaks one of these equations.
    for n in [1usize, 17, 256] {
        let snap = uniform_snapshot(n as u64, n, 2);
        let fp = snap.footprint();
        assert_eq!(
            snap.heap_bytes(),
            fp.leaves + fp.blocks + fp.points + fp.directory
        );
        assert_eq!(fp.directory, 4097 * std::mem::size_of::<u32>());
        assert_eq!(fp.points, n * std::mem::size_of::<Point2>());
        assert_eq!(fp.blocks, snap.leaf_count() * std::mem::size_of::<Rect>());
        assert!(fp.leaves > 0 && fp.leaves.is_multiple_of(snap.leaf_count()));
        assert_eq!(snap.stats().heap_bytes(), snap.heap_bytes());
    }
}
