//! `serve`: a read-only query mix on one published snapshot.
//!
//! The point set is a Neyman–Scott clustered sample; range and count
//! windows and k-NN targets are anchored ¾ on the data distribution and
//! ¼ uniformly, window sides log-uniform in [0.002, 0.05], k uniform in
//! 1..=32. The timed loop round-robins range, count and k-NN through one
//! `SnapshotReader`, so every op type sees the same machine state, and
//! builds nothing.

use std::time::Instant;

use popan_core::SplitSpec;
use popan_geom::morton::{self, MortonSpan};
use popan_geom::{Point2, Rect};
use popan_query::{canonical_sort, knn_by_scan, range_by_scan, QueryService, Snapshot};
use popan_rng::{Rng, SeedableRng, StdRng};
use popan_spatial::linear_quadtree::RANGE_DECOMPOSE_DEPTH;
use popan_spatial::{CostBudget, LinearQuadtree, QueryScratch};
use popan_workload::points::Clustered;
use popan_workload::{PointSource, UniformRect};

use crate::calib::Calibration;
use crate::stats::Samples;
use crate::trace::{span_metric, Tracer, ROOT};
use crate::{Config, Outcome, SETUP_REPS};

/// Neyman–Scott cluster centres and their spread σ.
const CLUSTERS: usize = 64;
const SIGMA: f64 = 0.02;
/// Inputs of each type checked against a full scan.
const CHECK_SAMPLE: usize = 48;
const MIN_SIDE: f64 = 0.002;
const MAX_SIDE: f64 = 0.05;
const MAX_K: usize = 32;
/// Rounds of the mix run inside set-up so caches and scratch buffers
/// are warm before timing starts.
const WARM_ROUNDS: usize = 32;

struct Inputs {
    points: Vec<Point2>,
    ranges: Vec<Rect>,
    counts: Vec<Rect>,
    knns: Vec<(Point2, usize)>,
}

fn generate(c: &Config) -> Inputs {
    let mut rng = StdRng::seed_from_u64(c.seed);
    let region = Rect::unit();
    let clustered = Clustered::new(region, CLUSTERS, SIGMA, &mut rng);
    let uniform = UniformRect::new(region);
    let points = clustered.sample_n(&mut rng, c.points);
    let anchor = |rng: &mut StdRng| {
        if rng.random_range(0.0..1.0) < 0.75 {
            clustered.sample(rng)
        } else {
            uniform.sample(rng)
        }
    };
    let window = |rng: &mut StdRng| {
        let a = anchor(rng);
        let side = (MIN_SIDE.ln() + rng.random_range(0.0..1.0) * (MAX_SIDE / MIN_SIDE).ln()).exp();
        let h = side / 2.0;
        Rect::from_bounds(
            (a.x - h).max(0.0),
            (a.y - h).max(0.0),
            (a.x + h).min(1.0),
            (a.y + h).min(1.0),
        )
    };
    let ranges = (0..c.query_pool).map(|_| window(&mut rng)).collect();
    let counts = (0..c.query_pool).map(|_| window(&mut rng)).collect();
    let knns = (0..c.query_pool)
        .map(|_| {
            let a = anchor(&mut rng);
            (a, rng.random_range(1..=MAX_K))
        })
        .collect();
    Inputs {
        points,
        ranges,
        counts,
        knns,
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Op {
    Range,
    Count,
    Knn,
}

/// Cheap per-answer fingerprint checked inside the timed loop:
/// length plus first and last element.
#[derive(PartialEq, Clone, Copy)]
struct Print(usize, Option<Point2>, Option<Point2>);

fn print(out: &[Point2]) -> Print {
    Print(out.len(), out.first().copied(), out.last().copied())
}

/// Per-layer accumulators of the traced run.
#[derive(Default)]
struct Layers {
    spans: Samples,
    range_leaves: Samples,
    range_points: Samples,
    range_returned: u64,
    range_read: u64,
    range_predicted: Samples,
    knn_leaves: Samples,
    knn_points: Samples,
}

pub fn run(c: &Config, mut tracer: Option<&mut Tracer>) -> Result<Outcome, String> {
    let inputs = generate(c);
    let region = Rect::unit();
    let mut outcome = Outcome::default();
    let mut scratch = QueryScratch::new();
    let mut out = Vec::new();
    let mut cal = Calibration::new();

    // Set-up: snapshot built, published and warm; median of
    // `SETUP_REPS` repetitions, the last one is served.
    let mut setup = Samples::default();
    let mut served = None;
    for _ in 0..SETUP_REPS {
        drop(served.take());
        cal.sample();
        let t = Instant::now();
        let root = tracer.as_deref_mut().map(|tr| {
            tr.next_op();
            tr.open(ROOT, "setup")
        });
        let snap = Snapshot::from_points(0, region, c.capacity, inputs.points.iter().copied())
            .map_err(|e| e.to_string())?;
        let service = QueryService::new(snap);
        let mut reader = service.reader();
        for i in 0..WARM_ROUNDS.min(c.query_pool) {
            let s = reader.current();
            s.range_into(&inputs.ranges[i], &mut scratch, &mut out);
            s.count_with(&inputs.counts[i], &mut scratch);
            s.knn_into(&inputs.knns[i].0, inputs.knns[i].1, &mut scratch, &mut out);
        }
        let dt = match (tracer.as_deref_mut(), root) {
            (Some(tr), Some(root)) => {
                let dt = tr.close(root);
                let s = tr.open_replicated("spatial.direct_freeze");
                let index = LinearQuadtree::from_points_direct(
                    region,
                    c.capacity,
                    popan_spatial::pr_quadtree::DEFAULT_MAX_DEPTH,
                    inputs.points.clone(),
                )
                .map_err(|e| format!("{e:?}"))?;
                tr.close(s);
                let s = tr.open_replicated("spatial.digest");
                let digests = index.section_digests();
                tr.close(s);
                outcome.check(digests == reader.cached().digests(), || {
                    "replicated direct freeze digests differ from the snapshot's".into()
                });
                dt
            }
            _ => t.elapsed().as_secs_f64(),
        };
        setup.push(dt);
        served = Some((service, reader));
    }
    let (_service, mut reader) = served.ok_or("no set-up ran")?;
    let setup_factor = cal.take_factor();
    let n = reader.cached().len();
    let leaf_count = reader.cached().leaf_count();
    let heap_bytes = reader.cached().heap_bytes();

    // Untimed correctness sample against full scans.
    for i in 0..CHECK_SAMPLE.min(c.query_pool) {
        let s = reader.cached();
        let w = &inputs.ranges[i];
        s.range_into(w, &mut scratch, &mut out);
        outcome.check(
            out == range_by_scan(inputs.points.iter().copied(), w),
            || format!("range {i} differs from range_by_scan"),
        );
        let w = &inputs.counts[i];
        let got = s.count_with(w, &mut scratch);
        let want = range_by_scan(inputs.points.iter().copied(), w).len();
        outcome.check(got == want, || format!("count {i}: {got} != scan {want}"));
        let (p, k) = inputs.knns[i];
        s.knn_into(&p, k, &mut scratch, &mut out);
        outcome.check(
            out == knn_by_scan(inputs.points.iter().copied(), &p, k),
            || format!("knn {i} (k={k}) differs from knn_by_scan"),
        );
    }

    // Expected answers for the in-loop checks: a range answer's
    // fingerprint, and for a count the length of the range answer over
    // the same window. A k-NN answer must hold min(k, n) points and
    // repeat the fingerprint it had the first time its target was asked.
    let s = reader.cached();
    let mut expect_range = Vec::with_capacity(c.query_pool);
    let mut expect_count = Vec::with_capacity(c.query_pool);
    for i in 0..c.query_pool {
        s.range_into(&inputs.ranges[i], &mut scratch, &mut out);
        expect_range.push(print(&out));
        s.range_into(&inputs.counts[i], &mut scratch, &mut out);
        expect_count.push(out.len());
    }
    let mut expect_knn: Vec<Option<Print>> = vec![None; c.query_pool];
    let mut knn_ok = |i: usize, k: usize, out: &[Point2]| {
        out.len() == k.min(n) && *expect_knn[i].get_or_insert(print(out)) == print(out)
    };

    let mut round = Vec::new();
    for (op, &w) in [Op::Range, Op::Count, Op::Knn].iter().zip(&c.mix) {
        round.extend(std::iter::repeat_n(*op, w));
    }
    let spec = SplitSpec::uniform(4, c.capacity).map_err(|e| e.to_string())?;
    let mut lat = [Samples::default(), Samples::default(), Samples::default()];
    let mut next = [0usize; 3];
    let mut layers = Layers::default();
    let mut spans: Vec<MortonSpan> = Vec::new();
    let mut aux = Vec::new();
    let mut queries = 0u64;
    let cal_before = cal.spent();
    let start = Instant::now();
    while start.elapsed() < c.seconds {
        cal.sample();
        for &op in &round {
            let slot = op as usize;
            let i = next[slot] % c.query_pool;
            next[slot] += 1;
            queries += 1;
            match tracer.as_deref_mut() {
                None => {
                    let t = Instant::now();
                    let ok = match op {
                        Op::Range => {
                            reader
                                .current()
                                .range_into(&inputs.ranges[i], &mut scratch, &mut out);
                            lat[0].push(t.elapsed().as_secs_f64());
                            print(&out) == expect_range[i]
                        }
                        Op::Count => {
                            let got = reader.current().count_with(&inputs.counts[i], &mut scratch);
                            lat[1].push(t.elapsed().as_secs_f64());
                            got == expect_count[i]
                        }
                        Op::Knn => {
                            let (p, k) = inputs.knns[i];
                            reader.current().knn_into(&p, k, &mut scratch, &mut out);
                            lat[2].push(t.elapsed().as_secs_f64());
                            knn_ok(i, k, &out)
                        }
                    };
                    outcome.check(ok, || format!("{} op {i} answer changed", name(op)));
                }
                Some(tr) => {
                    tr.next_op();
                    let root = tr.open(ROOT, name(op));
                    let r = tr.open(root, "query.refresh");
                    let refreshed = reader.try_refresh();
                    tr.close(r);
                    let snap = reader.cached();
                    let ok = match op {
                        Op::Range => {
                            let w = &inputs.ranges[i];
                            let s = tr.open(root, "spatial.range_sweep");
                            snap.index().range_query_into(w, &mut scratch, &mut out);
                            tr.close(s);
                            let s = tr.open(root, "query.canonical_sort");
                            canonical_sort(&mut out);
                            tr.close(s);
                            lat[0].push(tr.close(root));
                            let s = tr.open_replicated("geom.decompose");
                            morton::decompose_ranges_into(
                                w,
                                &snap.region(),
                                RANGE_DECOMPOSE_DEPTH,
                                &mut spans,
                            );
                            tr.close(s);
                            layers.spans.push(spans.len() as f64);
                            let s = tr.open_replicated("spatial.range_bounded");
                            let cost = snap
                                .range_bounded_into(
                                    w,
                                    &CostBudget::unbounded(),
                                    &mut scratch,
                                    &mut aux,
                                )
                                .visited();
                            tr.close(s);
                            layers.range_leaves.push(cost.leaf_visits as f64);
                            layers.range_points.push(cost.point_visits as f64);
                            layers.range_returned += aux.len() as u64;
                            layers.range_read += cost.point_visits;
                            let sel = w.area() / region.area();
                            layers.range_predicted.push(
                                spec.expected_leaf_visits(n, sel, 1.0)
                                    .map_err(|e| e.to_string())?,
                            );
                            print(&out) == expect_range[i] && aux == out
                        }
                        Op::Count => {
                            let s = tr.open(root, "spatial.count_sweep");
                            let got = snap.count_with(&inputs.counts[i], &mut scratch);
                            tr.close(s);
                            lat[1].push(tr.close(root));
                            got == expect_count[i]
                        }
                        Op::Knn => {
                            let (p, k) = inputs.knns[i];
                            let s = tr.open(root, "spatial.knn_sweep");
                            snap.index().k_nearest_into(&p, k, &mut scratch, &mut out);
                            tr.close(s);
                            lat[2].push(tr.close(root));
                            let s = tr.open_replicated("spatial.knn_bounded");
                            let cost = snap
                                .knn_bounded_into(
                                    &p,
                                    k,
                                    &CostBudget::unbounded(),
                                    &mut scratch,
                                    &mut aux,
                                )
                                .visited();
                            tr.close(s);
                            layers.knn_leaves.push(cost.leaf_visits as f64);
                            layers.knn_points.push(cost.point_visits as f64);
                            knn_ok(i, k, &out) && aux == out
                        }
                    };
                    outcome.check(ok && refreshed.is_ok(), || {
                        format!("{} op {i} answer changed", name(op))
                    });
                }
            }
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let busy = wall
        - (cal.spent() - cal_before)
        - tracer.as_deref().map_or(0.0, Tracer::replicated_seconds);

    let e = &mut outcome.e2e;
    e.add_note(
        "ops_per_s",
        queries as f64 / busy,
        "1/s",
        queries as usize,
        "queries/s of the mix",
    );
    for (slot, alias) in ["range", "count", "knn"].iter().enumerate() {
        let before = e.metrics.len();
        e.add_latency(&format!("op{}", slot + 1), &mut lat[slot], 0.99, "ms", 1e3);
        for m in &mut e.metrics[before..] {
            let kind = if m.name.contains("p50") { "p50" } else { "p99" };
            m.note = format!("{alias}_{kind}_us; {}", m.note);
        }
    }

    if let Some(tr) = tracer.as_deref() {
        let spans = tr.p50_by_name();
        let l = &mut outcome.layers;
        span_metric(l, &spans, "geom.decompose", "geom.decompose_us", 1e6, "us");
        l.add(
            "geom.spans",
            layers.spans.quantile(0.5),
            "count",
            layers.spans.len(),
        );
        span_metric(
            l,
            &spans,
            "spatial.range_sweep",
            "spatial.range_sweep_us",
            1e6,
            "us",
        );
        let range_n = layers.range_leaves.len();
        l.add(
            "spatial.range_leaf_visits",
            layers.range_leaves.quantile(0.5),
            "count",
            range_n,
        );
        l.add(
            "spatial.range_point_visits",
            layers.range_points.quantile(0.5),
            "count",
            range_n,
        );
        l.add(
            "spatial.range_useful_ratio",
            layers.range_returned as f64 / layers.range_read.max(1) as f64,
            "ratio",
            range_n,
        );
        l.add_note(
            "core.range_leaf_visits_predicted",
            layers.range_predicted.quantile(0.5),
            "count",
            range_n,
            "SplitSpec::expected_leaf_visits, slack 1",
        );
        span_metric(
            l,
            &spans,
            "query.canonical_sort",
            "query.canonical_sort_us",
            1e6,
            "us",
        );
        let knn_n = layers.knn_leaves.len();
        let knn_leaves = layers.knn_leaves.quantile(0.5);
        l.add("spatial.knn_leaf_visits", knn_leaves, "count", knn_n);
        l.add(
            "spatial.knn_point_visits",
            layers.knn_points.quantile(0.5),
            "count",
            knn_n,
        );
        l.add(
            "spatial.knn_leaf_fraction",
            knn_leaves / leaf_count as f64,
            "ratio",
            knn_n,
        );
        l.add_note(
            "spatial.knn_leaf_visits_per_ln_n",
            knn_leaves / (n as f64).ln(),
            "count",
            knn_n,
            format!(
                "split-tree depth law predicts {:.3}",
                spec.depth_coefficient()
            ),
        );
        span_metric(l, &spans, "query.refresh", "query.refresh_us", 1e6, "us");
        l.add(
            "query.heap_bytes_per_point",
            heap_bytes as f64 / n as f64,
            "B",
            1,
        );
        span_metric(
            l,
            &spans,
            "spatial.direct_freeze",
            "spatial.direct_freeze_ms",
            1e3,
            "ms",
        );
        span_metric(l, &spans, "spatial.digest", "spatial.digest_ms", 1e3, "ms");
    }
    outcome.finish(&mut cal, setup.quantile(0.5), setup_factor);
    Ok(outcome)
}

fn name(op: Op) -> &'static str {
    match op {
        Op::Range => "op.range",
        Op::Count => "op.count",
        Op::Knn => "op.knn",
    }
}
