//! The ingest half of `ingest_repro`: one op is one epoch — a batch of
//! uniform points in hand → `PrQuadtree::build` → `freeze_and_publish`
//! → the reader refreshes onto the new epoch → a whole-region
//! `count_with` answers. Batches cycle through a pre-generated pool. No
//! range, k-NN or span decomposition runs here.

use std::time::Instant;

use popan_core::{PrModel, SteadyStateSolver};
use popan_geom::{Point2, Rect};
use popan_query::{QueryService, Snapshot, SnapshotReader};
use popan_rng::{SeedableRng, StdRng};
use popan_spatial::{LinearQuadtree, PrQuadtree, QueryScratch};
use popan_workload::{PointSource, UniformRect};

use crate::stats::{Report, Samples};
use crate::trace::{span_metric, SpanId, Tracer};
use crate::{Config, Outcome};

/// Seconds spent in one epoch and in its build call.
pub struct EpochTimes {
    pub epoch: f64,
    pub build: f64,
}

pub struct Ingest<'a> {
    pool: &'a [Vec<Point2>],
    capacity: usize,
    service: QueryService,
    reader: SnapshotReader,
    scratch: QueryScratch,
    /// Leaf count each batch built the first time it was used.
    leaves_seen: Vec<Option<usize>>,
    leaves: Samples,
    epochs: u64,
    refresh_hits: u64,
}

fn region() -> Rect {
    Rect::unit()
}

/// The batch pool, generated from the seed.
pub fn batches(c: &Config) -> Vec<Vec<Point2>> {
    let mut rng = StdRng::seed_from_u64(c.seed);
    let uniform = UniformRect::unit();
    (0..c.batch_pool)
        .map(|_| uniform.sample_n(&mut rng, c.points))
        .collect()
}

fn build(capacity: usize, batch: &[Point2]) -> Result<PrQuadtree, String> {
    PrQuadtree::build(region(), capacity, batch.iter().copied()).map_err(|e| e.to_string())
}

impl<'a> Ingest<'a> {
    /// Set-up: batch 0 built, frozen, served and answering.
    pub fn start(
        c: &Config,
        pool: &'a [Vec<Point2>],
        outcome: &mut Outcome,
    ) -> Result<Ingest<'a>, String> {
        let tree = build(c.capacity, &pool[0])?;
        let snap = Snapshot::freeze(0, &tree).map_err(|e| e.to_string())?;
        let service = QueryService::new(snap);
        let mut reader = service.reader();
        let mut scratch = QueryScratch::new();
        let got = reader.current().count_with(&region(), &mut scratch);
        let n = pool[0].len();
        outcome.check(got == n, || format!("set-up count {got} != {n}"));
        let batches = pool.len();
        Ok(Ingest {
            pool,
            capacity: c.capacity,
            service,
            reader,
            scratch,
            leaves_seen: vec![None; batches],
            leaves: Samples::default(),
            epochs: 0,
            refresh_hits: 0,
        })
    }

    /// One epoch on the next batch of the pool.
    pub fn epoch(
        &mut self,
        tracer: Option<&mut Tracer>,
        root: SpanId,
        outcome: &mut Outcome,
    ) -> Result<EpochTimes, String> {
        self.epochs += 1;
        let b = self.epochs as usize % self.pool.len();
        let batch = &self.pool[b];
        let region = region();
        let (tree, published, refreshed, got, times) = match tracer {
            None => {
                let t0 = Instant::now();
                let tree = build(self.capacity, batch)?;
                let t1 = Instant::now();
                let published = self.service.freeze_and_publish(&tree);
                let refreshed = self.reader.try_refresh();
                let got = self.reader.cached().count_with(&region, &mut self.scratch);
                let t3 = Instant::now();
                let times = EpochTimes {
                    epoch: (t3 - t0).as_secs_f64(),
                    build: (t1 - t0).as_secs_f64(),
                };
                (tree, published, refreshed, got, times)
            }
            Some(tr) => {
                // freeze_and_publish is Snapshot::freeze followed by
                // publish; both halves are public, so they are timed as
                // themselves.
                let s = tr.open(root, "spatial.build");
                let tree = build(self.capacity, batch)?;
                let build_s = tr.close(s);
                let fp = tr.open(root, "query.freeze_and_publish");
                let s = tr.open(fp, "query.freeze");
                let snap = Snapshot::freeze(0, &tree).map_err(|e| e.to_string())?;
                tr.close(s);
                let s = tr.open(fp, "query.publish");
                let published = self.service.publish(snap);
                tr.close(s);
                tr.close(fp);
                let s = tr.open(root, "query.refresh");
                let refreshed = self.reader.try_refresh();
                tr.close(s);
                let s = tr.open(root, "query.count");
                let got = self.reader.cached().count_with(&region, &mut self.scratch);
                tr.close(s);
                let epoch_s = tr.close(root);
                // Replicated stages of Snapshot::freeze and publish.
                let s = tr.open_replicated("spatial.freeze");
                let index = LinearQuadtree::from_tree(&tree).map_err(|e| e.to_string())?;
                tr.close(s);
                let s = tr.open_replicated("spatial.digest");
                let digests = index.section_digests();
                tr.close(s);
                let s = tr.open_replicated("query.verify");
                let verified = self.reader.cached().verify();
                tr.close(s);
                outcome.check(
                    verified.is_ok() && digests == self.reader.cached().digests(),
                    || "replicated freeze digests differ from the published ones".into(),
                );
                let times = EpochTimes {
                    epoch: epoch_s,
                    build: build_s,
                };
                (tree, published, refreshed, got, times)
            }
        };
        let leaf_count = tree.leaf_count();
        self.leaves.push(leaf_count as f64);
        // A batch seen before must build the same tree again.
        let same_tree = *self.leaves_seen[b].get_or_insert(leaf_count) == leaf_count;
        let hit = refreshed == Ok(true);
        self.refresh_hits += u64::from(hit);
        let epoch_ok = matches!(published, Ok(e) if e == self.reader.epoch());
        let verified = self.reader.cached().verify().is_ok();
        let rejected = self.service.health().rejected;
        let n = batch.len();
        outcome.check(
            hit && epoch_ok && verified && rejected == 0 && got == n && same_tree,
            || {
                format!(
                    "epoch {}: published {published:?}, refreshed {refreshed:?}, \
                     verified {verified}, rejected {rejected}, count {got} of {n}",
                    self.epochs
                )
            },
        );
        Ok(times)
    }

    /// The ingest per-layer metrics of a traced run.
    pub fn layers(&mut self, tracer: &Tracer, l: &mut Report) -> Result<(), String> {
        let spans = tracer.p50_by_name();
        span_metric(l, &spans, "spatial.build", "spatial.build_ms", 1e3, "ms");
        span_metric(l, &spans, "spatial.freeze", "spatial.freeze_ms", 1e3, "ms");
        span_metric(l, &spans, "spatial.digest", "spatial.digest_ms", 1e3, "ms");
        span_metric(l, &spans, "query.verify", "query.verify_ms", 1e3, "ms");
        span_metric(l, &spans, "query.publish", "query.publish_ms", 1e3, "ms");
        span_metric(l, &spans, "query.refresh", "query.refresh_us", 1e6, "us");
        let n_epochs = self.epochs as usize;
        l.add(
            "spatial.leaves",
            self.leaves.quantile(0.5),
            "count",
            n_epochs,
        );
        let model = PrModel::quadtree(self.capacity).map_err(|e| e.to_string())?;
        let solved = SteadyStateSolver::new()
            .solve(&model)
            .map_err(|e| e.to_string())?;
        l.add_note(
            "core.leaves_predicted",
            self.pool[0].len() as f64 * solved.distribution().nodes_per_item(),
            "count",
            1,
            "n / model average occupancy",
        );
        l.add(
            "query.publish_rejected",
            self.service.health().rejected as f64,
            "count",
            n_epochs,
        );
        l.add(
            "query.refresh_hit_ratio",
            self.refresh_hits as f64 / self.epochs.max(1) as f64,
            "ratio",
            n_epochs,
        );
        Ok(())
    }
}
