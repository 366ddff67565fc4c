//! The repro half of `ingest_repro`: one op is one in-process pass over
//! the paper's artifacts and the two drivers that explain its
//! discrepancies, at the paper's configuration with the workload seed
//! as `master_seed`.

use std::time::Instant;

use popan_core::{PrModel, SteadyStateSolver};
use popan_experiments::registry::RegisteredExperiment;
use popan_experiments::{registry, ExperimentConfig};
use popan_geom::{Point2, Rect};
use popan_rng::{SeedableRng, StdRng};
use popan_spatial::PrQuadtree;
use popan_workload::{PointSource, UniformRect};

use crate::stats::Report;
use crate::trace::{span_metric, SpanId, Tracer};
use crate::{Config, Outcome};

/// The paper's figures and tables, in report order.
const PAPER: [&str; 8] = [
    "fig1", "table1", "table2", "table3", "table4", "table5", "fig2", "fig3",
];
/// The drivers that explain the paper's two discrepancies.
const EXPLAIN: [&str; 2] = ["aging", "phasing_sweep"];
/// Artifacts pinned by the committed goldens at `ExperimentConfig::quick()`.
const GOLDENS: [&str; 3] = ["table1", "table3", "phasing_sweep"];
const GOLDEN_DIR: &str = "tests/goldens";
/// Replicated probe calls per pass in the traced run.
const PROBES: usize = 8;
/// Paper tree size for the insertion probe.
const PAPER_POINTS: usize = 1000;

pub struct Repro {
    drivers: Vec<&'static RegisteredExperiment>,
    span_names: Vec<&'static str>,
    config: ExperimentConfig,
    capacity: usize,
    /// Artifact JSON of the first pass, which every later pass repeats.
    reference: Option<Vec<Result<String, String>>>,
    probe_points: Vec<Vec<Point2>>,
}

fn driver(id: &str) -> Result<&'static RegisteredExperiment, String> {
    registry::find(id).ok_or_else(|| format!("unknown experiment {id}"))
}

impl Repro {
    /// Looks the drivers up and, untimed, checks that the quick
    /// configuration reproduces the committed goldens.
    pub fn new(c: &Config, outcome: &mut Outcome) -> Result<Repro, String> {
        for id in GOLDENS {
            let path = format!("{GOLDEN_DIR}/{id}.json");
            let golden = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
            let got = driver(id)?.try_run(&ExperimentConfig::quick());
            outcome.check(got.as_ref().map(|a| a.to_json()) == Ok(golden), || {
                format!("{id} at the quick config differs from {path}")
            });
        }
        let ids = PAPER.iter().chain(&EXPLAIN);
        let drivers = ids.clone().map(|id| driver(id)).collect::<Result<_, _>>()?;
        // Span names are `'static`; ten short strings live for the run.
        let span_names = ids
            .map(|id| &*Box::leak(format!("experiments.{id}").into_boxed_str()))
            .collect();
        let mut rng = StdRng::seed_from_u64(c.seed);
        let probe_points = (0..PROBES)
            .map(|_| UniformRect::unit().sample_n(&mut rng, PAPER_POINTS))
            .collect();
        Ok(Repro {
            drivers,
            span_names,
            config: ExperimentConfig {
                master_seed: c.seed,
                ..ExperimentConfig::paper()
            },
            capacity: c.capacity,
            reference: None,
            probe_points,
        })
    }

    /// One pass: every driver once, each artifact checked against the
    /// first pass. Returns the pass's seconds.
    pub fn pass(
        &mut self,
        tracer: Option<&mut Tracer>,
        root: SpanId,
        outcome: &mut Outcome,
    ) -> f64 {
        let mut seconds = 0.0;
        let mut arts = Vec::with_capacity(self.drivers.len());
        match tracer {
            None => {
                for d in &self.drivers {
                    let t = Instant::now();
                    let art = d.try_run(&self.config);
                    seconds += t.elapsed().as_secs_f64();
                    arts.push(art);
                }
            }
            Some(tr) => {
                for (d, span) in self.drivers.iter().zip(&self.span_names) {
                    let s = tr.open(root, span);
                    let art = d.try_run(&self.config);
                    seconds += tr.close(s);
                    arts.push(art);
                }
            }
        }
        let arts: Vec<_> = arts.into_iter().map(|a| a.map(|a| a.to_json())).collect();
        let reference = self.reference.get_or_insert_with(|| arts.clone());
        for ((d, art), want) in self.drivers.iter().zip(&arts).zip(reference.iter()) {
            outcome.check(art.is_ok() && art == want, || match art {
                Err(e) => format!("{} failed: {e}", d.id),
                Ok(_) => format!("{} artifact differs from the first pass", d.id),
            });
        }
        seconds
    }

    /// The traced run's replicated probes: the model solver and a
    /// paper-size tree built by insertion, then a census read.
    pub fn probes(&self, tr: &mut Tracer, outcome: &mut Outcome) -> Result<(), String> {
        for points in &self.probe_points {
            let s = tr.open_replicated("core.solve");
            let solved = PrModel::quadtree(self.capacity)
                .and_then(|m| SteadyStateSolver::new().solve(&m))
                .map_err(|e| e.to_string())?;
            tr.close(s);
            let s = tr.open_replicated("spatial.insert_tree");
            let mut tree =
                PrQuadtree::new(Rect::unit(), self.capacity).map_err(|e| e.to_string())?;
            for &p in points {
                tree.insert(p).map_err(|e| e.to_string())?;
            }
            let leaves = tree.occupancy_profile().total_leaves();
            tr.close(s);
            outcome.check(
                solved.distribution().capacity() == self.capacity
                    && leaves as usize == tree.leaf_count(),
                || "probe census disagrees with the tree".into(),
            );
        }
        Ok(())
    }

    /// The repro per-layer metrics of a traced run.
    pub fn layers(&self, tracer: &Tracer, l: &mut Report) {
        let spans = tracer.p50_by_name();
        for span in &self.span_names {
            span_metric(l, &spans, span, &format!("{span}_ms"), 1e3, "ms");
        }
        span_metric(l, &spans, "core.solve", "core.solve_us", 1e6, "us");
        span_metric(
            l,
            &spans,
            "spatial.insert_tree",
            "spatial.insert_tree_us",
            1e6,
            "us",
        );
    }
}
