//! `ingest_repro`: the two write-side paths in one closed loop — every
//! round runs `--epochs-per-pass` ingest epochs (bulk build, freeze,
//! publish) and then one repro pass (model solver, thousands of small
//! trees built by insertion). Neither half runs a range, count or k-NN
//! query, and the two use popan-spatial in opposite ways, so a bulk-path
//! gain that slows insertion shows here as op1 moving one way and op2
//! the other.

use std::time::Instant;

use crate::calib::Calibration;
use crate::ingest::{self, Ingest};
use crate::repro::Repro;
use crate::stats::Samples;
use crate::trace::{Tracer, ROOT};
use crate::{Config, Outcome, SETUP_REPS};

pub fn run(c: &Config, mut tracer: Option<&mut Tracer>) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut repro = Repro::new(c, &mut outcome)?;
    let mut cal = Calibration::new();

    // Set-up: batch 0 built, published and answering, plus one warm-up
    // repro pass (the first is the reference every later pass repeats).
    let mut setup = Samples::default();
    let pool = ingest::batches(c);
    let mut started = None;
    for _ in 0..SETUP_REPS {
        drop(started.take());
        cal.sample();
        let t = Instant::now();
        let root = tracer.as_deref_mut().map_or(ROOT, |tr| {
            tr.next_op();
            tr.open(ROOT, "setup")
        });
        let i = Ingest::start(c, &pool, &mut outcome)?;
        repro.pass(tracer.as_deref_mut(), root, &mut outcome);
        setup.push(match tracer.as_deref_mut() {
            Some(tr) => tr.close(root),
            None => t.elapsed().as_secs_f64(),
        });
        started = Some(i);
    }
    let mut ingest = started.ok_or("no set-up ran")?;
    let setup_factor = cal.take_factor();

    let (mut epoch_lat, mut pass_lat, mut build_lat) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut ops = 0u64;
    let cal_before = cal.spent();
    let start = Instant::now();
    while start.elapsed() < c.seconds {
        for _ in 0..c.epochs_per_pass {
            cal.sample();
            let root = tracer.as_deref_mut().map_or(ROOT, |tr| {
                tr.next_op();
                tr.open(ROOT, "op.epoch")
            });
            let times = ingest.epoch(tracer.as_deref_mut(), root, &mut outcome)?;
            epoch_lat.push(times.epoch);
            build_lat.push(times.build);
            ops += 1;
        }
        cal.sample();
        let root = tracer.as_deref_mut().map_or(ROOT, |tr| {
            tr.next_op();
            tr.open(ROOT, "op.pass")
        });
        pass_lat.push(repro.pass(tracer.as_deref_mut(), root, &mut outcome));
        ops += 1;
        if let Some(tr) = tracer.as_deref_mut() {
            tr.close(root);
            repro.probes(tr, &mut outcome)?;
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let busy = wall
        - (cal.spent() - cal_before)
        - tracer.as_deref().map_or(0.0, Tracer::replicated_seconds);

    let e = &mut outcome.e2e;
    e.add_note(
        "ops_per_s",
        ops as f64 / busy,
        "1/s",
        ops as usize,
        "epochs + passes per second",
    );
    for (slot, samples, tail, alias) in [
        (1, &mut epoch_lat, 0.9, "epoch: epoch_p50_ms, epoch_p90_ms"),
        (2, &mut pass_lat, 0.75, "repro pass: pass_p50_s"),
        (3, &mut build_lat, 0.9, "PrQuadtree::build call"),
    ] {
        let before = e.metrics.len();
        e.add_latency(&format!("op{slot}"), samples, tail, "ms", 1e3);
        for m in &mut e.metrics[before..] {
            m.note = format!("{alias}; {}", m.note);
        }
    }

    if let Some(tr) = tracer.as_deref() {
        ingest.layers(tr, &mut outcome.layers)?;
        repro.layers(tr, &mut outcome.layers);
    }
    outcome.finish(&mut cal, setup.quantile(0.5), setup_factor);
    Ok(outcome)
}
