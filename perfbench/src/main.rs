//! `perfbench` — the popan benchmark binary.
//!
//! ```text
//! perfbench --workload <serve|ingest_repro> --seed <n> --seconds <s> --trace <0|1>
//!           [--points N] [--capacity m] [--mix r:c:k] [--query-pool P]
//!           [--batch-pool B] [--epochs-per-pass E] [--trace-out FILE]
//! ```
//!
//! Every workload is a closed loop: one caller thread issues the next op
//! only after the previous one returned. The seed only drives the input
//! generators in this package; the library sees the generated points,
//! windows and targets (and, for the repro passes, the experiment
//! config's `master_seed`, which is their input). `perfbench/run.py`
//! builds this binary, runs it, adds peak RSS and the tracing overhead,
//! and prints the `{correct, attempted, failed, metrics}` result line;
//! see `perfbench/LAYERS.md` for what each metric measures.
//!
//! Every time is reported host-speed adjusted (`calib.rs`). Stdout's
//! last line is one JSON object: `workload`, `traced`,
//! `calibration_stream_us`, `calibration_sort_us`, `calibration_n`,
//! `attempted`, `failed`, `failures` (the first few failure messages),
//! `e2e` (end-to-end metrics) and `layers` (per-layer metrics, traced
//! runs only).

mod calib;
mod ingest;
mod ingest_repro;
mod repro;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Duration;

use stats::{json_str, Report};
use trace::Tracer;

/// Benchmark inputs and sizes. The defaults are the sizes recorded in
/// the repository's `BENCHMARK.json` command line.
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub trace_out: Option<String>,
    /// Points per snapshot (`serve`) or per ingested batch.
    pub points: usize,
    /// Leaf capacity m.
    pub capacity: usize,
    /// Ops per round of the `serve` loop: range, count, k-NN.
    pub mix: [usize; 3],
    /// Distinct inputs per op type in the `serve` loop.
    pub query_pool: usize,
    /// Pre-generated batches the ingest epochs cycle through.
    pub batch_pool: usize,
    /// Ingest epochs per repro pass in an `ingest_repro` round.
    pub epochs_per_pass: usize,
}

impl Config {
    fn parse(args: &[String]) -> Result<Config, String> {
        let mut c = Config {
            workload: String::new(),
            seed: 0,
            seconds: Duration::from_secs(10),
            trace: false,
            trace_out: None,
            points: 250_000,
            capacity: 8,
            mix: [1, 1, 1],
            query_pool: 16384,
            batch_pool: 8,
            epochs_per_pass: 4,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .as_str();
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => c.workload = value.to_string(),
                "--seed" => c.seed = value.parse().map_err(|_| bad("expected u64"))?,
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("expected seconds"))?;
                    if !(s > 0.0 && s <= 3600.0) {
                        return Err(bad("expected 0 < seconds ≤ 3600"));
                    }
                    c.seconds = Duration::from_secs_f64(s);
                }
                "--trace" => {
                    c.trace = match value {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    }
                }
                "--trace-out" => c.trace_out = Some(value.to_string()),
                "--points" => c.points = positive(value).ok_or_else(|| bad("expected ≥ 1"))?,
                "--capacity" => c.capacity = positive(value).ok_or_else(|| bad("expected ≥ 1"))?,
                "--mix" => {
                    let parts: Vec<Option<usize>> = value.split(':').map(positive).collect();
                    match parts.as_slice() {
                        [Some(r), Some(n), Some(k)] => c.mix = [*r, *n, *k],
                        _ => return Err(bad("expected range:count:knn, each ≥ 1")),
                    }
                }
                "--query-pool" => {
                    c.query_pool = positive(value).ok_or_else(|| bad("expected ≥ 1"))?
                }
                "--batch-pool" => {
                    c.batch_pool = positive(value).ok_or_else(|| bad("expected ≥ 1"))?
                }
                "--epochs-per-pass" => {
                    c.epochs_per_pass = positive(value).ok_or_else(|| bad("expected ≥ 1"))?
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !["serve", "ingest_repro"].contains(&c.workload.as_str()) {
            return Err(format!(
                "--workload must be serve or ingest_repro, got {:?}",
                c.workload
            ));
        }
        Ok(c)
    }
}

fn positive(s: &str) -> Option<usize> {
    s.parse().ok().filter(|&v| v >= 1)
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 11;

/// What a workload run hands back.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub e2e: Report,
    pub layers: Report,
    /// Median times (µs) of the two calibration kernels, and the
    /// number of samples.
    pub calibration_us: (f64, f64, usize),
}

impl Outcome {
    /// Applies the host-speed adjustment of `calib.rs` to every metric
    /// and adds `setup_s`, adjusted by the kernel samples taken
    /// during set-up (`setup_factor`), which sit closer in time.
    pub fn finish(&mut self, cal: &mut calib::Calibration, setup: f64, setup_factor: f64) {
        let factor = cal.factor();
        self.e2e.adjust(factor);
        self.layers.adjust(factor);
        self.calibration_us = cal.medians_us();
        self.e2e.add_note(
            "setup_s",
            setup * setup_factor,
            "s",
            SETUP_REPS,
            format!("measured {setup:.6}; median of {SETUP_REPS} set-ups"),
        );
    }

    /// Records one checked op: `ok == false` counts it as failed and
    /// keeps the first few messages.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match Config::parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // One caller thread: the experiment engine must not fan out either.
    std::env::set_var("POPAN_THREADS", "1");
    let mut tracer = config.trace.then(Tracer::new);
    let result = match config.workload.as_str() {
        "serve" => serve::run(&config, tracer.as_mut()),
        _ => ingest_repro::run(&config, tracer.as_mut()),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", config.workload);
            return ExitCode::from(1);
        }
    };
    if let (Some(t), Some(path)) = (&tracer, &config.trace_out) {
        if let Err(e) = t.write_csv(std::path::Path::new(path)) {
            eprintln!("perfbench: writing spans to {path}: {e}");
            return ExitCode::from(1);
        }
    }
    let failures: Vec<String> = outcome.failures.iter().map(|f| json_str(f)).collect();
    println!(
        "{{\"workload\":{},\"traced\":{},\"calibration_stream_us\":{},\"calibration_sort_us\":{},\"calibration_n\":{},\"attempted\":{},\"failed\":{},\"failures\":[{}],\"e2e\":{},\"layers\":{}}}",
        json_str(&config.workload),
        config.trace,
        stats::json_num(outcome.calibration_us.0),
        stats::json_num(outcome.calibration_us.1),
        outcome.calibration_us.2,
        outcome.attempted,
        outcome.failed,
        failures.join(","),
        outcome.e2e.to_json(),
        outcome.layers.to_json()
    );
    ExitCode::SUCCESS
}
