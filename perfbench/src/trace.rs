//! In-memory span recorder for the traced run.
//!
//! A span has a name, a start, an end and a parent; every span opened
//! while one op runs carries that op's id. Spans stay in memory until
//! the run ends, when [`Tracer::write_csv`] writes them out and
//! [`Tracer::p50_by_name`] summarises them. A *replicated* span times a
//! public sub-call made a second time on the same input, because the
//! call it stands for cannot be split from outside; replicated spans
//! are never children of the op's root span, so the root still times
//! exactly the work the untraced run times.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::stats::{Report, Samples};

/// Index of a span in the recorder.
pub type SpanId = u32;

/// Marks a span with no parent.
pub const ROOT: SpanId = u32::MAX;

struct Span {
    op: u32,
    parent: SpanId,
    name: &'static str,
    replicated: bool,
    start_ns: u64,
    end_ns: u64,
}

/// The span recorder. Opening and closing a span costs one clock read
/// and, for an open, one push.
pub struct Tracer {
    epoch: Instant,
    op: u32,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            op: 0,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a new op: spans opened from here on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Opens a span under `parent` (or [`ROOT`]).
    pub fn open(&mut self, parent: SpanId, name: &'static str) -> SpanId {
        self.push(parent, name, false)
    }

    /// Opens a replicated span (see the module docs). Always a root.
    pub fn open_replicated(&mut self, name: &'static str) -> SpanId {
        self.push(ROOT, name, true)
    }

    fn push(&mut self, parent: SpanId, name: &'static str, replicated: bool) -> SpanId {
        let id = self.spans.len() as SpanId;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op: self.op,
            parent,
            name,
            replicated,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Closes `id` and returns its duration in seconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        let end = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end;
        (end - span.start_ns) as f64 * 1e-9
    }

    /// Total seconds spent inside replicated spans: the traced run
    /// subtracts it from its wall time before computing throughput.
    pub fn replicated_seconds(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.replicated)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Median duration of each span name, in seconds, with its count and
    /// whether the spans were replicated.
    pub fn p50_by_name(&self) -> BTreeMap<&'static str, (f64, usize, bool)> {
        let mut by_name: BTreeMap<&'static str, (Samples, bool)> = BTreeMap::new();
        for s in &self.spans {
            by_name
                .entry(s.name)
                .or_insert_with(|| (Samples::default(), s.replicated))
                .0
                .push((s.end_ns - s.start_ns) as f64 * 1e-9);
        }
        by_name
            .into_iter()
            .map(|(name, (mut samples, replicated))| {
                (name, (samples.quantile(0.5), samples.len(), replicated))
            })
            .collect()
    }

    /// Writes every span as one CSV row:
    /// `op,span,parent,name,replicated,start_ns,end_ns` (parent `-` for
    /// none). Times are nanoseconds since the recorder was created.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "op,span,parent,name,replicated,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{},{},{},{},{},{},{}",
                s.op,
                i,
                parent,
                s.name,
                u8::from(s.replicated),
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Adds the p50 of the spans called `span` as metric `metric`.
pub fn span_metric(
    report: &mut Report,
    spans: &BTreeMap<&'static str, (f64, usize, bool)>,
    span: &str,
    metric: &str,
    scale: f64,
    unit: &'static str,
) {
    let (p50, n, replicated) = spans.get(span).copied().unwrap_or((0.0, 0, false));
    let note = if replicated { "replicated" } else { "" };
    report.add_note(metric, p50 * scale, unit, n, note);
}
