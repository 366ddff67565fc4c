//! Sample sets, percentiles and the metric report.

/// Latency (or count) samples of one op type.
#[derive(Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Nearest-rank quantile (`p` in (0, 1]); 0 for an empty set.
    pub fn quantile(&mut self, p: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.values.sort_unstable_by(f64::total_cmp);
            self.sorted = true;
        }
        self.values[rank(p, self.values.len())]
    }

    /// How many samples lie strictly beyond the nearest-rank `p` quantile.
    pub fn beyond(&self, p: f64) -> usize {
        let n = self.values.len();
        if n == 0 {
            0
        } else {
            n - 1 - rank(p, n)
        }
    }
}

fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single reading).
    pub n: usize,
    /// Free-text qualifier shown in the human report (`replicated`,
    /// `not exercised`, a percentile's sample shortfall, …).
    pub note: String,
}

/// The metrics one run produces, in emission order.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str, n: usize) {
        self.add_note(name, value, unit, n, "");
    }

    pub fn add_note(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        n: usize,
        note: impl Into<String>,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            n,
            note: note.into(),
        });
    }

    /// Adds the p50 and the tail quantile `tail` of `samples` (seconds)
    /// as `<name>_p50_<unit>` / `<name>_tail_<unit>`, scaled by `scale`.
    /// The tail is flagged when fewer than ten samples lie beyond it.
    pub fn add_latency(
        &mut self,
        name: &str,
        samples: &mut Samples,
        tail: f64,
        unit: &'static str,
        scale: f64,
    ) {
        let n = samples.len();
        let p50 = samples.quantile(0.5) * scale;
        let t = samples.quantile(tail) * scale;
        let beyond = samples.beyond(tail);
        self.add(format!("{name}_p50_{unit}"), p50, unit, n);
        let note = if beyond < 10 {
            format!("p{} with only {beyond} samples beyond it", tail * 100.0)
        } else {
            format!("p{}", tail * 100.0)
        };
        self.add_note(format!("{name}_tail_{unit}"), t, unit, n, note);
    }

    /// Scales every time by `factor` and every rate by its inverse (see
    /// `calib.rs`), keeping the measured value in the note.
    pub fn adjust(&mut self, factor: f64) {
        for m in &mut self.metrics {
            let scaled = match m.unit {
                "s" | "ms" | "us" => m.value * factor,
                "1/s" => m.value / factor,
                _ => continue,
            };
            let sep = if m.note.is_empty() { "" } else { "; " };
            m.note = format!("measured {:.6}{sep}{}", m.value, m.note);
            m.value = scaled;
        }
    }

    /// The report as one JSON object: `{"name": {"value", "unit", "n",
    /// "note"}, …}`.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{},\"n\":{},\"note\":{}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit),
                    m.n,
                    json_str(&m.note)
                )
            })
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// A finite number in JSON form (non-finite values become `null`).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
