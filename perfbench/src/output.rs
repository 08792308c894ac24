//! The benchmark's printed result: human-readable `metric` lines (every
//! figure with its unit and sample count) followed by the single JSON
//! line `{"correct","attempted","failed","metrics"}`.

use std::fmt::Write as _;

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json` (or an informational
    /// name that only appears in the text lines).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit (`ms`, `s`, `1/s`, `ns`, `count`, ...).
    pub unit: &'static str,
    /// Samples behind the value, when it is a statistic over samples.
    pub samples: Option<u64>,
}

impl Metric {
    /// A metric without a sample count.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples: None,
        }
    }

    /// A metric computed over `samples` samples.
    pub fn over(name: &str, value: f64, unit: &'static str, samples: u64) -> Self {
        Metric {
            samples: Some(samples),
            ..Metric::new(name, value, unit)
        }
    }
}

/// Everything one benchmark invocation reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics that go into the JSON line (and the text lines).
    pub metrics: Vec<Metric>,
    /// Metrics printed only as text lines.
    pub info: Vec<Metric>,
    /// Free-form informational lines (digests, paths).
    pub notes: Vec<String>,
    /// Operations attempted (runs for the simulator, tasks live).
    pub attempted: u64,
    /// Operations that failed or failed an output check.
    pub failed: u64,
    /// Descriptions of failed checks.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Records a failed output check.
    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }
}

/// A finite JSON number with all its digits.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The `metric ...` text line for one figure.
pub fn text_line(m: &Metric) -> String {
    let mut line = format!("metric {} = {} {}", m.name, number(m.value), m.unit);
    if let Some(n) = m.samples {
        let _ = write!(line, " (n={n})");
    }
    line
}

/// The final JSON line.
pub fn json_line(o: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, m) in o.metrics.iter().enumerate() {
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            number(m.value),
            m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.attempted,
        o.failed,
        metrics
    )
}
