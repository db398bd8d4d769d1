//! Metric and gate collection, the human-readable lines and the one-line
//! JSON result.

use std::fmt::Write as _;

use crate::stats::{self, Summary};

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Contract name, e.g. `period_ms_p50` or `view.absorb_ns`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, e.g. `ms`, `1/s`, `count`.
    pub unit: &'static str,
    /// Samples behind a timing (`None` for counts and derived ratios).
    pub samples: Option<usize>,
    /// Free-form qualifier printed after the value (percentile, base).
    pub note: String,
}

/// A correctness gate: one checked property of the run's output.
#[derive(Debug, Clone)]
pub struct Gate {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The observed value against the threshold.
    pub detail: String,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in insertion order.
    pub metrics: Vec<Metric>,
    /// Gates in evaluation order.
    pub gates: Vec<Gate>,
    /// Timed operations (cycles or periods) the run completed.
    pub operations: u64,
}

impl Report {
    /// Adds a metric with no sample count.
    pub fn value(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            samples: None,
            note: note.into(),
        });
    }

    /// Adds a metric measured from `samples` samples.
    pub fn sampled(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            samples: Some(samples),
            note: String::new(),
        });
    }

    /// Adds `<prefix>_p50` and `<prefix>_tail` from a timing summary.
    /// Without enough samples for a tail, the tail reads as the maximum
    /// and says so.
    pub fn median_and_tail(&mut self, prefix: &str, samples: &[f64], unit: &'static str) {
        let Some(Summary { n, median, tail }) = stats::summarize(samples) else {
            self.value(&format!("{prefix}_p50"), 0.0, unit, "no samples");
            self.value(&format!("{prefix}_tail"), 0.0, unit, "no samples");
            return;
        };
        self.sampled(&format!("{prefix}_p50"), median, unit, n);
        let (value, note) = match tail {
            Some(t) => (t.value, format!("p{:.1}", t.percentile)),
            None => (
                samples.iter().copied().fold(f64::MIN, f64::max),
                format!("max: fewer than {} samples", stats::TAIL_BEYOND + 1),
            ),
        };
        self.metrics.push(Metric {
            name: format!("{prefix}_tail"),
            value,
            unit,
            samples: Some(n),
            note,
        });
    }

    /// Records a gate.
    pub fn gate(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.gates.push(Gate {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Gates that failed.
    pub fn failed_gates(&self) -> usize {
        self.gates.iter().filter(|g| !g.ok).count()
    }

    /// The human-readable lines: one per metric, then one per gate.
    pub fn render_lines(&self, workload: &str) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = write!(out, "metric {workload} {} = {} {}", m.name, m.value, m.unit);
            if let Some(n) = m.samples {
                let _ = write!(out, " [n={n}]");
            }
            if !m.note.is_empty() {
                let _ = write!(out, " ({})", m.note);
            }
            out.push('\n');
        }
        for g in &self.gates {
            let verdict = if g.ok { "PASS" } else { "FAIL" };
            let _ = writeln!(out, "gate {workload} {verdict} {}: {}", g.name, g.detail);
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and the named
    /// metrics. Operations are the timed cycles or periods plus one per
    /// gate; a failed gate is a failed operation.
    ///
    /// # Panics
    ///
    /// Panics if a name in `names` was never measured, was measured in
    /// another unit, or a value is not finite: each is a defect of the
    /// benchmark itself. (`f64`'s
    /// `Display` never uses exponent notation, so every finite value is a
    /// JSON number with all its digits.)
    pub fn result_json(&self, names: &[(&str, &str)]) -> String {
        let failed = self.failed_gates();
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            failed == 0,
            self.operations + self.gates.len() as u64,
            failed
        );
        for (i, &(name, unit)) in names.iter().enumerate() {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            assert!(m.value.is_finite(), "metric {name} is not finite");
            assert_eq!(m.unit, unit, "metric {name} measured in the wrong unit");
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_json_counts_gates_as_operations() {
        let mut r = Report {
            operations: 5,
            ..Report::default()
        };
        r.value("setup_s", 1.25, "s", "");
        r.gate("a", true, "");
        r.gate("b", false, "");
        assert_eq!(
            r.result_json(&[("setup_s", "s")]),
            "{\"correct\": false, \"attempted\": 7, \"failed\": 1, \
             \"metrics\": {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn median_and_tail_fall_back_to_the_maximum() {
        let mut r = Report::default();
        r.median_and_tail("period_ms", &[3.0, 1.0, 2.0], "ms");
        assert_eq!(r.get("period_ms_p50"), Some(2.0));
        assert_eq!(r.get("period_ms_tail"), Some(3.0));
        let mut r = Report::default();
        let many: Vec<f64> = (1..=100).map(f64::from).collect();
        r.median_and_tail("lag_ms", &many, "ms");
        assert_eq!(r.get("lag_ms_tail"), Some(90.0));
    }
}
