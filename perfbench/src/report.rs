//! Failure accounting and the result document.

use cfpd_telemetry::JsonWriter;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// How many samples the value summarises (1 for a count).
    pub samples: usize,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
    Metric {
        name,
        unit,
        value,
        samples,
    }
}

/// Operations attempted and failed, plus every correctness violation
/// seen. A correctness violation always counts as a failure; a failure
/// without one (a shed or timed-out job) leaves the outputs correct.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
}

impl Tally {
    /// Count one operation; `Err` marks it failed and records why.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.violations.push(why);
        }
    }

    /// Count one operation that failed without producing a wrong output.
    pub fn miss(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.violations.extend(other.violations);
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// A workload's result: the tally and its metrics.
pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Human-readable lines, printed before the JSON result line. Lists
    /// `fail_ratio` too, which the JSON carries as `attempted`/`failed`.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!(
                "{:<28} {:>16.6} {:<14} n={}\n",
                m.name, m.value, m.unit, m.samples
            ));
        }
        out.push_str(&format!(
            "{:<28} {:>16.6} {:<14} n={}\n",
            "fail_ratio",
            self.tally.fail_ratio(),
            "ratio",
            self.tally.attempted
        ));
        for v in self.tally.violations.iter().take(20) {
            out.push_str(&format!("VIOLATION: {v}\n"));
        }
        out
    }

    /// The one-line result document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("correct").bool(self.tally.correct());
        w.key("attempted").u64(self.tally.attempted);
        w.key("failed").u64(self.tally.failed);
        w.key("metrics").begin_object();
        for m in &self.metrics {
            w.key(m.name).begin_object();
            w.key("value").f64(m.value);
            w.key("unit").string(m.unit);
            w.end_object();
        }
        w.end_object();
        w.end_object();
        w.finish()
    }
}
