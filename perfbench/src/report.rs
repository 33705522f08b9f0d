//! The run's result: metric lines for people, a self-describing record file,
//! and the one-line JSON verdict the benchmark ends with.

use crate::traffic::Tally;
use pcmax_core::json::{object, Value};
use std::path::PathBuf;

/// Directory, relative to the repository root, that runs write records and
/// traces into.
pub const OUT_DIR: &str = "perfbench/out";

/// One measured figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value, with all its digits.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub samples: usize,
    /// Which statistic was taken (`median`, `p99`, `max`, `mean`, …).
    pub stat: &'static str,
}

impl Metric {
    /// A metric computed with statistic `stat` over `samples` samples.
    pub fn new(
        name: &'static str,
        value: f64,
        unit: &'static str,
        samples: usize,
        stat: &'static str,
    ) -> Self {
        Self {
            name,
            value,
            unit,
            samples,
            stat,
        }
    }
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests or solves).
    pub attempted: u64,
    /// Operations that failed: error, cancelled, overloaded, missing, or a
    /// failed output check.
    pub failed: u64,
    /// Failed checks, with their reasons (at most a few are kept).
    pub problems: Vec<String>,
    /// Every checked problem, counted even when its reason is not kept.
    pub problem_count: u64,
    /// The figures, in reporting order.
    pub metrics: Vec<Metric>,
    /// Self-description: how the run was set up and what it saw.
    pub facts: Vec<(&'static str, Value)>,
}

impl Outcome {
    /// Records a failed check.
    pub fn problem(&mut self, reason: impl Into<String>) {
        self.problem_count += 1;
        if self.problems.len() < 8 {
            self.problems.push(reason.into());
        }
    }

    /// Counts a phase's requests, failures and their reasons.
    pub fn count(&mut self, tally: &Tally) {
        self.attempted += tally.sent;
        self.failed += tally.failed;
        for p in &tally.problems {
            self.problem(p.clone());
        }
    }

    /// Records a fact about the run.
    pub fn fact(&mut self, key: &'static str, value: Value) {
        self.facts.push((key, value));
    }

    /// Adds a figure.
    pub fn metric(&mut self, metric: Metric) {
        self.metrics.push(metric);
    }

    /// Whether every check passed and every figure is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.problem_count == 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    fn metrics_json(&self) -> Value {
        Value::Object(
            self.metrics
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        object(vec![
                            ("value", Value::Float(m.value)),
                            ("unit", Value::Str(m.unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The final verdict line.
    pub fn verdict_line(&self) -> String {
        object(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::UInt(self.attempted.max(1))),
            ("failed", Value::UInt(self.failed)),
            ("metrics", self.metrics_json()),
        ])
        .to_string_compact()
    }

    /// The self-describing record: the facts, every figure with its unit,
    /// statistic and sample count, and the failed checks.
    pub fn record(&self) -> Value {
        let mut members: Vec<(&str, Value)> =
            self.facts.iter().map(|(k, v)| (*k, v.clone())).collect();
        members.push(("attempted", Value::UInt(self.attempted)));
        members.push(("failed", Value::UInt(self.failed)));
        members.push((
            "failed_share",
            Value::Float(self.failed as f64 / self.attempted.max(1) as f64),
        ));
        members.push((
            "metrics",
            Value::Array(
                self.metrics
                    .iter()
                    .map(|m| {
                        object(vec![
                            ("name", Value::Str(m.name.into())),
                            ("value", Value::Float(m.value)),
                            ("unit", Value::Str(m.unit.into())),
                            ("stat", Value::Str(m.stat.into())),
                            ("samples", Value::UInt(m.samples as u64)),
                        ])
                    })
                    .collect(),
            ),
        ));
        members.push((
            "problems",
            Value::Array(self.problems.iter().cloned().map(Value::Str).collect()),
        ));
        object(members)
    }

    /// Prints the human-readable lines, writes the record to `OUT_DIR`, and
    /// prints the verdict line last.
    pub fn finish(&self, file_stem: &str) {
        for (key, value) in &self.facts {
            println!("# {key}: {}", value.to_string_compact());
        }
        for m in &self.metrics {
            println!(
                "{:<28} {:>14.6} {:<6} ({} of {} samples)",
                m.name, m.value, m.unit, m.stat, m.samples
            );
        }
        println!(
            "failed_share {} ({} of {} failed)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        for p in &self.problems {
            println!("CHECK FAILED: {p}");
        }
        match write_out(
            &format!("{file_stem}.json"),
            &self.record().to_string_pretty(),
        ) {
            Ok(path) => println!("# record: {}", path.display()),
            Err(e) => println!("# record not written: {e}"),
        }
        println!("{}", self.verdict_line());
    }
}

/// Writes `text` to `OUT_DIR/name`, creating the directory.
pub fn write_out(name: &str, text: &str) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(OUT_DIR)?;
    let path = PathBuf::from(OUT_DIR).join(name);
    std::fs::write(&path, text)?;
    Ok(path)
}
