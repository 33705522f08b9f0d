//! Self-test of the benchmark: every workload at `--smoke` size, untraced
//! and traced, prints every metric `BENCHMARK.json` names with its unit,
//! fails no request, and records `failed_share` = 0.

use pcmax_core::json::{self, Value};
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives in a directory of the repository")
        .to_path_buf()
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let spec = json::parse(&text).expect("BENCHMARK.json parses");
    let field = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
    spec.get(key)
        .and_then(Value::as_array)
        .expect(key)
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

fn smoke_run(workload: &str, trace: bool) {
    let output = Command::new(env!("CARGO_BIN_EXE_pcmax-perfbench"))
        .current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} trace={trace} failed:\n{stdout}"
    );

    let verdict =
        json::parse(stdout.lines().last().expect("a verdict line")).expect("verdict JSON");
    assert_eq!(verdict.get("correct"), Some(&Value::Bool(true)), "{stdout}");
    assert_eq!(
        verdict.get("failed").and_then(Value::as_u64),
        Some(0),
        "{stdout}"
    );
    assert!(verdict.get("attempted").and_then(Value::as_u64) >= Some(1));

    let Some(Value::Object(metrics)) = verdict.get("metrics") else {
        panic!("no metrics object: {stdout}");
    };
    let expected = declared(if trace { "per_layer" } else { "end_to_end" });
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Value::as_f64).is_some(),
                "{name} has no value"
            );
            (
                name.clone(),
                m.get("unit")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
            )
        })
        .collect();
    assert_eq!(printed, expected, "{workload} trace={trace}");
    for (name, unit) in &expected {
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(name.as_str()) && l.contains(unit.as_str())),
            "{name} is not printed with its unit"
        );
    }

    let record_path = stdout
        .lines()
        .find_map(|l| l.strip_prefix("# record: "))
        .expect("the record path is printed");
    let record = json::parse(
        &std::fs::read_to_string(repo_root().join(record_path)).expect("the record is written"),
    )
    .expect("record JSON");
    assert_eq!(
        record.get("failed_share").and_then(Value::as_f64),
        Some(0.0)
    );
}

#[test]
fn mix_fresh_prints_every_metric_and_fails_nothing() {
    smoke_run("mix-fresh", false);
    smoke_run("mix-fresh", true);
}

#[test]
fn mix_repeat_prints_every_metric_and_fails_nothing() {
    smoke_run("mix-repeat", false);
    smoke_run("mix-repeat", true);
}

#[test]
fn big_solve_prints_every_metric_and_fails_nothing() {
    smoke_run("big-solve", false);
    smoke_run("big-solve", true);
}

#[test]
fn bad_arguments_fail_without_a_verdict() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"],
        &["--workload", "big-solve", "--trace", "2"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_pcmax-perfbench"))
            .current_dir(repo_root())
            .args(args)
            .output()
            .expect("benchmark runs");
        assert!(!output.status.success());
        assert!(output.stdout.is_empty());
    }
}
