//! Lint regression suite: the real workspace must be clean, and the seeded
//! violation fixture must fail with exactly the expected findings.

use pcmax_audit::lint;
use pcmax_audit::rules::{lint_source, Allowlist};
use std::collections::BTreeSet;

fn fixture() -> String {
    std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/fixtures/violations.rs.fixture"
    ))
    .expect("fixture file present")
}

#[test]
fn workspace_lints_clean() {
    let cwd = std::env::current_dir().expect("cwd");
    let root = lint::workspace_root(&cwd).expect("workspace root");
    let outcome = lint::run(&root).expect("lint run");
    assert!(
        outcome.clean(),
        "workspace must lint clean, found:\n{}",
        outcome
            .violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        outcome.stale.is_empty(),
        "stale lint.allow entries: {:?}",
        outcome.stale
    );
    assert!(outcome.files_scanned > 50, "whole workspace scanned");
}

#[test]
fn no_build_artifacts_tracked() {
    let cwd = std::env::current_dir().expect("cwd");
    let root = lint::workspace_root(&cwd).expect("workspace root");
    let tracked = lint::tracked_files(&root).expect("git ls-files");
    let offenders: Vec<&String> = tracked
        .iter()
        .filter(|p| p.split('/').any(|c| c == "target"))
        .collect();
    assert!(offenders.is_empty(), "tracked artifacts: {offenders:?}");
}

#[test]
fn fixture_fails_unwrap_and_relaxed_rules() {
    // Lint the fixture as if it were ordinary library source.
    let report = lint_source("crates/fake/src/lib.rs", &fixture(), &Allowlist::default());
    let rules: BTreeSet<&str> = report.violations.iter().map(|v| v.rule).collect();
    assert!(rules.contains("unwrap"), "found: {:?}", report.violations);
    assert!(rules.contains("relaxed"), "found: {:?}", report.violations);
    let unwraps = report
        .violations
        .iter()
        .filter(|v| v.rule == "unwrap")
        .count();
    assert_eq!(
        unwraps, 2,
        "unwrap + expect, but not the test-module unwrap"
    );
    let relaxed = report
        .violations
        .iter()
        .filter(|v| v.rule == "relaxed")
        .count();
    assert_eq!(
        relaxed, 2,
        "bare Relaxed and the unjustified directive both flagged"
    );
}

#[test]
fn fixture_fails_cast_rule_in_dp_files() {
    // Under a DP index-arithmetic path the narrowing cast is also flagged.
    let report = lint_source(
        "crates/ptas/src/table.rs",
        &fixture(),
        &Allowlist::default(),
    );
    assert!(
        report.violations.iter().any(|v| v.rule == "cast"),
        "found: {:?}",
        report.violations
    );
    // Under a non-DP path it is not.
    let report = lint_source("crates/fake/src/lib.rs", &fixture(), &Allowlist::default());
    assert!(report.violations.iter().all(|v| v.rule != "cast"));
}

#[test]
fn fixture_fails_alloc_hot_in_kernel_files_and_guard_rule_everywhere() {
    // `alloc-hot` fires only under TRACE_HOT_FILES paths — the fixture's
    // hot-loop `.push` is flagged there and nowhere else.
    let hot = lint_source(
        "crates/parallel/src/wavefront.rs",
        &fixture(),
        &Allowlist::default(),
    );
    assert!(
        hot.violations.iter().any(|v| v.rule == "alloc-hot"),
        "found: {:?}",
        hot.violations
    );
    let cold = lint_source("crates/fake/src/lib.rs", &fixture(), &Allowlist::default());
    assert!(cold.violations.iter().all(|v| v.rule != "alloc-hot"));

    // `guard-across-park` fires everywhere except the sync seam itself.
    assert!(
        cold.violations
            .iter()
            .any(|v| v.rule == "guard-across-park"),
        "found: {:?}",
        cold.violations
    );
    let seam = lint_source(
        "crates/parallel/src/sync.rs",
        &fixture(),
        &Allowlist::default(),
    );
    assert!(seam
        .violations
        .iter()
        .all(|v| v.rule != "guard-across-park"));
}

#[test]
fn allowlist_downgrades_unwrap_but_not_relaxed() {
    let allow = Allowlist::parse(
        "unwrap crates/fake/src/lib.rs fixture burn-down\n\
         relaxed crates/fake/src/lib.rs fixture justification",
    )
    .expect("parse");
    let report = lint_source("crates/fake/src/lib.rs", &fixture(), &allow);
    // unwrap entries suppress; relaxed still needs a justified site directive.
    assert!(report.violations.iter().all(|v| v.rule != "unwrap"));
    assert_eq!(
        report
            .violations
            .iter()
            .filter(|v| v.rule == "relaxed")
            .count(),
        2,
        "allowlist alone never clears Ordering::Relaxed"
    );
}
