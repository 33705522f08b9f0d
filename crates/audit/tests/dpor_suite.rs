//! Systematic (DPOR) coverage suite: exhaustively enumerates the
//! non-equivalent schedules of the real executors on a small instance and
//! asserts zero races, zero lock-order cycles, zero lost wakeups, and
//! bit-identical tables — plus the detector-liveness contract that the
//! exhaustive mode finds an injected order-dependent race a fixed
//! 64-seed random sweep provably misses.
//!
//! Compile with `cargo test -p pcmax-audit --features audit`; the whole
//! file vanishes without the feature.
#![cfg(feature = "audit")]

use pcmax_audit::dpor::run_schedule;
use pcmax_audit::dpor::workloads::{
    fork_join_two_workers, injected_rare_race, triple_rmw_three_workers,
    FORK_JOIN_TWO_WORKERS_SCHEDULES, TRIPLE_RMW_THREE_WORKERS_SCHEDULES,
};
use pcmax_audit::explore::{sweep, sweep_exhaustive};
use pcmax_parallel::wavefront::{bucketed_sweep, bucketed_sweep_space_with};
use pcmax_parallel::{CellKernel, Chunking, ParallelDp};
use pcmax_ptas::dp::DpProblem;
use pcmax_ptas::space::{PcmaxSpace, SpaceEngine};
use pcmax_ptas::table::DpScratch;

/// A deliberately tiny instance (one job of rounded size 2·2, one of 4·2)
/// so the executors' full schedule space fits in an exhaustive budget:
/// the wavefront has 3 levels and 4 table entries.
fn tiny_problem() -> DpProblem {
    let mut counts = vec![0u32; 16];
    counts[2] = 1;
    counts[4] = 1;
    DpProblem::new(counts, 2, 30, 64)
}

/// The sequential engine's exact table for [`tiny_problem`] — the oracle
/// every explored schedule must reproduce.
fn tiny_oracle() -> Vec<u16> {
    let problem = tiny_problem();
    let mut table = problem.build_table().expect("tiny problem fits");
    let configs = problem.configs_with_offsets(&table);
    pcmax_ptas::space::serial_sweep(&mut table, &pcmax_ptas::space::PcmaxSpace::new(&configs));
    table.values_row_major()
}

/// The persistent-pool bucketed sweep on the tiny instance.
fn pool_values(threads: usize) -> Vec<u16> {
    let problem = tiny_problem();
    let mut scratch = DpScratch::new();
    let mut table = problem
        .build_level_major_table_in(&mut scratch)
        .expect("tiny problem fits");
    let configs = problem.configs_with_offsets(&table);
    table.values[0] = 0;
    bucketed_sweep(&mut table, &configs, threads, &mut scratch);
    table.values_row_major()
}

/// The paper-literal full-scan executor on the tiny instance.
fn faithful_values(threads: usize) -> Vec<u16> {
    let problem = tiny_problem();
    let mut scratch = DpScratch::new();
    let engine = ParallelDp {
        threads: Some(threads),
        ..ParallelDp::faithful()
    };
    let mut table = engine
        .table_for(&problem, &mut scratch)
        .expect("tiny problem fits");
    let configs = problem.configs_with_offsets(&table);
    engine.sweep(&mut table, &PcmaxSpace::new(&configs), &mut scratch);
    table.values
}

#[test]
fn microworkload_schedule_counts_match_hand_derived_bounds() {
    let two = sweep_exhaustive(64, fork_join_two_workers, |schedule, &total| {
        assert_eq!(total, 2, "schedule {schedule:?} lost an increment");
    });
    assert!(two.complete && two.is_clean());
    assert_eq!(two.schedules, FORK_JOIN_TWO_WORKERS_SCHEDULES);

    let three = sweep_exhaustive(256, triple_rmw_three_workers, |schedule, &total| {
        assert_eq!(total, 3, "schedule {schedule:?} lost an increment");
    });
    assert!(three.complete && three.is_clean());
    assert_eq!(three.schedules, TRIPLE_RMW_THREE_WORKERS_SCHEDULES);
}

#[test]
fn persistent_pool_minimal_instance_is_exhaustively_covered() {
    // One job, two workers: small enough that DPOR provably exhausts the
    // pool's entire schedule space — every non-equivalent interleaving of
    // the park/notify barrier is run, and all are clean.
    let mut counts = vec![0u32; 16];
    counts[2] = 1;
    let problem = DpProblem::new(counts, 2, 30, 64);
    let report = sweep_exhaustive(
        2000,
        || {
            let mut scratch = DpScratch::new();
            let mut table = problem
                .build_level_major_table_in(&mut scratch)
                .expect("minimal problem fits");
            let configs = problem.configs_with_offsets(&table);
            table.values[0] = 0;
            bucketed_sweep(&mut table, &configs, 2, &mut scratch);
            table.values_row_major()
        },
        |schedule, values| {
            assert_eq!(values, &[0, 1], "schedule {schedule:?}: wrong table");
        },
    );
    assert!(
        report.complete,
        "the minimal pool instance must be fully enumerable \
         (ran {} schedules without exhausting the space)",
        report.schedules
    );
    assert!(report.is_clean(), "pool findings: {report:?}");
    assert!(
        report.schedules > 1,
        "the pool handoff must admit more than one schedule class"
    );
    assert!(report.max_threads > 1);
}

#[test]
fn persistent_pool_exhaustive_sweep_is_clean() {
    let expected = tiny_oracle();
    let report = sweep_exhaustive(
        4000,
        || pool_values(2),
        |schedule, values| {
            assert_eq!(
                values, &expected,
                "schedule {schedule:?}: table diverged from the sequential DP"
            );
        },
    );
    assert!(
        report.schedules > 100,
        "budget-bounded coverage must still explore broadly (got {})",
        report.schedules
    );
    assert!(
        report.races.is_empty(),
        "persistent pool races: {:?}",
        report.races
    );
    assert!(
        report.cycles.is_empty(),
        "persistent pool lock-order cycles: {:?}",
        report.cycles
    );
    assert!(
        report.lost_wakeups.is_empty(),
        "persistent pool lost wakeups: {:?}",
        report.lost_wakeups
    );
    assert!(
        report.deadlocks.is_empty(),
        "persistent pool model deadlocks: {:?}",
        report.deadlocks
    );
    assert!(report.max_threads > 1);
}

#[test]
fn strip_kernel_exhaustive_sweep_is_clean() {
    // The batched strip kernel pinned explicitly (not just as the default),
    // under DPOR on the tiny instance: every non-equivalent schedule of the
    // pool must run the tile walk race-free and reproduce the oracle.
    let expected = tiny_oracle();
    let problem = tiny_problem();
    let report = sweep_exhaustive(
        4000,
        || {
            let mut scratch = DpScratch::new();
            let mut table = problem
                .build_level_major_table_in(&mut scratch)
                .expect("tiny problem fits");
            let configs = problem.configs_with_offsets(&table);
            let space = PcmaxSpace::new(&configs);
            table.values[0] = 0;
            bucketed_sweep_space_with(
                &mut table,
                &space,
                2,
                &mut scratch,
                CellKernel::Strip,
                Chunking::Adaptive,
            );
            table.values_row_major()
        },
        |schedule, values| {
            assert_eq!(
                values, &expected,
                "schedule {schedule:?}: strip kernel diverged from the sequential DP"
            );
        },
    );
    assert!(
        report.schedules > 1,
        "the pool handoff must admit more than one schedule class"
    );
    assert!(
        report.races.is_empty(),
        "strip kernel races: {:?}",
        report.races
    );
    assert!(
        report.cycles.is_empty(),
        "strip kernel lock-order cycles: {:?}",
        report.cycles
    );
    assert!(
        report.lost_wakeups.is_empty(),
        "strip kernel lost wakeups: {:?}",
        report.lost_wakeups
    );
    assert!(
        report.deadlocks.is_empty(),
        "strip kernel model deadlocks: {:?}",
        report.deadlocks
    );
    assert!(report.max_threads > 1);
}

#[test]
fn faithful_exhaustive_sweep_is_clean() {
    let expected = tiny_oracle();
    let report = sweep_exhaustive(
        4000,
        || faithful_values(2),
        |schedule, values| {
            assert_eq!(
                values, &expected,
                "schedule {schedule:?}: table diverged from the sequential DP"
            );
        },
    );
    assert!(
        report.complete,
        "the faithful sweep on the tiny instance must be fully enumerable"
    );
    assert!(report.is_clean(), "faithful findings: {report:?}");
    assert!(report.max_threads > 1);
}

#[test]
fn dpor_finds_the_race_a_64_seed_random_sweep_misses() {
    // The fixed random sweep — same shape as the regression suite's — sees
    // nothing: the race hides in one schedule class the geometric
    // coin-flips essentially never assemble.
    let random = sweep(0, 64, injected_rare_race, |_, _| {});
    assert_eq!(random.schedules, 64);
    assert!(
        random.races.is_empty(),
        "the injected race must be invisible to the fixed random sweep \
         (otherwise it is not a fair witness for systematic exploration): {:?}",
        random.races
    );

    // The systematic mode enumerates schedule classes and cannot miss it.
    let report = sweep_exhaustive(512, injected_rare_race, |_, _| {});
    assert!(
        !report.races.is_empty(),
        "DPOR must reach the racing schedule class within budget \
         (explored {} schedules)",
        report.schedules
    );
    let cx = report
        .counterexample
        .as_ref()
        .expect("first race must be shrunk to a counterexample");
    assert_eq!(cx.race.loc, 7, "the racing location is the gated write");
    assert!(
        cx.schedule.len() <= 8,
        "shrinking must produce a short script, got {:?}",
        cx.schedule
    );
}

#[test]
fn minimal_schedule_round_trips_through_replay() {
    let report = sweep_exhaustive(512, injected_rare_race, |_, _| {});
    let cx = report.counterexample.expect("race must be found");
    // The shrunk script is a plain `&[usize]` — exactly what a failure
    // message prints and a human pastes back into `run_schedule`.
    for _ in 0..2 {
        let replay = run_schedule(&cx.schedule, injected_rare_race);
        assert!(
            replay.races.iter().any(|r| r.loc == cx.race.loc),
            "replaying the minimal schedule must reproduce the same race"
        );
    }
}
