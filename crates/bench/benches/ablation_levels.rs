//! Ablation: bucketed level iteration vs the paper-literal full-table scan
//! per level (Lines 11-12 of Algorithm 3). Quantifies the O(sigma * n')
//! scan overhead the paper's formulation carries.

use pcmax_bench::micro;
use pcmax_parallel::ParallelDp;
use pcmax_ptas::{rounded_problem, DpProblem, EpsilonParams, SpaceEngine};
use pcmax_workloads::{generate, Distribution, Family};

fn representative_problem() -> DpProblem {
    let inst = generate(Family::new(10, 30, Distribution::U1To100), 1);
    let eps = EpsilonParams::new(0.3).unwrap();
    let target = pcmax_core::lower_bound(&inst);
    rounded_problem(&inst, &eps, target, DpProblem::DEFAULT_MAX_ENTRIES).0
}

fn main() {
    let group = micro::group("ablation_levels");
    let problem = representative_problem();
    let bucketed = ParallelDp::default();
    group.bench("bucketed", "m10n30", || bucketed.solve(&problem).unwrap());
    let faithful = ParallelDp::faithful();
    group.bench("faithful", "m10n30", || faithful.solve(&problem).unwrap());
}
