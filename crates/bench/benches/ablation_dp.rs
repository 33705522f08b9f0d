//! Ablation: the three DP evaluation orders — iterative dense bottom-up,
//! memoized top-down (only reachable states; the shape of Algorithm 2) and
//! the wavefront-parallel sweep (Algorithm 3).

use pcmax_bench::micro;
use pcmax_parallel::ParallelDp;
use pcmax_ptas::{
    rounded_problem, DpProblem, EpsilonParams, MemoizedDp, SerialEngine, SpaceEngine,
};
use pcmax_workloads::{generate, Distribution, Family};

fn representative_problem() -> DpProblem {
    let inst = generate(Family::new(20, 100, Distribution::U1To100), 1);
    let eps = EpsilonParams::new(0.3).unwrap();
    let target = pcmax_core::lower_bound(&inst);
    rounded_problem(&inst, &eps, target, DpProblem::DEFAULT_MAX_ENTRIES).0
}

fn main() {
    let group = micro::group("ablation_dp");
    let problem = representative_problem();
    group.bench("iterative", "m20n100", || {
        SerialEngine.solve(&problem).unwrap()
    });
    group.bench("memoized", "m20n100", || {
        MemoizedDp.solve(&problem).unwrap()
    });
    let parallel = ParallelDp::default();
    group.bench("parallel", "m20n100", || parallel.solve(&problem).unwrap());
}
