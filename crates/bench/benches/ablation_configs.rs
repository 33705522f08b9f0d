//! Ablation: one global configuration set filtered per entry (this
//! implementation) vs regenerating C_v for every entry (Line 17 of
//! Algorithm 3, what the paper's implementation does).

use pcmax_bench::micro;
use pcmax_ptas::{
    rounded_problem, solve_regenerating_configs, DpProblem, EpsilonParams, SerialEngine,
    SpaceEngine,
};
use pcmax_workloads::{generate, Distribution, Family};

fn representative_problem() -> DpProblem {
    let inst = generate(Family::new(10, 30, Distribution::U1To100), 1);
    let eps = EpsilonParams::new(0.3).unwrap();
    let target = pcmax_core::lower_bound(&inst);
    rounded_problem(&inst, &eps, target, DpProblem::DEFAULT_MAX_ENTRIES).0
}

fn main() {
    let group = micro::group("ablation_configs");
    let problem = representative_problem();
    group.bench("global_filtered", "m10n30", || {
        SerialEngine.solve(&problem).unwrap()
    });
    group.bench("regenerate_per_entry", "m10n30", || {
        solve_regenerating_configs(&problem).unwrap()
    });
}
