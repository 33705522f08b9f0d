//! Cross-crate invariants of the extension algorithms (Sahni FPTAS,
//! speculative bisection, PRAM cost model) against the core solvers.

use pcmax::prelude::*;
use pcmax::ptas::{rounded_problem, DpProblem, SerialEngine, SpaceEngine as _};
use proptest::prelude::*;

fn arb_instance() -> impl Strategy<Value = Instance> {
    (prop::collection::vec(1u64..=30, 2..=14), 2usize..=4)
        .prop_map(|(times, m)| Instance::new(times, m).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fptas_beats_the_ptas_guarantee(inst in arb_instance()) {
        let opt = BranchAndBound::default().solve_detailed(&inst).unwrap();
        prop_assume!(opt.proven);
        let fptas = FixedMachinesFptas::new(0.1).unwrap().makespan(&inst).unwrap();
        prop_assert!(fptas as f64 <= 1.1 * opt.best as f64 + 1e-9);
        // Exact mode is exactly optimal.
        let exact_dp = FixedMachinesFptas::exact().makespan(&inst).unwrap();
        prop_assert_eq!(exact_dp, opt.best);
    }

    #[test]
    fn speculative_is_sound_for_random_instances(inst in arb_instance()) {
        let opt = BranchAndBound::default().solve_detailed(&inst).unwrap();
        prop_assume!(opt.proven);
        for width in [1usize, 3] {
            let algo = SpeculativePtas::new(0.3, width).unwrap();
            let (schedule, target, _) = algo.solve_detailed(&inst).unwrap();
            schedule.validate(&inst).unwrap();
            prop_assert!(target <= opt.best, "width {width}");
            prop_assert!(schedule.makespan(&inst) as f64 <= 1.25 * target as f64 + 4.0);
        }
    }

    #[test]
    fn pram_dp_matches_cpu_dp(inst in arb_instance()) {
        let eps = EpsilonParams::new(0.3).unwrap();
        let target = lower_bound(&inst);
        let (problem, _, _) =
            rounded_problem(&inst, &eps, target, DpProblem::DEFAULT_MAX_ENTRIES);
        let pram_cost = wavefront_dp(&problem).unwrap();
        let cpu = SerialEngine.solve(&problem).unwrap();
        prop_assert_eq!(pram_cost.machines, cpu.machines);
        // Brent on one processor is at least the total work.
        prop_assert!(brent_time(&pram_cost.pram, 1) >= pram_cost.pram.work);
    }

    #[test]
    fn fptas_is_monotone_in_machines(
        times in prop::collection::vec(1u64..=20, 2..=10)
    ) {
        let a = FixedMachinesFptas::exact()
            .makespan(&Instance::new(times.clone(), 2).unwrap()).unwrap();
        let b = FixedMachinesFptas::exact()
            .makespan(&Instance::new(times, 3).unwrap()).unwrap();
        prop_assert!(b <= a, "more machines can only help");
    }
}

#[test]
fn all_solvers_agree_on_one_shared_instance() {
    let inst = Instance::new(vec![11, 9, 8, 7, 6, 5, 4, 3, 2, 1], 3).unwrap();
    let bb = BranchAndBound::default().solve_detailed(&inst).unwrap();
    assert!(bb.proven);
    let fptas = FixedMachinesFptas::exact().makespan(&inst).unwrap();
    let (_, milp) = AssignmentIp::default().solve_detailed(&inst).unwrap();
    assert_eq!(bb.best, fptas);
    assert_eq!(bb.best, milp);
    // And the PRAM DP agrees with the CPU DP on the final probe.
    let eps = EpsilonParams::new(0.3).unwrap();
    let ptas_out = Ptas::new(0.3).unwrap().solve_detailed(&inst).unwrap();
    let (problem, _, _) = pcmax::ptas::rounded_problem(
        &inst,
        &eps,
        ptas_out.target,
        pcmax::ptas::DpProblem::DEFAULT_MAX_ENTRIES,
    );
    assert_eq!(
        wavefront_dp(&problem).unwrap().machines,
        SerialEngine.solve(&problem).unwrap().machines
    );
}
