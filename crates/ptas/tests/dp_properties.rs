//! Property tests for the configuration DP: the solvers must agree with
//! each other and with a brute-force bin-packing reference on randomized
//! rounded problems.

use pcmax_ptas::dp::{solve_regenerating_configs, verify_witness, DpProblem, MemoizedDp};
use pcmax_ptas::space::{SerialEngine, SpaceEngine};
use proptest::prelude::*;

/// Brute force: minimum machines to pack the rounded jobs (expanded to a
/// flat list of sizes) within `target`.
fn brute_min_machines(counts: &[u32], unit: u64, target: u64) -> Option<u32> {
    let mut sizes = Vec::new();
    for (i, &c) in counts.iter().enumerate() {
        for _ in 0..c {
            sizes.push((i as u64 + 1) * unit);
        }
    }
    if sizes.is_empty() {
        return Some(0);
    }
    if sizes.iter().any(|&s| s > target) {
        return None;
    }
    // Try k = 1, 2, ... machines with plain DFS.
    fn fits(sizes: &[u64], loads: &mut Vec<u64>, cap: u64) -> bool {
        match sizes.split_first() {
            None => true,
            Some((&s, rest)) => {
                for i in 0..loads.len() {
                    if loads[i] + s <= cap {
                        loads[i] += s;
                        if fits(rest, loads, cap) {
                            loads[i] -= s;
                            return true;
                        }
                        loads[i] -= s;
                    }
                    if loads[i] == 0 {
                        break; // empty bins are interchangeable
                    }
                }
                false
            }
        }
    }
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    for k in 1..=sizes.len() as u32 {
        if fits(&sizes, &mut vec![0; k as usize], target) {
            return Some(k);
        }
    }
    None
}

fn arb_problem() -> impl Strategy<Value = DpProblem> {
    (prop::collection::vec(0u32..=3, 2..=4), 1u64..=4, 5u64..=30)
        .prop_map(|(counts, unit, target)| DpProblem::new(counts, unit, target, 1000))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dp_matches_brute_force(problem in arb_problem()) {
        // Skip problems with a job larger than the capacity (rounding never
        // produces them; the DP reports infeasible via the sentinel).
        let max_size = problem
            .counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, _)| (i as u64 + 1) * problem.unit)
            .max()
            .unwrap_or(0);
        prop_assume!(max_size <= problem.target);

        let got = SerialEngine.solve(&problem).unwrap().machines;
        let want = brute_min_machines(&problem.counts, problem.unit, problem.target)
            .expect("all jobs fit individually");
        prop_assert_eq!(got, want, "counts={:?} unit={} target={}",
            problem.counts, problem.unit, problem.target);
    }

    #[test]
    fn all_three_sequential_solvers_agree(problem in arb_problem()) {
        let a = SerialEngine.solve(&problem).unwrap();
        let b = MemoizedDp.solve(&problem).unwrap();
        let c = solve_regenerating_configs(&problem).unwrap();
        prop_assert_eq!(a.machines, b.machines);
        prop_assert_eq!(a.machines, c.machines);
    }

    #[test]
    fn witnesses_are_always_valid(problem in arb_problem()) {
        let out = SerialEngine.solve(&problem).unwrap();
        if let Some(witness) = &out.schedule {
            prop_assert!(verify_witness(&problem, witness));
            prop_assert_eq!(witness.len() as u32, out.machines);
        }
    }

    #[test]
    fn opt_is_monotone_in_the_vector(problem in arb_problem()) {
        // Removing one job never increases OPT.
        let base = SerialEngine.solve(&problem).unwrap().machines;
        for (i, &c) in problem.counts.clone().iter().enumerate() {
            if c > 0 {
                let mut smaller = problem.clone();
                smaller.counts[i] -= 1;
                let sub = SerialEngine.solve(&smaller).unwrap().machines;
                prop_assert!(sub <= base,
                    "removing a class-{i} job raised OPT: {sub} > {base}");
            }
        }
    }

    #[test]
    fn larger_target_never_needs_more_machines(problem in arb_problem()) {
        let tight = SerialEngine.solve(&problem).unwrap().machines;
        let mut relaxed = problem.clone();
        relaxed.target += problem.unit;
        let loose = SerialEngine.solve(&relaxed).unwrap().machines;
        // Note: the *counts and unit are held fixed* here (pure DP
        // monotonicity); the full PTAS re-rounds per target, where
        // monotonicity is not guaranteed and not required.
        if tight != u32::MAX {
            prop_assert!(loose <= tight);
        }
    }
}
