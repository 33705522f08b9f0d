//! The paper's wavefront DP expressed against the PRAM cost model: the same
//! values as `pcmax_ptas::SerialEngine`, but with every parallel step charged
//! its EREW work/depth — so we can report the algorithm's *theoretical*
//! work/depth profile and compare against Mayr's `O(log² n)` depth bound.

use crate::machine::Pram;
use crate::primitives::reduce_min;
use pcmax_core::Result;
use pcmax_ptas::dp::{fits, DpProblem};
use pcmax_ptas::table::INFEASIBLE;

/// The measured cost profile of one PRAM wavefront-DP evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WavefrontCost {
    /// `OPT(N)` computed by the run (matches the CPU solvers).
    pub machines: u32,
    /// PRAM ledger of the whole evaluation.
    pub pram: Pram,
    /// Number of wavefront levels (`n' + 1`).
    pub levels: u64,
}

/// Evaluates the DP on the PRAM: levels are sequential rounds; within a
/// level every entry's candidate values are gathered in parallel (`O(|C|)`
/// work each, constant depth on a CREW read) and minimized with a parallel
/// reduction (`O(log |C|)` depth). The level's depth is the maximum of its
/// entries' depths, charged once — entries on a level are independent.
pub fn wavefront_dp(problem: &DpProblem) -> Result<WavefrontCost> {
    let mut table = problem.build_table()?;
    let configs = problem.configs_with_offsets(&table);
    table.values[0] = 0;
    let mut pram = Pram::new();
    let buckets = table.level_buckets();
    for bucket in buckets.iter().skip(1) {
        let mut level_depth = 0u64;
        let mut level_work = 0u64;
        for &idx in bucket {
            let idx = idx as usize;
            let v = table.decode(idx);
            // Gather applicable candidate values (one parallel round).
            let candidates: Vec<u64> = configs
                .iter()
                .filter(|(c, _)| fits(c, &v))
                .map(|(_, offset)| table.values[idx - offset] as u64)
                .collect();
            level_work += configs.len() as u64; // the fits-filter touches all
            let mut entry_pram = Pram::new();
            let best = reduce_min(&mut entry_pram, &candidates);
            level_work += entry_pram.work;
            level_depth = level_depth.max(1 + entry_pram.depth);
            table.values[idx] = if best == u64::MAX {
                INFEASIBLE
            } else {
                // audit:allow(cast): candidates are u16 table values widened
                // to u64 for the reduction; the min fits back into u16.
                (best as u16).saturating_add(1)
            };
        }
        pram.charge(level_work, level_depth);
    }
    let opt = table.values[table.last_index()];
    Ok(WavefrontCost {
        machines: if opt == INFEASIBLE {
            u32::MAX
        } else {
            // audit:allow(cast): u16 -> u32 widening, lossless.
            opt as u32
        },
        pram,
        levels: buckets.len() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::brent_time;
    use pcmax_ptas::space::{SerialEngine, SpaceEngine};

    fn paper_problem() -> DpProblem {
        let mut counts = vec![0u32; 16];
        counts[2] = 2;
        counts[4] = 3;
        DpProblem::new(counts, 2, 30, 4)
    }

    #[test]
    fn computes_the_same_opt_as_the_cpu_solver() {
        let cpu = SerialEngine.solve(&paper_problem()).unwrap();
        let pram = wavefront_dp(&paper_problem()).unwrap();
        assert_eq!(pram.machines, cpu.machines);
        assert_eq!(pram.machines, 2);
    }

    #[test]
    fn depth_is_far_below_work() {
        let cost = wavefront_dp(&paper_problem()).unwrap();
        assert!(cost.pram.depth < cost.pram.work);
        assert!(
            cost.pram.depth >= cost.levels - 1,
            "each level is ≥ 1 round"
        );
    }

    #[test]
    fn brent_time_saturates_at_depth_scale() {
        let cost = wavefront_dp(&paper_problem()).unwrap();
        let t_many = brent_time(&cost.pram, 1 << 40);
        assert!(t_many >= cost.pram.depth);
        assert!(t_many <= cost.pram.depth + 1);
        // With few processors, work dominates.
        let t_4 = brent_time(&cost.pram, 4);
        assert!(t_4 > t_many);
    }

    #[test]
    fn empty_problem() {
        let problem = DpProblem::new(vec![0; 16], 2, 30, 4);
        let cost = wavefront_dp(&problem).unwrap();
        assert_eq!(cost.machines, 0);
        assert_eq!(cost.levels, 1);
        assert_eq!(cost.pram.depth, 0);
    }

    #[test]
    fn larger_instances_grow_work_much_faster_than_depth() {
        use pcmax_core::lower_bound;
        use pcmax_ptas::{rounded_problem, EpsilonParams};
        let inst = pcmax_workloads::generate(
            pcmax_workloads::Family::new(10, 30, pcmax_workloads::Distribution::U1To100),
            1,
        );
        let eps = EpsilonParams::new(0.3).unwrap();
        let (big, _, _) = rounded_problem(
            &inst,
            &eps,
            lower_bound(&inst),
            DpProblem::DEFAULT_MAX_ENTRIES,
        );
        let small = wavefront_dp(&paper_problem()).unwrap();
        let large = wavefront_dp(&big).unwrap();
        let work_ratio = large.pram.work as f64 / small.pram.work.max(1) as f64;
        let depth_ratio = large.pram.depth as f64 / small.pram.depth.max(1) as f64;
        assert!(
            work_ratio > 4.0 * depth_ratio,
            "work x{work_ratio:.0} vs depth x{depth_ratio:.0}"
        );
    }
}
