//! Speculative parallel bisection — an *extension* beyond the paper.
//!
//! The paper parallelizes the DP inside each bisection probe and keeps the
//! bisection itself sequential. When the DP tables are small (short jobs,
//! few classes), per-level parallelism is starved; a complementary source of
//! parallelism is to probe **several candidate targets concurrently** each
//! round (`w`-ary search instead of binary). [`SpeculativePtas`] is the
//! parallel PTAS run through the shared `pcmax_ptas::chassis::drive` loop at
//! width `w`: each round probes `w` evenly spread targets plus the
//! midpoint, one lane per target. Soundness is unchanged because the
//! bracket updates rest on the same one-sided proofs as binary search:
//!
//! * an infeasible probe at `t` proves `OPT > t` (rounded sizes never exceed
//!   originals), so the lower end can jump past the largest infeasible
//!   candidate below the new upper end;
//! * a feasible probe at `t` yields a witness schedule, so the upper end can
//!   drop to the smallest feasible candidate.
//!
//! The converged target may differ from plain bisection's by the usual
//! rounding non-monotonicity of the dual-approximation framework, but it
//! carries the identical `(1+ε)` guarantee. With `width = 1` this *is*
//! binary search (Alg. 1), probe for probe. Because the loop is the shared
//! driver, the profile cache, the scratch reuse and the stats and metrics
//! accounting are the same as for every other PTAS.

use crate::{repinned, ParallelDp};
use pcmax_core::{
    Instance, MakespanBounds, Result, Schedule, SolveReport, SolveRequest, SolveStats, Solver, Time,
};
use pcmax_ptas::chassis::drive;
use pcmax_ptas::{Ptas, PtasOutput};

/// The speculative-bisection parallel PTAS.
#[derive(Debug, Clone)]
pub struct SpeculativePtas {
    inner: Ptas<ParallelDp>,
    /// Candidate targets probed concurrently per round (`≥ 1`).
    pub width: usize,
}

impl SpeculativePtas {
    /// Speculative PTAS probing `width` targets per round.
    pub fn new(epsilon: f64, width: usize) -> Result<Self> {
        Ok(Self {
            inner: Ptas::with_engine(epsilon, ParallelDp::default())?,
            width: width.max(1),
        })
    }

    /// Number of probe rounds a full run needs (for tests/telemetry).
    pub fn rounds_bound(&self, inst: &Instance) -> u32 {
        let b = MakespanBounds::of(inst);
        // w-ary search: each round divides the bracket by (width + 1).
        let mut width = b.width() + 1;
        let mut rounds = 0;
        while width > 1 {
            width = width.div_ceil(self.width as Time + 1);
            rounds += 1;
        }
        rounds
    }

    /// Full solve, returning the schedule, the certified target and the
    /// number of probe rounds executed.
    pub fn solve_detailed(&self, inst: &Instance) -> Result<(Schedule, Time, u32)> {
        let (out, _) = self.solve_with(&SolveRequest::new(inst))?;
        Ok((out.schedule, out.target, out.log.rounds))
    }

    /// Full solve under an engine request, on the wavefront DP re-pinned to
    /// the request's thread count when it names one.
    pub fn solve_with(&self, req: &SolveRequest<'_>) -> Result<(PtasOutput, SolveStats)> {
        let pinned = repinned(&self.inner, req.threads)?;
        drive(pinned.as_ref().unwrap_or(&self.inner), req, self.width)
    }
}

impl Solver for SpeculativePtas {
    fn solver_name(&self) -> &'static str {
        "SpeculativePTAS"
    }

    fn solve(&self, req: &SolveRequest<'_>) -> Result<SolveReport> {
        let (out, stats) = self.solve_with(req)?;
        Ok(out.into_report(req.instance, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmax_core::{lower_bound, Error};

    fn instance() -> Instance {
        Instance::new(
            vec![23, 19, 17, 13, 11, 7, 5, 3, 2, 2, 29, 31, 8, 14, 26, 4],
            4,
        )
        .unwrap()
    }

    #[test]
    fn width_one_matches_plain_bisection() {
        let inst = instance();
        let seq = Ptas::new(0.3).unwrap().solve_detailed(&inst).unwrap();
        let (spec, _) = SpeculativePtas::new(0.3, 1)
            .unwrap()
            .solve_with(&SolveRequest::new(&inst))
            .unwrap();
        assert_eq!(spec.target, seq.target);
        assert_eq!(spec.schedule.makespan(&inst), seq.schedule.makespan(&inst));
        // Probe by probe: same targets, same verdicts, same order.
        assert_eq!(spec.log.probes, seq.log.probes);
        assert_eq!(spec.log.rounds, seq.log.rounds);
    }

    #[test]
    fn wider_search_takes_fewer_rounds_and_keeps_the_guarantee() {
        let inst = instance();
        let (s1, t1, r1) = SpeculativePtas::new(0.3, 1)
            .unwrap()
            .solve_detailed(&inst)
            .unwrap();
        let (s4, t4, r4) = SpeculativePtas::new(0.3, 4)
            .unwrap()
            .solve_detailed(&inst)
            .unwrap();
        assert!(r4 <= r1, "w=4 rounds {r4} vs w=1 rounds {r1}");
        for (s, t) in [(&s1, t1), (&s4, t4)] {
            s.validate(&inst).unwrap();
            assert!(t >= lower_bound(&inst));
            // (1 + 1/k)·T* plus integer slack.
            assert!(s.makespan(&inst) as f64 <= 1.25 * t as f64 + 4.0);
        }
    }

    #[test]
    fn certified_target_is_sound_for_all_widths() {
        use pcmax_exact::BranchAndBound;
        let inst = Instance::new(vec![9, 8, 7, 6, 5, 4, 3, 2, 1, 12], 3).unwrap();
        let opt = BranchAndBound::default().solve_detailed(&inst).unwrap();
        assert!(opt.proven);
        for width in [1, 2, 3, 8] {
            let (_, target, _) = SpeculativePtas::new(0.3, width)
                .unwrap()
                .solve_detailed(&inst)
                .unwrap();
            assert!(
                target <= opt.best,
                "width {width}: target {target} exceeds optimum {}",
                opt.best
            );
        }
    }

    #[test]
    fn rounds_bound_is_respected() {
        let inst = instance();
        for width in [1usize, 3, 7] {
            let algo = SpeculativePtas::new(0.3, width).unwrap();
            let (_, _, rounds) = algo.solve_detailed(&inst).unwrap();
            assert!(
                rounds <= algo.rounds_bound(&inst) + 1,
                "width {width}: {rounds} rounds vs bound {}",
                algo.rounds_bound(&inst)
            );
        }
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::new(vec![], 3).unwrap();
        let (s, t, r) = SpeculativePtas::new(0.3, 4)
            .unwrap()
            .solve_detailed(&inst)
            .unwrap();
        assert_eq!((s.jobs(), t, r), (0, 0, 0));
    }

    #[test]
    fn solver_report_accounts_every_probe() {
        let inst = instance();
        let width = 3;
        let algo = SpeculativePtas::new(0.3, width).unwrap();
        let report = algo.solve(&SolveRequest::new(&inst)).unwrap();
        let stats = &report.stats;
        assert_eq!(report.makespan, report.schedule.makespan(&inst));
        assert!(stats.bisection_probes >= 1);
        assert!(stats.dp_entries_touched > 0);
        assert!(report.certified_target.is_some());
        // Every lane's wavefront is counted, not just the probe tally.
        assert!(stats.dp_cells > 0 && stats.dp_levels_swept > 0, "{stats:?}");
        assert_eq!(stats.pool_parks, stats.pool_wakes);
        // One run-long arena per lane (a round probes at most width + 1
        // targets), not one table per probe.
        let lanes = width as u64 + 1;
        assert!(
            stats.dp_tables_allocated <= lanes,
            "{} tables for {lanes} lanes",
            stats.dp_tables_allocated
        );
        assert!(stats.bisection_probes > lanes, "more probes than lanes");
    }

    #[test]
    fn precancelled_request_aborts() {
        use pcmax_core::CancelToken;
        let inst = instance();
        let cancel = CancelToken::new();
        cancel.cancel();
        let req = SolveRequest::new(&inst).with_cancel(cancel);
        let algo = SpeculativePtas::new(0.3, 2).unwrap();
        assert!(matches!(algo.solve_with(&req), Err(Error::Cancelled)));
    }
}
