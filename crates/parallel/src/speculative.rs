//! Speculative parallel bisection — an *extension* beyond the paper.
//!
//! The paper parallelizes the DP inside each bisection probe and keeps the
//! bisection itself sequential. When the DP tables are small (short jobs,
//! few classes), per-level parallelism is starved; a complementary source of
//! parallelism is to probe **several candidate targets concurrently** each
//! round (`w`-ary search instead of binary). Soundness is unchanged because
//! the bracket updates rest on the same one-sided proofs as binary search:
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
//! binary search.

use crate::pool;
use crate::wavefront::ParallelDp;
use pcmax_core::{
    Error, Instance, MakespanBounds, Result, Schedule, SolveReport, SolveRequest, SolveStats,
    Solver, Time,
};
use pcmax_ptas::config::Config;
use pcmax_ptas::dp::DpProblem;
use pcmax_ptas::driver::reconstruct;
use pcmax_ptas::rounding::{JobPartition, RoundedLongJobs};
use pcmax_ptas::space::SpaceEngine;
use pcmax_ptas::table::DpScratch;
use pcmax_ptas::{rounded_problem, EpsilonParams};
use std::time::Instant;

/// The speculative-bisection parallel PTAS.
#[derive(Debug, Clone)]
pub struct SpeculativePtas {
    params: EpsilonParams,
    /// Candidate targets probed concurrently per round (`≥ 1`).
    pub width: usize,
    max_entries: usize,
}

/// A feasible probe's payload: configs, rounding, partition, target.
type Witness = (Vec<Config>, RoundedLongJobs, JobPartition, Time);

impl SpeculativePtas {
    /// Speculative PTAS probing `width` targets per round.
    pub fn new(epsilon: f64, width: usize) -> Result<Self> {
        Ok(Self {
            params: EpsilonParams::new(epsilon)?,
            width: width.max(1),
            max_entries: DpProblem::DEFAULT_MAX_ENTRIES,
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
        self.run(&SolveRequest::new(inst))
            .map(|(schedule, target, rounds, _)| (schedule, target, rounds))
    }

    /// Probes all `candidates` concurrently (one scoped thread each, each
    /// with a private scratch arena), merging the scratch counters into the
    /// run's stats.
    fn probe_round(
        &self,
        req: &SolveRequest<'_>,
        candidates: &[Time],
        stats: &mut SolveStats,
    ) -> Result<Vec<(Time, Option<Witness>)>> {
        let inst = req.instance;
        let dp = ParallelDp {
            threads: req.threads,
            ..ParallelDp::default()
        };
        let probes = pool::map_chunked(candidates.len().max(1), candidates, |&t| {
            let _probe_span = req.trace_span("probe", t);
            let (problem, rounded, partition) =
                rounded_problem(inst, &self.params, t, self.max_entries);
            let mut scratch = DpScratch::new();
            let outcome = dp.solve_in(&problem, &mut scratch)?;
            let witness = outcome
                .schedule
                .map(|configs| (configs, rounded, partition, t));
            Ok::<_, Error>((t, witness, scratch))
        });
        let mut out = Vec::with_capacity(probes.len());
        for probe in probes {
            let (t, witness, scratch) = probe?;
            stats.dp_entries_touched += scratch.entries_touched;
            stats.dp_tables_allocated += scratch.tables_allocated;
            stats.dp_tables_reused += scratch.tables_reused;
            stats.bisection_probes += 1;
            out.push((t, witness));
        }
        Ok(out)
    }

    /// Budget gate evaluated between rounds.
    fn check_budget(
        &self,
        req: &SolveRequest<'_>,
        stats: &SolveStats,
        lower: Time,
        upper: Time,
    ) -> Result<()> {
        req.check_cancelled()?;
        let entries_exhausted = req
            .budget
            .entry_limit
            .is_some_and(|limit| stats.dp_entries_touched >= limit as u64);
        if req.budget.deadline_exceeded() || entries_exhausted {
            return Err(Error::BudgetExhausted {
                incumbent: upper,
                lower_bound: lower,
            });
        }
        Ok(())
    }

    /// Full solve under an engine request: cancellation and budget are
    /// checked between probe rounds; the returned stats account every
    /// concurrent probe of every round.
    pub fn run(&self, req: &SolveRequest<'_>) -> Result<(Schedule, Time, u32, SolveStats)> {
        let inst = req.instance;
        let run_start = Instant::now();
        let mut stats = SolveStats::default();
        req.check_cancelled()?;
        if inst.jobs() == 0 {
            stats.wall = run_start.elapsed();
            let schedule = Schedule::from_assignment(vec![], inst.machines())?;
            return Ok((schedule, 0, 0, stats));
        }
        let MakespanBounds {
            mut lower,
            mut upper,
        } = MakespanBounds::of(inst);
        let mut best: Option<Witness> = None;
        let mut rounds = 0u32;

        let search_start = Instant::now();
        let search_span = req.trace_span("speculative-search", 0);
        while lower < upper {
            self.check_budget(req, &stats, lower, upper)?;
            rounds += 1;
            // Candidates strictly inside [lower, upper), always including
            // the midpoint so each round at least halves the bracket.
            let span = upper - lower;
            let mut candidates: Vec<Time> = (1..=self.width as Time)
                .map(|i| lower + span * i / (self.width as Time + 1))
                .collect();
            candidates.push((lower + upper) / 2);
            candidates.sort_unstable();
            candidates.dedup();
            candidates.retain(|&t| t >= lower && t < upper);
            if candidates.is_empty() {
                candidates.push(lower);
            }

            let probes = self.probe_round(req, &candidates, &mut stats)?;

            let mut feasible_min: Option<Witness> = None;
            let mut infeasible_max: Option<Time> = None;
            for (t, witness) in probes {
                match witness {
                    Some(w) => {
                        if feasible_min.as_ref().is_none_or(|f| t < f.3) {
                            feasible_min = Some(w);
                        }
                    }
                    None => {
                        if infeasible_max.is_none_or(|x| t > x) {
                            infeasible_max = Some(t);
                        }
                    }
                }
            }
            if let Some(w) = feasible_min {
                upper = w.3;
                best = Some(w);
            }
            if let Some(t) = infeasible_max {
                if t + 1 > lower && t < upper {
                    lower = t + 1;
                }
            }
        }

        let (configs, rounded, partition, target) = match best {
            Some(b) if b.3 == upper => b,
            _ => {
                // Zero-width bracket or the converged value was never probed
                // feasible: certify it directly (always feasible, see the
                // bisection invariant in pcmax-ptas).
                self.check_budget(req, &stats, lower, upper)?;
                let mut probes = self.probe_round(req, &[upper], &mut stats)?;
                let (_, witness) = probes.pop().ok_or_else(|| Error::InvalidWitness {
                    reason: "probe round returned no result for the converged target".into(),
                })?;
                let (configs, rounded, partition, t) =
                    witness.ok_or_else(|| Error::InvalidWitness {
                        reason: format!(
                            "converged target {upper} probed infeasible, breaking the \
                             bracket invariant"
                        ),
                    })?;
                (configs, rounded, partition, t)
            }
        };
        drop(search_span);
        stats.push_phase("speculative-search", search_start.elapsed());

        let recon_start = Instant::now();
        let recon_span = req.trace_span("reconstruct", 0);
        let schedule = reconstruct(inst, &configs, &rounded, &partition)?;
        drop(recon_span);
        stats.push_phase("reconstruct", recon_start.elapsed());
        stats.wall = run_start.elapsed();
        Ok((schedule, target, rounds, stats))
    }
}

impl Solver for SpeculativePtas {
    fn solver_name(&self) -> &'static str {
        "SpeculativePTAS"
    }

    fn solve(&self, req: &SolveRequest<'_>) -> Result<SolveReport> {
        let (schedule, target, _rounds, stats) = self.run(req)?;
        Ok(SolveReport {
            makespan: schedule.makespan(req.instance),
            schedule,
            certified_target: Some(target),
            proven_optimal: false,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmax_core::lower_bound;
    use pcmax_ptas::Ptas;

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
        let (schedule, target, _) = SpeculativePtas::new(0.3, 1)
            .unwrap()
            .solve_detailed(&inst)
            .unwrap();
        assert_eq!(target, seq.target);
        assert_eq!(schedule.makespan(&inst), seq.schedule.makespan(&inst));
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
        let algo = SpeculativePtas::new(0.3, 3).unwrap();
        let report = algo.solve(&SolveRequest::new(&inst)).unwrap();
        assert_eq!(report.makespan, report.schedule.makespan(&inst));
        assert!(report.stats.bisection_probes >= 1);
        assert!(report.stats.dp_entries_touched > 0);
        assert!(report.certified_target.is_some());
    }

    #[test]
    fn precancelled_request_aborts() {
        use pcmax_core::CancelToken;
        let inst = instance();
        let cancel = CancelToken::new();
        cancel.cancel();
        let req = SolveRequest::new(&inst).with_cancel(cancel);
        let algo = SpeculativePtas::new(0.3, 2).unwrap();
        assert!(matches!(algo.run(&req), Err(Error::Cancelled)));
    }
}
