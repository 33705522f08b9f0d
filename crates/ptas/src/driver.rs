//! The bisection driver (Algorithm 1): probe target makespans with the DP,
//! keep the smallest feasible target, then reconstruct a real schedule from
//! the rounded witness and finish with LPT on the short jobs.

use crate::chassis::Scenario;
use crate::config::Config;
use crate::dp::DpProblem;
use crate::params::EpsilonParams;
use crate::rounding::{JobPartition, PcmaxRounding, RoundedLongJobs, Rounding};
use crate::space::{SerialEngine, SpaceEngine};
use crate::table::{DpScratch, DpTable};
use pcmax_core::{
    profile, Error, Instance, ProfileKey, Result, Schedule, ScheduleBuilder, SolveReport,
    SolveRequest, SolveStats, Solver, Time,
};

/// One bisection probe: the target tried and what the DP said.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BisectionProbe {
    /// Target makespan `T` probed.
    pub target: Time,
    /// `OPT(N)` returned by the DP at this target.
    pub dp_machines: u32,
    /// Whether the rounded jobs fit on `m` machines.
    pub feasible: bool,
}

/// Full record of a bisection run, for tests, the harness and the examples.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BisectionLog {
    /// Probes in execution order.
    pub probes: Vec<BisectionProbe>,
}

impl BisectionLog {
    /// Number of DP evaluations performed.
    pub fn evaluations(&self) -> usize {
        self.probes.len()
    }
}

/// Everything the PTAS produces: the schedule, the converged target `T*`,
/// and the probe log.
#[derive(Debug, Clone)]
pub struct PtasOutput {
    /// The final schedule over the original jobs.
    pub schedule: Schedule,
    /// The smallest target makespan the DP certified (`T* ≤ OPT`).
    pub target: Time,
    /// Bisection history.
    pub log: BisectionLog,
}

/// The Hochbaum–Shmoys PTAS with a pluggable DP engine.
///
/// `Ptas::new(0.3)` reproduces the paper's sequential configuration; the
/// parallel version is `Ptas::with_engine(0.3, pcmax_parallel::ParallelDp::default())`.
#[derive(Debug, Clone)]
pub struct Ptas<E = SerialEngine> {
    params: EpsilonParams,
    engine: E,
    max_entries: usize,
}

impl Ptas<SerialEngine> {
    /// Sequential PTAS with relative error `epsilon`.
    pub fn new(epsilon: f64) -> Result<Self> {
        Self::with_engine(epsilon, SerialEngine)
    }
}

impl<E: SpaceEngine> Ptas<E> {
    /// PTAS with a custom DP engine (e.g. the parallel wavefront DP).
    pub fn with_engine(epsilon: f64, engine: E) -> Result<Self> {
        Ok(Self {
            params: EpsilonParams::new(epsilon)?,
            engine,
            max_entries: DpProblem::DEFAULT_MAX_ENTRIES,
        })
    }

    /// Overrides the dense-table size guard.
    pub fn with_max_entries(mut self, max_entries: usize) -> Self {
        self.max_entries = max_entries;
        self
    }

    /// The `ε`/`k` parameters in use.
    pub fn params(&self) -> &EpsilonParams {
        &self.params
    }

    /// The DP engine plugged into the bisection.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Builds the rounded DP problem for `inst` at target `t`.
    fn problem_at(&self, inst: &Instance, t: Time) -> (DpProblem, RoundedLongJobs, JobPartition) {
        rounded_problem(inst, &self.params, t, self.max_entries)
    }

    /// Runs the full PTAS and returns the schedule plus diagnostics.
    pub fn solve_detailed(&self, inst: &Instance) -> Result<PtasOutput> {
        self.solve_with(&SolveRequest::new(inst))
            .map(|(out, _)| out)
    }

    /// Runs the full PTAS under an engine request: the cancellation token
    /// and the budget's deadline/entry limits are checked before every
    /// bisection probe, and the returned [`SolveStats`] account probes, DP
    /// entries, table (re)allocations and per-phase wall time.
    ///
    /// This is the [`Scenario`] instantiation of the generic
    /// [`drive`](crate::chassis::drive) loop — the bisection itself is
    /// shared with every other scenario on the chassis.
    pub fn solve_with(&self, req: &SolveRequest<'_>) -> Result<(PtasOutput, SolveStats)> {
        crate::chassis::drive(self, req)
    }
}

impl<E: SpaceEngine> Scenario for Ptas<E> {
    /// Per-machine configs plus the rounding/partition metadata needed to
    /// map them back to original jobs.
    type Witness = (Vec<Config>, RoundedLongJobs, JobPartition);

    fn reserve_hint(&self, inst: &Instance, target: Time) -> Option<usize> {
        let (problem, _, _) = self.problem_at(inst, target);
        DpTable::entries_needed(&problem.counts, problem.unit, self.max_entries)
    }

    fn probe(
        &self,
        inst: &Instance,
        target: Time,
        scratch: &mut DpScratch,
    ) -> Result<(u32, Option<Self::Witness>)> {
        let (problem, rounded, partition) = self.problem_at(inst, target);
        let outcome = self.engine.solve_in(&problem, scratch)?;
        Ok((
            outcome.machines,
            outcome
                .schedule
                .map(|configs| (configs, rounded, partition)),
        ))
    }

    fn reconstruct(
        &self,
        inst: &Instance,
        witness: Self::Witness,
        _target: Time,
    ) -> Result<Schedule> {
        let (configs, rounded, partition) = witness;
        reconstruct(inst, &configs, &rounded, &partition)
    }

    /// `P||Cmax` profile key: the class-count vector plus the single shared
    /// capacity `⌊target/unit⌋` — every machine checks configs against the
    /// target itself. ε and `m` ride along per the cache-key soundness
    /// argument in `pcmax_core::profile`.
    fn profile_key(&self, inst: &Instance, target: Time) -> Option<ProfileKey> {
        let rounding = PcmaxRounding {
            params: &self.params,
        };
        let (counts, unit) = rounding.fingerprint(inst, target);
        Some(ProfileKey {
            scenario: "p",
            eps_micros: profile::eps_micros(self.params.epsilon),
            machines: inst.machines() as u32,
            caps_units: vec![target / unit],
            counts,
        })
    }

    /// Cache-hit witness: replay the rounding (for the per-instance
    /// class→job map) and adopt the cached configs unchanged.
    fn rehydrate(
        &self,
        inst: &Instance,
        target: Time,
        configs: &[Config],
    ) -> Option<Self::Witness> {
        let (_, rounded, partition) = self.problem_at(inst, target);
        Some((configs.to_vec(), rounded, partition))
    }

    fn witness_configs<'w>(&self, witness: &'w Self::Witness) -> Option<&'w [Config]> {
        Some(&witness.0)
    }
}

impl<E: SpaceEngine + Send + Sync> Solver for Ptas<E> {
    fn solver_name(&self) -> &'static str {
        "PTAS"
    }

    fn solve(&self, req: &SolveRequest<'_>) -> Result<SolveReport> {
        let (out, stats) = self.solve_with(req)?;
        Ok(SolveReport {
            makespan: out.schedule.makespan(req.instance),
            schedule: out.schedule,
            certified_target: Some(out.target),
            proven_optimal: false,
            stats,
        })
    }
}

/// Builds the rounded DP problem (and the rounding/partition metadata) for
/// `inst` at target makespan `t` — Lines 6–24 of Algorithm 1. Public so that
/// the simulated executor (`pcmax-simcore`) and the harness can reconstruct
/// the exact subproblems a bisection run probes.
pub fn rounded_problem(
    inst: &Instance,
    params: &EpsilonParams,
    target: Time,
    max_entries: usize,
) -> (DpProblem, RoundedLongJobs, JobPartition) {
    let (counts, unit, (rounded, partition)) = crate::rounding::Rounding::round_at(
        &crate::rounding::PcmaxRounding { params },
        inst,
        target,
    );
    let problem = DpProblem {
        counts,
        unit,
        target,
        max_machines: inst.machines(),
        max_entries,
    };
    (problem, rounded, partition)
}

/// Lines 31–51 of Algorithm 1: replace each rounded job by an original long
/// job of the matching class, then place the short jobs with LPT on the
/// resulting loads. Public so alternative bisection drivers (e.g.
/// `pcmax_parallel::SpeculativePtas`) can share the reconstruction.
pub fn reconstruct(
    inst: &Instance,
    configs: &[Config],
    rounded: &RoundedLongJobs,
    partition: &JobPartition,
) -> Result<Schedule> {
    let mut builder = ScheduleBuilder::new(inst);
    // Per-class queues of original long-job ids.
    let mut queues: Vec<std::collections::VecDeque<usize>> = rounded
        .members
        .iter()
        .map(|v| v.iter().copied().collect())
        .collect();
    if configs.len() > inst.machines() {
        return Err(Error::InvalidWitness {
            reason: format!(
                "witness uses {} machines but only {} are available",
                configs.len(),
                inst.machines()
            ),
        });
    }
    for (machine, config) in configs.iter().enumerate() {
        for (class_idx, &count) in config.iter().enumerate() {
            for _ in 0..count {
                let j = queues[class_idx]
                    .pop_front()
                    .ok_or_else(|| Error::InvalidWitness {
                        reason: format!(
                            "witness config counts exceed the population of class {}",
                            class_idx + 1
                        ),
                    })?;
                builder.assign(j, machine);
            }
        }
    }
    if let Some(class_idx) = queues.iter().position(|q| !q.is_empty()) {
        return Err(Error::InvalidWitness {
            reason: format!(
                "witness leaves {} long jobs of class {} unscheduled",
                queues[class_idx].len(),
                class_idx + 1
            ),
        });
    }

    // Short jobs in non-increasing processing time (Lines 41–51).
    let mut shorts = partition.short.clone();
    shorts.sort_by(|&a, &b| inst.time(b).cmp(&inst.time(a)).then(a.cmp(&b)));
    pcmax_baselines::greedy_extend(inst, &mut builder, &shorts);
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::MemoizedDp;
    use pcmax_core::{lower_bound, Instance, MakespanBounds};
    use std::time::Duration;

    fn ptas() -> Ptas {
        Ptas::new(0.3).unwrap()
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::new(vec![], 3).unwrap();
        let out = ptas().solve_detailed(&inst).unwrap();
        assert_eq!(out.schedule.makespan(&inst), 0);
        assert_eq!(out.log.evaluations(), 0);
    }

    #[test]
    fn single_job() {
        let inst = Instance::new(vec![42], 3).unwrap();
        let out = ptas().solve_detailed(&inst).unwrap();
        assert_eq!(out.schedule.makespan(&inst), 42);
        assert_eq!(out.target, 42);
    }

    #[test]
    fn perfectly_balanced_instance_hits_the_lower_bound() {
        let inst = Instance::new(vec![5; 8], 4).unwrap();
        let out = ptas().solve_detailed(&inst).unwrap();
        assert_eq!(out.schedule.makespan(&inst), 10);
    }

    #[test]
    fn schedule_is_always_valid_and_complete() {
        let inst = Instance::new(vec![13, 11, 9, 8, 8, 7, 5, 4, 2, 2, 1, 1], 3).unwrap();
        let out = ptas().solve_detailed(&inst).unwrap();
        out.schedule.validate(&inst).unwrap();
    }

    #[test]
    fn target_bracketed_by_bounds() {
        let inst = Instance::new(vec![9, 8, 7, 6, 5, 4, 3, 2, 1], 3).unwrap();
        let out = ptas().solve_detailed(&inst).unwrap();
        let b = MakespanBounds::of(&inst);
        assert!(out.target >= b.lower && out.target <= b.upper);
    }

    #[test]
    fn makespan_respects_guarantee_against_lower_bound() {
        // (1 + 1/k)·T* plus the integer rounding slack k·1.
        let inst = Instance::new(vec![19, 17, 16, 12, 11, 10, 9, 7, 5, 3], 4).unwrap();
        let out = ptas().solve_detailed(&inst).unwrap();
        let k = ptas().params().k as f64;
        let bound = (1.0 + 1.0 / k) * out.target as f64 + k;
        assert!(
            (out.schedule.makespan(&inst) as f64) <= bound,
            "makespan {} > bound {bound}",
            out.schedule.makespan(&inst)
        );
        assert!(out.target >= lower_bound(&inst));
    }

    #[test]
    fn memoized_and_iterative_drivers_agree_on_target() {
        let inst = Instance::new(vec![23, 19, 17, 13, 11, 7, 5, 3, 2, 2, 29, 31], 4).unwrap();
        let a = ptas().solve_detailed(&inst).unwrap();
        let b = Ptas::with_engine(0.3, MemoizedDp)
            .unwrap()
            .solve_detailed(&inst)
            .unwrap();
        assert_eq!(a.target, b.target);
        assert_eq!(
            a.schedule.makespan(&inst),
            b.schedule.makespan(&inst),
            "deterministic extraction should match"
        );
    }

    #[test]
    fn tighter_epsilon_never_worsens_the_certified_target() {
        let inst = Instance::new(vec![17, 14, 12, 11, 9, 8, 8, 6, 5, 4, 3, 1], 3).unwrap();
        let loose = Ptas::new(0.5).unwrap().solve_detailed(&inst).unwrap();
        let tight = Ptas::new(0.2).unwrap().solve_detailed(&inst).unwrap();
        assert!(
            tight.target <= loose.target + 1,
            "tight {} loose {}",
            tight.target,
            loose.target
        );
    }

    #[test]
    fn bisection_log_is_monotone_bracket() {
        let inst = Instance::new(vec![9, 8, 7, 6, 5, 4, 3, 2, 1, 10, 11, 12], 4).unwrap();
        let out = ptas().solve_detailed(&inst).unwrap();
        assert!(out.log.evaluations() >= 1);
        // Every infeasible probe is strictly below every feasible probe's
        // final certified target... at minimum, below the final target.
        for p in &out.log.probes {
            if !p.feasible {
                assert!(p.target < out.target);
            }
        }
    }

    #[test]
    fn jobs_equal_machines_schedules_one_each() {
        let inst = Instance::new(vec![7, 7, 7], 3).unwrap();
        let out = ptas().solve_detailed(&inst).unwrap();
        assert_eq!(out.schedule.makespan(&inst), 7);
    }

    #[test]
    fn more_machines_than_jobs() {
        let inst = Instance::new(vec![5, 3], 6).unwrap();
        let out = ptas().solve_detailed(&inst).unwrap();
        assert_eq!(out.schedule.makespan(&inst), 5);
    }

    #[test]
    fn stats_prove_table_reuse_across_probes() {
        use pcmax_core::SolveRequest;
        let inst = Instance::new(vec![19, 17, 16, 12, 11, 10, 9, 7, 5, 3], 4).unwrap();
        let (out, stats) = ptas().solve_with(&SolveRequest::new(&inst)).unwrap();
        assert_eq!(stats.bisection_probes, out.log.evaluations() as u64);
        assert!(stats.bisection_probes > 1, "want multiple probes");
        // The arena is pre-sized for the largest table of the bracket, so
        // the whole run performs exactly one allocation and every probe's
        // table is a reuse.
        assert_eq!(stats.dp_tables_allocated, 1);
        assert_eq!(stats.dp_tables_reused, stats.bisection_probes);
        assert!(stats.dp_entries_touched > 0);
        assert!(stats.phase_wall("bisection") <= stats.wall);
        assert!(stats.phase_wall("reconstruct") <= stats.wall);
    }

    #[test]
    fn dp_phase_is_scoped_inside_the_bisection_phase() {
        use pcmax_core::SolveRequest;
        let inst = Instance::new(vec![19, 17, 16, 12, 11, 10, 9, 7, 5, 3], 4).unwrap();
        let (out, stats) = ptas().solve_with(&SolveRequest::new(&inst)).unwrap();
        assert!(out.log.evaluations() >= 1);
        let dp = stats.phase_wall("dp");
        assert!(dp > Duration::ZERO, "DP probes take nonzero wall time");
        assert!(
            dp <= stats.phase_wall("bisection"),
            "the dp phase only counts time inside probes"
        );
    }

    #[test]
    fn probe_spans_carry_targets_and_balance() {
        use pcmax_core::{SolveRequest, TraceSink};
        use std::sync::{Arc, Mutex};

        #[derive(Default)]
        struct Rec(Mutex<Vec<(&'static str, &'static str, u64)>>);

        impl TraceSink for Rec {
            fn span_enter(&self, name: &'static str, arg: u64) {
                self.0.lock().unwrap().push(("enter", name, arg));
            }

            fn span_exit(&self, name: &'static str) {
                self.0.lock().unwrap().push(("exit", name, 0));
            }

            fn instant(&self, _name: &'static str, _arg: u64) {}

            fn counter(&self, _name: &'static str, _value: u64) {}
        }

        let inst = Instance::new(vec![13, 11, 9, 8, 8, 7, 5, 4, 2, 2, 1, 1], 3).unwrap();
        let sink = Arc::new(Rec::default());
        let req = SolveRequest::new(&inst).with_trace(sink.clone());
        let (out, _) = ptas().solve_with(&req).unwrap();
        let log = sink.0.lock().unwrap();
        let probe_args: Vec<u64> = log
            .iter()
            .filter(|(kind, name, _)| *kind == "enter" && *name == "probe")
            .map(|&(_, _, arg)| arg)
            .collect();
        assert_eq!(probe_args.len(), out.log.evaluations());
        for (arg, probe) in probe_args.iter().zip(&out.log.probes) {
            assert_eq!(*arg, probe.target, "span arg is the probed target");
        }
        let enters = log.iter().filter(|(kind, _, _)| *kind == "enter").count();
        let exits = log.iter().filter(|(kind, _, _)| *kind == "exit").count();
        assert_eq!(enters, exits, "every span closes");
        for phase in ["bisection", "reconstruct"] {
            assert!(
                log.iter()
                    .any(|(kind, name, _)| *kind == "enter" && *name == phase),
                "missing {phase} span"
            );
        }
    }

    #[test]
    fn precancelled_request_aborts_immediately() {
        use pcmax_core::{CancelToken, Error, SolveRequest};
        let inst = Instance::new(vec![9, 8, 7, 6, 5], 2).unwrap();
        let cancel = CancelToken::new();
        cancel.cancel();
        let req = SolveRequest::new(&inst).with_cancel(cancel);
        assert!(matches!(ptas().solve_with(&req), Err(Error::Cancelled)));
    }

    #[test]
    fn entry_budget_exhaustion_is_a_dedicated_error() {
        use pcmax_core::{Budget, Error, SolveRequest};
        let inst = Instance::new(vec![19, 17, 16, 12, 11, 10, 9, 7, 5, 3], 4).unwrap();
        // One entry of budget: the first probe consumes it, the second trips.
        let req = SolveRequest::new(&inst).with_budget(Budget::unlimited().entries(1));
        match ptas().solve_with(&req) {
            Err(Error::BudgetExhausted {
                incumbent,
                lower_bound,
            }) => assert!(lower_bound <= incumbent),
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
    }

    #[test]
    fn solver_report_certifies_the_target() {
        use pcmax_core::{SolveRequest, Solver};
        let inst = Instance::new(vec![13, 11, 9, 8, 8, 7, 5, 4, 2, 2, 1, 1], 3).unwrap();
        let report = ptas().solve(&SolveRequest::new(&inst)).unwrap();
        assert_eq!(report.makespan, report.schedule.makespan(&inst));
        let detailed = ptas().solve_detailed(&inst).unwrap();
        assert_eq!(report.certified_target, Some(detailed.target));
        assert!(!report.proven_optimal);
    }

    /// Unbounded map cache for exercising the chassis cache path in tests.
    #[derive(Default)]
    struct MapCache(
        std::sync::Mutex<
            std::collections::HashMap<pcmax_core::ProfileKey, pcmax_core::ProfileVerdict>,
        >,
    );

    impl pcmax_core::ProfileCache for MapCache {
        fn get(&self, key: &pcmax_core::ProfileKey) -> Option<pcmax_core::ProfileVerdict> {
            self.0
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .get(key)
                .cloned()
        }

        fn put(&self, key: pcmax_core::ProfileKey, verdict: pcmax_core::ProfileVerdict) {
            self.0
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .insert(key, verdict);
        }
    }

    #[test]
    fn cached_resolve_is_bit_identical_and_counts_hits() {
        use pcmax_core::{SolveRequest, Solver};
        use std::sync::Arc;
        let inst = Instance::new(vec![19, 17, 16, 12, 11, 10, 9, 7, 5, 3, 23, 29], 4).unwrap();
        let cache: Arc<dyn pcmax_core::ProfileCache> = Arc::new(MapCache::default());

        let baseline = ptas().solve(&SolveRequest::new(&inst)).unwrap();

        let cold = ptas()
            .solve(&SolveRequest::new(&inst).with_cache(cache.clone()))
            .unwrap();
        assert_eq!(cold.stats.cache_hits, 0, "cold run hits nothing");
        assert_eq!(
            cold.stats.cache_misses, cold.stats.bisection_probes,
            "every cold probe consults and misses"
        );

        let warm = ptas()
            .solve(&SolveRequest::new(&inst).with_cache(cache.clone()))
            .unwrap();
        assert_eq!(
            warm.stats.cache_hits, warm.stats.bisection_probes,
            "every warm probe is a hit"
        );
        assert_eq!(warm.stats.cache_misses, 0);
        assert_eq!(warm.stats.dp_cells, 0, "hits skip the DP entirely");

        for report in [&cold, &warm] {
            assert_eq!(report.schedule, baseline.schedule, "schedules diverged");
            assert_eq!(report.makespan, baseline.makespan);
            assert_eq!(report.certified_target, baseline.certified_target);
        }

        // Same profile, different raw instance: scaled times that round to
        // the same class vector would hit; here just re-check stats stay
        // per-request (the warm run did not inherit the cold run's misses).
        assert_eq!(
            warm.stats.cache_misses + warm.stats.cache_hits,
            warm.stats.bisection_probes
        );
    }

    #[test]
    fn cache_hit_still_honors_cancellation_before_reconstruction() {
        use pcmax_core::{CancelToken, Error, SolveRequest, Solver, TraceSink};
        use std::sync::Arc;

        // Cancels its token the moment the bisection span closes — i.e.
        // after the last (cache-hit) probe but before reconstruction.
        struct CancelOnBisectionExit(CancelToken);

        impl TraceSink for CancelOnBisectionExit {
            fn span_enter(&self, _name: &'static str, _arg: u64) {}

            fn span_exit(&self, name: &'static str) {
                if name == "bisection" {
                    self.0.cancel();
                }
            }

            fn instant(&self, _name: &'static str, _arg: u64) {}

            fn counter(&self, _name: &'static str, _value: u64) {}
        }

        let inst = Instance::new(vec![19, 17, 16, 12, 11, 10, 9, 7, 5, 3], 4).unwrap();
        let cache: Arc<dyn pcmax_core::ProfileCache> = Arc::new(MapCache::default());
        // Warm the cache.
        ptas()
            .solve(&SolveRequest::new(&inst).with_cache(cache.clone()))
            .unwrap();

        let cancel = CancelToken::new();
        let req = SolveRequest::new(&inst)
            .with_cache(cache)
            .with_cancel(cancel.clone())
            .with_trace(Arc::new(CancelOnBisectionExit(cancel)));
        // Every probe is a hit, so the budget gates inside the bisection
        // never see the raised flag — only the pre-reconstruction gate can
        // catch it. Before that gate existed this returned Ok.
        assert!(
            matches!(ptas().solve(&req), Err(Error::Cancelled)),
            "a cancel raised between bisection and reconstruction must abort"
        );
    }
}
