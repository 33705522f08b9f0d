//! The PTAS chassis instantiated for uniform machines (`Q||Cmax`).
//!
//! Machines run at integer speeds; a machine of speed `s` completes work
//! `s·T` by time `T`. [`QPtas`] reuses the whole `P||Cmax` pipeline through
//! the chassis seams:
//!
//! * **Rounding** ([`QRounding`]): jobs are split and rounded against the
//!   *fastest machine's* capacity `capmax = s_max·T` — the largest load any
//!   single machine can carry — with the same `T/k` threshold and `⌈·/k²⌉`
//!   unit formulas as the identical case.
//! * **State space** ([`QSpace`]): machines are sorted fastest-first with
//!   capacities `caps[j] = s_j·T` (non-increasing), and `OPT(v)` becomes the
//!   minimum *prefix of fastest machines* that can run `v`: a transition
//!   `c` out of a predecessor with value `q` is allowed only if
//!   `load(c) ≤ caps[q]`, i.e. `c` becomes the configuration of the `q`-th
//!   fastest machine. (Peeling the least-capable used machine shows the
//!   recurrence is exact; caps being non-increasing makes slack predecessors
//!   only loosen the check.)
//! * **Engine**: any [`SpaceEngine`] — the serial reference sweep or the
//!   parallel wavefront executors from `pcmax-parallel`.
//! * **Driver**: the shared bisection [`drive`](crate::chassis::drive) loop;
//!   the speed-aware [`pcmax_core::MakespanBounds`] bracket guarantees the
//!   upper endpoint is always feasible (all rounded jobs fit the fastest
//!   machine at `T = ⌈Σt/s_max⌉`).
//!
//! Short jobs are placed greedily on the earliest-finishing machine
//! (the same rule as the `LPT-Q` baseline). The certified target `T*` is a
//! genuine lower bound on `OPT` just as in the identical case; the makespan
//! guarantee degrades with machine heterogeneity — a machine of speed `s`
//! carries at most `k` long jobs, each under-rounded by less than
//! `⌈capmax/k²⌉`, so its completion exceeds `T*` by at most a factor
//! `1 + s_max/(k·s)` before the short-job greedy (which only targets
//! earliest finishers) is accounted.

use crate::chassis::Scenario;
use crate::dp::{finish_with, DpProblem};
use crate::params::EpsilonParams;
use crate::rounding::{JobPartition, PcmaxRounding, RoundedLongJobs, Rounding};
use crate::space::{QSpace, SerialEngine, SpaceEngine};
use crate::table::{DpScratch, DpTable};
use crate::{Config, PtasOutput};
use pcmax_core::{
    profile, Error, Instance, ProfileKey, Result, Schedule, ScheduleBuilder, SolveReport,
    SolveRequest, SolveStats, Solver, Time,
};

/// Uniform-machine rounding: identical-machine rounding evaluated at the
/// fastest machine's capacity `capmax = s_max·target` — the threshold and
/// unit formulas depend only on the capacity, so the `P||Cmax` partition and
/// rounding code is reused wholesale.
#[derive(Debug, Clone, Copy)]
pub struct QRounding<'a> {
    /// The `ε`/`k` parameterization.
    pub params: &'a EpsilonParams,
}

impl Rounding for QRounding<'_> {
    type Map = (RoundedLongJobs, JobPartition);

    fn round_at(&self, inst: &Instance, target: Time) -> (Vec<u32>, Time, Self::Map) {
        let capmax = inst.max_speed().saturating_mul(target);
        PcmaxRounding {
            params: self.params,
        }
        .round_at(inst, capmax)
    }

    fn fingerprint(&self, inst: &Instance, target: Time) -> (Vec<u32>, Time) {
        let capmax = inst.max_speed().saturating_mul(target);
        PcmaxRounding {
            params: self.params,
        }
        .fingerprint(inst, capmax)
    }
}

/// The witness a feasible `Q||Cmax` probe hands to reconstruction: the
/// extracted per-machine configs (walk order = machines in *decreasing*
/// prefix position, see [`QPtas`]'s `reconstruct`), the rounding metadata,
/// and the fastest-first machine permutation.
pub struct QWitness {
    configs: Vec<Config>,
    rounded: RoundedLongJobs,
    partition: JobPartition,
    perm: Vec<usize>,
}

/// The Hochbaum–Shmoys-style dual approximation for `Q||Cmax`, assembled
/// from the chassis seams with a pluggable sweep engine.
///
/// `QPtas::new(0.3)` runs the serial reference engine;
/// `QPtas::with_engine(0.3, pcmax_parallel::ParallelDp::default())` runs the
/// parallel wavefront.
#[derive(Debug, Clone)]
pub struct QPtas<E = SerialEngine> {
    params: EpsilonParams,
    engine: E,
    max_entries: usize,
}

impl QPtas<SerialEngine> {
    /// Serial `Q||Cmax` PTAS with relative error `epsilon`.
    pub fn new(epsilon: f64) -> Result<Self> {
        Self::with_engine(epsilon, SerialEngine)
    }
}

impl<E: SpaceEngine> QPtas<E> {
    /// `Q||Cmax` PTAS with a custom sweep engine.
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

    /// Runs the full solve and returns the schedule plus diagnostics.
    pub fn solve_detailed(&self, inst: &Instance) -> Result<PtasOutput> {
        self.solve_with(&SolveRequest::new(inst))
            .map(|(out, _)| out)
    }

    /// Runs the full solve under an engine request (cancellation, budget,
    /// tracing) through the shared chassis driver.
    pub fn solve_with(&self, req: &SolveRequest<'_>) -> Result<(PtasOutput, SolveStats)> {
        crate::chassis::drive(self, req)
    }

    /// Machines sorted fastest-first (ties to the lowest original index):
    /// `perm[j]` is the original id of the `j`-th fastest machine and
    /// `caps[j]` its work capacity at `target`.
    fn sorted_caps(&self, inst: &Instance, target: Time) -> (Vec<usize>, Vec<Time>) {
        let speeds = inst.speeds();
        let mut perm: Vec<usize> = (0..inst.machines()).collect();
        perm.sort_by(|&a, &b| speeds[b].cmp(&speeds[a]).then(a.cmp(&b)));
        let caps = perm
            .iter()
            .map(|&i| speeds[i].saturating_mul(target))
            .collect();
        (perm, caps)
    }
}

impl<E: SpaceEngine> Scenario for QPtas<E> {
    type Witness = QWitness;

    fn reserve_hint(&self, inst: &Instance, target: Time) -> Option<usize> {
        let (counts, unit, _) = QRounding {
            params: &self.params,
        }
        .round_at(inst, target);
        DpTable::entries_needed(&counts, unit, self.max_entries)
    }

    fn probe(
        &self,
        inst: &Instance,
        target: Time,
        scratch: &mut DpScratch,
    ) -> Result<(u32, Option<QWitness>)> {
        let (perm, caps) = self.sorted_caps(inst, target);
        let capmax = caps[0];
        // A job no machine can finish by the target: infeasible outright
        // (and the rounding invariant `t ≤ capacity` would not hold).
        if inst.times().iter().any(|&t| t > capmax) {
            return Ok((u32::MAX, None));
        }
        let (counts, unit, (rounded, partition)) = QRounding {
            params: &self.params,
        }
        .round_at(inst, target);
        let problem = DpProblem {
            counts,
            unit,
            target: capmax,
            max_machines: inst.machines(),
            max_entries: self.max_entries,
        };
        let mut table = self.engine.table_for(&problem, scratch)?;
        let configs = problem.configs_with_offsets(&table);
        let space = QSpace::new(&configs, &table.sizes, &caps);
        self.engine.sweep(&mut table, &space, scratch);
        let outcome = finish_with(&problem, table, &space, scratch)?;
        let witness = outcome.schedule.map(|configs| QWitness {
            configs,
            rounded,
            partition,
            perm,
        });
        Ok((outcome.machines, witness))
    }

    /// `Q||Cmax` profile key: the class-count vector plus *per-machine*
    /// capacities in units (fastest-first) — the step filter checks configs
    /// against each prefix machine's capacity, so every `⌊caps[j]/unit⌋`
    /// joins the fingerprint. Probes with a job no machine can finish are
    /// trivially infeasible and opt out (matching the early return in
    /// [`probe`](Self::probe), whose rounding invariant they would break).
    fn profile_key(&self, inst: &Instance, target: Time) -> Option<ProfileKey> {
        let (_, caps) = self.sorted_caps(inst, target);
        if inst.times().iter().any(|&t| t > caps[0]) {
            return None;
        }
        let rounding = QRounding {
            params: &self.params,
        };
        let (counts, unit) = rounding.fingerprint(inst, target);
        Some(ProfileKey {
            scenario: "q",
            eps_micros: profile::eps_micros(self.params.epsilon),
            // audit:allow(cast): machine counts are bounded by the job count,
            // which Instance stores as a Vec length far below u32::MAX.
            machines: inst.machines() as u32,
            caps_units: caps.iter().map(|&c| c / unit).collect(),
            counts,
        })
    }

    fn rehydrate(&self, inst: &Instance, target: Time, configs: &[Config]) -> Option<QWitness> {
        let (perm, caps) = self.sorted_caps(inst, target);
        if inst.times().iter().any(|&t| t > caps[0]) {
            return None;
        }
        let (_, _, (rounded, partition)) = QRounding {
            params: &self.params,
        }
        .round_at(inst, target);
        Some(QWitness {
            configs: configs.to_vec(),
            rounded,
            partition,
            perm,
        })
    }

    fn witness_configs<'w>(&self, witness: &'w QWitness) -> Option<&'w [Config]> {
        Some(&witness.configs)
    }

    fn reconstruct(&self, inst: &Instance, witness: QWitness, _target: Time) -> Result<Schedule> {
        let QWitness {
            configs,
            rounded,
            partition,
            perm,
        } = witness;
        let mut builder = ScheduleBuilder::new(inst);
        let mut queues: Vec<std::collections::VecDeque<usize>> = rounded
            .members
            .iter()
            .map(|v| v.iter().copied().collect())
            .collect();
        let used = configs.len();
        if used > inst.machines() {
            return Err(Error::InvalidWitness {
                reason: format!(
                    "witness uses {used} machines but only {} are available",
                    inst.machines()
                ),
            });
        }
        // The walk peels configs top-down: the config extracted at value `q`
        // fits `caps[q−1]`, so `configs[step]` (0-based) belongs on the
        // `used−1−step`-th fastest machine.
        for (step, config) in configs.iter().enumerate() {
            let machine = perm[used - 1 - step];
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

        // Short jobs in non-increasing time on the earliest-finishing
        // machine — the speed-aware generalization of the LPT finish.
        let speeds = inst.speeds();
        let mut shorts = partition.short.clone();
        shorts.sort_by(|&a, &b| inst.time(b).cmp(&inst.time(a)).then(a.cmp(&b)));
        for &j in &shorts {
            let mach =
                pcmax_baselines::uniform::earliest_finish(builder.loads(), &speeds, inst.time(j));
            builder.assign(j, mach);
        }
        builder.build()
    }
}

impl<E: SpaceEngine + Send + Sync> Solver for QPtas<E> {
    fn solver_name(&self) -> &'static str {
        "PTAS-Q"
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

#[cfg(test)]
mod tests {
    use super::*;
    use pcmax_core::{lower_bound, Scheduler};
    use pcmax_workloads::{generate_uniform, Distribution, Family, SpeedFamily};

    fn qptas() -> QPtas {
        QPtas::new(0.3).unwrap()
    }

    #[test]
    fn exact_on_a_tiny_uniform_instance() {
        // speeds (2, 1), jobs (4, 2): put 4 on the fast machine (done at 2)
        // and 2 on the slow one (done at 2) -> OPT = 2.
        let inst = Instance::with_speeds(vec![4, 2], vec![2, 1]).unwrap();
        let out = qptas().solve_detailed(&inst).unwrap();
        assert_eq!(out.target, 2);
        assert_eq!(out.schedule.makespan(&inst), 2);
        out.schedule.validate(&inst).unwrap();
    }

    #[test]
    fn all_short_instance_collapses_to_the_greedy() {
        // Everything is short at the converged target: the witness is empty
        // and the earliest-finish greedy does all the work.
        let inst = Instance::with_speeds(vec![1, 1, 1], vec![5, 1]).unwrap();
        let out = qptas().solve_detailed(&inst).unwrap();
        assert_eq!(out.target, 1);
        assert_eq!(out.schedule.makespan(&inst), 1);
    }

    #[test]
    fn matches_identical_ptas_makespan_when_speeds_are_one() {
        use crate::Ptas;
        let inst = Instance::new(vec![13, 11, 9, 8, 8, 7, 5, 4, 2, 2, 1, 1], 3).unwrap();
        let q = qptas().solve_detailed(&inst).unwrap();
        let p = Ptas::new(0.3).unwrap().solve_detailed(&inst).unwrap();
        // All caps equal the target, so the step filter is vacuous: the DP
        // values, the certified target and the makespan all coincide (the
        // machine *labels* differ — Q hands configs out fastest-prefix-last).
        assert_eq!(q.target, p.target);
        assert_eq!(q.schedule.makespan(&inst), p.schedule.makespan(&inst));
        q.schedule.validate(&inst).unwrap();
    }

    #[test]
    fn target_is_a_lower_bound_and_schedule_validates() {
        let fam = SpeedFamily::new(Family::new(3, 14, Distribution::U1To100), 4);
        for seed in 0..6 {
            let inst = generate_uniform(fam, seed);
            let out = qptas().solve_detailed(&inst).unwrap();
            out.schedule.validate(&inst).unwrap();
            assert!(
                out.target >= lower_bound(&inst),
                "seed {seed}: certified target below the area bound"
            );
            assert!(
                out.schedule.makespan(&inst) >= lower_bound(&inst),
                "seed {seed}: makespan beat the lower bound"
            );
        }
    }

    #[test]
    fn long_jobs_respect_sorted_capacities() {
        // A job only the fast machine can finish by the optimum must land
        // on the fast machine.
        let inst = Instance::with_speeds(vec![30, 3, 3], vec![10, 1, 1]).unwrap();
        let out = qptas().solve_detailed(&inst).unwrap();
        out.schedule.validate(&inst).unwrap();
        assert_eq!(
            out.schedule.machine_of(0),
            0,
            "size-30 job on the 10x machine"
        );
        assert!(out.schedule.makespan(&inst) <= 2 * lower_bound(&inst));
    }

    #[test]
    fn solver_report_certifies_the_target() {
        let inst =
            Instance::with_speeds(vec![17, 13, 11, 9, 8, 7, 5, 4, 2], vec![3, 2, 1]).unwrap();
        let report = qptas().solve(&SolveRequest::new(&inst)).unwrap();
        assert_eq!(report.makespan, report.schedule.makespan(&inst));
        let detailed = qptas().solve_detailed(&inst).unwrap();
        assert_eq!(report.certified_target, Some(detailed.target));
        assert!(!report.proven_optimal);
        let _ = Scheduler::makespan(&qptas(), &inst).unwrap();
    }

    #[test]
    fn empty_instance_is_a_noop() {
        let inst = Instance::new(vec![], 2).unwrap();
        let out = qptas().solve_detailed(&inst).unwrap();
        assert_eq!(out.schedule.makespan(&inst), 0);
        assert_eq!(out.log.evaluations(), 0);
    }
}
