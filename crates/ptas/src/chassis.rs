//! The scenario seam of the chassis: the bisection driver (Algorithm 1)
//! generalized over *what* is being bisected and over how many targets a
//! round probes.
//!
//! A [`Scenario`] packages the scheduling-model-specific parts of a
//! dual-approximation run: the initial makespan bracket, a feasibility
//! `probe` at a target (rounding + DP + witness extraction), and the
//! `reconstruct` step that turns a probe's witness back into a schedule over
//! the original jobs. [`drive`] is the model-agnostic part — the bisection
//! loop, the budget/cancellation gates, the profile cache, the trace spans,
//! the re-probe that re-establishes the invariant at the converged target,
//! and the stats bookkeeping — and the only bisection loop of the PTAS
//! family.
//!
//! [`drive`] bisects in `w`-ary rounds. At width 1 a round probes the
//! midpoint alone: this is Alg. 1's binary search, which `Ptas`, `QPtas`
//! and the parallel PTAS run. A wider round (the speculative PTAS of
//! `pcmax-parallel`, an extension beyond the paper) probes `w` evenly spread
//! targets plus the midpoint concurrently, which feeds idle cores when the
//! per-probe DP tables are too small to parallelize on their own.

use crate::config::Config;
use crate::driver::{BisectionLog, BisectionProbe, PtasOutput};
use crate::table::DpScratch;
use pcmax_core::{
    Error, Instance, MakespanBounds, ProfileKey, ProfileVerdict, Result, Schedule, SolveRequest,
    SolveStats, Time,
};
use pcmax_metrics::Counter;
use std::panic::resume_unwind;
use std::time::{Duration, Instant};

/// Bisection probes across all dual-approximation solves.
static BISECTION_PROBES: Counter = Counter::new(
    "pcmax_bisection_probes_total",
    "Feasibility probes evaluated by the bisection chassis",
);

/// DP levels swept across all solves (aggregate of `dp_levels_swept`).
static DP_LEVELS: Counter = Counter::new(
    "pcmax_dp_levels_total",
    "Wavefront DP levels swept across all solves",
);

/// DP cells computed across all solves (aggregate of `dp_cells`).
static DP_CELLS: Counter = Counter::new(
    "pcmax_dp_cells_total",
    "DP cells computed across all solves",
);

/// Kernel scratch allocations across all solves.
static DP_KERNEL_ALLOCS: Counter = Counter::new(
    "pcmax_dp_kernel_allocs_total",
    "Kernel scratch buffer allocations across all solves",
);

/// Probes answered from the instance-profile cache across all solves.
static PROFILE_CACHE_HITS: Counter = Counter::new(
    "pcmax_profile_cache_hits_total",
    "DP probes answered from the instance-profile cache",
);

/// Probes that consulted the instance-profile cache and missed.
static PROFILE_CACHE_MISSES: Counter = Counter::new(
    "pcmax_profile_cache_misses_total",
    "DP probes that consulted the instance-profile cache and missed",
);

/// A dual-approximation scheduling scenario the generic [`drive`] loop can
/// bisect: `P||Cmax` (the original PTAS), `Q||Cmax` (uniform machines), or
/// anything else with a monotone feasibility predicate over target makespans.
pub trait Scenario: Sync {
    /// Whatever the probe must hand to [`reconstruct`](Self::reconstruct)
    /// to rebuild a schedule over the original jobs. `Send`, because a wide
    /// [`drive`] round probes on scoped threads.
    type Witness: Send;

    /// Initial bisection bracket. The default — the speed-aware
    /// [`MakespanBounds`] — is correct for both identical and uniform
    /// machines; the contract [`drive`] relies on is that a probe at
    /// `upper` is always feasible.
    fn bounds(&self, inst: &Instance) -> MakespanBounds {
        MakespanBounds::of(inst)
    }

    /// DP-table entry count at `target`, used to pre-size the scratch arena
    /// so every probe of the run reuses one allocation. `None` skips the
    /// reservation (probes then allocate on first use).
    fn reserve_hint(&self, inst: &Instance, target: Time) -> Option<usize>;

    /// Probes feasibility at `target`: rounds the instance, runs the DP, and
    /// returns `OPT(N)` (machine count, `u32::MAX` for unschedulable)
    /// together with a witness iff the target is feasible.
    fn probe(
        &self,
        inst: &Instance,
        target: Time,
        scratch: &mut DpScratch,
    ) -> Result<(u32, Option<Self::Witness>)>;

    /// Rebuilds a full schedule from the witness of a feasible probe at
    /// `target` (long jobs from the witness, short jobs greedily on top).
    fn reconstruct(
        &self,
        inst: &Instance,
        witness: Self::Witness,
        target: Time,
    ) -> Result<Schedule>;

    /// The instance-profile cache key of the rounded subproblem at
    /// `target`, or `None` when this scenario (or this particular probe)
    /// does not support profile caching. Implementations must guarantee
    /// that equal keys imply bit-identical probe verdicts *and* extracted
    /// witness configs — see `pcmax_core::profile` for the soundness
    /// argument. The default opts out.
    fn profile_key(&self, inst: &Instance, target: Time) -> Option<ProfileKey> {
        let _ = (inst, target);
        None
    }

    /// Rebuilds a probe witness from cached configs: replays the cheap
    /// O(n) rounding for the per-instance reconstruction map and skips the
    /// DP. Returning `None` forces a real probe. The default opts out.
    fn rehydrate(
        &self,
        inst: &Instance,
        target: Time,
        configs: &[Config],
    ) -> Option<Self::Witness> {
        let _ = (inst, target, configs);
        None
    }

    /// The extracted per-machine configs inside a witness, for populating
    /// the cache after a miss. The default opts out (nothing is stored).
    fn witness_configs<'w>(&self, witness: &'w Self::Witness) -> Option<&'w [Config]> {
        let _ = witness;
        None
    }
}

/// Runs a full dual-approximation solve for any [`Scenario`] under an engine
/// request: bisect the bracket in `width`-ary rounds, probing feasibility
/// with budget and cancellation gates before every round, then reconstruct
/// from the witness at the converged target. Returns the schedule, the
/// certified target `T*`, the probe log, and per-phase stats.
///
/// A round probes the `width` points that split `[lower, upper)` evenly plus
/// the midpoint, sorted and deduplicated. At `width = 1` that is the
/// midpoint alone: Alg. 1's binary search, probed inline on the run's one
/// scratch arena. A wider round probes its candidates concurrently, one
/// scoped thread and one run-long arena per lane. Either way the bracket
/// update rests on the same one-sided proofs: the smallest feasible
/// candidate carries a witness, so `upper` drops to it, and an infeasible
/// candidate `t < upper` proves `OPT > t`, so `lower` jumps past the largest
/// one. The converged target carries the same `(1+ε)` guarantee at any
/// width.
pub fn drive<Sc: Scenario>(
    sc: &Sc,
    req: &SolveRequest<'_>,
    width: usize,
) -> Result<(PtasOutput, SolveStats)> {
    let inst = req.instance;
    let run_start = Instant::now();
    let mut stats = SolveStats::default();
    req.check_cancelled()?;
    if inst.jobs() == 0 {
        stats.wall = run_start.elapsed();
        return Ok((
            PtasOutput {
                schedule: Schedule::from_assignment(vec![], inst.machines())?,
                target: 0,
                log: BisectionLog::default(),
            },
            stats,
        ));
    }
    let MakespanBounds {
        mut lower,
        mut upper,
    } = sc.bounds(inst);
    let mut log = BisectionLog::default();
    // Last feasible witness and the target it certifies.
    let mut best: Option<(Sc::Witness, Time)> = None;

    // One arena per lane for the whole run. Reserving the largest table of
    // the bracket (table size grows as the target shrinks, and no probe
    // goes below the initial lower bound) makes every probe a reuse. Lane 0
    // exists from the start; wide rounds add lanes as they need them.
    let hint = sc.reserve_hint(inst, lower.max(1));
    let mut lanes = vec![lane_scratch(hint)];
    // Keys this solve stored itself (see `cache_key`).
    let mut self_stored: Vec<ProfileKey> = Vec::new();
    let mut targets: Vec<Time> = Vec::with_capacity(width + 1);
    let mut keys: Vec<Option<ProfileKey>> = Vec::with_capacity(width + 1);
    let mut probes: Vec<Result<Probe<Sc::Witness>>> = Vec::with_capacity(width + 1);

    let bisect_start = Instant::now();
    let bisect_span = req.trace_span("bisection", 0);
    // Wall time spent inside probe rounds only, reported as the `"dp"`
    // phase: `dp_cells_per_sec` divides by the *total* solve wall and so
    // understates DP throughput; `dp_phase_cells_per_sec` divides by this.
    let mut dp_wall = Duration::ZERO;
    while lower < upper {
        check_budget(req, &lanes, lower, upper)?;
        candidates(lower, upper, width, &mut targets);
        while lanes.len() < targets.len() {
            lanes.push(lane_scratch(hint));
        }
        let dp_start = Instant::now();
        keys.clear();
        for &t in &targets {
            let key = cache_key(sc, req, t, &self_stored, &keys);
            keys.push(key);
        }
        probe_targets(sc, req, &targets, &mut keys, &mut lanes, &mut probes);
        dp_wall += dp_start.elapsed();
        log.rounds += 1;
        // Targets ascend, so the first feasible probe is the smallest and
        // the last infeasible one the largest.
        let mut feasible_min: Option<(Sc::Witness, Time)> = None;
        let mut infeasible_max: Option<Time> = None;
        for (&t, probe) in targets.iter().zip(probes.drain(..)) {
            match record(&mut log, &mut stats, &mut self_stored, t, probe?) {
                Some(w) => {
                    if feasible_min.is_none() {
                        feasible_min = Some((w, t));
                    }
                }
                None => infeasible_max = Some(t),
            }
        }
        if let Some((w, t)) = feasible_min {
            upper = t;
            best = Some((w, t));
        }
        // Every candidate is at least `lower`, so only the new `upper` can
        // reject the jump (a non-monotone rounding above a feasible probe).
        if let Some(t) = infeasible_max.filter(|&t| t < upper) {
            lower = t + 1;
        }
    }

    let target = upper;
    // The loop's invariant keeps `best` at T = final upper whenever the
    // loop body ran and found a feasible probe; otherwise (zero-width
    // bracket, or all probes infeasible) certify the final target
    // directly — the initial UB is always feasible, so this succeeds.
    let (witness, t_star) = match best {
        Some(b) if b.1 == target => b,
        _ => {
            check_budget(req, &lanes, lower, upper)?;
            let dp_start = Instant::now();
            let key = cache_key(sc, req, target, &self_stored, &[]);
            let probe = probe_one(sc, req, target, key, &mut lanes[0])?;
            dp_wall += dp_start.elapsed();
            let witness = record(&mut log, &mut stats, &mut self_stored, target, probe)
                .ok_or_else(|| Error::InvalidWitness {
                    reason: format!(
                        "converged target {target} probed infeasible, breaking the \
                         bisection invariant"
                    ),
                })?;
            (witness, target)
        }
    };
    drop(bisect_span);
    stats.push_phase("bisection", bisect_start.elapsed());
    stats.push_phase("dp", dp_wall);

    // Reconstruction runs under the same budget/cancel regime as the
    // probes. This matters most on the cache path: a solve whose every
    // probe was a hit reaches this point having spent almost no budget,
    // and a cancel raised during the bisection must still abort the
    // (per-instance, never cached) witness reconstruction.
    check_budget(req, &lanes, t_star, t_star)?;
    let recon_start = Instant::now();
    let recon_span = req.trace_span("reconstruct", 0);
    let schedule = sc.reconstruct(inst, witness, t_star)?;
    drop(recon_span);
    stats.push_phase("reconstruct", recon_start.elapsed());

    stats.bisection_probes = log.evaluations() as u64;
    for lane in &lanes {
        stats.dp_entries_touched += lane.entries_touched;
        stats.dp_tables_allocated += lane.tables_allocated;
        stats.dp_tables_reused += lane.tables_reused;
        stats.dp_levels_swept += lane.levels_swept;
        stats.dp_cells += lane.cells_computed;
        stats.pool_parks += lane.pool_parks;
        stats.pool_wakes += lane.pool_wakes;
        stats.dp_kernel_allocs += lane.kernel_allocs;
    }
    stats.wall = run_start.elapsed();
    // Aggregate per-solve totals into the process-wide registry — once per
    // solve, well off the probe/cell hot paths.
    BISECTION_PROBES.inc_by(stats.bisection_probes);
    DP_LEVELS.inc_by(stats.dp_levels_swept);
    DP_CELLS.inc_by(stats.dp_cells);
    DP_KERNEL_ALLOCS.inc_by(stats.dp_kernel_allocs);
    PROFILE_CACHE_HITS.inc_by(stats.cache_hits);
    PROFILE_CACHE_MISSES.inc_by(stats.cache_misses);
    Ok((
        PtasOutput {
            schedule,
            target: t_star,
            log,
        },
        stats,
    ))
}

/// A fresh lane arena, pre-grown to the run's largest table when the
/// scenario can say how large that is.
fn lane_scratch(hint: Option<usize>) -> DpScratch {
    let mut scratch = DpScratch::new();
    if let Some(entries) = hint {
        scratch.reserve(entries);
    }
    scratch
}

/// One round's candidate targets in `[lower, upper)`: the `width` points
/// that split the bracket into `width + 1` even parts, plus the midpoint so
/// each round at least halves it — ascending and distinct. At `width = 1`
/// both are the midpoint `(lower + upper) / 2`.
fn candidates(lower: Time, upper: Time, width: usize, out: &mut Vec<Time>) {
    let span = upper - lower;
    let parts = width as Time + 1;
    out.clear();
    out.extend((1..parts).map(|i| lower + span * i / parts));
    out.push((lower + upper) / 2);
    out.sort_unstable();
    out.dedup();
}

/// Probes every target of one round, with its cache key from `keys`, into
/// `out` (in target order), each on its own lane arena: inline when the
/// round has one target, else on one scoped thread per target.
fn probe_targets<Sc: Scenario>(
    sc: &Sc,
    req: &SolveRequest<'_>,
    targets: &[Time],
    keys: &mut Vec<Option<ProfileKey>>,
    lanes: &mut [DpScratch],
    out: &mut Vec<Result<Probe<Sc::Witness>>>,
) {
    if let ([t], [scratch, ..]) = (targets, &mut *lanes) {
        out.push(probe_one(sc, req, *t, keys.pop().flatten(), scratch));
        return;
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = targets
            .iter()
            .zip(keys.drain(..))
            .zip(lanes.iter_mut())
            .map(|((&t, key), scratch)| scope.spawn(move || probe_one(sc, req, t, key, scratch)))
            .collect();
        for handle in handles {
            out.push(handle.join().unwrap_or_else(|panic| resume_unwind(panic)));
        }
    });
}

/// What one probe found, before the round merges it into the run.
struct Probe<W> {
    /// `OPT(N)` at the probed target.
    machines: u32,
    /// The witness iff the target is feasible.
    witness: Option<W>,
    /// `Some(hit)` when the profile cache was consulted.
    lookup: Option<bool>,
    /// The key this probe stored into the cache after its miss.
    stored: Option<ProfileKey>,
}

/// Merges one probe into the log, the cache counters and the self-stored
/// keys, and hands back its witness.
fn record<W>(
    log: &mut BisectionLog,
    stats: &mut SolveStats,
    self_stored: &mut Vec<ProfileKey>,
    target: Time,
    probe: Probe<W>,
) -> Option<W> {
    log.probes.push(BisectionProbe {
        target,
        dp_machines: probe.machines,
        feasible: probe.witness.is_some(),
    });
    match probe.lookup {
        Some(true) => stats.cache_hits += 1,
        Some(false) => stats.cache_misses += 1,
        None => {}
    }
    self_stored.extend(probe.stored);
    probe.witness
}

/// The profile-cache key `target`'s probe consults, or `None` to bypass
/// the cache: the request carries no cache, the scenario has no key for
/// this target, or the key is this solve's own — stored by an earlier round
/// (`self_stored`; the converged-target re-probe may revisit a target the
/// loop already probed) or shared with an earlier target of this round
/// (`round`). Reading back our own verdict would report a cross-request
/// `cache_hit` on a cold cache; bypassing costs the same work as an
/// uncached solve.
fn cache_key<Sc: Scenario>(
    sc: &Sc,
    req: &SolveRequest<'_>,
    target: Time,
    self_stored: &[ProfileKey],
    round: &[Option<ProfileKey>],
) -> Option<ProfileKey> {
    req.cache.as_ref()?;
    sc.profile_key(req.instance, target)
        .filter(|key| !self_stored.contains(key) && !round.iter().any(|k| k.as_ref() == Some(key)))
}

/// One feasibility probe under its `"probe"` trace span, routed through the
/// request's instance-profile cache when it has a [`cache_key`]. A hit
/// skips the DP and [rehydrates](Scenario::rehydrate) the witness from the
/// cached configs (replaying only the O(n) rounding); a miss runs the real
/// probe and stores its verdict. The returned lookup is counted *for this
/// solve* — a hit never reuses the populating solve's stats.
fn probe_one<Sc: Scenario>(
    sc: &Sc,
    req: &SolveRequest<'_>,
    target: Time,
    key: Option<ProfileKey>,
    scratch: &mut DpScratch,
) -> Result<Probe<Sc::Witness>> {
    let _probe_span = req.trace_span("probe", target);
    let inst = req.instance;
    let keyed = key.and_then(|key| req.cache.as_ref().map(|cache| (cache, key)));
    if let Some((cache, key)) = &keyed {
        if let Some(verdict) = cache.get(key) {
            let rehydrated = match verdict {
                ProfileVerdict::Infeasible { machines } => Some((machines, None)),
                ProfileVerdict::Feasible { machines, configs } => sc
                    .rehydrate(inst, target, &configs)
                    .map(|w| (machines, Some(w))),
            };
            // A verdict the scenario cannot rehydrate (shouldn't happen
            // with a sound key) falls through to a real probe.
            if let Some((machines, witness)) = rehydrated {
                return Ok(Probe {
                    machines,
                    witness,
                    lookup: Some(true),
                    stored: None,
                });
            }
        }
    }
    let (machines, witness) = sc.probe(inst, target, scratch)?;
    let mut probe = Probe {
        machines,
        witness,
        lookup: None,
        stored: None,
    };
    if let Some((cache, key)) = keyed {
        probe.lookup = Some(false);
        let verdict = match &probe.witness {
            None => Some(ProfileVerdict::Infeasible { machines }),
            Some(w) => sc
                .witness_configs(w)
                .map(|configs| ProfileVerdict::Feasible {
                    machines,
                    configs: configs.to_vec(),
                }),
        };
        if let Some(verdict) = verdict {
            cache.put(key.clone(), verdict);
            probe.stored = Some(key);
        }
    }
    Ok(probe)
}

/// Pre-probe budget gate: cancellation, wall-clock deadline and the
/// DP-entry limit, summed over every lane. `[lower, upper]` is the current
/// bracket, reported in the budget-exhausted error as the best-known bounds.
fn check_budget(
    req: &SolveRequest<'_>,
    lanes: &[DpScratch],
    lower: Time,
    upper: Time,
) -> Result<()> {
    req.check_cancelled()?;
    let touched: u64 = lanes.iter().map(|lane| lane.entries_touched).sum();
    let entries_exhausted = req
        .budget
        .entry_limit
        .is_some_and(|limit| touched >= limit as u64);
    if req.budget.deadline_exceeded() || entries_exhausted {
        return Err(Error::BudgetExhausted {
            incumbent: upper,
            lower_bound: lower,
        });
    }
    Ok(())
}
