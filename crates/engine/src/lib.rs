//! The solver registry: stable names to boxed [`Solver`] constructors for
//! every `P||Cmax` algorithm in the workspace.
//!
//! The CLI (`pcmax solve --algo <name>`), the comparison command and the
//! bench harness all enumerate *this* table instead of hard-coding solver
//! lists, so adding an algorithm here makes it reachable everywhere at once.
//!
//! Stable names (aliases in parentheses):
//!
//! | name        | algorithm                                   | guarantee          |
//! |-------------|---------------------------------------------|--------------------|
//! | `ls`        | Graham list scheduling                      | `2 − 1/m`          |
//! | `lpt`       | longest processing time first               | `4/3 − 1/(3m)`     |
//! | `multifit`  | Coffman–Garey–Johnson MULTIFIT              | `1.22 + 2⁻⁷`       |
//! | `ptas`      | sequential Hochbaum–Shmoys PTAS             | `1 + ε`            |
//! | `par-ptas` (`pptas`) | wavefront-parallel PTAS (the paper) | `1 + ε`            |
//! | `spec-ptas` (`spec`) | speculative `w`-ary bisection PTAS  | `1 + ε`            |
//! | `exact` (`ip`, `bb`) | combinatorial branch-and-bound     | optimal (anytime)  |
//! | `milp` (`ip-milp`)   | assignment-IP via from-scratch MILP | optimal           |
//! | `fptas` (`sahni`)    | Sahni's fixed-`m` FPTAS             | `1 + ε`           |
//!
//! Beyond `P||Cmax`, the chassis scenarios register here too (each row's
//! [`ScenarioKind`] says which model it targets):
//!
//! | name        | scenario   | algorithm                              | guarantee |
//! |-------------|------------|----------------------------------------|-----------|
//! | `ptas-q`    | `Q||Cmax`  | chassis dual approximation, speed caps | `T* ≤ OPT` certified |
//! | `lpt-q`     | `Q||Cmax`  | LPT on the earliest-finishing machine  | `2`       |
//! | `ls-online` | online     | greedy list scheduling over arrivals   | `2 − 1/m` |
//!
//! **Running solvers** goes through the submission-based [`session`] layer:
//! [`Engine::submit`] takes a [`Submission`] (registry name + owned
//! instance + composable observers) and returns a [`SolveHandle`] with
//! `poll`/`wait`/`cancel`; it meters every solve and takes a trace sink
//! as an observer.

pub mod cache;
pub mod session;

pub use cache::ProfileMemo;
pub use session::{Engine, EngineConfig, EngineTotals, SolveHandle, SolvePoll, Submission};

use pcmax_baselines::{Lpt, Ls, LsOnline, Multifit, SpeedLpt};
use pcmax_core::{Error, Result, SolveReport, Solver};
use pcmax_exact::BranchAndBound;
use pcmax_fptas::FixedMachinesFptas;
use pcmax_metrics::{family, Family, Gauge, Histogram};
use pcmax_milp::AssignmentIp;
use pcmax_parallel::{ParallelDp, ParallelPtas, SpeculativePtas};
use pcmax_ptas::{Ptas, QPtas};

/// Construction-time parameters shared by every registry constructor.
/// Fields irrelevant to a solver are ignored (ε for LS, threads for exact…).
#[derive(Debug, Clone)]
pub struct SolverParams {
    /// Relative error for the PTAS family and the FPTAS.
    pub epsilon: f64,
    /// Worker threads for the parallel solvers (`None` = all cores).
    pub threads: Option<usize>,
    /// Search-node budget for the exact and MILP solvers.
    pub node_budget: Option<u64>,
    /// Concurrent probes per round for the speculative PTAS.
    pub width: usize,
}

impl Default for SolverParams {
    fn default() -> Self {
        Self {
            epsilon: 0.3,
            threads: None,
            node_budget: None,
            width: 4,
        }
    }
}

impl SolverParams {
    /// Params with relative error `epsilon`.
    pub fn with_epsilon(epsilon: f64) -> Self {
        Self {
            epsilon,
            ..Self::default()
        }
    }
}

/// Broad class of a registered solver. The bench harness and the CLI use
/// this to pick solver sets by property (e.g. "every polynomial
/// approximation algorithm") instead of hard-coding name lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    /// Constant-factor heuristic; scales to any instance shape.
    Heuristic,
    /// Dual-approximation `(1+ε)`-scheme (the PTAS family).
    DualApprox,
    /// Polynomial only when the machine count is a fixed constant.
    FixedMachines,
    /// Proves optimality (possibly within a node budget).
    Exact,
}

/// The scheduling model a registered solver targets. Every solver accepts
/// identical-machine instances (speeds default to 1); this kind records what
/// the algorithm is *designed* for, so the CLI can group comparison output
/// and filter solver sets per instance family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Identical parallel machines (`P||Cmax`) — the paper's model.
    Identical,
    /// Uniform machines (`Q||Cmax`): per-machine integer speeds.
    Uniform,
    /// Online list scheduling: jobs committed in arrival (index) order.
    Online,
}

impl ScenarioKind {
    /// Human-readable scenario label for tables and reports.
    pub fn label(&self) -> &'static str {
        match self {
            ScenarioKind::Identical => "P||Cmax",
            ScenarioKind::Uniform => "Q||Cmax",
            ScenarioKind::Online => "online",
        }
    }
}

/// The worst-case guarantee a registered solver carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Guarantee {
    /// Approximation ratio `makespan ≤ ratio · OPT`.
    Ratio(f64),
    /// `(1 + ε)`-approximation for the configured ε.
    Epsilon,
    /// Proven optimal (within budget).
    Optimal,
}

impl Guarantee {
    /// An upper bound on the makespan this guarantee permits against a known
    /// optimum, for the configured `epsilon`. The PTAS family's bound
    /// carries the integer rounding slack `k = ⌈1/ε⌉` of the dual
    /// approximation (the FPTAS is strictly within `(1+ε)·OPT`, which the
    /// looser bound also covers).
    pub fn makespan_bound(&self, opt: u64, epsilon: f64) -> f64 {
        match self {
            Guarantee::Ratio(r) => r * opt as f64,
            Guarantee::Epsilon => {
                let k = (1.0 / epsilon).ceil();
                (1.0 + epsilon) * opt as f64 + k
            }
            Guarantee::Optimal => opt as f64,
        }
    }
}

/// One registry row: the stable name, its aliases, and a constructor.
pub struct SolverSpec {
    /// Stable primary name (`"ls"`, `"ptas"`, …).
    pub name: &'static str,
    /// Accepted alternative names.
    pub aliases: &'static [&'static str],
    /// One-line description for `--help` output.
    pub summary: &'static str,
    /// Broad algorithm class.
    pub kind: SolverKind,
    /// Scheduling model the solver targets.
    pub scenario: ScenarioKind,
    /// Worst-case guarantee.
    pub guarantee: Guarantee,
    build: fn(&SolverParams) -> Result<Box<dyn Solver>>,
}

impl SolverSpec {
    /// Instantiates the solver with `params`.
    pub fn build(&self, params: &SolverParams) -> Result<Box<dyn Solver>> {
        (self.build)(params)
    }

    /// Whether `name` (case-insensitively) names this spec.
    pub fn matches(&self, name: &str) -> bool {
        self.name.eq_ignore_ascii_case(name)
            || self.aliases.iter().any(|a| a.eq_ignore_ascii_case(name))
    }
}

impl std::fmt::Debug for SolverSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolverSpec")
            .field("name", &self.name)
            .field("aliases", &self.aliases)
            .field("guarantee", &self.guarantee)
            .finish()
    }
}

static REGISTRY: &[SolverSpec] = &[
    SolverSpec {
        name: "ls",
        kind: SolverKind::Heuristic,
        scenario: ScenarioKind::Identical,
        aliases: &[],
        summary: "Graham list scheduling (2 - 1/m approximation)",
        guarantee: Guarantee::Ratio(2.0),
        build: |_| Ok(Box::new(Ls)),
    },
    SolverSpec {
        name: "lpt",
        kind: SolverKind::Heuristic,
        scenario: ScenarioKind::Identical,
        aliases: &[],
        summary: "longest processing time first (4/3 - 1/(3m))",
        guarantee: Guarantee::Ratio(4.0 / 3.0),
        build: |_| Ok(Box::new(Lpt)),
    },
    SolverSpec {
        name: "multifit",
        kind: SolverKind::Heuristic,
        scenario: ScenarioKind::Identical,
        aliases: &[],
        summary: "MULTIFIT dual bin packing (1.22 + 2^-7)",
        guarantee: Guarantee::Ratio(1.23),
        build: |_| Ok(Box::new(Multifit::default())),
    },
    SolverSpec {
        name: "ptas",
        kind: SolverKind::DualApprox,
        scenario: ScenarioKind::Identical,
        aliases: &[],
        summary: "sequential Hochbaum-Shmoys PTAS (1 + eps)",
        guarantee: Guarantee::Epsilon,
        build: |p| Ok(Box::new(Ptas::new(p.epsilon)?)),
    },
    SolverSpec {
        name: "par-ptas",
        kind: SolverKind::DualApprox,
        scenario: ScenarioKind::Identical,
        aliases: &["pptas"],
        summary: "wavefront-parallel PTAS, Algorithm 3 of the paper (1 + eps)",
        guarantee: Guarantee::Epsilon,
        build: |p| {
            Ok(Box::new(match p.threads {
                Some(t) => ParallelPtas::with_threads(p.epsilon, t)?,
                None => ParallelPtas::new(p.epsilon)?,
            }))
        },
    },
    SolverSpec {
        name: "spec-ptas",
        kind: SolverKind::DualApprox,
        scenario: ScenarioKind::Identical,
        aliases: &["spec"],
        summary: "speculative w-ary bisection PTAS (1 + eps)",
        guarantee: Guarantee::Epsilon,
        build: |p| Ok(Box::new(SpeculativePtas::new(p.epsilon, p.width)?)),
    },
    SolverSpec {
        name: "exact",
        kind: SolverKind::Exact,
        scenario: ScenarioKind::Identical,
        aliases: &["ip", "bb"],
        summary: "combinatorial branch-and-bound, anytime (optimal)",
        guarantee: Guarantee::Optimal,
        build: |p| {
            Ok(Box::new(match p.node_budget {
                Some(b) => BranchAndBound::with_budget(b.max(1)),
                None => BranchAndBound::default(),
            }))
        },
    },
    SolverSpec {
        name: "milp",
        kind: SolverKind::Exact,
        scenario: ScenarioKind::Identical,
        aliases: &["ip-milp"],
        summary: "assignment integer program via from-scratch MILP (optimal)",
        guarantee: Guarantee::Optimal,
        build: |_| Ok(Box::new(AssignmentIp::default())),
    },
    SolverSpec {
        name: "fptas",
        kind: SolverKind::FixedMachines,
        scenario: ScenarioKind::Identical,
        aliases: &["sahni"],
        summary: "Sahni's fixed-m FPTAS (1 + eps; eps = 0 is exact)",
        guarantee: Guarantee::Epsilon,
        build: |p| Ok(Box::new(FixedMachinesFptas::new(p.epsilon)?)),
    },
    SolverSpec {
        name: "ptas-q",
        kind: SolverKind::DualApprox,
        scenario: ScenarioKind::Uniform,
        aliases: &["qptas"],
        summary: "chassis dual approximation for Q||Cmax (certified target)",
        guarantee: Guarantee::Epsilon,
        build: |p| match p.threads {
            Some(t) => Ok(Box::new(QPtas::with_engine(
                p.epsilon,
                ParallelDp::with_threads(t),
            )?)),
            None => Ok(Box::new(QPtas::new(p.epsilon)?)),
        },
    },
    SolverSpec {
        name: "lpt-q",
        kind: SolverKind::Heuristic,
        scenario: ScenarioKind::Uniform,
        aliases: &["speed-lpt"],
        summary: "LPT on the earliest-finishing uniform machine (2-approx)",
        guarantee: Guarantee::Ratio(2.0),
        build: |_| Ok(Box::new(SpeedLpt)),
    },
    SolverSpec {
        name: "ls-online",
        kind: SolverKind::Heuristic,
        scenario: ScenarioKind::Online,
        aliases: &["online"],
        summary: "online greedy list scheduling over the arrival order (2 - 1/m)",
        guarantee: Guarantee::Ratio(2.0),
        build: |_| Ok(Box::new(LsOnline)),
    },
];

/// The full registry, in canonical order.
pub fn registry() -> &'static [SolverSpec] {
    REGISTRY
}

/// Resolves `name` (primary or alias, case-insensitive) to its spec.
pub fn lookup(name: &str) -> Option<&'static SolverSpec> {
    REGISTRY.iter().find(|s| s.matches(name))
}

/// Builds the solver registered under `name` with `params`.
pub fn build(name: &str, params: &SolverParams) -> Result<Box<dyn Solver>> {
    match lookup(name) {
        Some(spec) => spec.build(params),
        None => Err(Error::UnknownSolver {
            name: name.to_string(),
        }),
    }
}

/// All primary registry names, in canonical order.
pub fn names() -> Vec<&'static str> {
    REGISTRY.iter().map(|s| s.name).collect()
}

/// Per-solver solve latency, in nanoseconds.
static SOLVE_LATENCY_NANOS: Family<Histogram> = family(
    "pcmax_solve_latency_nanos",
    "End-to-end solve latency per registry solver, in nanoseconds",
    "solver",
);

/// Per-outcome solve counts (`ok`, `budget-exhausted`, `cancelled`,
/// `invalid-witness`, `error`).
static SOLVE_OUTCOMES: Family<pcmax_metrics::Counter> = family(
    "pcmax_solve_outcomes_total",
    "Solve completions per outcome class",
    "outcome",
);

/// Latest DP-phase throughput per solver, from
/// [`SolveStats::dp_phase_cells_per_sec`].
///
/// [`SolveStats::dp_phase_cells_per_sec`]: pcmax_core::SolveStats::dp_phase_cells_per_sec
static DP_CELLS_PER_SEC: Family<Gauge> = family(
    "pcmax_dp_cells_per_sec",
    "Latest DP-phase cells/sec per registry solver",
    "solver",
);

/// Outcome-class label for a solve result, shared by the session engine's
/// metering and the scoreboard.
pub fn outcome_label(result: &Result<SolveReport>) -> &'static str {
    match result {
        Ok(_) => "ok",
        Err(Error::BudgetExhausted { .. }) => "budget-exhausted",
        Err(Error::Cancelled) => "cancelled",
        Err(Error::InvalidWitness { .. }) => "invalid-witness",
        Err(_) => "error",
    }
}

/// The session engine's metering tail: aggregates one finished solve
/// (started at `start`) into the process-wide registry under `name` —
/// latency histogram, outcome counter, and, when the solve reports a DP
/// phase, the cells/sec gauge.
pub(crate) fn record_metered(name: &str, start: std::time::Instant, result: &Result<SolveReport>) {
    SOLVE_LATENCY_NANOS
        .with_label(name)
        .observe(start.elapsed().as_nanos() as u64);
    SOLVE_OUTCOMES.with_label(outcome_label(result)).inc();
    if let Ok(report) = result {
        if let Some(rate) = report.stats.dp_phase_cells_per_sec() {
            DP_CELLS_PER_SEC.with_label(name).set(rate);
        }
    }
}

/// The solvers the experiment harness compares against the optimum: every
/// polynomial approximation algorithm that scales to the paper's shapes
/// (heuristics and the PTAS family; the fixed-`m` FPTAS and the exact
/// solvers are excluded — the latter provide the denominator).
pub fn comparators() -> impl Iterator<Item = &'static SolverSpec> {
    comparators_for(ScenarioKind::Identical)
}

/// The comparison set for an arbitrary scenario: the polynomial
/// approximation solvers (heuristics and dual approximations) registered
/// for that scheduling model.
pub fn comparators_for(scenario: ScenarioKind) -> impl Iterator<Item = &'static SolverSpec> {
    REGISTRY.iter().filter(move |s| {
        s.scenario == scenario && matches!(s.kind, SolverKind::Heuristic | SolverKind::DualApprox)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmax_core::{Instance, Scheduler, SolveRequest};

    #[test]
    fn every_primary_name_resolves_and_builds() {
        let inst = Instance::new(vec![9, 7, 6, 5, 4, 3, 2, 1], 3).unwrap();
        for spec in registry() {
            let solver = spec.build(&SolverParams::default()).unwrap();
            let report = solver.solve(&SolveRequest::new(&inst)).unwrap();
            report.schedule.validate(&inst).unwrap();
            assert_eq!(
                report.makespan,
                report.schedule.makespan(&inst),
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn aliases_resolve_to_the_same_spec() {
        assert_eq!(lookup("pptas").unwrap().name, "par-ptas");
        assert_eq!(lookup("spec").unwrap().name, "spec-ptas");
        assert_eq!(lookup("ip").unwrap().name, "exact");
        assert_eq!(lookup("ip-milp").unwrap().name, "milp");
        assert_eq!(lookup("PTAS").unwrap().name, "ptas", "case-insensitive");
    }

    #[test]
    fn unknown_name_is_a_dedicated_error() {
        match build("no-such-algo", &SolverParams::default()) {
            Err(Error::UnknownSolver { name }) => assert_eq!(name, "no-such-algo"),
            Err(other) => panic!("expected UnknownSolver, got {other:?}"),
            Ok(_) => panic!("expected UnknownSolver, got a solver"),
        }
    }

    #[test]
    fn names_are_unique_across_primaries_and_aliases() {
        let mut all: Vec<&str> = Vec::new();
        for spec in registry() {
            all.push(spec.name);
            all.extend(spec.aliases);
        }
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(all.len(), dedup.len(), "duplicate registry name");
    }

    #[test]
    fn boxed_solvers_still_speak_the_legacy_scheduler_api() {
        let inst = Instance::new(vec![5, 4, 3, 2, 1], 2).unwrap();
        let solver = build("lpt", &SolverParams::default()).unwrap();
        let schedule = solver.schedule(&inst).unwrap();
        schedule.validate(&inst).unwrap();
        assert_eq!(Scheduler::name(&solver), "LPT");
    }

    #[test]
    fn epsilon_flows_through_to_the_ptas() {
        let inst = Instance::new(vec![19, 17, 16, 12, 11, 10, 9, 7, 5, 3], 4).unwrap();
        let loose = build("ptas", &SolverParams::with_epsilon(0.5)).unwrap();
        let tight = build("ptas", &SolverParams::with_epsilon(0.1)).unwrap();
        let l = loose.solve(&SolveRequest::new(&inst)).unwrap();
        let t = tight.solve(&SolveRequest::new(&inst)).unwrap();
        assert!(t.makespan <= l.makespan + 2);
        assert!(build("ptas", &SolverParams::with_epsilon(-1.0)).is_err());
    }

    #[test]
    fn comparators_are_the_polynomial_approximation_solvers() {
        let names: Vec<&str> = comparators().map(|s| s.name).collect();
        assert!(names.contains(&"lpt") && names.contains(&"par-ptas"));
        assert!(!names.contains(&"exact") && !names.contains(&"milp"));
        assert!(
            !names.contains(&"fptas"),
            "fixed-m FPTAS cannot scale to m=20"
        );
        assert!(
            !names.contains(&"ptas-q") && !names.contains(&"ls-online"),
            "the P||Cmax harness stays scenario-pure"
        );
    }

    #[test]
    fn comparators_partition_by_scenario() {
        let q: Vec<&str> = comparators_for(ScenarioKind::Uniform)
            .map(|s| s.name)
            .collect();
        assert_eq!(q, ["ptas-q", "lpt-q"]);
        let online: Vec<&str> = comparators_for(ScenarioKind::Online)
            .map(|s| s.name)
            .collect();
        assert_eq!(online, ["ls-online"]);
    }

    #[test]
    fn scenario_rows_solve_uniform_instances() {
        let inst = Instance::with_speeds(vec![9, 7, 6, 5, 4, 3, 2, 1], vec![3, 2, 1]).unwrap();
        for name in ["ptas-q", "lpt-q", "ls-online"] {
            let solver = build(name, &SolverParams::default()).unwrap();
            let report = solver.solve(&SolveRequest::new(&inst)).unwrap();
            report.schedule.validate(&inst).unwrap();
            assert_eq!(report.makespan, report.schedule.makespan(&inst), "{name}");
        }
    }

    #[test]
    fn ptas_q_threads_param_selects_the_parallel_engine() {
        let inst = Instance::with_speeds(vec![30, 11, 11, 7, 6, 2], vec![4, 2]).unwrap();
        let mut params = SolverParams::with_epsilon(0.2);
        params.threads = Some(3);
        let parallel = build("ptas-q", &params).unwrap();
        let serial = build("ptas-q", &SolverParams::with_epsilon(0.2)).unwrap();
        let p = parallel.solve(&SolveRequest::new(&inst)).unwrap();
        let s = serial.solve(&SolveRequest::new(&inst)).unwrap();
        assert_eq!(p.makespan, s.makespan);
        assert_eq!(p.certified_target, s.certified_target);
    }

    #[test]
    fn scenario_labels_are_stable() {
        assert_eq!(lookup("ptas").unwrap().scenario.label(), "P||Cmax");
        assert_eq!(lookup("qptas").unwrap().scenario.label(), "Q||Cmax");
        assert_eq!(lookup("online").unwrap().scenario.label(), "online");
    }

    #[test]
    fn guarantee_bounds_are_ordered() {
        let opt = 100;
        assert_eq!(Guarantee::Optimal.makespan_bound(opt, 0.3), 100.0);
        assert!(Guarantee::Ratio(2.0).makespan_bound(opt, 0.3) >= 199.0);
        let eps = Guarantee::Epsilon.makespan_bound(opt, 0.3);
        assert!(eps > 100.0 && eps < 200.0);
    }
}
