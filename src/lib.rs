//! # pcmax — parallel approximation algorithms for `P||Cmax`
//!
//! A Rust reproduction of *Ghalami & Grosu, "A Parallel Approximation
//! Algorithm for Scheduling Parallel Identical Machines"* (IPPS/IPDPS
//! Workshops 2017): the Hochbaum–Shmoys PTAS for minimum-makespan scheduling
//! on identical machines, its wavefront-parallel dynamic program for
//! shared-memory multicores, the classical baselines (LS, LPT, MULTIFIT),
//! an exact branch-and-bound solver and a from-scratch MILP stack standing
//! in for CPLEX, and a simulated multicore executor that reproduces the
//! paper's speedup figures on any host.
//!
//! This crate is the umbrella: it re-exports the public API of every
//! workspace crate. Depend on the individual crates if you only need one
//! piece.
//!
//! ## Quick start
//!
//! ```
//! use pcmax::prelude::*;
//!
//! // 12 jobs, 3 identical machines.
//! let inst = Instance::new(vec![27, 19, 19, 14, 13, 12, 11, 9, 7, 5, 3, 2], 3).unwrap();
//!
//! // The parallel PTAS with epsilon = 0.3 (the paper's configuration).
//! let schedule = ParallelPtas::new(0.3).unwrap().schedule(&inst).unwrap();
//! schedule.validate(&inst).unwrap();
//!
//! // Certified within (1 + eps) of optimal.
//! let exact = BranchAndBound::default().solve_detailed(&inst).unwrap();
//! assert!(exact.proven);
//! assert!((schedule.makespan(&inst) as f64) <= 1.3 * exact.best as f64);
//! ```
//!
//! ## The solver engine
//!
//! Every solver is also reachable through the engine registry by a stable
//! name (`"ls"`, `"lpt"`, `"multifit"`, `"ptas"`, `"par-ptas"`,
//! `"spec-ptas"`, `"fptas"`, `"exact"`, `"milp"`), with budgets,
//! cancellation and structured statistics:
//!
//! ```
//! use pcmax::prelude::*;
//!
//! let inst = Instance::new(vec![9, 8, 7, 7, 6, 5, 5, 4, 3], 3).unwrap();
//! let solver = pcmax::engine::build("par-ptas", &SolverParams::default()).unwrap();
//! let report = solver.solve(&SolveRequest::new(&inst).with_budget(Budget::unlimited())).unwrap();
//! report.schedule.validate(&inst).unwrap();
//! assert!(report.stats.bisection_probes >= 1);
//! ```

pub use pcmax_baselines as baselines;
pub use pcmax_core as core;
pub use pcmax_engine as engine;
pub use pcmax_exact as exact;
pub use pcmax_fptas as fptas;
pub use pcmax_milp as milp;
pub use pcmax_parallel as parallel;
pub use pcmax_pram as pram;
pub use pcmax_ptas as ptas;
pub use pcmax_simcore as simcore;
pub use pcmax_workloads as workloads;

/// The commonly used types and algorithms in one import.
pub mod prelude {
    pub use pcmax_baselines::{Lpt, Ls, Multifit};
    pub use pcmax_core::{
        lower_bound, upper_bound, ApproxRatio, Budget, CancelToken, Instance, MakespanBounds,
        Schedule, Scheduler, SolveReport, SolveRequest, SolveStats, Solver,
    };
    pub use pcmax_engine::{
        comparators, registry, Guarantee, SolverKind, SolverParams, SolverSpec,
    };
    pub use pcmax_exact::BranchAndBound;
    pub use pcmax_fptas::FixedMachinesFptas;
    pub use pcmax_milp::AssignmentIp;
    pub use pcmax_parallel::{ParallelDp, ParallelPtas, SpeculativePtas};
    pub use pcmax_pram::{brent_time, wavefront_dp, Pram};
    pub use pcmax_ptas::{EpsilonParams, Ptas};
    pub use pcmax_simcore::{simulate_ptas, speedup_curve, SimParams};
    pub use pcmax_workloads::{generate, Distribution, Family};
}
