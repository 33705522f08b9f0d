//! The Hochbaum–Shmoys PTAS for `P||Cmax` (Algorithm 1 of Ghalami & Grosu
//! 2017), structured so that the dynamic program at its core is pluggable:
//!
//! * [`params`] — the `ε → k = ⌈1/ε⌉` parameterization,
//! * [`rounding`] — partition into long/short jobs and rounding of long jobs
//!   to multiples of `⌈T/k²⌉` (Lines 9–24 of Algorithm 1),
//! * [`config`] — machine-configuration enumeration (Equation 3),
//! * [`table`] — the mixed-radix dense DP table over job-count vectors,
//! * [`dp`] — the rounded subproblem ([`DpProblem`]), the memoized
//!   Algorithm 2 ([`MemoizedDp`]) and the shared solve epilogue,
//! * [`trace`] — per-subproblem cost capture for the simulated executor,
//! * [`driver`] — the bisection search, schedule reconstruction and the
//!   public [`Ptas`] scheduler.
//!
//! Around that core sit the chassis seams (DESIGN.md §5) that make the DP
//! engine reusable across scheduling models:
//!
//! * [`rounding`] also hosts the [`Rounding`] trait (instance → size
//!   classes + reconstruction map),
//! * [`space`] — the [`StateSpace`] trait (transition set + per-step
//!   feasibility filter) with the [`PcmaxSpace`]/[`QSpace`] instantiations,
//!   and [`SpaceEngine`], the one DP-engine trait, with the serial
//!   reference engine [`SerialEngine`],
//! * [`chassis`] — the [`Scenario`] trait and the model-agnostic
//!   `chassis::drive` bisection loop,
//! * [`uniform`] — the `Q||Cmax` instantiation ([`QPtas`], [`QRounding`]).
//!
//! The parallel DP of the paper (Algorithm 3) lives in the `pcmax-parallel`
//! crate and plugs into [`Ptas`] and [`QPtas`] alike through [`SpaceEngine`].
//!
//! # Quick start
//!
//! ```
//! use pcmax_core::Scheduler;
//! use pcmax_ptas::Ptas;
//!
//! let inst = pcmax_core::Instance::new(vec![6, 6, 11, 11, 11, 2, 3], 3).unwrap();
//! let schedule = Ptas::new(0.3).unwrap().schedule(&inst).unwrap();
//! // The optimum is 17; epsilon = 0.3 certifies at most (1 + 1/4)·17 ≈ 21.
//! assert!(schedule.makespan(&inst) <= 21);
//! ```

pub mod chassis;
pub mod config;
pub mod dp;
pub mod driver;
pub mod params;
pub mod rounding;
pub mod space;
pub mod table;
pub mod trace;
pub mod uniform;

pub use chassis::Scenario;
pub use config::{enumerate_configs, Config};
pub use dp::{solve_regenerating_configs, DpOutcome, DpProblem, MemoizedDp};
pub use driver::{rounded_problem, BisectionLog, Ptas, PtasOutput};
pub use params::EpsilonParams;
pub use rounding::{JobPartition, PcmaxRounding, RoundedLongJobs, Rounding};
pub use space::{PcmaxSpace, QSpace, SerialEngine, SpaceEngine, StateSpace};
pub use table::{decode_into, DpScratch, DpTable};
pub use trace::{dp_trace, DpTrace};
pub use uniform::{QPtas, QRounding};
