//! The parallel approximation algorithm of Ghalami & Grosu (2017):
//! Algorithm 3's wavefront-parallel dynamic program, plus the parallel PTAS
//! that plugs it into the bisection driver of `pcmax-ptas`.
//!
//! The DP table's subproblems on the same *anti-diagonal* (entries whose
//! job-count vectors have equal digit sums) are mutually independent and
//! depend only on strictly lower anti-diagonals, so each anti-diagonal is a
//! parallel level and levels are processed in order with a barrier between
//! them. [`ParallelDp`] is a `pcmax_ptas::SpaceEngine` with two
//! [`LevelStrategy`]s:
//!
//! * [`LevelStrategy::Bucketed`] — the production executor
//!   ([`wavefront`]): a level-major table whose levels are
//!   contiguous slices, written **in place** by a [`persistent`] worker
//!   pool that is spawned once per sweep and parked between levels, with
//!   the lane-parallel strip kernel ([`simd`]). Under the default
//!   [`Chunking::Adaptive`] the leader releases a level to the pool only
//!   when its measured cost model says sharing beats the handoff; smaller
//!   levels run inline on the calling thread, and a table with no such
//!   level spawns no pool thread at all.
//! * [`LevelStrategy::Faithful`] — the paper-literal variant: every level
//!   scans *all* σ entries and filters `d_i = l`, exactly like Lines 11–12
//!   of Algorithm 3, on scoped threads ([`pool`]); an ablation bench
//!   quantifies the cost of that extra scan.
//!
//! Both produce bit-identical tables to the serial engine; the tests assert
//! it.
//!
//! Shared-memory accesses (fork/join handoffs, the table scatter/gather)
//! flow through the [`sync`] seam: zero-cost passthroughs normally, and —
//! under `feature = "audit"` — an event log plus a seeded interleaving
//! scheduler that `pcmax-audit` uses to prove the wavefront race-free.

pub mod metrics;
pub mod persistent;
pub mod pool;
pub mod simd;
pub mod speculative;
pub mod sync;
pub mod wavefront;

pub use pool::effective_threads;
pub use speculative::SpeculativePtas;
pub use wavefront::{CellKernel, Chunking, LevelStrategy, ParallelDp};

use pcmax_core::{Result, SolveReport, SolveRequest, Solver};
use pcmax_ptas::Ptas;

/// The parallel PTAS: the sequential bisection driver with the wavefront DP
/// as its inner solver — the composition the paper evaluates.
#[derive(Debug, Clone)]
pub struct ParallelPtas {
    inner: Ptas<ParallelDp>,
}

impl ParallelPtas {
    /// Parallel PTAS with relative error `epsilon`, using all cores.
    pub fn new(epsilon: f64) -> Result<Self> {
        Ok(Self {
            inner: Ptas::with_engine(epsilon, ParallelDp::default())?,
        })
    }

    /// Parallel PTAS pinned to `threads` worker threads (the paper's "number
    /// of cores" axis).
    pub fn with_threads(epsilon: f64, threads: usize) -> Result<Self> {
        Ok(Self {
            inner: Ptas::with_engine(epsilon, ParallelDp::with_threads(threads))?,
        })
    }

    /// Access to the underlying driver (for `solve_detailed`).
    pub fn driver(&self) -> &Ptas<ParallelDp> {
        &self.inner
    }
}

impl Solver for ParallelPtas {
    fn solver_name(&self) -> &'static str {
        "ParallelPTAS"
    }

    fn solve(&self, req: &SolveRequest<'_>) -> Result<SolveReport> {
        match req.threads {
            // A request-level thread count overrides the construction-time
            // pinning: rebuild the driver around a re-pinned wavefront DP.
            Some(threads) => {
                let dp = ParallelDp {
                    threads: Some(threads),
                    ..*self.inner.engine()
                };
                let repinned = Ptas::with_engine(self.inner.params().epsilon, dp)?;
                let (out, stats) = repinned.solve_with(req)?;
                Ok(SolveReport {
                    makespan: out.schedule.makespan(req.instance),
                    schedule: out.schedule,
                    certified_target: Some(out.target),
                    proven_optimal: false,
                    stats,
                })
            }
            None => {
                let report = self.inner.solve(req)?;
                Ok(report)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmax_core::{Instance, Scheduler};
    use pcmax_ptas::Ptas;

    #[test]
    fn parallel_ptas_matches_sequential_ptas_end_to_end() {
        let inst = Instance::new(
            vec![23, 19, 17, 13, 11, 7, 5, 3, 2, 2, 29, 31, 8, 14, 26],
            4,
        )
        .unwrap();
        let seq = Ptas::new(0.3).unwrap().solve_detailed(&inst).unwrap();
        let par = ParallelPtas::new(0.3)
            .unwrap()
            .driver()
            .solve_detailed(&inst)
            .unwrap();
        assert_eq!(seq.target, par.target);
        assert_eq!(seq.schedule.makespan(&inst), par.schedule.makespan(&inst));
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let inst = Instance::new(vec![9, 8, 7, 6, 5, 4, 3, 2, 1, 10, 11, 12, 13, 14], 3).unwrap();
        let reference = ParallelPtas::new(0.3).unwrap().makespan(&inst).unwrap();
        for threads in [1, 2, 4] {
            let ms = ParallelPtas::with_threads(0.3, threads)
                .unwrap()
                .makespan(&inst)
                .unwrap();
            assert_eq!(ms, reference, "threads = {threads}");
        }
    }

    #[test]
    fn request_thread_override_matches_default() {
        let inst = Instance::new(vec![9, 8, 7, 6, 5, 4, 3, 2, 1, 10, 11, 12, 13, 14], 3).unwrap();
        let algo = ParallelPtas::new(0.3).unwrap();
        let default = algo.solve(&SolveRequest::new(&inst)).unwrap();
        for threads in [1, 2] {
            let pinned = algo
                .solve(&SolveRequest::new(&inst).with_threads(threads))
                .unwrap();
            assert_eq!(pinned.makespan, default.makespan, "threads = {threads}");
            assert_eq!(pinned.certified_target, default.certified_target);
        }
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::new(vec![], 2).unwrap();
        assert_eq!(ParallelPtas::new(0.3).unwrap().makespan(&inst).unwrap(), 0);
    }
}
