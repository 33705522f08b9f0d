//! The state-space seam of the chassis: what a DP sweep needs to know about
//! a scenario, and the engines that drive a sweep.
//!
//! The wavefront DP is one instance of a general shape — walk a mixed-radix
//! table level by level, min-reduce over a transition set, add one. A
//! [`StateSpace`] packages the scenario-specific parts of that kernel: the
//! transition set (machine configurations with their flat table offsets) and
//! an optional per-step feasibility filter. A [`SpaceEngine`] is anything
//! that can fill a [`DpTable`] for any [`StateSpace`], and it is the only
//! DP-engine trait: its provided [`solve_in`](SpaceEngine::solve_in) runs a
//! whole `P||Cmax` subproblem, so `Ptas`, `QPtas` and the speculative
//! driver all share the same engines. The serial reference sweep lives
//! here, the memoized Algorithm 2 in [`crate::dp`], and
//! `pcmax_parallel::ParallelDp` implements the trait with the paper's
//! wavefront executors.
//!
//! * `P||Cmax` is [`PcmaxSpace`]: no filter, every transition is allowed —
//!   the kernels monomorphize back to exactly the pre-chassis code.
//! * `Q||Cmax` is [`QSpace`]: machines are sorted fastest-first, `caps[j]`
//!   is the work capacity of the `j`-th fastest machine at the probed
//!   target, and a transition out of a state with value `q` is allowed only
//!   if its load fits `caps[q]` — so `OPT(v)` becomes "the minimum prefix of
//!   fastest machines that can run `v`".

use crate::config::Config;
use crate::dp::{finish, fits, increment, DpOutcome, DpProblem, UNVISITED};
use crate::table::{DpScratch, DpTable, INFEASIBLE};
use pcmax_core::{Error, Result, Time};

/// A scenario's view of the DP state space: the transition set plus an
/// optional per-step filter evaluated against the predecessor's value.
///
/// The min-reduce kernel for every engine is:
///
/// ```text
/// OPT(v) = 1 + min { OPT(v−c) : c ∈ transitions, c ≤ v,
///                    step_allowed(c, OPT(v−c)) }
/// ```
///
/// `step_allowed` defaulting to `true` makes the `P||Cmax` instantiation
/// compile to the pre-chassis kernel bit for bit.
pub trait StateSpace: Sync {
    /// Transition set: each configuration with its flat table offset
    /// (strictly ascending, as produced by
    /// [`crate::dp::DpProblem::configs_with_offsets`]). The witness walk
    /// picks the *first* admissible transition, so the order is part of the
    /// contract.
    fn transitions(&self) -> &[(Config, usize)];

    /// Whether transition `t_idx` may be taken out of a predecessor state
    /// whose value is `below`. Called only after the componentwise
    /// `c ≤ v` check passes; `below` may be [`INFEASIBLE`] or
    /// [`UNVISITED`], which implementations must tolerate (returning either
    /// way is fine — the min-reduce ignores the sentinel values anyway, and
    /// the default accepts everything).
    #[inline]
    fn step_allowed(&self, _t_idx: usize, _below: u16) -> bool {
        true
    }

    /// The batched form of [`step_allowed`](Self::step_allowed) used by the
    /// strip kernel: given a whole strip of predecessor values for one
    /// transition, replace every lane the filter rejects with
    /// [`INFEASIBLE`], so the subsequent lane-parallel min ignores it. The
    /// saturating `min`/`+1` keep the sentinel absorbing, so a rejected
    /// lane can never resurface as a finite value.
    ///
    /// The provided default applies the scalar filter lane by lane — for
    /// [`PcmaxSpace`] it compiles to nothing. Implementations overriding
    /// `step_allowed` should override this too with a branch-free,
    /// lane-parallel form (see [`QSpace`]) but must stay *bit-identical* to
    /// the default: the equivalence proptests compare them lane for lane.
    #[inline]
    fn value_of_batch(&self, t_idx: usize, below: &mut [u16]) {
        for lane in below.iter_mut() {
            if !self.step_allowed(t_idx, *lane) {
                *lane = INFEASIBLE;
            }
        }
    }
}

/// The identical-machine (`P||Cmax`) state space: a bare transition set.
#[derive(Debug, Clone, Copy)]
pub struct PcmaxSpace<'a> {
    transitions: &'a [(Config, usize)],
}

impl<'a> PcmaxSpace<'a> {
    /// Wraps a transition set produced by
    /// [`crate::dp::DpProblem::configs_with_offsets`].
    pub fn new(transitions: &'a [(Config, usize)]) -> Self {
        Self { transitions }
    }
}

impl StateSpace for PcmaxSpace<'_> {
    #[inline]
    fn transitions(&self) -> &[(Config, usize)] {
        self.transitions
    }
}

/// The uniform-machine (`Q||Cmax`) state space.
///
/// Machines are sorted by non-increasing speed; `caps[j] = s_j · T` is the
/// work the `j`-th fastest machine completes by the target. Peeling argument:
/// `OPT(v) = q` means `v` runs on the `q` fastest machines, and the machine
/// with the smallest cap in that prefix (index `q−1`) holds a configuration
/// whose load fits `caps[q−1]` while the rest needs only the `q−1` fastest —
/// hence the filter `load(c) ≤ caps[OPT(v−c)]` (caps are non-increasing, so
/// any predecessor value `≤ q−1` only loosens the check).
#[derive(Debug, Clone)]
pub struct QSpace<'a> {
    transitions: &'a [(Config, usize)],
    /// `loads[t]` = work of transition `t` (Σ count·class-size).
    loads: Vec<Time>,
    /// Per-sorted-machine capacities, non-increasing.
    caps: &'a [Time],
    /// `allowed_prefix[t]` = number of machines whose cap fits transition
    /// `t`'s load. Because `caps` is non-increasing, `step_allowed(t, q)`
    /// is exactly `q < allowed_prefix[t]` — a single lane-parallel compare,
    /// which is what [`StateSpace::value_of_batch`] vectorizes over.
    allowed_prefix: Vec<u32>,
}

impl<'a> QSpace<'a> {
    /// Builds the space from a transition set over *active* classes, the
    /// table's active-class sizes, and the sorted (non-increasing) machine
    /// capacities.
    pub fn new(transitions: &'a [(Config, usize)], sizes: &[Time], caps: &'a [Time]) -> Self {
        debug_assert!(
            caps.windows(2).all(|w| w[0] >= w[1]),
            "caps must be sorted fastest-first (non-increasing)"
        );
        let loads: Vec<Time> = transitions
            .iter()
            .map(|(c, _)| {
                c.iter()
                    .zip(sizes)
                    .map(|(&s, &size)| s as Time * size)
                    .sum()
            })
            .collect();
        // Non-increasing caps make the allowed machine set a prefix; its
        // length is all the batch filter needs. u32 keeps the lane compare
        // wide enough for any machine count a u16 DP value can reach.
        let allowed_prefix = loads
            .iter()
            .map(|&load| {
                let n = caps.iter().take_while(|&&cap| load <= cap).count();
                u32::try_from(n).unwrap_or(u32::MAX)
            })
            .collect();
        Self {
            transitions,
            loads,
            caps,
            allowed_prefix,
        }
    }
}

impl StateSpace for QSpace<'_> {
    #[inline]
    fn transitions(&self) -> &[(Config, usize)] {
        self.transitions
    }

    #[inline]
    fn step_allowed(&self, t_idx: usize, below: u16) -> bool {
        // Sentinel values (INFEASIBLE/UNVISITED) exceed any machine count and
        // fall out on the bounds check.
        (below as usize) < self.caps.len() && self.loads[t_idx] <= self.caps[below as usize]
    }

    #[inline]
    fn value_of_batch(&self, t_idx: usize, below: &mut [u16]) {
        // Branch-free prefix test: q is allowed iff q < allowed_prefix[t].
        // Sentinels (INFEASIBLE/UNVISITED) exceed every prefix and map to
        // INFEASIBLE, exactly like the scalar default.
        let prefix = self.allowed_prefix[t_idx];
        for lane in below.iter_mut() {
            if (*lane as u32) >= prefix {
                *lane = INFEASIBLE;
            }
        }
    }
}

/// An engine that can fill a [`DpTable`] for any [`StateSpace`]: seeds
/// `OPT(0) = 0` and computes every other entry with the min-reduce kernel.
/// Engines may require a specific storage order via
/// [`level_major`](SpaceEngine::level_major).
///
/// Not object-safe (the sweep is generic over the space): callers that
/// iterate over engines use closures or function pointers.
pub trait SpaceEngine {
    /// Stable name for harness output.
    fn engine_name(&self) -> &'static str;

    /// Whether tables for this engine should be built in level-major order
    /// (`DpProblem::build_level_major_table_in`).
    fn level_major(&self) -> bool {
        false
    }

    /// Fills `table` (fresh from a builder, all entries unwritten except
    /// whatever the builder put there) for `space`, accounting counters to
    /// `scratch`.
    fn sweep<S: StateSpace>(&self, table: &mut DpTable, space: &S, scratch: &mut DpScratch);

    /// Builds `problem`'s empty table in this engine's storage order, with
    /// storage from (and accounted to) `scratch`.
    fn table_for(&self, problem: &DpProblem, scratch: &mut DpScratch) -> Result<DpTable> {
        if self.level_major() {
            problem.build_level_major_table_in(scratch)
        } else {
            problem.build_table_in(scratch)
        }
    }

    /// Computes `OPT(N)` and, if feasible, a witness schedule for a
    /// `P||Cmax` subproblem, drawing the table's storage from the reusable
    /// `scratch` arena — the form the bisection driver calls so repeated
    /// probes share one allocation.
    fn solve_in(&self, problem: &DpProblem, scratch: &mut DpScratch) -> Result<DpOutcome> {
        let mut table = self.table_for(problem, scratch)?;
        let configs = problem.configs_with_offsets(&table);
        self.sweep(&mut table, &PcmaxSpace::new(&configs), scratch);
        finish(problem, table, &configs, scratch)
    }

    /// [`solve_in`](Self::solve_in) with a private one-shot arena.
    fn solve(&self, problem: &DpProblem) -> Result<DpOutcome> {
        self.solve_in(problem, &mut DpScratch::new())
    }
}

/// The sequential reference engine: a single ascending row-major pass (every
/// dependency of an entry has a smaller flat index, since `v − s` has a
/// strictly smaller row-major index than `v` for `s ≠ 0`).
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialEngine;

impl SpaceEngine for SerialEngine {
    fn engine_name(&self) -> &'static str {
        "dp-serial"
    }

    fn sweep<S: StateSpace>(&self, table: &mut DpTable, space: &S, _scratch: &mut DpScratch) {
        serial_sweep(table, space);
    }
}

/// The generic serial sweep (row-major ascending order). With
/// [`PcmaxSpace`] the filter compiles away and this is the plain bottom-up
/// dense loop.
pub fn serial_sweep<S: StateSpace>(table: &mut DpTable, space: &S) {
    table.values[0] = 0;
    let transitions = space.transitions();
    // Incremental mixed-radix counter tracking the current vector.
    let mut v = vec![0u32; table.dims.len()];
    for idx in 1..table.len {
        increment(&mut v, &table.dims);
        let mut best = INFEASIBLE;
        for (t_idx, (c, offset)) in transitions.iter().enumerate() {
            if fits(c, &v) {
                let below = table.values[idx - offset];
                if space.step_allowed(t_idx, below) {
                    best = best.min(below);
                }
            }
        }
        table.values[idx] = best.saturating_add(1);
    }
}

/// Witness extraction generalized over the space: walk the optimal path back
/// from `N`, at each step taking the *first* transition that decreases the
/// value by one and passes the space's step filter. With [`PcmaxSpace`] any
/// such step is a machine configuration; with [`QSpace`] the transition
/// extracted at value `q` is the configuration of the `q−1`-th fastest
/// machine (its load fits `caps[q−1]` by the filter).
pub fn extract_schedule_with<S: StateSpace>(
    table: &DpTable,
    space: &S,
    classes: usize,
) -> Result<Vec<Config>> {
    let mut out = Vec::new();
    let mut idx = table.last_index();
    let mut v = table.decode(idx);
    while idx != 0 {
        let current = table.value_at(idx);
        if current >= UNVISITED {
            return Err(Error::InvalidWitness {
                reason: format!("walked into an unevaluated entry at index {idx}"),
            });
        }
        let step = space
            .transitions()
            .iter()
            .enumerate()
            .find(|(t_idx, (c, offset))| {
                fits(c, &v)
                    && table.value_at(idx - offset) == current - 1
                    && space.step_allowed(*t_idx, current - 1)
            });
        let (_, (c, offset)) = step.ok_or_else(|| Error::InvalidWitness {
            reason: format!("no configuration decreases OPT below index {idx}"),
        })?;
        out.push(table.expand(c, classes));
        idx -= offset;
        for (va, ca) in v.iter_mut().zip(c) {
            *va -= ca;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_problem() -> DpProblem {
        let mut counts = vec![0u32; 16];
        counts[2] = 2; // class 3, rounded size 6
        counts[4] = 3; // class 5, rounded size 10
        DpProblem::new(counts, 2, 30, 4)
    }

    #[test]
    fn serial_sweep_on_pcmax_space_matches_iterative_dp() {
        let problem = paper_problem();
        let mut table = problem.build_table().unwrap();
        let configs = problem.configs_with_offsets(&table);
        serial_sweep(&mut table, &PcmaxSpace::new(&configs));
        assert_eq!(
            table.values_row_major(),
            vec![0, 1, 1, 1, 1, 1, 1, 2, 1, 1, 2, 2],
            "Table I of the paper"
        );
        let seq = SerialEngine.solve(&problem).unwrap();
        assert_eq!(seq.machines, 2);
    }

    #[test]
    fn q_space_caps_bind_the_value() {
        // Two jobs of (active) size 10 with machine caps (20, 10): both fit
        // on the fast machine, or split across both. Identical caps (10, 10)
        // forbid pairing them (2·10 > 10), forcing two machines.
        let problem = DpProblem::new(vec![2], 10, 20, 4);
        let mut table = problem.build_table().unwrap();
        let configs = problem.configs_with_offsets(&table);
        let caps_fast = [20u64, 10];
        let space = QSpace::new(&configs, &table.sizes, &caps_fast);
        serial_sweep(&mut table, &space);
        assert_eq!(
            table.value_at(table.last_index()),
            1,
            "both on the fast machine"
        );

        let mut table2 = problem.build_table().unwrap();
        let caps_slow = [10u64, 10];
        let space2 = QSpace::new(&configs, &table2.sizes, &caps_slow);
        serial_sweep(&mut table2, &space2);
        assert_eq!(
            table2.value_at(table2.last_index()),
            2,
            "one job per machine"
        );
    }

    #[test]
    fn q_space_runs_out_of_machines() {
        // Three unit-size jobs, every cap fits exactly one: with only two
        // machines the full vector is unreachable.
        let problem = DpProblem::new(vec![3], 1, 1, 2);
        let mut table = problem.build_table().unwrap();
        let configs = problem.configs_with_offsets(&table);
        let caps = [1u64, 1];
        let space = QSpace::new(&configs, &table.sizes, &caps);
        serial_sweep(&mut table, &space);
        // Both sentinels mark unreachability; UNVISITED is the smaller one.
        assert!(table.value_at(table.last_index()) >= UNVISITED);
    }

    #[test]
    fn q_witness_orders_configs_slowest_prefix_first() {
        // Sizes 10 and 4 (unit 2, classes 5 and 2) with caps (12, 4): the
        // pair (load 14) overflows the fast machine and the slow machine can
        // only take the small job. Extraction at value 2 must peel the small
        // job for cap index 1 even though the size-10 config walks first.
        let mut counts = vec![0u32; 5];
        counts[4] = 1; // size 10
        counts[1] = 1; // size 4
        let problem = DpProblem::new(counts, 2, 12, 2);
        let mut table = problem.build_table().unwrap();
        let configs = problem.configs_with_offsets(&table);
        let caps = [12u64, 4];
        let space = QSpace::new(&configs, &table.sizes, &caps);
        serial_sweep(&mut table, &space);
        assert_eq!(table.value_at(table.last_index()), 2);
        let witness = extract_schedule_with(&table, &space, 5).unwrap();
        assert_eq!(witness.len(), 2);
        // witness[0] is peeled at value 2 -> sorted machine 1 (cap 4): must
        // be the size-4 job; witness[1] lands on the fast machine.
        assert_eq!(witness[0], vec![0, 1, 0, 0, 0]);
        assert_eq!(witness[1], vec![0, 0, 0, 0, 1]);
    }
}
