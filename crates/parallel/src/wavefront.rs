//! The wavefront-parallel DP (Algorithm 3 of the paper): anti-diagonal
//! levels are processed in order with a barrier between them; inside a
//! level, subproblem values are computed in parallel from the (immutable)
//! lower levels.
//!
//! The production [`LevelStrategy::Bucketed`] executor is the zero-allocation
//! hot path of this crate: a [`crate::persistent`] worker pool spawned once
//! per sweep, a level-major table (each level one contiguous slice, see
//! `pcmax_ptas::LevelLayout`) so the scatter is a **parallel in-place
//! write** over disjoint sub-slices, and an incremental in-level decode
//! (`next_in_level`) so no per-cell `Vec` is ever allocated. The
//! paper-literal [`LevelStrategy::Faithful`] scan is the other strategy, on
//! the same pool.

use crate::persistent::{self, Level};
use crate::{simd, sync};
use pcmax_ptas::config::Config;
use pcmax_ptas::dp::fits;
use pcmax_ptas::space::{serial_sweep, PcmaxSpace, SpaceEngine, StateSpace};
use pcmax_ptas::table::{
    decode_into, next_in_level, strip_digits, DpScratch, DpTable, KernelScratch, LevelLayout,
    INFEASIBLE, STRIP_LANES,
};
use std::cell::UnsafeCell;
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicU64, Ordering};

/// How the bucketed sweep computes the cells of one worker chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CellKernel {
    /// The batched lane-parallel kernel: cells are advanced a strip of
    /// [`STRIP_LANES`] at a time, strips are grouped into L1-sized tiles,
    /// and the min-reduction runs over packed `u16` lanes (see
    /// [`strip_chunk`] and [`crate::simd`]). Bit-identical to `Scalar`.
    #[default]
    Strip,
    /// One cell at a time — the pre-batching kernel, kept as the bench
    /// baseline and as the semantic reference the strip-equivalence
    /// proptests compare against.
    Scalar,
}

/// How the bucketed sweep splits a level slice across workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Chunking {
    /// Pool only the levels that pay for it, and split those by measured
    /// worker speed.
    ///
    /// * **Serial/parallel crossover** (see [`Crossover`]): the leader
    ///   releases a level to the pool only when its predicted work ×
    ///   (1 − 1/n) exceeds the measured handoff cost; smaller levels run
    ///   inline on the calling thread with the workers parked. When no
    ///   level of a table clears the cut, no pool thread is spawned at all,
    ///   so a small table never runs slower than on one thread.
    /// * **Proportional split** of each pooled level, driven by each
    ///   worker's measured throughput on the previous pooled levels (see
    ///   [`ChunkPlanner`]).
    ///
    /// Pinned to `Static` under `feature = "audit"` so schedule replay and
    /// DPOR enumeration stay deterministic.
    #[default]
    Adaptive,
    /// Every level pooled, with the fixed `len.div_ceil(n)` split of the
    /// pre-autotuner executor.
    Static,
}

/// How each anti-diagonal level finds its subproblems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LevelStrategy {
    /// Persistent pool over a level-major table: per-level buckets are the
    /// contiguous level slices themselves, scattered in place in parallel.
    /// The efficient default.
    #[default]
    Bucketed,
    /// The paper-literal strategy: each level scans all σ entries and keeps
    /// those with digit sum `d_i = l` (Lines 11–12 of Algorithm 3), giving
    /// O(σ·n') total scan work. Kept for the ablation study.
    Faithful,
}

/// Wavefront DP: anti-diagonal levels processed in order; inside a level,
/// subproblem values are computed in parallel from the (immutable) lower
/// levels.
///
/// Produces bit-identical tables to `pcmax_ptas::SerialEngine` (compare via
/// `DpTable::values_row_major`).
#[derive(Debug, Clone, Copy, Default)]
pub struct ParallelDp {
    /// Worker threads; `None` = all available cores.
    pub threads: Option<usize>,
    /// Level iteration strategy.
    pub strategy: LevelStrategy,
    /// Cell kernel for the bucketed strategy (lane-parallel by default).
    pub kernel: CellKernel,
    /// Chunk split policy for the bucketed strategy (adaptive by default).
    pub chunking: Chunking,
}

impl ParallelDp {
    /// Wavefront DP pinned to `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: Some(threads),
            ..Self::default()
        }
    }

    /// Wavefront DP with the paper-literal full-scan levels.
    pub fn faithful() -> Self {
        Self {
            strategy: LevelStrategy::Faithful,
            ..Self::default()
        }
    }
}

impl SpaceEngine for ParallelDp {
    fn engine_name(&self) -> &'static str {
        match self.strategy {
            LevelStrategy::Bucketed => "dp-parallel",
            LevelStrategy::Faithful => "dp-parallel-faithful",
        }
    }

    fn level_major(&self) -> bool {
        matches!(self.strategy, LevelStrategy::Bucketed)
    }

    fn sweep<S: StateSpace>(&self, table: &mut DpTable, space: &S, scratch: &mut DpScratch) {
        // Rank 0 is the sole level-0 entry, stored at position 0 under both
        // layouts, so this seed write is layout-agnostic.
        table.values[0] = 0;
        let threads = crate::effective_threads(self.threads);
        match self.strategy {
            LevelStrategy::Bucketed => bucketed_sweep_space_with(
                table,
                space,
                threads,
                scratch,
                self.kernel,
                self.chunking,
            ),
            LevelStrategy::Faithful => faithful_sweep_space(table, space, threads, scratch),
        }
    }
}

/// A `Sync` view of one DP value cell, used for the in-place parallel
/// scatter. Safety rests on the wavefront protocol, not on this type:
/// within a level every position is written by exactly one worker (the
/// level slice is chunked disjointly), and reads only target positions of
/// strictly lower levels, sealed by the pool's barrier — so no location is
/// ever accessed concurrently with a write.
#[repr(transparent)]
struct SyncCell(UnsafeCell<u16>);

// SAFETY: see the type-level comment — the wavefront protocol guarantees
// all concurrent accesses to a cell are reads of barrier-sealed values.
unsafe impl Sync for SyncCell {}

impl SyncCell {
    /// # Safety
    /// The cell's level must be sealed (its level's barrier passed) so no
    /// write can be concurrent with this read.
    #[inline]
    unsafe fn get(&self) -> u16 {
        unsafe { *self.0.get() }
    }

    /// # Safety
    /// The caller must be the unique writer of this cell within the current
    /// level (disjoint chunking of the level slice).
    #[inline]
    unsafe fn set(&self, value: u16) {
        unsafe { *self.0.get() = value }
    }
}

/// Reinterprets the exclusively borrowed value store as shared cells for
/// the duration of a sweep. The `&mut` borrow guarantees no other safe
/// access to `values` can coexist with the returned view.
fn shared_cells(values: &mut [u16]) -> &[SyncCell] {
    // SAFETY: `SyncCell` is `repr(transparent)` over `UnsafeCell<u16>`,
    // which has the layout of `u16`; length and provenance are preserved.
    unsafe { &*(values as *mut [u16] as *const [SyncCell]) }
}

/// The trace-driven chunk autotuner: replaces the fixed `len.div_ceil(n)`
/// split with a per-level proportional split over each worker's measured
/// throughput, so a worker that keeps finishing early (asymmetric cores,
/// interference, NUMA) is handed a larger share instead of parking at the
/// barrier.
///
/// ## Why two speed buffers
///
/// Worker speeds are published through atomics, and *every* worker computes
/// the *whole* partition locally — the partition is only disjoint if they
/// all read identical speeds. A single buffer would race: a fast worker
/// could publish its level-`l` measurement while a slow peer is still
/// planning level `l` from the same slots. So the speeds are double-buffered
/// by level parity: planning level `l` reads `speeds[l % 2]`, measurements
/// taken *during* level `l` are written to `speeds[(l + 1) % 2]`, and the
/// pool barrier between levels seals each buffer before anyone reads it.
/// Every worker therefore snapshots the same sealed values and derives the
/// same boundaries.
///
/// Only pooled levels are planned or measured: an inline level is the
/// leader's alone (`0..len`), and its timing says nothing about how the
/// workers compare, so recording it would skew the next pooled split.
///
/// Under `feature = "audit"` the tuner is pinned off (static split):
/// timing-driven boundaries would make per-thread op sequences differ
/// between a recorded schedule and its replay, breaking the exploration
/// scheduler and DPOR's determinism requirement.
struct ChunkPlanner {
    /// `speeds[parity * n + w]`: EWMA throughput of worker `w` (cells per
    /// millisecond, clamped ≥ 1), for levels of that parity.
    speeds: Vec<AtomicU64>,
    n: usize,
    adaptive: bool,
}

impl ChunkPlanner {
    /// Neutral pre-measurement weight: all workers start equal, and the
    /// EWMA pulls each lane toward its measured rate within a few levels.
    const INITIAL_SPEED: u64 = 1 << 16;

    fn new(n: usize, chunking: Chunking) -> Self {
        let adaptive = !cfg!(feature = "audit") && chunking == Chunking::Adaptive && n > 1;
        let speeds = (0..2 * n)
            .map(|_| AtomicU64::new(Self::INITIAL_SPEED))
            .collect();
        Self {
            speeds,
            n,
            adaptive,
        }
    }

    /// Worker `w`'s half-open cell range within a level of `len` cells.
    /// Interior boundaries are aligned down to whole strips so only the
    /// level's last strip can be ragged under the strip kernel.
    fn bounds(&self, w: usize, level: Level, len: usize) -> (usize, usize) {
        if !level.pooled {
            return (0, len);
        }
        if !self.adaptive {
            let chunk = len.div_ceil(self.n);
            return ((w * chunk).min(len), ((w + 1) * chunk).min(len));
        }
        let read = (level.index as usize % 2) * self.n;
        let mut total = 0u128;
        for slot in &self.speeds[read..read + self.n] {
            // SeqCst is off the hot path (n loads per worker per level) and
            // sidesteps any ordering subtlety; the disjointness argument
            // rests on the barrier sealing this parity's buffer anyway.
            total += slot.load(Ordering::SeqCst) as u128;
        }
        let mut start = 0usize;
        let mut acc = 0u128;
        for i in 0..self.n {
            acc += self.speeds[read + i].load(Ordering::SeqCst) as u128;
            let prorated = ((acc * len as u128) / total) as usize;
            let end = if i + 1 == self.n {
                len
            } else {
                ((prorated / STRIP_LANES) * STRIP_LANES).clamp(start, len)
            };
            if i == w {
                return (start, end);
            }
            start = end;
        }
        unreachable!("worker {w} out of range for a {}-worker planner", self.n)
    }

    /// Publishes worker `w`'s measured throughput on a pooled level into
    /// the buffer that plans the next level (see the type docs for why this
    /// never races with [`bounds`]). Inline levels are not recorded.
    fn record(&self, w: usize, level: Level, cells: usize, nanos: u64) {
        if !self.adaptive || !level.pooled || cells == 0 {
            return;
        }
        let read = (level.index as usize % 2) * self.n;
        let write = ((level.index as usize + 1) % 2) * self.n;
        let measured = ((cells as u128 * 1_000_000) / nanos.max(1) as u128).max(1);
        let measured = u64::try_from(measured).unwrap_or(u64::MAX);
        let old = self.speeds[read + w].load(Ordering::SeqCst);
        // EWMA (¾ old, ¼ new): adapts within a few levels without letting a
        // single stalled chunk zero out a worker's share.
        let blended = (old / 4)
            .saturating_mul(3)
            .saturating_add(measured / 4)
            .max(1);
        self.speeds[write + w].store(blended, Ordering::SeqCst);
    }
}

/// The serial/parallel crossover of [`Chunking::Adaptive`]: whether one
/// level is worth releasing to the pool.
///
/// It is `pcmax-simcore`'s level cost (DESIGN §2: a level ends when its
/// slowest processor does, plus the barrier) with measured constants. A
/// level of `w` cell·transitions (cells × the space's transitions) costs
/// `w·c` inline on the leader and about `w·c/n + h` pooled on `n`
/// workers, where `c` is the kernel's time per cell·transition and `h` the
/// handoff: release, wake-up, the wait for the slowest peer and the
/// barrier. A level is pooled only when `w·c·(1 − 1/n) > h`.
///
/// Both constants are process-wide EWMAs (`¾·old + ¼·sample`, clamped) of
/// timings the sweep takes anyway: `c` from the leader's chunk timer, `h`
/// from the pool's release → barrier-return time minus the leader's own
/// chunk ([`persistent::Plan::handoff`]). Each sweep decides every level
/// from one snapshot and feeds one sample of each back when it ends. The
/// handoff is sampled only on levels near the cut (saving at most
/// [`Self::NEAR_CUT`] handoffs): on big levels the wait for the slowest
/// peer grows with the level and a steal burst can add milliseconds, which
/// says nothing about the levels the decision is about. The seeds are
/// measurements of the strip kernel on a 2-vCPU x86-64 VM; the clamps keep
/// host noise from ever pooling a tiny level or shutting the pool out of a
/// big one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Crossover {
    /// Kernel time per cell·transition on one thread, in picoseconds.
    ps_per_ct: u64,
    /// Cost of one pooled level beyond the leader's own share, in ns.
    handoff_ns: u64,
}

static PS_PER_CT: AtomicU64 = AtomicU64::new(Crossover::SEED.ps_per_ct);
static HANDOFF_NS: AtomicU64 = AtomicU64::new(Crossover::SEED.handoff_ns);

impl Crossover {
    const SEED: Crossover = Crossover {
        ps_per_ct: 5_000,
        handoff_ns: 150_000,
    };
    const PS_PER_CT_RANGE: RangeInclusive<u64> = 250..=20_000;
    const HANDOFF_NS_RANGE: RangeInclusive<u64> = 5_000..=250_000;
    /// Smallest leader chunk whose timing feeds `ps_per_ct`: below it the
    /// fixed per-chunk costs (head decode, ISA dispatch, timer) dominate,
    /// and they do not shrink when a level is shared.
    const MIN_SAMPLE_CT: u64 = 1 << 14;
    /// Pooled levels whose sharing saves at most this many handoffs feed
    /// the handoff estimate.
    const NEAR_CUT: u128 = 4;

    /// The current process-wide estimates.
    fn current() -> Self {
        // SeqCst: two loads per sweep, off the hot path.
        Self {
            ps_per_ct: PS_PER_CT.load(Ordering::SeqCst),
            handoff_ns: HANDOFF_NS.load(Ordering::SeqCst),
        }
    }

    /// `w·c·(n − 1)` and `h·n` in picoseconds: sharing a level of `work`
    /// cell·transitions over `n` workers saves `w·c·(1 − 1/n)`, and it
    /// pays when that exceeds `h`.
    fn saving_and_handoff(&self, work: u64, n: usize) -> (u128, u128) {
        let n = n as u128;
        let saving = work as u128 * self.ps_per_ct as u128 * n.saturating_sub(1);
        (saving, self.handoff_ns as u128 * 1000 * n)
    }

    /// Whether a level of `work` cell·transitions pays for a pool of `n`.
    fn pools(&self, work: u64, n: usize) -> bool {
        let (saving, handoff) = self.saving_and_handoff(work, n);
        saving > handoff
    }

    /// Whether a level is near enough the cut for its handoff to count.
    fn near_cut(&self, work: u64, n: usize) -> bool {
        let (saving, handoff) = self.saving_and_handoff(work, n);
        saving <= Self::NEAR_CUT * handoff
    }

    /// Blends one sweep's samples, each a (total, count) pair — kernel
    /// nanos over cell·transitions, handoff nanos over levels — into the
    /// process-wide estimates.
    fn learn(kernel: (u64, u64), handoff: (u64, u64)) {
        let (nanos, ct) = kernel;
        if let Some(ps) = (nanos as u128 * 1000).checked_div(ct as u128) {
            let ps = u64::try_from(ps).unwrap_or(u64::MAX);
            blend(&PS_PER_CT, ps, Self::PS_PER_CT_RANGE);
        }
        let (nanos, levels) = handoff;
        if let Some(per_level) = nanos.checked_div(levels) {
            blend(&HANDOFF_NS, per_level, Self::HANDOFF_NS_RANGE);
        }
    }
}

/// `slot ← clamp(¾·slot + ¼·sample)`. Concurrent sweeps may interleave
/// their load/store pairs and drop a sample; an estimate only needs to
/// track the host, not to count every sweep.
fn blend(slot: &AtomicU64, sample: u64, range: RangeInclusive<u64>) {
    let old = slot.load(Ordering::SeqCst);
    let blended =
        (old.saturating_mul(3).saturating_add(sample) / 4).clamp(*range.start(), *range.end());
    slot.store(blended, Ordering::SeqCst);
}

/// One sweep's leader-side [`persistent::Plan`]: every level pooled without
/// a crossover (`Chunking::Static`, or any audit build), else the
/// crossover's per-level decision, with the near-cut handoffs summed for
/// [`Crossover::learn`].
struct SweepPlan<'a> {
    crossover: Option<Crossover>,
    threads: usize,
    layout: &'a LevelLayout,
    transitions: u64,
    /// Σ handoff nanos (each capped at the estimate's ceiling) and count.
    handoffs: (u64, u64),
}

impl SweepPlan<'_> {
    fn work(&self, index: u32) -> u64 {
        self.layout.level_span(index).len() as u64 * self.transitions
    }

    fn decide(&self, index: u32) -> bool {
        self.crossover
            .is_none_or(|c| c.pools(self.work(index), self.threads))
    }
}

impl persistent::Plan for SweepPlan<'_> {
    fn pooled(&mut self, index: u32) -> bool {
        self.decide(index)
    }

    fn handoff(&mut self, index: u32, nanos: u64) {
        if let Some(c) = self.crossover {
            if c.near_cut(self.work(index), self.threads) {
                self.handoffs.0 += nanos.min(*Crossover::HANDOFF_NS_RANGE.end());
                self.handoffs.1 += 1;
            }
        }
    }
}

/// Cells per tile for a `k`-class table: sized so a tile's transposed digit
/// block (`4·k` bytes per cell) fills about half a typical L1d (16 KiB),
/// rounded to whole strips and clamped to `[STRIP_LANES, 1024]` so the
/// per-tile `ranks`/`best` stay resident too. Each transition's predecessor
/// gather then revisits a window that was touched at most one tile ago.
fn tile_cells_for(k: usize) -> usize {
    const L1_BUDGET_BYTES: usize = 16 << 10;
    let cells = L1_BUDGET_BYTES / (4 * k.max(1));
    ((cells / STRIP_LANES) * STRIP_LANES).clamp(STRIP_LANES, 1024)
}

/// The zero-allocation persistent-pool sweep over a level-major table.
///
/// Each level `l` is the contiguous slice `starts[l]..starts[l+1]`; workers
/// split it into disjoint chunks and write results **in place** (no results
/// `Vec`, no sequential copy). The cell kernel decodes only its chunk's
/// first vector, then walks the level with the bounded-composition
/// successor [`next_in_level`] — no per-cell heap allocation; the only
/// buffers are the per-worker [`KernelScratch`] sets accounted by
/// `DpScratch::kernel_allocs`. Reads translate row-major ranks through the
/// layout's permutation and target strictly lower (barrier-sealed) levels.
///
/// Public so the `pcmax-audit` interleaving suite can drive the sweep on a
/// caller-owned table and compare the filled values bit-for-bit against the
/// sequential DP under many explored schedules. Falls back to
/// [`serial_sweep`] when `table` is not level-major (results are identical
/// either way).
pub fn bucketed_sweep(
    table: &mut DpTable,
    configs: &[(Vec<u32>, usize)],
    threads: usize,
    scratch: &mut DpScratch,
) {
    bucketed_sweep_space(table, &PcmaxSpace::new(configs), threads, scratch)
}

/// [`bucketed_sweep`] generalized over the [`StateSpace`] seam: the same
/// zero-allocation persistent-pool executor, with the space's `step_allowed`
/// filter applied between the barrier-sealed read and the min-reduce. On
/// [`PcmaxSpace`] the filter is the always-true default and the sweep
/// monomorphizes back to the identical-machine kernel. Uses the default
/// strip kernel and chunk policy; see [`bucketed_sweep_space_with`].
pub fn bucketed_sweep_space<S: StateSpace>(
    table: &mut DpTable,
    space: &S,
    threads: usize,
    scratch: &mut DpScratch,
) {
    bucketed_sweep_space_with(
        table,
        space,
        threads,
        scratch,
        CellKernel::default(),
        Chunking::default(),
    )
}

/// [`bucketed_sweep_space`] with an explicit cell kernel and chunk policy
/// (the bench harness measures every combination; results are identical).
///
/// On a kernel panic the pool winds down, every worker's [`KernelScratch`]
/// is returned to `scratch` first, and only then is the payload re-raised —
/// a poisoned solve cannot leak scratch into fresh allocations on the next
/// probe (`DpScratch::take_kernel_bufs` asserts it).
pub fn bucketed_sweep_space_with<S: StateSpace>(
    table: &mut DpTable,
    space: &S,
    threads: usize,
    scratch: &mut DpScratch,
    cell_kernel: CellKernel,
    chunking: Chunking,
) {
    let Some(layout) = table.layout.as_ref() else {
        serial_sweep(table, space);
        return;
    };
    let transitions = space.transitions();
    let levels = table.levels();
    // The crossover: a level goes to the pool only if its predicted work
    // beats the handoff. If none does, the sweep spawns no pool at all.
    let crossover =
        (chunking == Chunking::Adaptive && !cfg!(feature = "audit")).then(Crossover::current);
    let mut plan = SweepPlan {
        crossover,
        threads: threads.max(1),
        layout,
        transitions: transitions.len() as u64,
        handoffs: (0, 0),
    };
    let n = if plan.threads > 1 && (1..levels).any(|index| plan.decide(index)) {
        plan.threads
    } else {
        1
    };
    let states = scratch.take_kernel_bufs(n);
    let strides = &table.strides;
    let dims = &table.dims;
    let k = dims.len();
    // The intrinsic fit compare is a signed 32-bit `>`; radices are job
    // counts + 1, bounded by the table size, so this can only fire on an
    // absurd hand-built table — checked once instead of trusted per lane.
    assert!(
        dims.iter().all(|&d| d < 1 << 31),
        "radix overflows the lane compare"
    );
    let tile_cells = tile_cells_for(k);
    let perm = layout.perm();
    let inv = layout.inv();
    let cells = shared_cells(&mut table.values);
    let planner = &ChunkPlanner::new(n, chunking);
    // Per-worker busy counters resolved once per sweep: `with_label` takes
    // a mutex, so the chunk loop below only touches pre-resolved handles.
    let busy: Option<Vec<_>> = pcmax_metrics::enabled().then(|| {
        (0..n)
            .map(|w| crate::metrics::WORKER_BUSY_NANOS.with_label(pcmax_metrics::worker_label(w)))
            .collect::<Vec<_>>()
    });
    let busy = &busy;
    // The leader's timed chunks feeding the crossover's kernel estimate:
    // (nanos, cell·transitions). Written by worker 0 only.
    let sampled = &[AtomicU64::new(0), AtomicU64::new(0)];

    let kernel = |w: usize, level: Level, kb: &mut KernelScratch| {
        let span = layout.level_span(level.index);
        let (clo, chi) = planner.bounds(w, level, span.len());
        let lo = span.start + clo;
        let hi = span.start + chi;
        if lo >= hi {
            return;
        }
        pcmax_trace::chunk_decision(w as u64, (hi - lo) as u64);
        crate::metrics::CHUNK_CELLS.observe((hi - lo) as u64);
        // Chunk span and chunk-size observation only — no trace or metric
        // hooks inside the cell loops below (enforced by the audit lint's
        // trace-hot rule).
        let _chunk_span = pcmax_trace::span("chunk", w as u64);
        let t0 = (crossover.is_some() || busy.is_some()).then(std::time::Instant::now);
        match cell_kernel {
            CellKernel::Strip => {
                kb.prepare(k, tile_cells);
                // One ISA dispatch per chunk: on an AVX2 CPU running a
                // baseline build, the whole tile walk re-enters through the
                // `target_feature` trampoline and the lane loops widen. The
                // closure is forced inline: the widening only happens if the
                // tile walk is codegenned inside the trampoline, and the
                // inliner's own choice flips with unrelated code changes.
                simd::dispatch(
                    #[inline(always)]
                    || {
                        strip_chunk(
                            space,
                            transitions,
                            cells,
                            kb,
                            dims,
                            strides,
                            perm,
                            inv,
                            tile_cells,
                            span.start,
                            lo,
                            hi,
                        )
                    },
                );
            }
            CellKernel::Scalar => scalar_chunk(
                space,
                transitions,
                cells,
                &mut kb.digits,
                dims,
                strides,
                perm,
                inv,
                span.start,
                lo,
                hi,
            ),
        }
        if let Some(t0) = t0 {
            let nanos = t0.elapsed().as_nanos() as u64;
            if let Some(busy) = busy {
                busy[w].inc_by(nanos);
            }
            planner.record(w, level, hi - lo, nanos);
            let ct = (hi - lo) as u64 * transitions.len() as u64;
            if w == 0 && crossover.is_some() && ct >= Crossover::MIN_SAMPLE_CT {
                sampled[0].fetch_add(nanos, Ordering::SeqCst);
                sampled[1].fetch_add(ct, Ordering::SeqCst);
            }
        }
    };

    let sweep_start = std::time::Instant::now();
    let (states, counters, panicked) =
        persistent::run_levels_catching(states, 1..levels, &mut plan, kernel);
    // Busy-fraction denominator: each of the n workers could at most have
    // been busy for the whole sweep extent.
    crate::metrics::POOL_EXTENT_NANOS.inc_by(sweep_start.elapsed().as_nanos() as u64 * n as u64);
    scratch.return_kernel_bufs(states);
    scratch.levels_swept += levels.saturating_sub(1) as u64;
    scratch.cells_computed += (table.len - 1) as u64;
    scratch.pool_parks += counters.parks;
    scratch.pool_wakes += counters.wakes;
    if crossover.is_some() && panicked.is_none() {
        let kernel_sample = (
            sampled[0].load(Ordering::SeqCst),
            sampled[1].load(Ordering::SeqCst),
        );
        Crossover::learn(kernel_sample, plan.handoffs);
    }
    if let Some(payload) = panicked {
        // Scratch is home; the solve may now die exactly like an uncaught
        // kernel panic would have.
        std::panic::resume_unwind(payload);
    }
}

/// The pre-batching per-cell kernel over one chunk: one decode at the chunk
/// head, the incremental [`next_in_level`] walk, and a scalar min-reduce
/// per cell.
#[allow(clippy::too_many_arguments)]
fn scalar_chunk<S: StateSpace>(
    space: &S,
    transitions: &[(Config, usize)],
    cells: &[SyncCell],
    digits: &mut Vec<u32>,
    dims: &[u32],
    strides: &[usize],
    perm: &[u32],
    inv: &[u32],
    span_start: usize,
    lo: usize,
    hi: usize,
) {
    // One decode per chunk; every later cell advances incrementally.
    decode_into(inv[lo] as usize, strides, digits);
    for p in lo..hi {
        let rank = inv[p] as usize;
        debug_assert_eq!(
            digits
                .iter()
                .zip(strides)
                .map(|(&d, &s)| d as usize * s)
                .sum::<usize>(),
            rank,
            "incremental in-level decode diverged from the layout"
        );
        let mut best = INFEASIBLE;
        for (t_idx, (c, offset)) in transitions.iter().enumerate() {
            if fits(c, digits) {
                let src = perm[rank - offset] as usize;
                debug_assert!(
                    *offset > 0 && src < span_start,
                    "wavefront read {src} must lie strictly below the level slice"
                );
                sync::trace_read(src);
                // SAFETY: `src` is below this level's slice, hence on a
                // level sealed by the pool barrier — no concurrent write.
                let below = unsafe { cells[src].get() };
                if space.step_allowed(t_idx, below) {
                    best = best.min(below);
                }
            }
        }
        sync::trace_write(p);
        // SAFETY: `p` lies in this worker's private chunk of the level
        // slice — the unique writer precondition.
        unsafe { cells[p].set(best.saturating_add(1)) };
        if p + 1 < hi {
            let advanced = next_in_level(digits, dims);
            debug_assert!(advanced, "level slice ended before the chunk did");
        }
    }
}

/// Fixed-width view of one strip row of the scratch buffers.
#[inline(always)]
fn strip_row<T>(row: &[T]) -> &[T; STRIP_LANES] {
    // audit:allow(unwrap): a strip row is exactly STRIP_LANES elements by construction.
    row.try_into().expect("strip row")
}

/// Mutable fixed-width view of one strip row of the scratch buffers.
#[inline(always)]
fn strip_row_mut<T>(row: &mut [T]) -> &mut [T; STRIP_LANES] {
    // audit:allow(unwrap): a strip row is exactly STRIP_LANES elements by construction.
    row.try_into().expect("strip row")
}

/// The batched lane-parallel kernel over one chunk.
///
/// Cells are walked in strips of [`STRIP_LANES`] and strips are grouped
/// into L1-sized tiles (see [`tile_cells_for`]). Per tile:
///
/// 1. **record** — advance the mixed-radix walk a strip at a time
///    ([`strip_digits`]), transposing digits class-major into the block so
///    a transition's fit check is one lane-parallel compare per class;
///    stash each cell's row-major rank. Ragged final strips are padded
///    with all-zero digit lanes — no (nonzero) transition fits them, so
///    the mask keeps padding out of every gather.
/// 2. **reduce** — transitions outermost, then strips: accumulate the
///    per-lane misfit mask ([`simd::accum_gt_mask_u32`]), gather the
///    barrier-sealed predecessor values for the surviving lanes, apply the
///    space's batched step filter, and fold with a lane-parallel min.
///    Keeping the transition outermost means its predecessor window (one
///    fixed offset below the tile) is revisited while cache-resident.
/// 3. **write back** — saturating `+1` per lane (INFEASIBLE stays
///    absorbing) and an in-place scatter of the real (unpadded) lanes.
///
/// Bit-identity with [`scalar_chunk`]: a lane contributes `below` exactly
/// when the componentwise fit passes and the step filter allows it —
/// otherwise it contributes `INFEASIBLE`, the identity of `min` — and the
/// fold preserves the transition order, so every cell sees the same
/// min-reduction the scalar kernel computes.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn strip_chunk<S: StateSpace>(
    space: &S,
    transitions: &[(Config, usize)],
    cells: &[SyncCell],
    kb: &mut KernelScratch,
    dims: &[u32],
    strides: &[usize],
    perm: &[u32],
    inv: &[u32],
    tile_cells: usize,
    span_start: usize,
    lo: usize,
    hi: usize,
) {
    const W: usize = STRIP_LANES;
    let k = dims.len();
    let KernelScratch {
        digits,
        block,
        ranks,
        best,
    } = kb;
    decode_into(inv[lo] as usize, strides, digits);
    debug_assert_eq!(digits.len(), k, "decode_into yields one digit per class");
    let mut p = lo;
    while p < hi {
        let tile_end = (p + tile_cells).min(hi);
        let strips = (tile_end - p).div_ceil(W);
        for s in 0..strips {
            let first = p + s * W;
            let width = W.min(tile_end - first);
            let sb = &mut block[s * k * W..(s + 1) * k * W];
            let contiguous = strip_digits(digits, dims, sb, width);
            debug_assert!(contiguous, "level slice ended before the strip did");
            debug_assert_eq!(
                (0..k)
                    .map(|a| sb[a * W] as usize * strides[a])
                    .sum::<usize>(),
                inv[first] as usize,
                "incremental strip walk diverged from the layout"
            );
            for (i, r) in ranks[s * W..s * W + width].iter_mut().enumerate() {
                *r = inv[first + i];
            }
            for a in 0..k {
                for lane in &mut sb[a * W + width..(a + 1) * W] {
                    *lane = 0;
                }
            }
            if first + width < hi {
                let advanced = next_in_level(digits, dims);
                debug_assert!(advanced, "level slice ended before the chunk did");
            }
        }
        for b in &mut best[..strips * W] {
            *b = INFEASIBLE;
        }
        for (t_idx, (c, offset)) in transitions.iter().enumerate() {
            debug_assert!(*offset > 0, "transitions must advance the wavefront");
            for s in 0..strips {
                let sb = &block[s * k * W..(s + 1) * k * W];
                let mut misfit = [0u32; W];
                for (a, &needed) in c.iter().enumerate() {
                    if needed == 0 {
                        continue;
                    }
                    simd::accum_gt_mask_u32(
                        &mut misfit,
                        needed,
                        strip_row(&sb[a * W..(a + 1) * W]),
                    );
                }
                let mut below = [INFEASIBLE; W];
                for (i, b) in below.iter_mut().enumerate() {
                    if misfit[i] == 0 {
                        let src = perm[ranks[s * W + i] as usize - offset] as usize;
                        debug_assert!(
                            src < span_start,
                            "wavefront read {src} must lie strictly below the level slice"
                        );
                        sync::trace_read(src);
                        // SAFETY: `src` is below this level's slice, hence
                        // on a level sealed by the pool barrier — no
                        // concurrent write.
                        *b = unsafe { cells[src].get() };
                    }
                }
                space.value_of_batch(t_idx, &mut below);
                simd::min_assign_u16(strip_row_mut(&mut best[s * W..(s + 1) * W]), &below);
            }
        }
        for s in 0..strips {
            let first = p + s * W;
            let width = W.min(tile_end - first);
            let acc = strip_row_mut(&mut best[s * W..(s + 1) * W]);
            simd::saturating_add1_u16(acc);
            for (i, out) in cells[first..first + width].iter().enumerate() {
                sync::trace_write(first + i);
                // SAFETY: positions in this worker's private chunk of the
                // level slice — the unique writer precondition.
                unsafe { out.set(acc[i]) };
            }
        }
        p = tile_end;
    }
}

/// Computes one subproblem's value from the already-filled lower levels of
/// a **row-major** table (the faithful path).
///
/// Every read this function performs is the disjoint-write argument's *read
/// precondition*: a nonzero config `c ≤ v` has digit sum ≥ 1, so `v − c`
/// lies on a strictly lower anti-diagonal, whose entries were sealed by the
/// level barrier. The `debug_assert!` states it; the audit race detector
/// verifies it dynamically against the recorded schedule.
#[inline]
fn value_of<S: StateSpace>(cells: &[SyncCell], space: &S, idx: usize, v: &[u32]) -> u16 {
    let mut best = INFEASIBLE;
    for (t_idx, (c, offset)) in space.transitions().iter().enumerate() {
        if fits(c, v) {
            debug_assert!(
                *offset > 0 && c.iter().any(|&ci| ci > 0),
                "wavefront read {} must target a strictly lower anti-diagonal than {idx}",
                idx - offset
            );
            sync::trace_read(idx - offset);
            // SAFETY: `v − c` lies on a strictly lower, barrier-sealed level
            // (see above), so no write to this cell can be concurrent.
            let below = unsafe { cells[idx - offset].get() };
            if space.step_allowed(t_idx, below) {
                best = best.min(below);
            }
        }
    }
    best.saturating_add(1)
}

/// One faithful worker's state for a sweep: the digit sums `D` of its
/// chunk, computed on its first level and kept, and a decode buffer.
#[derive(Clone, Default)]
struct FaithfulLane {
    d: Option<Vec<u32>>,
    digits: Vec<u32>,
}

/// The paper-literal sweep on the persistent pool: worker `w` owns the
/// fixed chunk `w·⌈σ/n⌉..` of the row-major entries, computes its part of
/// the digit-sum array `D` on its first level (Lines 4–8), and on every
/// level `l` scans its chunk, keeps the entries with `d_i = l` (Lines
/// 11–12) and writes their values in place (Lines 13–25). Chunks are
/// disjoint, so every cell has one writer; reads hit lower, sealed levels.
fn faithful_sweep_space<S: StateSpace>(
    table: &mut DpTable,
    space: &S,
    threads: usize,
    scratch: &mut DpScratch,
) {
    let levels = table.levels();
    let len = table.len;
    let n = threads.min(len).max(1);
    let chunk = len.div_ceil(n);
    let strides = &table.strides;
    let cells = shared_cells(&mut table.values);
    let kernel = |w: usize, level: Level, lane: &mut FaithfulLane| {
        let chunk_range = (w * chunk).min(len)..((w + 1) * chunk).min(len);
        let FaithfulLane { d, digits } = lane;
        let d = d.get_or_insert_with(|| {
            chunk_range
                .clone()
                .map(|idx| {
                    decode_into(idx, strides, digits);
                    digits.iter().sum()
                })
                .collect()
        });
        for (idx, &d_idx) in chunk_range.zip(d.iter()) {
            if d_idx != level.index {
                continue;
            }
            decode_into(idx, strides, digits);
            let value = value_of(cells, space, idx, digits);
            sync::trace_write(idx);
            // SAFETY: `idx` lies in this worker's chunk, and chunks are
            // disjoint — the unique writer precondition.
            unsafe { cells[idx].set(value) };
        }
    };
    let (_, counters) = persistent::run_levels(
        vec![FaithfulLane::default(); n],
        1..levels,
        &mut |_| true,
        kernel,
    );
    scratch.levels_swept += levels.saturating_sub(1) as u64;
    scratch.cells_computed += (len - 1) as u64;
    scratch.pool_parks += counters.parks;
    scratch.pool_wakes += counters.wakes;
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmax_ptas::dp::{verify_witness, DpProblem, MemoizedDp};
    use pcmax_ptas::space::{QSpace, SerialEngine};

    fn problems() -> Vec<DpProblem> {
        let mut out = Vec::new();
        for (pattern, unit, target) in [
            (vec![(2usize, 2u32), (4, 3)], 2u64, 30u64), // the paper's example
            (vec![(0, 3), (1, 2), (2, 1)], 1, 7),
            (vec![(5, 4)], 3, 40),
            (vec![(0, 1), (7, 2)], 2, 20),
            (vec![], 1, 10),
        ] {
            let mut counts = vec![0u32; 16];
            for &(i, c) in &pattern {
                counts[i] = c;
            }
            out.push(DpProblem::new(counts, unit, target, 64));
        }
        out
    }

    #[test]
    fn bucketed_matches_sequential_bit_for_bit() {
        for problem in problems() {
            let seq = SerialEngine.solve(&problem).unwrap();
            let par = ParallelDp::default().solve(&problem).unwrap();
            assert_eq!(seq.machines, par.machines);
            assert_eq!(seq.schedule, par.schedule, "extraction is deterministic");
            if let Some(w) = &par.schedule {
                assert!(verify_witness(&problem, w));
            }
        }
    }

    #[test]
    fn faithful_matches_sequential() {
        for problem in problems() {
            let seq = SerialEngine.solve(&problem).unwrap();
            let par = ParallelDp::faithful().solve(&problem).unwrap();
            assert_eq!(seq.machines, par.machines);
            assert_eq!(seq.schedule, par.schedule);
        }
    }

    #[test]
    fn pinned_pools_match() {
        for threads in [1usize, 2, 4] {
            let problem = &problems()[0];
            let out = ParallelDp::with_threads(threads).solve(problem).unwrap();
            assert_eq!(out.machines, 2);
        }
    }

    #[test]
    fn scratch_reuse_keeps_results_identical() {
        let mut scratch = DpScratch::new();
        for problem in problems() {
            let fresh = ParallelDp::default().solve(&problem).unwrap();
            let reused = ParallelDp::default()
                .solve_in(&problem, &mut scratch)
                .unwrap();
            assert_eq!(fresh.machines, reused.machines);
            assert_eq!(fresh.schedule, reused.schedule);
        }
        assert!(scratch.tables_reused >= 1, "later problems reuse the arena");
    }

    #[test]
    fn kernel_allocations_stay_flat_across_levels_and_probes() {
        // The zero-allocation claim: the bucketed sweep creates at most one
        // digit buffer per worker, ever — more levels, more probes, bigger
        // tables must not move the counter.
        let mut scratch = DpScratch::new();
        let dp = ParallelDp::with_threads(4);
        let problem = &problems()[0];
        dp.solve_in(problem, &mut scratch).unwrap();
        let after_first = scratch.kernel_allocs;
        assert!(after_first <= 4, "at most one buffer per worker");
        for problem in problems() {
            dp.solve_in(&problem, &mut scratch).unwrap();
        }
        assert_eq!(
            scratch.kernel_allocs, after_first,
            "repeat probes must reuse every digit buffer"
        );
        assert!(scratch.cells_computed > 0);
        assert!(scratch.levels_swept > 0);
    }

    #[test]
    fn pool_counters_balance_and_surface_through_scratch() {
        // `Static` pools every level: the adaptive crossover would run a
        // table this small inline and never park.
        let mut scratch = DpScratch::new();
        let problem = &problems()[0]; // 12 entries, 6 levels
        let dp = ParallelDp {
            chunking: Chunking::Static,
            ..ParallelDp::with_threads(4)
        };
        dp.solve_in(problem, &mut scratch).unwrap();
        assert_eq!(
            scratch.pool_parks, scratch.pool_wakes,
            "every entered condvar wait must return"
        );
        assert!(
            scratch.pool_parks > 0,
            "a 4-thread pool on 6 levels must actually park"
        );
        assert_eq!(scratch.levels_swept, 5);
        assert_eq!(scratch.cells_computed, 11);
    }

    #[test]
    fn scalar_and_strip_kernels_match_bit_for_bit() {
        for problem in problems() {
            let mut scratch = DpScratch::new();
            let mut want = None;
            for kernel in [CellKernel::Scalar, CellKernel::Strip] {
                for chunking in [Chunking::Static, Chunking::Adaptive] {
                    for threads in [1usize, 2, 4] {
                        let mut table = problem.build_level_major_table_in(&mut scratch).unwrap();
                        let configs = problem.configs_with_offsets(&table);
                        table.values[0] = 0;
                        bucketed_sweep_space_with(
                            &mut table,
                            &PcmaxSpace::new(&configs),
                            threads,
                            &mut scratch,
                            kernel,
                            chunking,
                        );
                        let got = table.values_row_major();
                        match &want {
                            None => want = Some(got),
                            Some(w) => assert_eq!(
                                &got, w,
                                "{kernel:?}/{chunking:?}/{threads} threads diverged"
                            ),
                        }
                        scratch.recycle(table);
                    }
                }
            }
        }
    }

    #[test]
    fn panicking_sweep_returns_kernel_buffers_before_unwinding() {
        /// A state space whose batched filter detonates: every strip-kernel
        /// chunk with at least one transition panics mid-level.
        struct Bomb<'a>(PcmaxSpace<'a>);
        impl StateSpace for Bomb<'_> {
            fn transitions(&self) -> &[(Config, usize)] {
                self.0.transitions()
            }
            fn value_of_batch(&self, _t_idx: usize, _below: &mut [u16]) {
                panic!("rigged step filter");
            }
        }

        let mut scratch = DpScratch::new();
        let problem = &problems()[0];
        // Prime the pool so the post-panic probe has buffers to reuse.
        ParallelDp::with_threads(2)
            .solve_in(problem, &mut scratch)
            .unwrap();
        let allocs = scratch.kernel_allocs;

        let mut table = problem.build_level_major_table_in(&mut scratch).unwrap();
        let configs = problem.configs_with_offsets(&table);
        table.values[0] = 0;
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            bucketed_sweep_space(
                &mut table,
                &Bomb(PcmaxSpace::new(&configs)),
                2,
                &mut scratch,
            )
        }));
        assert!(caught.is_err(), "the rigged filter must unwind the sweep");
        scratch.recycle(table);

        // The wind-down handed every buffer home: the next probe reuses them
        // (and `take_kernel_bufs` would assert on any outstanding leak).
        ParallelDp::with_threads(2)
            .solve_in(problem, &mut scratch)
            .unwrap();
        assert_eq!(
            scratch.kernel_allocs, allocs,
            "a poisoned solve must not leak kernel scratch"
        );
    }

    /// Sweeps `problem` at `threads` under `chunking`; returns the
    /// row-major values and the sweep's scratch counters.
    fn swept(problem: &DpProblem, threads: usize, chunking: Chunking) -> (Vec<u16>, DpScratch) {
        let mut scratch = DpScratch::new();
        let mut table = problem.build_level_major_table_in(&mut scratch).unwrap();
        let configs = problem.configs_with_offsets(&table);
        table.values[0] = 0;
        bucketed_sweep_space_with(
            &mut table,
            &PcmaxSpace::new(&configs),
            threads,
            &mut scratch,
            CellKernel::default(),
            chunking,
        );
        (table.values_row_major(), scratch)
    }

    #[test]
    fn tiny_tables_spawn_no_pool_under_adaptive_and_match_static() {
        // Every level of these tables is far below any clamped cut, so the
        // crossover runs the whole sweep inline: no worker is spawned, none
        // parks. `Static` still pools every level, with the same values.
        // Audit builds pin the crossover off, so there both pool.
        for problem in problems() {
            for threads in [2usize, 4] {
                let (want, pooled) = swept(&problem, threads, Chunking::Static);
                let (got, adaptive) = swept(&problem, threads, Chunking::Adaptive);
                assert_eq!(
                    got, want,
                    "{threads} threads: adaptive diverged from static"
                );
                assert_eq!(adaptive.pool_parks, adaptive.pool_wakes);
                if cfg!(feature = "audit") {
                    assert_eq!(adaptive.pool_parks > 0, pooled.pool_parks > 0);
                } else {
                    assert_eq!(
                        adaptive.pool_parks, 0,
                        "{threads} threads: a pool was spawned"
                    );
                }
                assert_eq!(adaptive.levels_swept, pooled.levels_swept);
                assert_eq!(adaptive.cells_computed, pooled.cells_computed);
            }
        }
    }

    #[test]
    fn crossover_pools_above_the_cut_and_inlines_below() {
        // 1 ns per cell·transition and a 10 µs handoff: at 2 workers a
        // level saves half its work, so the cut is 20 000 cell·transitions;
        // at 4 workers it saves three quarters, so the cut drops to 13 334.
        let model = Crossover {
            ps_per_ct: 1_000,
            handoff_ns: 10_000,
        };
        assert!(!model.pools(0, 2));
        assert!(!model.pools(20_000, 2), "saving == handoff stays inline");
        assert!(model.pools(20_001, 2));
        assert!(!model.pools(13_333, 4));
        assert!(model.pools(13_334, 4));
        assert!(!model.pools(u64::MAX, 1), "one worker never pools");
        // Only levels within NEAR_CUT handoffs of the cut sample the handoff.
        assert!(model.near_cut(20_001, 2));
        assert!(model.near_cut(80_000, 2));
        assert!(!model.near_cut(80_001, 2));
        // Every clamped model inlines a tiny level and pools a huge one.
        let lo = Crossover {
            ps_per_ct: *Crossover::PS_PER_CT_RANGE.start(),
            handoff_ns: *Crossover::HANDOFF_NS_RANGE.end(),
        };
        let hi = Crossover {
            ps_per_ct: *Crossover::PS_PER_CT_RANGE.end(),
            handoff_ns: *Crossover::HANDOFF_NS_RANGE.start(),
        };
        for n in [2usize, 4, 64] {
            assert!(!hi.pools(100, n), "{n} workers");
            assert!(lo.pools(10_000_000, n), "{n} workers");
        }
    }

    #[test]
    fn first_pooled_level_after_inline_levels_splits_evenly() {
        // The leader alone times the inline levels. Were those timings
        // recorded, worker 0 would look slow (or fast) against a worker 1
        // that never ran, and the first pooled level would be split by that
        // artefact rather than evenly.
        let planner = ChunkPlanner::new(2, Chunking::Adaptive);
        for index in 1..6 {
            let inline = Level {
                index,
                pooled: false,
            };
            assert_eq!(planner.bounds(0, inline, 1000), (0, 1000));
            planner.record(0, inline, 1000, 1_000_000_000);
        }
        let first = Level {
            index: 6,
            pooled: true,
        };
        assert_eq!(planner.bounds(0, first, 1024), (0, 512));
        assert_eq!(planner.bounds(1, first, 1024), (512, 1024));
    }

    #[test]
    fn adaptive_chunking_still_partitions_exactly() {
        // Exercise the planner's prefix arithmetic directly across skewed
        // speed profiles: the n ranges must tile 0..len exactly, whatever
        // the measurements said.
        for n in [1usize, 2, 3, 4, 7] {
            let planner = ChunkPlanner::new(n, Chunking::Adaptive);
            for (w, speed) in [(0usize, 10u64), (1, 100_000), (2, 1)] {
                if w < n {
                    // Feed wildly skewed measurements for both parities.
                    for index in [0, 1] {
                        let level = Level {
                            index,
                            pooled: true,
                        };
                        planner.record(w, level, 1000, 1_000_000_000 / speed.max(1));
                    }
                }
            }
            for index in 1..6u32 {
                let level = Level {
                    index,
                    pooled: true,
                };
                for len in [0usize, 1, 5, STRIP_LANES, 1000, 1001] {
                    let mut expect = 0usize;
                    for w in 0..n {
                        let (lo, hi) = planner.bounds(w, level, len);
                        assert_eq!(lo, expect, "worker {w} must start where {w}-1 ended");
                        assert!(hi >= lo && hi <= len);
                        if w + 1 < n && cfg!(not(feature = "audit")) && n > 1 {
                            assert_eq!(hi % STRIP_LANES, 0, "interior bounds strip-aligned");
                        }
                        expect = hi;
                    }
                    assert_eq!(expect, len, "the chunks must cover the level");
                }
            }
        }
    }

    #[test]
    fn paper_example_table_values() {
        // Table I of the paper: with capacity 30, unit 2, sizes {6, 10} and
        // N = (2, 3) the full DP values in row-major order are:
        // (0,0)=0 (0,1)=1 (0,2)=1 (0,3)=1
        // (1,0)=1 (1,1)=1 (1,2)=1 (1,3)=2
        // (2,0)=1 (2,1)=1 (2,2)=2 (2,3)=2
        let mut counts = vec![0u32; 16];
        counts[2] = 2;
        counts[4] = 3;
        let problem = DpProblem::new(counts, 2, 30, 64);
        let mut scratch = DpScratch::new();
        let mut table = problem.build_level_major_table_in(&mut scratch).unwrap();
        let configs = problem.configs_with_offsets(&table);
        table.values[0] = 0;
        bucketed_sweep(&mut table, &configs, 2, &mut scratch);
        assert_eq!(
            table.values_row_major(),
            vec![0, 1, 1, 1, 1, 1, 1, 2, 1, 1, 2, 2],
        );
    }

    /// Sweeps `problem` under `caps` with `engine`, in the engine's layout;
    /// returns the row-major values.
    fn swept_q<E: SpaceEngine>(engine: &E, problem: &DpProblem, caps: &[u64]) -> Vec<u16> {
        let mut scratch = DpScratch::new();
        let mut table = engine.table_for(problem, &mut scratch).unwrap();
        let configs = problem.configs_with_offsets(&table);
        let space = QSpace::new(&configs, &table.sizes, caps);
        engine.sweep(&mut table, &space, &mut scratch);
        table.values_row_major()
    }

    #[test]
    fn q_space_engines_match_the_serial_engine() {
        // Capacity profiles from one machine to strongly heterogeneous; the
        // parallel engines and the memoized Algorithm 2 must reproduce the
        // serial generic sweep bit for bit under the step filter, not just
        // on P||Cmax. Every unit vector is a transition here, so the
        // memoized walk reaches every entry.
        let caps_sets: Vec<Vec<u64>> = vec![
            vec![30, 30, 30, 30],
            vec![30, 20, 10, 6],
            vec![30, 6],
            vec![12, 4],
        ];
        for problem in problems() {
            for caps in &caps_sets {
                let want = swept_q(&SerialEngine, &problem, caps);
                for engine in [
                    ParallelDp::default(),
                    ParallelDp::faithful(),
                    ParallelDp::with_threads(3),
                ] {
                    assert_eq!(
                        swept_q(&engine, &problem, caps),
                        want,
                        "{} diverged on caps {caps:?}",
                        engine.engine_name()
                    );
                }
                assert_eq!(
                    swept_q(&MemoizedDp, &problem, caps),
                    want,
                    "dp-memoized diverged on caps {caps:?}"
                );
            }
        }
    }

    #[test]
    fn qptas_parallel_engine_matches_serial_end_to_end() {
        use pcmax_core::Instance;
        use pcmax_ptas::QPtas;
        use pcmax_workloads::{generate_uniform, Distribution, Family, SpeedFamily};

        let fam = SpeedFamily::new(Family::new(3, 12, Distribution::U1To100), 4);
        for seed in 0..4 {
            let inst = generate_uniform(fam, seed);
            let serial = QPtas::new(0.3).unwrap().solve_detailed(&inst).unwrap();
            let parallel = QPtas::with_engine(0.3, ParallelDp::default())
                .unwrap()
                .solve_detailed(&inst)
                .unwrap();
            assert_eq!(serial.target, parallel.target, "seed {seed}");
            assert_eq!(
                serial.schedule, parallel.schedule,
                "extraction is deterministic across engines (seed {seed})"
            );
            parallel.schedule.validate(&inst).unwrap();
        }
        // And on an identical-machine instance (speeds default to 1).
        let inst = Instance::new(vec![13, 11, 9, 8, 8, 7, 5, 4, 2, 2, 1, 1], 3).unwrap();
        let serial = QPtas::new(0.3).unwrap().solve_detailed(&inst).unwrap();
        let parallel = QPtas::with_engine(0.3, ParallelDp::faithful())
            .unwrap()
            .solve_detailed(&inst)
            .unwrap();
        assert_eq!(serial.target, parallel.target);
        assert_eq!(serial.schedule, parallel.schedule);
    }

    #[test]
    fn row_major_fallback_still_fills_the_table() {
        // `bucketed_sweep` on a table without a level-major layout degrades
        // to the serial sweep with identical results.
        let problem = &problems()[0];
        let mut table = problem.build_table().unwrap();
        let configs = problem.configs_with_offsets(&table);
        table.values[0] = 0;
        bucketed_sweep(&mut table, &configs, 2, &mut DpScratch::new());
        assert_eq!(table.values, vec![0, 1, 1, 1, 1, 1, 1, 2, 1, 1, 2, 2],);
    }
}
