//! The wavefront-parallel DP (Algorithm 3 of the paper): levels are
//! processed in order with a barrier between them; inside a level,
//! subproblem values are computed in parallel from the sealed lower levels.
//!
//! The production [`LevelStrategy::Bucketed`] executor is Lamport's
//! hyperplane method over **row-major tiles**. The table is cut into
//! contiguous blocks over its low-order classes: a tile is one value of the
//! `h` high-order digits (its *prefix*), and its cells are the block
//! `Π_{a≥h} dims[a]` of consecutive row-major ranks below it. The barrier
//! levels are the digit sums of the prefixes. A transition `c` read by a
//! cell of tile `p` lands in tile `p − c_hi`, which is on a strictly lower
//! level when `c_hi ≠ 0`, and earlier in the same tile when `c_hi = 0` — so
//! tiles of one level are independent, and each tile is swept serially
//! (see [`sweep_tile`]) by one worker of a [`crate::persistent`] pool. The
//! paper-literal [`LevelStrategy::Faithful`] scan is the other strategy, on
//! the same pool.

use crate::persistent::{self, Level};
use crate::simd::{fit_select_u16, min_assign_u16, saturating_add1_u16, LANES};
use crate::sync;
use pcmax_ptas::config::Config;
use pcmax_ptas::dp::fits;
use pcmax_ptas::space::{PcmaxSpace, SpaceEngine, StateSpace};
use pcmax_ptas::table::{
    decode_into, increment_with_sum, DpScratch, DpTable, KernelScratch, INFEASIBLE,
};
use std::cell::UnsafeCell;
use std::ops::{Range, RangeInclusive};
use std::sync::atomic::{AtomicU64, Ordering};

/// The bucketed sweep's cell kernel. There is one: the tiled strip kernel
/// of [`sweep_tile`]. The type stays so callers that name a kernel keep
/// compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CellKernel {
    /// Row-major tiles swept in strips of [`LANES`] cells with contiguous
    /// window loads (see [`sweep_tile`]).
    #[default]
    Strip,
}

/// How the bucketed sweep splits a level's tiles across workers.
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
    /// * **Proportional split** of each pooled level's tiles, driven by
    ///   each worker's measured throughput on the previous pooled levels
    ///   (see [`ChunkPlanner`]).
    ///
    /// Pinned to `Static` under `feature = "audit"` so schedule replay and
    /// DPOR enumeration stay deterministic.
    #[default]
    Adaptive,
    /// Every level pooled, with the fixed `tiles.div_ceil(n)` split.
    Static,
}

/// How each wavefront level finds its subproblems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LevelStrategy {
    /// Persistent pool over row-major tiles: a level is the set of tiles
    /// whose prefix has one digit sum, each tile swept serially in place.
    /// The efficient default.
    #[default]
    Bucketed,
    /// The paper-literal strategy: each level scans all σ entries and keeps
    /// those with digit sum `d_i = l` (Lines 11–12 of Algorithm 3), giving
    /// O(σ·n') total scan work. Kept for the ablation study.
    Faithful,
}

/// Wavefront DP: levels processed in order; inside a level, subproblem
/// values are computed in parallel from the sealed lower levels.
///
/// Produces bit-identical tables to `pcmax_ptas::SerialEngine`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParallelDp {
    /// Worker threads; `None` = all available cores.
    pub threads: Option<usize>,
    /// Level iteration strategy.
    pub strategy: LevelStrategy,
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

    fn sweep<S: StateSpace>(&self, table: &mut DpTable, space: &S, scratch: &mut DpScratch) {
        table.values[0] = 0;
        let threads = crate::effective_threads(self.threads);
        match self.strategy {
            LevelStrategy::Bucketed => bucketed_sweep_space_with(
                table,
                space,
                threads,
                scratch,
                CellKernel::default(),
                self.chunking,
            ),
            LevelStrategy::Faithful => faithful_sweep_space(table, space, threads, scratch),
        }
    }
}

/// A `Sync` view of one DP value cell, used for the in-place parallel
/// writes. Safety rests on the wavefront protocol, not on this type: within
/// a level every cell is written by exactly one worker (the level's tiles
/// are chunked disjointly), and reads only target cells of sealed lower
/// levels or earlier cells of the reader's own tile — so no location is
/// ever accessed concurrently with a write.
#[repr(transparent)]
struct SyncCell(UnsafeCell<u16>);

// SAFETY: see the type-level comment — the wavefront protocol guarantees
// all concurrent accesses to a cell are reads of barrier-sealed values.
unsafe impl Sync for SyncCell {}

impl SyncCell {
    /// # Safety
    /// No write to this cell may be concurrent with the read: it lies on a
    /// sealed level, or earlier in the reader's own tile.
    #[inline]
    unsafe fn get(&self) -> u16 {
        unsafe { *self.0.get() }
    }

    /// # Safety
    /// The caller must be the unique writer of this cell within the current
    /// level (disjoint chunking of the level's tiles).
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

/// The contiguous window load `values[src..src + LANES]`, recorded as
/// [`LANES`] reads for the race detector whether or not a lane is used.
///
/// # Safety
/// No cell of the window may be written concurrently: every lane must lie
/// in a barrier-sealed tile, or before the current strip in the reader's
/// own tile (the window rule of [`Step::window_end`]).
#[inline(always)]
unsafe fn load_window(cells: &[SyncCell], src: usize) -> [u16; LANES] {
    let window = &cells[src..src + LANES];
    for lane in 0..LANES {
        sync::trace_read(src + lane);
    }
    // SAFETY: `SyncCell` is `repr(transparent)` over `UnsafeCell<u16>`, so
    // the window is LANES contiguous `u16`s, and the caller guarantees no
    // concurrent writer.
    unsafe { std::ptr::read(window.as_ptr().cast::<[u16; LANES]>()) }
}

/// The trace-driven chunk autotuner: replaces the fixed `tiles.div_ceil(n)`
/// split with a per-level proportional split over each worker's measured
/// throughput, so a worker that keeps finishing early (asymmetric cores,
/// interference, NUMA) is handed a larger share instead of parking at the
/// barrier. It splits whole tiles.
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

    /// Worker `w`'s half-open range of a level's `len` tiles.
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
                prorated.clamp(start, len)
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
/// level of `w` cell·transitions (tiles × cells per tile × the space's
/// transitions) costs `w·c` inline on the leader and about `w·c/n + h`
/// pooled on `n` workers, where `c` is the kernel's time per
/// cell·transition and `h` the handoff: release, wake-up, the wait for the
/// slowest peer and the barrier. A level is pooled only when
/// `w·c·(1 − 1/n) > h`.
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
/// measurements of the tiled kernel on a 2-vCPU x86-64 VM; the clamps keep
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
        ps_per_ct: 500,
        handoff_ns: 150_000,
    };
    const PS_PER_CT_RANGE: RangeInclusive<u64> = 250..=20_000;
    const HANDOFF_NS_RANGE: RangeInclusive<u64> = 5_000..=250_000;
    /// Smallest leader chunk whose timing feeds `ps_per_ct`: below it the
    /// fixed per-chunk costs (tile setup, timer) dominate, and they do not
    /// shrink when a level is shared.
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
    tiling: &'a Tiling,
    /// Σ handoff nanos (each capped at the estimate's ceiling) and count.
    handoffs: (u64, u64),
}

impl SweepPlan<'_> {
    fn work(&self, index: u32) -> u64 {
        self.tiling.level(index).len() as u64 * self.tiling.cells_per_tile_transitions()
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

/// Upper bound on the cells of one tile: 8 Ki `u16` values are 16 KiB, so a
/// tile, its code table and a source window stay in L1/L2 while it is
/// swept. Under `feature = "audit"` tiles are single cells, so the explored
/// tables (Table I has 12 cells) still have several concurrent tiles per
/// level — the same way `Chunking` is pinned to `Static` there.
const TILE_CELLS: usize = if cfg!(feature = "audit") { 1 } else { 8 << 10 };

/// One transition as the tiled kernel sees it.
#[derive(Debug, Clone, Copy)]
struct Step {
    /// Index into the space's transitions (for the step filter).
    t_idx: usize,
    /// Row-major offset: the predecessor of rank `r` is `r − offset`.
    offset: usize,
    /// In-tile offset: the part of `offset` from the low-order classes.
    lo: usize,
    /// Code bits a cell must hold for the low-order part to fit.
    need: u32,
    /// Strips at in-tile position `j` with `lo ≤ j < window_end` load the
    /// transition as one window `values[base + j − offset..][..LANES]`.
    /// The window rule: every lane of it, fitting or not, lies in the
    /// sealed source tile `prefix − c_hi` (`c_hi ≠ 0`: `j + LANES ≤ block +
    /// lo`), or before the strip in its own tile (`c_hi = 0`: `lo ≥
    /// LANES`). Other strips finish the transition lane by lane.
    window_end: usize,
}

/// The tiling of one row-major table for one transition set: the tile
/// shape, the per-position unary threshold codes, the transitions and the
/// tiles grouped by level.
struct Tiling {
    /// High-order classes `h`: a tile is one value of the first `h` digits.
    high: usize,
    /// Cells per tile, `Π_{a≥h} dims[a]`.
    block: usize,
    /// Tile-index strides of the prefix digits (`strides[a] / block`).
    tile_strides: Vec<usize>,
    /// `codes[j]`: the unary threshold code of in-tile position `j` — class
    /// `a ≥ h` owns `bits[a]` bits, of which the lowest `q_a` are set —
    /// padded with zero codes to whole strips.
    codes: Vec<u32>,
    /// The transitions that fit some cell of the table.
    steps: Vec<Step>,
    /// Tile indices, level by level, ascending within a level.
    order: Vec<u32>,
    /// `starts[l]..starts[l + 1]` is level `l`'s slice of `order`.
    starts: Vec<usize>,
}

impl Tiling {
    /// Tiles `table` with at most `tile_cells` cells per tile, choosing the
    /// fewest high-order classes whose low-order block fits that bound and
    /// whose codes fit a `u32`.
    fn new(table: &DpTable, transitions: &[(Config, usize)], tile_cells: usize) -> Self {
        let dims = &table.dims;
        let strides = &table.strides;
        let k = dims.len();
        // A transition that is zero or exceeds a radix fits no cell.
        let live = |c: &Config| c.iter().any(|&x| x > 0) && c.iter().zip(dims).all(|(x, d)| x < d);
        let mut bits = vec![0u32; k];
        for (c, _) in transitions.iter().filter(|(c, _)| live(c)) {
            for (b, &x) in bits.iter_mut().zip(c) {
                *b = (*b).max(x);
            }
        }
        let block_of = |h: usize| dims[h..].iter().map(|&d| d as usize).product::<usize>();
        let high = (0..=k)
            .find(|&h| block_of(h) <= tile_cells.max(1) && bits[h..].iter().sum::<u32>() <= 32)
            .unwrap_or(k);
        let block = block_of(high);
        let mut shift = vec![0u32; k];
        let mut used = 0;
        for a in high..k {
            shift[a] = used;
            used += bits[a];
        }

        // Codes, kept up to date incrementally along the in-tile walk.
        let mut codes = vec![0u32; block.next_multiple_of(LANES)];
        let mut q = vec![0u32; k];
        let mut code = 0u32;
        for slot in &mut codes[..block] {
            *slot = code;
            for a in (high..k).rev() {
                if q[a] + 1 < dims[a] {
                    if q[a] < bits[a] {
                        code |= 1 << (shift[a] + q[a]);
                    }
                    q[a] += 1;
                    break;
                }
                let field = u32::MAX
                    .checked_shr(32 - bits[a])
                    .unwrap_or(0)
                    .checked_shl(shift[a])
                    .unwrap_or(0);
                code &= !field;
                q[a] = 0;
            }
        }

        let steps = transitions
            .iter()
            .enumerate()
            .filter(|(_, (c, _))| live(c))
            .map(|(t_idx, (c, offset))| {
                debug_assert_eq!(*offset, table.index(c), "offset of {c:?}");
                let lo: usize = (high..k).map(|a| c[a] as usize * strides[a]).sum();
                let need = (high..k)
                    .filter(|&a| c[a] > 0)
                    .fold(0, |need, a| need | 1 << (shift[a] + c[a] - 1));
                let window_end = if c[..high].iter().any(|&x| x > 0) {
                    (block + lo + 1).saturating_sub(LANES)
                } else if lo >= LANES {
                    usize::MAX
                } else {
                    0
                };
                Step {
                    t_idx,
                    offset: *offset,
                    lo,
                    need,
                    window_end,
                }
            })
            .collect();

        // Counting sort of the tiles by prefix digit sum.
        let high_dims = &dims[..high];
        let tiles = table.len / block;
        assert!(
            u32::try_from(tiles).is_ok(),
            "table too large for u32 tile indices ({tiles} tiles)"
        );
        let levels = high_dims.iter().map(|&d| d as usize - 1).sum::<usize>() + 1;
        let mut starts = vec![0usize; levels + 1];
        let mut prefix = vec![0u32; high];
        let mut sum = 0u32;
        for _ in 0..tiles {
            starts[sum as usize + 1] += 1;
            increment_with_sum(&mut prefix, high_dims, &mut sum);
        }
        for l in 0..levels {
            starts[l + 1] += starts[l];
        }
        let mut cursor = starts[..levels].to_vec();
        let mut order = vec![0u32; tiles];
        for tile in 0..tiles {
            // audit:allow(cast): tile < tiles, asserted to fit u32 above.
            order[cursor[sum as usize]] = tile as u32;
            cursor[sum as usize] += 1;
            increment_with_sum(&mut prefix, high_dims, &mut sum);
        }
        Self {
            high,
            block,
            tile_strides: strides[..high].iter().map(|&s| s / block).collect(),
            codes,
            steps,
            order,
            starts,
        }
    }

    /// Number of levels (prefix digit sums), including level 0.
    fn levels(&self) -> u32 {
        // audit:allow(cast): levels ≤ 1 + Σ (dims[a] − 1), a sum of u32 radices.
        (self.starts.len() - 1) as u32
    }

    /// The levels the sweep runs. A single-cell tile 0 holds only the
    /// seeded `OPT(0)`, so its level is skipped.
    fn swept_levels(&self) -> Range<u32> {
        u32::from(self.block == 1)..self.levels()
    }

    /// The tiles of level `index`.
    fn level(&self, index: u32) -> &[u32] {
        let l = index as usize;
        &self.order[self.starts[l]..self.starts[l + 1]]
    }

    /// Cell·transitions of one tile: the crossover's unit of work.
    fn cells_per_tile_transitions(&self) -> u64 {
        (self.block * self.steps.len()) as u64
    }
}

/// The tiled persistent-pool sweep on a caller-owned row-major table.
///
/// Public so the `pcmax-audit` interleaving suite can drive the sweep on a
/// caller-owned table and compare the filled values bit-for-bit against the
/// sequential DP under many explored schedules.
pub fn bucketed_sweep(
    table: &mut DpTable,
    configs: &[(Vec<u32>, usize)],
    threads: usize,
    scratch: &mut DpScratch,
) {
    bucketed_sweep_space(table, &PcmaxSpace::new(configs), threads, scratch)
}

/// [`bucketed_sweep`] generalized over the [`StateSpace`] seam: the space's
/// step filter is applied between the sealed read and the min-reduce. On
/// [`PcmaxSpace`] the filter is the always-true default and compiles away.
/// Uses the default chunk policy; see [`bucketed_sweep_space_with`].
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
/// (the bench harness measures both policies; results are identical).
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
    _kernel: CellKernel,
    chunking: Chunking,
) {
    tiled_sweep(table, space, threads, scratch, chunking, TILE_CELLS)
}

/// [`bucketed_sweep_space`] with an explicit tile bound, for the audit
/// suites: the production bound of an audit build is one cell, so this is
/// how they explore multi-cell tiles and the window loads of [`sweep_tile`].
#[cfg(feature = "audit")]
pub fn bucketed_sweep_tiles<S: StateSpace>(
    table: &mut DpTable,
    space: &S,
    threads: usize,
    scratch: &mut DpScratch,
    tile_cells: usize,
) {
    tiled_sweep(table, space, threads, scratch, Chunking::Static, tile_cells)
}

/// The tiled sweep with at most `tile_cells` cells per tile.
fn tiled_sweep<S: StateSpace>(
    table: &mut DpTable,
    space: &S,
    threads: usize,
    scratch: &mut DpScratch,
    chunking: Chunking,
    tile_cells: usize,
) {
    let transitions = space.transitions();
    let tiling = &Tiling::new(table, transitions, tile_cells);
    let levels = tiling.swept_levels();
    // The crossover: a level goes to the pool only if its predicted work
    // beats the handoff. If none does, the sweep spawns no pool at all.
    let crossover =
        (chunking == Chunking::Adaptive && !cfg!(feature = "audit")).then(Crossover::current);
    let mut plan = SweepPlan {
        crossover,
        threads: threads.max(1),
        tiling,
        handoffs: (0, 0),
    };
    let n = if plan.threads > 1 && levels.clone().any(|index| plan.decide(index)) {
        plan.threads
    } else {
        1
    };
    let states = scratch.take_kernel_bufs(n);
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
        let tiles = tiling.level(level.index);
        let (lo, hi) = planner.bounds(w, level, tiles.len());
        if lo >= hi {
            return;
        }
        let chunk_cells = (hi - lo) * tiling.block;
        pcmax_trace::chunk_decision(w as u64, chunk_cells as u64);
        crate::metrics::CHUNK_CELLS.observe(chunk_cells as u64);
        // Chunk span and chunk-size observation only — no trace or metric
        // hooks inside the strip loop (enforced by the audit lint's
        // trace-hot rule).
        let _chunk_span = pcmax_trace::span("chunk", w as u64);
        let t0 = (crossover.is_some() || busy.is_some()).then(std::time::Instant::now);
        kb.prepare(tiling.high, tiling.steps.len());
        for &tile in &tiles[lo..hi] {
            sweep_tile(space, transitions, tiling, cells, tile as usize, kb);
        }
        if let Some(t0) = t0 {
            let nanos = t0.elapsed().as_nanos() as u64;
            if let Some(busy) = busy {
                busy[w].inc_by(nanos);
            }
            planner.record(w, level, chunk_cells, nanos);
            let ct = (hi - lo) as u64 * tiling.cells_per_tile_transitions();
            if w == 0 && crossover.is_some() && ct >= Crossover::MIN_SAMPLE_CT {
                sampled[0].fetch_add(nanos, Ordering::SeqCst);
                sampled[1].fetch_add(ct, Ordering::SeqCst);
            }
        }
    };

    let sweep_start = std::time::Instant::now();
    let swept = u64::from(levels.end - levels.start);
    let (states, counters, panicked) =
        persistent::run_levels_catching(states, levels, &mut plan, kernel);
    // Busy-fraction denominator: each of the n workers could at most have
    // been busy for the whole sweep extent.
    crate::metrics::POOL_EXTENT_NANOS.inc_by(sweep_start.elapsed().as_nanos() as u64 * n as u64);
    scratch.return_kernel_bufs(states);
    scratch.levels_swept += swept;
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

/// Sweeps one tile serially, in strips of [`LANES`] cells.
///
/// 1. **Tile-level skip** — a transition whose high-order part exceeds the
///    tile's prefix fits no cell of the tile and is dropped for all of it.
///    For the rest, fit depends only on the low-order digits.
/// 2. **Window loads** — for each strip at in-tile position `j`, every
///    transition the window rule allows (see [`Step::window_end`]) is read
///    with one contiguous load `values[base + j − offset..][..LANES]`,
///    masked by the strip's fit test (one AND/compare of each cell's unary
///    threshold code against the transition's needed bits), filtered by
///    the space and folded with a lane-parallel min. In row-major order
///    `rank(v − c) = rank(v) − offset(c)` for every lane, which is what
///    makes the load contiguous.
/// 3. **Lane finish** — the strip's other transitions (in-tile offset
///    below [`LANES`], or windows that would leave their source tile) are
///    finished cell by cell in rank order, each cell written as soon as it
///    is final, so a short offset reads an already-final cell of the same
///    strip.
///
/// Bit-identity with the serial engine: a cell's candidates are exactly
/// the transitions that fit it (the high part by the skip, the low part by
/// the code test) and pass the step filter, so it sees the same
/// min-reduction; `min` is order-free.
#[inline(always)]
fn sweep_tile<S: StateSpace>(
    space: &S,
    transitions: &[(Config, usize)],
    tiling: &Tiling,
    cells: &[SyncCell],
    tile: usize,
    kb: &mut KernelScratch,
) {
    let KernelScratch {
        digits,
        steps,
        lanes,
    } = kb;
    let block = tiling.block;
    let base = tile * block;
    let mut rest = tile;
    for (d, &stride) in digits.iter_mut().zip(&tiling.tile_strides) {
        *d = rest / stride;
        rest %= stride;
    }
    let prefix = &digits[..tiling.high];
    let mut live = 0;
    for (i, step) in tiling.steps.iter().enumerate() {
        let c = &transitions[step.t_idx].0;
        if c.iter()
            .zip(prefix)
            .all(|(&need, &have)| need as usize <= have)
        {
            steps[live] = i;
            live += 1;
        }
    }
    let live = &steps[..live];
    for j in (0..block).step_by(LANES) {
        let width = LANES.min(block - j);
        let codes: &[u32; LANES] = tiling.codes[j..j + LANES]
            .try_into()
            .unwrap_or_else(|_| unreachable!("codes are padded to whole strips"));
        let mut best = [INFEASIBLE; LANES];
        let mut finish = 0;
        for &i in live {
            let step = &tiling.steps[i];
            if step.lo <= j && j < step.window_end {
                // SAFETY: the window rule (`Step::window_end`): every lane
                // lies in the sealed source tile or before this strip.
                let mut below = unsafe { load_window(cells, base + j - step.offset) };
                fit_select_u16(&mut below, codes, step.need);
                space.value_of_batch(step.t_idx, &mut below);
                min_assign_u16(&mut best, &below);
            } else if step.lo < j + width {
                lanes[finish] = i;
                finish += 1;
            }
        }
        // Rank 0 holds the seeded OPT(0) and is never rewritten.
        let from = usize::from(base + j == 0);
        if finish == 0 {
            saturating_add1_u16(&mut best);
            for (lane, &value) in best.iter().enumerate().take(width).skip(from) {
                sync::trace_write(base + j + lane);
                // SAFETY: this tile belongs to this worker alone within the
                // level — the unique writer precondition.
                unsafe { cells[base + j + lane].set(value) };
            }
            continue;
        }
        for (lane, &code) in codes.iter().enumerate().take(width).skip(from) {
            let pos = base + j + lane;
            let mut value = best[lane];
            for &i in &lanes[..finish] {
                let step = &tiling.steps[i];
                if code & step.need == step.need {
                    let src = pos - step.offset;
                    sync::trace_read(src);
                    // SAFETY: the transition fits, so `src` lies in the
                    // sealed source tile or earlier in this tile — final
                    // cells with no concurrent writer.
                    let below = unsafe { cells[src].get() };
                    if space.step_allowed(step.t_idx, below) {
                        value = value.min(below);
                    }
                }
            }
            sync::trace_write(pos);
            // SAFETY: as above, this worker is the tile's unique writer.
            unsafe { cells[pos].set(value.saturating_add(1)) };
        }
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
    use pcmax_ptas::space::{serial_sweep, QSpace, SerialEngine};
    use proptest::prelude::*;

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
        // Single-cell tiles give Table I its 6 cell levels, and `Static`
        // pools every level: the adaptive crossover would run a table this
        // small inline and never park.
        let mut scratch = DpScratch::new();
        let problem = &problems()[0]; // 12 entries, 6 levels
        let mut table = problem.build_table_in(&mut scratch).unwrap();
        let configs = problem.configs_with_offsets(&table);
        table.values[0] = 0;
        tiled_sweep(
            &mut table,
            &PcmaxSpace::new(&configs),
            4,
            &mut scratch,
            Chunking::Static,
            1,
        );
        assert_eq!(table.values, vec![0, 1, 1, 1, 1, 1, 1, 2, 1, 1, 2, 2]);
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

    /// Every tile bound from single cells to one tile per table, every
    /// chunk policy and pool width: the same table as the serial engine.
    #[test]
    fn every_tile_bound_matches_the_serial_engine() {
        for problem in problems() {
            let mut want = problem.build_table().unwrap();
            let configs = problem.configs_with_offsets(&want);
            serial_sweep(&mut want, &PcmaxSpace::new(&configs));
            let mut scratch = DpScratch::new();
            for tile_cells in [1usize, 2, 3, 4, 5, 12, TILE_CELLS] {
                for chunking in [Chunking::Static, Chunking::Adaptive] {
                    for threads in [1usize, 2, 4] {
                        let mut table = problem.build_table_in(&mut scratch).unwrap();
                        table.values[0] = 0;
                        tiled_sweep(
                            &mut table,
                            &PcmaxSpace::new(&configs),
                            threads,
                            &mut scratch,
                            chunking,
                            tile_cells,
                        );
                        assert_eq!(
                            table.values, want.values,
                            "{tile_cells}-cell tiles, {chunking:?}, {threads} threads"
                        );
                        scratch.recycle(table);
                    }
                }
            }
        }
    }

    /// A space over a hand-picked transition set, which need not be
    /// downward closed: the fit test is then the only thing keeping a
    /// window lane of a non-fitting cell out of its min.
    struct Subset(Vec<(Config, usize)>);

    impl StateSpace for Subset {
        fn transitions(&self) -> &[(Config, usize)] {
            &self.0
        }
    }

    /// Which state space a test sweeps.
    #[derive(Debug, Clone, Copy)]
    enum Space<'a> {
        Pcmax,
        Q(&'a [u64]),
        /// The configs whose index bit (mod 64) is set.
        Subset(u64),
    }

    /// The serial engine's table and the tiled sweep's for `problem`.
    fn serial_and_tiled(
        problem: &DpProblem,
        space: Space<'_>,
        threads: usize,
        chunking: Chunking,
        tile_cells: usize,
    ) -> (Vec<u16>, Vec<u16>) {
        fn both<S: StateSpace>(
            want: &mut DpTable,
            got: &mut DpTable,
            space: &S,
            threads: usize,
            chunking: Chunking,
            tile_cells: usize,
        ) {
            serial_sweep(want, space);
            let mut scratch = DpScratch::new();
            got.values[0] = 0;
            tiled_sweep(got, space, threads, &mut scratch, chunking, tile_cells);
        }
        let mut want = problem.build_table().unwrap();
        let mut got = problem.build_table().unwrap();
        let configs = problem.configs_with_offsets(&want);
        let sizes = want.sizes.clone();
        let run = (threads, chunking, tile_cells);
        match space {
            Space::Pcmax => both(
                &mut want,
                &mut got,
                &PcmaxSpace::new(&configs),
                run.0,
                run.1,
                run.2,
            ),
            Space::Q(caps) => {
                let space = QSpace::new(&configs, &sizes, caps);
                both(&mut want, &mut got, &space, run.0, run.1, run.2)
            }
            Space::Subset(keep) => {
                let subset = configs
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| keep >> (i % 64) & 1 == 1)
                    .map(|(_, t)| t.clone())
                    .collect();
                both(&mut want, &mut got, &Subset(subset), run.0, run.1, run.2)
            }
        }
        (want.values, got.values)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random shapes (one class, radix-2 classes, σ < 16, blocks that
        /// are not whole strips, in-tile offsets below and above a strip)
        /// under random tile bounds: the full table equals the serial
        /// engine's for both spaces and for a random subset of the
        /// transitions, at every pool width and chunk policy.
        #[test]
        fn tiled_sweep_matches_the_serial_engine_on_random_shapes(
            counts in prop::collection::vec(0u32..=5, 1..=4),
            unit in 1u64..=3,
            slack in 0u64..=20,
            tile_cells in 1usize..=80,
            mut caps in prop::collection::vec(0u64..=40, 1..=5),
            keep in any::<u64>(),
        ) {
            caps.sort_unstable_by(|a, b| b.cmp(a));
            let target = unit * counts.len() as u64 + slack;
            let problem = DpProblem::new(counts, unit, target, 64);
            for space in [Space::Pcmax, Space::Q(&caps), Space::Subset(keep)] {
                for chunking in [Chunking::Static, Chunking::Adaptive] {
                    for threads in [1usize, 2, 4] {
                        let (want, got) =
                            serial_and_tiled(&problem, space, threads, chunking, tile_cells);
                        prop_assert_eq!(
                            got,
                            want,
                            "{:?}, {:?}, {} threads, {}-cell tiles",
                            space,
                            chunking,
                            threads,
                            tile_cells
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_window_lane_of_a_cell_the_transition_misses_is_masked() {
        // dims [2, 20], one 40-cell tile. Transition (0, 17) loads a window
        // at strip 32, whose cell (1, 14) it does not fit: that lane reads
        // (0, 17), which is 1, but (1, 14) is unreachable with only (0, 17)
        // and (1, 0), so the fit test alone keeps it INFEASIBLE.
        let table = DpTable::new(&[1, 19], 1, 1 << 20).unwrap();
        let space = Subset(vec![(vec![0, 17], 17), (vec![1, 0], 20)]);
        let mut want = table.clone();
        serial_sweep(&mut want, &space);
        assert_eq!(want.values[table.index(&[1, 14])], INFEASIBLE);
        assert_eq!(want.values[table.index(&[1, 17])], 2);
        for threads in [1usize, 2] {
            let mut got = table.clone();
            got.values[0] = 0;
            tiled_sweep(
                &mut got,
                &space,
                threads,
                &mut DpScratch::new(),
                Chunking::Static,
                8 << 10,
            );
            assert_eq!(got.values, want.values, "{threads} threads");
        }
    }

    #[test]
    fn tiling_picks_the_fewest_high_classes_and_orders_tiles_by_level() {
        // dims [3, 4, 5]: 60 cells. A bound of 20 cells keeps the last two
        // classes low (a block of 20), so the 3 tiles are the values of the
        // first digit, one per level.
        let problem = DpProblem::new(vec![2, 3, 4], 1, 6, 64);
        let table = problem.build_table().unwrap();
        let configs = problem.configs_with_offsets(&table);
        let tiling = Tiling::new(&table, &configs, 20);
        assert_eq!((tiling.high, tiling.block), (1, 20));
        assert_eq!(tiling.levels(), 3);
        assert_eq!(tiling.swept_levels(), 0..3);
        assert_eq!(tiling.codes.len(), 32, "codes pad to whole strips");
        for l in 0..3 {
            assert_eq!(tiling.level(l), &[l]);
        }
        // A bound of 19 needs two high classes: blocks of 5, tiles over
        // dims [3, 4] grouped by digit sum, ascending within a level.
        let tiling = Tiling::new(&table, &configs, 19);
        assert_eq!((tiling.high, tiling.block), (2, 5));
        assert_eq!(tiling.level(0), &[0]);
        assert_eq!(tiling.level(1), &[1, 4]);
        assert_eq!(tiling.level(2), &[2, 5, 8]);
        assert_eq!(tiling.level(5), &[11]);
        // Single-cell tiles: level 0 is tile 0 alone, the seed, and is skipped.
        let tiling = Tiling::new(&table, &configs, 1);
        assert_eq!((tiling.high, tiling.block), (3, 1));
        assert_eq!(tiling.swept_levels(), 1..10);
    }

    #[test]
    fn codes_are_unary_thresholds_of_the_low_digits() {
        // One class of radix 5 whose configs take up to 3 jobs: 3 code
        // bits, the lowest q set for digit q (capped at 3), and a config of
        // c jobs needs bit c − 1.
        let problem = DpProblem::new(vec![4], 2, 6, 64);
        let table = problem.build_table().unwrap();
        let configs = problem.configs_with_offsets(&table);
        let tiling = Tiling::new(&table, &configs, 8 << 10);
        assert_eq!(&tiling.codes[..5], &[0b000, 0b001, 0b011, 0b111, 0b111]);
        let needs: Vec<u32> = tiling.steps.iter().map(|s| s.need).collect();
        assert_eq!(needs, vec![0b001, 0b010, 0b100]);
        // The same class as a high-order digit needs no code bits at all.
        let tiling = Tiling::new(&table, &configs, 1);
        assert!(tiling.steps.iter().all(|s| s.need == 0 && s.lo == 0));
    }

    #[test]
    fn window_rule_keeps_every_load_inside_sealed_cells() {
        // dims [3, 40]: a bound of 40 makes the second class the block.
        let problem = DpProblem::new(vec![2, 39], 1, 60, 64);
        let table = problem.build_table().unwrap();
        let configs = problem.configs_with_offsets(&table);
        let tiling = Tiling::new(&table, &configs, 40);
        assert_eq!((tiling.high, tiling.block), (1, 40));
        for step in &tiling.steps {
            let cross = step.offset >= tiling.block;
            for j in (0..tiling.block).step_by(LANES) {
                if !(step.lo <= j && j < step.window_end) {
                    continue;
                }
                let (first, last) = (j - step.lo, j - step.lo + LANES - 1);
                if cross {
                    assert!(last < tiling.block, "window leaves the source tile");
                } else {
                    assert!(last < j, "window reaches into its own strip");
                }
                assert!(first <= last);
            }
        }
        // Short same-tile offsets never load a window.
        assert!(tiling
            .steps
            .iter()
            .filter(|s| s.offset < LANES)
            .all(|s| s.window_end == 0));
    }

    #[test]
    fn panicking_sweep_returns_kernel_buffers_before_unwinding() {
        /// A state space whose step filter detonates: every chunk with at
        /// least one fitting transition panics mid-level.
        struct Bomb<'a>(PcmaxSpace<'a>);
        impl StateSpace for Bomb<'_> {
            fn transitions(&self) -> &[(Config, usize)] {
                self.0.transitions()
            }
            fn step_allowed(&self, _t_idx: usize, _below: u16) -> bool {
                panic!("rigged step filter");
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

        let mut table = problem.build_table_in(&mut scratch).unwrap();
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

    /// Sweeps `problem` at `threads` under `chunking`; returns the values
    /// and the sweep's scratch counters.
    fn swept(problem: &DpProblem, threads: usize, chunking: Chunking) -> (Vec<u16>, DpScratch) {
        let mut scratch = DpScratch::new();
        let mut table = problem.build_table_in(&mut scratch).unwrap();
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
        (table.values, scratch)
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
                for len in [0usize, 1, 5, LANES, 1000, 1001] {
                    let mut expect = 0usize;
                    for w in 0..n {
                        let (lo, hi) = planner.bounds(w, level, len);
                        assert_eq!(lo, expect, "worker {w} must start where {w}-1 ended");
                        assert!(hi >= lo && hi <= len);
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
        let mut table = problem.build_table_in(&mut scratch).unwrap();
        let configs = problem.configs_with_offsets(&table);
        table.values[0] = 0;
        bucketed_sweep(&mut table, &configs, 2, &mut scratch);
        assert_eq!(table.values, vec![0, 1, 1, 1, 1, 1, 1, 2, 1, 1, 2, 2]);
    }

    /// Sweeps `problem` under `caps` with `engine`; returns the values.
    fn swept_q<E: SpaceEngine>(engine: &E, problem: &DpProblem, caps: &[u64]) -> Vec<u16> {
        let mut scratch = DpScratch::new();
        let mut table = engine.table_for(problem, &mut scratch).unwrap();
        let configs = problem.configs_with_offsets(&table);
        let space = QSpace::new(&configs, &table.sizes, caps);
        engine.sweep(&mut table, &space, &mut scratch);
        table.values
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
}
