//! The dense DP table: a mixed-radix (row-major) indexing of all vectors
//! `v ≤ N`, exactly the layout the paper's array `V` uses (Section III).
//!
//! To keep the table compact the indexing is built over the *active* classes
//! only (classes with `n_i > 0`); inactive classes contribute a radix of 1
//! and are elided. The paper's example `N = (…,2,…,3,…)` therefore maps to
//! dims `[3, 4]` and σ = 12 entries, matching Table I.
//!
//! Every engine sweeps this one row-major order. In it a transition `c` is
//! a fixed rank offset, `rank(v − c) = rank(v) − offset(c)`, which is what
//! lets the parallel tiled sweep read 16 consecutive predecessors with one
//! contiguous load.

use pcmax_core::Time;

/// Value stored for an unreachable/infeasible subproblem.
pub const INFEASIBLE: u16 = u16::MAX;

/// Per-worker scratch of the tiled wavefront kernel: the high-order digits
/// of the tile being swept and two transition-index lists. All growth
/// happens in [`prepare`](Self::prepare), *before* the level sweeps start —
/// the per-strip step never touches the allocator (enforced by the
/// `alloc-hot` lint and the pinned `kernel_allocs` counter).
#[derive(Debug, Default)]
pub struct KernelScratch {
    /// The tile's high-order digits (its prefix).
    pub digits: Vec<usize>,
    /// Transitions that survive the tile-level skip.
    pub steps: Vec<usize>,
    /// Transitions one strip finishes lane by lane.
    pub lanes: Vec<usize>,
}

impl KernelScratch {
    /// Grows every buffer to `high` prefix digits and `transitions`
    /// entries. Called once per sweep so later per-tile use is
    /// allocation-free.
    pub fn prepare(&mut self, high: usize, transitions: usize) {
        if self.digits.len() < high {
            self.digits.resize(high, 0);
        }
        if self.steps.len() < transitions {
            self.steps.resize(transitions, 0);
        }
        if self.lanes.len() < transitions {
            self.lanes.resize(transitions, 0);
        }
    }
}

/// Reusable allocation arena threaded through `SpaceEngine::solve_in`: the
/// dense value table and the kernel buffers are allocated once per PTAS run
/// and recycled across bisection probes, so repeated probes stop paying the
/// `O(σ)` allocation cost. The counters surface in `SolveStats`, making the
/// reuse observable from the outside.
#[derive(Debug, Default)]
pub struct DpScratch {
    /// Recycled backing store for [`DpTable::values`].
    values: Vec<u16>,
    /// Recycled per-worker kernel buffers for the zero-allocation wavefront
    /// cell kernel (one [`KernelScratch`] per worker, reused across levels
    /// *and* probes).
    kernels: Vec<KernelScratch>,
    /// Kernel buffers currently handed out by
    /// [`take_kernel_bufs`](Self::take_kernel_bufs) and not yet returned.
    /// The next `take` asserts this is zero: a sweep that lost its buffers
    /// (e.g. a panic unwound past the return) must fail loudly instead of
    /// silently re-allocating on the next probe.
    kernels_outstanding: usize,
    /// Table builds that had to grow the backing allocation.
    pub tables_allocated: u64,
    /// Table builds served entirely from recycled capacity.
    pub tables_reused: u64,
    /// Total DP entries initialized across all builds using this scratch.
    pub entries_touched: u64,
    /// Barrier levels swept by the parallel executors: tile levels of the
    /// tiled sweep, cell levels of the faithful one.
    pub levels_swept: u64,
    /// DP cells computed by the parallel executors (σ − 1 per sweep).
    pub cells_computed: u64,
    /// Worker park events (condvar waits) in the persistent pool.
    pub pool_parks: u64,
    /// Worker wake events (condvar wait returns) in the persistent pool.
    pub pool_wakes: u64,
    /// Per-worker kernel scratch buffers that had to be freshly created —
    /// the wavefront cell kernel performs no other heap allocation, so this
    /// staying flat across levels and probes *is* the zero-allocation claim.
    pub kernel_allocs: u64,
}

impl DpScratch {
    /// A fresh, empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-grows the value store to hold `entries` entries. Counts as one
    /// allocation if it actually grows — the PTAS driver reserves the
    /// largest table of the bracket up front so every probe then reuses.
    pub fn reserve(&mut self, entries: usize) {
        if self.values.capacity() < entries {
            self.values.reserve(entries - self.values.len());
            self.tables_allocated += 1;
        }
    }

    /// Returns a finished table's value store for the next probe.
    pub fn recycle(&mut self, table: DpTable) {
        if table.values.capacity() > self.values.capacity() {
            self.values = table.values;
        }
    }

    /// Hands out `n` per-worker kernel buffers for the wavefront cell
    /// kernel, reusing recycled ones and counting every fresh creation in
    /// [`kernel_allocs`](Self::kernel_allocs). Give them back with
    /// [`return_kernel_bufs`](Self::return_kernel_bufs).
    ///
    /// Asserts the previous hand-out was fully returned: the wavefront
    /// executors recover their buffers even when a kernel panics (the pool
    /// winds down, hands the worker states back, and only then re-raises),
    /// so an unbalanced round-trip is a leak bug, not a recoverable state.
    pub fn take_kernel_bufs(&mut self, n: usize) -> Vec<KernelScratch> {
        assert_eq!(
            self.kernels_outstanding, 0,
            "a previous sweep leaked its kernel buffers ({} outstanding)",
            self.kernels_outstanding
        );
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            match self.kernels.pop() {
                Some(buf) => out.push(buf),
                None => {
                    self.kernel_allocs += 1;
                    pcmax_trace::instant("dp-kernel-alloc", self.kernel_allocs);
                    out.push(KernelScratch::default());
                }
            }
        }
        self.kernels_outstanding = n;
        out
    }

    /// Returns kernel buffers for reuse by the next sweep.
    pub fn return_kernel_bufs(&mut self, bufs: impl IntoIterator<Item = KernelScratch>) {
        for buf in bufs {
            self.kernels.push(buf);
            self.kernels_outstanding = self.kernels_outstanding.saturating_sub(1);
        }
    }

    /// Takes a value buffer of exactly `len` entries, all [`INFEASIBLE`],
    /// reusing recycled capacity when possible.
    fn take_values(&mut self, len: usize) -> Vec<u16> {
        let mut values = std::mem::take(&mut self.values);
        if values.capacity() >= len {
            self.tables_reused += 1;
            pcmax_trace::instant("dp-table-reuse", len as u64);
        } else {
            self.tables_allocated += 1;
            pcmax_trace::instant("dp-table-alloc", len as u64);
        }
        values.clear();
        values.resize(len, INFEASIBLE);
        self.entries_touched += len as u64;
        values
    }
}

/// Mixed-radix index space over the active classes of a rounded vector `N`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DpTable {
    /// 0-based indices (into the full `k²`-class vector) of active classes.
    pub active: Vec<usize>,
    /// `dims[a] = n_active[a] + 1` — radix per active class.
    pub dims: Vec<u32>,
    /// Row-major strides: `index(v) = Σ v_a · strides[a]`.
    pub strides: Vec<usize>,
    /// Total number of entries `σ = Π dims`.
    pub len: usize,
    /// Rounded size of each active class (`(class+1)·unit`).
    pub sizes: Vec<Time>,
    /// Per-entry `OPT` values in row-major order (`INFEASIBLE` = not
    /// computable).
    pub values: Vec<u16>,
}

impl DpTable {
    /// Builds the (zero-initialized) table for class counts `counts` with
    /// rounding unit `unit`. Returns `None` if σ would exceed `max_entries`
    /// (a guard against pathological ε/instance combinations).
    pub fn new(counts: &[u32], unit: Time, max_entries: usize) -> Option<Self> {
        let (active, dims, strides, len, sizes) = Self::layout(counts, unit, max_entries)?;
        Some(Self {
            active,
            dims,
            strides,
            len,
            sizes,
            values: vec![INFEASIBLE; len],
        })
    }

    /// Like [`new`](Self::new), but the value store comes from (and its
    /// allocation is accounted to) the reusable `scratch` arena.
    pub fn new_in(
        counts: &[u32],
        unit: Time,
        max_entries: usize,
        scratch: &mut DpScratch,
    ) -> Option<Self> {
        let (active, dims, strides, len, sizes) = Self::layout(counts, unit, max_entries)?;
        Some(Self {
            active,
            dims,
            strides,
            len,
            sizes,
            values: scratch.take_values(len),
        })
    }

    /// Number of entries σ the table for `counts` would need, without
    /// building it (`None` if over `max_entries`). Used to pre-size the
    /// scratch arena for the largest table of a bisection bracket.
    pub fn entries_needed(counts: &[u32], unit: Time, max_entries: usize) -> Option<usize> {
        Self::layout(counts, unit, max_entries).map(|(_, _, _, len, _)| len)
    }

    /// Computes the active classes, radices, strides, σ and class sizes.
    #[allow(clippy::type_complexity)]
    fn layout(
        counts: &[u32],
        unit: Time,
        max_entries: usize,
    ) -> Option<(Vec<usize>, Vec<u32>, Vec<usize>, usize, Vec<Time>)> {
        let mut active = Vec::new();
        let mut dims = Vec::new();
        let mut sizes = Vec::new();
        for (i, &c) in counts.iter().enumerate() {
            if c > 0 {
                active.push(i);
                dims.push(c + 1);
                sizes.push((i as Time + 1) * unit);
            }
        }
        // Row-major: last dimension has stride 1.
        let mut strides = vec![0usize; dims.len()];
        let mut len = 1usize;
        for a in (0..dims.len()).rev() {
            strides[a] = len;
            len = len.checked_mul(dims[a] as usize)?;
            if len > max_entries {
                return None;
            }
        }
        Some((active, dims, strides, len, sizes))
    }

    /// Index of a vector over active classes.
    #[inline]
    pub fn index(&self, v: &[u32]) -> usize {
        debug_assert_eq!(v.len(), self.dims.len());
        v.iter()
            .zip(&self.strides)
            .map(|(&d, &s)| d as usize * s)
            .sum()
    }

    /// Decodes index `idx` into a vector over active classes.
    pub fn decode(&self, mut idx: usize) -> Vec<u32> {
        let mut v = vec![0u32; self.dims.len()];
        for (slot, &stride) in v.iter_mut().zip(&self.strides) {
            // audit:allow(cast): idx/stride < dims[a] and every radix is a
            // u32 (`counts[i] + 1`), so the quotient always fits.
            *slot = (idx / stride) as u32;
            idx %= stride;
        }
        v
    }

    /// The anti-diagonal level of index `idx`: the digit sum of its vector.
    pub fn level_of(&self, idx: usize) -> u32 {
        self.decode(idx).iter().sum()
    }

    /// Number of anti-diagonal levels, `n' + 1` where `n'` is the number of
    /// long jobs (sum of all digits of the last entry).
    pub fn levels(&self) -> u32 {
        self.dims.iter().map(|&d| d - 1).sum::<u32>() + 1
    }

    /// Index of the last entry (the full vector `N`).
    #[inline]
    pub fn last_index(&self) -> usize {
        self.len - 1
    }

    /// The value of row-major rank `rank`.
    #[inline]
    pub fn value_at(&self, rank: usize) -> u16 {
        self.values[rank]
    }

    /// The precomputed flat offset of a full-width config (length `k²`)
    /// restricted to active classes, together with its active-class
    /// projection. Returns `None` if the config uses an inactive class
    /// (it can never be ≤ any table vector then).
    pub fn project_config(&self, config: &[u32]) -> Option<(Vec<u32>, usize)> {
        let mut projected = vec![0u32; self.active.len()];
        for (a, &class) in self.active.iter().enumerate() {
            projected[a] = config[class];
        }
        // Any count on an inactive class disqualifies the config.
        let total_active: u64 = projected.iter().map(|&s| s as u64).sum();
        let total: u64 = config.iter().map(|&s| s as u64).sum();
        if total_active != total {
            return None;
        }
        let offset = self.index(&projected);
        Some((projected, offset))
    }

    /// Expands a vector over active classes back to full `k²` width.
    pub fn expand(&self, v: &[u32], classes: usize) -> Vec<u32> {
        let mut full = vec![0u32; classes];
        for (a, &class) in self.active.iter().enumerate() {
            full[class] = v[a];
        }
        full
    }

    /// Buckets all indices by anti-diagonal level. `buckets[l]` lists the
    /// table indices whose digit sum is `l`, in increasing index order.
    pub fn level_buckets(&self) -> Vec<Vec<u32>> {
        // Buckets store indices as u32 to halve their footprint; σ is capped
        // by `max_entries` at build time, but that cap is caller-chosen, so
        // re-assert the representable range before narrowing below.
        assert!(
            u32::try_from(self.len).is_ok(),
            "table too large for u32 level buckets ({} entries)",
            self.len
        );
        let mut buckets = vec![Vec::new(); self.levels() as usize];
        // Incremental mixed-radix counter with running digit sum: O(σ).
        let mut v = vec![0u32; self.dims.len()];
        let mut sum = 0u32;
        for idx in 0..self.len {
            // audit:allow(cast): idx < self.len, asserted to fit u32 above.
            buckets[sum as usize].push(idx as u32);
            increment_with_sum(&mut v, &self.dims, &mut sum);
        }
        buckets
    }
}

/// Advances a mixed-radix counter one step (row-major: last digit fastest),
/// keeping `sum` equal to the digit sum. Wraps to all-zeros after the last
/// vector, like the counter inside `level_buckets`.
#[inline]
pub fn increment_with_sum(v: &mut [u32], dims: &[u32], sum: &mut u32) {
    for a in (0..dims.len()).rev() {
        if v[a] + 1 < dims[a] {
            v[a] += 1;
            *sum += 1;
            return;
        }
        *sum -= v[a];
        v[a] = 0;
    }
}

/// Decodes row-major rank `idx` into `out` (cleared and refilled) — the
/// allocation-free form of [`DpTable::decode`] used by the faithful
/// wavefront sweep.
#[inline]
pub fn decode_into(mut idx: usize, strides: &[usize], out: &mut Vec<u32>) {
    out.clear();
    for &stride in strides {
        // audit:allow(cast): idx/stride < dims[a] and every radix is a u32
        // (`counts[i] + 1`), so the quotient always fits.
        out.push((idx / stride) as u32);
        idx %= stride;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Table I: N = (2, 3) -> 12 entries in row-major order.
    fn paper_table() -> DpTable {
        let mut counts = vec![0u32; 16];
        counts[2] = 2;
        counts[4] = 3;
        DpTable::new(&counts, 2, 1 << 20).unwrap()
    }

    #[test]
    fn active_compaction() {
        let t = paper_table();
        assert_eq!(t.active, vec![2, 4]);
        assert_eq!(t.dims, vec![3, 4]);
        assert_eq!(t.len, 12);
        assert_eq!(t.sizes, vec![6, 10]);
    }

    #[test]
    fn row_major_order_matches_paper_array_v() {
        let t = paper_table();
        // V = (0,0),(0,1),(0,2),(0,3),(1,0),...,(2,3)
        assert_eq!(t.decode(0), vec![0, 0]);
        assert_eq!(t.decode(3), vec![0, 3]);
        assert_eq!(t.decode(4), vec![1, 0]);
        assert_eq!(t.decode(11), vec![2, 3]);
        for idx in 0..t.len {
            assert_eq!(t.index(&t.decode(idx)), idx);
        }
    }

    #[test]
    fn levels_partition_all_entries() {
        let t = paper_table();
        assert_eq!(t.levels(), 6); // n' = 5 long jobs -> levels 0..=5
        let buckets = t.level_buckets();
        assert_eq!(buckets.iter().map(Vec::len).sum::<usize>(), t.len);
        // Level 2 holds OPT(2,0), OPT(1,1), OPT(0,2) — the paper's example.
        let lvl2: Vec<Vec<u32>> = buckets[2].iter().map(|&i| t.decode(i as usize)).collect();
        assert_eq!(lvl2, vec![vec![0, 2], vec![1, 1], vec![2, 0]]);
        // Every bucket member's digit sum equals its level.
        for (l, bucket) in buckets.iter().enumerate() {
            for &idx in bucket {
                assert_eq!(t.level_of(idx as usize), l as u32);
            }
        }
    }

    #[test]
    fn size_guard_rejects_huge_tables() {
        let counts = vec![1000u32; 8];
        assert!(DpTable::new(&counts, 1, 1 << 20).is_none());
    }

    #[test]
    fn empty_vector_table_has_one_entry() {
        let t = DpTable::new(&[0, 0], 1, 1 << 20).unwrap();
        assert_eq!(t.len, 1);
        assert_eq!(t.levels(), 1);
        assert_eq!(t.last_index(), 0);
    }

    #[test]
    fn project_and_expand_are_inverse_on_active_classes() {
        let t = paper_table();
        let mut config = vec![0u32; 16];
        config[2] = 1;
        config[4] = 2;
        let (projected, offset) = t.project_config(&config).unwrap();
        assert_eq!(projected, vec![1, 2]);
        assert_eq!(offset, t.index(&[1, 2]));
        assert_eq!(t.expand(&projected, 16), config);
    }

    #[test]
    fn project_rejects_inactive_class_use() {
        let t = paper_table();
        let mut config = vec![0u32; 16];
        config[0] = 1; // class 1 is inactive
        assert!(t.project_config(&config).is_none());
    }

    #[test]
    fn scratch_reuses_capacity_across_builds() {
        let mut counts = vec![0u32; 16];
        counts[2] = 2;
        counts[4] = 3;
        let mut scratch = DpScratch::new();
        let t1 = DpTable::new_in(&counts, 2, 1 << 20, &mut scratch).unwrap();
        assert_eq!((scratch.tables_allocated, scratch.tables_reused), (1, 0));
        scratch.recycle(t1);
        let t2 = DpTable::new_in(&counts, 2, 1 << 20, &mut scratch).unwrap();
        assert_eq!((scratch.tables_allocated, scratch.tables_reused), (1, 1));
        assert!(t2.values.iter().all(|&v| v == INFEASIBLE));
        assert_eq!(scratch.entries_touched, 24);
    }

    #[test]
    fn scratch_reserve_makes_first_build_a_reuse() {
        let mut counts = vec![0u32; 16];
        counts[2] = 2;
        counts[4] = 3;
        let needed = DpTable::entries_needed(&counts, 2, 1 << 20).unwrap();
        assert_eq!(needed, 12);
        let mut scratch = DpScratch::new();
        scratch.reserve(needed);
        assert_eq!(scratch.tables_allocated, 1);
        let _t = DpTable::new_in(&counts, 2, 1 << 20, &mut scratch).unwrap();
        assert_eq!((scratch.tables_allocated, scratch.tables_reused), (1, 1));
    }

    #[test]
    fn kernel_buffer_pool_counts_only_fresh_creations() {
        let mut scratch = DpScratch::new();
        let bufs = scratch.take_kernel_bufs(3);
        assert_eq!(scratch.kernel_allocs, 3);
        scratch.return_kernel_bufs(bufs);
        let again = scratch.take_kernel_bufs(3);
        assert_eq!(scratch.kernel_allocs, 3);
        scratch.return_kernel_bufs(again);
        let grown = scratch.take_kernel_bufs(4);
        assert_eq!(scratch.kernel_allocs, 4);
        scratch.return_kernel_bufs(grown);
    }

    #[test]
    #[should_panic(expected = "leaked its kernel buffers")]
    fn unreturned_kernel_buffers_fail_the_next_take() {
        let mut scratch = DpScratch::new();
        let bufs = scratch.take_kernel_bufs(2);
        drop(bufs); // lost without return_kernel_bufs — the leak under test
        let _ = scratch.take_kernel_bufs(2);
    }

    #[test]
    fn kernel_scratch_prepare_sizes_all_buffers() {
        let mut ks = KernelScratch::default();
        ks.prepare(3, 40);
        assert!(ks.digits.len() >= 3);
        assert!(ks.steps.len() >= 40);
        assert!(ks.lanes.len() >= 40);
        // Re-preparing smaller keeps capacity (no shrink, no realloc).
        let steps_ptr = ks.steps.as_ptr();
        ks.prepare(2, 16);
        assert_eq!(ks.steps.as_ptr(), steps_ptr);
    }

    #[test]
    fn value_at_reads_row_major_ranks() {
        let mut t = paper_table();
        for rank in 0..t.len {
            t.values[rank] = rank as u16;
        }
        for rank in 0..t.len {
            assert_eq!(t.value_at(rank), rank as u16);
        }
    }
}
