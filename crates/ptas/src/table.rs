//! The dense DP table: a mixed-radix (row-major) indexing of all vectors
//! `v ≤ N`, exactly the layout the paper's array `V` uses (Section III).
//!
//! To keep the table compact the indexing is built over the *active* classes
//! only (classes with `n_i > 0`); inactive classes contribute a radix of 1
//! and are elided. The paper's example `N = (…,2,…,3,…)` therefore maps to
//! dims `[3, 4]` and σ = 12 entries, matching Table I.

use pcmax_core::Time;

/// Value stored for an unreachable/infeasible subproblem.
pub const INFEASIBLE: u16 = u16::MAX;

/// Lane width `W` of the batched strip kernel: 16 `u16` values fill one
/// 256-bit vector register, so the min-reduce over a strip is a single
/// AVX2 `vpminuw` (or two NEON `uminq`) per transition. The portable
/// fallback is a fixed-width array loop the compiler autovectorizes at
/// whatever ISA it targets. Partial strips pad to this width with
/// [`INFEASIBLE`] lanes, which the saturating min/add keep absorbing.
pub const STRIP_LANES: usize = 16;

/// Per-worker scratch of the batched wavefront cell kernel: the mixed-radix
/// walk vector plus the tile-sized staging buffers of the strip kernel. All
/// growth happens in [`prepare`](Self::prepare), *before* the level sweeps
/// start — the inner `next_in_level` walk never touches the allocator
/// (enforced by the `alloc-hot` lint and the pinned `kernel_allocs`
/// counter).
#[derive(Debug, Default)]
pub struct KernelScratch {
    /// Current digit vector of the incremental in-level walk (`k` digits).
    pub digits: Vec<u32>,
    /// Transposed per-tile digit block: `block[(s·k + a)·W + i]` is digit
    /// `a` of the `i`-th cell of strip `s` (class-major within a strip, so
    /// the per-transition `fits` check is a lane-parallel compare).
    pub block: Vec<u32>,
    /// Row-major ranks of the tile's cells (copied from the layout's `inv`).
    pub ranks: Vec<u32>,
    /// Per-cell running minima for the tile, padded to whole strips.
    pub best: Vec<u16>,
}

impl KernelScratch {
    /// Grows every buffer to the given walk width / tile capacity. Called
    /// once per sweep so later per-level use is allocation-free.
    pub fn prepare(&mut self, k: usize, tile_cells: usize) {
        debug_assert_eq!(tile_cells % STRIP_LANES, 0, "tiles are whole strips");
        if self.digits.len() < k {
            self.digits.resize(k, 0);
        }
        if self.block.len() < k * tile_cells {
            self.block.resize(k * tile_cells, 0);
        }
        if self.ranks.len() < tile_cells {
            self.ranks.resize(tile_cells, 0);
        }
        if self.best.len() < tile_cells {
            self.best.resize(tile_cells, INFEASIBLE);
        }
    }
}

/// Reusable allocation arena threaded through `SpaceEngine::solve_in`: the
/// dense value table, its level-major layout and the kernel buffers are
/// allocated once per PTAS run and recycled across bisection probes, so
/// repeated probes stop paying the `O(σ)` allocation cost. The counters
/// surface in `SolveStats`, making the reuse observable from the outside.
#[derive(Debug, Default)]
pub struct DpScratch {
    /// Recycled backing store for [`DpTable::values`].
    values: Vec<u16>,
    /// Recycled backing store for [`LevelLayout::perm`].
    perm: Vec<u32>,
    /// Recycled backing store for [`LevelLayout::inv`].
    inv: Vec<u32>,
    /// Recycled backing store for [`LevelLayout::starts`].
    starts: Vec<u32>,
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
    /// Anti-diagonal levels swept by the parallel executors.
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

    /// Returns a finished table's backing store (values and, for level-major
    /// tables, the permutation arrays) for the next probe.
    pub fn recycle(&mut self, table: DpTable) {
        if table.values.capacity() > self.values.capacity() {
            self.values = table.values;
        }
        if let Some(layout) = table.layout {
            self.perm = layout.perm;
            self.inv = layout.inv;
            self.starts = layout.starts;
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

/// The level-major permutation of a table: a bijection between row-major
/// ranks and storage positions that lays every anti-diagonal level out as
/// one contiguous slice (level 0 first, then level 1, …). Within a level,
/// entries keep ascending row-major order, so the wavefront's per-level
/// writes are a partition of `starts[l]..starts[l+1]` and all of its reads
/// land strictly below `starts[l]` — the disjoint-write argument becomes a
/// property of slice boundaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelLayout {
    /// `perm[rank] = position`: where row-major rank `rank` is stored.
    perm: Vec<u32>,
    /// `inv[position] = rank`: the row-major rank stored at `position`.
    inv: Vec<u32>,
    /// `starts[l]..starts[l + 1]` is level `l`'s slice; `levels + 1` entries.
    starts: Vec<u32>,
}

impl LevelLayout {
    /// The row-major-rank → storage-position permutation.
    #[inline]
    pub fn perm(&self) -> &[u32] {
        &self.perm
    }

    /// The storage-position → row-major-rank inverse permutation.
    #[inline]
    pub fn inv(&self) -> &[u32] {
        &self.inv
    }

    /// Level slice boundaries (`levels + 1` entries, `starts[0] = 0`).
    #[inline]
    pub fn starts(&self) -> &[u32] {
        &self.starts
    }

    /// Storage position of row-major rank `rank`.
    #[inline]
    pub fn position_of(&self, rank: usize) -> usize {
        self.perm[rank] as usize
    }

    /// The contiguous storage span of level `l`.
    #[inline]
    pub fn level_span(&self, l: u32) -> std::ops::Range<usize> {
        let l = l as usize;
        self.starts[l] as usize..self.starts[l + 1] as usize
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
    /// Per-entry `OPT` values (`INFEASIBLE` = not computable). Stored in
    /// row-major order when `layout` is `None`, in level-major order (see
    /// [`LevelLayout`]) otherwise; [`value_at`](Self::value_at) reads
    /// through either layout by row-major rank.
    pub values: Vec<u16>,
    /// The level-major permutation, if this table stores `values` with each
    /// anti-diagonal level contiguous.
    pub layout: Option<LevelLayout>,
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
            layout: None,
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
            layout: None,
        })
    }

    /// Like [`new`](Self::new), but stores `values` level-major: each
    /// anti-diagonal level occupies one contiguous slice (see
    /// [`LevelLayout`]). Used by the wavefront executors so the per-level
    /// scatter is a parallel in-place write over disjoint sub-slices.
    pub fn new_level_major(counts: &[u32], unit: Time, max_entries: usize) -> Option<Self> {
        let mut scratch = DpScratch::new();
        Self::new_level_major_in(counts, unit, max_entries, &mut scratch)
    }

    /// Like [`new_level_major`](Self::new_level_major), but the value store
    /// and the permutation arrays come from the reusable `scratch` arena.
    pub fn new_level_major_in(
        counts: &[u32],
        unit: Time,
        max_entries: usize,
        scratch: &mut DpScratch,
    ) -> Option<Self> {
        let mut table = Self::new_in(counts, unit, max_entries, scratch)?;
        table.layout = Some(table.build_level_layout(scratch));
        Some(table)
    }

    /// Builds the level-major permutation by counting sort over digit sums:
    /// two incremental mixed-radix passes, O(σ) time, recycled storage.
    fn build_level_layout(&self, scratch: &mut DpScratch) -> LevelLayout {
        // Same representable-range guard as `level_buckets`: σ is capped
        // by the caller-chosen `max_entries`, so re-assert u32 before the
        // narrowing stores below.
        assert!(
            u32::try_from(self.len).is_ok(),
            "table too large for u32 level-major permutation ({} entries)",
            self.len
        );
        let levels = self.levels() as usize;
        let mut perm = std::mem::take(&mut scratch.perm);
        let mut inv = std::mem::take(&mut scratch.inv);
        let mut starts = std::mem::take(&mut scratch.starts);
        perm.clear();
        perm.resize(self.len, 0);
        inv.clear();
        inv.resize(self.len, 0);
        starts.clear();
        starts.resize(levels + 1, 0);

        // Pass 1: histogram of level sizes (shifted by one for the prefix
        // sum), via the same incremental counter as `level_buckets`.
        let mut v = vec![0u32; self.dims.len()];
        let mut sum = 0u32;
        for _ in 0..self.len {
            starts[sum as usize + 1] += 1;
            increment_with_sum(&mut v, &self.dims, &mut sum);
        }
        for l in 0..levels {
            starts[l + 1] += starts[l];
        }

        // Pass 2: place each rank at its level's cursor. Within a level the
        // scan order (ascending rank) is preserved, so level slices stay in
        // ascending row-major order — the invariant the incremental in-level
        // decode of the cell kernel relies on.
        let mut cursor: Vec<u32> = starts[..levels].to_vec();
        v.iter_mut().for_each(|d| *d = 0);
        sum = 0;
        for (rank, slot) in perm.iter_mut().enumerate() {
            let pos = cursor[sum as usize];
            cursor[sum as usize] += 1;
            // audit:allow(cast): rank < self.len, asserted to fit u32 above.
            inv[pos as usize] = rank as u32;
            *slot = pos;
            increment_with_sum(&mut v, &self.dims, &mut sum);
        }
        LevelLayout { perm, inv, starts }
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

    /// Storage position of row-major rank `rank` under the current layout
    /// (identity for row-major tables).
    #[inline]
    pub fn position_of(&self, rank: usize) -> usize {
        match &self.layout {
            Some(layout) => layout.position_of(rank),
            None => rank,
        }
    }

    /// Reads the value of row-major rank `rank`, translating through the
    /// level-major permutation when present. Witness extraction and the
    /// solve epilogue go through this so they are layout-agnostic.
    #[inline]
    pub fn value_at(&self, rank: usize) -> u16 {
        self.values[self.position_of(rank)]
    }

    /// The values in row-major order regardless of storage layout — the
    /// canonical form for bit-identical comparisons against the serial engine.
    pub fn values_row_major(&self) -> Vec<u16> {
        match &self.layout {
            Some(layout) => layout.inv.iter().enumerate().fold(
                vec![INFEASIBLE; self.len],
                |mut out, (pos, &rank)| {
                    out[rank as usize] = self.values[pos];
                    out
                },
            ),
            None => self.values.clone(),
        }
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
fn increment_with_sum(v: &mut [u32], dims: &[u32], sum: &mut u32) {
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
/// allocation-free form of [`DpTable::decode`] used by the wavefront cell
/// kernel to seed its per-level incremental walk.
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

/// Advances `v` to the lexicographically next vector with the *same* digit
/// sum (bounded composition successor). Returns `false` when `v` was the
/// last vector of its level. Ascending lex order over a level equals
/// ascending row-major rank, so walking a level slice with this is exactly
/// the bucket order of [`DpTable::level_buckets`] — without materializing
/// the bucket or decoding each cell from scratch.
pub fn next_in_level(v: &mut [u32], dims: &[u32]) -> bool {
    let k = v.len();
    if k < 2 {
        return false;
    }
    // Suffix digit sum to the right of the pivot candidate.
    let mut suffix: u32 = 0;
    for i in (0..k - 1).rev() {
        suffix += v[i + 1];
        if suffix >= 1 && v[i] + 1 < dims[i] {
            // Bump the pivot, then right-pack the remaining suffix sum so
            // the suffix is lexicographically smallest.
            v[i] += 1;
            let mut rest = suffix - 1;
            for j in (i + 1..k).rev() {
                let d = rest.min(dims[j] - 1);
                v[j] = d;
                rest -= d;
            }
            debug_assert_eq!(rest, 0, "level sum not representable in suffix radices");
            return true;
        }
    }
    false
}

/// Batched form of the in-level walk: records `width` consecutive
/// same-level vectors starting at the *current* value of `digits` into
/// `block` class-major (`block[a * STRIP_LANES + i]` = digit `a` of the
/// `i`-th recorded cell), advancing `digits` by `width − 1` successor steps.
/// Lanes `width..STRIP_LANES` keep whatever `block` held — callers mask
/// partial strips, they never read the padding as digits.
///
/// Returns `false` if the level ran out before `width` cells were recorded
/// (a caller bug: strips must not straddle a level boundary).
#[inline]
pub fn strip_digits(digits: &mut [u32], dims: &[u32], block: &mut [u32], width: usize) -> bool {
    debug_assert!((1..=STRIP_LANES).contains(&width));
    debug_assert!(block.len() >= digits.len() * STRIP_LANES);
    for i in 0..width {
        for (a, &d) in digits.iter().enumerate() {
            block[a * STRIP_LANES + i] = d;
        }
        if i + 1 < width && !next_in_level(digits, dims) {
            return false;
        }
    }
    true
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
    fn level_layout_is_a_level_sorted_bijection() {
        let mut counts = vec![0u32; 16];
        counts[2] = 2;
        counts[4] = 3;
        let t = DpTable::new_level_major(&counts, 2, 1 << 20).unwrap();
        let layout = t.layout.as_ref().unwrap();
        // The paper's table: level sizes 1,2,3,3,2,1 -> prefix starts.
        assert_eq!(layout.starts(), &[0, 1, 3, 6, 9, 11, 12]);
        // Bijection: perm ∘ inv = id and inv ∘ perm = id.
        for rank in 0..t.len {
            assert_eq!(layout.inv()[layout.perm()[rank] as usize] as usize, rank);
        }
        // Positions within a level hold ascending ranks of exactly that level.
        for l in 0..t.levels() {
            let span = layout.level_span(l);
            let ranks: Vec<u32> = layout.inv()[span].to_vec();
            assert!(ranks.windows(2).all(|w| w[0] < w[1]));
            for &rank in &ranks {
                assert_eq!(t.level_of(rank as usize), l);
            }
        }
        // Level slices agree with the bucket enumeration.
        let buckets = t.level_buckets();
        for (l, bucket) in buckets.iter().enumerate() {
            let span = layout.level_span(l as u32);
            assert_eq!(&layout.inv()[span], bucket.as_slice());
        }
    }

    #[test]
    fn value_at_translates_and_row_major_roundtrips() {
        let mut counts = vec![0u32; 16];
        counts[2] = 2;
        counts[4] = 3;
        let mut t = DpTable::new_level_major(&counts, 2, 1 << 20).unwrap();
        // Write rank r's value at its storage position; read back via rank.
        for rank in 0..t.len {
            let pos = t.position_of(rank);
            t.values[pos] = rank as u16;
        }
        for rank in 0..t.len {
            assert_eq!(t.value_at(rank), rank as u16);
        }
        let rm = t.values_row_major();
        assert_eq!(rm, (0..t.len as u16).collect::<Vec<u16>>());
        // A row-major table's views are the identity.
        let plain = paper_table();
        assert_eq!(plain.values_row_major(), plain.values);
        assert_eq!(plain.position_of(7), 7);
    }

    #[test]
    fn level_major_scratch_recycles_permutation_arrays() {
        let mut counts = vec![0u32; 16];
        counts[2] = 2;
        counts[4] = 3;
        let mut scratch = DpScratch::new();
        let t1 = DpTable::new_level_major_in(&counts, 2, 1 << 20, &mut scratch).unwrap();
        let expect = t1.layout.clone().unwrap();
        scratch.recycle(t1);
        let t2 = DpTable::new_level_major_in(&counts, 2, 1 << 20, &mut scratch).unwrap();
        assert_eq!(t2.layout.as_ref(), Some(&expect));
        assert!(t2.values.iter().all(|&v| v == INFEASIBLE));
        assert_eq!((scratch.tables_allocated, scratch.tables_reused), (1, 1));
    }

    #[test]
    fn next_in_level_walks_buckets_in_order() {
        let t = paper_table();
        let buckets = t.level_buckets();
        let mut digits = Vec::new();
        for bucket in &buckets {
            decode_into(bucket[0] as usize, &t.strides, &mut digits);
            for (i, &rank) in bucket.iter().enumerate() {
                assert_eq!(digits, t.decode(rank as usize));
                let more = next_in_level(&mut digits, &t.dims);
                assert_eq!(more, i + 1 < bucket.len());
            }
        }
    }

    #[test]
    fn next_in_level_matches_buckets_on_wider_radices() {
        let t = DpTable::new(&[1, 2, 0, 3, 1], 1, 1 << 20).unwrap();
        let buckets = t.level_buckets();
        let mut digits = Vec::new();
        for bucket in &buckets {
            decode_into(bucket[0] as usize, &t.strides, &mut digits);
            let mut walked = vec![t.index(&digits) as u32];
            while next_in_level(&mut digits, &t.dims) {
                walked.push(t.index(&digits) as u32);
            }
            assert_eq!(&walked, bucket);
        }
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
    fn strip_digits_matches_the_scalar_walk() {
        let t = DpTable::new(&[1, 2, 0, 3, 1], 1, 1 << 20).unwrap();
        let k = t.dims.len();
        let mut block = vec![0u32; k * STRIP_LANES];
        for bucket in t.level_buckets() {
            let mut digits = Vec::new();
            decode_into(bucket[0] as usize, &t.strides, &mut digits);
            let mut cell = 0usize;
            while cell < bucket.len() {
                let width = (bucket.len() - cell).min(STRIP_LANES);
                assert!(strip_digits(&mut digits, &t.dims, &mut block, width));
                for i in 0..width {
                    let want = t.decode(bucket[cell + i] as usize);
                    let got: Vec<u32> = (0..k).map(|a| block[a * STRIP_LANES + i]).collect();
                    assert_eq!(got, want, "strip lane {i} at bucket cell {cell}");
                }
                cell += width;
                if cell < bucket.len() {
                    assert!(next_in_level(&mut digits, &t.dims));
                }
            }
            assert!(!next_in_level(&mut digits, &t.dims), "level must be spent");
        }
    }

    #[test]
    fn strip_digits_handles_width_one_and_radix_one() {
        // A single-cell strip never advances — the shape of a level-0/last
        // level cell and of any radix-1 walk (`next_in_level` on k < 2).
        let mut digits = vec![3u32];
        let mut block = vec![u32::MAX; STRIP_LANES];
        assert!(strip_digits(&mut digits, &[7], &mut block, 1));
        assert_eq!(block[0], 3);
        assert_eq!(digits, vec![3]);
        // Asking for more cells than the level holds reports the shortfall.
        let mut digits = vec![0u32, 0];
        let mut block = vec![0u32; 2 * STRIP_LANES];
        assert!(!strip_digits(&mut digits, &[1, 1], &mut block, 2));
    }

    #[test]
    fn kernel_scratch_prepare_sizes_all_buffers() {
        let mut ks = KernelScratch::default();
        ks.prepare(3, 2 * STRIP_LANES);
        assert!(ks.digits.len() >= 3);
        assert!(ks.block.len() >= 3 * 2 * STRIP_LANES);
        assert!(ks.ranks.len() >= 2 * STRIP_LANES);
        assert!(ks.best.len() >= 2 * STRIP_LANES);
        // Re-preparing smaller keeps capacity (no shrink, no realloc).
        let block_ptr = ks.block.as_ptr();
        ks.prepare(2, STRIP_LANES);
        assert_eq!(ks.block.as_ptr(), block_ptr);
    }
}
