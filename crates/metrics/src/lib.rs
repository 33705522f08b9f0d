//! Always-on aggregated metrics for the pcmax workspace.
//!
//! `pcmax-trace` (DESIGN.md §4d) answers "what happened inside *one* solve"
//! by recording every event; this crate answers the complementary fleet
//! question — "how are *all* solves behaving over time" — by aggregating in
//! place. It is the observability contract the future `pcmax-serve` daemon
//! scrapes (ROADMAP Open item 1), with zero external dependencies:
//!
//! * [`Counter`] — monotonic, sharded over cache-line-padded atomics so
//!   concurrent workers never bounce one hot line.
//! * [`Gauge`] — last-write-wins `f64` (cells/sec and friends).
//! * [`Histogram`] — 64 log2 buckets, fixed size, zero allocation on the
//!   record path; mergeable snapshots with p50/p90/p99/max estimation whose
//!   error is bounded by the bucket width (power-of-two resolution).
//! * A process-wide registry of `static` metric handles. Handles register
//!   themselves lazily on first record, so declaring a metric is free and
//!   the hot path stays: one relaxed "enabled" load, one relaxed
//!   "registered" load, then the relaxed atomic update(s) — the same cost
//!   class as a disabled trace hook (`metrics_overhead` in `pcmax-bench`
//!   pins it under 50 ns/event).
//! * Two exporters over the in-tree `pcmax_core::json` codec: Prometheus
//!   text exposition and a round-trippable JSON snapshot ([`export`]).
//!
//! Unlike a trace session, metrics are **on by default** ([`set_enabled`]
//! turns them off, e.g. to prove solver results are bit-identical either
//! way). Recording never blocks and never allocates; only the *first*
//! record of a handle (registration) and the first use of a new
//! [`Family`] label take a short-lived mutex, both off the per-cell path
//! by construction (the audit lint's `trace-hot`/`alloc-hot` rules ban
//! `inc`/`observe`/`with_label` from the cell-kernel loops).
//!
//! Relaxed orderings throughout are justified the same way as the trace
//! flag: counters are commutative updates with no data published through
//! them, and snapshots tolerate transiently skewed cross-metric reads
//! (see the `lock`-free helpers below and crates/audit/lint.allow).

pub mod export;

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Number of cache-padded shards per [`Counter`]. Eight covers the pool
/// sizes the wavefront executors use; larger pools hash onto shared shards
/// and only lose some padding, never correctness.
pub const COUNTER_SHARDS: usize = 8;

/// Number of log2 buckets per [`Histogram`]. Bucket 0 holds zero, bucket
/// `b ≥ 1` holds `[2^(b-1), 2^b)`; the last bucket saturates upward.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Whether recording is active. Metrics are always-on by default.
static ENABLED: AtomicBool = AtomicBool::new(true);

#[inline(always)]
fn on() -> bool {
    // audit:allow(relaxed): payload-free on/off flag, same argument as the
    // trace ENABLED flag — no data is published through it; the aggregates
    // are themselves atomics. See crates/audit/lint.allow.
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off process-wide. Metric *declaration*, snapshot
/// and reset work either way; only the record path checks this flag.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Release);
}

/// Whether recording is currently enabled.
pub fn enabled() -> bool {
    on()
}

/// Relaxed monotonic add — every aggregate update in this crate.
#[inline(always)]
fn radd(cell: &AtomicU64, n: u64) {
    // audit:allow(relaxed): commutative counter update; nothing is
    // published through the value and readers tolerate staleness.
    cell.fetch_add(n, Ordering::Relaxed);
}

/// Relaxed aggregate read (snapshots tolerate staleness and skew).
#[inline(always)]
fn rload(cell: &AtomicU64) -> u64 {
    // audit:allow(relaxed): see radd — snapshot reads of commutative
    // aggregates; cross-shard skew is inherent to sharded counters.
    cell.load(Ordering::Relaxed)
}

/// Relaxed running max.
#[inline(always)]
fn rmax(cell: &AtomicU64, v: u64) {
    // audit:allow(relaxed): fetch_max only needs RMW atomicity; the max is
    // an aggregate read back by snapshots, never a publication gate.
    cell.fetch_max(v, Ordering::Relaxed);
}

/// Poison-tolerant lock: a panicking solver thread must not wedge the
/// registry (same policy as the trace runtime).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A sampled metric value, as carried by [`Sample`].
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// Monotonic counter total.
    Counter(u64),
    /// Last-set gauge value.
    Gauge(f64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

impl SampleValue {
    /// Kind tag used by both exporters (`counter` / `gauge` / `histogram`).
    pub fn kind(&self) -> &'static str {
        match self {
            SampleValue::Counter(_) => "counter",
            SampleValue::Gauge(_) => "gauge",
            SampleValue::Histogram(_) => "histogram",
        }
    }
}

/// One metric (or one labeled child of a [`Family`]) at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (`pcmax_solve_latency_nanos`, …).
    pub name: String,
    /// One-line help string.
    pub help: String,
    /// `Some((key, value))` for family children, `None` for plain metrics.
    pub label: Option<(String, String)>,
    /// The sampled value.
    pub value: SampleValue,
}

/// A point-in-time copy of every registered metric, sorted by
/// `(name, label)` so exports are deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// The samples, in sorted order.
    pub samples: Vec<Sample>,
}

impl Snapshot {
    /// Looks up a counter total by name and optional label value.
    pub fn counter(&self, name: &str, label: Option<&str>) -> Option<u64> {
        match self.find(name, label)? {
            SampleValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Looks up a gauge value by name and optional label value.
    pub fn gauge(&self, name: &str, label: Option<&str>) -> Option<f64> {
        match self.find(name, label)? {
            SampleValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// Looks up a histogram by name and optional label value.
    pub fn histogram(&self, name: &str, label: Option<&str>) -> Option<&HistogramSnapshot> {
        match self.find(name, label)? {
            SampleValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    fn find(&self, name: &str, label: Option<&str>) -> Option<&SampleValue> {
        self.samples
            .iter()
            .find(|s| s.name == name && s.label.as_ref().map(|(_, v)| v.as_str()) == label)
            .map(|s| &s.value)
    }
}

/// Anything the registry can sample and reset. Implemented by the three
/// metric types and by [`Family`].
trait Collect: Sync {
    fn collect(&self, out: &mut Vec<Sample>);
    fn reset(&self);
}

/// The process-wide registry: every handle that has recorded at least once.
static REGISTRY: Mutex<Vec<&'static dyn Collect>> = Mutex::new(Vec::new());

/// Samples every registered metric into a sorted [`Snapshot`].
pub fn snapshot() -> Snapshot {
    let mut samples = Vec::new();
    for metric in lock(&REGISTRY).iter() {
        metric.collect(&mut samples);
    }
    samples.sort_by(|a, b| (&a.name, &a.label).cmp(&(&b.name, &b.label)));
    Snapshot { samples }
}

/// Zeroes every registered metric (counters, gauges, histograms, and all
/// family children). Registration is preserved; use it to start a clean
/// measurement window (the `pcmax metrics` command does).
pub fn reset() {
    for metric in lock(&REGISTRY).iter() {
        metric.reset();
    }
}

/// Lazy self-registration shared by the static handles: one relaxed load
/// when already registered, a mutex + double-check the first time.
struct Registered(AtomicBool);

impl Registered {
    const fn new() -> Self {
        Self(AtomicBool::new(false))
    }

    /// A pre-registered marker for [`Family`] children (the family itself
    /// is the registry entry; children must not register twice).
    const fn pre() -> Self {
        Self(AtomicBool::new(true))
    }

    #[inline(always)]
    fn ensure(&self, metric: &'static dyn Collect) {
        // audit:allow(relaxed): one-way false->true flag; the slow path
        // re-checks under the registry mutex, which orders the push.
        if !self.0.load(Ordering::Relaxed) {
            self.register_slow(metric);
        }
    }

    #[cold]
    fn register_slow(&self, metric: &'static dyn Collect) {
        let mut reg = lock(&REGISTRY);
        // audit:allow(relaxed): double-check under the lock; the mutex is
        // the ordering edge, the flag only skips the lock next time.
        if !self.0.load(Ordering::Relaxed) {
            reg.push(metric);
            self.0.store(true, Ordering::Release);
        }
    }
}

/// One cache-line-padded counter shard.
#[repr(align(64))]
struct Shard(AtomicU64);

/// Round-robin shard assignment per thread: a thread-local hint handed out
/// once, so the hot path is a TLS read plus a masked index.
fn shard_hint() -> usize {
    thread_local! {
        static HINT: usize = {
            static NEXT: AtomicUsize = AtomicUsize::new(0);
            // audit:allow(relaxed): id allocation; only uniqueness matters.
            NEXT.fetch_add(1, Ordering::Relaxed)
        };
    }
    HINT.try_with(|h| *h).unwrap_or(0) % COUNTER_SHARDS
}

/// A monotonic counter, sharded to keep concurrent workers off one cache
/// line. Declare as a `static`; recording is wait-free.
pub struct Counter {
    name: &'static str,
    help: &'static str,
    registered: Registered,
    shards: [Shard; COUNTER_SHARDS],
}

impl Counter {
    /// A new counter handle (const: usable in `static` position).
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            help,
            registered: Registered::new(),
            shards: [const { Shard(AtomicU64::new(0)) }; COUNTER_SHARDS],
        }
    }

    const fn child(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            help,
            registered: Registered::pre(),
            shards: [const { Shard(AtomicU64::new(0)) }; COUNTER_SHARDS],
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&'static self) {
        self.inc_by(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn inc_by(&'static self, n: u64) {
        if !on() {
            return;
        }
        self.registered.ensure(self);
        radd(&self.shards[shard_hint()].0, n);
    }

    /// Current total across all shards.
    pub fn get(&self) -> u64 {
        self.shards.iter().map(|s| rload(&s.0)).sum()
    }

    fn zero(&self) {
        for s in &self.shards {
            // audit:allow(relaxed): reset of a commutative aggregate; racy
            // concurrent adds may land on either side, which a measurement
            // window restart accepts by definition.
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

impl Collect for Counter {
    fn collect(&self, out: &mut Vec<Sample>) {
        out.push(Sample {
            name: self.name.to_string(),
            help: self.help.to_string(),
            label: None,
            value: SampleValue::Counter(self.get()),
        });
    }

    fn reset(&self) {
        self.zero();
    }
}

/// A last-write-wins gauge storing an `f64` (bit-cast into one atomic).
pub struct Gauge {
    name: &'static str,
    help: &'static str,
    registered: Registered,
    bits: AtomicU64,
}

impl Gauge {
    /// A new gauge handle (const: usable in `static` position).
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            help,
            registered: Registered::new(),
            bits: AtomicU64::new(0),
        }
    }

    const fn child(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            help,
            registered: Registered::pre(),
            bits: AtomicU64::new(0),
        }
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&'static self, v: f64) {
        if !on() {
            return;
        }
        self.registered.ensure(self);
        // audit:allow(relaxed): last-write-wins sample; readers only ever
        // observe some previously stored value.
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value (0.0 before the first `set`).
    pub fn get(&self) -> f64 {
        f64::from_bits(rload(&self.bits))
    }
}

impl Collect for Gauge {
    fn collect(&self, out: &mut Vec<Sample>) {
        out.push(Sample {
            name: self.name.to_string(),
            help: self.help.to_string(),
            label: None,
            value: SampleValue::Gauge(self.get()),
        });
    }

    fn reset(&self) {
        // audit:allow(relaxed): see Gauge::set.
        self.bits.store(0, Ordering::Relaxed);
    }
}

/// Index of the log2 bucket holding `v`.
#[inline(always)]
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive `[lo, hi]` value range of bucket `b`. The last bucket
/// saturates: everything at or above `2^62` lands there.
pub fn bucket_bounds(b: usize) -> (u64, u64) {
    match b {
        0 => (0, 0),
        b if b >= HISTOGRAM_BUCKETS - 1 => (1 << (HISTOGRAM_BUCKETS - 2), u64::MAX),
        b => (1 << (b - 1), (1 << b) - 1),
    }
}

/// A fixed-size log2-bucketed histogram. Recording is three relaxed atomic
/// updates (bucket, sum, max) and never allocates; quantiles are estimated
/// from a [`HistogramSnapshot`] with error bounded by the bucket width.
pub struct Histogram {
    name: &'static str,
    help: &'static str,
    registered: Registered,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// A new histogram handle (const: usable in `static` position).
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            help,
            registered: Registered::new(),
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    const fn child(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            help,
            registered: Registered::pre(),
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&'static self, v: u64) {
        if !on() {
            return;
        }
        self.registered.ensure(self);
        radd(&self.buckets[bucket_of(v)], 1);
        radd(&self.sum, v);
        rmax(&self.max, v);
    }

    /// Copies the current state out.
    pub fn sample(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.iter().map(rload).collect(),
            sum: rload(&self.sum),
            max: rload(&self.max),
        }
    }

    fn zero(&self) {
        for b in &self.buckets {
            // audit:allow(relaxed): measurement-window reset, see
            // Counter::zero.
            b.store(0, Ordering::Relaxed);
        }
        // audit:allow(relaxed): as above.
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

impl Collect for Histogram {
    fn collect(&self, out: &mut Vec<Sample>) {
        out.push(Sample {
            name: self.name.to_string(),
            help: self.help.to_string(),
            label: None,
            value: SampleValue::Histogram(self.sample()),
        });
    }

    fn reset(&self) {
        self.zero();
    }
}

/// The sampled state of a [`Histogram`]: per-bucket counts, the exact sum
/// and the exact max. Mergeable and quantile-estimating.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// One count per log2 bucket ([`HISTOGRAM_BUCKETS`] entries).
    pub buckets: Vec<u64>,
    /// Exact sum of all observations.
    pub sum: u64,
    /// Exact maximum observation (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot.
    pub fn empty() -> Self {
        Self {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            sum: 0,
            max: 0,
        }
    }

    /// Total observation count.
    pub fn count(&self) -> u64 {
        self.buckets.iter().fold(0u64, |n, &c| n.saturating_add(c))
    }

    /// Mean observation, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.sum as f64 / n as f64)
    }

    /// Adds `other`'s observations into `self` (bucket-wise sum, max of
    /// maxes) — the merge used to aggregate per-shard or per-run state.
    /// Counts and the value sum saturate at `u64::MAX` rather than wrap:
    /// a pegged aggregate is visibly wrong, a wrapped one is silently so.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a = a.saturating_add(*b);
        }
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`), `None` when empty. The rank
    /// is located in its bucket and interpolated linearly inside the bucket
    /// bounds, so the estimate is always within the true quantile's bucket
    /// — an absolute error no larger than the bucket width. The top end is
    /// clamped to the exact recorded max.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * n as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let (lo, hi) = bucket_bounds(b);
                let hi = hi.min(self.max).max(lo);
                let within = (rank - seen) as f64 / c as f64;
                return Some(lo as f64 + (hi - lo) as f64 * within);
            }
            seen += c;
        }
        Some(self.max as f64)
    }
}

/// A labeled family of metrics (e.g. one latency histogram per solver).
/// Children are created on first use of a label and live forever (the
/// label sets in this workspace are small and closed: solver names,
/// outcome classes, worker indices). `with_label` takes a mutex — resolve
/// children *outside* hot loops and cache the `&'static` handle.
pub struct Family<M: 'static> {
    name: &'static str,
    help: &'static str,
    label_key: &'static str,
    registered: Registered,
    children: Mutex<Vec<(String, &'static M)>>,
}

/// Declares a labeled [`Family`] (const: usable in `static` position).
pub const fn family<M: Metric>(
    name: &'static str,
    help: &'static str,
    label_key: &'static str,
) -> Family<M> {
    Family {
        name,
        help,
        label_key,
        registered: Registered::new(),
        children: Mutex::new(Vec::new()),
    }
}

impl<M: Metric> Family<M> {
    /// Resolves (creating on first use) the child for `label`.
    pub fn with_label(&'static self, label: &str) -> &'static M {
        self.registered.ensure(self);
        let mut children = lock(&self.children);
        if let Some((_, m)) = children.iter().find(|(l, _)| l == label) {
            return m;
        }
        let child: &'static M = Box::leak(Box::new(M::new_child(self.name, self.help)));
        children.push((label.to_string(), child));
        child
    }

    /// Sampled `(label, value)` pairs for every existing child.
    pub fn samples(&self) -> Vec<(String, SampleValue)> {
        lock(&self.children)
            .iter()
            .map(|(l, m)| (l.clone(), m.sample_value()))
            .collect()
    }
}

impl<M: Metric> Collect for Family<M> {
    fn collect(&self, out: &mut Vec<Sample>) {
        for (label, value) in self.samples() {
            out.push(Sample {
                name: self.name.to_string(),
                help: self.help.to_string(),
                label: Some((self.label_key.to_string(), label)),
                value,
            });
        }
    }

    fn reset(&self) {
        for (_, m) in lock(&self.children).iter() {
            m.reset_value();
        }
    }
}

/// The child contract of [`Family`]: constructible, sampleable, resettable.
pub trait Metric: Sync + 'static {
    /// Builds a pre-registered child (the family owns the registry entry).
    fn new_child(name: &'static str, help: &'static str) -> Self;
    /// Samples the current value.
    fn sample_value(&self) -> SampleValue;
    /// Zeroes the value.
    fn reset_value(&self);
}

impl Metric for Counter {
    fn new_child(name: &'static str, help: &'static str) -> Self {
        Counter::child(name, help)
    }
    fn sample_value(&self) -> SampleValue {
        SampleValue::Counter(self.get())
    }
    fn reset_value(&self) {
        self.zero();
    }
}

impl Metric for Gauge {
    fn new_child(name: &'static str, help: &'static str) -> Self {
        Gauge::child(name, help)
    }
    fn sample_value(&self) -> SampleValue {
        SampleValue::Gauge(self.get())
    }
    fn reset_value(&self) {
        // audit:allow(relaxed): see Gauge::set.
        self.bits.store(0, Ordering::Relaxed);
    }
}

impl Metric for Histogram {
    fn new_child(name: &'static str, help: &'static str) -> Self {
        Histogram::child(name, help)
    }
    fn sample_value(&self) -> SampleValue {
        SampleValue::Histogram(self.sample())
    }
    fn reset_value(&self) {
        self.zero();
    }
}

/// A static label for worker index `w`, so per-worker families never
/// allocate a label string on resolution. Pools beyond 16 workers share
/// the overflow label.
pub fn worker_label(w: usize) -> &'static str {
    const LABELS: [&str; 16] = [
        "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15",
    ];
    LABELS.get(w).copied().unwrap_or("16+")
}

#[cfg(test)]
pub(crate) mod test_support {
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// The registry and the enabled flag are process-global; tests that
    /// reset or toggle them serialize on this.
    static SERIAL: Mutex<()> = Mutex::new(());

    pub fn serial() -> MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_shards_and_threads() {
        let _serial = test_support::serial();
        static C: Counter = Counter::new("pcmax_test_shard_total", "sharded test counter");
        C.zero();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        C.inc();
                    }
                });
            }
        });
        assert_eq!(C.get(), 4000);
        C.inc_by(58);
        assert_eq!(C.get(), 4058);
    }

    #[test]
    fn gauge_is_last_write_wins() {
        let _serial = test_support::serial();
        static G: Gauge = Gauge::new("pcmax_test_gauge", "test gauge");
        G.set(1.5);
        G.set(2.25);
        assert_eq!(G.get(), 2.25);
    }

    #[test]
    fn bucket_bounds_partition_the_u64_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
        for v in [0u64, 1, 2, 3, 7, 8, 1023, 1024, 1 << 40, u64::MAX] {
            let (lo, hi) = bucket_bounds(bucket_of(v));
            assert!(lo <= v && v <= hi, "{v} outside its bucket [{lo}, {hi}]");
        }
        // Buckets tile without gaps or overlaps.
        for b in 1..HISTOGRAM_BUCKETS - 1 {
            assert_eq!(bucket_bounds(b).0, bucket_bounds(b - 1).1 + 1);
        }
    }

    #[test]
    fn histogram_quantiles_land_in_the_right_bucket() {
        let _serial = test_support::serial();
        static H: Histogram = Histogram::new("pcmax_test_hist", "test histogram");
        H.zero();
        for v in 1..=1000u64 {
            H.observe(v);
        }
        let snap = H.sample();
        assert_eq!(snap.count(), 1000);
        assert_eq!(snap.sum, 500500);
        assert_eq!(snap.max, 1000);
        for (q, reference) in [(0.5, 500u64), (0.9, 900), (0.99, 990)] {
            let est = snap.quantile(q).unwrap();
            let (lo, hi) = bucket_bounds(bucket_of(reference));
            assert!(
                est >= lo as f64 && est <= hi as f64,
                "q{q}: estimate {est} outside reference bucket [{lo}, {hi}]"
            );
        }
        assert_eq!(snap.quantile(1.0), Some(1000.0), "top clamps to exact max");
    }

    #[test]
    fn merge_is_bucketwise_sum() {
        let _serial = test_support::serial();
        static A: Histogram = Histogram::new("pcmax_test_merge_a", "a");
        static B: Histogram = Histogram::new("pcmax_test_merge_b", "b");
        A.zero();
        B.zero();
        for v in [1u64, 5, 9] {
            A.observe(v);
        }
        for v in [2u64, 100] {
            B.observe(v);
        }
        let mut merged = A.sample();
        merged.merge(&B.sample());
        assert_eq!(merged.count(), 5);
        assert_eq!(merged.sum, 117);
        assert_eq!(merged.max, 100);
    }

    #[test]
    fn disabled_recording_is_invisible() {
        let _serial = test_support::serial();
        static C: Counter = Counter::new("pcmax_test_disabled_total", "disabled test");
        C.zero();
        set_enabled(false);
        C.inc();
        C.inc_by(10);
        set_enabled(true);
        assert_eq!(C.get(), 0);
        C.inc();
        assert_eq!(C.get(), 1);
    }

    #[test]
    fn families_key_children_by_label() {
        let _serial = test_support::serial();
        static F: Family<Counter> = family("pcmax_test_family_total", "family test", "solver");
        F.with_label("lpt").inc_by(3);
        F.with_label("ptas").inc();
        F.with_label("lpt").inc();
        let mut samples = F.samples();
        samples.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0], ("lpt".into(), SampleValue::Counter(4)));
        assert_eq!(samples[1], ("ptas".into(), SampleValue::Counter(1)));
        // Same label resolves to the same child.
        assert!(std::ptr::eq(F.with_label("lpt"), F.with_label("lpt")));
    }

    #[test]
    fn snapshot_collects_and_reset_zeroes() {
        let _serial = test_support::serial();
        static C: Counter = Counter::new("pcmax_test_snap_total", "snapshot test");
        static F: Family<Histogram> = family("pcmax_test_snap_nanos", "snapshot hist", "solver");
        C.zero();
        C.inc_by(7);
        F.with_label("lpt").observe(42);
        let snap = snapshot();
        assert_eq!(snap.counter("pcmax_test_snap_total", None), Some(7));
        let h = snap
            .histogram("pcmax_test_snap_nanos", Some("lpt"))
            .unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum, 42);
        // Sorted by (name, label).
        let names: Vec<&String> = snap.samples.iter().map(|s| &s.name).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);

        reset();
        let snap = snapshot();
        assert_eq!(snap.counter("pcmax_test_snap_total", None), Some(0));
        assert_eq!(
            snap.histogram("pcmax_test_snap_nanos", Some("lpt"))
                .unwrap()
                .count(),
            0
        );
    }

    #[test]
    fn worker_labels_are_static_and_saturate() {
        assert_eq!(worker_label(0), "0");
        assert_eq!(worker_label(15), "15");
        assert_eq!(worker_label(16), "16+");
        assert_eq!(worker_label(999), "16+");
    }
}
