//! Sharded metrics registry.
//!
//! Same write discipline as the §5 tracer: each metric owns one
//! cache-padded cell *per worker shard*, and the owning worker updates
//! its shard with a plain load + store (`Relaxed`, no RMW — the
//! compiled form of a non-atomic increment, kept well-defined for the
//! aggregating reader). Cross-shard aggregation happens only in
//! [`Registry::snapshot`], so the hot path never shares a cache line
//! between writers.
//!
//! Single-writer contract: shard `i` must only be written by the thread
//! acting as worker `i`. Violating it loses increments (two writers can
//! overlap their load/store pairs) but is never undefined behaviour and
//! never corrupts other shards.

use nanotask_locks::CachePadded;
use parking_lot::Mutex;
use std::sync::Arc;
use std::sync::atomic::{AtomicU64, Ordering};

/// Fixed histogram resolution: one bucket per bit-length (pow-2 bounds).
pub const HIST_BUCKETS: usize = 64;

/// Base labels: static keys, owned values.
pub type Labels = Vec<(&'static str, String)>;

fn shard_index(shard: usize, len: usize) -> usize {
    if shard < len { shard } else { len - 1 }
}

struct CounterCells {
    cells: Box<[CachePadded<AtomicU64>]>,
}

impl CounterCells {
    fn new(shards: usize) -> Self {
        Self {
            cells: (0..shards)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
        }
    }

    #[inline]
    fn add(&self, shard: usize, n: u64) {
        let c = &*self.cells[shard_index(shard, self.cells.len())];
        // Plain increment: single-writer per shard, aggregated on read.
        c.store(c.load(Ordering::Relaxed).wrapping_add(n), Ordering::Relaxed);
    }

    fn sum(&self) -> u64 {
        self.cells
            .iter()
            .fold(0u64, |acc, c| acc.wrapping_add(c.load(Ordering::Relaxed)))
    }

    fn max(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0)
    }
}

/// Monotone event counter. `add` is a plain store on the caller's shard.
#[derive(Clone)]
pub struct Counter {
    cells: Arc<CounterCells>,
}

impl Counter {
    /// Add `n` to this worker's shard.
    #[inline]
    pub fn add(&self, shard: usize, n: u64) {
        self.cells.add(shard, n);
    }

    /// Add 1 to this worker's shard.
    #[inline]
    pub fn inc(&self, shard: usize) {
        self.cells.add(shard, 1);
    }

    /// Aggregated value across all shards.
    pub fn value(&self) -> u64 {
        self.cells.sum()
    }
}

/// Absolute-value gauge: one cell, written by [`Gauge::set`] on
/// low-frequency publish paths (e.g. copying allocator stats into a
/// scrape), never per task.
#[derive(Clone)]
pub struct Gauge {
    cells: Arc<CounterCells>,
}

impl Gauge {
    /// Set the gauge to `v`.
    pub fn set(&self, v: u64) {
        self.cells.cells[0].store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.cells.sum()
    }
}

/// High-water-mark gauge: each shard keeps its own maximum, the
/// aggregate is the max over shards.
#[derive(Clone)]
pub struct MaxGauge {
    cells: Arc<CounterCells>,
}

impl MaxGauge {
    /// Raise this worker's shard to at least `v`.
    #[inline]
    pub fn record(&self, shard: usize, v: u64) {
        let c = &*self.cells.cells[shard_index(shard, self.cells.cells.len())];
        if v > c.load(Ordering::Relaxed) {
            c.store(v, Ordering::Relaxed);
        }
    }

    /// Maximum across all shards.
    pub fn value(&self) -> u64 {
        self.cells.max()
    }
}

struct HistShard {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistShard {
    fn new() -> Self {
        Self {
            buckets: core::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

struct HistCells {
    shards: Box<[CachePadded<HistShard>]>,
}

/// Which bucket a value falls into: its bit-length (0 for 0), capped at
/// 63. Bucket `i` (i ≥ 1) therefore holds values in `[2^(i-1), 2^i)`,
/// bounding relative error by 2× at any magnitude — the fixed-size,
/// allocation-free core of an HDR histogram.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// Log-bucketed latency/size histogram (64 pow-2 buckets per shard,
/// plus per-shard count and sum for exact means).
#[derive(Clone)]
pub struct Histogram {
    cells: Arc<HistCells>,
}

impl Histogram {
    /// Record one observation on this worker's shard.
    #[inline]
    pub fn record(&self, shard: usize, v: u64) {
        let s = &*self.cells.shards[shard_index(shard, self.cells.shards.len())];
        let b = &s.buckets[bucket_of(v)];
        b.store(b.load(Ordering::Relaxed).wrapping_add(1), Ordering::Relaxed);
        s.count.store(
            s.count.load(Ordering::Relaxed).wrapping_add(1),
            Ordering::Relaxed,
        );
        s.sum.store(
            s.sum.load(Ordering::Relaxed).wrapping_add(v),
            Ordering::Relaxed,
        );
    }

    /// Aggregate all shards into an owned snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::default();
        for s in self.cells.shards.iter() {
            for (i, b) in s.buckets.iter().enumerate() {
                out.buckets[i] = out.buckets[i].wrapping_add(b.load(Ordering::Relaxed));
            }
            out.count = out.count.wrapping_add(s.count.load(Ordering::Relaxed));
            out.sum = out.sum.wrapping_add(s.sum.load(Ordering::Relaxed));
        }
        out
    }
}

/// Aggregated histogram state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`bucket_of`]).
    pub buckets: [u64; HIST_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Inclusive upper bound of bucket `i` (`u64::MAX` for the last).
    pub fn upper_bound(i: usize) -> u64 {
        match i {
            0 => 0,
            _ if i >= HIST_BUCKETS - 1 => u64::MAX,
            _ => (1u64 << i) - 1,
        }
    }

    /// Mean of the observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile `q` in `[0, 1]`: the upper bound of the
    /// first bucket whose cumulative count reaches `q · count`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= target {
                return Self::upper_bound(i);
            }
        }
        u64::MAX
    }
}

enum Cells {
    Counter(Arc<CounterCells>),
    Gauge(Arc<CounterCells>),
    Max(Arc<CounterCells>),
    Histogram(Arc<HistCells>),
}

struct Entry {
    name: &'static str,
    cells: Cells,
}

struct RegistryInner {
    shards: usize,
    base_labels: Labels,
    metrics: Mutex<Vec<Entry>>,
}

/// Get-or-create metric registry. Cloning is cheap (shared `Arc`);
/// every handle it returns stays valid for the registry's lifetime.
#[derive(Clone)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Registry {
    /// Registry with `shards` per-worker cells per metric (min 1) and no
    /// base labels.
    pub fn new(shards: usize) -> Self {
        Self::with_base(shards, Vec::new())
    }

    /// Registry with base labels attached to every exported metric
    /// (e.g. `scheduler="Delegation", deps="WaitFree"`).
    pub fn with_base(shards: usize, base_labels: Labels) -> Self {
        Self {
            inner: Arc::new(RegistryInner {
                shards: shards.max(1),
                base_labels,
                metrics: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Number of writer shards per metric.
    pub fn shards(&self) -> usize {
        self.inner.shards
    }

    /// Base labels attached to every metric.
    pub fn base_labels(&self) -> &Labels {
        &self.inner.base_labels
    }

    fn lookup<T>(
        &self,
        name: &'static str,
        matches: impl Fn(&Cells) -> Option<T>,
        create: impl FnOnce(usize) -> (Cells, T),
    ) -> T {
        let mut metrics = self.inner.metrics.lock();
        for e in metrics.iter() {
            if e.name == name {
                return matches(&e.cells).unwrap_or_else(|| {
                    panic!("metric {name:?} re-registered with a different type")
                });
            }
        }
        let (cells, handle) = create(self.inner.shards);
        metrics.push(Entry { name, cells });
        handle
    }

    /// Get or create a counter.
    pub fn counter(&self, name: &'static str) -> Counter {
        self.lookup(
            name,
            |c| match c {
                Cells::Counter(cells) => Some(Counter {
                    cells: Arc::clone(cells),
                }),
                _ => None,
            },
            |shards| {
                let cells = Arc::new(CounterCells::new(shards));
                (Cells::Counter(Arc::clone(&cells)), Counter { cells })
            },
        )
    }

    /// Get or create a gauge.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        self.lookup(
            name,
            |c| match c {
                Cells::Gauge(cells) => Some(Gauge {
                    cells: Arc::clone(cells),
                }),
                _ => None,
            },
            |_| {
                let cells = Arc::new(CounterCells::new(1));
                (Cells::Gauge(Arc::clone(&cells)), Gauge { cells })
            },
        )
    }

    /// Get or create a high-water-mark gauge.
    pub fn max_gauge(&self, name: &'static str) -> MaxGauge {
        self.lookup(
            name,
            |c| match c {
                Cells::Max(cells) => Some(MaxGauge {
                    cells: Arc::clone(cells),
                }),
                _ => None,
            },
            |shards| {
                let cells = Arc::new(CounterCells::new(shards));
                (Cells::Max(Arc::clone(&cells)), MaxGauge { cells })
            },
        )
    }

    /// Get or create a histogram.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        self.lookup(
            name,
            |c| match c {
                Cells::Histogram(cells) => Some(Histogram {
                    cells: Arc::clone(cells),
                }),
                _ => None,
            },
            |shards| {
                let cells = Arc::new(HistCells {
                    shards: (0..shards)
                        .map(|_| CachePadded::new(HistShard::new()))
                        .collect(),
                });
                (Cells::Histogram(Arc::clone(&cells)), Histogram { cells })
            },
        )
    }

    /// Aggregate every metric into an owned, immutable snapshot, in
    /// registration order.
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self.inner.metrics.lock();
        Snapshot {
            base_labels: self.inner.base_labels.clone(),
            entries: metrics
                .iter()
                .map(|e| SnapEntry {
                    name: e.name,
                    value: match &e.cells {
                        Cells::Counter(c) => MetricValue::Counter(c.sum()),
                        Cells::Gauge(c) => MetricValue::Gauge(c.sum()),
                        Cells::Max(c) => MetricValue::Max(c.max()),
                        Cells::Histogram(h) => MetricValue::Histogram(Box::new(
                            Histogram {
                                cells: Arc::clone(h),
                            }
                            .snapshot(),
                        )),
                    },
                })
                .collect(),
        }
    }
}

/// Aggregated value of one metric at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotone counter total.
    Counter(u64),
    /// Up/down gauge value.
    Gauge(u64),
    /// High-water mark.
    Max(u64),
    /// Full histogram state (boxed: the 64-bucket array dwarfs the
    /// scalar variants).
    Histogram(Box<HistogramSnapshot>),
}

/// One metric in a [`Snapshot`].
#[derive(Clone, Debug)]
pub struct SnapEntry {
    /// Metric name (`nanotask_*`).
    pub name: &'static str,
    /// Aggregated value.
    pub value: MetricValue,
}

/// Point-in-time aggregation of a whole registry.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Labels shared by every entry.
    pub base_labels: Labels,
    /// All metrics, in registration order.
    pub entries: Vec<SnapEntry>,
}

impl Snapshot {
    fn find(&self, name: &str) -> Option<&SnapEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Counter named `name`.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.find(name)?.value {
            MetricValue::Counter(v) => Some(v),
            _ => None,
        }
    }

    /// Gauge or max-gauge named `name`.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        match self.find(name)?.value {
            MetricValue::Gauge(v) | MetricValue::Max(v) => Some(v),
            _ => None,
        }
    }

    /// Histogram named `name`.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match &self.find(name)?.value {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_shards_aggregate() {
        let reg = Registry::new(4);
        let c = reg.counter("nanotask_test_total");
        c.add(0, 10);
        c.add(1, 5);
        c.inc(3);
        assert_eq!(c.value(), 16);
        // Out-of-range shard clamps to the last cell instead of panicking.
        c.add(99, 1);
        assert_eq!(c.value(), 17);
    }

    #[test]
    fn get_or_create_returns_same_cells() {
        let reg = Registry::new(2);
        let a = reg.counter("nanotask_shared_total");
        let b = reg.counter("nanotask_shared_total");
        a.add(0, 3);
        b.add(1, 4);
        assert_eq!(a.value(), 7);
        assert_eq!(b.value(), 7);
        // A different name is a different metric.
        let c = reg.counter("nanotask_other_total");
        assert_eq!(c.value(), 0);
        assert_eq!(reg.snapshot().entries.len(), 2);
    }

    #[test]
    fn gauge_set_is_absolute() {
        let reg = Registry::new(4);
        let g = reg.gauge("nanotask_alloc_slab_bytes");
        g.set(4096);
        assert_eq!(g.value(), 4096);
        g.set(1024);
        assert_eq!(g.value(), 1024);
    }

    #[test]
    fn max_gauge_takes_max_over_shards() {
        let reg = Registry::new(3);
        let m = reg.max_gauge("nanotask_depth_max");
        m.record(0, 4);
        m.record(1, 9);
        m.record(1, 2); // lower value does not regress the shard
        m.record(2, 7);
        assert_eq!(m.value(), 9);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        assert_eq!(bucket_of(1 << 62), 63);
        assert_eq!(bucket_of(u64::MAX), 63);
        // Upper bounds mirror the bucket map: v ≤ upper_bound(bucket_of(v)).
        for v in [0u64, 1, 2, 3, 5, 100, 1 << 40, u64::MAX] {
            assert!(v <= HistogramSnapshot::upper_bound(bucket_of(v)));
        }
    }

    #[test]
    fn histogram_counts_sum_quantiles() {
        let reg = Registry::new(2);
        let h = reg.histogram("nanotask_lat_ns");
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(0, v);
        }
        h.record(1, 1_000_000);
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1 + 2 + 3 + 100 + 1000 + 1_000_000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 6);
        assert!((s.mean() - s.sum as f64 / 6.0).abs() < 1e-9);
        // Median lands in a small bucket, p100 covers the outlier.
        assert!(s.quantile(0.5) <= 127);
        assert!(s.quantile(1.0) >= 1_000_000);
        assert_eq!(HistogramSnapshot::default().quantile(0.9), 0);
    }

    #[test]
    fn snapshot_lookup_by_name_and_labels() {
        let reg = Registry::with_base(2, vec![("scheduler", "Delegation".into())]);
        reg.counter("nanotask_a_total").add(0, 5);
        reg.counter("nanotask_b_total").add(1, 2);
        reg.gauge("nanotask_g").set(1);
        reg.histogram("nanotask_h").record(0, 42);
        let s = reg.snapshot();
        assert_eq!(s.base_labels.len(), 1);
        assert_eq!(s.counter("nanotask_a_total"), Some(5));
        assert_eq!(s.counter("nanotask_b_total"), Some(2));
        assert_eq!(s.gauge("nanotask_g"), Some(1));
        // A lookup checks the type as well as the name.
        assert_eq!(s.counter("nanotask_g"), None);
        assert_eq!(s.histogram("nanotask_h").unwrap().count, 1);
        assert_eq!(s.counter("nanotask_missing"), None);
    }

    #[test]
    fn concurrent_single_writer_shards_lose_nothing() {
        let reg = Registry::new(8);
        let c = reg.counter("nanotask_mt_total");
        let h = reg.histogram("nanotask_mt_ns");
        std::thread::scope(|sc| {
            for shard in 0..8 {
                let c = c.clone();
                let h = h.clone();
                sc.spawn(move || {
                    for i in 0..10_000u64 {
                        c.inc(shard);
                        h.record(shard, i);
                    }
                });
            }
        });
        assert_eq!(c.value(), 80_000);
        assert_eq!(h.snapshot().count, 80_000);
    }
}
