//! Process-wide counters/histograms registry.
//!
//! Hot paths keep their cost at one atomic add: a [`LazyCounter`] resolves
//! its registry entry once (through a `OnceLock`) and then increments a
//! plain `AtomicU64`. Registration interns by name, so every subsystem that
//! names the same metric shares one cell, and
//! [`snapshot`](MetricsRegistry::snapshot) renders the whole
//! process state under stable, dot-separated metric names (the scheme is
//! documented in DESIGN.md §8).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// A monotonically increasing counter (resettable for test isolation).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets to zero. The registry is process-wide, so a test resets only
    /// the metrics it alone records into.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Linear sub-buckets per power-of-two octave. Bucket 0 holds the value 0;
/// octave `o = floor(log2 v)` is split into this many equal-width linear
/// sub-buckets, so a quantile estimate overshoots the true value by at most
/// `1/HISTOGRAM_SUBBUCKETS` of the octave width (~12.5%) instead of the
/// full 2x a pure log2 histogram allows.
pub const HISTOGRAM_SUBBUCKETS: usize = 8;

/// Total bucket count: the zero bucket plus 64 octaves of sub-buckets.
pub const HISTOGRAM_BUCKETS: usize = 1 + 64 * HISTOGRAM_SUBBUCKETS;

/// A lock-free log2-plus-linear-bucketed histogram of `u64` samples.
///
/// Each [`record`](Self::record) is exactly two relaxed atomic adds (the
/// bucket and the sum; the total count is derived from the buckets), so hot
/// paths (per-chunk kernel times, recovery backoff delays, per-query
/// latencies) can sample unconditionally. Quantiles are estimated from the
/// bucket boundaries: `quantile` returns the inclusive upper bound of the
/// bucket containing the requested rank.
///
/// Buckets may carry an **exemplar** — the identity of a sample that landed
/// there ([`record_with_exemplar`](Self::record_with_exemplar)) — linking a
/// tail bucket back to the query and trace offset that produced it.
/// Exemplars live off the hot path behind a mutex; callers that never
/// attach them pay nothing.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    exemplars: Mutex<BTreeMap<usize, Exemplar>>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0u64; HISTOGRAM_BUCKETS].map(AtomicU64::new),
            sum: AtomicU64::new(0),
            exemplars: Mutex::new(BTreeMap::new()),
        }
    }
}

/// The identity of one sample kept alongside its histogram bucket: enough
/// to find the query in records, flight-recorder dumps, and the merged
/// timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exemplar {
    /// The recorded sample value.
    pub value: u64,
    /// Stream-wide query id of the sample.
    pub query_id: u64,
    /// Tenant label, when the source is tenant-attributed.
    pub tenant: Option<String>,
    /// Stream-clock offset of the query (its start instant, virtual ns) —
    /// where to seek in the trace timeline.
    pub offset_ns: u64,
}

/// Bucket index of a sample: 0 for 0, otherwise the octave `floor(log2 v)`
/// subdivided linearly into [`HISTOGRAM_SUBBUCKETS`].
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        return 0;
    }
    let octave = 63 - v.leading_zeros() as usize;
    let offset = (v - (1u64 << octave)) as u128;
    let sub = ((offset * HISTOGRAM_SUBBUCKETS as u128) >> octave) as usize;
    1 + octave * HISTOGRAM_SUBBUCKETS + sub
}

/// Inclusive upper bound of bucket `i` — the value [`HistogramSnapshot::quantile`]
/// reports when the ranked sample lands in that bucket.
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        return 0;
    }
    let octave = (i - 1) / HISTOGRAM_SUBBUCKETS;
    let sub = ((i - 1) % HISTOGRAM_SUBBUCKETS) as u128;
    let lo = 1u128 << octave;
    // First value of the next sub-bucket minus one; ceiling division keeps
    // the bound exact in octaves narrower than the sub-bucket count, where
    // some sub-buckets are unreachable.
    let next = lo + ((sub + 1) * lo).div_ceil(HISTOGRAM_SUBBUCKETS as u128);
    (next - 1).min(u64::MAX as u128) as u64
}

impl Histogram {
    /// Records one sample: the lock-free two-atomic-add hot path.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of samples recorded (derived from the buckets).
    #[inline]
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all samples (wrapping at `u64::MAX`).
    #[inline]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Records one sample and attaches its identity as the exemplar of the
    /// bucket it lands in (last writer wins, like the OpenMetrics
    /// convention of keeping the most recent exemplar per bucket).
    pub fn record_with_exemplar(
        &self,
        v: u64,
        query_id: u64,
        tenant: Option<&str>,
        offset_ns: u64,
    ) {
        self.record(v);
        let exemplar = Exemplar {
            value: v,
            query_id,
            tenant: tenant.map(str::to_string),
            offset_ns,
        };
        self.exemplars
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(bucket_of(v), exemplar);
    }

    /// A consistent-enough copy for rendering (concurrent records may land
    /// in either side of the cut; totals are re-derived from the buckets).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let exemplars: Vec<(usize, Exemplar)> = self
            .exemplars
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(i, e)| (*i, e.clone()))
            .collect();
        HistogramSnapshot {
            count: buckets.iter().sum(),
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
            exemplars,
        }
    }

    /// Resets all buckets to empty.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.exemplars
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Per-bucket sample counts (see [`HISTOGRAM_BUCKETS`]).
    pub buckets: Vec<u64>,
    /// Per-bucket exemplars, sorted by bucket index (sparse — only buckets
    /// that ever received [`Histogram::record_with_exemplar`]).
    pub exemplars: Vec<(usize, Exemplar)>,
}

impl HistogramSnapshot {
    /// The exemplar attached to bucket `i`, if any.
    pub fn exemplar_for(&self, i: usize) -> Option<&Exemplar> {
        self.exemplars
            .iter()
            .find_map(|(b, e)| (*b == i).then_some(e))
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0..=1.0`): the largest
    /// value representable by the bucket holding the ranked sample.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if n > 0 && seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        u64::MAX
    }
}

enum Metric {
    Counter(&'static Counter),
    Histogram(&'static Histogram),
}

/// A snapshot value of one metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter reading.
    Counter(u64),
    /// Histogram reading.
    Histogram(HistogramSnapshot),
}

impl MetricValue {
    /// The value as a float (counters widen losslessly up to 2^53;
    /// histograms collapse to their mean).
    pub fn as_f64(&self) -> f64 {
        match self {
            MetricValue::Counter(v) => *v as f64,
            MetricValue::Histogram(h) => h.mean(),
        }
    }
}

/// The process-wide registry; obtain it with [`registry`].
pub struct MetricsRegistry {
    by_name: Mutex<BTreeMap<&'static str, Metric>>,
}

impl MetricsRegistry {
    // A kind-mismatch panic unwinds while holding the lock, but leaves the
    // map consistent — recover the guard instead of cascading the poison
    // into every later registry user in the process.
    fn lock(&self) -> MutexGuard<'_, BTreeMap<&'static str, Metric>> {
        self.by_name.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The counter registered under `name`, creating it on first use.
    ///
    /// Panics if `name` is already registered as another kind.
    pub fn counter(&self, name: &'static str) -> &'static Counter {
        let mut map = self.lock();
        match map
            .entry(name)
            .or_insert_with(|| Metric::Counter(Box::leak(Box::default())))
        {
            Metric::Counter(c) => c,
            Metric::Histogram(_) => panic!("metric {name:?} is registered as a histogram"),
        }
    }

    /// The histogram registered under `name`, creating it on first use.
    ///
    /// Panics if `name` is already registered as another kind.
    pub fn histogram(&self, name: &'static str) -> &'static Histogram {
        let mut map = self.lock();
        match map
            .entry(name)
            .or_insert_with(|| Metric::Histogram(Box::leak(Box::default())))
        {
            Metric::Histogram(h) => h,
            Metric::Counter(_) => panic!("metric {name:?} is registered as a counter"),
        }
    }

    /// All metrics, sorted by name.
    pub fn snapshot(&self) -> Vec<(&'static str, MetricValue)> {
        let map = self.lock();
        map.iter()
            .map(|(name, m)| {
                let v = match m {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                (*name, v)
            })
            .collect()
    }
}

/// The process-wide metrics registry.
pub fn registry() -> &'static MetricsRegistry {
    static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();
    REGISTRY.get_or_init(|| MetricsRegistry {
        by_name: Mutex::new(BTreeMap::new()),
    })
}

/// A counter handle resolvable in `const` context: the registry lookup
/// happens once, on first use, after which [`add`](Self::add) is a single
/// relaxed atomic increment — cheap enough for simulator hot paths.
pub struct LazyCounter {
    name: &'static str,
    cell: OnceLock<&'static Counter>,
}

impl LazyCounter {
    /// Declares a counter by stable metric name.
    pub const fn new(name: &'static str) -> LazyCounter {
        LazyCounter {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The underlying registry counter.
    #[inline]
    pub fn counter(&self) -> &'static Counter {
        self.cell.get_or_init(|| registry().counter(self.name))
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.counter().add(n);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.counter().get()
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.counter().reset();
    }
}

/// A histogram handle resolvable in `const` context, mirroring
/// [`LazyCounter`]: the registry lookup happens once, after which
/// [`record`](Self::record) touches only the histogram's atomics.
pub struct LazyHistogram {
    name: &'static str,
    cell: OnceLock<&'static Histogram>,
}

impl LazyHistogram {
    /// Declares a histogram by stable metric name.
    pub const fn new(name: &'static str) -> LazyHistogram {
        LazyHistogram {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The underlying registry histogram.
    #[inline]
    pub fn histogram(&self) -> &'static Histogram {
        self.cell.get_or_init(|| registry().histogram(self.name))
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.histogram().record(v);
    }

    /// Records one sample with its exemplar identity.
    pub fn record_with_exemplar(
        &self,
        v: u64,
        query_id: u64,
        tenant: Option<&str>,
        offset_ns: u64,
    ) {
        self.histogram()
            .record_with_exemplar(v, query_id, tenant, offset_ns);
    }

    /// A point-in-time copy.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.histogram().snapshot()
    }

    /// Resets all buckets to empty.
    pub fn reset(&self) {
        self.histogram().reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_intern_by_name() {
        let a = registry().counter("test.metrics.interned");
        let b = registry().counter("test.metrics.interned");
        a.reset();
        a.add(2);
        b.incr();
        assert_eq!(a.get(), 3);
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn snapshot_contains_sorted_names() {
        registry().counter("test.metrics.snap.b").reset();
        registry().counter("test.metrics.snap.a").reset();
        let snap = registry().snapshot();
        let names: Vec<&str> = snap.iter().map(|(n, _)| *n).collect();
        let ia = names.iter().position(|n| *n == "test.metrics.snap.a");
        let ib = names.iter().position(|n| *n == "test.metrics.snap.b");
        assert!(ia.unwrap() < ib.unwrap());
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn lazy_counter_reaches_the_registry() {
        static C: LazyCounter = LazyCounter::new("test.metrics.lazy");
        C.reset();
        C.add(5);
        assert_eq!(registry().counter("test.metrics.lazy").get(), 5);
        assert_eq!(C.get(), 5);
    }

    #[test]
    #[should_panic(expected = "registered as a counter")]
    fn kind_mismatch_panics() {
        registry().counter("test.metrics.kind");
        registry().histogram("test.metrics.kind");
    }

    #[test]
    fn metric_value_widens() {
        assert_eq!(MetricValue::Counter(4).as_f64(), 4.0);
    }

    #[test]
    fn histogram_buckets_by_octave_and_sub_bucket() {
        let h = Histogram::default();
        h.record(0); // bucket 0
        h.record(1); // octave 0, sub 0
        h.record(2); // octave 1, sub 0
        h.record(3); // octave 1, sub 4 (offset 1 of a 2-wide octave)
        h.record(1024); // octave 10, sub 0
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1030);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[bucket_of(1)], 1);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 1 + HISTOGRAM_SUBBUCKETS);
        assert_eq!(bucket_of(3), 1 + HISTOGRAM_SUBBUCKETS + 4);
        assert_eq!(bucket_of(1024), 1 + 10 * HISTOGRAM_SUBBUCKETS);
        assert_eq!(s.buckets[bucket_of(3)], 1);
        assert_eq!(s.mean(), 206.0);
    }

    #[test]
    fn histogram_quantiles_are_bucket_upper_bounds() {
        let h = Histogram::default();
        for _ in 0..90 {
            h.record(100); // octave 6 [64, 128), sub 4: [96, 103]
        }
        for _ in 0..10 {
            h.record(100_000); // octave 16, sub 4: [98304, 106495]
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(0.50), 103);
        assert_eq!(s.quantile(0.90), 103);
        assert_eq!(s.quantile(0.95), 106_495);
        assert_eq!(s.quantile(0.99), 106_495);
        assert_eq!(s.quantile(1.0), 106_495);
        // Quantile estimates never undershoot the true quantile, and with
        // linear sub-buckets they overshoot by at most one sub-bucket
        // (1/8 of the octave) — a pure log2 histogram would report 127.
        assert!(s.quantile(0.50) >= 100);
        assert!(s.quantile(0.50) <= 100 + (1 << 6) / HISTOGRAM_SUBBUCKETS as u64);
        assert!(s.quantile(0.95) >= 100_000);
    }

    #[test]
    fn histogram_bucket_bounds_are_tight_for_every_value() {
        // The upper bound of a value's bucket is always >= the value and
        // never overshoots by more than one sub-bucket width.
        let mut v = 1u64;
        while v < u64::MAX / 3 {
            for sample in [v, v + v / 3, v + (v - 1).min(v / 2)] {
                let i = bucket_of(sample);
                let upper = bucket_upper_bound(i);
                assert!(upper >= sample, "bucket {i} upper {upper} < {sample}");
                let octave = 63 - sample.leading_zeros() as u64;
                let sub_width = ((1u64 << octave) / HISTOGRAM_SUBBUCKETS as u64).max(1);
                assert!(
                    upper - sample < sub_width,
                    "bucket {i} upper {upper} overshoots {sample} by >= {sub_width}"
                );
            }
            v = v.wrapping_mul(3).max(v + 1);
        }
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn histogram_concurrent_records_reconcile() {
        // Satellite: multi-thread stress — totals derived from the buckets
        // must reconcile exactly after parallel `record` calls (the hot
        // path is two relaxed atomic adds with no count cell to tear).
        static H: LazyHistogram = LazyHistogram::new("test.metrics.stress");
        H.reset();
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 10_000;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        // A spread of octaves, deterministic per thread.
                        H.record((t * PER_THREAD + i) % 4096);
                    }
                });
            }
        });
        let s = H.snapshot();
        assert_eq!(s.count, THREADS * PER_THREAD);
        let expect_sum: u64 = (0..THREADS * PER_THREAD).map(|x| x % 4096).sum();
        assert_eq!(s.sum, expect_sum);
        assert_eq!(H.histogram().count(), s.count);
        assert_eq!(s.buckets.iter().sum::<u64>(), s.count);
    }

    #[test]
    fn histogram_exemplars_track_the_last_sample_per_bucket() {
        let h = Histogram::default();
        h.record(50); // plain records never attach exemplars
        h.record_with_exemplar(100, 7, Some("casework"), 1_000);
        h.record_with_exemplar(101, 9, Some("research"), 2_000); // same bucket: wins
        h.record_with_exemplar(100_000, 3, None, 5_000);
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.exemplars.len(), 2, "one exemplar per hit bucket");
        let tail = s.exemplar_for(bucket_of(100_000)).expect("tail exemplar");
        assert_eq!(tail.query_id, 3);
        assert_eq!(tail.tenant, None);
        assert_eq!(tail.offset_ns, 5_000);
        let body = s.exemplar_for(bucket_of(100)).expect("body exemplar");
        assert_eq!(
            (body.query_id, body.value),
            (9, 101),
            "last writer wins within a bucket"
        );
        assert_eq!(s.exemplar_for(bucket_of(50)), None);
        h.reset();
        assert!(h.snapshot().exemplars.is_empty(), "reset drops exemplars");
    }

    #[test]
    fn histogram_empty_and_extremes() {
        let h = Histogram::default();
        assert_eq!(h.snapshot().quantile(0.5), 0);
        assert_eq!(h.snapshot().mean(), 0.0);
        h.record(u64::MAX); // last bucket
        let s = h.snapshot();
        assert_eq!(s.buckets[HISTOGRAM_BUCKETS - 1], 1);
        assert_eq!(s.quantile(0.5), u64::MAX);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.snapshot().count, 0);
    }

    #[test]
    fn histograms_intern_via_registry() {
        static H: LazyHistogram = LazyHistogram::new("test.metrics.histo");
        H.reset();
        H.record(7);
        H.record(9);
        let direct = registry().histogram("test.metrics.histo");
        assert_eq!(direct.count(), 2);
        assert_eq!(direct.sum(), 16);
        let snap = registry().snapshot();
        let (_, v) = snap
            .iter()
            .find(|(n, _)| *n == "test.metrics.histo")
            .unwrap();
        match v {
            MetricValue::Histogram(s) => assert_eq!(s.count, 2),
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "registered as a histogram")]
    fn histogram_kind_mismatch_panics() {
        registry().histogram("test.metrics.histo_kind");
        registry().counter("test.metrics.histo_kind");
    }
}
