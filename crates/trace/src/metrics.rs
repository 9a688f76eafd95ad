//! One run's counters and histograms.
//!
//! A [`Metrics`] value belongs to the run that records it and travels on
//! that run's report. Metrics are keyed by stable, dot-separated names (the
//! scheme is documented in DESIGN.md §8) and kept sorted by name; each one
//! exists from the first time the run records it, even when it records 0.
//! A run records on one thread, through `&mut`, so a record is a plain
//! integer add. [`Metrics::merge`] folds one run's value into another's:
//! a load run merges the engine runs of its queries this way.

use std::collections::BTreeMap;

/// Linear sub-buckets per power-of-two octave. Bucket 0 holds the value 0;
/// octave `o = floor(log2 v)` is split into this many equal-width linear
/// sub-buckets, so a quantile estimate overshoots the true value by at most
/// `1/HISTOGRAM_SUBBUCKETS` of the octave width (~12.5%) instead of the
/// full 2x a pure log2 histogram allows.
pub const HISTOGRAM_SUBBUCKETS: usize = 8;

/// Total bucket count: the zero bucket plus 64 octaves of sub-buckets.
pub const HISTOGRAM_BUCKETS: usize = 1 + 64 * HISTOGRAM_SUBBUCKETS;

/// A log2-plus-linear-bucketed histogram of `u64` samples.
///
/// Quantiles are estimated from the bucket boundaries: [`quantile`]
/// returns the inclusive upper bound of the bucket containing the requested
/// rank. Only buckets that hold a sample are stored.
///
/// A bucket may carry an **exemplar** — the identity of a sample that landed
/// there ([`record_with_exemplar`](Self::record_with_exemplar)) — linking a
/// tail bucket back to the query and trace offset that produced it.
///
/// [`quantile`]: Self::quantile
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    sum: u64,
    buckets: BTreeMap<usize, Bucket>,
}

/// One non-empty bucket of a [`Histogram`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Bucket {
    /// Samples in the bucket.
    pub count: u64,
    /// The last sample recorded with its identity, if any.
    pub exemplar: Option<Exemplar>,
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

/// Inclusive upper bound of bucket `i` — the value [`Histogram::quantile`]
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
    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.bucket(v).count += 1;
        self.sum = self.sum.wrapping_add(v);
    }

    /// Records one sample and attaches its identity as the exemplar of the
    /// bucket it lands in (last writer wins, like the OpenMetrics
    /// convention of keeping the most recent exemplar per bucket).
    pub fn record_with_exemplar(
        &mut self,
        v: u64,
        query_id: u64,
        tenant: Option<&str>,
        offset_ns: u64,
    ) {
        self.record(v);
        self.bucket(v).exemplar = Some(Exemplar {
            value: v,
            query_id,
            tenant: tenant.map(str::to_string),
            offset_ns,
        });
    }

    fn bucket(&mut self, v: u64) -> &mut Bucket {
        self.buckets.entry(bucket_of(v)).or_default()
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.values().map(|b| b.count).sum()
    }

    /// Sum of all samples (wrapping at `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The non-empty buckets by index, ascending.
    pub fn buckets(&self) -> impl Iterator<Item = (usize, &Bucket)> {
        self.buckets.iter().map(|(&i, b)| (i, b))
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        match self.count() {
            0 => 0.0,
            n => self.sum as f64 / n as f64,
        }
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0..=1.0`): the largest
    /// value representable by the bucket holding the ranked sample.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (&i, b) in &self.buckets {
            seen += b.count;
            if seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        u64::MAX
    }

    /// Adds `other`'s samples: bucket counts and sums add, and an exemplar
    /// of `other` replaces this one's in its bucket, as the later writer.
    pub fn merge(&mut self, other: &Histogram) {
        self.sum = self.sum.wrapping_add(other.sum);
        for (&i, b) in &other.buckets {
            let mine = self.buckets.entry(i).or_default();
            mine.count += b.count;
            if b.exemplar.is_some() {
                mine.exemplar.clone_from(&b.exemplar);
            }
        }
    }
}

/// The value of one metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A count.
    Counter(u64),
    /// A distribution.
    Histogram(Histogram),
}

/// One run's metrics: counters and histograms by name, sorted.
///
/// A name keeps the kind it was first recorded as; recording it as the
/// other kind panics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    by_name: BTreeMap<&'static str, MetricValue>,
}

impl Metrics {
    /// No metrics.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Adds `n` to the counter `name` (wrapping at `u64::MAX`), creating
    /// it on first use, at 0 when `n` is 0.
    pub fn add(&mut self, name: &'static str, n: u64) {
        match self.by_name.entry(name).or_insert(MetricValue::Counter(0)) {
            MetricValue::Counter(c) => *c = c.wrapping_add(n),
            MetricValue::Histogram(_) => panic!("metric {name:?} is recorded as a histogram"),
        }
    }

    /// Records one sample into the histogram `name`.
    pub fn record(&mut self, name: &'static str, v: u64) {
        self.histogram_mut(name).record(v);
    }

    /// The histogram `name`, created empty on first use.
    pub fn histogram_mut(&mut self, name: &'static str) -> &mut Histogram {
        match self
            .by_name
            .entry(name)
            .or_insert_with(|| MetricValue::Histogram(Histogram::default()))
        {
            MetricValue::Histogram(h) => h,
            MetricValue::Counter(_) => panic!("metric {name:?} is recorded as a counter"),
        }
    }

    /// The counter `name`, if the run recorded it.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.by_name.get(name)? {
            MetricValue::Counter(c) => Some(*c),
            MetricValue::Histogram(_) => None,
        }
    }

    /// The histogram `name`, if the run recorded it.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        match self.by_name.get(name)? {
            MetricValue::Histogram(h) => Some(h),
            MetricValue::Counter(_) => None,
        }
    }

    /// Every metric, sorted by name.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &MetricValue)> {
        self.by_name.iter().map(|(&name, v)| (name, v))
    }

    /// Adds `other`'s metrics to these: counters add, histograms merge
    /// ([`Histogram::merge`]), and a name only `other` has is copied.
    ///
    /// Panics if a name has a different kind in each.
    pub fn merge(&mut self, other: &Metrics) {
        for (&name, value) in &other.by_name {
            match value {
                MetricValue::Counter(n) => self.add(name, *n),
                MetricValue::Histogram(h) => self.histogram_mut(name).merge(h),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exemplar of the bucket `v` lands in, if any.
    fn exemplar_at(h: &Histogram, v: u64) -> Option<&Exemplar> {
        h.buckets
            .get(&bucket_of(v))
            .and_then(|b| b.exemplar.as_ref())
    }

    #[test]
    fn counters_intern_by_name() {
        let mut m = Metrics::new();
        m.add("test.metrics.interned", 0);
        assert_eq!(m.counter("test.metrics.interned"), Some(0), "0 creates it");
        m.add("test.metrics.interned", 2);
        m.add("test.metrics.interned", 1);
        assert_eq!(m.counter("test.metrics.interned"), Some(3));
        assert_eq!(m.counter("test.metrics.absent"), None);
        m.record("test.metrics.histo", 7);
        m.record("test.metrics.histo", 9);
        let h = m.histogram("test.metrics.histo").expect("recorded");
        assert_eq!((h.count(), h.sum()), (2, 16));
        assert_eq!(m.iter().count(), 2, "one entry per name");
    }

    #[test]
    fn snapshot_contains_sorted_names() {
        let mut m = Metrics::new();
        m.add("test.metrics.snap.b", 1);
        m.record("test.metrics.snap.c", 1);
        m.add("test.metrics.snap.a", 1);
        let names: Vec<&str> = m.iter().map(|(n, _)| n).collect();
        assert_eq!(
            names,
            [
                "test.metrics.snap.a",
                "test.metrics.snap.b",
                "test.metrics.snap.c"
            ]
        );
    }

    #[test]
    #[should_panic(expected = "recorded as a counter")]
    fn kind_mismatch_panics() {
        let mut m = Metrics::new();
        m.add("test.metrics.kind", 1);
        m.record("test.metrics.kind", 1);
    }

    #[test]
    #[should_panic(expected = "recorded as a histogram")]
    fn histogram_kind_mismatch_panics() {
        let mut m = Metrics::new();
        m.record("test.metrics.histo_kind", 1);
        m.add("test.metrics.histo_kind", 1);
    }

    #[test]
    fn histogram_buckets_by_octave_and_sub_bucket() {
        let mut h = Histogram::default();
        h.record(0); // bucket 0
        h.record(1); // octave 0, sub 0
        h.record(2); // octave 1, sub 0
        h.record(3); // octave 1, sub 4 (offset 1 of a 2-wide octave)
        h.record(1024); // octave 10, sub 0
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1030);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 1 + HISTOGRAM_SUBBUCKETS);
        assert_eq!(bucket_of(3), 1 + HISTOGRAM_SUBBUCKETS + 4);
        assert_eq!(bucket_of(1024), 1 + 10 * HISTOGRAM_SUBBUCKETS);
        let buckets: Vec<(usize, u64)> = h.buckets().map(|(i, b)| (i, b.count)).collect();
        assert_eq!(
            buckets,
            [
                0,
                1,
                1 + HISTOGRAM_SUBBUCKETS,
                1 + HISTOGRAM_SUBBUCKETS + 4,
                81
            ]
            .map(|i| (i, 1))
        );
        assert_eq!(h.mean(), 206.0);
    }

    #[test]
    fn histogram_quantiles_are_bucket_upper_bounds() {
        let mut h = Histogram::default();
        for _ in 0..90 {
            h.record(100); // octave 6 [64, 128), sub 4: [96, 103]
        }
        for _ in 0..10 {
            h.record(100_000); // octave 16, sub 4: [98304, 106495]
        }
        assert_eq!(h.quantile(0.50), 103);
        assert_eq!(h.quantile(0.90), 103);
        assert_eq!(h.quantile(0.95), 106_495);
        assert_eq!(h.quantile(0.99), 106_495);
        assert_eq!(h.quantile(1.0), 106_495);
        // Quantile estimates never undershoot the true quantile, and with
        // linear sub-buckets they overshoot by at most one sub-bucket
        // (1/8 of the octave) — a pure log2 histogram would report 127.
        assert!(h.quantile(0.50) >= 100);
        assert!(h.quantile(0.50) <= 100 + (1 << 6) / HISTOGRAM_SUBBUCKETS as u64);
        assert!(h.quantile(0.95) >= 100_000);
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
        // Runs on different threads each record into their own value; the
        // merged totals reconcile exactly with every sample recorded.
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 10_000;
        let parts: Vec<Metrics> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    scope.spawn(move || {
                        let mut m = Metrics::new();
                        for i in 0..PER_THREAD {
                            // A spread of octaves, deterministic per thread.
                            m.record("test.metrics.stress", (t * PER_THREAD + i) % 4096);
                        }
                        m
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("recording thread"))
                .collect()
        });
        let mut all = Metrics::new();
        for part in &parts {
            all.merge(part);
        }
        let h = all.histogram("test.metrics.stress").expect("merged");
        assert_eq!(h.count(), THREADS * PER_THREAD);
        let expect_sum: u64 = (0..THREADS * PER_THREAD).map(|x| x % 4096).sum();
        assert_eq!(h.sum(), expect_sum);
        let mut whole = Histogram::default();
        (0..THREADS * PER_THREAD).for_each(|x| whole.record(x % 4096));
        assert_eq!(*h, whole, "merging parts equals recording the whole");
    }

    #[test]
    fn histogram_exemplars_track_the_last_sample_per_bucket() {
        let mut h = Histogram::default();
        h.record(50); // plain records never attach exemplars
        h.record_with_exemplar(100, 7, Some("casework"), 1_000);
        h.record_with_exemplar(101, 9, Some("research"), 2_000); // same bucket: wins
        h.record_with_exemplar(100_000, 3, None, 5_000);
        assert_eq!(h.count(), 4);
        assert_eq!(
            h.buckets().filter(|(_, b)| b.exemplar.is_some()).count(),
            2,
            "one exemplar per hit bucket"
        );
        let tail = exemplar_at(&h, 100_000).expect("tail exemplar");
        assert_eq!(tail.query_id, 3);
        assert_eq!(tail.tenant, None);
        assert_eq!(tail.offset_ns, 5_000);
        let body = exemplar_at(&h, 100).expect("body exemplar");
        assert_eq!(
            (body.query_id, body.value),
            (9, 101),
            "last writer wins within a bucket"
        );
        assert_eq!(exemplar_at(&h, 50), None);
    }

    #[test]
    fn histogram_empty_and_extremes() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        h.record(u64::MAX); // last bucket
        assert_eq!(
            h.buckets().next().map(|(i, _)| i),
            Some(HISTOGRAM_BUCKETS - 1)
        );
        assert_eq!(h.quantile(0.5), u64::MAX);
        // The sum wraps, in a debug build too.
        h.record(u64::MAX);
        assert_eq!(h.sum(), u64::MAX - 1);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn merge_adds_counters_and_buckets_and_keeps_the_later_exemplar() {
        let mut a = Metrics::new();
        a.add("test.merge.count", 2);
        a.add("test.merge.only_a", 0);
        a.histogram_mut("test.merge.latency")
            .record_with_exemplar(100, 1, None, 10);
        let mut b = Metrics::new();
        b.add("test.merge.count", 3);
        b.add("test.merge.count", u64::MAX);
        b.histogram_mut("test.merge.latency")
            .record_with_exemplar(101, 2, Some("research"), 20);
        b.record("test.merge.latency", 5_000);
        a.merge(&b);
        assert_eq!(a.counter("test.merge.count"), Some(4), "counters wrap");
        assert_eq!(a.counter("test.merge.only_a"), Some(0));
        let h = a.histogram("test.merge.latency").expect("merged");
        assert_eq!((h.count(), h.sum()), (3, 5_201));
        let e = exemplar_at(h, 100).expect("exemplar");
        assert_eq!(e.query_id, 2, "the merged-in run is the later writer");
        // A bucket without an exemplar in `b` keeps `a`'s.
        let mut c = Metrics::new();
        c.record("test.merge.latency", 100);
        a.merge(&c);
        let h = a.histogram("test.merge.latency").expect("merged");
        assert_eq!(exemplar_at(h, 100).map(|e| e.query_id), Some(2));
    }
}
