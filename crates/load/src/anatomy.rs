//! Per-query latency anatomy: decomposes every accepted query's
//! end-to-end latency into named segments and aggregates them into
//! percentile-band budget tables (DESIGN.md §16).
//!
//! The decomposition is **exact**: virtual time has no sampling noise, so
//! the segments of one query always sum to its end-to-end latency to the
//! nanosecond. Queue time (`sched_queue`) comes straight from the
//! dispatcher (`start − arrival`); the service window is attributed by a
//! sweep-line over the query's own trace spans, clipped to the post-init
//! window, with overlap resolved by a fixed priority (retry >
//! CPU-fallback > kernel > D2H > H2D > pack) so double-buffered overlap is
//! charged to the resource most likely on the critical path. Whatever no
//! span covers — host-side orchestration gaps — lands in `other`, which is
//! what keeps the sum exact and makes "attributed fraction" an honest
//! completeness figure rather than an assumption.

use snp_trace::json::Obj;
use snp_trace::{Trace, TraceEvent};

use crate::admission::Tier;
use crate::slo::percentile;

/// One named latency segment. Order is the stable rendering order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Segment {
    /// Time between arrival and the admission verdict. Admission decides
    /// at the arrival instant in this runner, so this is currently always
    /// zero — kept in the taxonomy so the budget states it, rather than
    /// leaving readers to wonder where admission time went.
    AdmissionWait,
    /// Time queued in the dispatcher (`start − arrival`).
    SchedQueue,
    /// Service at the [`Tier::CpuOnly`] brownout tier: the modeled CPU
    /// baseline, charged whole (the engine is never touched).
    BrownoutCpu,
    /// Host-side packing into the paper's 2-bit layout.
    Pack,
    /// Host→device transfers.
    H2d,
    /// Device→host transfers (reads and checksum readbacks).
    D2h,
    /// Kernel compute.
    Kernel,
    /// Recovery retry backoff.
    RetryBackoff,
    /// CPU-fallback compute after device loss.
    CpuFallback,
    /// Post-init service time no span accounts for (host orchestration
    /// gaps). The exactness remainder — small when attribution is good.
    Other,
}

/// Number of segments (array dimension of [`QueryAnatomy::segment_ns`]).
pub const SEGMENT_COUNT: usize = 10;

impl Segment {
    /// Every segment, in rendering order.
    pub const ALL: [Segment; SEGMENT_COUNT] = [
        Segment::AdmissionWait,
        Segment::SchedQueue,
        Segment::BrownoutCpu,
        Segment::Pack,
        Segment::H2d,
        Segment::D2h,
        Segment::Kernel,
        Segment::RetryBackoff,
        Segment::CpuFallback,
        Segment::Other,
    ];

    /// Stable snake_case label (JSON keys and table rows).
    pub fn label(self) -> &'static str {
        match self {
            Segment::AdmissionWait => "admission_wait",
            Segment::SchedQueue => "sched_queue",
            Segment::BrownoutCpu => "brownout_cpu",
            Segment::Pack => "pack",
            Segment::H2d => "h2d",
            Segment::D2h => "d2h",
            Segment::Kernel => "kernel",
            Segment::RetryBackoff => "retry_backoff",
            Segment::CpuFallback => "cpu_fallback",
            Segment::Other => "other",
        }
    }

    fn index(self) -> usize {
        Segment::ALL
            .iter()
            .position(|s| *s == self)
            .expect("listed")
    }

    /// Sweep-line priority when spans overlap (higher wins the instant).
    fn priority(self) -> u8 {
        match self {
            Segment::RetryBackoff => 5,
            Segment::CpuFallback => 4,
            Segment::Kernel => 3,
            Segment::D2h => 2,
            Segment::H2d => 1,
            _ => 0,
        }
    }
}

/// The segment a trace span charges time to, if any. Engine bookkeeping
/// spans (`init`, `run`) and stream-level spans (`query`, `shed`) shape
/// the window but never receive time themselves.
fn segment_of(ev: &TraceEvent) -> Option<Segment> {
    match ev.cat {
        "retry" => Some(Segment::RetryBackoff),
        "fallback" => Some(Segment::CpuFallback),
        "kernel" => Some(Segment::Kernel),
        "pack" => Some(Segment::Pack),
        "transfer" => Some(match &*ev.name {
            "read" | "checksum" => Segment::D2h,
            _ => Segment::H2d,
        }),
        _ => None,
    }
}

/// One query's exact latency decomposition.
#[derive(Debug, Clone)]
pub struct QueryAnatomy {
    /// Stream-wide query id.
    pub query_id: u64,
    /// End-to-end latency this anatomy decomposes.
    pub latency_ns: u64,
    /// Nanoseconds per segment, indexed in [`Segment::ALL`] order.
    pub segment_ns: [u64; SEGMENT_COUNT],
}

impl QueryAnatomy {
    /// Nanoseconds attributed to `segment`.
    pub fn get(&self, segment: Segment) -> u64 {
        self.segment_ns[segment.index()]
    }

    /// Sum over all segments — always equals [`latency_ns`](Self::latency_ns).
    pub fn total_ns(&self) -> u64 {
        self.segment_ns.iter().sum()
    }
}

/// Decomposes one accepted query's latency. `trace` is the query's own
/// tagged trace (`None` when tracing was off — the service window then
/// lands in [`Segment::Other`] rather than being guessed at).
pub fn decompose_query(
    query_id: u64,
    queue_wait_ns: u64,
    service_ns: u64,
    tier: Tier,
    trace: Option<&Trace>,
) -> QueryAnatomy {
    let mut segment_ns = [0u64; SEGMENT_COUNT];
    segment_ns[Segment::SchedQueue.index()] = queue_wait_ns;
    if tier == Tier::CpuOnly {
        segment_ns[Segment::BrownoutCpu.index()] = service_ns;
    } else if service_ns > 0 {
        match trace {
            None => segment_ns[Segment::Other.index()] = service_ns,
            Some(trace) => attribute_service(trace, service_ns, &mut segment_ns),
        }
    }
    QueryAnatomy {
        query_id,
        latency_ns: queue_wait_ns + service_ns,
        segment_ns,
    }
}

/// Sweep-line attribution of the post-init service window.
///
/// The per-query trace runs on the query's local clock: device open spans
/// `[0, init_ns]` and service is the `service_ns` window after it. Each
/// elementary interval between span boundaries is charged to the
/// highest-priority segment whose span covers it; uncovered intervals go
/// to [`Segment::Other`]. Every nanosecond of the window is charged to
/// exactly one segment, so the decomposition is exact by construction.
fn attribute_service(trace: &Trace, service_ns: u64, segment_ns: &mut [u64; SEGMENT_COUNT]) {
    let window_lo = trace
        .events
        .iter()
        .filter(|e| e.cat == "init")
        .map(|e| e.end_ns)
        .max()
        .unwrap_or(0);
    let window_hi = window_lo + service_ns;

    // Classified spans, clipped to the service window.
    let mut spans: Vec<(u64, u64, Segment)> = Vec::new();
    let mut cuts: Vec<u64> = vec![window_lo, window_hi];
    for ev in &trace.events {
        let Some(seg) = segment_of(ev) else { continue };
        let lo = ev.start_ns.max(window_lo);
        let hi = ev.end_ns.min(window_hi);
        if lo >= hi {
            continue;
        }
        cuts.push(lo);
        cuts.push(hi);
        spans.push((lo, hi, seg));
    }
    cuts.sort_unstable();
    cuts.dedup();

    for pair in cuts.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        if a < window_lo || b > window_hi {
            continue;
        }
        let winner = spans
            .iter()
            .filter(|(lo, hi, _)| *lo <= a && *hi >= b)
            .map(|(_, _, seg)| *seg)
            .max_by_key(|seg| seg.priority())
            .unwrap_or(Segment::Other);
        segment_ns[winner.index()] += b - a;
    }
}

/// One percentile band's aggregated budget.
#[derive(Debug, Clone)]
pub struct BandAnatomy {
    /// Band label (`p50`, `p50-p90`, `p90-p99`, `p99+`).
    pub label: &'static str,
    /// Queries in the band.
    pub queries: usize,
    /// Sum of end-to-end latencies in the band.
    pub total_latency_ns: u64,
    /// Summed nanoseconds per segment, [`Segment::ALL`] order.
    pub segment_ns: [u64; SEGMENT_COUNT],
}

impl BandAnatomy {
    fn empty(label: &'static str) -> BandAnatomy {
        BandAnatomy {
            label,
            queries: 0,
            total_latency_ns: 0,
            segment_ns: [0; SEGMENT_COUNT],
        }
    }

    /// Fraction of the band's latency attributed to segments other than
    /// [`Segment::Other`] (1.0 for an empty band).
    pub fn attributed_fraction(&self) -> f64 {
        if self.total_latency_ns == 0 {
            return 1.0;
        }
        let other = self.segment_ns[Segment::Other.index()];
        1.0 - other as f64 / self.total_latency_ns as f64
    }
}

/// The percentile-band anatomy table over a run's accepted queries.
#[derive(Debug, Clone)]
pub struct AnatomyReport {
    /// Accepted queries decomposed.
    pub queries: usize,
    /// Sum of all accepted end-to-end latencies.
    pub total_latency_ns: u64,
    /// The four bands, tail-ward order: `p50`, `p50-p90`, `p90-p99`, `p99+`.
    pub bands: Vec<BandAnatomy>,
}

impl AnatomyReport {
    /// Aggregates per-query anatomies into percentile bands. Band
    /// thresholds are the exact nearest-rank p50/p90/p99 of the latencies;
    /// a query lands in `p99+` when its latency reaches the p99 value.
    pub fn aggregate(anatomies: &[QueryAnatomy]) -> AnatomyReport {
        let mut lat: Vec<u64> = anatomies.iter().map(|a| a.latency_ns).collect();
        lat.sort_unstable();
        let (t50, t90, t99) = (
            percentile(&lat, 50.0),
            percentile(&lat, 90.0),
            percentile(&lat, 99.0),
        );
        let mut bands = vec![
            BandAnatomy::empty("p50"),
            BandAnatomy::empty("p50-p90"),
            BandAnatomy::empty("p90-p99"),
            BandAnatomy::empty("p99+"),
        ];
        let mut total_latency_ns = 0u64;
        for a in anatomies {
            let band = if !lat.is_empty() && a.latency_ns >= t99 {
                3
            } else if a.latency_ns <= t50 {
                0
            } else if a.latency_ns <= t90 {
                1
            } else {
                2
            };
            let b = &mut bands[band];
            b.queries += 1;
            b.total_latency_ns += a.latency_ns;
            for (acc, v) in b.segment_ns.iter_mut().zip(&a.segment_ns) {
                *acc += v;
            }
            total_latency_ns += a.latency_ns;
        }
        AnatomyReport {
            queries: anatomies.len(),
            total_latency_ns,
            bands,
        }
    }

    /// Overall attributed fraction across every band.
    pub fn attributed_fraction(&self) -> f64 {
        if self.total_latency_ns == 0 {
            return 1.0;
        }
        let other: u64 = self
            .bands
            .iter()
            .map(|b| b.segment_ns[Segment::Other.index()])
            .sum();
        1.0 - other as f64 / self.total_latency_ns as f64
    }

    /// The `p99+` band — the tail the budget exists to explain.
    pub fn tail_band(&self) -> &BandAnatomy {
        self.bands.last().expect("four bands always present")
    }

    /// Plain-text anatomy table: one row per segment, one column per
    /// band, each cell `total_ns (share of band latency)`.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "latency anatomy — {} accepted queries, {:.1}% attributed",
            self.queries,
            self.attributed_fraction() * 100.0
        );
        let _ = write!(out, "{:<15}", "segment");
        for b in &self.bands {
            let _ = write!(out, "  {:>20}", format!("{} (n={})", b.label, b.queries));
        }
        out.push('\n');
        for seg in Segment::ALL {
            let _ = write!(out, "{:<15}", seg.label());
            for b in &self.bands {
                let ns = b.segment_ns[seg.index()];
                let pct = if b.total_latency_ns == 0 {
                    0.0
                } else {
                    ns as f64 * 100.0 / b.total_latency_ns as f64
                };
                let _ = write!(out, "  {:>20}", format!("{ns} ({pct:.1}%)"));
            }
            out.push('\n');
        }
        let _ = write!(out, "{:<15}", "total");
        for b in &self.bands {
            let _ = write!(out, "  {:>20}", b.total_latency_ns);
        }
        out.push('\n');
        out
    }

    /// Writes the anatomy's members into `o` (fixed key order, integer
    /// ns, six-decimal fractions); the run report nests it in place.
    pub fn write_json(&self, o: &mut Obj) {
        o.key("queries").int(self.queries);
        o.key("total_latency_ns").int(self.total_latency_ns);
        o.key("attributed_fraction")
            .float(self.attributed_fraction(), 6);
        o.key("bands").objs(&self.bands, |band, b| {
            band.key("band").str(b.label);
            band.key("queries").int(b.queries);
            band.key("total_latency_ns").int(b.total_latency_ns);
            band.key("attributed_fraction")
                .float(b.attributed_fraction(), 6);
            band.key("segments").obj(|segs| {
                for seg in Segment::ALL {
                    segs.key(seg.label()).int(b.segment_ns[seg.index()]);
                }
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snp_trace::{TimeDomain, Tracer};

    fn trace_with(spans: &[(&'static str, &'static str, u64, u64)]) -> Trace {
        let t = Tracer::enabled();
        let tr = t.track("engine", TimeDomain::Virtual);
        for &(cat, name, lo, hi) in spans {
            t.span(tr, cat, name, lo, hi);
        }
        t.snapshot().unwrap()
    }

    #[test]
    fn decomposition_is_exact_and_charges_each_instant_once() {
        // init [0,100], then pack, an overlapping write+kernel, a read,
        // and an uncovered gap at the end.
        let trace = trace_with(&[
            ("init", "device open", 0, 100),
            ("pack", "host pack", 100, 120),
            ("transfer", "write", 120, 160),
            ("kernel", "kernel", 140, 200),
            ("transfer", "read", 200, 230),
        ]);
        let a = decompose_query(7, 50, 150, Tier::Full, Some(&trace));
        assert_eq!(a.latency_ns, 200);
        assert_eq!(a.total_ns(), a.latency_ns, "segments sum exactly");
        assert_eq!(a.get(Segment::SchedQueue), 50);
        assert_eq!(a.get(Segment::Pack), 20);
        // Kernel wins the [140,160) overlap with the write.
        assert_eq!(a.get(Segment::H2d), 20);
        assert_eq!(a.get(Segment::Kernel), 60);
        assert_eq!(a.get(Segment::D2h), 30);
        assert_eq!(a.get(Segment::Other), 20, "uncovered tail of the window");
    }

    #[test]
    fn retry_and_fallback_outrank_everything() {
        let trace = trace_with(&[
            ("init", "device open", 0, 10),
            ("kernel", "kernel", 10, 50),
            ("retry", "backoff", 20, 30),
            ("fallback", "cpu fallback", 40, 60),
        ]);
        let a = decompose_query(0, 0, 50, Tier::Full, Some(&trace));
        assert_eq!(a.get(Segment::Kernel), 20);
        assert_eq!(a.get(Segment::RetryBackoff), 10);
        assert_eq!(a.get(Segment::CpuFallback), 20);
        assert_eq!(a.total_ns(), 50);
    }

    #[test]
    fn cpu_only_tier_charges_brownout_without_a_trace() {
        let a = decompose_query(3, 40, 1_000, Tier::CpuOnly, None);
        assert_eq!(a.get(Segment::BrownoutCpu), 1_000);
        assert_eq!(a.get(Segment::SchedQueue), 40);
        assert_eq!(a.total_ns(), 1_040);
    }

    #[test]
    fn missing_trace_lands_in_other_not_thin_air() {
        let a = decompose_query(0, 5, 95, Tier::Full, None);
        assert_eq!(a.get(Segment::Other), 95);
        assert_eq!(a.total_ns(), 100);
    }

    #[test]
    fn spans_outside_the_service_window_are_clipped() {
        // A span leaking past end-to-end (or before init) must not create
        // time out of nothing.
        let trace = trace_with(&[
            ("init", "device open", 0, 100),
            ("kernel", "kernel", 50, 400),
        ]);
        let a = decompose_query(0, 0, 200, Tier::Full, Some(&trace));
        assert_eq!(a.get(Segment::Kernel), 200);
        assert_eq!(a.total_ns(), 200);
    }

    #[test]
    fn bands_partition_queries_and_preserve_totals() {
        let mk = |id: u64, lat: u64| QueryAnatomy {
            query_id: id,
            latency_ns: lat,
            segment_ns: {
                let mut s = [0u64; SEGMENT_COUNT];
                s[Segment::Kernel.index()] = lat;
                s
            },
        };
        let anatomies: Vec<QueryAnatomy> = (0..100).map(|i| mk(i, 1_000 + i * 100)).collect();
        let report = AnatomyReport::aggregate(&anatomies);
        assert_eq!(report.queries, 100);
        assert_eq!(
            report.bands.iter().map(|b| b.queries).sum::<usize>(),
            100,
            "bands partition the queries"
        );
        assert_eq!(
            report.bands.iter().map(|b| b.total_latency_ns).sum::<u64>(),
            report.total_latency_ns
        );
        assert!(report.tail_band().queries >= 1, "p99+ holds the max");
        assert_eq!(report.attributed_fraction(), 1.0);
        let text = report.render_text();
        assert!(text.contains("p99+"), "{text}");
        assert!(text.contains("kernel"), "{text}");
    }

    #[test]
    fn json_is_deterministic_and_carries_every_segment() {
        let a = decompose_query(1, 10, 0, Tier::Full, None);
        let report = AnatomyReport::aggregate(&[a]);
        let j1 = snp_trace::json::document(|o| report.write_json(o));
        let j2 = snp_trace::json::document(|o| report.write_json(o));
        assert_eq!(j1, j2);
        for seg in Segment::ALL {
            assert!(j1.contains(&format!("\"{}\":", seg.label())), "{j1}");
        }
        assert!(j1.starts_with("{\"queries\":1,"));
        let doc = snp_trace::json::parse(&j1).expect("valid JSON");
        let bands = doc.as_obj().unwrap()["bands"].as_arr().unwrap();
        assert_eq!(bands.len(), 4);
    }

    #[test]
    fn empty_run_aggregates_cleanly() {
        let report = AnatomyReport::aggregate(&[]);
        assert_eq!(report.queries, 0);
        assert_eq!(report.attributed_fraction(), 1.0);
        assert_eq!(report.bands.len(), 4);
        assert!(!snp_trace::json::document(|o| report.write_json(o)).is_empty());
    }
}
