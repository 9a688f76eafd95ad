//! Property tests for the latency-anatomy decomposition: per-query
//! segments must sum to the end-to-end latency within 1 ns for every
//! accepted query, across FIFO and admission dispatch modes and under
//! injected device loss — the exactness contract DESIGN.md §16 promises.

use proptest::prelude::*;
use snp_core::FaultProfile;
use snp_gpu_model::devices;
use snp_load::{
    run, AdmissionConfig, AnatomyReport, ArrivalKind, FaultSpec, LoadConfig, Segment, Template,
};

fn anatomy_cfg(seed: u64, rate: f64, admission: bool, bursty: bool) -> LoadConfig {
    let mut cfg = LoadConfig::new(
        devices::titan_v(),
        vec![Template::Ld, Template::FastIdTopK, Template::Mixture],
    );
    cfg.queries = 20;
    cfg.seed = seed;
    cfg.rate_qps = rate;
    cfg.arrival = if bursty {
        ArrivalKind::Bursty
    } else {
        ArrivalKind::Poisson
    };
    cfg.record_timeline = false;
    cfg.anatomy = true;
    if admission {
        cfg.admission = AdmissionConfig::standard();
    }
    cfg
}

/// Asserts the §16 exactness contract over a finished run: one anatomy per
/// accepted query, each summing to its latency within 1 ns (the sweep-line
/// is integral, so "within 1 ns" is in practice "exactly").
fn assert_exact(cfg: &LoadConfig) {
    let report = run(cfg);
    let anatomy = report.anatomy.as_ref().expect("anatomy enabled");
    let accepted: Vec<_> = report
        .records
        .iter()
        .filter(|r| !r.outcome.is_shed())
        .collect();
    prop_assert_eq!(anatomy.queries, accepted.len());
    // Re-derive per-query sums by re-running aggregation inputs: the
    // report only keeps bands, so check the conservation laws they obey.
    let band_total: u64 = anatomy.bands.iter().map(|b| b.total_latency_ns).sum();
    let record_total: u64 = accepted.iter().map(|r| r.latency_ns).sum();
    prop_assert_eq!(band_total, record_total, "band latency == record latency");
    for band in &anatomy.bands {
        let seg_sum: u64 = band.segment_ns.iter().sum();
        prop_assert!(
            seg_sum.abs_diff(band.total_latency_ns) <= band.queries as u64,
            "band {} segments {} vs latency {} over {} queries",
            band.label,
            seg_sum,
            band.total_latency_ns,
            band.queries
        );
        prop_assert_eq!(
            seg_sum,
            band.total_latency_ns,
            "sweep-line attribution is integral, so the sum is exact"
        );
    }
}

proptest! {
    // Each case replays a full stream of engine runs; keep the case count
    // modest — the seed/rate space still varies arrivals, templates, and
    // queueing shape widely.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// FIFO mode (admission disabled): exact decomposition at any seed and
    /// offered rate, idle through saturated.
    #[test]
    fn segments_sum_to_latency_in_fifo_mode(
        seed in 0u64..1_000,
        rate in 500.0f64..100_000.0,
        bursty in any::<bool>(),
    ) {
        assert_exact(&anatomy_cfg(seed, rate, false, bursty));
    }

    /// Admission mode (fair queueing + EDF, quotas, brownout): shed queries are
    /// excluded, accepted ones still decompose exactly — including
    /// CpuOnly-tier queries that never touch the engine.
    #[test]
    fn segments_sum_to_latency_under_admission(
        seed in 0u64..1_000,
        rate in 2_000.0f64..200_000.0,
    ) {
        assert_exact(&anatomy_cfg(seed, rate, true, true));
    }

    /// Device loss mid-run: retry backoff and CPU fallback spans must be
    /// attributed, not leak into `other` as unexplained time.
    #[test]
    fn segments_sum_to_latency_under_device_loss(
        seed in 0u64..200,
        at_query in 0usize..20,
    ) {
        let mut cfg = anatomy_cfg(seed, 4_000.0, false, false);
        cfg.fault = Some(FaultSpec {
            profile_name: "loss".into(),
            profile: FaultProfile {
                device_loss_at: Some(2),
                ..FaultProfile::loss()
            },
            at_query: Some(at_query),
        });
        assert_exact(&cfg);
    }
}

/// The acceptance bar from the issue: on the PR 9 chaos/overload scenario
/// the anatomy must attribute at least 95% of accepted-query p99-band
/// latency to named segments (everything except `other`).
#[test]
fn chaos_overload_tail_latency_is_at_least_95_percent_attributed() {
    let mut cfg = anatomy_cfg(42, 16_000.0, true, true);
    cfg.queries = 96;
    cfg.fault = Some(FaultSpec {
        profile_name: "transient".into(),
        profile: FaultProfile::transient(),
        at_query: None,
    });
    let report = run(&cfg);
    let anatomy = report.anatomy.expect("anatomy enabled");
    let tail = anatomy.tail_band();
    assert!(tail.queries > 0, "overload run has a tail band");
    assert!(
        tail.attributed_fraction() >= 0.95,
        "p99+ attribution {:.4} below the 95% bar: {}",
        tail.attributed_fraction(),
        anatomy.render_text()
    );
    assert!(
        anatomy.attributed_fraction() >= 0.95,
        "overall attribution {:.4}",
        anatomy.attributed_fraction()
    );
    // Queue time dominates an overloaded tail; it must be named, and the
    // residual `other` can only be a sliver.
    assert!(tail.segment_ns[Segment::SchedQueue as usize] > 0 || tail.total_latency_ns == 0);
    let _ = AnatomyReport::aggregate(&[]); // API smoke: empty aggregation is valid
}
