//! Cross-crate acceptance tests for the query-grained telemetry layer:
//! the seeded load generator, SLO evaluation, the query-attributed merged
//! timeline, and the flight-recorder post-mortem path.

use snp_gpu_model::devices;
use snp_load::{run, saturation_sweep, FaultSpec, LoadConfig, Slo, SloPolicy, Template};

fn base_cfg() -> LoadConfig {
    let mut cfg = LoadConfig::new(
        devices::titan_v(),
        vec![
            Template::Ld,
            Template::FastId,
            Template::FastIdTopK,
            Template::Mixture,
        ],
    );
    cfg.queries = 24;
    cfg
}

#[test]
fn seeded_sweep_json_is_byte_reproducible_with_per_algorithm_percentiles() {
    let mut cfg = base_cfg();
    cfg.record_timeline = false;
    let a = saturation_sweep(&cfg, &[0.5, 1.0, 4.0]).to_json();
    let b = saturation_sweep(&cfg, &[0.5, 1.0, 4.0]).to_json();
    assert_eq!(a, b, "seeded sweep must render byte-identically");

    let doc = snp_trace::json::parse(&a).expect("sweep report is valid JSON");
    let points = doc.as_obj().unwrap()["points"].as_arr().unwrap();
    assert_eq!(points.len(), 3);
    for p in points {
        let report = p.as_obj().unwrap()["report"].as_obj().unwrap();
        let algs = report["algorithms"].as_arr().unwrap();
        assert!(!algs.is_empty());
        for a in algs {
            let o = a.as_obj().unwrap();
            for key in ["p50_ns", "p95_ns", "p99_ns"] {
                assert!(o[key].as_num().is_some(), "algorithm entry missing {key}");
            }
        }
    }
}

#[test]
fn impossible_slo_breaches_and_is_reported() {
    let mut cfg = base_cfg();
    cfg.slo = SloPolicy {
        per_algorithm: Vec::new(),
        default: Slo {
            p50_ns: 1,
            p99_ns: 1,
            error_budget: 0.5,
        },
    };
    let report = run(&cfg);
    assert!(report.breached, "1 ns objectives must breach");
    assert!(report.to_json().contains("\"slo_breached\":true"));
    assert!(
        report.postmortem.is_some(),
        "an SLO breach must dump the flight recorder"
    );
}

#[test]
fn merged_timeline_validates_and_attributes_every_query() {
    let cfg = base_cfg();
    let report = run(&cfg);
    let timeline = report.timeline().expect("run records a timeline");
    let json = snp_trace::chrome::export_chrome_trace(&timeline);
    snp_trace::chrome::validate(&json).expect("merged timeline is a valid Chrome trace");
    for qid in 0..cfg.queries as u64 {
        assert!(
            json.contains(&format!("\"query_id\":{qid}")),
            "timeline lost query {qid}"
        );
    }
}

#[test]
fn seeded_device_loss_dump_names_the_failing_query() {
    let mut cfg = base_cfg();
    cfg.fault = Some(FaultSpec {
        profile_name: "loss@2".to_string(),
        profile: snp_faults::FaultProfile {
            device_loss_at: Some(2),
            ..snp_faults::FaultProfile::loss()
        },
        at_query: Some(7),
    });
    let report = run(&cfg);
    let pm = report.postmortem.as_ref().expect("device loss must dump");
    let json = report.postmortem_json().unwrap();
    snp_trace::chrome::validate(&json).expect("post-mortem bundle is a valid Chrome trace");
    assert!(pm.reason.contains("query 7"), "{}", pm.reason);
    assert!(
        json.contains("\"query_id\":7"),
        "dump spans must carry the failing query's id"
    );
}

/// A report's metrics without the timing memo's lookups, which depend on
/// what the process looked up before.
fn own_metrics(report: &snp_load::LoadReport) -> Vec<(&'static str, snp_trace::MetricValue)> {
    report
        .metrics
        .iter()
        .filter(|(name, _)| !name.starts_with("sim.timing_cache."))
        .map(|(name, value)| (name, value.clone()))
        .collect()
}

#[test]
fn concurrent_runs_keep_their_own_metrics() {
    // Two different configs: a clean run on one device, and a faulted run
    // under admission on another, whose queries retry and recover.
    let mut clean = base_cfg();
    clean.seed = 1;
    clean.record_timeline = false;
    let mut faulted = LoadConfig::new(
        devices::gtx_980(),
        vec![Template::FastId, Template::Mixture],
    );
    faulted.queries = 16;
    faulted.seed = 7;
    faulted.admission = snp_load::AdmissionConfig::standard();
    faulted.fault = Some(FaultSpec {
        profile_name: "transient".into(),
        profile: snp_core::FaultProfile::transient(),
        at_query: None,
    });
    let alone = [own_metrics(&run(&clean)), own_metrics(&run(&faulted))];
    assert_ne!(alone[0], alone[1]);
    assert!(
        alone[1]
            .iter()
            .any(|(name, _)| *name == "engine.recovery.retries"),
        "the faulted run retries"
    );
    // Both start together and run side by side.
    let start = std::sync::Barrier::new(2);
    let together = std::thread::scope(|scope| {
        let handles = [&clean, &faulted].map(|cfg| {
            let start = &start;
            scope.spawn(move || {
                start.wait();
                own_metrics(&run(cfg))
            })
        });
        handles.map(|h| h.join().expect("load run"))
    });
    assert_eq!(together, alone);
}
