//! Property tests for the admission layer: token-bucket rate bounds, EDF
//! dispatch order, the admitted-is-never-shed guarantee, and brownout
//! recovery, over seeded arbitrary inputs.

use proptest::prelude::*;
use snp_gpu_model::devices;
use snp_load::admission::{BROWNOUT_DWELL, TENANT_BURST, TENANT_RATE_QPS};
use snp_load::{
    run, AdmissionConfig, ArrivalKind, BrownoutController, LoadConfig, Outcome, QueuedQuery,
    Scheduler, Template, Tier, TokenBucket,
};

/// Strategy: a non-decreasing virtual arrival sequence (ns).
fn arrival_stream(max_len: usize) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..5_000_000, 1..=max_len).prop_map(|deltas| {
        deltas
            .iter()
            .scan(0u64, |t, d| {
                *t += d;
                Some(*t)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Over any window starting from a full bucket, the number of accepted
    /// requests never exceeds `burst + rate × elapsed` — the sustained
    /// rate bound admission enforces per tenant.
    #[test]
    fn token_bucket_never_exceeds_rate_plus_burst(
        arrivals in arrival_stream(200),
        rate in 1.0f64..20_000.0,
        burst in 1.0f64..16.0,
    ) {
        let mut bucket = TokenBucket::new(rate, burst);
        let mut accepted = 0usize;
        for &t in &arrivals {
            if bucket.try_take(t) {
                accepted += 1;
            }
        }
        let window_s = *arrivals.last().unwrap() as f64 / 1e9;
        let bound = burst + rate * window_s;
        prop_assert!(
            accepted as f64 <= bound + 1e-6,
            "accepted {} > bound {:.3} (rate {:.1}, burst {:.1}, window {:.6}s)",
            accepted, bound, rate, burst, window_s
        );
    }

    /// Within one tenant the scheduler dispatches strictly by the EDF key
    /// `(deadline, seq)`, whatever order queries were pushed in.
    #[test]
    fn edf_dispatch_is_ordered_by_deadline_then_seq(
        entries in prop::collection::vec((0u64..1_000_000, 1u64..1_000), 1..40),
    ) {
        let mut s = Scheduler::new(1, false);
        for (seq, &(deadline_ns, est_ns)) in entries.iter().enumerate() {
            s.push(QueuedQuery {
                seq: seq as u64,
                tenant: 0,
                template: Template::Ld,
                arrival_ns: 0,
                deadline_ns,
                est_ns,
            });
        }
        let keys: Vec<(u64, u64)> =
            std::iter::from_fn(|| s.pop()).map(|q| (q.deadline_ns, q.seq)).collect();
        prop_assert_eq!(keys.len(), entries.len());
        prop_assert!(keys.windows(2).all(|w| w[0] <= w[1]), "{:?}", keys);
    }

    /// Whatever pressure history the controller saw, sustained calm always
    /// recovers it to the full tier — brownout cannot latch down.
    #[test]
    fn brownout_always_recovers_under_sustained_calm(
        observations in prop::collection::vec((0usize..64, 0.0f64..4.0), 0..60),
    ) {
        let mut bc = BrownoutController::new();
        let mut now = 0u64;
        for &(depth, burn) in &observations {
            now += 1;
            bc.observe(now, depth, burn);
        }
        // Two full tier steps (CPU-only → reduced → full) need 2×dwell calm
        // observations; give it that plus slack.
        for _ in 0..(2 * BROWNOUT_DWELL + 2) {
            now += 1;
            bc.observe(now, 0, 0.0);
        }
        prop_assert_eq!(bc.tier(), Tier::Full);
    }
}

proptest! {
    // End-to-end runs are costly (each spawns real engine executions), so
    // fewer cases — the per-case input space is still broad.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// End-to-end admission invariants over arbitrary seeds and offered
    /// rates: an admitted query is never shed later (admitted == completed),
    /// every shed is typed with zero service, and per-tenant admissions
    /// respect the tenant's sustained rate bound.
    #[test]
    fn admitted_queries_always_complete_and_quota_bounds_hold(
        seed in 0u64..1_000,
        rate in 1_000.0f64..200_000.0,
        bursty in any::<bool>(),
    ) {
        let mut cfg = LoadConfig::new(
            devices::titan_v(),
            vec![Template::Ld, Template::FastIdTopK, Template::Mixture],
        );
        cfg.queries = 24;
        cfg.seed = seed;
        cfg.rate_qps = rate;
        cfg.arrival = if bursty { ArrivalKind::Bursty } else { ArrivalKind::Poisson };
        cfg.record_timeline = false;
        cfg.admission = AdmissionConfig::standard();
        let report = run(&cfg);
        let adm = report.admission.as_ref().expect("admission enabled");

        // Admitted ⇒ dispatched ⇒ completed: shedding only happens at the
        // door, so completions account for every admitted query.
        let completions = report.outcomes.clean
            + report.outcomes.recovered
            + report.outcomes.degraded
            + report.outcomes.fault
            + report.outcomes.error;
        prop_assert_eq!(adm.admitted, completions);
        prop_assert_eq!(adm.offered, cfg.queries);

        // Sheds are typed, never ran, and tallied by gate.
        let mut shed_seen = 0usize;
        for r in &report.records {
            if let Outcome::Shed(reason) = &r.outcome {
                shed_seen += 1;
                prop_assert_eq!(r.service_ns, 0);
                prop_assert!(!reason.label().is_empty());
            }
        }
        prop_assert_eq!(shed_seen, adm.shed_quota + adm.shed_queue_full + adm.shed_deadline);

        // Per-tenant token-bucket bound: admissions within the tenant's
        // arrival window never exceed burst + rate × window.
        for tenant in &adm.tenants {
            let arrivals: Vec<u64> = report
                .records
                .iter()
                .filter(|r| r.tenant == tenant.name)
                .map(|r| r.arrival_ns)
                .collect();
            if arrivals.is_empty() {
                continue;
            }
            let window_s = (*arrivals.iter().max().unwrap()) as f64 / 1e9;
            let bound = TENANT_BURST + TENANT_RATE_QPS * window_s;
            prop_assert!(
                tenant.admitted as f64 <= bound + 1e-6,
                "tenant {} admitted {} > bound {:.3}",
                tenant.name, tenant.admitted, bound
            );
        }
    }
}
