//! Fault-injection/recovery properties (DESIGN.md §10): for ANY seeded
//! fault plan the engine either returns results bit-identical to the
//! fault-free oracle or a typed `DeviceFault` error — never silently
//! corrupted data — and the recovery counters reconcile exactly with the
//! number of injected faults, as do the run's `engine.recovery.*` metrics
//! with the summary. Deterministic companions pin down the
//! checkpoint-resume guarantee (a Full-mode device loss resumes from the
//! last verified chunk on the CPU, not from chunk zero) and the typed error
//! chain of a timing-only loss, which has no results to finish on the CPU.

use proptest::prelude::*;
use snp_repro::bitmat::{BitMatrix, CountMatrix};
use snp_repro::core::{
    Algorithm, EngineError, EngineOptions, ExecMode, FaultKind, FaultPlan, FaultProfile, GpuEngine,
    Match, MixtureStrategy, RecoverySummary, Timing,
};
use snp_repro::gpu_model::{devices, DeviceSpec};
use snp_trace::Metrics;

fn matrix(rows: usize, cols: usize, salt: usize) -> BitMatrix<u64> {
    BitMatrix::from_fn(rows, cols, |r, c| {
        let h = (r * 1_000_003 + c + salt * 7_777_777).wrapping_mul(0x9E37_79B9);
        (h >> 13).is_multiple_of(4)
    })
}

/// A memory-shrunk device so a few-thousand-row database needs several
/// passes — checkpointing and loss-resume are only meaningful multi-chunk.
fn tiny_device() -> DeviceSpec {
    let mut d = devices::gtx_980();
    d.name = "GTX tiny".into();
    d.max_alloc_bytes = 1 << 17;
    d.global_mem_bytes = 1 << 20;
    d
}

fn full_options() -> EngineOptions {
    EngineOptions {
        mode: ExecMode::Full,
        double_buffer: true,
        mixture: MixtureStrategy::Direct,
        verify: true,
        cost_scale: snp_core::CostScale::default(),
    }
}

/// Fault-free oracle for the same problem.
fn oracle(
    a: &BitMatrix<u64>,
    b: &BitMatrix<u64>,
    alg: Algorithm,
) -> snp_repro::bitmat::CountMatrix {
    GpuEngine::new(tiny_device())
        .with_options(full_options())
        .compare(a, b, alg)
        .expect("fault-free run")
        .gamma
        .expect("full mode")
}

/// What one input of the seeded properties produced.
#[derive(PartialEq)]
enum Output {
    Gamma(CountMatrix),
    TopK(Vec<Vec<Match>>),
}

/// The seeded properties' inputs: the three algorithms through the full-γ
/// sink, then identity search through the top-k sink.
const INPUTS: [Option<Algorithm>; 4] = [
    Some(Algorithm::LinkageDisequilibrium),
    Some(Algorithm::IdentitySearch),
    Some(Algorithm::MixtureAnalysis),
    None,
];

/// Runs one input on `engine` (in Full mode).
fn run_input(
    engine: &GpuEngine,
    a: &BitMatrix<u64>,
    b: &BitMatrix<u64>,
    input: Option<Algorithm>,
) -> Result<(Output, Option<RecoverySummary>, Timing, Metrics), EngineError> {
    Ok(match input {
        Some(alg) => {
            let r = engine.compare(a, b, alg)?;
            let gamma = Output::Gamma(r.gamma.unwrap());
            (gamma, r.recovery, r.timing, r.metrics)
        }
        None => {
            let r = engine.identity_search_topk(a, b, 5)?;
            let lists = Output::TopK(r.matches.unwrap());
            (lists, r.recovery, r.timing, r.metrics)
        }
    })
}

/// The fault profiles the seeded properties draw from.
fn profiles() -> [FaultProfile; 5] {
    [
        FaultProfile::transient(),
        FaultProfile::corruption(),
        FaultProfile::stall(),
        FaultProfile::loss(),
        FaultProfile::mixed(),
    ]
}

#[test]
fn transient_faults_recover_bit_identical() {
    let a = matrix(8, 320, 1);
    let b = matrix(9000, 320, 2);
    let want = oracle(&a, &b, Algorithm::IdentitySearch);
    let run = GpuEngine::new(tiny_device())
        .with_options(full_options())
        .with_fault_plan(FaultPlan::new(42, FaultProfile::transient()))
        .compare(&a, &b, Algorithm::IdentitySearch)
        .expect("transient faults must be retried to success");
    assert_eq!(run.gamma.unwrap().first_mismatch(&want), None);
    let rec = run.recovery.expect("recovering path taken");
    assert!(
        rec.retries > 0,
        "seed 42 must inject at least one transient"
    );
    assert_eq!(rec.retries_timeout, rec.injected.transfer_timeouts);
    assert_eq!(rec.retries_launch, rec.injected.kernel_launch_fails);
    assert!(!rec.device_lost);
    assert!(run.timing.recovery_ns > 0, "backoff must be charged");
}

#[test]
fn corruption_is_detected_and_reread() {
    let a = matrix(8, 320, 3);
    let b = matrix(9000, 320, 4);
    let want = oracle(&a, &b, Algorithm::IdentitySearch);
    // Find a seed that actually corrupts a readback (deterministic scan).
    let mut hit = false;
    for seed in 0..20u64 {
        let run = GpuEngine::new(tiny_device())
            .with_options(full_options())
            .with_fault_plan(FaultPlan::new(seed, FaultProfile::corruption()))
            .compare(&a, &b, Algorithm::IdentitySearch)
            .expect("corruption must be detected and recovered");
        assert_eq!(
            run.gamma.unwrap().first_mismatch(&want),
            None,
            "seed {seed}: checksum verification let corrupted data through"
        );
        let rec = run.recovery.unwrap();
        assert_eq!(rec.corruption_detected, rec.injected.read_corruptions);
        hit |= rec.corruption_detected > 0;
    }
    assert!(hit, "no seed in 0..20 injected a corruption at 15% rate");
}

#[test]
fn stalls_are_absorbed_without_retry() {
    let a = matrix(8, 320, 5);
    let b = matrix(9000, 320, 6);
    let want = oracle(&a, &b, Algorithm::IdentitySearch);
    let run = GpuEngine::new(tiny_device())
        .with_options(full_options())
        .with_fault_plan(FaultPlan::new(7, FaultProfile::stall()))
        .compare(&a, &b, Algorithm::IdentitySearch)
        .expect("stalls never fail a run");
    assert_eq!(run.gamma.unwrap().first_mismatch(&want), None);
    let rec = run.recovery.unwrap();
    assert!(rec.injected.queue_stalls > 0, "seed 7 must stall something");
    assert_eq!(rec.stalls_absorbed, rec.injected.queue_stalls);
    assert_eq!(rec.retries, 0, "stalls must not trigger retries");
}

#[test]
fn device_loss_resumes_from_checkpoint_not_chunk_zero() {
    let a = matrix(8, 320, 7);
    let b = matrix(9000, 320, 8);
    let want = oracle(&a, &b, Algorithm::IdentitySearch);
    // Kill the device mid-stream: late enough that at least one chunk has
    // been checkpointed, early enough that work remains.
    let profile = FaultProfile {
        device_loss_at: Some(12),
        ..FaultProfile::none()
    };
    let run = GpuEngine::new(tiny_device())
        .with_options(full_options())
        .with_fault_plan(FaultPlan::new(0, profile))
        .compare(&a, &b, Algorithm::IdentitySearch)
        .expect("loss with CPU fallback must complete degraded");
    assert_eq!(run.gamma.unwrap().first_mismatch(&want), None);
    let rec = run.recovery.unwrap();
    assert!(rec.device_lost && rec.degraded());
    let resumed = rec.resumed_from_chunk.expect("loss records resume point");
    assert!(
        resumed >= 1,
        "loss at command 12 must land after the first checkpoint, got chunk {resumed}"
    );
    assert_eq!(
        rec.verified_chunks, resumed,
        "every chunk before the resume point was checkpointed"
    );
    assert_eq!(
        rec.cpu_fallback_chunks,
        rec.total_chunks - resumed,
        "exactly the unverified suffix reruns on the CPU"
    );
}

#[test]
fn timing_only_device_loss_is_a_typed_error_with_source_chain() {
    let a = matrix(8, 320, 9);
    let b = matrix(9000, 320, 10);
    // A timing-only run has no results for the CPU to finish, so its loss
    // surfaces instead of falling back.
    let err = GpuEngine::new(tiny_device())
        .with_options(EngineOptions {
            mode: ExecMode::TimingOnly,
            ..full_options()
        })
        .with_fault_plan(FaultPlan::new(
            0,
            FaultProfile {
                device_loss_at: Some(3),
                ..FaultProfile::none()
            },
        ))
        .compare(&a, &b, Algorithm::IdentitySearch)
        .expect_err("a timing-only loss must surface");
    let fault = err.device_fault().expect("typed DeviceFault");
    assert_eq!(fault.kind, FaultKind::DeviceLoss);
    // The full source chain: EngineError -> SimError -> DeviceFault.
    use std::error::Error;
    let sim = err.source().expect("EngineError::source");
    let leaf = sim.source().expect("SimError::source");
    assert!(leaf.to_string().contains("device_loss"), "{leaf}");
}

#[test]
fn streaming_topk_recovers_to_oracle_lists() {
    let q = matrix(4, 320, 15);
    let db = matrix(1200, 320, 16);
    let clean = GpuEngine::new(tiny_device())
        .with_options(full_options())
        .identity_search_topk(&q, &db, 5)
        .unwrap()
        .matches
        .unwrap();
    for profile in [FaultProfile::transient(), FaultProfile::mixed()] {
        let run = GpuEngine::new(tiny_device())
            .with_options(full_options())
            .with_fault_plan(FaultPlan::new(9, profile))
            .identity_search_topk(&q, &db, 5)
            .expect("recovering top-k must complete");
        assert_eq!(run.matches.unwrap(), clean, "top-k lists diverged");
        assert!(run.recovery.is_some());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// THE tentpole property: any seeded plan, any profile, any input —
    /// the engine returns results identical to the fault-free run (the full
    /// γ, or the top-k lists) or a typed fault. Silent corruption is
    /// unrepresentable.
    #[test]
    fn seeded_plans_never_silently_corrupt(
        seed in any::<u64>(),
        profile_idx in 0usize..5,
        input_idx in 0usize..INPUTS.len(),
    ) {
        let profile = profiles()[profile_idx];
        let input = INPUTS[input_idx];
        let a = matrix(6, 256, 19);
        let b = matrix(900, 256, 20);
        let engine = GpuEngine::new(tiny_device()).with_options(full_options());
        let (want, _, _, _) = run_input(&engine, &a, &b, input).expect("fault-free run");
        let armed = engine.with_fault_plan(FaultPlan::new(seed, profile));
        match run_input(&armed, &a, &b, input) {
            Ok((got, rec, _, _)) => {
                prop_assert!(
                    got == want,
                    "silent corruption at seed {} on {}",
                    seed,
                    input.map_or("the top-k sink", Algorithm::name)
                );
                let rec = rec.expect("recovering path");
                // Counter reconciliation: every injected fault is accounted.
                prop_assert_eq!(rec.retries_timeout, rec.injected.transfer_timeouts);
                prop_assert_eq!(rec.retries_launch, rec.injected.kernel_launch_fails);
                prop_assert_eq!(rec.corruption_detected, rec.injected.read_corruptions);
                prop_assert_eq!(rec.stalls_absorbed, rec.injected.queue_stalls);
                prop_assert_eq!(rec.retries, rec.retries_timeout + rec.retries_launch);
                prop_assert_eq!(rec.device_lost, rec.injected.device_losses > 0);
            }
            Err(e) => {
                prop_assert!(
                    e.device_fault().is_some(),
                    "non-typed failure at seed {}: {}", seed, e
                );
            }
        }
    }

    /// Timing stays internally consistent under fault recovery: the phase
    /// sums (including `recovery_ns`) must still bracket end-to-end time,
    /// on both sinks of the identity search.
    #[test]
    fn recovered_timing_validates(seed in any::<u64>(), topk in any::<bool>()) {
        let a = matrix(6, 256, 21);
        let b = matrix(900, 256, 22);
        let engine = GpuEngine::new(tiny_device())
            .with_options(full_options())
            .with_fault_plan(FaultPlan::new(seed, FaultProfile::mixed()));
        let input = if topk { None } else { Some(Algorithm::IdentitySearch) };
        if let Ok((_, _, timing, _)) = run_input(&engine, &a, &b, input) {
            prop_assert!(timing.validate().is_ok(), "{:?}", timing.validate());
        }
    }

    /// A faulted run's `engine.recovery.*` metrics say what its summary
    /// says: each counter equals its field and is present exactly when the
    /// field is nonzero, and the run records one backoff delay per retry,
    /// adding up to the summary's backoff.
    #[test]
    fn recovery_metrics_equal_the_summary(
        seed in any::<u64>(),
        profile_idx in 0usize..5,
        input_idx in 0usize..INPUTS.len(),
    ) {
        let a = matrix(6, 256, 23);
        let b = matrix(900, 256, 24);
        let engine = GpuEngine::new(tiny_device())
            .with_options(full_options())
            .with_fault_plan(FaultPlan::new(seed, profiles()[profile_idx]));
        if let Ok((_, rec, _, metrics)) = run_input(&engine, &a, &b, INPUTS[input_idx]) {
            let rec = rec.expect("recovering path");
            let counters = [
                ("engine.recovery.retries", rec.retries),
                ("engine.recovery.backoff_ns", rec.backoff_ns),
                ("engine.recovery.corruption_detected", rec.corruption_detected),
                ("engine.recovery.checkpoint_chunks", rec.verified_chunks as u64),
                ("engine.recovery.cpu_fallback_chunks", rec.cpu_fallback_chunks as u64),
                ("engine.recovery.device_loss", u64::from(rec.device_lost)),
                ("engine.recovery.queue_quarantined", rec.quarantined_queues),
            ];
            for (name, n) in counters {
                prop_assert_eq!(metrics.counter(name), (n > 0).then_some(n), "{}", name);
            }
            let delays = metrics.histogram("engine.recovery.backoff_delay_ns");
            prop_assert_eq!(delays.is_some(), rec.retries > 0);
            prop_assert_eq!(delays.map_or(0, |h| h.count()), rec.retries);
            prop_assert_eq!(delays.map_or(0, |h| h.sum()), rec.backoff_ns);
            let recorded = metrics
                .iter()
                .filter(|(name, _)| name.starts_with("engine.recovery."))
                .count();
            let present = counters.iter().filter(|(_, n)| *n > 0).count();
            prop_assert_eq!(recorded, present + usize::from(rec.retries > 0));
        }
    }
}
