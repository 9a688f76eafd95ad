//! Admission control: per-tenant token-bucket quotas, deadline derivation,
//! typed shedding, the hysteretic brownout controller, and the calibrated
//! per-template cost model the feasibility bound uses.
//!
//! The serving rule this module enforces is *shed typed at the door, never
//! drop silently inside*: every query is either *admitted* — and then
//! guaranteed to be dispatched (admission is the only place a query can be
//! refused) — or *shed* with a [`ShedReason`] that names exactly which
//! gate refused it. The three gates, in evaluation order:
//!
//! 1. **Quota** — a per-tenant token bucket refilled in virtual time at
//!    [`TENANT_RATE_QPS`] up to [`TENANT_BURST`]. A tenant above its
//!    sustained rate + burst allowance sheds
//!    [`ShedReason::QuotaExceeded`] without consuming server capacity,
//!    which is what keeps one tenant's overload from starving the others.
//! 2. **Queue depth** — a hard cap on total queued queries
//!    ([`ShedReason::QueueFull`]): bounded memory and bounded worst-case
//!    wait for everything already admitted.
//! 3. **Feasibility** — a provable completion-time lower bound against the
//!    query's deadline ([`ShedReason::DeadlineUnmeetable`]). The bound uses
//!    the calibrated clean-run service estimates (the engine's Eq. 4–7
//!    analytic timing made concrete per template and tier): the server is
//!    busy until `busy_until`, every queued same-tenant query with an
//!    earlier EDF key runs first, and faults only ever *lengthen* service —
//!    so `max(arrival, busy_until) + earlier_backlog + est > deadline`
//!    proves the deadline unmeetable before any work is wasted on it.
//!
//! Deadlines derive from the SLO objectives: `arrival + slack × p99`, so
//! operators tune one dimensionless knob and the per-algorithm objectives
//! keep doing the work.
//!
//! The [`BrownoutController`] is a three-tier hysteretic state machine
//! (full scan → streaming top-k with reduced k → CPU-fallback) driven by
//! queue depth and error-budget burn; see its docs for the exact rules.
//!
//! A run sets only the four [`AdmissionConfig`] knobs; the quotas, the
//! brownout thresholds and the shed-storm run are the constants below.

use snp_core::CostScale;
use snp_gpu_model::DeviceSpec;

use crate::workload::{cpu_service_ns, run_query_tier, Template, WorkloadSet};

/// Why a query was refused at admission. Typed — shed queries surface in
/// records, reports, and metrics, never as silent drops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The tenant's token bucket was empty: the tenant is over its
    /// sustained rate plus burst allowance.
    QuotaExceeded,
    /// Admitting would exceed the queue-depth cap.
    QueueFull,
    /// The completion-time lower bound already exceeds the deadline.
    DeadlineUnmeetable,
}

impl ShedReason {
    /// Stable lowercase label (JSON, metrics, span args).
    pub fn label(self) -> &'static str {
        match self {
            ShedReason::QuotaExceeded => "quota_exceeded",
            ShedReason::QueueFull => "queue_full",
            ShedReason::DeadlineUnmeetable => "deadline_unmeetable",
        }
    }
}

/// Brownout service tiers, ordered from richest to cheapest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// The template's native path (full-γ readback for FastID full scans).
    #[default]
    Full,
    /// FastID readbacks routed through streaming top-k with reduced `k`.
    ReducedTopK,
    /// Service off-device at the modeled CPU baseline's speed — slower, but
    /// immune to device faults.
    CpuOnly,
}

impl Tier {
    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            Tier::Full => "full",
            Tier::ReducedTopK => "reduced_topk",
            Tier::CpuOnly => "cpu_only",
        }
    }

    /// One tier cheaper (saturates at [`Tier::CpuOnly`]).
    pub fn down(self) -> Tier {
        match self {
            Tier::Full => Tier::ReducedTopK,
            _ => Tier::CpuOnly,
        }
    }

    /// One tier richer (saturates at [`Tier::Full`]).
    pub fn up(self) -> Tier {
        match self {
            Tier::CpuOnly => Tier::ReducedTopK,
            _ => Tier::Full,
        }
    }
}

/// A token bucket refilled continuously in virtual time.
///
/// Capacity `burst` tokens; refill `rate_per_sec` tokens per virtual
/// second; one token per admitted query. Over any window `[t0, t1]` the
/// bucket admits at most `burst + rate × (t1 − t0)` queries — the bound the
/// property tests pin down.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_per_sec: f64,
    burst: f64,
    tokens: f64,
    last_ns: u64,
}

impl TokenBucket {
    /// A full bucket. `rate_per_sec` and `burst` must be positive.
    pub fn new(rate_per_sec: f64, burst: f64) -> TokenBucket {
        assert!(rate_per_sec > 0.0 && burst > 0.0);
        TokenBucket {
            rate_per_sec,
            burst,
            tokens: burst,
            last_ns: 0,
        }
    }

    fn refill(&mut self, now_ns: u64) {
        let now_ns = now_ns.max(self.last_ns);
        let dt = (now_ns - self.last_ns) as f64 / 1e9;
        self.tokens = (self.tokens + dt * self.rate_per_sec).min(self.burst);
        self.last_ns = now_ns;
    }

    /// Takes one token at virtual instant `now_ns`; `false` means the
    /// caller is over quota. `now_ns` must be non-decreasing across calls.
    pub fn try_take(&mut self, now_ns: u64) -> bool {
        self.refill(now_ns);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Tokens available at `now_ns` (observational; does not take).
    pub fn available(&mut self, now_ns: u64) -> f64 {
        self.refill(now_ns);
        self.tokens
    }
}

/// Sustained admission rate of every tenant's token bucket (queries per
/// virtual second).
pub const TENANT_RATE_QPS: f64 = 2_000.0;
/// Burst allowance of every tenant's token bucket (its capacity, in
/// queries).
pub const TENANT_BURST: f64 = 8.0;

/// Queue depth at or above which the brownout controller counts pressure.
pub const BROWNOUT_HIGH_WATER: usize = 8;
/// Queue depth at or below which the brownout controller counts calm.
pub const BROWNOUT_LOW_WATER: usize = 2;
/// Error budget the burn signal is computed against
/// (`failed / (budget × completed)`).
pub const BROWNOUT_ERROR_BUDGET: f64 = 0.02;
/// Burn at or above which pressure is counted even with a short queue.
pub const BROWNOUT_BURN_HIGH: f64 = 1.0;
/// Consecutive observations on the same side required before a tier step —
/// the hysteresis dwell that stops tier flapping.
pub const BROWNOUT_DWELL: usize = 3;
/// Consecutive sheds that count as a shed storm and dump the flight
/// recorder.
pub const STORM_RUN: usize = 8;

/// One recorded tier change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierTransition {
    /// Virtual instant of the step.
    pub at_ns: u64,
    /// The tier stepped to.
    pub to: Tier,
}

/// The hysteretic brownout state machine.
///
/// Per observation (one per completion): queue depth ≥
/// [`BROWNOUT_HIGH_WATER`] *or* burn ≥ [`BROWNOUT_BURN_HIGH`] counts
/// pressure; depth ≤ [`BROWNOUT_LOW_WATER`] *and* burn below the threshold
/// counts calm; anything in between resets both streaks.
/// [`BROWNOUT_DWELL`] consecutive pressure observations step one tier
/// **down** (full → reduced top-k → CPU-only); as many consecutive calm
/// observations step one tier **up**. Stepping resets both streaks, so a
/// recovery to [`Tier::Full`] from [`Tier::CpuOnly`] takes at least
/// `2 × BROWNOUT_DWELL` calm observations — load must really have drained.
#[derive(Debug, Clone, Default)]
pub struct BrownoutController {
    tier: Tier,
    pressure: usize,
    calm: usize,
    transitions: Vec<TierTransition>,
}

impl BrownoutController {
    /// Starts at [`Tier::Full`].
    pub fn new() -> BrownoutController {
        BrownoutController::default()
    }

    /// The tier currently in force.
    pub fn tier(&self) -> Tier {
        self.tier
    }

    /// Every tier step taken so far, in order.
    pub fn transitions(&self) -> &[TierTransition] {
        &self.transitions
    }

    /// Burn signal: `failed / (error_budget × completed)`, 0 while nothing
    /// has completed.
    pub fn burn(&self, failed: usize, completed: usize) -> f64 {
        if completed == 0 || failed == 0 {
            return 0.0;
        }
        failed as f64 / (BROWNOUT_ERROR_BUDGET * completed as f64)
    }

    /// Feeds one observation; returns the (possibly new) tier in force.
    pub fn observe(&mut self, now_ns: u64, queue_depth: usize, burn: f64) -> Tier {
        let pressured = queue_depth >= BROWNOUT_HIGH_WATER || burn >= BROWNOUT_BURN_HIGH;
        let calm = queue_depth <= BROWNOUT_LOW_WATER && burn < BROWNOUT_BURN_HIGH;
        if pressured {
            self.pressure += 1;
            self.calm = 0;
        } else if calm {
            self.calm += 1;
            self.pressure = 0;
        } else {
            self.pressure = 0;
            self.calm = 0;
        }
        if self.pressure >= BROWNOUT_DWELL && self.tier != Tier::CpuOnly {
            self.tier = self.tier.down();
            self.pressure = 0;
            self.calm = 0;
            self.transitions.push(TierTransition {
                at_ns: now_ns,
                to: self.tier,
            });
        } else if self.calm >= BROWNOUT_DWELL && self.tier != Tier::Full {
            self.tier = self.tier.up();
            self.pressure = 0;
            self.calm = 0;
            self.transitions.push(TierTransition {
                at_ns: now_ns,
                to: self.tier,
            });
        }
        self.tier
    }
}

/// The admission settings a run can change; the quotas, brownout
/// thresholds and storm run are the constants above. `enabled: false` (the
/// default in `LoadConfig::new`) reproduces the PR 7 FIFO server
/// byte-for-byte: no quotas, no deadlines, no shedding, no brownout.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Master switch (`snpgpu loadgen --admission`).
    pub enabled: bool,
    /// Deadline = arrival + `deadline_slack` × (the template's SLO p99).
    pub deadline_slack: f64,
    /// Shed fraction above which the run exits `SHED_BUDGET_EXCEEDED` (7).
    pub shed_budget: f64,
    /// Hard cap on queued (admitted, not yet dispatched) queries.
    pub queue_cap: usize,
}

impl AdmissionConfig {
    /// Admission off: the legacy FIFO server semantics.
    pub fn disabled() -> AdmissionConfig {
        AdmissionConfig {
            enabled: false,
            ..AdmissionConfig::standard()
        }
    }

    /// Admission on with the documented defaults.
    pub fn standard() -> AdmissionConfig {
        AdmissionConfig {
            enabled: true,
            deadline_slack: 4.0,
            shed_budget: 0.5,
            queue_cap: 64,
        }
    }
}

/// Calibrated clean-run service estimates per `(template, tier)` — the
/// Eq. 4–7 analytic cost model made concrete for the feasibility bound and
/// the corruption oracle.
///
/// Absent faults the engine's modeled service time for a template is
/// deterministic, so one clean run per cell *is* the model evaluation;
/// faults only add retry/fallback time on top. That makes each estimate a
/// certified **lower bound** on real service time, which is exactly what a
/// provable shed decision needs. The same clean runs pin the expected
/// result digest per cell for the silent-corruption check.
#[derive(Debug, Clone)]
pub struct CostModel {
    entries: Vec<(Template, Tier, u64, u64)>,
}

/// The templates a cost model covers, in calibration order.
const ALL_TEMPLATES: [Template; 4] = [
    Template::Ld,
    Template::FastId,
    Template::FastIdTopK,
    Template::Mixture,
];

impl CostModel {
    /// Runs each `(template, tier)` cell once, clean, against `device`.
    /// Calibration runs under `cost_scale` so that feasibility estimates
    /// and corruption digests stay consistent with what-if replays whose
    /// engine runs are scaled the same way.
    pub fn calibrate(device: &DeviceSpec, set: &WorkloadSet, cost_scale: CostScale) -> CostModel {
        use snp_core::{EngineOptions, ExecMode, GpuEngine, MixtureStrategy};
        let engine = GpuEngine::new(device.clone()).with_options(EngineOptions {
            mode: ExecMode::Full,
            mixture: MixtureStrategy::Direct,
            cost_scale,
            ..Default::default()
        });
        let mut entries = Vec::new();
        for template in ALL_TEMPLATES {
            for tier in [Tier::Full, Tier::ReducedTopK] {
                let sr = run_query_tier(template, &engine, set, tier)
                    .expect("clean calibration run cannot fault");
                entries.push((template, tier, sr.service_ns, sr.digest));
            }
            entries.push((template, Tier::CpuOnly, cpu_service_ns(template, set), 0));
        }
        CostModel { entries }
    }

    fn cell(&self, template: Template, tier: Tier) -> (u64, u64) {
        self.entries
            .iter()
            .find(|(t, ti, _, _)| *t == template && *ti == tier)
            .map(|(_, _, ns, digest)| (*ns, *digest))
            .expect("cost model covers every (template, tier)")
    }

    /// The calibrated clean service time of this cell (virtual ns).
    pub fn estimate_ns(&self, template: Template, tier: Tier) -> u64 {
        self.cell(template, tier).0
    }

    /// The expected result digest of this cell (0 for cells without an
    /// engine result — nothing to corrupt).
    pub fn expected_digest(&self, template: Template, tier: Tier) -> u64 {
        self.cell(template, tier).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_bucket_enforces_rate_plus_burst() {
        let mut b = TokenBucket::new(1_000.0, 4.0);
        // Burst drains instantly…
        let taken = (0..10).filter(|_| b.try_take(0)).count();
        assert_eq!(taken, 4);
        // …then refills at the sustained rate: 1 ms → 1 token.
        assert!(!b.try_take(500_000));
        assert!(b.try_take(1_000_000));
        assert!(!b.try_take(1_000_001));
        // Refill never exceeds the burst cap.
        assert!((b.available(10_000_000_000) - 4.0).abs() < 1e-9);
    }

    /// Feeds `n` observations at queue depth `depth` (no burn).
    fn feed(bc: &mut BrownoutController, depth: usize, n: usize) -> Tier {
        for _ in 0..n {
            bc.observe(0, depth, 0.0);
        }
        bc.tier()
    }

    #[test]
    fn brownout_steps_down_and_recovers_with_hysteresis() {
        let mut bc = BrownoutController::new();
        assert_eq!(
            feed(&mut bc, 20, BROWNOUT_DWELL - 1),
            Tier::Full,
            "fewer observations than the dwell are not enough"
        );
        assert_eq!(feed(&mut bc, 20, 1), Tier::ReducedTopK);
        assert_eq!(feed(&mut bc, 20, BROWNOUT_DWELL), Tier::CpuOnly);
        // Saturates at the bottom.
        assert_eq!(feed(&mut bc, 20, 2 * BROWNOUT_DWELL), Tier::CpuOnly);
        // A mid-band observation resets the calm streak and holds the tier.
        feed(&mut bc, 0, BROWNOUT_DWELL - 1);
        assert_eq!(feed(&mut bc, 5, 1), Tier::CpuOnly);
        // Calm observations recover one tier per dwell.
        assert_eq!(feed(&mut bc, 0, BROWNOUT_DWELL - 1), Tier::CpuOnly);
        assert_eq!(feed(&mut bc, 0, 1), Tier::ReducedTopK);
        assert_eq!(feed(&mut bc, 0, BROWNOUT_DWELL), Tier::Full);
        assert_eq!(bc.transitions().len(), 4);
    }

    #[test]
    fn brownout_burn_alone_trips_pressure() {
        let mut bc = BrownoutController::new();
        let burn = bc.burn(3, 10); // 3/(0.02×10) = 15
        assert!(burn > BROWNOUT_BURN_HIGH);
        for _ in 1..BROWNOUT_DWELL {
            assert_eq!(bc.observe(0, 0, burn), Tier::Full);
        }
        assert_eq!(bc.observe(0, 0, burn), Tier::ReducedTopK);
        assert_eq!(bc.burn(0, 10), 0.0);
    }

    #[test]
    fn cost_model_estimates_are_positive_and_cpu_tier_is_slowest_free_path() {
        let set = WorkloadSet::build(42);
        let model = CostModel::calibrate(
            &snp_gpu_model::devices::titan_v(),
            &set,
            CostScale::default(),
        );
        for template in ALL_TEMPLATES {
            for tier in [Tier::Full, Tier::ReducedTopK, Tier::CpuOnly] {
                assert!(
                    model.estimate_ns(template, tier) > 0,
                    "{template:?}/{tier:?}"
                );
            }
            // Engine tiers carry a result digest; the CPU tier has none.
            assert_ne!(model.expected_digest(template, Tier::Full), 0);
            assert_eq!(model.expected_digest(template, Tier::CpuOnly), 0);
        }
        // Reduced k reads back no more than the native k on the same
        // streaming path. (Full-γ vs top-k is *not* ordered at this small
        // modeled shape — the streaming machinery has its own cost.)
        assert!(
            model.estimate_ns(Template::FastIdTopK, Tier::ReducedTopK)
                <= model.estimate_ns(Template::FastIdTopK, Tier::Full)
        );
    }
}
