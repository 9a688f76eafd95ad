//! Recovery constants and accounting for fault-tolerant engine runs.
//!
//! The engine's tile-pass loop (engine.rs) pipelines its chunks on a
//! healthy device. When a [`FaultPlan`](snp_faults::FaultPlan) is armed on
//! the engine, the same loop takes its *recovering* schedule, for either
//! sink, built from the pieces in this module (DESIGN.md §10):
//!
//! * bounded per-chunk **retry** ([`MAX_RETRIES`]) with exponential
//!   virtual-time backoff from [`BACKOFF_NS`];
//! * chunk-granular **checkpointing** — a Full-mode readback is always
//!   checksum-verified, and a verified chunk is never recomputed, so device
//!   loss resumes from the last verified chunk, not from chunk zero;
//! * per-queue **circuit breaking** — a queue that fails
//!   [`QUARANTINE_AFTER`] times in a row is quarantined and replaced;
//! * **CPU fallback** — on permanent device loss the remaining chunks of a
//!   Full-mode run finish on the BLIS-style CPU engine and the run completes
//!   degraded; a timing-only run surfaces the loss as a typed error.
//!
//! This is the workspace's one recovery path: a multi-device run has no
//! failover of its own (see [`crate::multi`]).
//!
//! Every action is counted once, in the returned [`RecoverySummary`], and
//! the summary reconciles against the fault plan's injection stats — the
//! invariant the property tests in `tests/fault_recovery_properties.rs` pin
//! down: no injected fault goes unaccounted, and none is silently absorbed
//! into wrong results. The run's `engine.recovery.*` metrics are read off
//! the summary when the run ends; only the distribution of single backoff
//! delays, `engine.recovery.backoff_delay_ns`, is recorded as each one is
//! charged.

use snp_faults::FaultStats;
use snp_trace::Metrics;

/// Retries per command before a transient fault surfaces (at most
/// `MAX_RETRIES + 1` attempts); a corrupted readback is re-read as often.
pub const MAX_RETRIES: u32 = 3;

/// Backoff charged to the host clock before the first retry of a command;
/// it doubles with each further attempt.
pub const BACKOFF_NS: u64 = 10_000;

/// Consecutive failures on one queue before the circuit breaker quarantines
/// it and enqueues on a fresh replacement queue.
pub const QUARANTINE_AFTER: u32 = 3;

/// Backoff before retry attempt `attempt` (0-based, below [`MAX_RETRIES`]).
pub(crate) fn backoff_for(attempt: u32) -> u64 {
    BACKOFF_NS << attempt
}

/// What the recovery layer did during one run. Attached to run reports as
/// `Option<RecoverySummary>` — `None` means the run never armed a fault
/// plan and took the zero-overhead fast path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoverySummary {
    /// Commands retried after transient faults (timeouts + launch fails).
    pub retries: u64,
    /// Retries caused by transfer timeouts.
    pub retries_timeout: u64,
    /// Retries caused by kernel launch failures.
    pub retries_launch: u64,
    /// Corrupted readbacks detected by checksum and re-read.
    pub corruption_detected: u64,
    /// Virtual nanoseconds the host spent backing off before retries.
    pub backoff_ns: u64,
    /// Queue stalls absorbed into the timeline (no action needed).
    pub stalls_absorbed: u64,
    /// Chunks whose results were checksum-verified and checkpointed.
    pub verified_chunks: usize,
    /// Total chunks in the run (GPU + fallback).
    pub total_chunks: usize,
    /// Queues quarantined by the circuit breaker.
    pub quarantined_queues: u64,
    /// Whether the device was permanently lost mid-run.
    pub device_lost: bool,
    /// On device loss: the first chunk index that had to be re-run
    /// (everything before it was checkpointed). `None` when no loss.
    pub resumed_from_chunk: Option<usize>,
    /// Chunks completed on the CPU engine after device loss.
    pub cpu_fallback_chunks: usize,
    /// Faults the armed plan actually injected, for reconciliation.
    pub injected: FaultStats,
}

impl RecoverySummary {
    /// Whether the run completed in degraded mode (device lost, finished
    /// on the CPU) rather than fully on the device.
    pub fn degraded(&self) -> bool {
        self.device_lost && self.cpu_fallback_chunks > 0
    }

    /// Whether recovery acted: a retry, a re-read corruption or an absorbed
    /// stall. A run that is not degraded reports as *recovered* if so and
    /// as *clean* otherwise (loadgen outcomes, chaos cells).
    pub fn recovered(&self) -> bool {
        self.retries + self.corruption_detected + self.stalls_absorbed > 0
    }

    /// Counts the run's recovery on `metrics`, one counter per action the
    /// summary holds, each only when the run took that action.
    pub(crate) fn record(&self, metrics: &mut Metrics) {
        for (name, n) in [
            ("engine.recovery.retries", self.retries),
            ("engine.recovery.backoff_ns", self.backoff_ns),
            (
                "engine.recovery.corruption_detected",
                self.corruption_detected,
            ),
            (
                "engine.recovery.checkpoint_chunks",
                self.verified_chunks as u64,
            ),
            (
                "engine.recovery.cpu_fallback_chunks",
                self.cpu_fallback_chunks as u64,
            ),
            ("engine.recovery.device_loss", u64::from(self.device_lost)),
            ("engine.recovery.queue_quarantined", self.quarantined_queues),
        ] {
            if n > 0 {
                metrics.add(name, n);
            }
        }
    }

    /// One-line human rendering for CLI reports.
    pub fn render_line(&self) -> String {
        format!(
            "recovery: {} retries ({} timeout, {} launch), {} corruptions detected, \
             {} stalls absorbed, {}/{} chunks verified, {} quarantined queue(s){}",
            self.retries,
            self.retries_timeout,
            self.retries_launch,
            self.corruption_detected,
            self.stalls_absorbed,
            self.verified_chunks,
            self.total_chunks,
            self.quarantined_queues,
            if self.device_lost {
                format!(
                    ", DEVICE LOST (resumed from chunk {}, {} chunk(s) on CPU)",
                    self.resumed_from_chunk.unwrap_or(0),
                    self.cpu_fallback_chunks
                )
            } else {
                String::new()
            }
        )
    }
}

/// Per-queue consecutive-failure tracker — the circuit breaker. A success
/// resets the count; [`QUARANTINE_AFTER`] consecutive failures trip it.
#[derive(Debug, Clone, Default)]
pub struct QueueHealth {
    consecutive_failures: u32,
    quarantined: bool,
}

impl QueueHealth {
    /// Records a successful command.
    pub fn ok(&mut self) {
        self.consecutive_failures = 0;
    }

    /// Records a failed command; returns `true` if this failure trips the
    /// breaker (the caller should quarantine and replace the queue).
    pub fn fail(&mut self) -> bool {
        self.consecutive_failures += 1;
        if !self.quarantined && self.consecutive_failures >= QUARANTINE_AFTER {
            self.quarantined = true;
            return true;
        }
        false
    }

    /// Whether the breaker has tripped.
    pub fn is_quarantined(&self) -> bool {
        self.quarantined
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_per_attempt() {
        assert_eq!(backoff_for(0), BACKOFF_NS);
        assert_eq!(backoff_for(1), 2 * BACKOFF_NS);
        assert_eq!(backoff_for(3), 8 * BACKOFF_NS);
    }

    #[test]
    fn circuit_breaker_trips_once_after_threshold() {
        let mut h = QueueHealth::default();
        for _ in 1..QUARANTINE_AFTER {
            assert!(!h.fail());
        }
        h.ok(); // success resets the streak
        for _ in 1..QUARANTINE_AFTER {
            assert!(!h.fail());
        }
        assert!(
            h.fail(),
            "the QUARANTINE_AFTER-th consecutive failure trips"
        );
        assert!(h.is_quarantined());
        assert!(!h.fail(), "a tripped breaker does not re-trip");
    }

    #[test]
    fn summary_degraded_and_render() {
        let mut s = RecoverySummary::default();
        assert!(!s.degraded());
        s.device_lost = true;
        assert!(!s.degraded(), "loss without fallback is not degraded");
        s.cpu_fallback_chunks = 2;
        s.resumed_from_chunk = Some(5);
        assert!(s.degraded());
        let line = s.render_line();
        assert!(
            line.contains("DEVICE LOST") && line.contains("chunk 5"),
            "{line}"
        );
    }
}
