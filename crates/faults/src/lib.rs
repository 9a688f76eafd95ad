//! # snp-faults — deterministic fault injection for the simulated device
//!
//! The paper's host framework (§VI) assumes a healthy OpenCL device. A
//! production service cannot: transfers time out, readbacks arrive with
//! flipped bits, kernel launches fail, queues stall, and whole devices
//! disappear mid-stream. This crate defines the *fault taxonomy* and a
//! deterministic, seedable [`FaultPlan`] that the simulated `Gpu` consults
//! at every host command. Determinism matters: the same seed and profile
//! replay the same fault sequence against the same command stream, so every
//! chaos finding is reproducible and every recovery path is testable.
//!
//! Faults come in two flavours:
//!
//! * **Device faults** — injected by the simulator per host command and
//!   surfaced as a typed [`DeviceFault`] (wrapped in the host API's error
//!   enum) or, for corruption and stalls, as in-band misbehaviour the
//!   recovery layer must detect (checksums) or absorb (timing).
//! * **Engine faults** — seeded bugs in the *host orchestration* itself
//!   (today: dropping the B-upload dependency from kernel wait lists),
//!   consulted by the engine when it builds wait lists and caught by the
//!   `snp-verify` race detector.
//!
//! See DESIGN.md §10 for the recovery semantics built on top.

#![warn(missing_docs)]

use std::fmt;

/// The class of host command a fault decision applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultOp {
    /// Host→device transfer (functional or virtual).
    Write,
    /// Device→host transfer (functional or virtual, including checksum
    /// readbacks).
    Read,
    /// Kernel launch.
    Kernel,
}

impl FaultOp {
    /// Short lowercase name for messages.
    pub fn name(self) -> &'static str {
        match self {
            FaultOp::Write => "write",
            FaultOp::Read => "read",
            FaultOp::Kernel => "kernel",
        }
    }
}

/// The fault taxonomy (DESIGN.md §10.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FaultKind {
    /// A transfer exceeded its deadline and was aborted by the runtime.
    /// Transient: a retry of the command may succeed.
    TransferTimeout,
    /// A device→host readback delivered data with flipped bits (an
    /// ECC-escape / link corruption). Injected *silently* into the received
    /// words — detection is the recovery layer's job (per-chunk checksums).
    ReadCorruption,
    /// A kernel launch was rejected by the runtime. Transient.
    KernelLaunchFail,
    /// The queue hiccupped: the command completes correctly but holds its
    /// resource for an extra stall period. Absorbed, never an error.
    QueueStall,
    /// The device fell off the bus. Permanent: every later command on this
    /// device fails with the same fault.
    DeviceLoss,
}

impl FaultKind {
    /// All kinds, for reports and reconciliation loops.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::TransferTimeout,
        FaultKind::ReadCorruption,
        FaultKind::KernelLaunchFail,
        FaultKind::QueueStall,
        FaultKind::DeviceLoss,
    ];

    /// Stable snake_case name (used in reports and JSON).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::TransferTimeout => "transfer_timeout",
            FaultKind::ReadCorruption => "read_corruption",
            FaultKind::KernelLaunchFail => "kernel_launch_fail",
            FaultKind::QueueStall => "queue_stall",
            FaultKind::DeviceLoss => "device_loss",
        }
    }

    /// Whether a bounded retry of the failed command is a sound response.
    pub fn is_transient(self) -> bool {
        matches!(
            self,
            FaultKind::TransferTimeout | FaultKind::KernelLaunchFail
        )
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A structured device fault: what was injected, where in the command
/// stream, and on which command class. This is the `source()` root of the
/// error chain the engine and CLI classify on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceFault {
    /// What went wrong.
    pub kind: FaultKind,
    /// The command class it hit.
    pub op: FaultOp,
    /// Zero-based index of the host command in this device's lifetime.
    pub command_index: u64,
}

impl fmt::Display for DeviceFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "injected {} on {} command #{}",
            self.kind,
            self.op.name(),
            self.command_index
        )
    }
}

impl std::error::Error for DeviceFault {}

/// How the simulator should misbehave on one command, as decided by
/// [`FaultPlan::next`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Injection {
    /// Fail the command with a typed fault (timeout / launch fail / loss).
    Fail(DeviceFault),
    /// Deliver the readback with a deterministically chosen bit flipped;
    /// `entropy` seeds the word/bit choice.
    CorruptBit {
        /// Deterministic entropy for choosing the flipped word and bit.
        entropy: u64,
    },
    /// Complete the command but occupy its resource `ns` longer.
    Stall {
        /// Extra nanoseconds of resource occupancy.
        ns: u64,
    },
}

/// Per-command fault probabilities plus scheduled faults — the declarative
/// half of a [`FaultPlan`]. Rates are per *eligible* command (timeouts hit
/// transfers, launch failures hit kernels, corruption hits functional
/// readbacks, stalls hit everything).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Probability a transfer times out.
    pub transfer_timeout: f64,
    /// Probability a functional readback is delivered corrupted.
    pub read_corruption: f64,
    /// Probability a kernel launch fails.
    pub kernel_launch_fail: f64,
    /// Probability any command stalls its queue.
    pub queue_stall: f64,
    /// Stall duration in virtual nanoseconds.
    pub stall_ns: u64,
    /// Permanently lose the device at this host-command index.
    pub device_loss_at: Option<u64>,
    /// Engine-level seeded bug: drop the B-upload event from every kernel
    /// wait list (the missing-dependency hazard `snp-verify` exists to
    /// catch). Consulted by the engine, not the simulator.
    pub drop_kernel_b_dep: bool,
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile {
            transfer_timeout: 0.0,
            read_corruption: 0.0,
            kernel_launch_fail: 0.0,
            queue_stall: 0.0,
            stall_ns: 50_000,
            device_loss_at: None,
            drop_kernel_b_dep: false,
        }
    }
}

impl FaultProfile {
    /// No faults at all (the baseline chaos cell).
    pub fn none() -> Self {
        Self::default()
    }

    /// Transient runtime flakiness: occasional transfer timeouts and kernel
    /// launch failures, recoverable by bounded retry.
    pub fn transient() -> Self {
        FaultProfile {
            transfer_timeout: 0.08,
            kernel_launch_fail: 0.08,
            ..Self::default()
        }
    }

    /// Readback bit corruption (ECC-escape), recoverable by checksum-verify
    /// and re-read.
    pub fn corruption() -> Self {
        FaultProfile {
            read_corruption: 0.15,
            ..Self::default()
        }
    }

    /// Queue stalls: commands complete correctly but late.
    pub fn stall() -> Self {
        FaultProfile {
            queue_stall: 0.25,
            stall_ns: 200_000,
            ..Self::default()
        }
    }

    /// Permanent device loss partway through the command stream, forcing
    /// checkpoint-resume on the CPU.
    pub fn loss() -> Self {
        FaultProfile {
            device_loss_at: Some(9),
            ..Self::default()
        }
    }

    /// Everything at once: flaky transfers and launches, corrupt readbacks,
    /// stalls, and eventual device loss.
    pub fn mixed() -> Self {
        FaultProfile {
            transfer_timeout: 0.05,
            read_corruption: 0.08,
            kernel_launch_fail: 0.05,
            queue_stall: 0.10,
            stall_ns: 100_000,
            device_loss_at: Some(40),
            ..Self::default()
        }
    }

    /// Looks up a named chaos profile (`none`, `transient`, `corruption`,
    /// `stall`, `loss`, `mixed`).
    pub fn by_name(name: &str) -> Option<FaultProfile> {
        match name {
            "none" => Some(Self::none()),
            "transient" => Some(Self::transient()),
            "corruption" => Some(Self::corruption()),
            "stall" => Some(Self::stall()),
            "loss" => Some(Self::loss()),
            "mixed" => Some(Self::mixed()),
            _ => None,
        }
    }

    /// The chaos-matrix profile names, in report order.
    pub const NAMES: [&'static str; 6] =
        ["none", "transient", "corruption", "stall", "loss", "mixed"];
}

/// Counts of faults actually injected, by kind. The recovery layer's
/// counters must reconcile against these (tested property): every injected
/// fault is retried, absorbed, detected, or surfaced — never silent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transfer timeouts injected.
    pub transfer_timeouts: u64,
    /// Corrupted readbacks delivered.
    pub read_corruptions: u64,
    /// Kernel launch failures injected.
    pub kernel_launch_fails: u64,
    /// Queue stalls injected.
    pub queue_stalls: u64,
    /// Whether the device was lost (at most once).
    pub device_losses: u64,
}

impl FaultStats {
    /// Count for one kind.
    pub fn count(&self, kind: FaultKind) -> u64 {
        match kind {
            FaultKind::TransferTimeout => self.transfer_timeouts,
            FaultKind::ReadCorruption => self.read_corruptions,
            FaultKind::KernelLaunchFail => self.kernel_launch_fails,
            FaultKind::QueueStall => self.queue_stalls,
            FaultKind::DeviceLoss => self.device_losses,
        }
    }

    /// Total injected faults of every kind.
    pub fn total(&self) -> u64 {
        FaultKind::ALL.iter().map(|&k| self.count(k)).sum()
    }

    fn bump(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::TransferTimeout => self.transfer_timeouts += 1,
            FaultKind::ReadCorruption => self.read_corruptions += 1,
            FaultKind::KernelLaunchFail => self.kernel_launch_fails += 1,
            FaultKind::QueueStall => self.queue_stalls += 1,
            FaultKind::DeviceLoss => self.device_losses += 1,
        }
    }
}

/// A deterministic, seedable fault plan: a [`FaultProfile`] (rates and
/// scheduled loss), explicit per-command overrides, and the runtime cursor
/// and stats. Cloning yields an independent replay from the *current*
/// position; plans handed to a fresh device start at command zero.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    profile: FaultProfile,
    explicit: Vec<(u64, FaultKind)>,
    cursor: u64,
    lost: bool,
    stats: FaultStats,
}

/// SplitMix64 — tiny, high-quality, and stable across platforms; the same
/// generator the `rand` shim builds on.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// A plan from a seed and a profile.
    pub fn new(seed: u64, profile: FaultProfile) -> FaultPlan {
        FaultPlan {
            seed,
            profile,
            explicit: Vec::new(),
            cursor: 0,
            lost: false,
            stats: FaultStats::default(),
        }
    }

    /// A plan that never injects anything (useful to exercise the recovery
    /// machinery's fault-free path).
    pub fn quiet() -> FaultPlan {
        FaultPlan::new(0, FaultProfile::none())
    }

    /// Schedules `kind` at exactly host-command index `at` (in addition to
    /// any rate-driven faults). Eligibility still applies: a corruption
    /// scheduled on a kernel command is ignored.
    pub fn inject_at(mut self, at: u64, kind: FaultKind) -> FaultPlan {
        self.explicit.push((at, kind));
        self
    }

    /// The declarative profile.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// Faults injected so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Whether the device has been permanently lost.
    pub fn device_lost(&self) -> bool {
        self.lost
    }

    /// A uniform draw in `[0, 1)` for (command, kind-lane) — lanes keep the
    /// per-kind decisions independent of each other.
    fn unit(&self, index: u64, lane: u64) -> f64 {
        let h = splitmix64(self.seed ^ index.wrapping_mul(0xA076_1D64_78BD_642F) ^ (lane << 56));
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Decides the fate of the next host command of class `op`.
    /// `corruptible` marks functional readbacks (virtual reads move no data,
    /// so there is nothing to corrupt). Advances the command cursor and
    /// updates [`stats`](Self::stats) for whatever is injected.
    pub fn next(&mut self, op: FaultOp, corruptible: bool) -> Option<Injection> {
        let index = self.cursor;
        self.cursor += 1;
        let fail = |kind: FaultKind| {
            Injection::Fail(DeviceFault {
                kind,
                op,
                command_index: index,
            })
        };
        if self.lost {
            // Permanent: every later command fails, but the loss is counted
            // once — consequences are not new injections.
            return Some(fail(FaultKind::DeviceLoss));
        }
        if self.profile.device_loss_at.is_some_and(|at| index >= at) {
            self.lost = true;
            self.stats.bump(FaultKind::DeviceLoss);
            return Some(fail(FaultKind::DeviceLoss));
        }
        let eligible = |kind: FaultKind| match kind {
            FaultKind::TransferTimeout => op != FaultOp::Kernel,
            FaultKind::ReadCorruption => op == FaultOp::Read && corruptible,
            FaultKind::KernelLaunchFail => op == FaultOp::Kernel,
            FaultKind::QueueStall => true,
            FaultKind::DeviceLoss => true,
        };
        if let Some(&(_, kind)) = self
            .explicit
            .iter()
            .find(|&&(at, kind)| at == index && eligible(kind))
        {
            return Some(self.apply(kind, op, index));
        }
        // Rate-driven, in severity order: a command that would both stall
        // and time out times out.
        let rate = |kind: FaultKind| match kind {
            FaultKind::TransferTimeout => self.profile.transfer_timeout,
            FaultKind::ReadCorruption => self.profile.read_corruption,
            FaultKind::KernelLaunchFail => self.profile.kernel_launch_fail,
            FaultKind::QueueStall => self.profile.queue_stall,
            FaultKind::DeviceLoss => 0.0,
        };
        for (lane, kind) in [
            FaultKind::TransferTimeout,
            FaultKind::KernelLaunchFail,
            FaultKind::ReadCorruption,
            FaultKind::QueueStall,
        ]
        .into_iter()
        .enumerate()
        {
            if eligible(kind) && self.unit(index, lane as u64) < rate(kind) {
                return Some(self.apply(kind, op, index));
            }
        }
        None
    }

    fn apply(&mut self, kind: FaultKind, op: FaultOp, index: u64) -> Injection {
        self.stats.bump(kind);
        match kind {
            FaultKind::DeviceLoss => {
                self.lost = true;
                Injection::Fail(DeviceFault {
                    kind,
                    op,
                    command_index: index,
                })
            }
            FaultKind::ReadCorruption => Injection::CorruptBit {
                entropy: splitmix64(self.seed ^ index.wrapping_mul(0xD6E8_FEB8_6659_FD93)),
            },
            FaultKind::QueueStall => Injection::Stall {
                ns: self.profile.stall_ns,
            },
            FaultKind::TransferTimeout | FaultKind::KernelLaunchFail => {
                Injection::Fail(DeviceFault {
                    kind,
                    op,
                    command_index: index,
                })
            }
        }
    }
}

/// FNV-1a over the little-endian bytes of `words` — the cheap per-chunk
/// checksum the recovery layer compares between the device-side buffer and
/// the words the host actually received (DESIGN.md §10.3).
pub fn checksum_words(words: &[u32]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic() {
        let run = || {
            let mut p = FaultPlan::new(7, FaultProfile::mixed());
            (0..100)
                .map(|i| {
                    let op = match i % 3 {
                        0 => FaultOp::Write,
                        1 => FaultOp::Kernel,
                        _ => FaultOp::Read,
                    };
                    p.next(op, true)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn quiet_plan_injects_nothing() {
        let mut p = FaultPlan::quiet();
        for _ in 0..1000 {
            assert_eq!(p.next(FaultOp::Write, false), None);
        }
        assert_eq!(p.stats().total(), 0);
    }

    #[test]
    fn device_loss_is_permanent_and_counted_once() {
        let mut p = FaultPlan::new(
            1,
            FaultProfile {
                device_loss_at: Some(3),
                ..FaultProfile::none()
            },
        );
        for i in 0..3u64 {
            assert_eq!(p.next(FaultOp::Write, false), None, "command {i}");
        }
        for _ in 0..5 {
            match p.next(FaultOp::Kernel, false) {
                Some(Injection::Fail(f)) => assert_eq!(f.kind, FaultKind::DeviceLoss),
                other => panic!("expected loss, got {other:?}"),
            }
        }
        assert_eq!(p.stats().device_losses, 1, "loss counted once");
        assert!(p.device_lost());
    }

    #[test]
    fn explicit_injection_respects_eligibility() {
        // A corruption scheduled on a kernel command is ignored; on a
        // functional read it fires.
        let mut p = FaultPlan::quiet()
            .inject_at(0, FaultKind::ReadCorruption)
            .inject_at(1, FaultKind::ReadCorruption);
        assert_eq!(p.next(FaultOp::Kernel, false), None);
        assert!(matches!(
            p.next(FaultOp::Read, true),
            Some(Injection::CorruptBit { .. })
        ));
        assert_eq!(p.stats().read_corruptions, 1);
    }

    #[test]
    fn rates_drive_expected_injection_volume() {
        let mut p = FaultPlan::new(
            99,
            FaultProfile {
                transfer_timeout: 0.2,
                ..FaultProfile::none()
            },
        );
        let mut hits = 0;
        for _ in 0..2000 {
            if p.next(FaultOp::Write, false).is_some() {
                hits += 1;
            }
        }
        assert!(
            (300..500).contains(&hits),
            "20% of 2000 should be ~400, got {hits}"
        );
        assert_eq!(p.stats().transfer_timeouts, hits);
    }

    #[test]
    fn stats_reconcile_with_injections() {
        let mut p = FaultPlan::new(5, FaultProfile::mixed());
        let mut seen = FaultStats::default();
        for i in 0..200u64 {
            let op = match i % 3 {
                0 => FaultOp::Write,
                1 => FaultOp::Kernel,
                _ => FaultOp::Read,
            };
            match p.next(op, op == FaultOp::Read) {
                Some(Injection::Fail(f))
                    if f.kind != FaultKind::DeviceLoss || seen.device_losses == 0 =>
                {
                    seen.bump(f.kind);
                }
                Some(Injection::Fail(_)) => {}
                Some(Injection::CorruptBit { .. }) => seen.bump(FaultKind::ReadCorruption),
                Some(Injection::Stall { .. }) => seen.bump(FaultKind::QueueStall),
                None => {}
            }
        }
        assert_eq!(p.stats(), seen);
        assert!(p.stats().total() > 0, "mixed profile must inject something");
    }

    #[test]
    fn profiles_resolve_by_name() {
        for name in FaultProfile::NAMES {
            assert!(FaultProfile::by_name(name).is_some(), "{name}");
        }
        assert!(FaultProfile::by_name("nope").is_none());
    }

    #[test]
    fn checksum_detects_single_bit_flips() {
        let words: Vec<u32> = (0..257u32).map(|i| i.wrapping_mul(2654435761)).collect();
        let base = checksum_words(&words);
        let mut w = words.clone();
        w[200] ^= 1 << 17;
        assert_ne!(checksum_words(&w), base);
        assert_eq!(checksum_words(&words), base, "pure function");
    }

    #[test]
    fn fault_display_and_error_chain() {
        let f = DeviceFault {
            kind: FaultKind::TransferTimeout,
            op: FaultOp::Write,
            command_index: 17,
        };
        let msg = f.to_string();
        assert!(
            msg.contains("transfer_timeout") && msg.contains("#17"),
            "{msg}"
        );
        let e: &dyn std::error::Error = &f;
        assert!(e.source().is_none());
    }
}
