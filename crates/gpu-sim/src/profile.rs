//! Per-launch hardware-counter records.
//!
//! Real profilers (nvprof/rocprof, which the paper's evaluation leaned on)
//! expose what the hardware already counts: instructions issued per class,
//! cycles each functional-unit pipeline was busy, shared-memory replays,
//! bytes moved, resident occupancy. The simulator computes every one of
//! these quantities on the way to a kernel's nanosecond total — this module
//! keeps them, as a [`KernelProfile`] attached to each kernel event by the
//! host API ([`crate::host::Gpu::kernel_profile`]).
//!
//! The static model prices a launch from program structure, so its
//! counters ([`ProgramCounters`]) are exact static sums; the detailed
//! engine's counters come from the cycle-stepped run itself
//! (`DetailedResult::pipeline_busy`). Roofline classification and
//! model-drift reconciliation are *derived* views built on top of these
//! records by `snp-core::profile`.

use snp_gpu_model::{DeviceSpec, InstrClass};

use crate::isa::Program;
use crate::macro_engine::{pipeline_issue_cycles, KernelTime, Traffic};

/// Which engine timed the launch this profile describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileEngine {
    /// The static model ([`crate::macro_engine`]), or cycles the caller
    /// priced itself.
    Analytic,
    /// The cycle-stepped detailed engine ([`crate::detailed`]).
    Detailed,
}

/// Hardware-counter record of one kernel launch, attached to its event.
///
/// Fields that only the detailed engine can measure (dynamic instruction
/// totals, per-pipeline busy cycles) are `None` for analytically-timed
/// launches; callers holding the launch's [`Program`] can recover the
/// static equivalents with [`program_counters`].
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProfile {
    /// Which engine produced the timing.
    pub engine: ProfileEngine,
    /// Cycles one core spent (all active cores do equal work).
    pub core_cycles: f64,
    /// Concurrently active compute cores.
    pub active_cores: u32,
    /// Resident thread groups per core (`None` for analytic launches,
    /// whose cost carries no group count).
    pub groups_per_core: Option<u32>,
    /// Global-memory traffic the launch was charged for.
    pub traffic: Traffic,
    /// The launch's wall-time breakdown (compute vs bandwidth bound,
    /// launch overhead, applied scaling efficiency).
    pub time: KernelTime,
    /// Dynamic instructions executed across all groups of one core
    /// (detailed engine only).
    pub total_instrs: Option<u64>,
    /// Busy cycles per pipeline index, summed over one core's clusters
    /// (detailed engine only).
    pub pipeline_busy: Option<Vec<u64>>,
}

impl KernelProfile {
    /// Achieved global-memory bandwidth over the launch's modeled wall
    /// time, in bytes/s (0 when the launch moved no bytes).
    pub fn achieved_bandwidth_bytes_s(&self) -> f64 {
        if self.time.total_ns <= 0.0 {
            return 0.0;
        }
        self.traffic.total() as f64 / (self.time.total_ns / 1e9)
    }

    /// Achieved bandwidth as a fraction of the device's effective DRAM
    /// peak.
    pub fn bandwidth_fraction(&self, dev: &DeviceSpec) -> f64 {
        self.achieved_bandwidth_bytes_s() / dev.memory.effective_bandwidth_bytes_s()
    }

    /// Whether the bandwidth bound (not compute) set this launch's time.
    pub fn memory_bound(&self) -> bool {
        self.time.memory_ns > self.time.compute_ns
    }
}

/// Static per-launch counters recovered from a kernel's [`Program`] — the
/// static-model analogue of what the detailed engine measures. All values
/// are per thread group over the whole program; scale by resident groups
/// for per-core totals.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramCounters {
    /// Dynamic instructions one group executes.
    pub instrs_per_group: u64,
    /// Dynamic instructions by pipeline class, in first-appearance order.
    pub instrs_by_class: Vec<(InstrClass, u64)>,
    /// Issue cycles one group places on each pipeline (index-aligned with
    /// `dev.pipelines`).
    pub issue_cycles_per_pipeline: Vec<u64>,
    /// Shared-memory bank-conflict replays one group incurs: each `w`-way
    /// conflicting access replays `w - 1` times per trip.
    pub bank_conflict_replays: u64,
}

/// Computes the static counters of `prog` on `dev`.
pub fn program_counters(dev: &DeviceSpec, prog: &Program) -> ProgramCounters {
    let mut replays = 0u64;
    for block in &prog.blocks {
        for instr in &block.instrs {
            if instr.conflict_ways > 1 {
                replays += block.trips as u64 * (instr.conflict_ways as u64 - 1);
            }
        }
    }
    ProgramCounters {
        instrs_per_group: prog.dynamic_instrs(),
        instrs_by_class: prog.dynamic_instrs_by_class(),
        issue_cycles_per_pipeline: pipeline_issue_cycles(dev, prog),
        bank_conflict_replays: replays,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Block, Instr};
    use snp_gpu_model::devices;

    #[test]
    fn program_counters_sum_classes_and_replays() {
        let dev = devices::gtx_980();
        let prog = Program::new(vec![
            Block::once(vec![Instr::load_global(0, &[])]),
            Block::looped(
                10,
                vec![
                    Instr::load_shared(1, &[0], 4),
                    Instr::arith(InstrClass::Popc, 2, &[1]),
                    Instr::arith(InstrClass::IntAdd, 3, &[2, 3]),
                ],
            ),
        ]);
        let c = program_counters(&dev, &prog);
        assert_eq!(c.instrs_per_group, 1 + 30);
        // 4-way conflict replays 3 extra times per trip, 10 trips.
        assert_eq!(c.bank_conflict_replays, 30);
        let by_class: std::collections::HashMap<_, _> = c.instrs_by_class.iter().copied().collect();
        assert_eq!(by_class[&InstrClass::LoadGlobal], 1);
        assert_eq!(by_class[&InstrClass::LoadShared], 10);
        assert_eq!(by_class[&InstrClass::Popc], 10);
        assert_eq!(by_class[&InstrClass::IntAdd], 10);
        // Issue cycles cover every pipeline slot the classes map to.
        assert_eq!(c.issue_cycles_per_pipeline.len(), dev.pipelines.len());
        let total: u64 = c.issue_cycles_per_pipeline.iter().sum();
        assert!(total > 0);
    }

    #[test]
    fn conflict_free_program_reports_zero_replays() {
        let dev = devices::titan_v();
        let prog = Program::dependent_chain(InstrClass::Popc, 8, 5);
        let c = program_counters(&dev, &prog);
        assert_eq!(c.bank_conflict_replays, 0);
    }
}
