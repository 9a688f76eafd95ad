//! Static hardware counters of a kernel program.
//!
//! Real profilers (nvprof/rocprof, which the paper's evaluation leaned on)
//! expose what the hardware already counts: instructions issued per class,
//! cycles each functional-unit pipeline was busy, shared-memory replays.
//! The host prices every launch analytically from a
//! [`KernelCost`](crate::host::KernelCost) — the static model's cycles per
//! core, the active cores and the global traffic — and the engine sums each
//! run's launch traffic itself. A launch's per-program counters
//! ([`ProgramCounters`]) are exact static sums over its [`Program`]; the
//! detailed engine's counters come from the cycle-stepped run itself
//! (`DetailedResult::pipeline_busy`), which callers run directly. Roofline
//! classification and model-drift reconciliation are *derived* views built
//! on these by `snp-core::profile`.

use snp_gpu_model::{DeviceSpec, InstrClass};

use crate::isa::Program;
use crate::macro_engine::pipeline_issue_cycles;

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
