//! Static critical-path and cross-lowering rules (DESIGN.md §14).
//!
//! The critical-path walk itself is the simulator's one static timing model
//! ([`snp_gpu_sim::critical_path`]): the engine prices every tile job with
//! [`predicted_core_cycles`](snp_gpu_sim::CritPath::predicted_core_cycles),
//! and its single-group
//! [`lower_bound_cycles`](snp_gpu_sim::CritPath::lower_bound_cycles) is
//! provably no larger than the detailed engine's measurement. Rule **V113**
//! checks a plan's declared analytic cost against that bound and reports
//! which blocks are latency-bound (`chain > issue`). Rule **V114**
//! cross-checks the scalar and matrix-unit lowerings of one plan: same
//! executed word-ops (up to one trip of fragment padding per k-loop) and the
//! same memory-traffic class counts.

use crate::diag::{Diagnostic, Report, Severity};
use crate::lint::PlanFacts;
use snp_gpu_model::{DeviceSpec, InstrClass};
use snp_gpu_sim::isa::Program;
use snp_gpu_sim::{critical_path, supports_program};

/// Rule **V113-CRITPATH**: the declared analytic cost must not undercut the
/// static critical-path lower bound for a single tile job, and the
/// issue-vs-chain balance is reported so latency-bound kernels are visible
/// before any simulation runs.
pub fn lint_critpath(dev: &DeviceSpec, facts: &PlanFacts) -> Report {
    let mut report = Report::default();
    let prog = &facts.program;
    if !supports_program(dev, prog) {
        return report; // V107 owns the diagnostic; no pipeline timing exists.
    }
    let cp = critical_path(dev, prog);
    let lb = cp.lower_bound_cycles();
    if lb == 0 {
        return report;
    }
    let peak_pipe = cp.pipe_issue_cycles.iter().copied().max().unwrap_or(0);
    if facts.core_cycles < lb as f64 * 0.999 {
        report.diagnostics.push(Diagnostic::new(
            "V113-CRITPATH",
            Severity::Error,
            format!(
                "declared {:.0} core cycles, but one tile job alone needs at least {} \
                 (dependence chain {}, busiest-pipe issue {}, {} instructions)",
                facts.core_cycles, lb, cp.chain_cycles, peak_pipe, cp.dynamic_instrs,
            ),
        ));
    }
    let latency_blocks: Vec<String> = cp
        .per_block
        .iter()
        .filter(|b| b.latency_bound())
        .map(|b| b.block.to_string())
        .collect();
    let balance = if latency_blocks.is_empty() {
        "issue-bound in every block".to_string()
    } else {
        format!(
            "latency-bound in block(s) {} at one resident group",
            latency_blocks.join(", "),
        )
    };
    report.diagnostics.push(Diagnostic::new(
        "V113-CRITPATH",
        Severity::Info,
        format!(
            "static critical path: {} cycle lower bound per job (chain {}, busiest-pipe \
             issue {}); predicted {:.0} core cycles at {} resident groups; {}",
            lb,
            cp.chain_cycles,
            peak_pipe,
            cp.predicted_core_cycles(dev.n_clusters, facts.groups_per_core),
            facts.groups_per_core,
            balance,
        ),
    ));
    report
}

/// Word-ops one thread group actually executes: `popc` counts one packed
/// word per thread, `mma` retires a full fragment per instruction.
fn executed_word_ops(dev: &DeviceSpec, prog: &Program) -> u128 {
    let mma_ops = dev
        .matrix_unit
        .map_or(0, |mu| mu.word_ops_per_instr(dev.word_bits)) as u128;
    prog.blocks
        .iter()
        .filter(|b| b.executes())
        .map(|b| {
            let per_trip: u128 = b
                .instrs
                .iter()
                .map(|i| match i.class {
                    InstrClass::Popc => dev.n_t as u128,
                    InstrClass::Mma => mma_ops,
                    _ => 0,
                })
                .sum();
            per_trip * b.trips as u128
        })
        .sum()
}

/// Dynamic per-group instruction count of `class` in `prog`.
fn dynamic_class_count(prog: &Program, class: InstrClass) -> u64 {
    prog.dynamic_instrs_by_class()
        .iter()
        .find(|(c, _)| *c == class)
        .map_or(0, |&(_, n)| n)
}

/// Per-trip static count of `class` summed over executing blocks — the
/// per-class slack one loop-remainder trip can legitimately introduce
/// between two lowerings of the same plan.
fn one_trip_slack(prog: &Program, class: InstrClass) -> u64 {
    prog.blocks
        .iter()
        .filter(|b| b.executes())
        .map(|b| b.instrs.iter().filter(|i| i.class == class).count() as u64)
        .sum()
}

/// Rule **V114-CROSS-LOWERING**: the scalar and matrix-unit tile programs
/// of one plan must describe the same computation — equal logical word-ops,
/// executed word-ops equal up to one trip of fragment padding per k-loop,
/// and matching memory-traffic class counts (stores exactly; global loads
/// within one loop-remainder trip per lowering; shared loads may only
/// shrink under the fragment form's cooperative fetch, never grow).
pub fn lint_cross_lowering(dev: &DeviceSpec, scalar: &PlanFacts, mma: &PlanFacts) -> Report {
    let mut report = Report::default();
    let mut err = |msg: String| {
        report
            .diagnostics
            .push(Diagnostic::new("V114-CROSS-LOWERING", Severity::Error, msg));
    };

    if scalar.groups_per_core != mma.groups_per_core {
        err(format!(
            "lowerings disagree on geometry: {} vs {} groups per core",
            scalar.groups_per_core, mma.groups_per_core,
        ));
        return report;
    }
    if (scalar.word_ops - mma.word_ops).abs() > 0.5 {
        err(format!(
            "lowerings declare different logical word-op totals: {:.0} (scalar) vs {:.0} (mma)",
            scalar.word_ops, mma.word_ops,
        ));
    }

    let s_exec = executed_word_ops(dev, &scalar.program);
    let m_exec = executed_word_ops(dev, &mma.program);
    let mma_per_instr = dev
        .matrix_unit
        .map_or(0, |mu| mu.word_ops_per_instr(dev.word_bits)) as u128;
    // One remainder trip of mma padding per k-loop block is legitimate
    // (trips = ceil(slab / frag_k_words)); anything beyond is dropped or
    // duplicated work.
    let padding: u128 = mma
        .program
        .blocks
        .iter()
        .filter(|b| b.executes() && b.trips > 1)
        .map(|b| {
            b.instrs
                .iter()
                .filter(|i| i.class == InstrClass::Mma)
                .count() as u128
                * mma_per_instr
        })
        .sum();
    if m_exec < s_exec {
        err(format!(
            "mma lowering executes fewer word-ops per group than scalar: {m_exec} vs {s_exec} \
             (dropped work)",
        ));
    } else if m_exec > s_exec + padding {
        err(format!(
            "mma lowering executes {m_exec} word-ops per group vs scalar {s_exec}, beyond the \
             {padding} allowed by one fragment-padding trip per k-loop",
        ));
    }

    for class in [InstrClass::StoreGlobal, InstrClass::StoreShared] {
        let s = dynamic_class_count(&scalar.program, class);
        let m = dynamic_class_count(&mma.program, class);
        if s != m {
            err(format!(
                "lowerings disagree on {class} traffic: {s} (scalar) vs {m} (mma) \
                 instructions per group",
            ));
        }
    }
    {
        // The B panel streams through per-thread global loads in both
        // lowerings, so ld.global counts must agree up to loop-remainder
        // trips.
        let class = InstrClass::LoadGlobal;
        let s = dynamic_class_count(&scalar.program, class);
        let m = dynamic_class_count(&mma.program, class);
        let slack = one_trip_slack(&scalar.program, class) + one_trip_slack(&mma.program, class);
        if s.abs_diff(m) > slack {
            err(format!(
                "lowerings disagree on {class} traffic: {s} (scalar) vs {m} (mma) \
                 instructions per group (beyond the {slack} one-trip remainder slack)",
            ));
        }
    }
    {
        // A-slab shared reads are NOT count-comparable: the scalar form
        // broadcasts (every thread re-reads every A row it combines), while
        // the fragment form fetches each word once per group, cooperatively.
        // Fewer mma shared loads is therefore the expected shape; *more*
        // would be phantom traffic.
        let class = InstrClass::LoadShared;
        let s = dynamic_class_count(&scalar.program, class);
        let m = dynamic_class_count(&mma.program, class);
        let slack = one_trip_slack(&scalar.program, class) + one_trip_slack(&mma.program, class);
        if m > s + slack {
            err(format!(
                "mma lowering issues more {class} traffic than scalar: {m} vs {s} \
                 instructions per group (beyond the {slack} one-trip remainder slack)",
            ));
        } else if m < s {
            report.diagnostics.push(Diagnostic::new(
                "V114-CROSS-LOWERING",
                Severity::Info,
                format!(
                    "{class} traffic {m} (mma) vs {s} (scalar) instructions per group: \
                     the fragment form fetches the A slab cooperatively instead of \
                     per-thread broadcast",
                ),
            ));
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use snp_gpu_model::{devices, WordOpKind};
    use snp_gpu_sim::isa::{Block, Instr};

    fn facts(program: Program, core_cycles: f64) -> PlanFacts {
        PlanFacts {
            program,
            groups_per_core: 1,
            core_cycles,
            active_cores: 1,
            word_ops: 0.0,
            op_kind: WordOpKind::And,
            uses_matrix_unit: false,
        }
    }

    #[test]
    fn undercut_cost_is_an_error_and_honest_cost_is_not() {
        let dev = devices::gtx_980();
        let prog = Program::dependent_chain(InstrClass::Popc, 16, 100);
        let bound = critical_path(&dev, &prog).lower_bound_cycles() as f64;
        let low = lint_critpath(&dev, &facts(prog.clone(), bound * 0.9));
        let d = low.with_code("V113-CRITPATH").next().unwrap();
        assert_eq!(d.severity, Severity::Error);
        assert!(low.has_errors());
        let ok = lint_critpath(&dev, &facts(prog, bound));
        assert!(!ok.has_errors(), "{}", ok.render_text("t"));
        // The Info summary is always present for a non-empty program.
        assert_eq!(ok.with_code("V113-CRITPATH").count(), 1);
    }

    #[test]
    fn unsupported_class_defers_to_v107() {
        let dev = devices::gtx_980();
        let prog = Program::new(vec![Block::once(vec![
            Instr::load_global(0, &[]),
            Instr::arith(InstrClass::Mma, 1, &[0, 0, 1]),
        ])]);
        assert!(!supports_program(&dev, &prog));
        let report = lint_critpath(&dev, &facts(prog, 1.0));
        assert!(report.diagnostics.is_empty());
    }

    #[test]
    fn cross_lowering_flags_dropped_and_phantom_work() {
        let dev = devices::tc100();
        let mu_ops = dev.matrix_unit.unwrap().word_ops_per_instr(dev.word_bits);
        assert_eq!(mu_ops, 256);
        // A scalar body popcounting 8 words/thread/trip and an mma body
        // loading the same 8 registers but retiring one 256-word-op fragment
        // per trip describe identical work over 32 trips:
        // 8 · 32 threads · 32 trips = 256 · 32 trips = 8192 word-ops,
        // with the same 8 global loads per trip.
        let scalar_prog = Program::new(vec![Block::looped(
            32,
            (0..8)
                .flat_map(|i| {
                    [
                        Instr::load_global(i, &[]),
                        Instr::arith(InstrClass::Popc, 8 + i, &[i]),
                    ]
                })
                .collect(),
        )]);
        let mma_prog = Program::new(vec![Block::looped(
            32,
            (0..8)
                .map(|i| Instr::load_global(i, &[]))
                .chain([Instr::arith(InstrClass::Mma, 8, &[0, 1, 8])])
                .collect(),
        )]);
        assert_eq!(executed_word_ops(&dev, &scalar_prog), 8 * 32 * 32);
        assert_eq!(executed_word_ops(&dev, &mma_prog), mu_ops as u128 * 32);
        let s = facts(scalar_prog, 1.0);
        let m = facts(mma_prog, 1.0);
        let report = lint_cross_lowering(&dev, &s, &m);
        assert!(
            !report.has_errors(),
            "consistent lowerings must pass: {}",
            report.render_text("t")
        );
        // Dropping mma trips drops fragments' worth of work (and loads).
        let mut dropped = m.clone();
        dropped.program.blocks[0].trips = 16;
        let report = lint_cross_lowering(&dev, &s, &dropped);
        assert!(report.has_errors());
        // Doubling the trips overshoots even the padding allowance.
        let mut phantom = m.clone();
        phantom.program.blocks[0].trips = 64;
        let report = lint_cross_lowering(&dev, &s, &phantom);
        assert!(report.has_errors());
    }

    #[test]
    fn cross_lowering_flags_store_mismatch() {
        let dev = devices::tc100();
        let a = facts(
            Program::new(vec![Block::once(vec![
                Instr::load_global(0, &[]),
                Instr::store_global(&[0]),
            ])]),
            1.0,
        );
        let mut b = a.clone();
        b.program.blocks[0].instrs.push(Instr::store_global(&[0]));
        let report = lint_cross_lowering(&dev, &a, &b);
        assert!(report.has_errors());
        let msg = &report
            .with_code("V114-CROSS-LOWERING")
            .next()
            .unwrap()
            .message;
        assert!(msg.contains("st.global"), "{msg}");
    }
}
