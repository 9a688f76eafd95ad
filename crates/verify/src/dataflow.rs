//! Trip-sensitive dataflow over the timing ISA (DESIGN.md §14).
//!
//! The [`Program`] block/trips structure is a
//! straight-line sequence of counted loops, which makes classical dataflow
//! *exact* rather than fixed-point-approximate: every block executes once,
//! in order, and a looped body repeats verbatim. The analyses here interpret
//! that structure precisely:
//!
//! * **Reaching definitions** ([`reach`]) resolve each register read to the
//!   definition it observes — earlier in the same trip, *loop-carried* from
//!   the previous trip, from an earlier block, or the implicit zero the
//!   engines initialize every register to (`reg_ready = 0` in the detailed
//!   engine's scoreboard — the lattice bottom ⊥ = 0).
//! * **First-trip reads** ([`Dataflow::implicit_reads`]) upgrade the flat
//!   V101 undefined-register lint: a register written only *after* its
//!   first read inside a looped body is invisible to V101 (it *is* written
//!   somewhere) but reads ⊥ on trip one. The self-accumulation idiom
//!   (`acc ← acc + x`, the paper kernel's γ accumulators) is recognized and
//!   reported at note severity; a genuine use-before-def is an error.
//! * **Backward liveness** ([`Dataflow::live_in`]) across blocks, with
//!   loop-carried uses keeping accumulators live through their block, feeds
//!   dead-write detection (V111) and the live-range register-pressure
//!   report (V112) — the occupancy headroom a renaming pass would unlock.
//!
//! The rules are wired into [`lint_kernel_deep`](crate::lint_kernel_deep)
//! and surfaced by `snpgpu lint --deep`.

use crate::diag::{Diagnostic, Report, Severity};
use crate::lint::PlanFacts;
use snp_gpu_model::DeviceSpec;
use snp_gpu_sim::isa::{Program, Reg};

/// A static definition site: `instrs[instr]` of `blocks[block]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DefSite {
    /// Block index.
    pub block: usize,
    /// Instruction index within the block body.
    pub instr: usize,
}

/// The definition a register read observes, in decreasing precedence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReachingDef {
    /// Defined earlier in the same trip of the same block.
    SameTrip(DefSite),
    /// Defined by the previous trip of the same block (the last definition
    /// in the body) — a loop-carried edge, not an undefined read.
    LoopCarried(DefSite),
    /// Defined by an earlier block (the latest such definition).
    PriorBlock(DefSite),
    /// No definition executes before the read: the value is the implicit
    /// zero every register starts with (lattice bottom ⊥ = 0).
    ImplicitZero,
}

/// Why a first-trip read observes the implicit zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImplicitKind {
    /// The instruction reads its own destination (`acc ← acc + x`): the
    /// accumulate-from-zero idiom of the paper kernels. Reported as a note.
    SelfAccumulate,
    /// A *different*, later instruction of the same looped body defines the
    /// register: trips ≥ 2 read the carried value, trip one reads zero —
    /// software pipelining if intentional, a rotated loop body if not.
    Pipelined,
    /// The register's first definition executes strictly after the read
    /// with no loop-carried path to it: a genuine use-before-def.
    UseBeforeDef(DefSite),
    /// No instruction anywhere defines the register (V101's territory; the
    /// deep rules leave the diagnostic to V101).
    NeverWritten,
}

/// One first-trip read that observes the implicit zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImplicitZeroRead {
    /// Block of the reading instruction.
    pub block: usize,
    /// Index of the reading instruction.
    pub instr: usize,
    /// The register read.
    pub reg: Reg,
    /// Classification of the read.
    pub kind: ImplicitKind,
}

/// A write whose value is never read before being overwritten (or before
/// the program ends): a wasted issue slot. Loop-carried and cross-block
/// uses are honored, so a value read on *any* continuation is not dead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadWrite {
    /// Block of the writing instruction.
    pub block: usize,
    /// Index of the writing instruction.
    pub instr: usize,
    /// The register written.
    pub reg: Reg,
}

/// Live-range register pressure of a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegPressure {
    /// Maximum simultaneously-live registers over all program points
    /// (steady-state trips included).
    pub max_live: usize,
    /// Registers the program *allocates* (`Program::reg_count`): the gap to
    /// `max_live` is what renaming would reclaim.
    pub reg_count: usize,
    /// Block where the maximum occurs.
    pub block: usize,
    /// Instruction before which the maximum occurs.
    pub instr: usize,
}

/// Dense register set sized to a program's `reg_count`.
struct RegSet {
    bits: Vec<bool>,
    len: usize,
}

impl RegSet {
    fn new(n: usize) -> RegSet {
        RegSet {
            bits: vec![false; n],
            len: 0,
        }
    }

    fn insert(&mut self, r: Reg) {
        let slot = &mut self.bits[r as usize];
        if !*slot {
            *slot = true;
            self.len += 1;
        }
    }

    fn remove(&mut self, r: Reg) {
        let slot = &mut self.bits[r as usize];
        if *slot {
            *slot = false;
            self.len -= 1;
        }
    }

    fn contains(&self, r: Reg) -> bool {
        self.bits[r as usize]
    }

    fn to_sorted_vec(&self) -> Vec<Reg> {
        self.bits
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b)
            .map(|(r, _)| r as Reg)
            .collect()
    }
}

/// Resolves the definition the read of `reg` by `blocks[block].instrs[instr]`
/// observes. With `first_trip` the loop-carried edge is unavailable (there
/// is no previous trip yet); otherwise the query describes every trip ≥ 2.
/// Skipped blocks (zero trips or empty) define nothing, matching the
/// engines.
pub fn reach(
    prog: &Program,
    block: usize,
    instr: usize,
    reg: Reg,
    first_trip: bool,
) -> ReachingDef {
    let body = &prog.blocks[block].instrs;
    // Latest definition earlier in the same trip.
    if let Some(j) = (0..instr).rev().find(|&j| body[j].dst == Some(reg)) {
        return ReachingDef::SameTrip(DefSite { block, instr: j });
    }
    // Loop-carried: the previous trip's last definition.
    if !first_trip && prog.blocks[block].trips > 1 {
        if let Some(j) = (0..body.len()).rev().find(|&j| body[j].dst == Some(reg)) {
            return ReachingDef::LoopCarried(DefSite { block, instr: j });
        }
    }
    // Latest definition in an earlier executing block.
    for b in (0..block).rev() {
        if !prog.blocks[b].executes() {
            continue;
        }
        if let Some(j) = (0..prog.blocks[b].instrs.len())
            .rev()
            .find(|&j| prog.blocks[b].instrs[j].dst == Some(reg))
        {
            return ReachingDef::PriorBlock(DefSite { block: b, instr: j });
        }
    }
    ReachingDef::ImplicitZero
}

/// The computed dataflow facts of one program.
#[derive(Debug)]
pub struct Dataflow {
    live_in: Vec<Vec<Reg>>,
    live_out: Vec<Vec<Reg>>,
    /// Live-range pressure over the whole program.
    pub pressure: RegPressure,
    /// Dead writes, in program order.
    pub dead_writes: Vec<DeadWrite>,
    /// First-trip implicit-zero reads, in program order.
    pub implicit_reads: Vec<ImplicitZeroRead>,
}

impl Dataflow {
    /// Registers live on entry to `blocks[block]`, sorted ascending.
    pub fn live_in(&self, block: usize) -> &[Reg] {
        &self.live_in[block]
    }

    /// Registers live on exit from `blocks[block]`, sorted ascending.
    pub fn live_out(&self, block: usize) -> &[Reg] {
        &self.live_out[block]
    }

    /// Runs the analysis on `prog`.
    pub fn analyze(prog: &Program) -> Dataflow {
        let n_regs = prog.reg_count();
        let n_blocks = prog.blocks.len();

        // Per-block first-trip use set (read before any earlier-in-trip
        // definition) and definition set.
        let mut use_sets: Vec<Vec<Reg>> = Vec::with_capacity(n_blocks);
        let mut def_sets: Vec<Vec<bool>> = Vec::with_capacity(n_blocks);
        for block in &prog.blocks {
            let mut uses = RegSet::new(n_regs);
            let mut defd = vec![false; n_regs];
            if block.executes() {
                for instr in &block.instrs {
                    for &s in &instr.srcs {
                        if !defd[s as usize] {
                            uses.insert(s);
                        }
                    }
                    if let Some(d) = instr.dst {
                        defd[d as usize] = true;
                    }
                }
            }
            use_sets.push(uses.to_sorted_vec());
            def_sets.push(defd);
        }

        // Backward liveness. Blocks are a straight line, so one pass is the
        // fixed point; loop-carried uses are in the use set by construction
        // (a carried read has no earlier-in-trip definition).
        let mut live_in: Vec<Vec<Reg>> = vec![Vec::new(); n_blocks];
        let mut live_out: Vec<Vec<Reg>> = vec![Vec::new(); n_blocks];
        let mut live = RegSet::new(n_regs);
        for b in (0..n_blocks).rev() {
            live_out[b] = live.to_sorted_vec();
            if prog.blocks[b].executes() {
                for (r, &defined) in def_sets[b].iter().enumerate() {
                    if defined {
                        live.remove(r as Reg);
                    }
                }
                for &r in &use_sets[b] {
                    live.insert(r);
                }
            }
            live_in[b] = live.to_sorted_vec();
        }

        // Steady-state backward walk per block: dead writes and pressure.
        // The walk's end set is live_out ∪ carried uses — the union of every
        // continuation a write can be read on (later blocks, or the next
        // trip), so a write reported dead is dead on *every* trip.
        let mut pressure = RegPressure {
            max_live: 0,
            reg_count: n_regs,
            block: 0,
            instr: 0,
        };
        let mut dead_writes = Vec::new();
        for (b, block) in prog.blocks.iter().enumerate() {
            if !block.executes() {
                continue;
            }
            let mut set = RegSet::new(n_regs);
            for &r in &live_out[b] {
                set.insert(r);
            }
            if block.trips > 1 {
                for &r in &use_sets[b] {
                    set.insert(r);
                }
            }
            if set.len > pressure.max_live {
                pressure = RegPressure {
                    max_live: set.len,
                    reg_count: n_regs,
                    block: b,
                    instr: block.instrs.len(),
                };
            }
            for (i, instr) in block.instrs.iter().enumerate().rev() {
                if let Some(d) = instr.dst {
                    if !set.contains(d) {
                        dead_writes.push(DeadWrite {
                            block: b,
                            instr: i,
                            reg: d,
                        });
                    }
                    set.remove(d);
                }
                for &s in &instr.srcs {
                    set.insert(s);
                }
                if set.len > pressure.max_live {
                    pressure = RegPressure {
                        max_live: set.len,
                        reg_count: n_regs,
                        block: b,
                        instr: i,
                    };
                }
            }
        }
        dead_writes.reverse();
        dead_writes.sort_by_key(|d| (d.block, d.instr, d.reg));

        // First-trip implicit-zero reads, classified.
        let mut implicit_reads = Vec::new();
        for (b, i, instr) in prog.iter_instrs() {
            for &s in &instr.srcs {
                if reach(prog, b, i, s, true) != ReachingDef::ImplicitZero {
                    continue;
                }
                let body = &prog.blocks[b].instrs;
                let kind = if instr.dst == Some(s) {
                    ImplicitKind::SelfAccumulate
                } else if prog.blocks[b].trips > 1 && body.iter().any(|x| x.dst == Some(s)) {
                    ImplicitKind::Pipelined
                } else if let Some(j) = (i..body.len()).find(|&j| body[j].dst == Some(s)) {
                    ImplicitKind::UseBeforeDef(DefSite { block: b, instr: j })
                } else if let Some(site) = first_def_after(prog, b, s) {
                    ImplicitKind::UseBeforeDef(site)
                } else {
                    ImplicitKind::NeverWritten
                };
                implicit_reads.push(ImplicitZeroRead {
                    block: b,
                    instr: i,
                    reg: s,
                    kind,
                });
            }
        }

        Dataflow {
            live_in,
            live_out,
            pressure,
            dead_writes,
            implicit_reads,
        }
    }
}

/// First definition of `reg` in an executing block strictly after `block`.
fn first_def_after(prog: &Program, block: usize, reg: Reg) -> Option<DefSite> {
    prog.iter_instrs()
        .find(|&(b, _, instr)| b > block && instr.dst == Some(reg))
        .map(|(b, i, _)| DefSite { block: b, instr: i })
}

/// Thread groups one core can host when every thread holds `regs` registers
/// (the register-file occupancy bound, capped by the scheduler limit).
fn groups_supported(dev: &DeviceSpec, regs: usize) -> u32 {
    if regs == 0 {
        return dev.max_thread_groups;
    }
    (dev.registers_per_core / (dev.n_t * regs as u32).max(1)).min(dev.max_thread_groups)
}

/// Formats a register list for a diagnostic, capped at eight entries.
fn reg_list(regs: &[Reg]) -> String {
    let mut s: Vec<String> = regs.iter().take(8).map(|r| format!("r{r}")).collect();
    if regs.len() > 8 {
        s.push(format!("+{} more", regs.len() - 8));
    }
    s.join(", ")
}

/// The trip-sensitive dataflow rules V110–V112 over one planned kernel.
///
/// * **V110-READ-BEFORE-WRITE** — first-trip reads of the implicit zero: a
///   genuine use-before-def is an error; a rotated/pipelined looped body is
///   a warning (trips ≥ 2 are carried, trip one reads zero); the
///   self-accumulation idiom is a per-block note. Registers never written
///   anywhere are left to V101.
/// * **V111-DEAD-WRITE** — writes never read on any continuation.
/// * **V112-LIVE-PRESSURE** — max simultaneously-live registers vs the
///   allocated count, and the occupancy headroom renaming would unlock
///   (`regs_per_thread_at_occupancy`). Escalates to a warning only when
///   even the *live* pressure exceeds the registers available at the
///   configured occupancy.
pub fn lint_dataflow(dev: &DeviceSpec, facts: &PlanFacts) -> Report {
    let prog = &facts.program;
    let df = Dataflow::analyze(prog);
    let mut report = Report::default();

    // V110: errors and warnings per site, idiom notes aggregated per block.
    let mut idiom_blocks: Vec<(usize, Vec<Reg>)> = Vec::new();
    for r in &df.implicit_reads {
        match r.kind {
            ImplicitKind::UseBeforeDef(def) => {
                report.diagnostics.push(Diagnostic::new(
                    "V110-READ-BEFORE-WRITE",
                    Severity::Error,
                    format!(
                        "block {} instr {} reads r{} before its first write (defined at \
                         block {} instr {}): the read observes the implicit zero",
                        r.block, r.instr, r.reg, def.block, def.instr,
                    ),
                ));
            }
            ImplicitKind::Pipelined => {
                report.diagnostics.push(Diagnostic::new(
                    "V110-READ-BEFORE-WRITE",
                    Severity::Warning,
                    format!(
                        "block {} instr {} reads r{} written only later in the looped body: \
                         trips 2+ carry the previous trip's value but the first trip reads \
                         the implicit zero",
                        r.block, r.instr, r.reg,
                    ),
                ));
            }
            ImplicitKind::SelfAccumulate => {
                match idiom_blocks.iter_mut().find(|(b, _)| *b == r.block) {
                    Some((_, regs)) => {
                        if !regs.contains(&r.reg) {
                            regs.push(r.reg);
                        }
                    }
                    None => idiom_blocks.push((r.block, vec![r.reg])),
                }
            }
            ImplicitKind::NeverWritten => {} // V101 reports these.
        }
    }
    for (b, mut regs) in idiom_blocks {
        regs.sort_unstable();
        report.diagnostics.push(Diagnostic::new(
            "V110-READ-BEFORE-WRITE",
            Severity::Info,
            format!(
                "block {b}: {} register(s) accumulate from the implicit zero \
                 (self-accumulation idiom: {})",
                regs.len(),
                reg_list(&regs),
            ),
        ));
    }

    // V111: dead writes (wasted issue slots), capped to keep reports short.
    const MAX_DEAD_REPORTS: usize = 16;
    for dw in df.dead_writes.iter().take(MAX_DEAD_REPORTS) {
        report.diagnostics.push(Diagnostic::new(
            "V111-DEAD-WRITE",
            Severity::Warning,
            format!(
                "block {} instr {}: write to r{} is never read before being overwritten \
                 or program end — a wasted issue slot every trip",
                dw.block, dw.instr, dw.reg,
            ),
        ));
    }
    if df.dead_writes.len() > MAX_DEAD_REPORTS {
        report.diagnostics.push(Diagnostic::new(
            "V111-DEAD-WRITE",
            Severity::Warning,
            format!(
                "{} further dead write(s) suppressed",
                df.dead_writes.len() - MAX_DEAD_REPORTS,
            ),
        ));
    }

    // V112: live-range pressure and the renaming/occupancy headroom.
    let p = &df.pressure;
    if p.reg_count > 0 {
        let avail = dev.regs_per_thread_at_occupancy(facts.groups_per_core);
        let now = groups_supported(dev, p.reg_count);
        let renamed = groups_supported(dev, p.max_live);
        let severity = if p.max_live > avail as usize {
            Severity::Warning
        } else {
            Severity::Info
        };
        report.diagnostics.push(Diagnostic::new(
            "V112-LIVE-PRESSURE",
            severity,
            format!(
                "live-range pressure {} of {} allocated registers (peak before block {} \
                 instr {}); {} registers/thread available at the configured {} groups; \
                 renaming would free {} and lift the register-file occupancy bound from \
                 {} to {} groups per core",
                p.max_live,
                p.reg_count,
                p.block,
                p.instr,
                avail,
                facts.groups_per_core,
                p.reg_count - p.max_live,
                now,
                renamed,
            ),
        ));
        if p.reg_count > avail as usize && p.max_live <= avail as usize {
            report.diagnostics.push(Diagnostic::new(
                "V112-LIVE-PRESSURE",
                Severity::Info,
                format!(
                    "allocated registers ({}) exceed the {} available at {} resident \
                     groups, but the live pressure ({}) fits: the configured occupancy \
                     depends on register renaming",
                    p.reg_count, avail, facts.groups_per_core, p.max_live,
                ),
            ));
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use snp_gpu_model::{devices, InstrClass, WordOpKind};
    use snp_gpu_sim::isa::{Block, Instr};

    fn facts(program: Program) -> PlanFacts {
        PlanFacts {
            program,
            groups_per_core: 1,
            core_cycles: 1e6,
            active_cores: 1,
            word_ops: 0.0,
            op_kind: WordOpKind::And,
            uses_matrix_unit: false,
        }
    }

    /// The pinned 31-instruction GTX 980 kernel of `profiler_counters.rs`:
    /// once[ld.global r0]; loop×10[ld.shared r1←[r0] 2-way; popc r2←[r1];
    /// add r3←[r3,r2]].
    fn pinned_kernel() -> Program {
        Program::new(vec![
            Block::once(vec![Instr::load_global(0, &[])]),
            Block::looped(
                10,
                vec![
                    Instr::load_shared(1, &[0], 2),
                    Instr::arith(InstrClass::Popc, 2, &[1]),
                    Instr::arith(InstrClass::IntAdd, 3, &[3, 2]),
                ],
            ),
        ])
    }

    #[test]
    fn reaching_defs_resolve_trip_sensitively() {
        let p = pinned_kernel();
        // popc reads r1 defined earlier in the same trip.
        assert_eq!(
            reach(&p, 1, 1, 1, true),
            ReachingDef::SameTrip(DefSite { block: 1, instr: 0 })
        );
        // The shared load reads r0 from the prior block on every trip.
        assert_eq!(
            reach(&p, 1, 0, 0, true),
            ReachingDef::PriorBlock(DefSite { block: 0, instr: 0 })
        );
        // The accumulator is implicit zero on trip one, carried afterwards.
        assert_eq!(reach(&p, 1, 2, 3, true), ReachingDef::ImplicitZero);
        assert_eq!(
            reach(&p, 1, 2, 3, false),
            ReachingDef::LoopCarried(DefSite { block: 1, instr: 2 })
        );
    }

    #[test]
    fn pinned_kernel_liveness_and_pressure() {
        let p = pinned_kernel();
        let df = Dataflow::analyze(&p);
        // r3 is live into the whole program (accumulates from ⊥ = 0); r0
        // crosses from block 0 into the loop.
        assert_eq!(df.live_in(0), &[3]);
        assert_eq!(df.live_in(1), &[0, 3]);
        assert_eq!(df.live_out(1), &[] as &[Reg]);
        // Hand-computed: the widest point holds {r0, r2, r3} (equivalently
        // {r0, r1, r3}) — 3 live of 4 allocated.
        assert_eq!(df.pressure.max_live, 3);
        assert_eq!(df.pressure.reg_count, 4);
        assert!(df.dead_writes.is_empty());
        // The only implicit-zero read is the accumulator idiom.
        assert_eq!(df.implicit_reads.len(), 1);
        assert_eq!(df.implicit_reads[0].reg, 3);
        assert_eq!(df.implicit_reads[0].kind, ImplicitKind::SelfAccumulate);
    }

    #[test]
    fn use_before_def_in_straight_line_is_an_error() {
        // Swapped staging pair: the store reads r5 before the load defines it.
        let p = Program::new(vec![Block::once(vec![
            Instr::store_shared(&[5], 1),
            Instr::load_global(5, &[]),
            Instr::store_global(&[5]),
        ])]);
        let dev = devices::gtx_980();
        let report = lint_dataflow(&dev, &facts(p));
        let d = report.with_code("V110-READ-BEFORE-WRITE").next().unwrap();
        assert_eq!(d.severity, Severity::Error);
        assert!(d.message.contains("r5"), "{}", d.message);
    }

    #[test]
    fn cross_block_use_before_first_def_is_an_error() {
        // Block 0 reads r2; only block 1 defines it.
        let p = Program::new(vec![
            Block::once(vec![Instr::store_global(&[2])]),
            Block::once(vec![Instr::load_global(2, &[]), Instr::store_global(&[2])]),
        ]);
        let dev = devices::gtx_980();
        let report = lint_dataflow(&dev, &facts(p));
        assert!(report.has_errors());
        assert_eq!(report.with_code("V110-READ-BEFORE-WRITE").count(), 1);
    }

    #[test]
    fn pipelined_body_warns_but_never_written_defers_to_v101() {
        // r7 is read at the top of the looped body and written at the
        // bottom by a different instruction: carried on trips 2+, zero on
        // trip 1 — warning. r9 is never written: left to V101.
        let p = Program::new(vec![Block::looped(
            4,
            vec![
                Instr::arith(InstrClass::Popc, 1, &[7]),
                Instr::load_global(7, &[9]),
                Instr::store_global(&[1]),
            ],
        )]);
        let dev = devices::gtx_980();
        let report = lint_dataflow(&dev, &facts(p.clone()));
        let warns: Vec<_> = report
            .with_code("V110-READ-BEFORE-WRITE")
            .filter(|d| d.severity == Severity::Warning)
            .collect();
        assert_eq!(warns.len(), 1);
        assert!(warns[0].message.contains("r7"));
        assert!(!report.has_errors(), "{}", report.render_text("t"));
        let df = Dataflow::analyze(&facts(p.clone()).program);
        assert!(df
            .implicit_reads
            .iter()
            .any(|r| r.reg == 9 && r.kind == ImplicitKind::NeverWritten));
    }

    #[test]
    fn dead_write_flagged_with_site() {
        // r4 is written every trip and never read anywhere.
        let p = Program::new(vec![
            Block::once(vec![Instr::load_global(0, &[])]),
            Block::looped(
                8,
                vec![
                    Instr::arith(InstrClass::Logic, 4, &[0]),
                    Instr::arith(InstrClass::Popc, 1, &[0]),
                ],
            ),
            Block::once(vec![Instr::store_global(&[1])]),
        ]);
        let dev = devices::gtx_980();
        let report = lint_dataflow(&dev, &facts(p.clone()));
        let d = report.with_code("V111-DEAD-WRITE").next().unwrap();
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("r4"), "{}", d.message);
        let df = Dataflow::analyze(&p);
        assert_eq!(
            df.dead_writes,
            vec![DeadWrite {
                block: 1,
                instr: 0,
                reg: 4
            }]
        );
    }

    #[test]
    fn overwritten_before_read_is_dead_but_carried_self_use_is_not() {
        // Body: read r2 (carried), def r2 (dead — next trip reads the
        // *last* def), def r2 again (live via the carried read).
        let p = Program::new(vec![Block::looped(
            5,
            vec![
                Instr::arith(InstrClass::Popc, 1, &[2]),
                Instr::arith(InstrClass::Logic, 2, &[1]),
                Instr::arith(InstrClass::Logic, 2, &[1]),
                Instr::store_global(&[2]),
            ],
        )]);
        let df = Dataflow::analyze(&p);
        assert_eq!(
            df.dead_writes,
            vec![DeadWrite {
                block: 0,
                instr: 1,
                reg: 2
            }]
        );
    }

    #[test]
    fn pressure_reports_renaming_headroom() {
        let dev = devices::gtx_980();
        let p = pinned_kernel();
        let report = lint_dataflow(&dev, &facts(p));
        let d = report.with_code("V112-LIVE-PRESSURE").next().unwrap();
        assert_eq!(d.severity, Severity::Info);
        assert!(d.message.contains("pressure 3 of 4"), "{}", d.message);
    }

    #[test]
    fn zero_trip_blocks_define_nothing() {
        // The def of r1 sits in a zero-trip block, so the read in block 1
        // is genuinely undefined (never written from the engines' view).
        let p = Program::new(vec![
            Block::looped(0, vec![Instr::load_global(1, &[])]),
            Block::once(vec![Instr::store_global(&[1])]),
        ]);
        let df = Dataflow::analyze(&p);
        assert_eq!(df.implicit_reads.len(), 1);
        assert_eq!(df.implicit_reads[0].kind, ImplicitKind::NeverWritten);
        assert_eq!(reach(&p, 1, 0, 1, true), ReachingDef::ImplicitZero);
    }

    #[test]
    fn empty_program_analyzes_cleanly() {
        let df = Dataflow::analyze(&Program::default());
        assert_eq!(df.pressure.max_live, 0);
        assert!(df.dead_writes.is_empty());
        assert!(df.implicit_reads.is_empty());
    }
}
