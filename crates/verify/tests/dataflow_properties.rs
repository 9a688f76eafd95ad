//! Property tests for the dataflow/abstract-interpretation layer: on random
//! programs the static analyses must agree with a brute-force fully-unrolled
//! interpreter oracle, and the V113 critical path must never exceed what the
//! detailed engine actually measures for a single-group launch.

use std::collections::BTreeSet;

use proptest::prelude::*;
use snp_gpu_model::{devices, InstrClass};
use snp_gpu_sim::isa::{Block, Instr, Program, Reg};
use snp_gpu_sim::{critical_path, simulate_core, supports_program};
use snp_verify::dataflow::{reach, Dataflow, ReachingDef};

const N_REGS: u64 = 10;

/// Deterministic split-free LCG so a single proptest-drawn seed yields a
/// whole random program.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn reg(&mut self) -> Reg {
        self.below(N_REGS) as Reg
    }

    fn regs(&mut self, max: u64) -> Vec<Reg> {
        (0..self.below(max + 1)).map(|_| self.reg()).collect()
    }
}

/// A random program: 1–4 blocks (zero-trip and empty ones included), each a
/// looped straight-line body over a 10-register file.
fn random_program(seed: u64, allow_mma: bool) -> Program {
    let mut rng = Lcg(seed);
    let n_blocks = 1 + rng.below(4) as usize;
    let mut blocks = Vec::new();
    for _ in 0..n_blocks {
        let trips = rng.below(8) as u32;
        let n_instrs = rng.below(7) as usize;
        let mut instrs = Vec::new();
        for _ in 0..n_instrs {
            let palette = if allow_mma { 10 } else { 9 };
            let instr = match rng.below(palette) {
                0 => Instr::arith(InstrClass::IntAdd, rng.reg(), &{
                    let mut s = rng.regs(1);
                    s.push(rng.reg());
                    s
                }),
                1 => Instr::arith(InstrClass::Logic, rng.reg(), &[rng.reg(), rng.reg()]),
                2 => Instr::arith(InstrClass::Not, rng.reg(), &[rng.reg()]),
                3 => Instr::arith(InstrClass::Popc, rng.reg(), &[rng.reg()]),
                4 => Instr::arith(InstrClass::Scalar, rng.reg(), &[rng.reg()]),
                5 => Instr::load_global(rng.reg(), &rng.regs(1)),
                6 => Instr::load_shared(rng.reg(), &rng.regs(1), 1 + rng.below(4) as u32),
                7 => Instr::store_global(&{
                    let mut s = rng.regs(1);
                    s.push(rng.reg());
                    s
                }),
                8 => Instr::store_shared(&[rng.reg()], 1 + rng.below(4) as u32),
                _ => Instr::arith(
                    InstrClass::Mma,
                    rng.reg(),
                    &[rng.reg(), rng.reg(), rng.reg()],
                ),
            };
            instrs.push(instr);
        }
        blocks.push(Block::looped(trips, instrs));
    }
    Program::new(blocks)
}

/// Oracle: static sites whose *first* dynamic execution reads a register no
/// instruction has written yet (the implicit zero), from a full unrolled
/// walk.
fn oracle_implicit_reads(prog: &Program) -> BTreeSet<(usize, usize, Reg)> {
    let mut written = vec![false; prog.reg_count()];
    let mut out = BTreeSet::new();
    for (bi, block) in prog.blocks.iter().enumerate() {
        if !block.executes() {
            continue;
        }
        for trip in 0..block.trips {
            for (ii, instr) in block.instrs.iter().enumerate() {
                for &s in &instr.srcs {
                    if trip == 0 && !written[s as usize] {
                        out.insert((bi, ii, s));
                    }
                }
                if let Some(d) = instr.dst {
                    written[d as usize] = true;
                }
            }
        }
    }
    out
}

/// Oracle: registers live on entry to `start_block` — those whose first
/// dynamic access at or after that point is a read.
fn oracle_live_in(prog: &Program, start_block: usize) -> Vec<Reg> {
    let mut first: Vec<Option<bool>> = vec![None; prog.reg_count()];
    for bi in start_block..prog.blocks.len() {
        let block = &prog.blocks[bi];
        if !block.executes() {
            continue;
        }
        for _ in 0..block.trips {
            for instr in &block.instrs {
                for &s in &instr.srcs {
                    first[s as usize].get_or_insert(true);
                }
                if let Some(d) = instr.dst {
                    first[d as usize].get_or_insert(false);
                }
            }
        }
    }
    first
        .iter()
        .enumerate()
        .filter(|&(_, f)| *f == Some(true))
        .map(|(r, _)| r as Reg)
        .collect()
}

/// A read site: `(block, instr, src position, register)`.
type ReadSite = (usize, usize, usize, Reg);

/// Oracle: the reaching definition observed by each read at its trip-0 and
/// trip-1 dynamic instances, as `(site, first_trip) -> ReachingDef`.
fn oracle_reaching(prog: &Program) -> Vec<(ReadSite, bool, ReachingDef)> {
    let mut last_def: Vec<Option<(usize, usize, u32)>> = vec![None; prog.reg_count()];
    let mut out = Vec::new();
    for (bi, block) in prog.blocks.iter().enumerate() {
        if !block.executes() {
            continue;
        }
        for trip in 0..block.trips {
            for (ii, instr) in block.instrs.iter().enumerate() {
                if trip <= 1 {
                    for (si, &s) in instr.srcs.iter().enumerate() {
                        let rd = match last_def[s as usize] {
                            None => ReachingDef::ImplicitZero,
                            Some((db, dj, dt)) if db == bi && dt == trip => {
                                ReachingDef::SameTrip(snp_verify::dataflow::DefSite {
                                    block: db,
                                    instr: dj,
                                })
                            }
                            Some((db, dj, _)) if db == bi => {
                                ReachingDef::LoopCarried(snp_verify::dataflow::DefSite {
                                    block: db,
                                    instr: dj,
                                })
                            }
                            Some((db, dj, _)) => {
                                ReachingDef::PriorBlock(snp_verify::dataflow::DefSite {
                                    block: db,
                                    instr: dj,
                                })
                            }
                        };
                        out.push(((bi, ii, si, s), trip == 0, rd));
                    }
                }
                if let Some(d) = instr.dst {
                    last_def[d as usize] = Some((bi, ii, trip));
                }
            }
        }
    }
    out
}

/// Oracle: static write sites none of whose dynamic value instances are
/// ever read before being overwritten or program end.
fn oracle_dead_writes(prog: &Program) -> BTreeSet<(usize, usize)> {
    // value id -> (site, was_read); register -> current value id.
    let mut site_read: Vec<((usize, usize), bool)> = Vec::new();
    let mut holder: Vec<Option<usize>> = vec![None; prog.reg_count()];
    for (bi, block) in prog.blocks.iter().enumerate() {
        if !block.executes() {
            continue;
        }
        for _ in 0..block.trips {
            for (ii, instr) in block.instrs.iter().enumerate() {
                for &s in &instr.srcs {
                    if let Some(id) = holder[s as usize] {
                        site_read[id].1 = true;
                    }
                }
                if let Some(d) = instr.dst {
                    site_read.push(((bi, ii), false));
                    holder[d as usize] = Some(site_read.len() - 1);
                }
            }
        }
    }
    let mut dead: BTreeSet<(usize, usize)> = site_read.iter().map(|&(s, _)| s).collect();
    for &(site, read) in &site_read {
        if read {
            dead.remove(&site);
        }
    }
    dead
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// First-trip implicit-zero reads match the unrolled interpreter
    /// exactly (every classified kind included — V101's never-written
    /// registers are a kind, not an omission).
    #[test]
    fn implicit_reads_agree_with_unrolled_oracle(seed in any::<u64>()) {
        let prog = random_program(seed, true);
        let df = Dataflow::analyze(&prog);
        let got: BTreeSet<(usize, usize, Reg)> =
            df.implicit_reads.iter().map(|r| (r.block, r.instr, r.reg)).collect();
        prop_assert_eq!(got, oracle_implicit_reads(&prog));
    }

    /// Block-entry liveness matches the unrolled interpreter on every
    /// executing block.
    #[test]
    fn liveness_agrees_with_unrolled_oracle(seed in any::<u64>()) {
        let prog = random_program(seed, true);
        let df = Dataflow::analyze(&prog);
        for (bi, block) in prog.blocks.iter().enumerate() {
            if !block.executes() {
                continue;
            }
            prop_assert_eq!(
                df.live_in(bi),
                oracle_live_in(&prog, bi).as_slice(),
                "block {}", bi
            );
        }
        prop_assert!(df.pressure.max_live <= prog.reg_count());
    }

    /// Trip-sensitive reaching definitions match the unrolled interpreter
    /// at both the first-trip and steady-state instances of every read.
    #[test]
    fn reaching_defs_agree_with_unrolled_oracle(seed in any::<u64>()) {
        let prog = random_program(seed, true);
        for ((bi, ii, _si, reg), first, expect) in oracle_reaching(&prog) {
            prop_assert_eq!(
                reach(&prog, bi, ii, reg, first),
                expect,
                "block {} instr {} r{} first_trip={}", bi, ii, reg, first
            );
        }
    }

    /// Dead-write detection is sound: every reported site is dead in the
    /// unrolled trace (the union-of-continuations semantics may keep some
    /// truly-dead writes alive, but must never flag a live one).
    #[test]
    fn dead_writes_are_sound(seed in any::<u64>()) {
        let prog = random_program(seed, true);
        let df = Dataflow::analyze(&prog);
        let oracle = oracle_dead_writes(&prog);
        for dw in &df.dead_writes {
            prop_assert!(
                oracle.contains(&(dw.block, dw.instr)),
                "block {} instr {} r{} flagged dead but is read", dw.block, dw.instr, dw.reg
            );
        }
    }

    /// V113's static bound is a true lower bound: it never exceeds the
    /// detailed engine's measured cycles for a single-group launch, on any
    /// modeled GPU that supports the program.
    #[test]
    fn critical_path_never_exceeds_detailed_cycles(seed in any::<u64>()) {
        let prog = random_program(seed, true);
        for dev in devices::all_gpus() {
            if !supports_program(&dev, &prog) {
                continue;
            }
            let cp = critical_path(&dev, &prog);
            let det = simulate_core(&dev, &prog, 1, 10_000_000).unwrap();
            prop_assert!(
                cp.lower_bound_cycles() <= det.cycles,
                "{}: bound {} > measured {}", dev.name, cp.lower_bound_cycles(), det.cycles
            );
        }
    }
}
