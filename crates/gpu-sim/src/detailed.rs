//! The cycle-stepped detailed engine.
//!
//! Simulates one compute core of the model GPU at thread-group granularity,
//! exactly implementing the pipeline semantics in DESIGN.md §3:
//!
//! * thread groups are assigned to compute clusters round-robin and execute
//!   their program in order, at most one issue per group per cycle;
//! * an instruction issues when its source registers are ready and its
//!   class's pipeline (within the group's cluster) is free; the pipeline is
//!   then busy for `T_issue = ceil(N_T / N_fn) × conflict_ways` cycles;
//! * the destination register becomes ready `result_latency` cycles after
//!   issue (`max(T_issue, L_fn)` for arithmetic; the modeled memory
//!   latencies for loads, scaled by conflict ways for shared accesses).
//!
//! A single-group dependent chain therefore measures `L_fn` directly (the
//! §V-C methodology) and `N_cl × L_fn` resident groups saturate pipeline
//! throughput (§V-D). The engine is used by the microbenchmarks and to
//! cross-validate the static critical-path model on small kernels;
//! full-size launches are timed statically.

use snp_gpu_model::{DeviceSpec, InstrClass};

use crate::isa::Program;

/// Outcome of simulating one core.
#[derive(Debug, Clone, PartialEq)]
pub struct DetailedResult {
    /// Cycles from launch until the last result of the last group is ready.
    pub cycles: u64,
    /// Dynamic instructions executed per thread group.
    pub instrs_per_group: u64,
    /// Total dynamic instructions across all groups.
    pub total_instrs: u64,
    /// Busy cycles per pipeline index (summed over clusters) — feeds
    /// utilization reporting.
    pub pipeline_busy: Vec<u64>,
    /// Number of resident thread groups simulated.
    pub groups: u32,
}

impl DetailedResult {
    /// Average cycles per dynamic instruction of one group's stream —
    /// the quantity the §V-C latency formula evaluates.
    pub fn cycles_per_instr(&self) -> f64 {
        self.cycles as f64 / self.instrs_per_group.max(1) as f64
    }

    /// Thread-level instruction throughput in instructions per cycle for a
    /// whole core, counting each group instruction as `n_t` thread
    /// instructions — the §V-D throughput formula's numerator per cycle.
    pub fn thread_instrs_per_cycle(&self, n_t: u32) -> f64 {
        self.total_instrs as f64 * n_t as f64 / self.cycles.max(1) as f64
    }
}

/// Errors from the detailed engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimLimit {
    /// The cycle budget was exhausted before the program finished.
    CycleBudgetExceeded {
        /// The budget that was exceeded.
        budget: u64,
    },
}

impl std::fmt::Display for SimLimit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimLimit::CycleBudgetExceeded { budget } => {
                write!(
                    f,
                    "detailed simulation exceeded its cycle budget of {budget}"
                )
            }
        }
    }
}

impl std::error::Error for SimLimit {}

#[derive(Debug)]
struct GroupState {
    cluster: usize,
    block: usize,
    trip: u32,
    ip: usize,
    reg_ready: Vec<u64>,
    issued: u64,
    done: bool,
    finish_time: u64,
}

impl GroupState {
    fn advance(&mut self, prog: &Program) {
        let block = &prog.blocks[self.block];
        self.ip += 1;
        if self.ip >= block.instrs.len() {
            self.ip = 0;
            self.trip += 1;
            if self.trip >= block.trips {
                self.trip = 0;
                self.block += 1;
                // Skip empty or zero-trip blocks.
                while self.block < prog.blocks.len()
                    && (prog.blocks[self.block].instrs.is_empty()
                        || prog.blocks[self.block].trips == 0)
                {
                    self.block += 1;
                }
                if self.block >= prog.blocks.len() {
                    self.done = true;
                }
            }
        }
    }
}

/// Simulates `groups` resident thread groups executing `prog` on one core of
/// `dev`. `max_cycles` bounds runaway programs. Groups run at the device's
/// full thread-group width `N_T`.
pub fn simulate_core(
    dev: &DeviceSpec,
    prog: &Program,
    groups: u32,
    max_cycles: u64,
) -> Result<DetailedResult, SimLimit> {
    simulate_core_width(dev, prog, groups, dev.n_t, max_cycles)
}

/// Like [`simulate_core`] but with only `active_threads` live lanes per
/// group (`<= N_T`). A single-lane group issues every instruction in one
/// cycle regardless of `N_fn`, which is how a real latency microbenchmark
/// (one work-item) exposes `L_fn` even on pipelines narrower than the
/// thread group (paper §V-C).
pub fn simulate_core_width(
    dev: &DeviceSpec,
    prog: &Program,
    groups: u32,
    active_threads: u32,
    max_cycles: u64,
) -> Result<DetailedResult, SimLimit> {
    assert!(groups >= 1, "need at least one thread group");
    assert!(
        (1..=dev.n_t).contains(&active_threads),
        "active threads {active_threads} outside 1..=N_T ({})",
        dev.n_t
    );
    let instrs_per_group = prog.dynamic_instrs();
    let n_regs = prog.reg_count();
    let n_clusters = dev.n_clusters as usize;
    let n_pipes = dev.pipelines.len();

    let mut states: Vec<GroupState> = (0..groups as usize)
        .map(|g| {
            let mut s = GroupState {
                cluster: g % n_clusters,
                block: 0,
                trip: 0,
                ip: 0,
                reg_ready: vec![0; n_regs],
                issued: 0,
                done: instrs_per_group == 0,
                finish_time: 0,
            };
            // Position on the first non-empty block.
            if !s.done {
                while s.block < prog.blocks.len()
                    && (prog.blocks[s.block].instrs.is_empty() || prog.blocks[s.block].trips == 0)
                {
                    s.block += 1;
                }
                if s.block >= prog.blocks.len() {
                    s.done = true;
                }
            }
            s
        })
        .collect();

    // busy-until per (cluster, pipeline).
    let mut busy = vec![0u64; n_clusters * n_pipes];
    let mut pipeline_busy = vec![0u64; n_pipes];
    let mut cycle: u64 = 0;
    let mut finish: u64 = 0;

    let mut issued_this_cycle = vec![false; groups as usize];
    let mut last_issue = vec![0u64; groups as usize];

    while states.iter().any(|s| !s.done) {
        if cycle >= max_cycles {
            return Err(SimLimit::CycleBudgetExceeded { budget: max_cycles });
        }
        issued_this_cycle.iter_mut().for_each(|b| *b = false);
        let mut any = false;
        // Least-recently-issued arbitration per (cluster, pipeline): real
        // warp schedulers rotate priority; a fixed order would starve
        // later groups whenever two earlier ones can saturate the pipe.
        let mut order: Vec<usize> = (0..states.len()).collect();
        order.sort_by_key(|&g| (last_issue[g], g));
        for g in order {
            let s = &mut states[g];
            if s.done || issued_this_cycle[g] {
                continue;
            }
            let instr = &prog.blocks[s.block].instrs[s.ip];
            if instr.srcs.iter().any(|&r| s.reg_ready[r as usize] > cycle) {
                continue;
            }
            let pipe = dev
                .pipeline_index_for(instr.class)
                .unwrap_or_else(|| panic!("{} lacks a pipeline for {}", dev.name, instr.class));
            let slot = s.cluster * n_pipes + pipe;
            if busy[slot] > cycle {
                continue;
            }
            // Issue.
            last_issue[g] = cycle;
            let lanes = dev
                .n_fn(instr.class)
                .unwrap_or_else(|| panic!("{} lacks lanes for {}", dev.name, instr.class));
            let width_issue = active_threads.div_ceil(lanes) as u64;
            let t_issue = width_issue * instr.conflict_ways as u64;
            busy[slot] = cycle + t_issue;
            pipeline_busy[pipe] += t_issue;
            let latency = match instr.class {
                InstrClass::LoadGlobal => dev.memory.global_latency_cycles as u64,
                InstrClass::LoadShared => {
                    dev.memory.shared_latency_cycles as u64
                        + (instr.conflict_ways as u64 - 1) * width_issue
                }
                InstrClass::StoreGlobal | InstrClass::StoreShared => t_issue,
                InstrClass::Mma => {
                    // The fragment op completes in the matrix unit's own
                    // pipeline depth, not the scalar L_fn.
                    let l = dev
                        .matrix_unit
                        .map(|m| m.latency_cycles as u64)
                        .unwrap_or(dev.l_fn as u64);
                    l.max(width_issue)
                }
                _ => (dev.l_fn as u64).max(width_issue),
            };
            let ready = cycle + latency.max(t_issue);
            if let Some(dst) = instr.dst {
                s.reg_ready[dst as usize] = ready;
            }
            s.issued += 1;
            s.finish_time = s.finish_time.max(ready).max(cycle + t_issue);
            issued_this_cycle[g] = true;
            any = true;
            s.advance(prog);
            if s.done {
                finish = finish.max(s.finish_time);
            }
        }
        if any {
            cycle += 1;
        } else {
            // Nothing could issue: jump to the next event (register becoming
            // ready or pipeline freeing) to keep the engine near event-driven.
            let mut next = u64::MAX;
            for s in states.iter().filter(|s| !s.done) {
                let instr = &prog.blocks[s.block].instrs[s.ip];
                let src_ready = instr
                    .srcs
                    .iter()
                    .map(|&r| s.reg_ready[r as usize])
                    .max()
                    .unwrap_or(0);
                let pipe = dev.pipeline_index_for(instr.class).unwrap();
                let pipe_free = busy[s.cluster * n_pipes + pipe];
                next = next.min(src_ready.max(pipe_free).max(cycle + 1));
            }
            debug_assert!(next > cycle, "no progress possible");
            cycle = next;
        }
    }

    Ok(DetailedResult {
        cycles: finish.max(cycle),
        instrs_per_group,
        total_instrs: instrs_per_group * groups as u64,
        pipeline_busy,
        groups,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Block, Instr, Program};
    use snp_gpu_model::devices;

    #[test]
    fn single_popc_chain_measures_l_fn() {
        // §V-C: one group, dependent popcount chain -> cycles/instr == L_fn.
        let dev = devices::gtx_980(); // L_fn = 6, popc issue = 4
        let iters = 200u32;
        let chain = 16usize;
        let prog = Program::dependent_chain(InstrClass::Popc, chain, iters);
        let r = simulate_core(&dev, &prog, 1, 10_000_000).unwrap();
        let chain_instrs = (chain as u64) * iters as u64;
        // Subtract the load/store bookkeeping (2 instrs) effect by using the
        // chain-dominated average.
        let cpi = r.cycles as f64 / chain_instrs as f64;
        assert!(
            (cpi - dev.l_fn as f64).abs() < 0.2,
            "cycles/instr {cpi} should approach L_fn {}",
            dev.l_fn
        );
    }

    #[test]
    fn vega_popc_chain_measures_issue_bound() {
        // Vega: popc issue = 64/16 = 4 = L_fn, so the chain also reads 4.
        let dev = devices::vega_64();
        let prog = Program::dependent_chain(InstrClass::Popc, 16, 200);
        let r = simulate_core(&dev, &prog, 1, 10_000_000).unwrap();
        let cpi = r.cycles as f64 / (16.0 * 200.0);
        assert!((cpi - 4.0).abs() < 0.2, "got {cpi}");
    }

    #[test]
    fn saturation_reaches_pipeline_throughput() {
        // §V-D: with N_cl x L_fn groups, popc throughput approaches
        // N_fn x N_cl thread-instructions per cycle per core.
        let dev = devices::gtx_980();
        let groups = dev.chosen_occupancy_groups(); // 24
        let prog = Program::dependent_chain(InstrClass::Popc, 16, 100);
        let r = simulate_core(&dev, &prog, groups, 10_000_000).unwrap();
        let tpc = r.thread_instrs_per_cycle(dev.n_t);
        let peak = (dev.n_fn(InstrClass::Popc).unwrap() * dev.n_clusters) as f64; // 32
        assert!(tpc > 0.93 * peak, "throughput {tpc} should approach {peak}");
        // Slightly above N_fn x N_cl is possible because the prologue loads
        // and epilogue stores count as instructions but issue on the LSU.
        assert!(tpc <= peak * 1.01);
    }

    #[test]
    fn throughput_flat_below_cluster_count() {
        // With <= N_cl groups each cluster holds at most one group, so the
        // *elapsed time* stays constant as groups are added (§V-D: "execution
        // time remains nearly constant for N_grp <= N_cl").
        let dev = devices::titan_v();
        let prog = Program::dependent_chain(InstrClass::Popc, 8, 50);
        let t1 = simulate_core(&dev, &prog, 1, 1_000_000).unwrap().cycles;
        let t4 = simulate_core(&dev, &prog, dev.n_clusters, 1_000_000)
            .unwrap()
            .cycles;
        assert!(
            (t4 as f64 - t1 as f64).abs() / (t1 as f64) < 0.02,
            "1 group: {t1} cycles, {} groups: {t4} cycles",
            dev.n_clusters
        );
    }

    #[test]
    fn pipeline_sharing_halves_vega_mixed_throughput() {
        // popc+add interleaved: on NVIDIA they sit on separate pipes so the
        // mixed stream is as fast as the slower class alone; on Vega ADD
        // shares the VALU with nothing popc-related, so the same holds; but
        // add+logic on Vega *do* share, doubling the time vs add alone.
        let iters = 100u32;
        let vega = devices::vega_64();
        let add_only = Program::independent_streams(InstrClass::IntAdd, 8, iters);
        let mixed = Program::interleaved_pair(InstrClass::IntAdd, InstrClass::Logic, 4, iters);
        let groups = vega.chosen_occupancy_groups();
        let t_add = simulate_core(&vega, &add_only, groups, 10_000_000).unwrap();
        let t_mix = simulate_core(&vega, &mixed, groups, 10_000_000).unwrap();
        // Same dynamic instruction counts per group (8 per iteration).
        assert_eq!(t_add.instrs_per_group, t_mix.instrs_per_group);
        let ratio = t_mix.cycles as f64 / t_add.cycles as f64;
        assert!(
            (ratio - 1.0).abs() < 0.05,
            "shared pipe: same time for same instr count, got {ratio}"
        );
        // Whereas popc+add mixed runs ~2x the instructions of add-only in the
        // same time, because the classes issue on different pipes.
        let popc_mix = Program::interleaved_pair(InstrClass::IntAdd, InstrClass::Popc, 4, iters);
        let t_pm = simulate_core(&vega, &popc_mix, groups, 10_000_000).unwrap();
        let speedup = t_mix.cycles as f64 / t_pm.cycles as f64;
        assert!(
            speedup > 1.8,
            "separate pipes should overlap, got {speedup}"
        );
    }

    #[test]
    fn nvidia_popc_add_overlap() {
        // §V-D observation: "population count is on a separate pipeline from
        // integer math... execution time remained nearly constant when
        // exclusively performing population count and when simultaneously
        // performing population count with an equal number of arithmetic
        // operations."
        let dev = devices::gtx_980();
        let groups = dev.chosen_occupancy_groups();
        let iters = 100u32;
        let popc_only = Program::independent_streams(InstrClass::Popc, 4, iters);
        let mixed = Program::interleaved_pair(InstrClass::Popc, InstrClass::IntAdd, 4, iters);
        let t_p = simulate_core(&dev, &popc_only, groups, 10_000_000).unwrap();
        let t_m = simulate_core(&dev, &mixed, groups, 10_000_000).unwrap();
        // The mixed program has 2x the instructions but the adds hide behind
        // the popc pipe, so elapsed time is nearly unchanged.
        let ratio = t_m.cycles as f64 / t_p.cycles as f64;
        assert!(
            ratio < 1.1,
            "adds must hide behind the popc pipe, got {ratio}"
        );
    }

    #[test]
    fn bank_conflicts_serialize_shared_loads() {
        let dev = devices::gtx_980();
        let mk = |ways| {
            Program::new(vec![Block::looped(
                200,
                vec![Instr::load_shared(0, &[], ways)],
            )])
        };
        let clean = simulate_core(&dev, &mk(1), 4, 10_000_000).unwrap().cycles;
        let conflicted = simulate_core(&dev, &mk(4), 4, 10_000_000).unwrap().cycles;
        let ratio = conflicted as f64 / clean as f64;
        assert!(
            (ratio - 4.0).abs() < 0.5,
            "4-way conflicts should serialize ~4x, got {ratio}"
        );
    }

    #[test]
    fn cycle_budget_enforced() {
        let dev = devices::gtx_980();
        let prog = Program::dependent_chain(InstrClass::Popc, 64, 10_000);
        let err = simulate_core(&dev, &prog, 1, 1_000).unwrap_err();
        assert!(matches!(
            err,
            SimLimit::CycleBudgetExceeded { budget: 1_000 }
        ));
        assert!(err.to_string().contains("cycle budget"));
    }

    #[test]
    fn empty_program_finishes_immediately() {
        let dev = devices::gtx_980();
        let r = simulate_core(&dev, &Program::default(), 4, 100).unwrap();
        assert_eq!(r.cycles, 0);
        assert_eq!(r.total_instrs, 0);
    }

    #[test]
    fn zero_trip_blocks_are_skipped() {
        let dev = devices::gtx_980();
        let prog = Program::new(vec![
            Block::looped(0, vec![Instr::arith(InstrClass::IntAdd, 0, &[0])]),
            Block::once(vec![Instr::arith(InstrClass::IntAdd, 0, &[0])]),
        ]);
        let r = simulate_core(&dev, &prog, 1, 10_000).unwrap();
        assert_eq!(r.instrs_per_group, 1);
        assert!(r.cycles >= 1);
    }

    #[test]
    fn more_groups_than_needed_do_not_help() {
        // Volkov-style: beyond saturation, extra groups leave throughput flat.
        let dev = devices::titan_v();
        let prog = Program::dependent_chain(InstrClass::Popc, 16, 50);
        let sat = dev.chosen_occupancy_groups();
        let r_sat = simulate_core(&dev, &prog, sat, 10_000_000).unwrap();
        let r_more = simulate_core(&dev, &prog, sat * 2, 10_000_000).unwrap();
        let tp_sat = r_sat.thread_instrs_per_cycle(dev.n_t);
        let tp_more = r_more.thread_instrs_per_cycle(dev.n_t);
        assert!(tp_more <= tp_sat * 1.02, "sat {tp_sat}, more {tp_more}");
    }
}
