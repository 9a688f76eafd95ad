//! The static timing engine.
//!
//! Full-size launches (e.g. 32 queries × 20 M profiles) execute trillions of
//! instructions — far beyond what per-cycle interpretation can cover. This
//! engine instead times a kernel from its *static structure*.
//! [`critical_path`] walks the program once against the device's timing and
//! records, per block, the issue cycles its busiest pipeline serves and the
//! span its latency-weighted dependence chain advances; at `groups` resident
//! thread groups a core then needs
//!
//! ```text
//! Σ_blocks max( groups_per_cluster × issue_bound ,  chain_span )
//! ```
//!
//! cycles ([`CritPath::predicted_core_cycles`]) — the issue-bound /
//! latency-bound maximum of DESIGN.md §3. The same walk gives rule V113 its
//! single-group lower bound ([`CritPath::lower_bound_cycles`]). The detailed
//! engine and this model are cross-validated on small programs (see the
//! tests and `tests/engine_agreement.rs`).
//!
//! Kernel wall time then combines compute cycles (scaled by the device's
//! core-scaling efficiency, the knob that reproduces Fig. 7), the
//! DRAM-bandwidth bound on streamed traffic, and the fixed launch overhead.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, MutexGuard, OnceLock};

use snp_gpu_model::DeviceSpec;

use crate::isa::{Block, Program};

/// Per-pipeline issue cycles one thread group places on each pipeline during
/// one trip of a block.
fn issue_cycles_per_trip(dev: &DeviceSpec, block: &Block) -> Vec<u64> {
    let mut issue = vec![0u64; dev.pipelines.len()];
    for instr in &block.instrs {
        let pipe = dev
            .pipeline_index_for(instr.class)
            .unwrap_or_else(|| panic!("{} lacks a pipeline for {}", dev.name, instr.class));
        issue[pipe] += dev.issue_cycles(instr.class) as u64 * instr.conflict_ways as u64;
    }
    issue
}

/// Total issue cycles one thread group places on each pipeline across the
/// whole program (every executing block × its trip count) — the static leg
/// of the per-pipeline busy counters in [`crate::profile`] and
/// [`CritPath::pipe_issue_cycles`].
pub fn pipeline_issue_cycles(dev: &DeviceSpec, prog: &Program) -> Vec<u64> {
    let mut totals = vec![0u64; dev.pipelines.len()];
    for block in prog.blocks.iter().filter(|b| b.executes()) {
        for (p, c) in issue_cycles_per_trip(dev, block).into_iter().enumerate() {
            totals[p] += block.trips as u64 * c;
        }
    }
    totals
}

/// Critical-path facts of one executing block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockPath {
    /// Block index in the program.
    pub block: usize,
    /// Trips the block executes.
    pub trips: u32,
    /// Issue cycles one group places on the block's busiest pipeline over
    /// all trips (the block's issue bound at one resident group).
    pub issue_bound: u64,
    /// Cycles the global dependence chain advances across the block
    /// (latency-weighted, loop-carried edges included).
    pub chain_span: u64,
}

impl BlockPath {
    /// Whether the block is latency-bound at one resident group: its
    /// dependence chain outweighs its busiest pipeline's issue work.
    pub fn latency_bound(&self) -> bool {
        self.chain_span > self.issue_bound
    }
}

/// The static critical path of a program on a device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CritPath {
    /// Per executing block, in program order.
    pub per_block: Vec<BlockPath>,
    /// Length of the longest latency-weighted dependence chain through the
    /// whole program (loop-carried and cross-block edges included).
    pub chain_cycles: u64,
    /// Per-pipeline issue cycles one group places over the whole program
    /// ([`pipeline_issue_cycles`]).
    pub pipe_issue_cycles: Vec<u64>,
    /// Dynamic instructions per group (one group issues at most one per
    /// cycle, so this too lower-bounds the runtime).
    pub dynamic_instrs: u64,
}

impl CritPath {
    /// The provable single-group lower bound:
    /// `max(chain, busiest pipe, dynamic instructions)`.
    pub fn lower_bound_cycles(&self) -> u64 {
        self.chain_cycles
            .max(self.pipe_issue_cycles.iter().copied().max().unwrap_or(0))
            .max(self.dynamic_instrs)
    }

    /// Core-cycle prediction at `groups` resident groups on a device with
    /// `n_clusters` pipeline clusters — the engine's timing model: per
    /// block, the issue bound scales with groups sharing each cluster's
    /// pipelines while the dependence chain does not (extra groups hide
    /// latency, they do not shorten chains), and the block takes whichever
    /// bound is larger.
    pub fn predicted_core_cycles(&self, n_clusters: u32, groups: u32) -> f64 {
        let clusters = n_clusters.min(groups).max(1) as f64;
        let gpc = groups.max(1) as f64 / clusters;
        self.per_block
            .iter()
            .map(|b| (gpc * b.issue_bound as f64).max(b.chain_span as f64))
            .sum()
    }
}

/// Computes the latency-weighted critical path of `prog` on `dev`.
///
/// The walk abstractly interprets the program against the device's timing
/// (DESIGN.md §14.3): every register starts available at cycle 0 (the
/// engines' implicit zero-initialization), and each instruction's result
/// becomes available `completion_cycles(class, ways)` after its latest
/// source — exactly the per-instruction delta the detailed engine charges,
/// but with all structural hazards (pipe occupancy, scheduler width)
/// relaxed. The resulting chain length, combined with the per-pipeline issue
/// totals and the dynamic instruction count, is a *provable lower bound* on
/// the detailed engine's cycles for a single-group launch:
///
/// * the chain relaxation can only start instructions earlier, never later;
/// * a pipeline serving `c` issue cycles of work is busy ≥ `c` cycles;
/// * one group issues at most one instruction per cycle.
///
/// The walk steps every trip of every block, so the chain is exact at any
/// trip count.
///
/// Panics if the program issues a class `dev` has no pipeline for (gate on
/// [`supports_program`] first; the V107 lint owns that diagnostic).
pub fn critical_path(dev: &DeviceSpec, prog: &Program) -> CritPath {
    let mut avail = vec![0u64; prog.reg_count()];
    let mut chain_end = 0u64;
    let mut per_block = Vec::new();

    for (bi, block) in prog.blocks.iter().enumerate() {
        if !block.executes() {
            continue;
        }
        let block_start = chain_end;
        let per_trip = issue_cycles_per_trip(dev, block);
        for _ in 0..block.trips {
            for instr in &block.instrs {
                let start = instr
                    .srcs
                    .iter()
                    .map(|&s| avail[s as usize])
                    .max()
                    .unwrap_or(0);
                let done = start + dev.completion_cycles(instr.class, instr.conflict_ways);
                if let Some(d) = instr.dst {
                    avail[d as usize] = done;
                }
                chain_end = chain_end.max(done);
            }
        }

        per_block.push(BlockPath {
            block: bi,
            trips: block.trips,
            issue_bound: per_trip.iter().copied().max().unwrap_or(0) * block.trips as u64,
            chain_span: chain_end - block_start,
        });
    }

    CritPath {
        per_block,
        chain_cycles: chain_end,
        pipe_issue_cycles: pipeline_issue_cycles(dev, prog),
        dynamic_instrs: prog.dynamic_instrs(),
    }
}

/// Whether `dev` has a pipeline for every class `prog` issues — the
/// precondition for [`critical_path`] (V107 reports the violation).
pub fn supports_program(dev: &DeviceSpec, prog: &Program) -> bool {
    prog.iter_instrs()
        .all(|(_, _, i)| dev.pipeline_index_for(i.class).is_some())
}

/// Hit/miss counters of the process-wide tile-timing cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TimingCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to walk the critical path.
    pub misses: u64,
}

/// The tile-timing cache: per-job cycles by key, and the process's lookup
/// totals.
#[derive(Default)]
struct TimingCache {
    cycles: HashMap<u64, f64>,
    stats: TimingCacheStats,
}

static TIMING_CACHE: OnceLock<Mutex<TimingCache>> = OnceLock::new();

/// Metric name of a run's tile-timing cache hits.
pub const TIMING_CACHE_HITS_METRIC: &str = "sim.timing_cache.hits";
/// Metric name of a run's tile-timing cache misses.
pub const TIMING_CACHE_MISSES_METRIC: &str = "sim.timing_cache.misses";

fn timing_cache() -> MutexGuard<'static, TimingCache> {
    TIMING_CACHE
        .get_or_init(Mutex::default)
        .lock()
        .expect("no lookup panics while holding the timing cache")
}

/// The tile-timing cache's hit/miss totals over every lookup the process
/// made.
pub fn timing_cache_stats() -> TimingCacheStats {
    timing_cache().stats
}

static DEVICE_FPRINTS: OnceLock<Mutex<Vec<(DeviceSpec, u64)>>> = OnceLock::new();

/// Fingerprints every timing-relevant field of a device (latency tables,
/// issue widths, cluster counts, …) via its `Debug` rendering — `DeviceSpec`
/// holds `f64` fields and so cannot implement `Hash` directly. Rendering the
/// spec is far more expensive than a structural compare, so fingerprints are
/// cached behind an equality lookup over the handful of distinct devices a
/// process touches.
pub fn device_fingerprint(dev: &DeviceSpec) -> u64 {
    let cache = DEVICE_FPRINTS.get_or_init(|| Mutex::new(Vec::new()));
    let mut known = cache.lock().unwrap();
    if let Some((_, fp)) = known.iter().find(|(d, _)| d == dev) {
        return *fp;
    }
    let mut h = DefaultHasher::new();
    format!("{dev:?}").hash(&mut h);
    let fp = h.finish();
    if known.len() >= 64 {
        // Randomized-hardware sweeps can mint unbounded distinct specs.
        known.clear();
    }
    known.push((dev.clone(), fp));
    fp
}

/// Looks `key` up in the process-wide timing cache, running `compute` and
/// inserting on miss. Returns the cycles and whether the lookup hit, which
/// the caller counts for its own run; the process totals
/// ([`timing_cache_stats`]) count every lookup.
///
/// `compute` must be a pure function of whatever `key` fingerprints — the
/// caller owns that contract. A caller that can derive `key` without
/// materializing a [`Program`] (the kernel planner keys on its own
/// configuration) skips program construction and the critical-path walk
/// entirely on a hit. The lock is not held across `compute`; a concurrent
/// duplicate computation is benign because both producers insert the same
/// value.
pub fn memoized_core_cycles(key: u64, compute: impl FnOnce() -> f64) -> (f64, bool) {
    {
        let mut cache = timing_cache();
        if let Some(&cycles) = cache.cycles.get(&key) {
            cache.stats.hits += 1;
            return (cycles, true);
        }
    }
    let cycles = compute();
    let mut cache = timing_cache();
    cache.stats.misses += 1;
    cache.cycles.insert(key, cycles);
    (cycles, false)
}

/// Global-memory traffic of a launch, for the bandwidth bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Traffic {
    /// Bytes read from global memory by the kernel.
    pub read_bytes: u64,
    /// Bytes written to global memory by the kernel.
    pub write_bytes: u64,
}

impl Traffic {
    /// Total bytes moved.
    pub fn total(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }
}

/// Wall-time breakdown of one kernel launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelTime {
    /// Compute time after applying core-scaling efficiency, in ns.
    pub compute_ns: f64,
    /// DRAM-bandwidth bound on the streamed traffic, in ns.
    pub memory_ns: f64,
    /// Fixed launch overhead, in ns.
    pub launch_ns: f64,
    /// Total modeled duration: `max(compute, memory) + launch`.
    pub total_ns: f64,
    /// The core-scaling efficiency that was applied (Fig. 7's knob).
    pub scaling_efficiency: f64,
}

/// Times a kernel launch of `core_cycles` per core on `active_cores`
/// concurrently active cores moving `traffic` bytes of global memory.
///
/// `core_cycles` is the per-core cycle count with all cores doing equal
/// work (the framework divides tiles evenly); the core-scaling efficiency
/// divides throughput, i.e. multiplies time.
pub fn kernel_time(
    dev: &DeviceSpec,
    core_cycles: f64,
    active_cores: u32,
    traffic: Traffic,
) -> KernelTime {
    assert!(active_cores >= 1 && active_cores <= dev.n_cores);
    let eff = dev.memory.core_scaling_efficiency(active_cores);
    let compute_ns = dev.cycles_to_ns(core_cycles) / eff;
    let memory_ns = traffic.total() as f64 / dev.memory.effective_bandwidth_bytes_s() * 1e9;
    let launch_ns = dev.transfer.kernel_launch_ns as f64;
    KernelTime {
        compute_ns,
        memory_ns,
        launch_ns,
        total_ns: compute_ns.max(memory_ns) + launch_ns,
        scaling_efficiency: eff,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detailed::simulate_core;
    use crate::isa::{Instr, Program};
    use snp_gpu_model::{devices, InstrClass};

    /// The engine's prediction for `prog` at `groups` resident groups.
    fn predicted(dev: &DeviceSpec, prog: &Program, groups: u32) -> f64 {
        critical_path(dev, prog).predicted_core_cycles(dev.n_clusters, groups)
    }

    /// The pinned GTX 980 kernel of `profiler_counters.rs`. Hand-computed
    /// (DESIGN.md §14): ld.global completes at 28; the 2-way shared load
    /// adds max(24 + 4, 8) = 28 → 56; popc +6 → 62; the first add +6 → 68;
    /// each further trip's add chains +6 → 68 + 9·6 = 122. Issue totals
    /// [10, 0, 40, 84] peak at 84, dynamic instrs 31 → bound 122.
    fn pinned_gtx_kernel() -> Program {
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

    /// The pinned TC100 MMA kernel of `mma_plan.rs`. Hand-computed:
    /// ld.global 28; ld.shared +24 → 52; first mma +8 → 60, nine more
    /// carried mma +8 each → 132; the add chains +4 → 136. Issue totals
    /// [20, 0, 0, 44, 40] peak at 44, dynamic instrs 31 → bound 136.
    fn pinned_mma_kernel() -> Program {
        Program::new(vec![
            Block::once(vec![Instr::load_global(0, &[])]),
            Block::looped(
                10,
                vec![
                    Instr::load_shared(1, &[0], 1),
                    Instr::arith(InstrClass::Mma, 2, &[1, 0, 2]),
                    Instr::arith(InstrClass::IntAdd, 3, &[3, 2]),
                ],
            ),
        ])
    }

    #[test]
    fn pinned_gtx_kernel_critical_path() {
        let dev = devices::gtx_980();
        let cp = critical_path(&dev, &pinned_gtx_kernel());
        assert_eq!(cp.chain_cycles, 122);
        assert_eq!(cp.pipe_issue_cycles, vec![10, 0, 40, 84]);
        assert_eq!(cp.dynamic_instrs, 31);
        assert_eq!(cp.lower_bound_cycles(), 122);
        // once-block span: the load's completion (28); the loop carries the
        // rest (122 − 28 = 94) and is latency-bound (94 > 84).
        assert_eq!(cp.per_block[0].chain_span, 28);
        assert_eq!(cp.per_block[1].chain_span, 94);
        assert!(cp.per_block[1].latency_bound());
    }

    #[test]
    fn pinned_mma_kernel_critical_path() {
        let dev = devices::tc100();
        let cp = critical_path(&dev, &pinned_mma_kernel());
        assert_eq!(cp.chain_cycles, 136);
        assert_eq!(cp.pipe_issue_cycles, vec![20, 0, 0, 44, 40]);
        assert_eq!(cp.lower_bound_cycles(), 136);
    }

    #[test]
    fn lower_bound_never_exceeds_detailed_measurement() {
        for prog in [pinned_gtx_kernel(), pinned_mma_kernel()] {
            for dev in devices::all_gpus() {
                if !supports_program(&dev, &prog) {
                    continue;
                }
                let cp = critical_path(&dev, &prog);
                let det = simulate_core(&dev, &prog, 1, 1_000_000).unwrap();
                assert!(
                    cp.lower_bound_cycles() <= det.cycles,
                    "{}: bound {} > measured {}",
                    dev.name,
                    cp.lower_bound_cycles(),
                    det.cycles,
                );
            }
        }
    }

    /// The chain of `prog`, walked trip by trip: each instruction's result
    /// is available `completion_cycles` after its latest source.
    fn chain_trip_by_trip(dev: &DeviceSpec, prog: &Program) -> u64 {
        let mut avail = vec![0u64; prog.reg_count()];
        let mut chain = 0;
        for block in &prog.blocks {
            for _ in 0..block.trips {
                for instr in &block.instrs {
                    let start = instr.srcs.iter().map(|&s| avail[s as usize]).max();
                    let done = start.unwrap_or(0)
                        + dev.completion_cycles(instr.class, instr.conflict_ways);
                    if let Some(d) = instr.dst {
                        avail[d as usize] = done;
                    }
                    chain = chain.max(done);
                }
            }
        }
        chain
    }

    #[test]
    fn long_loop_chain_grows_by_its_per_trip_delta() {
        let dev = devices::gtx_980();
        // Same body at 4095, 4096 and 16 384 trips: a long loop's chain is
        // the short one's plus the per-trip delta (6, from the dependent
        // add) for every further trip.
        let body = vec![
            Instr::load_shared(1, &[0], 1),
            Instr::arith(InstrClass::Popc, 2, &[1]),
            Instr::arith(InstrClass::IntAdd, 3, &[3, 2]),
        ];
        let chain = |trips: u32| {
            critical_path(
                &dev,
                &Program::new(vec![Block::looped(trips, body.clone())]),
            )
            .chain_cycles
        };
        let trips = 4096;
        let per_trip = chain(trips) - chain(trips - 1);
        assert_eq!(per_trip, 6);
        assert_eq!(
            chain(trips * 4),
            chain(trips) + per_trip * (trips as u64 * 3)
        );
    }

    #[test]
    fn a_late_overtaking_chain_sets_the_length_of_a_long_loop() {
        // Two independent chains in a 10 000-trip loop: `s` advances 6
        // cycles a trip (one add) after a 1000-load head start of 28 000
        // cycles, `f` advances 12 (two adds) from 0. `s` leads for the
        // first 4666 trips, so every trip early in the loop advances the
        // registers alike, and `f` leads from trip 4667 on.
        let dev = devices::gtx_980();
        let (s, f) = (0, 1);
        let prog = Program::new(vec![
            Block::looped(1000, vec![Instr::load_global(s, &[s])]),
            Block::looped(
                10_000,
                vec![
                    Instr::arith(InstrClass::IntAdd, s, &[s]),
                    Instr::arith(InstrClass::IntAdd, f, &[f]),
                    Instr::arith(InstrClass::IntAdd, f, &[f]),
                ],
            ),
        ]);
        let cp = critical_path(&dev, &prog);
        assert_eq!(cp.chain_cycles, chain_trip_by_trip(&dev, &prog));
        assert_eq!(cp.chain_cycles, 12 * 10_000, "the overtaking chain wins");
        assert_eq!(cp.per_block[1].chain_span, 12 * 10_000 - 28_000);
    }

    #[test]
    fn chain_bound_matches_detailed_for_single_group() {
        let dev = devices::gtx_980();
        let prog = Program::dependent_chain(InstrClass::Popc, 16, 100);
        let est = predicted(&dev, &prog, 1);
        let det = simulate_core(&dev, &prog, 1, 10_000_000).unwrap().cycles as f64;
        let rel = (est - det).abs() / det;
        assert!(
            rel < 0.05,
            "static {est} vs detailed {det} ({rel:.2} rel err)"
        );
    }

    #[test]
    fn issue_bound_matches_detailed_at_saturation() {
        let dev = devices::gtx_980();
        let groups = dev.chosen_occupancy_groups();
        let prog = Program::dependent_chain(InstrClass::Popc, 16, 100);
        let est = predicted(&dev, &prog, groups);
        let det = simulate_core(&dev, &prog, groups, 10_000_000)
            .unwrap()
            .cycles as f64;
        let rel = (est - det).abs() / det;
        assert!(
            rel < 0.05,
            "static {est} vs detailed {det} ({rel:.2} rel err)"
        );
    }

    #[test]
    fn mixed_pipes_agree_with_detailed() {
        for dev in [devices::gtx_980(), devices::titan_v(), devices::vega_64()] {
            let groups = dev.chosen_occupancy_groups();
            let prog = Program::interleaved_pair(InstrClass::Popc, InstrClass::IntAdd, 4, 200);
            let est = predicted(&dev, &prog, groups);
            let det = simulate_core(&dev, &prog, groups, 50_000_000)
                .unwrap()
                .cycles as f64;
            let rel = (est - det).abs() / det;
            assert!(rel < 0.10, "{}: static {est} vs detailed {det}", dev.name);
        }
    }

    #[test]
    fn empty_and_zero_trip_blocks_cost_nothing() {
        let dev = devices::gtx_980();
        let prog = Program::new(vec![
            Block::looped(0, vec![Instr::arith(InstrClass::IntAdd, 0, &[0])]),
            Block::once(vec![]),
        ]);
        let cp = critical_path(&dev, &prog);
        assert!(cp.per_block.is_empty());
        assert_eq!(cp.predicted_core_cycles(dev.n_clusters, 4), 0.0);
        assert_eq!(cp.lower_bound_cycles(), 0);
    }

    #[test]
    fn kernel_time_compute_bound_vs_memory_bound() {
        let dev = devices::titan_v();
        // Tiny traffic: compute-bound.
        let kt = kernel_time(
            &dev,
            1_000_000.0,
            80,
            Traffic {
                read_bytes: 1,
                write_bytes: 0,
            },
        );
        assert!(kt.compute_ns > kt.memory_ns);
        assert_eq!(kt.total_ns, kt.compute_ns + kt.launch_ns);
        // Huge traffic: memory-bound.
        let kt2 = kernel_time(
            &dev,
            1_000.0,
            80,
            Traffic {
                read_bytes: 10 << 30,
                write_bytes: 0,
            },
        );
        assert!(kt2.memory_ns > kt2.compute_ns);
        assert_eq!(kt2.total_ns, kt2.memory_ns + kt2.launch_ns);
    }

    #[test]
    fn vega_scaling_inflates_compute_time() {
        let dev = devices::vega_64();
        let t8 = kernel_time(&dev, 1e6, 8, Traffic::default());
        let t64 = kernel_time(&dev, 1e6, 64, Traffic::default());
        assert_eq!(t8.scaling_efficiency, 1.0);
        assert!(t64.scaling_efficiency < 0.58);
        assert!(t64.compute_ns > t8.compute_ns * 1.7);
    }

    #[test]
    #[should_panic(expected = "active_cores")]
    fn kernel_time_rejects_zero_cores() {
        let dev = devices::gtx_980();
        let _ = kernel_time(&dev, 1.0, 0, Traffic::default());
    }

    #[test]
    fn memoized_lookup_computes_once_then_hits() {
        // A key unique to this test, so the first lookup is a miss even if
        // other tests in the process populated the cache.
        let key = 0x6d65_6d6f_7465_7374;
        let before = timing_cache_stats();
        let first = memoized_core_cycles(key, || 12_347.0);
        let second = memoized_core_cycles(key, || unreachable!("a hit must not recompute"));
        let after = timing_cache_stats();
        assert_eq!((first, second), ((12_347.0, false), (12_347.0, true)));
        assert!(
            after.hits > before.hits,
            "repeat lookup must hit: {before:?} -> {after:?}"
        );
        assert!(after.misses > before.misses);
    }
}
