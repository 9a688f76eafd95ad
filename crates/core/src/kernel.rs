//! The parameterized GPU kernel.
//!
//! This module is the Rust analogue of the paper's single OpenCL kernel
//! specialized by a configuration header (§V): it implements the *third BLIS
//! loop and its content* on the model GPU — load a slab of the A tile into
//! shared memory, stream B from global memory, accumulate an
//! `m_c × n_r` tile of `γ` in registers, writing results once at the end.
//!
//! Two artifacts are produced from one description:
//!
//! * a timing [`Program`] (per thread group, per tile job) consumed by the
//!   simulator's engines — this is where the Eqs. 4–7 parameters become
//!   instruction counts, and where fused-AND-NOT vs explicit-NOT vs
//!   pre-negation change the instruction mix (Fig. 9);
//! * a functional executor ([`execute_gamma`]) computing bit-exact results
//!   on the device's `u32` buffers, validated against the scalar reference.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use rayon::prelude::*;
use snp_bitmat::CompareOp;
use snp_gpu_model::{DeviceSpec, InstrClass, KernelConfig, MatrixUnitSpec};
use snp_gpu_sim::host::KernelCost;
use snp_gpu_sim::macro_engine::{
    device_fingerprint, kernel_time, memoized_core_cycles, KernelTime, Traffic,
};
use snp_gpu_sim::{critical_path, Block, Instr, Program, Reg};

/// Per-thread-group geometry derived from a configuration (DESIGN.md §3;
/// the quantities of paper §V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupGeometry {
    /// Resident thread groups per core (`N_cl × groups_per_cluster`).
    pub groups_per_core: u32,
    /// Output columns each thread accumulates (`v` = `n_r / (L · N_T)`).
    pub cols_per_thread: usize,
    /// Output rows each group covers across its sub-tiles.
    pub rows_per_group: usize,
    /// Total `γ` values held in each thread's registers
    /// (`m_c · n_r / (groups · N_T)`).
    pub outputs_per_thread: usize,
    /// Vectorized B loads per thread per k-step.
    pub b_loads: usize,
    /// Vectorized A (shared) loads per thread per k-step.
    pub a_loads: usize,
}

/// Derives the group geometry, panicking on configurations the device
/// cannot host (these are also caught by `KernelConfig::violations`).
pub fn group_geometry(dev: &DeviceSpec, cfg: &KernelConfig) -> GroupGeometry {
    let groups_per_core = cfg.groups_per_cluster * dev.n_clusters;
    assert!(
        groups_per_core <= dev.max_thread_groups * dev.n_clusters,
        "{} groups exceed the device limit",
        groups_per_core
    );
    let nt = dev.n_t as usize;
    let cols_per_group = cfg.n_r / cfg.groups_per_cluster as usize;
    assert!(
        cols_per_group.is_multiple_of(nt),
        "group columns {cols_per_group} must be a multiple of N_T {nt}"
    );
    let cols_per_thread = cols_per_group / nt;
    let outputs_per_thread = cfg.m_c * cfg.n_r / (groups_per_core as usize * nt);
    assert!(
        outputs_per_thread >= 1 && outputs_per_thread.is_multiple_of(cols_per_thread),
        "tile {}x{} does not distribute over {groups_per_core} groups of {nt} threads",
        cfg.m_c,
        cfg.n_r
    );
    let rows_per_group = outputs_per_thread / cols_per_thread;
    let nv = dev.n_vec as usize;
    GroupGeometry {
        groups_per_core,
        cols_per_thread,
        rows_per_group,
        outputs_per_thread,
        b_loads: cols_per_thread.div_ceil(nv),
        a_loads: rows_per_group.div_ceil(nv),
    }
}

/// How a tile program lowers the popcount inner product onto the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lowering {
    /// The scalar logic/popc/add triple per packed word — every device
    /// executes this form; it is also the correctness oracle.
    Scalar,
    /// 1-bit matrix-unit fragments (`InstrClass::Mma`): one instruction
    /// retires an `frag_m × frag_n × frag_k_bits` AND+POPC / XOR+POPC tile.
    Mma,
}

impl Lowering {
    /// True when the lowering issues matrix-unit instructions.
    pub fn uses_matrix_unit(self) -> bool {
        self == Lowering::Mma
    }
}

/// Picks the lowering for a device × configuration pair: the matrix unit
/// whenever the device declares one *and* the group's output tile aligns to
/// its fragment shape; the scalar path otherwise. Fragment-k alignment is
/// not required — the builder zero-pads the final k-step, which is exact for
/// all three operators (padded words contribute no population count).
pub fn lowering_for(dev: &DeviceSpec, cfg: &KernelConfig) -> Lowering {
    let Some(mu) = dev.matrix_unit else {
        return Lowering::Scalar;
    };
    let geo = group_geometry(dev, cfg);
    let cols_per_group = geo.cols_per_thread * dev.n_t as usize;
    let aligned = geo.rows_per_group.is_multiple_of(mu.frag_m as usize)
        && cols_per_group.is_multiple_of(mu.frag_n as usize);
    if aligned {
        Lowering::Mma
    } else {
        Lowering::Scalar
    }
}

/// Builds the timing program one thread group executes for one
/// `m_c × n_r` tile job spanning the full shared dimension of `k_words`
/// (internally sliced into `k_c`-word A slabs, with registers carrying the
/// accumulators across slabs). Dispatches to the matrix-unit form when
/// [`lowering_for`] selects it, the scalar form otherwise.
pub fn tile_program(
    dev: &DeviceSpec,
    cfg: &KernelConfig,
    op: CompareOp,
    k_words: usize,
) -> Program {
    tile_program_with(dev, cfg, op, k_words, lowering_for(dev, cfg))
}

/// [`tile_program`] with the lowering pinned by the caller (the recovery
/// path forces [`Lowering::Scalar`] even on matrix-unit devices).
pub fn tile_program_with(
    dev: &DeviceSpec,
    cfg: &KernelConfig,
    op: CompareOp,
    k_words: usize,
    lowering: Lowering,
) -> Program {
    match lowering {
        Lowering::Scalar => tile_program_scalar(dev, cfg, op, k_words),
        Lowering::Mma => tile_program_mma(dev, cfg, op, k_words),
    }
}

/// The scalar-popcount tile program (the paper's §V kernel verbatim): one
/// logic/popc/add triple per packed word per output.
pub fn tile_program_scalar(
    dev: &DeviceSpec,
    cfg: &KernelConfig,
    op: CompareOp,
    k_words: usize,
) -> Program {
    let geo = group_geometry(dev, cfg);
    // Register map: [accumulators][temps][a vectors][b vectors][scalar]
    let n_out = geo.outputs_per_thread;
    let acc0: Reg = 0;
    let tmp0: Reg = n_out as Reg;
    let a0: Reg = (2 * n_out) as Reg;
    let b0: Reg = a0 + geo.a_loads as Reg;
    let scalar_reg: Reg = b0 + geo.b_loads as Reg;

    // One k-step body: vectorized B loads, vectorized A shared loads, then
    // the combine/popcount/accumulate triples (plus a NOT per use on devices
    // without fusion), plus loop bookkeeping.
    let mut body: Vec<Instr> = Vec::new();
    for l in 0..geo.b_loads {
        body.push(Instr::load_global(b0 + l as Reg, &[]));
    }
    for l in 0..geo.a_loads {
        // Conflict-free by construction: m_c = N_b aligns A rows to banks.
        body.push(Instr::load_shared(a0 + l as Reg, &[], 1));
    }
    let nv = dev.n_vec as usize;
    for r in 0..geo.rows_per_group {
        let areg = a0 + (r / nv) as Reg;
        for j in 0..geo.cols_per_thread {
            let breg = b0 + (j / nv) as Reg;
            let out = r * geo.cols_per_thread + j;
            let tmp = tmp0 + out as Reg;
            let acc = acc0 + out as Reg;
            match op {
                CompareOp::And | CompareOp::Xor => {
                    body.push(Instr::arith(InstrClass::Logic, tmp, &[areg, breg]));
                }
                CompareOp::AndNot => {
                    if dev.fused_andnot {
                        // LOP3-style single issue.
                        body.push(Instr::arith(InstrClass::Logic, tmp, &[areg, breg]));
                    } else {
                        body.push(Instr::arith(InstrClass::Not, tmp, &[breg]));
                        body.push(Instr::arith(InstrClass::Logic, tmp, &[areg, tmp]));
                    }
                }
            }
            body.push(Instr::arith(InstrClass::Popc, tmp, &[tmp]));
            body.push(Instr::arith(InstrClass::IntAdd, acc, &[acc, tmp]));
        }
    }
    // Loop bookkeeping: induction update + address increment.
    body.push(Instr::arith(InstrClass::Scalar, scalar_reg, &[scalar_reg]));
    body.push(Instr::arith(
        InstrClass::Scalar,
        scalar_reg + 1,
        &[scalar_reg + 1],
    ));

    // Prologue per slab: stage the A slab from global into shared memory.
    let slab_words = cfg.k_c.min(k_words.max(1));
    let stage_loads = (cfg.m_c * slab_words)
        .div_ceil(geo.groups_per_core as usize * dev.n_t as usize * nv)
        .max(1);
    let mut prologue: Vec<Instr> = Vec::with_capacity(stage_loads * 2);
    let stage0: Reg = scalar_reg + 2;
    for s in 0..stage_loads {
        prologue.push(Instr::load_global(stage0 + s as Reg, &[]));
        prologue.push(Instr::store_shared(&[stage0 + s as Reg], 1));
    }

    // Epilogue: write the register tile to global C.
    let stores = n_out.div_ceil(nv);
    let mut epilogue: Vec<Instr> = Vec::with_capacity(stores);
    for s in 0..stores {
        let first = (s * nv).min(n_out - 1) as Reg;
        epilogue.push(Instr::store_global(&[acc0 + first]));
    }

    let mut blocks = Vec::new();
    let mut remaining = k_words;
    while remaining > 0 {
        let slab = cfg.k_c.min(remaining);
        blocks.push(Block::once(prologue.clone()));
        blocks.push(Block::looped(slab as u32, body.clone()));
        remaining -= slab;
    }
    blocks.push(Block::once(epilogue));
    Program::new(blocks)
}

/// The matrix-unit tile program: the group's `rows_per_group × cols_per_group`
/// output tile is carved into `frag_m × frag_n` fragments, and the k loop
/// advances `frag_k_words` packed words per trip, each fragment consuming one
/// `mma` issue (AND+POPC or XOR+POPC with 32-bit accumulation). Loads stage
/// the same A slab and stream the same B panel as the scalar form — only the
/// arithmetic inner loop changes. The final k-step is zero-padded to the
/// fragment depth, which is exact for every operator (`popc(op(x, 0))`
/// contributes nothing for AND/XOR, and padded A words are 0 for AND-NOT).
pub fn tile_program_mma(
    dev: &DeviceSpec,
    cfg: &KernelConfig,
    op: CompareOp,
    k_words: usize,
) -> Program {
    let mu = dev
        .matrix_unit
        .expect("MMA lowering requires a device matrix unit");
    let geo = group_geometry(dev, cfg);
    let nt = dev.n_t as usize;
    let nv = dev.n_vec as usize;
    let cols_per_group = geo.cols_per_thread * nt;
    let fkw = mu.frag_k_words(dev.word_bits).max(1) as usize;
    assert!(
        geo.rows_per_group.is_multiple_of(mu.frag_m as usize)
            && cols_per_group.is_multiple_of(mu.frag_n as usize),
        "group tile {}x{cols_per_group} does not align to {}x{} fragments",
        geo.rows_per_group,
        mu.frag_m,
        mu.frag_n
    );
    let frag_rows = geo.rows_per_group / mu.frag_m as usize;
    let frag_cols = cols_per_group / mu.frag_n as usize;
    let n_frags = frag_rows * frag_cols;

    // Per-thread loads per fragment k-step: the group cooperatively fetches
    // `cols_per_group × frag_k_words` B words and `rows_per_group ×
    // frag_k_words` A words, spread over N_T threads and vector width N_vec.
    let b_loads = (cols_per_group * fkw).div_ceil(nt * nv).max(1);
    let a_loads = (geo.rows_per_group * fkw).div_ceil(nt * nv).max(1);

    // Register map: [fragment accumulators][a fragments][b fragments][scalar].
    let acc0: Reg = 0;
    let a0: Reg = n_frags as Reg;
    let b0: Reg = a0 + a_loads as Reg;
    let scalar_reg: Reg = b0 + b_loads as Reg;

    let mut body: Vec<Instr> = Vec::new();
    for l in 0..b_loads {
        body.push(Instr::load_global(b0 + l as Reg, &[]));
    }
    for l in 0..a_loads {
        // Conflict-free: fragment rows stay bank-aligned like the scalar form.
        body.push(Instr::load_shared(a0 + l as Reg, &[], 1));
    }
    if op == CompareOp::AndNot && !dev.fused_andnot {
        // Without a fused form the B fragment is negated once per load —
        // off the matrix pipe, charged to the NOT pipeline.
        for l in 0..b_loads {
            body.push(Instr::arith(
                InstrClass::Not,
                b0 + l as Reg,
                &[b0 + l as Reg],
            ));
        }
    }
    for f in 0..n_frags {
        let fr = f / frag_cols;
        let fc = f % frag_cols;
        let areg = a0 + (fr * a_loads / frag_rows) as Reg;
        let breg = b0 + (fc * b_loads / frag_cols) as Reg;
        let acc = acc0 + f as Reg;
        // Loop-carried accumulation: the fragment op reads and writes its
        // own accumulator, so fragments are independent of each other.
        body.push(Instr::arith(InstrClass::Mma, acc, &[areg, breg, acc]));
    }
    body.push(Instr::arith(InstrClass::Scalar, scalar_reg, &[scalar_reg]));
    body.push(Instr::arith(
        InstrClass::Scalar,
        scalar_reg + 1,
        &[scalar_reg + 1],
    ));

    // Prologue per slab: identical A staging to the scalar form.
    let slab_words = cfg.k_c.min(k_words.max(1));
    let stage_loads = (cfg.m_c * slab_words)
        .div_ceil(geo.groups_per_core as usize * nt * nv)
        .max(1);
    let mut prologue: Vec<Instr> = Vec::with_capacity(stage_loads * 2);
    let stage0: Reg = scalar_reg + 2;
    for s in 0..stage_loads {
        prologue.push(Instr::load_global(stage0 + s as Reg, &[]));
        prologue.push(Instr::store_shared(&[stage0 + s as Reg], 1));
    }

    // Epilogue: the same per-thread output volume as the scalar form, read
    // out of the fragment accumulators.
    let stores = geo.outputs_per_thread.div_ceil(nv);
    let mut epilogue: Vec<Instr> = Vec::with_capacity(stores);
    for s in 0..stores {
        epilogue.push(Instr::store_global(&[acc0 + (s % n_frags) as Reg]));
    }

    let mut blocks = Vec::new();
    let mut remaining = k_words;
    while remaining > 0 {
        let slab = cfg.k_c.min(remaining);
        blocks.push(Block::once(prologue.clone()));
        blocks.push(Block::looped(slab.div_ceil(fkw) as u32, body.clone()));
        remaining -= slab;
    }
    blocks.push(Block::once(epilogue));
    Program::new(blocks)
}

/// Cache key for the per-job cycle estimate of a tile program.
///
/// [`tile_program`] and the group geometry are pure functions of
/// `(dev, cfg, op, k_words)`, so this key is computable *without* building
/// the program — on a cache hit [`KernelPlan::new`] skips both program
/// construction and the critical-path walk. That is the hot path of
/// configuration sweeps and multi-pass launches, where thousands of plans
/// share a handful of distinct tile programs.
fn plan_timing_key(
    dev: &DeviceSpec,
    cfg: &KernelConfig,
    op: CompareOp,
    k_words: usize,
    lowering: Lowering,
) -> u64 {
    let mut h = DefaultHasher::new();
    "snp-core::kernel::plan".hash(&mut h);
    device_fingerprint(dev).hash(&mut h);
    // KernelConfig cannot derive Hash workspace-wide; its fields are ints.
    (cfg.m_c, cfg.m_r, cfg.k_c, cfg.n_r).hash(&mut h);
    (cfg.grid_m, cfg.grid_n, cfg.groups_per_cluster).hash(&mut h);
    (op, k_words, lowering).hash(&mut h);
    h.finish()
}

/// A fully planned kernel launch for one pass of `m_pass × n_pass` outputs
/// over `k_words` shared words.
#[derive(Debug, Clone)]
pub struct KernelPlan {
    /// The configuration in force.
    pub config: KernelConfig,
    /// The word operator.
    pub op: CompareOp,
    /// Tile jobs each core executes.
    pub jobs_per_core: u64,
    /// Cores with work.
    pub active_cores: u32,
    /// Estimated cycles per core.
    pub core_cycles: f64,
    /// Global traffic of the pass.
    pub traffic: Traffic,
    /// Logical word-ops of the pass (throughput denominator).
    pub word_ops: u128,
    /// Resident thread groups per core.
    pub groups_per_core: u32,
    /// How the inner product was lowered (matrix unit vs scalar popcount).
    pub lowering: Lowering,
}

impl KernelPlan {
    /// Plans a pass: distributes `tiles_m × tiles_n` tile jobs over the
    /// configured core grid and prices each job with the tile program's
    /// static critical path ([`critical_path`]) at the configured occupancy.
    pub fn new(
        dev: &DeviceSpec,
        cfg: &KernelConfig,
        op: CompareOp,
        m_pass: usize,
        n_pass: usize,
        k_words: usize,
    ) -> KernelPlan {
        Self::with_lowering(
            dev,
            cfg,
            op,
            m_pass,
            n_pass,
            k_words,
            lowering_for(dev, cfg),
        )
    }

    /// [`KernelPlan::new`] with the lowering pinned by the caller. The
    /// recovery path uses this to force the scalar-popcount plan on
    /// matrix-unit devices after a matrix-path fault.
    pub fn with_lowering(
        dev: &DeviceSpec,
        cfg: &KernelConfig,
        op: CompareOp,
        m_pass: usize,
        n_pass: usize,
        k_words: usize,
        lowering: Lowering,
    ) -> KernelPlan {
        assert!(
            m_pass > 0 && n_pass > 0 && k_words > 0,
            "pass must be non-empty"
        );
        let geo = group_geometry(dev, cfg);
        let tiles_m = m_pass.div_ceil(cfg.m_c) as u64;
        let tiles_n = n_pass.div_ceil(cfg.n_r) as u64;
        let grid_m = (cfg.grid_m as u64).min(tiles_m).max(1);
        let grid_n = (cfg.grid_n as u64).min(tiles_n).max(1);
        let jobs_per_core = tiles_m.div_ceil(grid_m) * tiles_n.div_ceil(grid_n);
        let per_job =
            memoized_core_cycles(plan_timing_key(dev, cfg, op, k_words, lowering), || {
                let program = tile_program_with(dev, cfg, op, k_words, lowering);
                critical_path(dev, &program)
                    .predicted_core_cycles(dev.n_clusters, geo.groups_per_core)
            });
        let kw = k_words as u64;
        let traffic = Traffic {
            read_bytes: tiles_m * tiles_n * (cfg.m_c as u64 + cfg.n_r as u64) * kw * 4,
            write_bytes: (m_pass as u64) * (n_pass as u64) * 4,
        };
        KernelPlan {
            config: *cfg,
            op,
            jobs_per_core,
            active_cores: (grid_m * grid_n) as u32,
            core_cycles: per_job * jobs_per_core as f64,
            traffic,
            word_ops: m_pass as u128 * n_pass as u128 * k_words as u128,
            groups_per_core: geo.groups_per_core,
            lowering,
        }
    }

    /// The host-API cost descriptor for this plan.
    pub fn cost(&self) -> KernelCost {
        KernelCost::Analytic {
            core_cycles: self.core_cycles,
            active_cores: self.active_cores,
            traffic: self.traffic,
        }
    }

    /// The modeled kernel wall time on `dev`.
    pub fn time(&self, dev: &DeviceSpec) -> KernelTime {
        kernel_time(dev, self.core_cycles, self.active_cores, self.traffic)
    }

    /// Achieved throughput in word-ops per second for a given kernel time.
    pub fn achieved_word_ops_per_sec(&self, total_ns: f64) -> f64 {
        self.word_ops as f64 / (total_ns * 1e-9)
    }

    /// The flat fact sheet the `snp-verify` kernel linter consumes:
    /// regenerates the tile program and pairs it with the plan's declared
    /// cost and word-op totals.
    pub fn facts(&self, dev: &DeviceSpec, k_words: usize) -> snp_verify::PlanFacts {
        snp_verify::PlanFacts {
            program: tile_program_with(dev, &self.config, self.op, k_words, self.lowering),
            groups_per_core: self.groups_per_core,
            core_cycles: self.core_cycles,
            active_cores: self.active_cores,
            word_ops: self.word_ops as f64,
            op_kind: match self.op {
                CompareOp::And => snp_gpu_model::WordOpKind::And,
                CompareOp::Xor => snp_gpu_model::WordOpKind::Xor,
                CompareOp::AndNot => snp_gpu_model::WordOpKind::AndNot,
            },
            uses_matrix_unit: self.lowering.uses_matrix_unit(),
        }
    }
}

/// Functional execution of one pass on device word buffers: computes
/// `c[i·n + j] = Σ_k popc(op(a[i·k_words + k], b[j·k_words + k]))` for the
/// `m × n` output block, in parallel over rows. Overwrites `c`.
pub fn execute_gamma(
    op: CompareOp,
    a: &[u32],
    b: &[u32],
    c: &mut [u32],
    m: usize,
    n: usize,
    k_words: usize,
) {
    assert!(
        a.len() >= m * k_words,
        "A buffer too small: {} < {}",
        a.len(),
        m * k_words
    );
    assert!(
        b.len() >= n * k_words,
        "B buffer too small: {} < {}",
        b.len(),
        n * k_words
    );
    assert!(
        c.len() >= m * n,
        "C buffer too small: {} < {}",
        c.len(),
        m * n
    );
    c[..m * n]
        .par_chunks_mut(n.max(1))
        .enumerate()
        .for_each(|(i, row)| {
            let ar = &a[i * k_words..(i + 1) * k_words];
            for (j, out) in row.iter_mut().enumerate() {
                let br = &b[j * k_words..(j + 1) * k_words];
                *out = dot_u32(op, ar, br);
            }
        });
}

/// Functional execution of one pass in the matrix unit's evaluation order:
/// the output is carved into `frag_m × frag_n` fragments and the shared
/// dimension advances `frag_k_words` at a time, accumulating each fragment's
/// 32-bit counters exactly as the `mma` instruction would. Popcount sums are
/// associative and commutative over `u32`, so the result is bit-identical to
/// [`execute_gamma`] — that equivalence is the MMA plan's correctness oracle.
/// Ragged edges (outputs or k not multiples of the fragment shape) are
/// handled as zero-padded partial fragments. Overwrites `c`.
#[allow(clippy::too_many_arguments)] // mirrors `execute_gamma`'s signature plus the fragment spec
pub fn execute_gamma_mma(
    frag: &MatrixUnitSpec,
    op: CompareOp,
    a: &[u32],
    b: &[u32],
    c: &mut [u32],
    m: usize,
    n: usize,
    k_words: usize,
) {
    assert!(a.len() >= m * k_words, "A buffer too small");
    assert!(b.len() >= n * k_words, "B buffer too small");
    assert!(c.len() >= m * n, "C buffer too small");
    let fm = (frag.frag_m as usize).max(1);
    let fn_ = (frag.frag_n as usize).max(1);
    let fk = ((frag.frag_k_bits / 32) as usize).max(1);
    c[..m * n]
        .par_chunks_mut((n * fm).max(1))
        .enumerate()
        .for_each(|(band, cband)| {
            let i0 = band * fm;
            let rows = cband.len() / n.max(1);
            cband.fill(0);
            for k0 in (0..k_words).step_by(fk) {
                let k_end = (k0 + fk).min(k_words);
                for j0 in (0..n).step_by(fn_) {
                    let j_end = (j0 + fn_).min(n);
                    // One fragment op: an outer-product popcount accumulate
                    // over the fragment's k-depth.
                    for i in 0..rows {
                        let ar = &a[(i0 + i) * k_words..(i0 + i) * k_words + k_end];
                        for j in j0..j_end {
                            let br = &b[j * k_words..j * k_words + k_end];
                            let mut t = 0u32;
                            for k in k0..k_end {
                                t += op.combine(ar[k], br[k]).count_ones();
                            }
                            cband[i * n + j] += t;
                        }
                    }
                }
            }
        });
}

/// Popcount dot product over `u32` words, internally pairing words into
/// `u64` popcounts (bitwise ops distribute over concatenation).
#[inline]
fn dot_u32(op: CompareOp, a: &[u32], b: &[u32]) -> u32 {
    let mut acc = 0u32;
    let mut ia = a.chunks_exact(2);
    let mut ib = b.chunks_exact(2);
    for (ca, cb) in (&mut ia).zip(&mut ib) {
        let wa = ca[0] as u64 | (ca[1] as u64) << 32;
        let wb = cb[0] as u64 | (cb[1] as u64) << 32;
        acc += op.combine(wa, wb).count_ones();
    }
    for (&wa, &wb) in ia.remainder().iter().zip(ib.remainder()) {
        acc += op.combine(wa, wb).count_ones();
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autoconf::config_for;
    use snp_bitmat::{reference_gamma, BitMatrix};
    use snp_gpu_model::config::{Algorithm, ProblemShape};
    use snp_gpu_model::peak::peak;
    use snp_gpu_model::{devices, WordOpKind};

    fn ld_cfg(dev: &DeviceSpec) -> KernelConfig {
        config_for(
            dev,
            Algorithm::LinkageDisequilibrium,
            ProblemShape {
                m: 10_000,
                n: 10_000,
                k_words: 1000,
            },
        )
    }

    #[test]
    fn geometry_matches_hand_calculation() {
        // GTX 980 LD: groups 24, v = 384/(6*32) = 2, outputs 16, R = 8.
        let dev = devices::gtx_980();
        let geo = group_geometry(&dev, &ld_cfg(&dev));
        assert_eq!(geo.groups_per_core, 24);
        assert_eq!(geo.cols_per_thread, 2);
        assert_eq!(geo.outputs_per_thread, 16);
        assert_eq!(geo.rows_per_group, 8);
        assert_eq!(geo.b_loads, 1);
        assert_eq!(geo.a_loads, 2);
        // Titan V: groups 16, v = 1024/(4*32) = 8, outputs 64, R = 8.
        let t = devices::titan_v();
        let geo = group_geometry(&t, &ld_cfg(&t));
        assert_eq!(
            (
                geo.groups_per_core,
                geo.cols_per_thread,
                geo.outputs_per_thread
            ),
            (16, 8, 64)
        );
        // Vega: groups 16, v = 1024/(4*64) = 4, outputs 32.
        let v = devices::vega_64();
        let geo = group_geometry(&v, &ld_cfg(&v));
        assert_eq!(
            (
                geo.groups_per_core,
                geo.cols_per_thread,
                geo.outputs_per_thread
            ),
            (16, 4, 32)
        );
    }

    #[test]
    fn tile_program_structure() {
        let dev = devices::gtx_980();
        let cfg = ld_cfg(&dev);
        let prog = tile_program(&dev, &cfg, CompareOp::And, 800);
        // 800 words -> slabs of 383, 383, 34: three (prologue, body) pairs + epilogue.
        assert_eq!(prog.blocks.len(), 7);
        assert_eq!(prog.blocks[1].trips, 383);
        assert_eq!(prog.blocks[5].trips, 34);
        // Body instruction mix for AND: 1 B load + 2 A loads + 16*(logic,popc,add) + 2 scalar.
        let body = &prog.blocks[1].instrs;
        let count = |c: InstrClass| body.iter().filter(|i| i.class == c).count();
        assert_eq!(count(InstrClass::LoadGlobal), 1);
        assert_eq!(count(InstrClass::LoadShared), 2);
        assert_eq!(count(InstrClass::Logic), 16);
        assert_eq!(count(InstrClass::Popc), 16);
        assert_eq!(count(InstrClass::IntAdd), 16);
        assert_eq!(count(InstrClass::Scalar), 2);
        assert_eq!(count(InstrClass::Not), 0);
    }

    #[test]
    fn andnot_adds_nots_only_without_fusion() {
        let k = 100;
        let gtx = devices::gtx_980();
        let p_and = tile_program(&gtx, &ld_cfg(&gtx), CompareOp::And, k);
        let p_an = tile_program(&gtx, &ld_cfg(&gtx), CompareOp::AndNot, k);
        assert_eq!(
            p_and.dynamic_instrs(),
            p_an.dynamic_instrs(),
            "fused AND-NOT is free"
        );
        let vega = devices::vega_64();
        let v_and = tile_program(&vega, &ld_cfg(&vega), CompareOp::And, k);
        let v_an = tile_program(&vega, &ld_cfg(&vega), CompareOp::AndNot, k);
        assert!(
            v_an.dynamic_instrs() > v_and.dynamic_instrs(),
            "explicit NOT costs issues"
        );
    }

    #[test]
    fn single_core_tile_approaches_peak() {
        // The per-tile cycle estimate should put the kernel near the
        // device's theoretical peak (this is Fig. 5's mechanism before
        // multi-core scaling effects).
        for dev in [devices::gtx_980(), devices::titan_v(), devices::vega_64()] {
            let cfg = ld_cfg(&dev);
            let k = 2 * cfg.k_c; // two full slabs
            let plan = KernelPlan::new(&dev, &cfg, CompareOp::And, cfg.m_c, cfg.n_r, k);
            assert_eq!(plan.jobs_per_core, 1);
            assert_eq!(plan.active_cores, 1);
            let word_ops = (cfg.m_c * cfg.n_r * k) as f64;
            let rate = word_ops / plan.core_cycles; // word-ops per cycle per core
            let peak_rate =
                peak(&dev, WordOpKind::And).word_ops_per_cycle_per_cluster * dev.n_clusters as f64;
            let frac = rate / peak_rate;
            assert!(
                frac > 0.85 && frac <= 1.0,
                "{}: single-tile efficiency {frac:.3} (rate {rate:.1} vs peak {peak_rate:.1})",
                dev.name
            );
        }
    }

    #[test]
    fn plan_distributes_jobs_over_grid() {
        let dev = devices::titan_v();
        let cfg = ld_cfg(&dev); // grid 80x1
        let plan = KernelPlan::new(&dev, &cfg, CompareOp::And, 12_800, 4096, 383);
        // tiles_m = 400, tiles_n = 4; jobs = ceil(400/80) * 4 = 20.
        assert_eq!(plan.active_cores, 80);
        assert_eq!(plan.jobs_per_core, 20);
        assert!(plan.traffic.write_bytes == 12_800 * 4096 * 4);
    }

    #[test]
    fn plan_shrinks_grid_for_small_problems() {
        let dev = devices::titan_v();
        let cfg = ld_cfg(&dev);
        let plan = KernelPlan::new(&dev, &cfg, CompareOp::And, 32, 1024, 64);
        assert_eq!(plan.active_cores, 1); // 1 m-tile, 1 n-tile
        assert_eq!(plan.jobs_per_core, 1);
    }

    #[test]
    fn execute_gamma_matches_reference() {
        let a64 = BitMatrix::<u64>::from_fn(13, 300, |r, c| (r * 7 + c * 3) % 5 == 0);
        let b64 = BitMatrix::<u64>::from_fn(9, 300, |r, c| (r * 11 + c) % 4 == 0);
        let a32: BitMatrix<u32> = a64.convert();
        let b32: BitMatrix<u32> = b64.convert();
        let k = a32.words_per_row();
        for op in CompareOp::ALL {
            let mut c = vec![0u32; 13 * 9];
            execute_gamma(op, a32.words(), b32.words(), &mut c, 13, 9, k);
            let want = reference_gamma(&a64, &b64, op);
            for i in 0..13 {
                for j in 0..9 {
                    assert_eq!(c[i * 9 + j], want.get(i, j), "op {op} at ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn dot_u32_odd_lengths() {
        // Exercise the chunks_exact remainder path.
        let a = [u32::MAX, 0, 0b1011];
        let b = [u32::MAX, u32::MAX, 0b0110];
        assert_eq!(dot_u32(CompareOp::And, &a, &b), 32 + 1);
        assert_eq!(dot_u32(CompareOp::Xor, &a, &b), 32 + 3);
    }

    #[test]
    fn plan_timing_is_memoized_and_matches_oracle() {
        use snp_gpu_sim::macro_engine::timing_cache_stats;
        let dev = devices::gtx_980();
        let cfg = ld_cfg(&dev);
        let k = 977; // unique to this test so the priming call is a miss
        let p1 = KernelPlan::new(&dev, &cfg, CompareOp::Xor, 999, 777, k);
        let before = timing_cache_stats();
        // Different pass shape, same tile program: answered from the cache.
        let p2 = KernelPlan::new(&dev, &cfg, CompareOp::Xor, 4321, 55, k);
        let after = timing_cache_stats();
        assert!(
            after.hits > before.hits,
            "expected a cache hit: {before:?} -> {after:?}"
        );
        // The memoized per-job cycles equal a fresh critical-path walk.
        let program = tile_program(&dev, &cfg, CompareOp::Xor, k);
        let per_job =
            critical_path(&dev, &program).predicted_core_cycles(dev.n_clusters, p1.groups_per_core);
        assert_eq!(p1.core_cycles, per_job * p1.jobs_per_core as f64);
        assert_eq!(p2.core_cycles, per_job * p2.jobs_per_core as f64);
    }

    #[test]
    fn plan_timing_key_separates_structures() {
        let gtx = devices::gtx_980();
        let cfg = ld_cfg(&gtx);
        let (op, k, lowering) = (CompareOp::And, 64, Lowering::Scalar);
        let base = plan_timing_key(&gtx, &cfg, op, k, lowering);
        let same = plan_timing_key(&gtx, &ld_cfg(&gtx), op, k, lowering);
        assert_eq!(base, same, "keys are deterministic");
        let edited = |edit: fn(&mut KernelConfig)| {
            let mut other = cfg;
            edit(&mut other);
            plan_timing_key(&gtx, &other, op, k, lowering)
        };
        let titan = devices::titan_v();
        for (what, key) in [
            ("device", plan_timing_key(&titan, &cfg, op, k, lowering)),
            ("m_c", edited(|c| c.m_c += 1)),
            ("m_r", edited(|c| c.m_r += 1)),
            ("k_c", edited(|c| c.k_c += 1)),
            ("n_r", edited(|c| c.n_r += 1)),
            ("grid_m", edited(|c| c.grid_m += 1)),
            ("grid_n", edited(|c| c.grid_n += 1)),
            ("groups_per_cluster", edited(|c| c.groups_per_cluster += 1)),
            (
                "op",
                plan_timing_key(&gtx, &cfg, CompareOp::Xor, k, lowering),
            ),
            ("k_words", plan_timing_key(&gtx, &cfg, op, k + 1, lowering)),
            (
                "lowering",
                plan_timing_key(&gtx, &cfg, op, k, Lowering::Mma),
            ),
        ] {
            assert_ne!(base, key, "{what} must be keyed");
        }
    }

    #[test]
    #[should_panic(expected = "pass must be non-empty")]
    fn empty_pass_rejected() {
        let dev = devices::gtx_980();
        let cfg = ld_cfg(&dev);
        let _ = KernelPlan::new(&dev, &cfg, CompareOp::And, 0, 10, 10);
    }

    #[test]
    fn lowering_picks_mma_only_on_aligned_matrix_unit_tiles() {
        let t = devices::tc100();
        let cfg = ld_cfg(&t);
        assert_eq!(lowering_for(&t, &cfg), Lowering::Mma);
        // Devices without a matrix unit always lower to scalar popcount.
        for dev in [devices::gtx_980(), devices::titan_v(), devices::vega_64()] {
            assert_eq!(lowering_for(&dev, &ld_cfg(&dev)), Lowering::Scalar);
        }
        // A register tile whose rows per group fall below frag_m falls back.
        let mut bad = cfg;
        bad.m_c = 4; // rows_per_group = 1 < frag_m = 8
        assert_eq!(lowering_for(&t, &bad), Lowering::Scalar);
    }

    #[test]
    fn mma_tile_program_structure() {
        // TC100 LD: cols/group 512, rows/group 8, frag_k_words 4. Per k-trip:
        // 16 B-fragment loads, 1 A-fragment load, (8/8)*(512/8) = 64 mma, 2 scalar.
        let dev = devices::tc100();
        let cfg = ld_cfg(&dev);
        let prog = tile_program(&dev, &cfg, CompareOp::And, 800);
        // Slabs of 383, 383, 34 words step by 4-word fragments: 96, 96, 9 trips.
        assert_eq!(prog.blocks.len(), 7);
        assert_eq!(prog.blocks[1].trips, 96);
        assert_eq!(prog.blocks[5].trips, 9);
        let body = &prog.blocks[1].instrs;
        let count = |c: InstrClass| body.iter().filter(|i| i.class == c).count();
        assert_eq!(count(InstrClass::LoadGlobal), 16);
        assert_eq!(count(InstrClass::LoadShared), 1);
        assert_eq!(count(InstrClass::Mma), 64);
        assert_eq!(count(InstrClass::Scalar), 2);
        // The scalar inner-product classes are gone from the inner loop.
        assert_eq!(count(InstrClass::Logic), 0);
        assert_eq!(count(InstrClass::Popc), 0);
        assert_eq!(count(InstrClass::IntAdd), 0);
        // Fused AND-NOT needs no explicit NOT on TC100.
        let an = tile_program(&dev, &cfg, CompareOp::AndNot, 800);
        assert_eq!(an.dynamic_instrs(), prog.dynamic_instrs());
    }

    #[test]
    fn single_core_mma_tile_approaches_matrix_unit_peak() {
        use snp_gpu_model::peak::matrix_unit_peak;
        let dev = devices::tc100();
        let cfg = ld_cfg(&dev);
        let k = 2 * cfg.k_c;
        let plan = KernelPlan::new(&dev, &cfg, CompareOp::And, cfg.m_c, cfg.n_r, k);
        assert_eq!(plan.lowering, Lowering::Mma);
        assert_eq!((plan.jobs_per_core, plan.active_cores), (1, 1));
        let word_ops = (cfg.m_c * cfg.n_r * k) as f64;
        let rate = word_ops / plan.core_cycles;
        let peak_rate = matrix_unit_peak(&dev, WordOpKind::And)
            .unwrap()
            .word_ops_per_cycle_per_cluster
            * dev.n_clusters as f64;
        let frac = rate / peak_rate;
        assert!(
            frac > 0.85 && frac <= 1.0,
            "TC100 mma single-tile efficiency {frac:.3} (rate {rate:.1} vs peak {peak_rate:.1})"
        );
    }

    #[test]
    fn mma_plan_is_faster_than_the_scalar_oracle_plan() {
        let dev = devices::tc100();
        let cfg = ld_cfg(&dev);
        let mma = KernelPlan::new(&dev, &cfg, CompareOp::Xor, cfg.m_c, cfg.n_r, 766);
        let scalar = KernelPlan::with_lowering(
            &dev,
            &cfg,
            CompareOp::Xor,
            cfg.m_c,
            cfg.n_r,
            766,
            Lowering::Scalar,
        );
        assert_eq!(scalar.lowering, Lowering::Scalar);
        assert!(
            mma.core_cycles * 3.0 < scalar.core_cycles,
            "mma {} vs scalar {} cycles",
            mma.core_cycles,
            scalar.core_cycles
        );
    }

    #[test]
    fn execute_gamma_mma_matches_scalar_executor() {
        let frag = devices::tc100().matrix_unit.unwrap();
        // Ragged shapes: m, n not multiples of the fragment, k not of frag_k_words.
        for (m, n, k) in [(13, 9, 10), (8, 8, 4), (17, 23, 7), (1, 1, 1)] {
            let a: Vec<u32> = (0..m * k)
                .map(|i| (i as u32).wrapping_mul(2654435769))
                .collect();
            let b: Vec<u32> = (0..n * k)
                .map(|i| (i as u32).wrapping_mul(40503) ^ 0xA5A5)
                .collect();
            for op in CompareOp::ALL {
                let mut want = vec![0u32; m * n];
                let mut got = vec![0u32; m * n];
                execute_gamma(op, &a, &b, &mut want, m, n, k);
                execute_gamma_mma(&frag, op, &a, &b, &mut got, m, n, k);
                assert_eq!(got, want, "op {op} shape {m}x{n}x{k}");
            }
        }
    }
}
