//! # snp-gpu-sim — simulator for the paper's model GPU architecture
//!
//! No GPU hardware is assumed anywhere in this workspace: this crate stands
//! in for the three physical GPUs of the paper's evaluation by *simulating
//! the paper's own model architecture* (§IV-A) — the abstraction every
//! analytical result in the paper is expressed against. See DESIGN.md §1
//! for why this substitution preserves the evaluated behaviour.
//!
//! Four layers:
//!
//! * [`isa`] — a timing ISA: instructions carry a pipeline class, register
//!   dependencies and a bank-conflict degree; programs are loop nests.
//! * [`detailed`] — a cycle-stepped engine for one compute core
//!   (scoreboarded thread groups, pipeline issue/latency, bank-conflict
//!   serialization). Powers the §V-C/V-D microbenchmarks and validates the
//!   static model.
//! * [`macro_engine`] — the one static timing model for full-size launches:
//!   a latency-weighted critical-path walk of the program
//!   ([`critical_path`]; issue-bound vs latency-bound per block), then the
//!   bandwidth bound and core-scaling efficiency.
//! * [`host`] — an OpenCL-like host API: devices with allocation limits,
//!   in-order queues, events with profiling timestamps, link/compute
//!   resource serialization (which is what makes double buffering overlap),
//!   and functional kernels over real `u32` buffers.
//!
//! ```
//! use snp_gpu_sim::host::{Gpu, KernelCost};
//! use snp_gpu_sim::macro_engine::Traffic;
//! use snp_gpu_model::devices;
//!
//! let gpu = Gpu::new(devices::titan_v());
//! let q = gpu.create_queue();
//! let buf = gpu.create_buffer(4).unwrap();
//! let cost = KernelCost { core_cycles: 1e6, active_cores: 80, traffic: Traffic::default() };
//! let ev = gpu.enqueue_kernel(q, &cost, &[], buf, &[], |_, out| out[0] = 42).unwrap();
//! gpu.finish_all();
//! let mut out = [0u32; 1];
//! let _ = gpu.enqueue_read(q, buf, 0, &mut out, &[], true).unwrap();
//! assert_eq!(out[0], 42);
//! assert!(gpu.event_profile(ev).unwrap().duration_ns() > 0);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod detailed;
pub mod host;
pub mod isa;
pub mod macro_engine;
pub mod profile;

pub use cache::{analyze as analyze_memory, l2_bytes_for, MemoryAnalysis};
pub use detailed::{simulate_core, simulate_core_width, DetailedResult, SimLimit};
pub use host::{
    BufferId, BufferRange, CommandKind, CommandLog, CommandRecord, CostScale, EventId,
    EventProfile, Gpu, KernelCost, QueueId, SimError,
};
pub use isa::{Block, Instr, Program, Reg};
pub use macro_engine::{
    critical_path, device_fingerprint, kernel_time, memoized_core_cycles, pipeline_issue_cycles,
    supports_program, timing_cache_stats, BlockPath, CritPath, KernelTime, TimingCacheStats,
    Traffic,
};
pub use profile::{program_counters, ProgramCounters};
pub use snp_faults::{
    checksum_words, DeviceFault, FaultKind, FaultOp, FaultPlan, FaultProfile, FaultStats, Injection,
};
