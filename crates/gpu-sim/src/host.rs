//! The OpenCL-like host API of the simulated GPU.
//!
//! Mirrors the host-side object model the paper's framework is written
//! against (§V): a device is opened (paying the runtime-initialization cost
//! of "hundreds of milliseconds", §VI-B), buffers are allocated against the
//! device's global-memory and max-allocation limits (Table I), commands are
//! enqueued on in-order command queues, and every command yields an event
//! with OpenCL-style profiling timestamps (the paper uses event profiling
//! for kernel times and the host clock for end-to-end times, §VI-A-1).
//!
//! Timing is fully virtual and deterministic. Two device-side resources
//! serialize commands across queues — the host↔device link (one transfer at
//! a time) and the compute engine (one kernel at a time) — which is exactly
//! what makes double buffering on two queues overlap transfer with compute.
//!
//! Functionally, buffers hold real `u32` words and kernels run real Rust
//! closures, so simulated results are bit-exact and are validated against
//! the scalar reference throughout the workspace.

use std::cell::RefCell;

use snp_faults::{checksum_words, DeviceFault, FaultOp, FaultPlan, FaultStats, Injection};
use snp_gpu_model::DeviceSpec;
use snp_trace::{TimeDomain, Tracer, TrackId};

use crate::detailed::simulate_core;
use crate::isa::Program;
use crate::macro_engine::{kernel_time, KernelTime, Traffic};
use crate::profile::{KernelProfile, ProfileEngine};

/// Handle to a device buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferId(usize);

impl BufferId {
    /// Stable zero-based index of this buffer (for diagnostics and logs).
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Handle to an in-order command queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueueId(usize);

impl QueueId {
    /// Stable zero-based index of this queue.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Handle to a command event.
///
/// Dropping an `EventId` silently severs the dependency chain it was meant
/// to carry — exactly the class of bug the command-DAG verifier exists to
/// catch — so discarding one is a compile-time warning.
#[must_use = "an unused EventId cannot order later commands or be profiled"]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(usize);

impl EventId {
    /// Stable zero-based index of this event.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// OpenCL-style event profiling timestamps, in virtual nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventProfile {
    /// When the host enqueued the command.
    pub queued_ns: u64,
    /// When the command was submitted to the device (== queued here).
    pub submit_ns: u64,
    /// When execution began.
    pub start_ns: u64,
    /// When execution finished.
    pub end_ns: u64,
}

impl EventProfile {
    /// Execution duration (`end - start`) — what `CL_PROFILING_COMMAND_START/END`
    /// subtraction gives the paper's kernel measurements.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// How a kernel's duration is modeled.
#[derive(Debug, Clone)]
pub enum KernelCost {
    /// Cycles per core were computed statically (typically the tile
    /// program's critical path, [`crate::critical_path`]).
    Analytic {
        /// Cycles one core spends (all active cores do equal work).
        core_cycles: f64,
        /// Concurrently active compute cores.
        active_cores: u32,
        /// Global-memory traffic for the bandwidth bound.
        traffic: Traffic,
    },
    /// Run the detailed engine on the per-core program (small launches and
    /// microbenchmarks).
    Detailed {
        /// The per-core thread-group program.
        program: Program,
        /// Resident thread groups per core.
        groups_per_core: u32,
        /// Concurrently active compute cores.
        active_cores: u32,
        /// Global-memory traffic for the bandwidth bound.
        traffic: Traffic,
    },
}

/// Errors surfaced by the host API.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A single allocation exceeded `CL_DEVICE_MAX_MEM_ALLOC_SIZE`.
    AllocTooLarge {
        /// Requested bytes.
        requested: u64,
        /// The device limit.
        limit: u64,
    },
    /// The device's global memory is exhausted.
    OutOfDeviceMemory {
        /// Requested bytes.
        requested: u64,
        /// Bytes still available.
        available: u64,
    },
    /// A handle referred to a released or foreign object.
    InvalidHandle(&'static str),
    /// A transfer or kernel argument range fell outside its buffer.
    OutOfRange {
        /// Description of the access.
        what: &'static str,
    },
    /// The detailed engine exceeded its cycle budget.
    DetailedBudget,
    /// The command-DAG verifier found an ordering hazard in the enqueued
    /// stream (see `snp-verify`); the payload is the rendered report.
    Hazard(String),
    /// An injected device fault (see `snp-faults`): the runtime rejected or
    /// aborted the command. The payload is the `source()` of this error.
    DeviceFault(DeviceFault),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::AllocTooLarge { requested, limit } => {
                write!(
                    f,
                    "allocation of {requested} B exceeds the device max of {limit} B"
                )
            }
            SimError::OutOfDeviceMemory {
                requested,
                available,
            } => {
                write!(
                    f,
                    "allocation of {requested} B exceeds remaining device memory ({available} B)"
                )
            }
            SimError::InvalidHandle(what) => write!(f, "invalid {what} handle"),
            SimError::OutOfRange { what } => write!(f, "{what} out of buffer range"),
            SimError::DetailedBudget => write!(f, "detailed simulation budget exceeded"),
            SimError::Hazard(report) => write!(f, "command-stream hazard: {report}"),
            SimError::DeviceFault(fault) => write!(f, "device fault: {fault}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::DeviceFault(fault) => Some(fault),
            _ => None,
        }
    }
}

/// What kind of command a [`CommandRecord`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandKind {
    /// Host→device transfer (functional or virtual).
    Write,
    /// Device→host transfer (functional or virtual).
    Read,
    /// Kernel launch (functional or timing-only).
    Kernel,
}

/// A half-open word range `[lo, hi)` of one device buffer touched by a
/// command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferRange {
    /// The buffer.
    pub buffer: BufferId,
    /// First word touched.
    pub lo: usize,
    /// One past the last word touched.
    pub hi: usize,
}

impl BufferRange {
    /// Whether two ranges touch at least one common word of one buffer.
    pub fn overlaps(&self, other: &BufferRange) -> bool {
        self.buffer == other.buffer && self.lo < other.hi && other.lo < self.hi
    }
}

/// One enqueued command as the host observed it: what it was, where it ran,
/// what it waited on, and which buffer ranges it read and wrote. The
/// record's position in [`CommandLog::commands`] equals its event index —
/// every command yields exactly one event, in enqueue order.
#[derive(Debug, Clone)]
pub struct CommandRecord {
    /// Command kind.
    pub kind: CommandKind,
    /// The in-order queue it was enqueued on.
    pub queue: QueueId,
    /// The event the enqueue returned.
    pub event: EventId,
    /// The explicit wait-list passed at enqueue.
    pub deps: Vec<EventId>,
    /// Buffer ranges the command reads.
    pub reads: Vec<BufferRange>,
    /// Buffer ranges the command writes.
    pub writes: Vec<BufferRange>,
    /// The command's virtual-time profile.
    pub profile: EventProfile,
}

/// Everything a device enqueued, in order — the input to `snp-verify`'s
/// command-DAG race detector. Obtained from [`Gpu::command_log`].
#[derive(Debug, Clone, Default)]
pub struct CommandLog {
    /// Commands in enqueue order (index == event index).
    pub commands: Vec<CommandRecord>,
    /// Number of queues that existed when the log was taken.
    pub queue_count: usize,
    /// Per event: whether the host ever queried its profile
    /// ([`Gpu::event_profile`]). Feeds the unused-event diagnostic.
    pub profiled: Vec<bool>,
}

#[derive(Debug)]
struct BufferSlot {
    /// `None` for *virtual* buffers: device capacity is reserved and timed,
    /// but no host memory backs the words (timing-only runs at NDIS scale
    /// would otherwise need gigabytes of host RAM).
    words: Option<Vec<u32>>,
    len_words: usize,
}

#[derive(Debug, Clone, Copy)]
struct EventRecord {
    profile: EventProfile,
}

#[derive(Debug)]
struct QueueState {
    last_end_ns: u64,
    track: TrackId,
}

#[derive(Debug)]
struct State {
    host_now_ns: u64,
    buffers: Vec<Option<BufferSlot>>,
    allocated_bytes: u64,
    queues: Vec<QueueState>,
    events: Vec<EventRecord>,
    log: Vec<CommandRecord>,
    profiled: Vec<bool>,
    /// Hardware-counter profiles of kernel launches, keyed by event index
    /// (kernels are a sparse subset of events; indices ascend).
    kernel_profiles: Vec<(usize, KernelProfile)>,
    link_free_ns: u64,
    compute_free_ns: u64,
    detailed_cycle_budget: u64,
    faults: Option<FaultPlan>,
    cost_scale: CostScale,
}

const VALIDATED: &str = "buffer validated before scheduling";

impl State {
    /// The live slot behind `buf`; `backed` further demands host words (a
    /// functional command cannot touch a virtual buffer).
    fn slot(&self, buf: BufferId, backed: bool) -> Result<&BufferSlot, SimError> {
        let slot = self
            .buffers
            .get(buf.0)
            .and_then(Option::as_ref)
            .ok_or(SimError::InvalidHandle("buffer"))?;
        if backed && slot.words.is_none() {
            return Err(SimError::InvalidHandle("buffer (virtual)"));
        }
        Ok(slot)
    }

    /// Validates the `words`-word range of `buf` at `offset` that a transfer
    /// touches.
    fn range(
        &self,
        buf: BufferId,
        offset: usize,
        words: usize,
        backed: bool,
        what: &'static str,
    ) -> Result<BufferRange, SimError> {
        let len = self.slot(buf, backed)?.len_words;
        match offset.checked_add(words) {
            Some(hi) if hi <= len => Ok(BufferRange {
                buffer: buf,
                lo: offset,
                hi,
            }),
            _ => Err(SimError::OutOfRange { what }),
        }
    }

    /// The whole-buffer ranges a kernel reads and writes; an output that
    /// aliases an input is rejected.
    fn kernel_ranges(
        &self,
        reads: &[BufferId],
        write: BufferId,
        backed: bool,
    ) -> Result<(Vec<BufferRange>, Vec<BufferRange>), SimError> {
        if reads.contains(&write) {
            return Err(SimError::InvalidHandle("buffer (aliases kernel output)"));
        }
        let whole = |buf: BufferId| {
            self.slot(buf, backed).map(|s| BufferRange {
                buffer: buf,
                lo: 0,
                hi: s.len_words,
            })
        };
        let writes = vec![whole(write)?];
        let reads = reads.iter().map(|&r| whole(r)).collect::<Result<_, _>>()?;
        Ok((reads, writes))
    }

    fn words(&self, buf: BufferId) -> &[u32] {
        self.buffers[buf.0]
            .as_ref()
            .and_then(|b| b.words.as_deref())
            .expect(VALIDATED)
    }

    fn words_mut(&mut self, buf: BufferId) -> &mut [u32] {
        self.buffers[buf.0]
            .as_mut()
            .and_then(|b| b.words.as_deref_mut())
            .expect(VALIDATED)
    }
}

/// What a command asks of the device: a transfer of `bytes` on the link, or
/// a kernel priced by its cost on the compute engine.
#[derive(Clone, Copy)]
enum Work<'a> {
    Write { bytes: u64 },
    Read { bytes: u64, corruptible: bool },
    Kernel(&'a KernelCost),
}

/// A command [`Gpu::schedule`] accepted: its event, when it ends, and what
/// the fault plan did to it.
struct Scheduled {
    event: EventId,
    end: u64,
    effect: FaultEffect,
}

/// What an injected fault does to the command currently being enqueued
/// (beyond the hard-failure case, which returns early).
enum FaultEffect {
    None,
    /// Occupy the command's resource `ns` longer.
    Stall(u64),
    /// Deliver the readback with one bit flipped, chosen from the entropy.
    Corrupt(u64),
}

impl FaultEffect {
    fn stall_ns(&self) -> u64 {
        match self {
            FaultEffect::Stall(ns) => *ns,
            _ => 0,
        }
    }
}

/// Virtual-cost scaling for what-if replay: multiplies every kernel and/or
/// transfer duration the simulator charges, leaving functional behaviour,
/// ordering, fault injection, and stall penalties untouched. A Coz-style
/// "what if kernels were 20% faster" experiment is
/// `CostScale { kernel: 0.8, ..Default::default() }`.
///
/// Host packing is deliberately *not* scalable here: packing time is
/// charged on the host clock from the device spec by the engine, not by
/// the simulator's command timing, so a pack scale would desynchronize the
/// engine's timing reconciliation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostScale {
    /// Multiplier on kernel execution durations.
    pub kernel: f64,
    /// Multiplier on host↔device transfer durations (writes, reads,
    /// checksum readbacks, virtual transfers).
    pub transfer: f64,
}

impl Default for CostScale {
    fn default() -> Self {
        CostScale {
            kernel: 1.0,
            transfer: 1.0,
        }
    }
}

impl CostScale {
    /// Whether this scale is the identity (no perturbation).
    pub fn is_identity(&self) -> bool {
        self.kernel == 1.0 && self.transfer == 1.0
    }

    /// Applies `factor` to a duration. The identity factor returns the
    /// input unchanged (bit-exact: default runs must stay byte-identical
    /// to a build without scaling); otherwise rounds to the nearest ns
    /// with a 1 ns floor so scaled commands still take time.
    fn apply(factor: f64, ns: u64) -> u64 {
        if factor == 1.0 {
            ns
        } else {
            ((ns as f64 * factor).round() as u64).max(1)
        }
    }

    /// Scales a kernel duration.
    pub fn kernel_ns(&self, ns: u64) -> u64 {
        Self::apply(self.kernel, ns)
    }

    /// Scales a transfer duration.
    pub fn transfer_ns(&self, ns: u64) -> u64 {
        Self::apply(self.transfer, ns)
    }
}

/// A simulated GPU device instance.
pub struct Gpu {
    spec: DeviceSpec,
    tracer: Tracer,
    host_track: TrackId,
    state: RefCell<State>,
}

impl Gpu {
    /// Opens the device, paying the runtime-initialization cost on the host
    /// timeline (kernel *compilation* is excluded, as in the paper's
    /// end-to-end timing, §VI-B).
    pub fn new(spec: DeviceSpec) -> Gpu {
        Self::with_tracer(spec, Tracer::disabled())
    }

    /// Like [`new`](Self::new), but recording every command's virtual-time
    /// profile as spans on `tracer`: the device-open span on a host track,
    /// and one span per enqueued transfer/kernel on its queue's track. All
    /// spans carry the simulator's virtual timestamps ([`TimeDomain::Virtual`]),
    /// so the exported timeline is the device timeline the profiling events
    /// of §VI-A-1 describe.
    pub fn with_tracer(spec: DeviceSpec, tracer: Tracer) -> Gpu {
        let init = spec.transfer.runtime_init_ns;
        let host_track = tracer.track(format!("host · {}", spec.name), TimeDomain::Virtual);
        tracer.span_with(
            host_track,
            "init",
            "device open",
            0,
            init,
            vec![("runtime_init_ns", init.into())],
        );
        Gpu {
            spec,
            tracer,
            host_track,
            state: RefCell::new(State {
                host_now_ns: init,
                buffers: Vec::new(),
                allocated_bytes: 0,
                queues: Vec::new(),
                events: Vec::new(),
                log: Vec::new(),
                profiled: Vec::new(),
                kernel_profiles: Vec::new(),
                link_free_ns: init,
                compute_free_ns: init,
                detailed_cycle_budget: 500_000_000,
                faults: None,
                cost_scale: CostScale::default(),
            }),
        }
    }

    /// The tracer this device records into (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The virtual-time track for host-side activity (device open, packing).
    pub fn host_track(&self) -> TrackId {
        self.host_track
    }

    /// The device specification in use.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Current host virtual time in nanoseconds (the "CPU realtime clock"
    /// of §VI-A-1).
    pub fn now_ns(&self) -> u64 {
        self.state.borrow().host_now_ns
    }

    /// Advances the host clock by `ns` — models host-side work (e.g. packing
    /// bit matrices into transfer buffers) happening on the CPU.
    pub fn advance_host_ns(&self, ns: u64) {
        self.state.borrow_mut().host_now_ns += ns;
    }

    /// Arms deterministic fault injection: every subsequent host command
    /// consults `plan` and may time out, launch-fail, stall, deliver
    /// corrupted readback words, or fail permanently (device loss). With no
    /// plan armed (the default) the device is perfectly healthy and no
    /// fault bookkeeping runs.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        self.state.borrow_mut().faults = Some(plan);
    }

    /// Arms a virtual-cost scale for what-if replay: every subsequently
    /// enqueued kernel and transfer is charged its scaled duration. The
    /// default ([`CostScale::is_identity`]) leaves timing bit-exact.
    pub fn set_cost_scale(&self, scale: CostScale) {
        self.state.borrow_mut().cost_scale = scale;
    }

    /// Counts of faults injected so far (all zero when no plan is armed).
    pub fn fault_stats(&self) -> FaultStats {
        self.state
            .borrow()
            .faults
            .as_ref()
            .map(|f| f.stats())
            .unwrap_or_default()
    }

    /// Whether the armed fault plan has permanently lost this device.
    pub fn device_lost(&self) -> bool {
        self.state
            .borrow()
            .faults
            .as_ref()
            .is_some_and(|f| f.device_lost())
    }

    /// Consults the armed fault plan (if any) for the command being
    /// enqueued. Hard failures return the typed error; stalls and
    /// corruption come back as effects the enqueue path applies.
    fn consult_faults(
        st: &mut State,
        op: FaultOp,
        corruptible: bool,
    ) -> Result<FaultEffect, SimError> {
        match st.faults.as_mut().and_then(|f| f.next(op, corruptible)) {
            None => Ok(FaultEffect::None),
            Some(Injection::Fail(fault)) => Err(SimError::DeviceFault(fault)),
            Some(Injection::Stall { ns }) => Ok(FaultEffect::Stall(ns)),
            Some(Injection::CorruptBit { entropy }) => Ok(FaultEffect::Corrupt(entropy)),
        }
    }

    /// Convenience: charges host packing time for `bytes` at the modeled
    /// host packing rate.
    pub fn host_pack(&self, bytes: u64) {
        let ns = self.spec.transfer.pack_ns(bytes);
        let start = self.now_ns();
        self.advance_host_ns(ns);
        if self.tracer.is_enabled() {
            self.tracer.span_with(
                self.host_track,
                "pack",
                "host pack",
                start,
                start + ns,
                vec![("bytes", bytes.into())],
            );
        }
    }

    /// Bytes currently allocated on the device.
    pub fn allocated_bytes(&self) -> u64 {
        self.state.borrow().allocated_bytes
    }

    /// Creates an in-order command queue.
    pub fn create_queue(&self) -> QueueId {
        self.create_queue_labeled("")
    }

    /// Creates an in-order command queue whose trace track carries `label`
    /// (e.g. `"transfer"` / `"compute"`), so timelines read without
    /// cross-referencing queue indices.
    pub fn create_queue_labeled(&self, label: &str) -> QueueId {
        let mut st = self.state.borrow_mut();
        let idx = st.queues.len();
        let track = if self.tracer.is_enabled() {
            let name = if label.is_empty() {
                format!("queue {idx}")
            } else {
                format!("queue {idx} ({label})")
            };
            self.tracer.track(name, TimeDomain::Virtual)
        } else {
            self.host_track
        };
        let now = st.host_now_ns;
        st.queues.push(QueueState {
            last_end_ns: now,
            track,
        });
        QueueId(idx)
    }

    /// Allocates a device buffer of `words` 32-bit words, enforcing the
    /// Table I max-allocation and global-memory limits.
    pub fn create_buffer(&self, words: usize) -> Result<BufferId, SimError> {
        self.allocate(words, true)
    }

    /// Allocates a *virtual* buffer: device capacity and limits are
    /// enforced and all transfers/kernels against it are timed, but no host
    /// memory backs the contents. Used by timing-only runs at database
    /// scale (e.g. Fig. 8's >20M-profile sweeps).
    pub fn create_virtual_buffer(&self, words: usize) -> Result<BufferId, SimError> {
        self.allocate(words, false)
    }

    fn allocate(&self, words: usize, backed: bool) -> Result<BufferId, SimError> {
        let bytes = words as u64 * 4;
        if bytes > self.spec.max_alloc_bytes {
            return Err(SimError::AllocTooLarge {
                requested: bytes,
                limit: self.spec.max_alloc_bytes,
            });
        }
        let mut st = self.state.borrow_mut();
        let available = self
            .spec
            .global_mem_bytes
            .saturating_sub(st.allocated_bytes);
        if bytes > available {
            return Err(SimError::OutOfDeviceMemory {
                requested: bytes,
                available,
            });
        }
        st.allocated_bytes += bytes;
        st.buffers.push(Some(BufferSlot {
            words: backed.then(|| vec![0u32; words]),
            len_words: words,
        }));
        Ok(BufferId(st.buffers.len() - 1))
    }

    /// Releases a buffer, returning its bytes to the pool.
    pub fn release_buffer(&self, id: BufferId) -> Result<(), SimError> {
        let mut st = self.state.borrow_mut();
        let slot = st
            .buffers
            .get_mut(id.0)
            .ok_or(SimError::InvalidHandle("buffer"))?;
        match slot.take() {
            Some(b) => {
                st.allocated_bytes -= b.len_words as u64 * 4;
                Ok(())
            }
            None => Err(SimError::InvalidHandle("buffer")),
        }
    }

    /// Size of a buffer in words.
    pub fn buffer_words(&self, id: BufferId) -> Result<usize, SimError> {
        Ok(self.state.borrow().slot(id, false)?.len_words)
    }

    /// Prices `cost` on this device and captures the launch's
    /// hardware-counter profile.
    fn kernel_cost_time(
        &self,
        st: &State,
        cost: &KernelCost,
    ) -> Result<(KernelTime, KernelProfile), SimError> {
        match cost {
            KernelCost::Analytic {
                core_cycles,
                active_cores,
                traffic,
            } => {
                let kt = kernel_time(&self.spec, *core_cycles, *active_cores, *traffic);
                let profile = KernelProfile {
                    engine: ProfileEngine::Analytic,
                    core_cycles: *core_cycles,
                    active_cores: *active_cores,
                    groups_per_core: None,
                    traffic: *traffic,
                    time: kt,
                    total_instrs: None,
                    pipeline_busy: None,
                };
                Ok((kt, profile))
            }
            KernelCost::Detailed {
                program,
                groups_per_core,
                active_cores,
                traffic,
            } => {
                let budget = st.detailed_cycle_budget;
                let r = simulate_core(&self.spec, program, *groups_per_core, budget)
                    .map_err(|_| SimError::DetailedBudget)?;
                let kt = kernel_time(&self.spec, r.cycles as f64, *active_cores, *traffic);
                let profile = KernelProfile {
                    engine: ProfileEngine::Detailed,
                    core_cycles: r.cycles as f64,
                    active_cores: *active_cores,
                    groups_per_core: Some(*groups_per_core),
                    traffic: *traffic,
                    time: kt,
                    total_instrs: Some(r.total_instrs),
                    pipeline_busy: Some(r.pipeline_busy),
                };
                Ok((kt, profile))
            }
        }
    }

    /// The one scheduling path of every `enqueue_*` entry point.
    ///
    /// It first validates the command: the queue handle, then (through
    /// `check`, which returns the buffer ranges the command reads and
    /// writes) every buffer handle and range, then the wait-list's events
    /// and, for a kernel, its cost. Only a valid command consults the fault
    /// plan, occupies the link (transfers) or the compute engine (kernels)
    /// from `max(host clock, queue tail, engine free, dependencies)`, and is
    /// logged and traced — a rejected command leaves no trace on the
    /// timeline, the command log or the fault plan. The caller applies the
    /// command's functional effect afterwards.
    fn schedule(
        &self,
        st: &mut State,
        queue: QueueId,
        name: &'static str,
        work: Work<'_>,
        deps: &[EventId],
        check: impl FnOnce(&State) -> Result<(Vec<BufferRange>, Vec<BufferRange>), SimError>,
    ) -> Result<Scheduled, SimError> {
        if queue.0 >= st.queues.len() {
            return Err(SimError::InvalidHandle("queue"));
        }
        let (reads, writes) = check(st)?;
        let mut dep_end = 0u64;
        for d in deps {
            let e = st.events.get(d.0).ok_or(SimError::InvalidHandle("event"))?;
            dep_end = dep_end.max(e.profile.end_ns);
        }
        let (kind, op, corruptible, bytes) = match work {
            Work::Write { bytes } => (CommandKind::Write, FaultOp::Write, false, bytes),
            Work::Read { bytes, corruptible } => {
                (CommandKind::Read, FaultOp::Read, corruptible, bytes)
            }
            Work::Kernel(_) => (CommandKind::Kernel, FaultOp::Kernel, false, 0),
        };
        let (duration, kernel_profile) = match work {
            Work::Kernel(cost) => {
                let (kt, profile) = self.kernel_cost_time(st, cost)?;
                (
                    st.cost_scale.kernel_ns(kt.total_ns.ceil() as u64),
                    Some(profile),
                )
            }
            _ => (
                st.cost_scale
                    .transfer_ns(self.spec.transfer.transfer_ns(bytes)),
                None,
            ),
        };
        let effect = Self::consult_faults(st, op, corruptible)?;

        let queued = st.host_now_ns;
        let engine_free = match kind {
            CommandKind::Kernel => &mut st.compute_free_ns,
            _ => &mut st.link_free_ns,
        };
        let start = queued
            .max(*engine_free)
            .max(st.queues[queue.0].last_end_ns)
            .max(dep_end);
        let end = start + duration + effect.stall_ns();
        *engine_free = end;
        st.queues[queue.0].last_end_ns = end;

        if self.tracer.is_enabled() {
            let (cat, mut args) = match kind {
                CommandKind::Kernel => ("kernel", Vec::new()),
                _ => ("transfer", vec![("bytes", bytes.into())]),
            };
            args.push(("queued_ns", queued.into()));
            self.tracer
                .span_with(st.queues[queue.0].track, cat, name, start, end, args);
        }
        let profile = EventProfile {
            queued_ns: queued,
            submit_ns: queued,
            start_ns: start,
            end_ns: end,
        };
        st.events.push(EventRecord { profile });
        st.profiled.push(false);
        let event = EventId(st.events.len() - 1);
        st.log.push(CommandRecord {
            kind,
            queue,
            event,
            deps: deps.to_vec(),
            reads,
            writes,
            profile,
        });
        if let Some(p) = kernel_profile {
            st.kernel_profiles.push((event.0, p));
        }
        Ok(Scheduled { event, end, effect })
    }

    /// Enqueues a host→device write of `data` into `buf` at `word_offset`.
    /// Functional copy happens with enqueue-order semantics; timing follows
    /// queue order, event deps, and link availability.
    pub fn enqueue_write(
        &self,
        queue: QueueId,
        buf: BufferId,
        word_offset: usize,
        data: &[u32],
        deps: &[EventId],
    ) -> Result<EventId, SimError> {
        let mut st = self.state.borrow_mut();
        let bytes = data.len() as u64 * 4;
        let done = self.schedule(&mut st, queue, "write", Work::Write { bytes }, deps, |st| {
            Ok((
                Vec::new(),
                vec![st.range(buf, word_offset, data.len(), true, "write")?],
            ))
        })?;
        st.words_mut(buf)[word_offset..word_offset + data.len()].copy_from_slice(data);
        Ok(done.event)
    }

    /// Enqueues a device→host read from `buf` at `word_offset` into `out`.
    /// With `blocking`, the host clock advances to the event's end (the
    /// OpenCL `CL_TRUE` blocking read).
    pub fn enqueue_read(
        &self,
        queue: QueueId,
        buf: BufferId,
        word_offset: usize,
        out: &mut [u32],
        deps: &[EventId],
        blocking: bool,
    ) -> Result<EventId, SimError> {
        let mut st = self.state.borrow_mut();
        let work = Work::Read {
            bytes: out.len() as u64 * 4,
            corruptible: true,
        };
        let done = self.schedule(&mut st, queue, "read", work, deps, |st| {
            Ok((
                vec![st.range(buf, word_offset, out.len(), true, "read")?],
                Vec::new(),
            ))
        })?;
        out.copy_from_slice(&st.words(buf)[word_offset..word_offset + out.len()]);
        if let FaultEffect::Corrupt(entropy) = done.effect {
            // The ECC-escape: the host receives the words with one bit
            // flipped, with no error from the runtime. Detection is the
            // caller's job (checksum the readback — DESIGN.md §10.3).
            if !out.is_empty() {
                let w = (entropy as usize) % out.len();
                let b = (entropy >> 32) % 32;
                out[w] ^= 1u32 << b;
            }
        }
        if blocking {
            st.host_now_ns = st.host_now_ns.max(done.end);
        }
        Ok(done.event)
    }

    /// Enqueues a device-side checksum of `words` words of `buf` at
    /// `word_offset`, read back as a blocking 8-byte transfer.
    ///
    /// Models a tiny reduction kernel folded into the readback path: the
    /// FNV-1a checksum is computed over the *device* copy of the words, so
    /// comparing it against [`checksum_words`] of the host copy detects
    /// corruption introduced on the link (DESIGN.md §10.3). The transfer is
    /// so short it is modeled as immune to bit corruption itself, but it
    /// still times out or stalls like any other read. Virtual buffers have
    /// no words to sum and are rejected.
    pub fn enqueue_checksum_read(
        &self,
        queue: QueueId,
        buf: BufferId,
        word_offset: usize,
        words: usize,
        deps: &[EventId],
    ) -> Result<(u64, EventId), SimError> {
        let mut st = self.state.borrow_mut();
        let work = Work::Read {
            bytes: 8,
            corruptible: false,
        };
        let done = self.schedule(&mut st, queue, "checksum", work, deps, |st| {
            Ok((
                vec![st.range(buf, word_offset, words, true, "checksum")?],
                Vec::new(),
            ))
        })?;
        let sum = checksum_words(&st.words(buf)[word_offset..word_offset + words]);
        st.host_now_ns = st.host_now_ns.max(done.end);
        Ok((sum, done.event))
    }

    /// Enqueues a kernel that reads `reads` buffers and updates `write`.
    ///
    /// The functional body `func` receives the read buffers as word slices
    /// and the write buffer mutably (it may also read it, enabling
    /// accumulation). Duration comes from `cost`; the device runs one kernel
    /// at a time.
    pub fn enqueue_kernel<F>(
        &self,
        queue: QueueId,
        cost: &KernelCost,
        reads: &[BufferId],
        write: BufferId,
        deps: &[EventId],
        func: F,
    ) -> Result<EventId, SimError>
    where
        F: FnOnce(&[&[u32]], &mut [u32]),
    {
        let mut st = self.state.borrow_mut();
        let done = self.schedule(&mut st, queue, "kernel", Work::Kernel(cost), deps, |st| {
            st.kernel_ranges(reads, write, true)
        })?;
        // Move the write buffer out so the read borrows and the mutable
        // borrow cannot alias.
        let mut out = st.buffers[write.0].take().expect(VALIDATED);
        {
            let read_slices: Vec<&[u32]> = reads.iter().map(|&r| st.words(r)).collect();
            func(&read_slices, out.words.as_deref_mut().expect(VALIDATED));
        }
        st.buffers[write.0] = Some(out);
        Ok(done.event)
    }

    /// Enqueues a *timing-only* host→device write of `words` words into
    /// `buf` (typically virtual) at `word_offset`: it occupies the link
    /// exactly like an [`enqueue_write`](Self::enqueue_write) of as many
    /// words and is logged with the range it writes, but moves no data.
    pub fn enqueue_virtual_write(
        &self,
        queue: QueueId,
        buf: BufferId,
        word_offset: usize,
        words: usize,
        deps: &[EventId],
    ) -> Result<EventId, SimError> {
        let mut st = self.state.borrow_mut();
        let bytes = words as u64 * 4;
        let done = self.schedule(&mut st, queue, "write", Work::Write { bytes }, deps, |st| {
            let range = st.range(buf, word_offset, words, false, "virtual transfer")?;
            Ok((Vec::new(), vec![range]))
        })?;
        Ok(done.event)
    }

    /// Enqueues a *timing-only* device→host read of `words` words from
    /// `buf` at `word_offset` — the counterpart of
    /// [`enqueue_virtual_write`](Self::enqueue_virtual_write).
    pub fn enqueue_virtual_read(
        &self,
        queue: QueueId,
        buf: BufferId,
        word_offset: usize,
        words: usize,
        deps: &[EventId],
    ) -> Result<EventId, SimError> {
        let mut st = self.state.borrow_mut();
        let work = Work::Read {
            bytes: words as u64 * 4,
            corruptible: false,
        };
        let done = self.schedule(&mut st, queue, "read", work, deps, |st| {
            let range = st.range(buf, word_offset, words, false, "virtual transfer")?;
            Ok((vec![range], Vec::new()))
        })?;
        Ok(done.event)
    }

    /// Enqueues a *timing-only* kernel tagged with the buffers it logically
    /// reads and writes, so the command log can be race-checked. Timing is
    /// identical to [`enqueue_kernel`](Self::enqueue_kernel); the buffers
    /// (typically virtual) are not touched.
    pub fn enqueue_kernel_timed_on(
        &self,
        queue: QueueId,
        cost: &KernelCost,
        reads: &[BufferId],
        write: BufferId,
        deps: &[EventId],
    ) -> Result<EventId, SimError> {
        let mut st = self.state.borrow_mut();
        let done = self.schedule(&mut st, queue, "kernel", Work::Kernel(cost), deps, |st| {
            st.kernel_ranges(reads, write, false)
        })?;
        Ok(done.event)
    }

    /// Blocks the host until every command on `queue` has finished
    /// (`clFinish`).
    pub fn finish(&self, queue: QueueId) -> Result<(), SimError> {
        let mut st = self.state.borrow_mut();
        let q = st
            .queues
            .get(queue.0)
            .ok_or(SimError::InvalidHandle("queue"))?;
        let end = q.last_end_ns;
        st.host_now_ns = st.host_now_ns.max(end);
        Ok(())
    }

    /// Blocks the host until every queue is drained.
    pub fn finish_all(&self) {
        let mut st = self.state.borrow_mut();
        let end = st.queues.iter().map(|q| q.last_end_ns).max().unwrap_or(0);
        st.host_now_ns = st.host_now_ns.max(end);
    }

    /// Profiling timestamps of an event. Marks the event as *consumed* in
    /// the command log, so static analysis can tell a profiled-but-unwaited
    /// event apart from one that is simply dead.
    pub fn event_profile(&self, ev: EventId) -> Result<EventProfile, SimError> {
        let mut st = self.state.borrow_mut();
        let profile = st
            .events
            .get(ev.0)
            .map(|e| e.profile)
            .ok_or(SimError::InvalidHandle("event"))?;
        st.profiled[ev.0] = true;
        Ok(profile)
    }

    /// Hardware-counter profile of a kernel launch event, or `None` for
    /// transfer events (and unknown handles). Unlike
    /// [`event_profile`](Self::event_profile) this does not mark the event
    /// as consumed — profiling is observation, not synchronization.
    pub fn kernel_profile(&self, ev: EventId) -> Option<KernelProfile> {
        let st = self.state.borrow();
        st.kernel_profiles
            .binary_search_by_key(&ev.0, |(idx, _)| *idx)
            .ok()
            .map(|i| st.kernel_profiles[i].1.clone())
    }

    /// Profiles of every kernel launched so far, in enqueue order, each
    /// paired with the launch's event.
    pub fn kernel_profiles(&self) -> Vec<(EventId, KernelProfile)> {
        self.state
            .borrow()
            .kernel_profiles
            .iter()
            .map(|(idx, p)| (EventId(*idx), p.clone()))
            .collect()
    }

    /// Snapshot of the full command log accumulated so far: one record per
    /// enqueued command, in enqueue order (record `i` created `EventId(i)`).
    pub fn command_log(&self) -> CommandLog {
        let st = self.state.borrow();
        CommandLog {
            commands: st.log.clone(),
            queue_count: st.queues.len(),
            profiled: st.profiled.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snp_gpu_model::devices;
    use snp_trace::ArgValue;

    fn small_gpu() -> Gpu {
        Gpu::new(devices::gtx_980())
    }

    #[test]
    fn init_cost_charged_on_open() {
        let g = small_gpu();
        assert_eq!(g.now_ns(), g.spec().transfer.runtime_init_ns);
    }

    #[test]
    fn buffer_limits_enforced() {
        let g = small_gpu();
        let limit = g.spec().max_alloc_bytes;
        let too_big = (limit / 4 + 1) as usize;
        assert!(matches!(
            g.create_buffer(too_big),
            Err(SimError::AllocTooLarge { .. })
        ));
        // Fill global memory with max-size allocations until it runs out.
        let chunk = (limit / 4) as usize;
        let mut ids = Vec::new();
        loop {
            match g.create_buffer(chunk) {
                Ok(id) => ids.push(id),
                Err(SimError::OutOfDeviceMemory { .. }) => break,
                Err(e) => panic!("unexpected {e}"),
            }
            assert!(ids.len() < 100, "global memory should be finite");
        }
        // Releasing returns capacity.
        g.release_buffer(ids[0]).unwrap();
        assert!(g.create_buffer(chunk).is_ok());
    }

    #[test]
    fn write_read_roundtrip() {
        let g = small_gpu();
        let q = g.create_queue();
        let b = g.create_buffer(16).unwrap();
        let data: Vec<u32> = (0..8).map(|i| i * 3 + 1).collect();
        let _ = g.enqueue_write(q, b, 4, &data, &[]).unwrap();
        let mut out = vec![0u32; 8];
        let _ = g.enqueue_read(q, b, 4, &mut out, &[], true).unwrap();
        assert_eq!(out, data);
        // Unwritten region stays zero.
        let mut head = vec![1u32; 4];
        let _ = g.enqueue_read(q, b, 0, &mut head, &[], true).unwrap();
        assert_eq!(head, vec![0; 4]);
    }

    #[test]
    fn out_of_range_transfer_rejected() {
        let g = small_gpu();
        let q = g.create_queue();
        let b = g.create_buffer(4).unwrap();
        let err = g.enqueue_write(q, b, 2, &[0u32; 4], &[]).unwrap_err();
        assert!(matches!(err, SimError::OutOfRange { .. }));
    }

    #[test]
    fn in_order_queue_serializes_commands() {
        let g = small_gpu();
        let q = g.create_queue();
        let b = g.create_buffer(1024).unwrap();
        let data = vec![0u32; 1024];
        let e1 = g.enqueue_write(q, b, 0, &data, &[]).unwrap();
        let e2 = g.enqueue_write(q, b, 0, &data, &[]).unwrap();
        let p1 = g.event_profile(e1).unwrap();
        let p2 = g.event_profile(e2).unwrap();
        assert!(p2.start_ns >= p1.end_ns, "in-order queue must serialize");
        assert!(p1.duration_ns() >= g.spec().transfer.transfer_latency_ns);
    }

    #[test]
    fn kernel_runs_functionally_and_costs_time() {
        let g = small_gpu();
        let q = g.create_queue();
        let a = g.create_buffer(8).unwrap();
        let c = g.create_buffer(8).unwrap();
        let _ = g
            .enqueue_write(q, a, 0, &[1, 2, 3, 4, 5, 6, 7, 8], &[])
            .unwrap();
        let cost = KernelCost::Analytic {
            core_cycles: 1000.0,
            active_cores: 4,
            traffic: Traffic::default(),
        };
        let ev = g
            .enqueue_kernel(q, &cost, &[a], c, &[], |reads, out| {
                for (i, o) in out.iter_mut().enumerate() {
                    *o = reads[0][i] * 10;
                }
            })
            .unwrap();
        let mut out = vec![0u32; 8];
        let _ = g.enqueue_read(q, c, 0, &mut out, &[], true).unwrap();
        assert_eq!(out, vec![10, 20, 30, 40, 50, 60, 70, 80]);
        let p = g.event_profile(ev).unwrap();
        // 1000 cycles at 1.367 GHz ≈ 732 ns, inflated by the 4-core scaling
        // efficiency, plus launch overhead.
        let expect = kernel_time(g.spec(), 1000.0, 4, Traffic::default()).total_ns;
        assert!(
            (p.duration_ns() as f64 - expect).abs() < 2.0,
            "got {}",
            p.duration_ns()
        );
    }

    #[test]
    fn aliasing_kernel_output_rejected() {
        let g = small_gpu();
        let q = g.create_queue();
        let a = g.create_buffer(4).unwrap();
        let cost = KernelCost::Analytic {
            core_cycles: 1.0,
            active_cores: 1,
            traffic: Traffic::default(),
        };
        let err = g
            .enqueue_kernel(q, &cost, &[a], a, &[], |_, _| {})
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidHandle(_)));
    }

    #[test]
    fn two_queues_overlap_transfer_and_compute() {
        // The double-buffering mechanism: a kernel on the compute queue and
        // a transfer on the copy queue may overlap; two transfers may not.
        let g = small_gpu();
        let qt = g.create_queue();
        let qc = g.create_queue();
        let a = g.create_buffer(1 << 20).unwrap();
        let b = g.create_buffer(1 << 20).unwrap();
        let c = g.create_buffer(4).unwrap();
        let big = vec![0u32; 1 << 20];
        let e_w1 = g.enqueue_write(qt, a, 0, &big, &[]).unwrap();
        let cost = KernelCost::Analytic {
            core_cycles: 10_000_000.0,
            active_cores: 16,
            traffic: Traffic::default(),
        };
        let e_k = g
            .enqueue_kernel(qc, &cost, &[a], c, &[e_w1], |_, _| {})
            .unwrap();
        let e_w2 = g.enqueue_write(qt, b, 0, &big, &[]).unwrap();
        let pk = g.event_profile(e_k).unwrap();
        let pw2 = g.event_profile(e_w2).unwrap();
        // The second transfer starts while the kernel is still running.
        assert!(pw2.start_ns < pk.end_ns, "transfer must overlap compute");
        // And the kernel started only after its dependency.
        assert!(pk.start_ns >= g.event_profile(e_w1).unwrap().end_ns);
    }

    #[test]
    fn kernels_serialize_on_the_compute_engine() {
        let g = small_gpu();
        let q1 = g.create_queue();
        let q2 = g.create_queue();
        let c1 = g.create_buffer(4).unwrap();
        let c2 = g.create_buffer(4).unwrap();
        let cost = KernelCost::Analytic {
            core_cycles: 1_000_000.0,
            active_cores: 16,
            traffic: Traffic::default(),
        };
        let e1 = g
            .enqueue_kernel(q1, &cost, &[], c1, &[], |_, _| {})
            .unwrap();
        let e2 = g
            .enqueue_kernel(q2, &cost, &[], c2, &[], |_, _| {})
            .unwrap();
        let p1 = g.event_profile(e1).unwrap();
        let p2 = g.event_profile(e2).unwrap();
        assert!(p2.start_ns >= p1.end_ns, "one kernel at a time");
    }

    #[test]
    fn finish_advances_host_clock() {
        let g = small_gpu();
        let q = g.create_queue();
        let b = g.create_buffer(1 << 20).unwrap();
        let data = vec![0u32; 1 << 20];
        let ev = g.enqueue_write(q, b, 0, &data, &[]).unwrap();
        let before = g.now_ns();
        let end = g.event_profile(ev).unwrap().end_ns;
        assert!(before < end, "enqueue must not block the host");
        g.finish(q).unwrap();
        assert_eq!(g.now_ns(), end);
    }

    #[test]
    fn detailed_cost_kernels_run_the_engine() {
        let g = small_gpu();
        let q = g.create_queue();
        let c = g.create_buffer(4).unwrap();
        let program = Program::dependent_chain(snp_gpu_model::InstrClass::Popc, 8, 50);
        let cost = KernelCost::Detailed {
            program,
            groups_per_core: 1,
            active_cores: 1,
            traffic: Traffic::default(),
        };
        let ev = g.enqueue_kernel(q, &cost, &[], c, &[], |_, _| {}).unwrap();
        let p = g.event_profile(ev).unwrap();
        // Chain of 400 popc at ~6 cycles each at 1.367 GHz ≈ 1.76 us + launch.
        let dur = p.duration_ns() as f64;
        assert!(
            dur > 1_500.0 + 8_000.0 && dur < 3_000.0 + 8_500.0,
            "got {dur}"
        );
    }

    #[test]
    fn tracer_records_command_spans_with_profile_timestamps() {
        let g = Gpu::with_tracer(devices::gtx_980(), Tracer::enabled());
        let q = g.create_queue_labeled("transfer");
        let b = g.create_buffer(256).unwrap();
        let data = vec![7u32; 256];
        g.host_pack(1024);
        let ev = g.enqueue_write(q, b, 0, &data, &[]).unwrap();
        let p = g.event_profile(ev).unwrap();
        let trace = g.tracer().snapshot().unwrap();

        let open = trace
            .events_in_cat("init")
            .next()
            .expect("device-open span");
        assert_eq!(open.end_ns, g.spec().transfer.runtime_init_ns);

        let pack = trace.events_in_cat("pack").next().expect("pack span");
        assert_eq!(pack.args, vec![("bytes", ArgValue::U64(1024))]);

        let write = trace.events_in_cat("transfer").next().expect("write span");
        assert_eq!((write.start_ns, write.end_ns), (p.start_ns, p.end_ns));
        assert!(write
            .args
            .contains(&(("queued_ns"), ArgValue::U64(p.queued_ns))));
        assert_eq!(trace.track(write.track).name, "queue 0 (transfer)");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let g = small_gpu();
        let q = g.create_queue();
        let b = g.create_buffer(8).unwrap();
        let _ = g.enqueue_write(q, b, 0, &[1u32; 8], &[]).unwrap();
        g.host_pack(4096);
        assert!(g.tracer().snapshot().is_none());
    }

    #[test]
    fn host_pack_charges_pack_rate() {
        let g = small_gpu();
        let t0 = g.now_ns();
        g.host_pack(1 << 30);
        let dt = g.now_ns() - t0;
        // 1 GiB at 8 GiB/s = 125 ms.
        assert!((dt as f64 - 0.125e9).abs() < 1e6, "got {dt}");
    }

    #[test]
    fn command_log_records_every_command_in_enqueue_order() {
        let g = small_gpu();
        let q = g.create_queue();
        let a = g.create_buffer(8).unwrap();
        let c = g.create_buffer(8).unwrap();
        let ev_w = g.enqueue_write(q, a, 2, &[1, 2, 3], &[]).unwrap();
        let cost = KernelCost::Analytic {
            core_cycles: 100.0,
            active_cores: 1,
            traffic: Traffic::default(),
        };
        let ev_k = g
            .enqueue_kernel(q, &cost, &[a], c, &[ev_w], |_, _| {})
            .unwrap();
        let mut out = vec![0u32; 8];
        let ev_r = g.enqueue_read(q, c, 0, &mut out, &[ev_k], true).unwrap();

        let log = g.command_log();
        assert_eq!(log.commands.len(), 3);
        assert_eq!(log.queue_count, 1);
        // Record position == event index.
        for (i, rec) in log.commands.iter().enumerate() {
            assert_eq!(rec.event.index(), i);
        }
        let w = &log.commands[ev_w.index()];
        assert_eq!(w.kind, CommandKind::Write);
        assert_eq!(
            w.writes,
            vec![BufferRange {
                buffer: a,
                lo: 2,
                hi: 5
            }]
        );
        assert!(w.reads.is_empty() && w.deps.is_empty());
        let k = &log.commands[ev_k.index()];
        assert_eq!(k.kind, CommandKind::Kernel);
        assert_eq!(k.deps, vec![ev_w]);
        assert_eq!(
            k.reads,
            vec![BufferRange {
                buffer: a,
                lo: 0,
                hi: 8
            }]
        );
        assert_eq!(
            k.writes,
            vec![BufferRange {
                buffer: c,
                lo: 0,
                hi: 8
            }]
        );
        let r = &log.commands[ev_r.index()];
        assert_eq!(r.kind, CommandKind::Read);
        assert_eq!(
            r.reads,
            vec![BufferRange {
                buffer: c,
                lo: 0,
                hi: 8
            }]
        );
        // Nothing profiled yet; profiling marks the event consumed.
        assert!(!log.profiled[ev_k.index()]);
        let _ = g.event_profile(ev_k).unwrap();
        assert!(g.command_log().profiled[ev_k.index()]);
    }

    #[test]
    fn tagged_virtual_commands_validate_handles_and_ranges() {
        let g = small_gpu();
        let q = g.create_queue();
        let b = g.create_virtual_buffer(16).unwrap();
        assert!(matches!(
            g.enqueue_virtual_write(q, b, 8, 16, &[]),
            Err(SimError::OutOfRange { .. })
        ));
        assert!(matches!(
            g.enqueue_virtual_read(q, BufferId(99), 0, 1, &[]),
            Err(SimError::InvalidHandle(_))
        ));
        let cost = KernelCost::Analytic {
            core_cycles: 1.0,
            active_cores: 1,
            traffic: Traffic::default(),
        };
        assert!(matches!(
            g.enqueue_kernel_timed_on(q, &cost, &[b], b, &[]),
            Err(SimError::InvalidHandle(_))
        ));
    }

    type Enqueue = fn(&Gpu, QueueId, BufferId, BufferId) -> Result<EventId, SimError>;

    #[test]
    fn rejected_commands_leave_no_trace_on_any_entry_point() {
        use snp_faults::{FaultKind, FaultPlan, FaultProfile};
        const WORDS: usize = 1 << 20; // 4 MiB
        fn cost() -> KernelCost {
            KernelCost::Analytic {
                core_cycles: 1e6,
                active_cores: 80,
                traffic: Traffic::default(),
            }
        }
        // One rejected command per entry point: an out-of-range transfer
        // or a kernel whose output aliases its input. `buf` is backed,
        // `vbuf` virtual, both WORDS long.
        let rejected: [(&str, Enqueue); 7] = [
            ("enqueue_write", |g, q, buf, _| {
                g.enqueue_write(q, buf, 1, &vec![0; WORDS], &[])
            }),
            ("enqueue_read", |g, q, buf, _| {
                g.enqueue_read(q, buf, 1, &mut vec![0; WORDS], &[], true)
            }),
            ("enqueue_checksum_read", |g, q, buf, _| {
                g.enqueue_checksum_read(q, buf, 1, WORDS, &[])
                    .map(|(_, ev)| ev)
            }),
            ("enqueue_kernel", |g, q, buf, _| {
                g.enqueue_kernel(q, &cost(), &[buf], buf, &[], |_, _| {})
            }),
            ("enqueue_virtual_write", |g, q, _, vbuf| {
                g.enqueue_virtual_write(q, vbuf, 1, WORDS, &[])
            }),
            ("enqueue_virtual_read", |g, q, _, vbuf| {
                g.enqueue_virtual_read(q, vbuf, 1, WORDS, &[])
            }),
            ("enqueue_kernel_timed_on", |g, q, _, vbuf| {
                g.enqueue_kernel_timed_on(q, &cost(), &[vbuf], vbuf, &[])
            }),
        ];
        // A fresh device whose first scheduled command stalls, optionally
        // sent one rejected command, then probed with a valid write (link)
        // and a valid kernel (compute engine) on a second queue.
        let probe = |reject: Option<Enqueue>| {
            let g = Gpu::new(devices::titan_v());
            let stall = FaultProfile {
                stall_ns: 1_000,
                ..FaultProfile::none()
            };
            g.set_fault_plan(FaultPlan::new(1, stall).inject_at(0, FaultKind::QueueStall));
            let (q, q2) = (g.create_queue(), g.create_queue());
            let buf = g.create_buffer(WORDS).unwrap();
            let vbuf = g.create_virtual_buffer(WORDS).unwrap();
            let out = g.create_buffer(1).unwrap();
            if let Some(enqueue) = reject {
                assert!(enqueue(&g, q, buf, vbuf).is_err());
            }
            let now = g.now_ns();
            let w = g.enqueue_write(q2, buf, 0, &vec![0; WORDS], &[]).unwrap();
            let k = g.enqueue_kernel(q2, &cost(), &[buf], out, &[], |_, _| {});
            let profiles = [w, k.unwrap()].map(|ev| g.event_profile(ev).unwrap());
            (now, profiles, g.command_log().commands.len())
        };
        let clean = probe(None);
        for (name, enqueue) in rejected {
            assert_eq!(probe(Some(enqueue)), clean, "{name}");
        }
    }

    #[test]
    fn buffer_range_overlap_semantics() {
        let b0 = BufferId(0);
        let b1 = BufferId(1);
        let r = |buffer, lo, hi| BufferRange { buffer, lo, hi };
        assert!(r(b0, 0, 8).overlaps(&r(b0, 4, 12)));
        assert!(!r(b0, 0, 8).overlaps(&r(b0, 8, 16)), "half-open ranges");
        assert!(!r(b0, 0, 8).overlaps(&r(b1, 0, 8)), "distinct buffers");
    }

    #[test]
    fn injected_timeout_surfaces_as_typed_fault_with_source() {
        use snp_faults::{FaultKind, FaultPlan};
        let g = small_gpu();
        g.set_fault_plan(FaultPlan::quiet().inject_at(0, FaultKind::TransferTimeout));
        let q = g.create_queue();
        let b = g.create_buffer(8).unwrap();
        let err = g.enqueue_write(q, b, 0, &[1, 2, 3, 4], &[]).unwrap_err();
        let fault = match &err {
            SimError::DeviceFault(f) => *f,
            other => panic!("expected DeviceFault, got {other:?}"),
        };
        assert_eq!(fault.kind, FaultKind::TransferTimeout);
        // source() chains down to the DeviceFault.
        let src = std::error::Error::source(&err).expect("source");
        assert!(src.to_string().contains("transfer_timeout"));
        assert_eq!(g.fault_stats().transfer_timeouts, 1);
        // The retry succeeds (one-shot explicit injection) and the failed
        // command never entered the log.
        let _ = g.enqueue_write(q, b, 0, &[1, 2, 3, 4], &[]).unwrap();
        assert_eq!(g.command_log().commands.len(), 1);
    }

    #[test]
    fn injected_corruption_flips_one_bit_and_checksum_catches_it() {
        use snp_faults::{checksum_words, FaultKind, FaultPlan};
        let g = small_gpu();
        let q = g.create_queue();
        let b = g.create_buffer(64).unwrap();
        let data: Vec<u32> = (0..64).map(|i| i * 77 + 5).collect();
        let w = g.enqueue_write(q, b, 0, &data, &[]).unwrap();
        // Corrupt the next functional readback (command index 1 of the plan
        // armed *after* the write).
        g.set_fault_plan(FaultPlan::quiet().inject_at(0, FaultKind::ReadCorruption));
        let mut out = vec![0u32; 64];
        let _ = g.enqueue_read(q, b, 0, &mut out, &[w], true).unwrap();
        assert_ne!(out, data, "a bit must have flipped");
        let diff: u32 = out
            .iter()
            .zip(&data)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 1, "exactly one bit flips");
        // The device-side checksum sees the uncorrupted buffer, so it
        // disagrees with the host copy — detection works.
        let (device_sum, _ev) = g.enqueue_checksum_read(q, b, 0, 64, &[]).unwrap();
        assert_eq!(device_sum, checksum_words(&data));
        assert_ne!(device_sum, checksum_words(&out));
        // A clean re-read matches the checksum again.
        let mut again = vec![0u32; 64];
        let _ = g.enqueue_read(q, b, 0, &mut again, &[], true).unwrap();
        assert_eq!(checksum_words(&again), device_sum);
    }

    #[test]
    fn injected_stall_extends_command_duration() {
        use snp_faults::{FaultKind, FaultPlan, FaultProfile};
        let clean = small_gpu();
        let q0 = clean.create_queue();
        let b0 = clean.create_buffer(1024).unwrap();
        let e0 = clean.enqueue_write(q0, b0, 0, &[0u32; 1024], &[]).unwrap();
        let base = clean.event_profile(e0).unwrap().duration_ns();

        let g = small_gpu();
        g.set_fault_plan(
            FaultPlan::new(
                3,
                FaultProfile {
                    stall_ns: 123_456,
                    ..FaultProfile::none()
                },
            )
            .inject_at(0, FaultKind::QueueStall),
        );
        let q = g.create_queue();
        let b = g.create_buffer(1024).unwrap();
        let ev = g.enqueue_write(q, b, 0, &[0u32; 1024], &[]).unwrap();
        let stalled = g.event_profile(ev).unwrap().duration_ns();
        assert_eq!(stalled, base + 123_456);
        assert_eq!(g.fault_stats().queue_stalls, 1);
    }

    #[test]
    fn device_loss_fails_every_subsequent_command() {
        use snp_faults::{FaultKind, FaultPlan, FaultProfile};
        let g = small_gpu();
        g.set_fault_plan(FaultPlan::new(
            0,
            FaultProfile {
                device_loss_at: Some(2),
                ..FaultProfile::none()
            },
        ));
        let q = g.create_queue();
        let b = g.create_buffer(8).unwrap();
        let _ = g.enqueue_write(q, b, 0, &[1], &[]).unwrap();
        let _ = g.enqueue_write(q, b, 1, &[2], &[]).unwrap();
        for _ in 0..3 {
            let err = g.enqueue_write(q, b, 2, &[3], &[]).unwrap_err();
            match err {
                SimError::DeviceFault(f) => assert_eq!(f.kind, FaultKind::DeviceLoss),
                other => panic!("expected loss, got {other:?}"),
            }
        }
        assert!(g.device_lost());
        assert_eq!(g.fault_stats().device_losses, 1);
        // Reads fail too; the buffer contents written before the loss are
        // still reachable only through recovery (CPU fallback), not here.
        let mut out = [0u32; 1];
        assert!(g.enqueue_read(q, b, 0, &mut out, &[], true).is_err());
    }

    #[test]
    fn checksum_read_is_timed_and_logged() {
        let g = small_gpu();
        let q = g.create_queue();
        let b = g.create_buffer(16).unwrap();
        let w = g.enqueue_write(q, b, 0, &[7u32; 16], &[]).unwrap();
        let before = g.now_ns();
        let (sum, ev) = g.enqueue_checksum_read(q, b, 0, 16, &[w]).unwrap();
        assert_eq!(sum, snp_faults::checksum_words(&[7u32; 16]));
        assert!(g.now_ns() > before, "blocking checksum advances the host");
        let p = g.event_profile(ev).unwrap();
        assert!(p.duration_ns() >= g.spec().transfer.transfer_latency_ns);
        let log = g.command_log();
        let rec = log.commands.last().unwrap();
        assert_eq!(rec.kind, CommandKind::Read);
        assert_eq!(rec.reads.len(), 1);
        // Virtual buffers have nothing to sum.
        let v = g.create_virtual_buffer(16).unwrap();
        assert!(g.enqueue_checksum_read(q, v, 0, 16, &[]).is_err());
    }

    #[test]
    fn cost_scale_rescales_kernel_and_transfer_durations() {
        let durations = |scale: Option<CostScale>| {
            let g = small_gpu();
            if let Some(s) = scale {
                g.set_cost_scale(s);
            }
            let q = g.create_queue();
            let b = g.create_buffer(1024).unwrap();
            let w = g.enqueue_write(q, b, 0, &[0u32; 1024], &[]).unwrap();
            let cost = KernelCost::Analytic {
                core_cycles: 1_000_000.0,
                active_cores: 4,
                traffic: Traffic::default(),
            };
            let k = g.enqueue_kernel(q, &cost, &[], b, &[w], |_, _| {}).unwrap();
            g.finish_all();
            (
                g.event_profile(w).unwrap().duration_ns(),
                g.event_profile(k).unwrap().duration_ns(),
            )
        };
        let (w1, k1) = durations(None);
        let (w2, k2) = durations(Some(CostScale {
            kernel: 0.5,
            transfer: 2.0,
        }));
        assert_eq!(w2, 2 * w1, "transfer doubled");
        assert_eq!(k2, ((k1 as f64) * 0.5).round() as u64, "kernel halved");
        // The identity scale is bit-exact with no scale at all.
        assert_eq!(durations(Some(CostScale::default())), (w1, k1));
        assert!(CostScale::default().is_identity());
    }
}
