//! Multi-GPU execution — the paper's §VII direction: "our framework can be
//! extended to handle even larger problem sizes … on multi-GPU systems such
//! as the DGX-2 … the increased number of functional units (especially the
//! population count instruction) and the collective memory on the GPUs would
//! facilitate the storage of even larger datasets".
//!
//! The database (`n`) dimension is sharded across devices proportionally to
//! each device's sustained kernel rate, every shard runs the unmodified
//! single-device pipeline concurrently (device clocks are independent; the
//! host packs per-shard streams in parallel with device work exactly as in
//! the single-GPU case), and `γ` shards are concatenated. Sharding `n`
//! requires no inter-device communication beyond the ordinary host
//! transfers — each output column block depends on one shard only — which is
//! why it is the natural first multi-GPU decomposition (the paper's
//! "distributed-memory computing" concern arises only when `k` is split).

use snp_bitmat::{BitMatrix, CountMatrix};
use snp_cpu::CpuEngine;
use snp_faults::{FaultKind, FaultPlan};
use snp_gpu_model::config::Algorithm;
use snp_gpu_model::peak::peak;
use snp_gpu_model::DeviceSpec;

use snp_trace::{TimeDomain, Tracer};

use crate::autoconf::compare_op;
use crate::engine::{EngineError, EngineOptions, GpuEngine, RunReport, Timing};
use crate::recovery::metrics;

/// A multi-device engine: one [`GpuEngine`] per shard.
#[derive(Debug, Clone)]
pub struct MultiGpuEngine {
    devices: Vec<DeviceSpec>,
    options: EngineOptions,
    /// Optional per-device fault plan (index-aligned with `devices`);
    /// shorter vectors leave trailing devices fault-free.
    device_faults: Vec<Option<FaultPlan>>,
    tracer: Tracer,
}

/// Report of a sharded run.
#[derive(Debug, Clone)]
pub struct MultiRunReport {
    /// Concatenated `γ` (None in timing-only mode).
    pub gamma: Option<CountMatrix>,
    /// Per-device reports, in device order.
    pub per_device: Vec<RunReport>,
    /// Database rows assigned to each device.
    pub shard_rows: Vec<usize>,
    /// End-to-end time of the slowest device — the wall clock of the
    /// concurrent execution.
    pub end_to_end_ns: u64,
    /// Total word-ops across shards.
    pub word_ops: u128,
    /// Devices that were permanently lost mid-run (their shards were
    /// re-sharded onto survivors or finished on the CPU).
    pub lost_devices: Vec<usize>,
    /// Database rows that had to fail over off a lost device.
    pub failover_rows: usize,
}

impl MultiGpuEngine {
    /// Builds an engine over `devices` (at least one).
    pub fn new(devices: Vec<DeviceSpec>) -> Self {
        assert!(!devices.is_empty(), "need at least one device");
        MultiGpuEngine {
            devices,
            options: EngineOptions::default(),
            device_faults: Vec::new(),
            tracer: Tracer::disabled(),
        }
    }

    /// Overrides the per-shard engine options.
    pub fn with_options(mut self, options: EngineOptions) -> Self {
        self.options = options;
        self
    }

    /// Records every shard's spans — and the failover scheduler's own loss
    /// and re-shard spans — onto `tracer`. When the handle carries a
    /// [`snp_trace::QueryCtx`], all of them are attributed to that query.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Arms per-device fault plans (index-aligned with the device list; a
    /// shorter vector leaves the remaining devices fault-free). A device
    /// whose plan triggers permanent loss has its shard re-sharded onto the
    /// surviving devices; if every device is lost the run falls back to the
    /// CPU engine (when the recovery policy allows it).
    pub fn with_device_faults(mut self, plans: Vec<Option<FaultPlan>>) -> Self {
        self.device_faults = plans;
        self
    }

    /// The devices in use.
    pub fn devices(&self) -> &[DeviceSpec] {
        &self.devices
    }

    /// Splits `n` database rows across the devices proportionally to their
    /// sustained kernel rate for `algorithm` (a faster card gets a larger
    /// shard so all shards finish together). Every shard is non-empty while
    /// rows remain; granularity is one row.
    pub fn shard_rows(&self, n: usize, algorithm: Algorithm) -> Vec<usize> {
        let rates: Vec<f64> = self
            .devices
            .iter()
            .map(|d| {
                let kind = algorithm.word_op(false);
                peak(d, kind).word_ops_per_sec * d.memory.core_scaling_efficiency(d.n_cores)
            })
            .collect();
        let total: f64 = rates.iter().sum();
        let mut shards: Vec<usize> = rates
            .iter()
            .map(|r| (n as f64 * r / total) as usize)
            .collect();
        // Distribute the rounding remainder to the fastest devices.
        let assigned: usize = shards.iter().sum();
        let mut remainder = n - assigned;
        let mut order: Vec<usize> = (0..shards.len()).collect();
        order.sort_by(|&a, &b| rates[b].partial_cmp(&rates[a]).unwrap());
        let mut i = 0usize;
        while remainder > 0 {
            shards[order[i % order.len()]] += 1;
            remainder -= 1;
            i += 1;
        }
        shards
    }

    /// An empty per-device report used for zero-row and lost shards so
    /// `per_device` indices always line up with the device list.
    fn placeholder_report(
        &self,
        dev: &DeviceSpec,
        a: &BitMatrix<u64>,
        algorithm: Algorithm,
    ) -> RunReport {
        RunReport {
            gamma: None,
            timing: Timing::default(),
            word_ops: 0,
            passes: 0,
            config: crate::autoconf::config_for(
                dev,
                algorithm,
                snp_gpu_model::config::ProblemShape {
                    m: a.rows(),
                    n: 1,
                    k_words: 2 * a.words_per_row(),
                },
            ),
            kernel_word_ops_per_sec: 0.0,
            verify_report: None,
            recovery: None,
            kernel_profiles: None,
        }
    }

    /// Runs one shard `b[lo..lo+rows)` on device `dev`, optionally with a
    /// fault plan armed. Loss must surface here (never CPU-fallback inside
    /// the shard) so the multi-engine can fail over to other devices first.
    #[allow(clippy::too_many_arguments)]
    fn run_shard(
        &self,
        dev: &DeviceSpec,
        faults: Option<&FaultPlan>,
        a: &BitMatrix<u64>,
        b: &BitMatrix<u64>,
        lo: usize,
        rows: usize,
        algorithm: Algorithm,
    ) -> Result<RunReport, EngineError> {
        // Timing-only shards need only the shape, not a copy of the rows.
        let shard = match self.options.mode {
            crate::engine::ExecMode::Full => b.row_slice(lo, lo + rows),
            crate::engine::ExecMode::TimingOnly => {
                BitMatrix::zeros_padded(rows, b.cols(), b.words_per_row())
            }
        };
        let mut opts = self.options;
        if faults.is_some() {
            opts.recovery.cpu_fallback = false;
        }
        let mut engine = GpuEngine::new(dev.clone())
            .with_options(opts)
            .with_tracer(self.tracer.clone());
        if let Some(plan) = faults {
            engine = engine.with_fault_plan(plan.clone());
        }
        engine.compare(a, &shard, algorithm)
    }

    /// Runs `algorithm` on `a × bᵀ`, sharding `b` across the devices. A
    /// device whose fault plan declares permanent loss mid-shard has its
    /// rows re-sharded proportionally onto the surviving devices; if no
    /// device survives, the remaining rows run on the CPU engine (full mode
    /// with `recovery.cpu_fallback` enabled) or the loss surfaces as a
    /// typed error.
    pub fn compare(
        &self,
        a: &BitMatrix<u64>,
        b: &BitMatrix<u64>,
        algorithm: Algorithm,
    ) -> Result<MultiRunReport, EngineError> {
        let shard_rows = self.shard_rows(b.rows(), algorithm);
        let mut per_device = Vec::with_capacity(self.devices.len());
        let mut gamma = match self.options.mode {
            crate::engine::ExecMode::Full => Some(CountMatrix::zeros(a.rows(), b.rows())),
            crate::engine::ExecMode::TimingOnly => None,
        };
        let mut lo = 0usize;
        let mut end_to_end = 0u64;
        let mut word_ops = 0u128;
        let mut lost_devices: Vec<usize> = Vec::new();
        let mut orphaned: Vec<(usize, usize)> = Vec::new(); // (lo, rows)
        let mut lost_err: Option<EngineError> = None;
        for (di, (dev, &rows)) in self.devices.iter().zip(&shard_rows).enumerate() {
            if rows == 0 {
                per_device.push(self.placeholder_report(dev, a, algorithm));
                continue;
            }
            let faults = self.device_faults.get(di).and_then(|p| p.as_ref());
            match self.run_shard(dev, faults, a, b, lo, rows, algorithm) {
                Ok(run) => {
                    if let (Some(g), Some(shard_g)) = (gamma.as_mut(), run.gamma.as_ref()) {
                        for r in 0..a.rows() {
                            g.row_mut(r)[lo..lo + rows].copy_from_slice(shard_g.row(r));
                        }
                    }
                    end_to_end = end_to_end.max(run.timing.end_to_end_ns);
                    word_ops += run.word_ops;
                    per_device.push(run);
                }
                Err(e)
                    if e.device_fault()
                        .is_some_and(|f| f.kind == FaultKind::DeviceLoss) =>
                {
                    lost_devices.push(di);
                    orphaned.push((lo, rows));
                    lost_err = Some(e);
                    per_device.push(self.placeholder_report(dev, a, algorithm));
                }
                Err(e) => return Err(e),
            }
            lo += rows;
        }

        // Failover: re-shard every orphaned range onto the survivors
        // (fault-free — a lost device's plan governed its own stream only).
        let failover_rows: usize = orphaned.iter().map(|&(_, r)| r).sum();
        if failover_rows > 0 {
            metrics::FAILOVER_ROWS.add(failover_rows as u64);
            let sched_track = self
                .tracer
                .is_enabled()
                .then(|| self.tracer.track("multi · failover", TimeDomain::Virtual));
            if let Some(track) = sched_track {
                for &di in &lost_devices {
                    self.tracer.span_with(
                        track,
                        "fault",
                        format!("device lost: {}", self.devices[di].name),
                        end_to_end,
                        end_to_end,
                        vec![("device", self.devices[di].name.as_str().into())],
                    );
                }
            }
            let survivors: Vec<usize> = (0..self.devices.len())
                .filter(|i| !lost_devices.contains(i))
                .collect();
            if survivors.is_empty() {
                // Every device is gone: the CPU engine is the last resort.
                let full = self.options.mode == crate::engine::ExecMode::Full;
                if !(self.options.recovery.cpu_fallback && full) {
                    return Err(lost_err.expect("loss recorded with its error"));
                }
                let cpu = CpuEngine::new();
                let op = compare_op(algorithm, self.options.mixture);
                let g = gamma.as_mut().expect("full mode");
                for &(olo, orows) in &orphaned {
                    metrics::CPU_FALLBACK_CHUNKS.add(1);
                    let sub = cpu.gamma(a, &b.row_slice(olo, olo + orows), op);
                    for r in 0..a.rows() {
                        g.row_mut(r)[olo..olo + orows].copy_from_slice(sub.row(r));
                    }
                }
                if let Some(track) = sched_track {
                    self.tracer.span_with(
                        track,
                        "fallback",
                        "cpu fallback (all devices lost)",
                        end_to_end,
                        end_to_end,
                        vec![("rows", failover_rows.into())],
                    );
                }
            } else {
                let sub_engine = MultiGpuEngine::new(
                    survivors.iter().map(|&i| self.devices[i].clone()).collect(),
                )
                .with_options(self.options);
                for &(olo, orows) in &orphaned {
                    let splits = sub_engine.shard_rows(orows, algorithm);
                    let mut slo = olo;
                    for (si, &srows) in splits.iter().enumerate() {
                        if srows == 0 {
                            continue;
                        }
                        let dev = &self.devices[survivors[si]];
                        let run = self.run_shard(dev, None, a, b, slo, srows, algorithm)?;
                        if let (Some(g), Some(shard_g)) = (gamma.as_mut(), run.gamma.as_ref()) {
                            for r in 0..a.rows() {
                                g.row_mut(r)[slo..slo + srows].copy_from_slice(shard_g.row(r));
                            }
                        }
                        // Failover work is serialized after the first wave.
                        let rerun_start = end_to_end;
                        end_to_end = end_to_end.saturating_add(run.timing.end_to_end_ns);
                        if let Some(track) = sched_track {
                            self.tracer.span_with(
                                track,
                                "failover",
                                format!("re-shard {srows} rows -> {}", dev.name),
                                rerun_start,
                                end_to_end,
                                vec![("rows", srows.into()), ("device", dev.name.as_str().into())],
                            );
                        }
                        word_ops += run.word_ops;
                        slo += srows;
                    }
                }
            }
        }
        Ok(MultiRunReport {
            gamma,
            per_device,
            shard_rows,
            end_to_end_ns: end_to_end,
            word_ops,
            lost_devices,
            failover_rows,
        })
    }

    /// FastID identity search across the device group.
    pub fn identity_search(
        &self,
        queries: &BitMatrix<u64>,
        database: &BitMatrix<u64>,
    ) -> Result<MultiRunReport, EngineError> {
        self.compare(queries, database, Algorithm::IdentitySearch)
    }
}

/// A DGX-2-like system: sixteen Volta-class devices (the paper names the
/// DGX-2 explicitly as the §VII target platform). The per-device model is
/// the Titan V entry; interconnect differences are outside the model, since
/// `n`-sharding never communicates between devices.
pub fn dgx2_like() -> Vec<DeviceSpec> {
    (0..16)
        .map(|i| {
            let mut d = snp_gpu_model::devices::titan_v();
            d.name = format!("Titan V #{i}");
            d
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExecMode;
    use crate::MixtureStrategy;
    use snp_bitmat::reference_gamma;
    use snp_bitmat::CompareOp;
    use snp_gpu_model::devices;

    fn matrix(rows: usize, cols: usize, salt: usize) -> BitMatrix<u64> {
        BitMatrix::from_fn(rows, cols, |r, c| (r * 13 + c * 7 + salt) % 5 < 2)
    }

    fn timing_only() -> EngineOptions {
        EngineOptions {
            mode: ExecMode::TimingOnly,
            double_buffer: true,
            mixture: MixtureStrategy::Direct,
            ..Default::default()
        }
    }

    #[test]
    fn sharded_results_match_single_device() {
        let a = matrix(24, 600, 1);
        let b = matrix(300, 600, 2);
        let single = GpuEngine::new(devices::titan_v())
            .identity_search(&a, &b)
            .unwrap();
        let multi = MultiGpuEngine::new(vec![devices::titan_v(), devices::titan_v()])
            .identity_search(&a, &b)
            .unwrap();
        assert_eq!(
            multi
                .gamma
                .unwrap()
                .first_mismatch(single.gamma.as_ref().unwrap()),
            None
        );
        assert_eq!(
            multi.shard_rows,
            vec![150, 150],
            "equal devices share equally"
        );
    }

    #[test]
    fn heterogeneous_devices_shard_proportionally() {
        let eng = MultiGpuEngine::new(vec![devices::gtx_980(), devices::titan_v()]);
        let shards = eng.shard_rows(10_000, Algorithm::IdentitySearch);
        assert_eq!(shards.iter().sum::<usize>(), 10_000);
        // Titan V sustains ~2.9x the GTX 980's effective rate.
        let ratio = shards[1] as f64 / shards[0] as f64;
        assert!((2.0..4.0).contains(&ratio), "shard ratio {ratio}");
    }

    #[test]
    fn heterogeneous_results_are_still_exact() {
        let a = matrix(16, 500, 3);
        let b = matrix(420, 500, 4);
        let multi = MultiGpuEngine::new(devices::all_gpus())
            .identity_search(&a, &b)
            .unwrap();
        let want = reference_gamma(&a, &b, CompareOp::Xor);
        assert_eq!(multi.gamma.unwrap().first_mismatch(&want), None);
        assert_eq!(multi.per_device.len(), devices::all_gpus().len());
    }

    #[test]
    fn dgx2_scales_fastid_throughput() {
        let queries = BitMatrix::<u64>::zeros(32, 1024);
        let database = BitMatrix::<u64>::zeros(2_097_152, 1024);
        let one = MultiGpuEngine::new(vec![devices::titan_v()])
            .with_options(timing_only())
            .identity_search(&queries, &database)
            .unwrap();
        let sixteen = MultiGpuEngine::new(dgx2_like())
            .with_options(timing_only())
            .identity_search(&queries, &database)
            .unwrap();
        assert!(
            sixteen.end_to_end_ns < one.end_to_end_ns,
            "16 devices must beat 1: {} vs {}",
            sixteen.end_to_end_ns,
            one.end_to_end_ns
        );
        // End-to-end gains are bounded by the unsharded runtime-init cost
        // (every device still pays its ~150 ms), but device-side work —
        // kernels and transfers — must scale nearly linearly.
        let single_busy =
            one.per_device[0].timing.kernel_ns + one.per_device[0].timing.transfer_in_ns;
        let max_shard_busy = sixteen
            .per_device
            .iter()
            .map(|r| r.timing.kernel_ns + r.timing.transfer_in_ns)
            .max()
            .unwrap();
        let device_speedup = single_busy as f64 / max_shard_busy as f64;
        assert!(
            device_speedup > 12.0,
            "device-side work should shard ~16x, got {device_speedup:.1}x"
        );
    }

    #[test]
    fn tiny_databases_leave_slow_devices_idle_but_correct() {
        let a = matrix(8, 200, 5);
        let b = matrix(3, 200, 6); // fewer rows than devices x proportionality
        let multi = MultiGpuEngine::new(devices::all_gpus())
            .identity_search(&a, &b)
            .unwrap();
        assert_eq!(multi.shard_rows.iter().sum::<usize>(), 3);
        let want = reference_gamma(&a, &b, CompareOp::Xor);
        assert_eq!(multi.gamma.unwrap().first_mismatch(&want), None);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_device_list_rejected() {
        let _ = MultiGpuEngine::new(vec![]);
    }
}
