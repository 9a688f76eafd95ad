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
//!
//! Shards are not failed over between devices: an error on any shard is the
//! run's error. Device loss is recovered inside one engine, by the
//! checkpointed schedule of [`GpuEngine::with_fault_plan`].

use snp_bitmat::{BitMatrix, CountMatrix};
use snp_gpu_model::config::Algorithm;
use snp_gpu_model::peak::peak;
use snp_gpu_model::DeviceSpec;

use snp_trace::{Metrics, Tracer};

use crate::engine::{EngineError, EngineOptions, ExecMode, GpuEngine, RunReport, Timing};

/// A multi-device engine: one [`GpuEngine`] per shard.
#[derive(Debug, Clone)]
pub struct MultiGpuEngine {
    devices: Vec<DeviceSpec>,
    options: EngineOptions,
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
}

impl MultiGpuEngine {
    /// Builds an engine over `devices` (at least one).
    pub fn new(devices: Vec<DeviceSpec>) -> Self {
        assert!(!devices.is_empty(), "need at least one device");
        MultiGpuEngine {
            devices,
            options: EngineOptions::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Overrides the per-shard engine options.
    pub fn with_options(mut self, options: EngineOptions) -> Self {
        self.options = options;
        self
    }

    /// Records every shard's spans onto `tracer`. When the handle carries a
    /// [`snp_trace::QueryCtx`], all of them are attributed to that query.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
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

    /// An empty per-device report used for zero-row shards so `per_device`
    /// indices always line up with the device list.
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
            kernel_bytes: 0,
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
            metrics: Metrics::new(),
        }
    }

    /// Runs one shard `b[lo..lo+rows)` on device `dev`.
    fn run_shard(
        &self,
        dev: &DeviceSpec,
        a: &BitMatrix<u64>,
        b: &BitMatrix<u64>,
        lo: usize,
        rows: usize,
        algorithm: Algorithm,
    ) -> Result<RunReport, EngineError> {
        // Timing-only shards need only the shape, not a copy of the rows.
        let shard = match self.options.mode {
            ExecMode::Full => b.row_slice(lo, lo + rows),
            ExecMode::TimingOnly => BitMatrix::zeros_padded(rows, b.cols(), b.words_per_row()),
        };
        GpuEngine::new(dev.clone())
            .with_options(self.options)
            .with_tracer(self.tracer.clone())
            .compare(a, &shard, algorithm)
    }

    /// Runs `algorithm` on `a × bᵀ`, sharding `b` across the devices. The
    /// first shard error is returned as the run's error.
    pub fn compare(
        &self,
        a: &BitMatrix<u64>,
        b: &BitMatrix<u64>,
        algorithm: Algorithm,
    ) -> Result<MultiRunReport, EngineError> {
        let shard_rows = self.shard_rows(b.rows(), algorithm);
        let mut per_device = Vec::with_capacity(self.devices.len());
        let mut lo = 0usize;
        let mut end_to_end = 0u64;
        let mut word_ops = 0u128;
        for (dev, &rows) in self.devices.iter().zip(&shard_rows) {
            if rows == 0 {
                per_device.push(self.placeholder_report(dev, a, algorithm));
                continue;
            }
            let run = self.run_shard(dev, a, b, lo, rows, algorithm)?;
            end_to_end = end_to_end.max(run.timing.end_to_end_ns);
            word_ops += run.word_ops;
            per_device.push(run);
            lo += rows;
        }
        // Each row of γ is the same row of every shard's γ, in device order;
        // zero-row placeholders hold none.
        let gamma = (self.options.mode == ExecMode::Full).then(|| {
            let mut cells = Vec::with_capacity(a.rows() * b.rows());
            for r in 0..a.rows() {
                for shard in per_device.iter().filter_map(|run| run.gamma.as_ref()) {
                    cells.extend_from_slice(shard.row(r));
                }
            }
            CountMatrix::from_vec(a.rows(), b.rows(), cells)
        });
        Ok(MultiRunReport {
            gamma,
            per_device,
            shard_rows,
            end_to_end_ns: end_to_end,
            word_ops,
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
    use crate::{compare_op, MixtureStrategy};
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
        for algorithm in [
            Algorithm::LinkageDisequilibrium,
            Algorithm::IdentitySearch,
            Algorithm::MixtureAnalysis,
        ] {
            // Pre-negation rewrites the database, not the count: every
            // strategy must match the algorithm's direct operator.
            let want = reference_gamma(&a, &b, compare_op(algorithm, MixtureStrategy::Direct));
            for mixture in [MixtureStrategy::Direct, MixtureStrategy::PreNegate] {
                let multi = MultiGpuEngine::new(devices::all_gpus())
                    .with_options(EngineOptions {
                        mode: ExecMode::Full,
                        mixture,
                        ..Default::default()
                    })
                    .compare(&a, &b, algorithm)
                    .unwrap();
                assert_eq!(
                    multi.gamma.unwrap().first_mismatch(&want),
                    None,
                    "{} under {mixture:?}",
                    algorithm.name()
                );
                assert_eq!(multi.per_device.len(), devices::all_gpus().len());
            }
        }
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
