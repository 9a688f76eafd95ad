//! The modeled CPU reference for end-to-end comparisons.
//!
//! Fig. 6's CPU line is not re-measured by the paper — it is "taken from
//! \[11\]", i.e. the Xeon E5-2620 v2 workstation running the BLIS-based LD
//! implementation at 80–90 % of its theoretical popcount peak. We model it
//! the same way: time = word-ops ÷ (peak × efficiency). The *runnable* CPU
//! engine (`snp-cpu`) exists separately and is benchmarked by `perfbench` on
//! the host machine; this model exists so GPU-vs-CPU comparisons use the
//! paper's machine, not ours.

use snp_gpu_model::peak::peak;
use snp_gpu_model::{devices, DeviceSpec, WordOpKind};

/// An analytically modeled CPU.
#[derive(Debug, Clone)]
pub struct CpuModel {
    spec: DeviceSpec,
    efficiency: f64,
}

impl CpuModel {
    /// The paper's reference workstation at the mid-point of the 80–90 %
    /// efficiency range \[11\] reports.
    pub fn ivy_bridge_workstation() -> Self {
        CpuModel {
            spec: devices::xeon_e5_2620_v2(),
            efficiency: 0.85,
        }
    }

    /// A model from an arbitrary spec and efficiency in `(0, 1]`.
    pub fn new(spec: DeviceSpec, efficiency: f64) -> Self {
        assert!(
            efficiency > 0.0 && efficiency <= 1.0,
            "efficiency {efficiency} outside (0, 1]"
        );
        CpuModel { spec, efficiency }
    }

    /// The underlying device spec.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Sustained word-op rate (native CPU words) in ops/second.
    pub fn sustained_word_ops_per_sec(&self, kind: WordOpKind) -> f64 {
        peak(&self.spec, kind).word_ops_per_sec * self.efficiency
    }

    /// Modeled execution time for `m × n` comparisons over `k_words_native`
    /// CPU words (64-bit on the reference machine), in nanoseconds. The data
    /// is host-resident, so no transfer or initialization cost applies.
    pub fn time_ns(&self, kind: WordOpKind, m: usize, n: usize, k_words_native: usize) -> f64 {
        let ops = m as f64 * n as f64 * k_words_native as f64;
        ops / self.sustained_word_ops_per_sec(kind) * 1e9
    }

    /// Convenience: modeled time for an operand with `bit_cols` sites.
    pub fn time_ns_for_bits(&self, kind: WordOpKind, m: usize, n: usize, bit_cols: usize) -> f64 {
        let k = bit_cols.div_ceil(self.spec.word_bits as usize);
        self.time_ns(kind, m, n, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_machine_rate() {
        let m = CpuModel::ivy_bridge_workstation();
        // 25.2 G word64-ops/s x 0.85 = 21.42 G/s.
        let r = m.sustained_word_ops_per_sec(WordOpKind::And);
        assert!((r / 1e9 - 21.42).abs() < 0.01, "got {}", r / 1e9);
    }

    #[test]
    fn time_scales_linearly() {
        let m = CpuModel::ivy_bridge_workstation();
        let t1 = m.time_ns(WordOpKind::And, 10_000, 10_000, 100);
        let t2 = m.time_ns(WordOpKind::And, 10_000, 10_000, 200);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn bit_columns_round_up_to_words() {
        let m = CpuModel::ivy_bridge_workstation();
        let a = m.time_ns_for_bits(WordOpKind::And, 10, 10, 65);
        let b = m.time_ns(WordOpKind::And, 10, 10, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn ten_k_snp_sanity() {
        // 10k x 10k SNPs over 10k samples (157 u64 words): ~0.73 s — the
        // order of magnitude of [11]'s reported times.
        let m = CpuModel::ivy_bridge_workstation();
        let t_s = m.time_ns_for_bits(WordOpKind::And, 10_000, 10_000, 10_000) * 1e-9;
        assert!(t_s > 0.4 && t_s < 1.5, "got {t_s}");
    }

    #[test]
    #[should_panic(expected = "efficiency")]
    fn bad_efficiency_rejected() {
        let _ = CpuModel::new(devices::xeon_e5_2620_v2(), 1.5);
    }
}
