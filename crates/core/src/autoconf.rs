//! Configuration selection: the "configuration header" of the framework.
//!
//! The paper configures its parameterized OpenCL kernel through a header of
//! C macros holding `m_c, m_r, k_c, n_r` plus the core grid (§V). Here the
//! same role is played by [`KernelConfig`]: users either take a Table II
//! preset for the evaluated devices or let the analytical model (Eqs. 4–7)
//! derive values for a new device from its hardware features alone.

use snp_bitmat::CompareOp;
use snp_gpu_model::config::{derive_config, Algorithm, KernelConfig, McRule, ProblemShape};
use snp_gpu_model::presets::preset_for;
use snp_gpu_model::{DeviceSpec, WordOpKind};

/// How the engine executes mixture analysis (paper §II-C, §VI-E-1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixtureStrategy {
    /// Emit the AND-NOT comparison directly. One fused logic issue on
    /// NVIDIA; an extra NOT on the shared Vega VALU pipe (Fig. 9).
    Direct,
    /// Pre-negate the database on the host so the kernel runs plain AND —
    /// "mixture analysis reduces down to the same computation as linkage
    /// disequilibrium".
    PreNegate,
}

impl MixtureStrategy {
    /// The strategy for `dev` (§VI-E-1): AND-NOT directly where the ISA
    /// fuses it into one logic instruction, pre-negation where it would
    /// cost a separate NOT.
    pub fn for_device(dev: &DeviceSpec) -> MixtureStrategy {
        if dev.fused_andnot {
            MixtureStrategy::Direct
        } else {
            MixtureStrategy::PreNegate
        }
    }
}

/// Chooses the kernel configuration for a device/algorithm/problem triple:
/// the Table II preset when the device is one of the paper's three, else the
/// analytical derivation. The returned configuration is always validated
/// against the device.
pub fn config_for(dev: &DeviceSpec, algorithm: Algorithm, shape: ProblemShape) -> KernelConfig {
    let mut cfg =
        preset_for(dev, algorithm).unwrap_or_else(|| derive_config(dev, shape, McRule::Banks));
    // The preset grids assume problems large enough to occupy every core;
    // shrink the grid when the problem offers fewer tiles.
    let tiles_m = shape.m.div_ceil(cfg.m_c).max(1) as u32;
    let tiles_n = shape.n.div_ceil(cfg.n_r).max(1) as u32;
    cfg.grid_m = cfg.grid_m.min(tiles_m);
    cfg.grid_n = cfg.grid_n.min(tiles_n);
    let viol = cfg.violations(dev);
    assert!(
        viol.is_empty(),
        "{}: invalid configuration {cfg:?}: {viol:?}",
        dev.name
    );
    cfg
}

/// The word-level operator for an algorithm under a mixture strategy.
pub fn compare_op(algorithm: Algorithm, mixture: MixtureStrategy) -> CompareOp {
    match algorithm {
        Algorithm::LinkageDisequilibrium => CompareOp::And,
        Algorithm::IdentitySearch => CompareOp::Xor,
        Algorithm::MixtureAnalysis => match mixture {
            MixtureStrategy::Direct => CompareOp::AndNot,
            MixtureStrategy::PreNegate => CompareOp::And,
        },
    }
}

/// Maps a [`CompareOp`] onto the timing-model operator flavor.
pub fn word_op_kind(op: CompareOp) -> WordOpKind {
    match op {
        CompareOp::And => WordOpKind::And,
        CompareOp::Xor => WordOpKind::Xor,
        CompareOp::AndNot => WordOpKind::AndNot,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snp_gpu_model::devices;

    fn big_ld() -> ProblemShape {
        ProblemShape {
            m: 10_000,
            n: 10_000,
            k_words: 320,
        }
    }

    #[test]
    fn evaluated_devices_get_table2_presets() {
        let dev = devices::titan_v();
        let cfg = config_for(&dev, Algorithm::LinkageDisequilibrium, big_ld());
        assert_eq!(
            (cfg.n_r, cfg.k_c, cfg.grid_m, cfg.grid_n),
            (1024, 383, 80, 1)
        );
    }

    #[test]
    fn small_problems_shrink_the_grid() {
        let dev = devices::titan_v();
        let tiny = ProblemShape {
            m: 64,
            n: 2048,
            k_words: 32,
        };
        let cfg = config_for(&dev, Algorithm::IdentitySearch, tiny);
        assert_eq!(cfg.grid_m, 1);
        assert_eq!(cfg.grid_n, 2); // only 2 n_r tiles available
    }

    #[test]
    fn unknown_device_uses_analytical_model() {
        let mut dev = devices::gtx_980();
        dev.name = "GTX 1070".to_string(); // not in Table II
        let cfg = config_for(&dev, Algorithm::LinkageDisequilibrium, big_ld());
        assert!(cfg.violations(&dev).is_empty());
        assert_eq!(cfg.m_r, dev.n_vec as usize);
        assert_eq!(cfg.k_c, 383);
    }

    #[test]
    fn compare_op_selection() {
        use Algorithm::*;
        assert_eq!(
            compare_op(LinkageDisequilibrium, MixtureStrategy::Direct),
            CompareOp::And
        );
        assert_eq!(
            compare_op(IdentitySearch, MixtureStrategy::PreNegate),
            CompareOp::Xor
        );
        assert_eq!(
            compare_op(MixtureAnalysis, MixtureStrategy::Direct),
            CompareOp::AndNot
        );
        assert_eq!(
            compare_op(MixtureAnalysis, MixtureStrategy::PreNegate),
            CompareOp::And
        );
        // NVIDIA's LOP3 fuses AND-NOT; Vega pays a separate NOT.
        assert_eq!(
            MixtureStrategy::for_device(&devices::titan_v()),
            MixtureStrategy::Direct
        );
        assert_eq!(
            MixtureStrategy::for_device(&devices::vega_64()),
            MixtureStrategy::PreNegate
        );
    }

    #[test]
    fn word_op_kind_roundtrip() {
        assert_eq!(word_op_kind(CompareOp::And), WordOpKind::And);
        assert_eq!(word_op_kind(CompareOp::Xor), WordOpKind::Xor);
        assert_eq!(word_op_kind(CompareOp::AndNot), WordOpKind::AndNot);
    }
}
