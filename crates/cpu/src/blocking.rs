//! CPU blocking parameters and their analytical derivation.
//!
//! Alachiotis et al. \[11\] obtained their high-performance CPU implementation
//! by swapping the BLIS microkernel for a popcount variant and keeping the
//! five-loop blocked structure (paper §III, Fig. 3). The blocking values
//! follow the analytical model of Low et al. \[21\]: register blocks sized by
//! latency-throughput balance of the bottleneck unit, cache blocks sized so
//! the packed panels occupy fixed fractions of each cache level.

/// Register and cache blocking for the CPU popcount-GEMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuBlocking {
    /// Register-block rows (A panel height). Fixed at compile time by the
    /// microkernel; this field documents the value in use.
    pub m_r: usize,
    /// Register-block columns (B panel height).
    pub n_r: usize,
    /// Shared-dimension words per cache block (packed panels resident in L1).
    pub k_c: usize,
    /// A-block rows per cache block (Ã resident in L2).
    pub m_c: usize,
    /// Widest tile of γ, in columns (its `n_c × k_c` B block: half of L3).
    pub n_c: usize,
}

/// Cache hierarchy description used to derive blocking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheParams {
    /// L1 data cache per core in bytes.
    pub l1_bytes: usize,
    /// L2 cache per core in bytes.
    pub l2_bytes: usize,
    /// Shared L3 in bytes.
    pub l3_bytes: usize,
    /// Word size in bytes (8 for the u64 engine).
    pub word_bytes: usize,
}

impl Default for CacheParams {
    fn default() -> Self {
        // Conservative modern-x86 defaults (and the Ivy Bridge sizes of the
        // paper's reference workstation).
        CacheParams {
            l1_bytes: 32 << 10,
            l2_bytes: 256 << 10,
            l3_bytes: 15 << 20,
            word_bytes: 8,
        }
    }
}

/// The compile-time microkernel shape: an 8 × 4 tile of `u32` accumulators.
///
/// Eight A words against four B words yields 32 independent
/// AND→POPCNT→ADD chains, enough to cover the 3-cycle POPCNT latency of the
/// model CPU (Table I) several times over. The registers they live in
/// depend on the popcount tier ([`crate::microkernel::Tier`]):
///
/// * `vpopcntq`: the `MR` A words of a shared-dimension step fill one
///   512-bit zmm register and each of the `NR` B words is broadcast to one.
///   The tile is four zmm registers of u64 counts, one per B column with
///   one lane per A row. After a panel's `k` steps, four permutes turn
///   them into `MR` rows of `NR` u32 counts, one 128-bit lane each, and
///   each row is added into its γ row segment with one vector add.
/// * `avx2` and `portable`: the `NR` B words of a step are one
///   [`crate::simd::W64x4`] (one ymm register under AVX2, two xmm registers
///   on baseline x86-64). Each A word is splatted across it, and one 8-step
///   Harley–Seal tree yields a row's four column counts into a u32 tile,
///   which is added into γ once per panel.
pub const MR: usize = 8;
/// See [`MR`].
pub const NR: usize = 4;

impl CpuBlocking {
    /// Derives blocking from cache sizes per the Low et al. recipe:
    ///
    /// * `k_c`: the `m_r × k_c` A panel plus `n_r × k_c` B panel fill half
    ///   of L1;
    /// * `m_c`: the `m_c × k_c` packed Ã fills half of L2;
    /// * `n_c`: the `n_c × k_c` block of B a tile reads fills half of L3.
    pub fn from_caches(c: CacheParams) -> Self {
        let k_c = (c.l1_bytes / 2 / ((MR + NR) * c.word_bytes)).max(16);
        let m_c = (c.l2_bytes / 2 / (k_c * c.word_bytes))
            .next_multiple_of(MR)
            .max(MR);
        let n_c = (c.l3_bytes / 2 / (k_c * c.word_bytes))
            .next_multiple_of(NR)
            .max(NR);
        CpuBlocking {
            m_r: MR,
            n_r: NR,
            k_c,
            m_c,
            n_c,
        }
    }

    /// The default blocking for this machine class.
    pub fn default_params() -> Self {
        Self::from_caches(CacheParams::default())
    }

    /// Validates divisibility and sanity; returns violations (empty = ok).
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if self.m_r != MR || self.n_r != NR {
            v.push(format!(
                "register blocks must match the compiled microkernel ({MR} x {NR}), got {} x {}",
                self.m_r, self.n_r
            ));
        }
        if !self.m_c.is_multiple_of(self.m_r) {
            v.push(format!(
                "m_c {} must be a multiple of m_r {}",
                self.m_c, self.m_r
            ));
        }
        if !self.n_c.is_multiple_of(self.n_r) {
            v.push(format!(
                "n_c {} must be a multiple of n_r {}",
                self.n_c, self.n_r
            ));
        }
        for (name, value) in [("k_c", self.k_c), ("m_c", self.m_c), ("n_c", self.n_c)] {
            if value == 0 {
                v.push(format!("{name} must be positive"));
            }
        }
        v
    }
}

impl Default for CpuBlocking {
    fn default() -> Self {
        Self::default_params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_blocking_is_valid() {
        let b = CpuBlocking::default();
        assert!(b.violations().is_empty(), "{:?}", b.violations());
        assert_eq!(b.m_r, MR);
        assert_eq!(b.n_r, NR);
    }

    #[test]
    fn panels_fit_their_cache_levels() {
        let c = CacheParams::default();
        let b = CpuBlocking::from_caches(c);
        let panel_bytes = (MR + NR) * b.k_c * c.word_bytes;
        assert!(panel_bytes <= c.l1_bytes / 2 + (MR + NR) * c.word_bytes);
        assert!(b.m_c * b.k_c * c.word_bytes <= c.l2_bytes / 2 + MR * b.k_c * c.word_bytes);
        assert!(b.n_c * b.k_c * c.word_bytes <= c.l3_bytes / 2 + NR * b.k_c * c.word_bytes);
    }

    #[test]
    fn tiny_caches_still_produce_usable_blocking() {
        let b = CpuBlocking::from_caches(CacheParams {
            l1_bytes: 1 << 10,
            l2_bytes: 4 << 10,
            l3_bytes: 16 << 10,
            word_bytes: 8,
        });
        assert!(b.violations().is_empty(), "{:?}", b.violations());
        assert!(b.k_c >= 16 && b.m_c >= MR && b.n_c >= NR);
    }

    #[test]
    fn violations_detected() {
        let b = CpuBlocking {
            m_c: MR + 1,
            ..CpuBlocking::default()
        };
        assert!(!b.violations().is_empty());
        let b2 = CpuBlocking {
            m_r: 2,
            ..CpuBlocking::default()
        };
        assert!(!b2.violations().is_empty());
        // Zero is a multiple of every register block, so these need their
        // own checks: a zero m_c or n_c would reach the loop nest as a zero
        // step.
        for zero in [
            CpuBlocking {
                m_c: 0,
                ..CpuBlocking::default()
            },
            CpuBlocking {
                n_c: 0,
                ..CpuBlocking::default()
            },
            CpuBlocking {
                k_c: 0,
                ..CpuBlocking::default()
            },
        ] {
            assert_eq!(zero.violations().len(), 1, "{zero:?}");
        }
    }
}
