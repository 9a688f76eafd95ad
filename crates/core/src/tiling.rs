//! Pass planning for devices whose global memory cannot hold the problem.
//!
//! "For GPUs that do not support matrices of the size required by the
//! database or resulting output matrix (e.g. the GTX 980), the problem must
//! be broken down into smaller tile sizes. This can be done naturally due to
//! the tiling approach taken in our framework." (paper §VI-E-2.)
//!
//! The planner splits the output into `m × n` passes such that, with double
//! buffering (two B buffers, two C staging buffers, two sink outputs), every
//! buffer respects `CL_DEVICE_MAX_MEM_ALLOC_SIZE` and the working set
//! respects total global memory. Chunk boundaries align to the blocking
//! factors so no pass ends in a partial register tile unless the matrix
//! itself does.

use snp_gpu_model::{DeviceSpec, KernelConfig};

/// A half-open row range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// First row.
    pub lo: usize,
    /// One past the last row.
    pub hi: usize,
}

impl Chunk {
    /// Rows in the chunk.
    pub fn len(&self) -> usize {
        self.hi - self.lo
    }

    /// Whether the chunk is empty.
    pub fn is_empty(&self) -> bool {
        self.lo >= self.hi
    }
}

/// A complete pass plan: the cross product of `m_chunks × n_chunks`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TilePlan {
    /// Chunks of the A (query/SNP) rows.
    pub m_chunks: Vec<Chunk>,
    /// Chunks of the B (database) rows.
    pub n_chunks: Vec<Chunk>,
    /// Shared dimension in device words.
    pub k_words: usize,
    /// Device words per A row that the sink's own kernel writes, in each
    /// slot beside C: 0 for the γ sink, `2k` for the top-k winners.
    pub sink_words_per_row: usize,
    /// Whether B/C and the sink output use two buffers each (double
    /// buffering).
    pub double_buffered: bool,
}

impl TilePlan {
    /// Number of passes (kernel launches).
    pub fn passes(&self) -> usize {
        self.m_chunks.len() * self.n_chunks.len()
    }

    /// Largest A-chunk buffer size in words.
    pub fn a_buffer_words(&self) -> usize {
        self.m_chunks.iter().map(|c| c.len()).max().unwrap_or(0) * self.k_words
    }

    /// Largest B-chunk buffer size in words.
    pub fn b_buffer_words(&self) -> usize {
        self.n_chunks.iter().map(|c| c.len()).max().unwrap_or(0) * self.k_words
    }

    /// Largest C-chunk buffer size in words.
    pub fn c_buffer_words(&self) -> usize {
        let m = self.m_chunks.iter().map(|c| c.len()).max().unwrap_or(0);
        let n = self.n_chunks.iter().map(|c| c.len()).max().unwrap_or(0);
        m * n
    }

    /// Largest sink-output buffer size in words.
    pub fn sink_buffer_words(&self) -> usize {
        self.m_chunks.iter().map(Chunk::len).max().unwrap_or(0) * self.sink_words_per_row
    }

    /// Total device bytes the plan's working set occupies.
    pub fn working_set_bytes(&self) -> u64 {
        let copies = if self.double_buffered { 2 } else { 1 };
        let slot = self.b_buffer_words() + self.c_buffer_words() + self.sink_buffer_words();
        ((self.a_buffer_words() + copies * slot) as u64) * 4
    }
}

/// Errors from pass planning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// Even a single blocking tile cannot fit the device limits.
    Unsatisfiable {
        /// Human-readable reason.
        reason: String,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Unsatisfiable { reason } => write!(f, "cannot plan passes: {reason}"),
        }
    }
}

impl std::error::Error for PlanError {}

fn chunks_of(total: usize, chunk: usize) -> Vec<Chunk> {
    (0..total)
        .step_by(chunk.max(1))
        .map(|lo| Chunk {
            lo,
            hi: (lo + chunk).min(total),
        })
        .collect()
}

/// Plans passes for an `m × n × k_words` problem on `dev` under `cfg`, for a
/// sink that writes `sink_words_per_row` words per A row in each slot.
///
/// Strategy: keep all of A resident if possible (splitting `m` only when the
/// A, C or sink allocations demand it), then choose the largest `n` chunk —
/// aligned to `n_r` — whose B and C buffers satisfy both the per-allocation
/// cap and, together with A, the sink outputs and the double-buffer copies,
/// total memory.
pub fn plan_passes(
    dev: &DeviceSpec,
    cfg: &KernelConfig,
    m: usize,
    n: usize,
    k_words: usize,
    sink_words_per_row: usize,
    double_buffered: bool,
) -> Result<TilePlan, PlanError> {
    assert!(m > 0 && n > 0 && k_words > 0, "problem must be non-empty");
    let max_alloc_words = (dev.max_alloc_bytes / 4) as usize;
    let total_words = (dev.global_mem_bytes / 4) as usize;
    let copies = if double_buffered { 2 } else { 1 };

    // Smallest viable chunks: one blocking tile each.
    let m_min = cfg.m_c.min(m);
    let n_min = cfg.n_r.min(n);
    if m_min * k_words > max_alloc_words {
        return Err(PlanError::Unsatisfiable {
            reason: format!(
                "a single {}-row A tile of {} words exceeds the max allocation",
                m_min,
                m_min * k_words
            ),
        });
    }
    if n_min * k_words > max_alloc_words
        || m_min * n_min > max_alloc_words
        || m_min * sink_words_per_row > max_alloc_words
    {
        return Err(PlanError::Unsatisfiable {
            reason: "a single B, C or sink output tile exceeds the max allocation".to_string(),
        });
    }
    let min_total =
        m_min * k_words + copies * (n_min * k_words + m_min * n_min + m_min * sink_words_per_row);
    if min_total > total_words {
        return Err(PlanError::Unsatisfiable {
            reason: format!("minimum working set of {min_total} words exceeds global memory"),
        });
    }

    // Choose the m chunk: as much of A (and of the sink output) as the
    // allocation cap allows (C rows also bound it once n_chunk is fixed, so
    // iterate coarsely).
    let row_words = k_words.max(sink_words_per_row);
    let mut m_chunk = m.min((max_alloc_words / row_words).max(m_min));
    m_chunk = align_chunk(m_chunk, cfg.m_c, m);
    loop {
        // Largest n chunk under the caps for this m chunk.
        let by_alloc_b = max_alloc_words / k_words;
        let by_alloc_c = max_alloc_words / m_chunk;
        let a_words = m_chunk * k_words;
        let budget = (total_words.saturating_sub(a_words) / copies)
            .saturating_sub(m_chunk * sink_words_per_row);
        // n*(k + m_chunk) <= budget
        let by_total = budget / (k_words + m_chunk);
        let n_chunk = n.min(by_alloc_b.min(by_alloc_c).min(by_total));
        if n_chunk >= n_min {
            let n_chunk = align_chunk(n_chunk, cfg.n_r, n);
            return Ok(TilePlan {
                m_chunks: chunks_of(m, m_chunk),
                n_chunks: chunks_of(n, n_chunk),
                k_words,
                sink_words_per_row,
                double_buffered,
            });
        }
        // Shrink m and retry.
        if m_chunk <= m_min {
            return Err(PlanError::Unsatisfiable {
                reason: "no feasible chunking found".to_string(),
            });
        }
        m_chunk = align_chunk(m_chunk / 2, cfg.m_c, m).max(m_min);
    }
}

/// Rounds `chunk` down to a multiple of `unit` (but never below one unit or
/// above `total`).
fn align_chunk(chunk: usize, unit: usize, total: usize) -> usize {
    if chunk >= total {
        return total;
    }
    ((chunk / unit.max(1)).max(1) * unit.max(1)).min(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snp_gpu_model::devices;
    use snp_gpu_model::presets::preset_for;
    use snp_gpu_model::Algorithm;

    fn fastid_cfg(dev: &DeviceSpec) -> KernelConfig {
        preset_for(dev, Algorithm::IdentitySearch).unwrap()
    }

    #[test]
    fn small_problems_fit_one_pass() {
        let dev = devices::titan_v();
        let cfg = preset_for(&dev, Algorithm::LinkageDisequilibrium).unwrap();
        let plan = plan_passes(&dev, &cfg, 10_000, 10_000, 320, 0, true).unwrap();
        assert_eq!(plan.passes(), 1);
        assert!(plan.working_set_bytes() <= dev.global_mem_bytes);
    }

    #[test]
    fn ndis_scale_database_is_split_on_gtx980() {
        // 32 queries x 20.97 M profiles x 32 words: C alone is 2.7 GB but the
        // GTX 980 max allocation is 0.983 GiB, so the database must be chunked.
        let dev = devices::gtx_980();
        let cfg = fastid_cfg(&dev);
        let plan = plan_passes(&dev, &cfg, 32, 20_971_520, 32, 0, true).unwrap();
        assert_eq!(plan.m_chunks.len(), 1);
        assert!(plan.n_chunks.len() > 1, "database must be chunked");
        assert!(plan.working_set_bytes() <= dev.global_mem_bytes);
        assert!((plan.b_buffer_words() as u64) * 4 <= dev.max_alloc_bytes);
        assert!((plan.c_buffer_words() as u64) * 4 <= dev.max_alloc_bytes);
        // Chunks cover the database exactly, without overlap.
        let covered: usize = plan.n_chunks.iter().map(Chunk::len).sum();
        assert_eq!(covered, 20_971_520);
        for w in plan.n_chunks.windows(2) {
            assert_eq!(w[0].hi, w[1].lo);
        }
    }

    #[test]
    fn titan_v_fits_larger_chunks_than_gtx() {
        let gtx = devices::gtx_980();
        let titan = devices::titan_v();
        let pg = plan_passes(&gtx, &fastid_cfg(&gtx), 32, 20_971_520, 32, 0, true).unwrap();
        let pt = plan_passes(&titan, &fastid_cfg(&titan), 32, 20_971_520, 32, 0, true).unwrap();
        assert!(
            pt.n_chunks.len() < pg.n_chunks.len(),
            "more memory, fewer passes"
        );
    }

    #[test]
    fn n_chunks_align_to_n_r() {
        let dev = devices::gtx_980();
        let cfg = fastid_cfg(&dev);
        let plan = plan_passes(&dev, &cfg, 32, 5_000_000, 32, 0, true).unwrap();
        for c in &plan.n_chunks[..plan.n_chunks.len() - 1] {
            assert_eq!(c.len() % cfg.n_r, 0, "interior chunks align to n_r");
        }
    }

    #[test]
    fn double_buffering_costs_memory() {
        let dev = devices::gtx_980();
        let cfg = fastid_cfg(&dev);
        let single = plan_passes(&dev, &cfg, 32, 20_971_520, 32, 0, false).unwrap();
        let double = plan_passes(&dev, &cfg, 32, 20_971_520, 32, 0, true).unwrap();
        assert!(
            double.n_chunks.len() >= single.n_chunks.len(),
            "double buffering halves the chunk budget"
        );
    }

    #[test]
    fn unsatisfiable_when_one_tile_exceeds_alloc() {
        let dev = devices::gtx_980();
        let cfg = fastid_cfg(&dev);
        // k so large that one 32-row A tile exceeds the max allocation.
        let k = (dev.max_alloc_bytes / 4 / 32 + 1) as usize;
        let err = plan_passes(&dev, &cfg, 32, 1024, k, 0, true).unwrap_err();
        assert!(matches!(err, PlanError::Unsatisfiable { .. }));
        assert!(err.to_string().contains("cannot plan"));
    }

    #[test]
    fn chunk_arithmetic() {
        let cs = chunks_of(10, 4);
        assert_eq!(cs.len(), 3);
        assert_eq!((cs[2].lo, cs[2].hi, cs[2].len()), (8, 10, 2));
        assert!(!cs[0].is_empty());
        assert_eq!(align_chunk(100, 32, 1000), 96);
        assert_eq!(align_chunk(100, 32, 50), 50);
        assert_eq!(align_chunk(10, 32, 1000), 32);
    }
}
