//! The run record: facts about the host that explain a noisy run. They are
//! printed beside the metrics and never gated.

use std::time::{Duration, Instant};

/// Aggregate CPU jiffies from the first line of `/proc/stat`:
/// `(steal, total)`. Zeros where the file is unavailable.
fn cpu_jiffies() -> (u64, u64) {
    let Ok(text) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user and nice.
    let steal = fields.get(7).copied().unwrap_or(0);
    let total = fields.iter().take(8).sum();
    (steal, total)
}

/// The CPU model name from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Threads the program's parallel regions use.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Started at the beginning of a run; [`finish`](Self::finish) renders it.
pub struct RunRecord {
    jiffies: (u64, u64),
}

impl RunRecord {
    /// Reads the starting steal counters.
    pub fn start() -> RunRecord {
        RunRecord {
            jiffies: cpu_jiffies(),
        }
    }

    /// Measures the popcount roof and renders the record as one JSON line.
    pub fn finish(&self, workload: &str, seed: u64, trace: bool, wall: Duration) -> String {
        let (steal1, total1) = cpu_jiffies();
        let steal = steal1.saturating_sub(self.jiffies.0);
        let total = total1.saturating_sub(self.jiffies.1);
        let roof = popcount_roof();
        format!(
            "{{\"run_record\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {}, \
             \"wall_s\": {:.3}, \"threads\": {}, \"cpu_model\": \"{}\", \
             \"steal_jiffies\": {steal}, \"steal_pct\": {:.3}, \"rss_end_mb\": {:.2}, \
             \"roof.popcount_per_s\": {:.6e}, \"roof.isa\": \"{}\"}}}}",
            u8::from(trace),
            wall.as_secs_f64(),
            threads(),
            cpu_model().replace('"', "'"),
            100.0 * steal as f64 / total.max(1) as f64,
            peak_rss_mb(),
            roof.per_s,
            roof.isa,
        )
    }
}

/// The host's popcount roof.
#[derive(Debug, Clone, Copy)]
pub struct Roof {
    /// 64-bit AND+popcount word-ops per second on one core.
    pub per_s: f64,
    /// The instruction the loop used.
    pub isa: &'static str,
}

/// An AND+popcount loop over two equal-length slices.
type RoofKernel = fn(&[u64], &[u64]) -> u64;

/// Words per operand of the roof loop: two 16 KiB buffers stay in L1.
const ROOF_WORDS: usize = 2048;

/// The benchmark's own AND+popcount loop over L1-resident buffers on one
/// core, with the widest popcount instruction the CPU reports at run time
/// (`VPOPCNTQ`, then `POPCNT`, else the portable `count_ones`). The best
/// of several 20 ms rounds is the roof every `*.roof_pct` divides by.
pub fn popcount_roof() -> Roof {
    let a: Vec<u64> = (0..ROOF_WORDS as u64)
        .map(crate::stats::splitmix64)
        .collect();
    let b: Vec<u64> = (0..ROOF_WORDS as u64)
        .map(|i| crate::stats::splitmix64(i ^ 0xFFFF))
        .collect();
    let (isa, kernel) = pick_kernel();
    let mut best = 0.0f64;
    let mut sink = 0u64;
    for _ in 0..8 {
        let t0 = Instant::now();
        let mut reps = 0usize;
        while t0.elapsed() < Duration::from_millis(20) {
            for _ in 0..16 {
                sink =
                    sink.wrapping_add(kernel(std::hint::black_box(&a), std::hint::black_box(&b)));
            }
            reps += 16;
        }
        let rate = (reps * ROOF_WORDS) as f64 / t0.elapsed().as_secs_f64();
        best = best.max(rate);
    }
    std::hint::black_box(sink);
    Roof { per_s: best, isa }
}

fn and_popcount_portable(a: &[u64], b: &[u64]) -> u64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| u64::from((x & y).count_ones()))
        .sum()
}

#[cfg(target_arch = "x86_64")]
fn pick_kernel() -> (&'static str, RoofKernel) {
    if is_x86_feature_detected!("avx512vpopcntdq") && is_x86_feature_detected!("avx512f") {
        ("vpopcntq", |a, b| {
            // SAFETY: both CPU features the function enables were
            // detected at run time just above.
            unsafe { x86::and_popcount_avx512(a, b) }
        })
    } else if is_x86_feature_detected!("popcnt") {
        ("popcnt", |a, b| {
            // SAFETY: the POPCNT feature was detected at run time.
            unsafe { x86::and_popcount_popcnt(a, b) }
        })
    } else {
        ("count_ones", and_popcount_portable)
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn pick_kernel() -> (&'static str, RoofKernel) {
    ("count_ones", and_popcount_portable)
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// Scalar `POPCNT` loop, four independent accumulators.
    ///
    /// # Safety
    /// The CPU must support `popcnt`.
    #[target_feature(enable = "popcnt")]
    pub unsafe fn and_popcount_popcnt(a: &[u64], b: &[u64]) -> u64 {
        let mut acc = [0u64; 4];
        for (ca, cb) in a.chunks_exact(4).zip(b.chunks_exact(4)) {
            for l in 0..4 {
                acc[l] += u64::from((ca[l] & cb[l]).count_ones());
            }
        }
        acc.iter().sum()
    }

    /// `VPOPCNTQ` over 512-bit lanes, two independent accumulators.
    ///
    /// # Safety
    /// The CPU must support `avx512f` and `avx512vpopcntdq`.
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    pub unsafe fn and_popcount_avx512(a: &[u64], b: &[u64]) -> u64 {
        let n = a.len().min(b.len()) / 16 * 16;
        let mut acc0 = _mm512_setzero_si512();
        let mut acc1 = _mm512_setzero_si512();
        let mut i = 0;
        while i < n {
            // SAFETY: `i + 16 <= n <= len` for both slices, so each
            // unaligned 64-byte load reads inside its slice.
            let (a0, b0, a1, b1) = unsafe {
                (
                    _mm512_loadu_si512(a.as_ptr().add(i).cast()),
                    _mm512_loadu_si512(b.as_ptr().add(i).cast()),
                    _mm512_loadu_si512(a.as_ptr().add(i + 8).cast()),
                    _mm512_loadu_si512(b.as_ptr().add(i + 8).cast()),
                )
            };
            acc0 = _mm512_add_epi64(acc0, _mm512_popcnt_epi64(_mm512_and_si512(a0, b0)));
            acc1 = _mm512_add_epi64(acc1, _mm512_popcnt_epi64(_mm512_and_si512(a1, b1)));
            i += 16;
        }
        let tail: u64 = a[n..]
            .iter()
            .zip(&b[n..])
            .map(|(x, y)| u64::from((x & y).count_ones()))
            .sum();
        _mm512_reduce_add_epi64(_mm512_add_epi64(acc0, acc1)) as u64 + tail
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_roof_kernel_counts_the_same_bits() {
        let a: Vec<u64> = (0..100u64).map(crate::stats::splitmix64).collect();
        let b: Vec<u64> = (0..100u64)
            .map(|i| crate::stats::splitmix64(i + 7))
            .collect();
        let (_, fast) = pick_kernel();
        assert_eq!(fast(&a, &b), and_popcount_portable(&a, &b));
    }
}
