//! Every popcount tier this host supports must be bit-identical to the
//! one-popcount-per-word oracle on every operator, shared-dimension length
//! and bit pattern, on both B views (a packed panel and rows of a matrix
//! read in place), and in a panel run over several B panels with either
//! writeback: adding into γ, or storing into γ without reading it. The
//! tiers are pure performance transformations.

use std::mem::MaybeUninit;

use proptest::prelude::*;
use snp_bitmat::{BitMatrix, CompareOp, PackedPanels};
use snp_cpu::blocking::{MR, NR};
use snp_cpu::microkernel::{
    microkernel, microkernel_run, microkernel_run_tier, microkernel_scalar, microkernel_store,
    microkernel_store_tier, microkernel_tier, microkernel_view, zero_tile, BView, Tier,
};

/// SplitMix64 words; `fill` picks random, sparse, dense or all-ones bits.
fn words(n: usize, seed: u64, fill: usize) -> Vec<u64> {
    let mut x = seed;
    let mut next = move || {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..n)
        .map(|_| match fill {
            0 => next(),
            1 => next() & next() & next(),
            2 => next() | next() | next(),
            _ => u64::MAX,
        })
        .collect()
}

fn available_tiers() -> Vec<Tier> {
    Tier::ALL.into_iter().filter(|t| t.available()).collect()
}

/// Runs `store` on row segments that hold `start`, and reads them back.
fn stored(start: &[Vec<u32>], store: impl FnOnce(&mut [&mut [MaybeUninit<u32>]])) -> Vec<Vec<u32>> {
    let mut cells: Vec<Vec<MaybeUninit<u32>>> = start
        .iter()
        .map(|seg| seg.iter().copied().map(MaybeUninit::new).collect())
        .collect();
    let mut segs: Vec<&mut [MaybeUninit<u32>]> = cells.iter_mut().map(Vec::as_mut_slice).collect();
    store(&mut segs);
    cells
        .iter()
        .map(|seg| {
            seg.iter()
                // SAFETY: every cell started initialized, and a store run
                // writes only counts.
                .map(|cell| unsafe { cell.assume_init() })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// k from 0 to 24 words (0–1536 bits) covers every `k % 8` remainder of
    /// the lane tiers' 8-step tree; the tile starts non-zero so the
    /// accumulation is checked too.
    #[test]
    fn every_available_tier_matches_the_scalar_oracle(
        k in 0usize..=24,
        op_i in 0usize..3,
        seed in any::<u64>(),
        fill in 0usize..4,
    ) {
        let op = CompareOp::ALL[op_i];
        let a = words(k * MR, seed, fill);
        let b = words(k * NR, !seed, fill);
        let start: [[u32; NR]; MR] =
            std::array::from_fn(|i| std::array::from_fn(|j| (seed >> (i * NR + j)) as u32 & 0xFFFF));

        let mut oracle = start;
        microkernel_scalar(op, k, &a, BView::packed(&b), &mut oracle);
        for tier in available_tiers() {
            let mut got = start;
            microkernel_tier(tier, op, k, &a, BView::packed(&b), &mut got);
            prop_assert_eq!(got, oracle, "tier {}, op {}, k {} words", tier, op, k);
        }
        let mut production = start;
        microkernel(op, k, &a, &b, &mut production);
        prop_assert_eq!(production, oracle, "production ({}), op {}", Tier::detected(), op);
    }

    /// B read in place: NR rows of a matrix from a non-zero word offset,
    /// at a row stride longer than k. Every tier must count exactly what it
    /// counts on the same words packed, and what the oracle counts on
    /// either view.
    #[test]
    fn every_available_tier_reads_an_in_place_view_like_the_packed_panel(
        k in 0usize..=24,
        word_off in 1usize..=3,
        extra in 1usize..=3,
        row_off in 0usize..=2,
        op_i in 0usize..3,
        seed in any::<u64>(),
        fill in 0usize..4,
    ) {
        let op = CompareOp::ALL[op_i];
        let wpr = word_off + k + extra;
        let rows = row_off + NR + 1;
        let m = BitMatrix::from_words(rows, wpr * 64, wpr, words(rows * wpr, !seed, fill));
        let view = BView::rows(&m, row_off, word_off);
        let packed = PackedPanels::pack(&m, row_off, row_off + NR, word_off, word_off + k, NR);
        let a = words(k * MR, seed, fill);
        let start: [[u32; NR]; MR] =
            std::array::from_fn(|i| std::array::from_fn(|j| (seed >> (i + j)) as u32 & 0xFFF));

        let mut oracle = start;
        microkernel_scalar(op, k, &a, BView::packed(packed.as_slice()), &mut oracle);
        let mut oracle_in_place = start;
        microkernel_scalar(op, k, &a, view, &mut oracle_in_place);
        prop_assert_eq!(oracle_in_place, oracle, "oracle, op {}, k {}", op, k);
        for tier in available_tiers() {
            let mut on_packed = start;
            microkernel_tier(tier, op, k, &a, BView::packed(packed.as_slice()), &mut on_packed);
            let mut in_place = start;
            microkernel_tier(tier, op, k, &a, view, &mut in_place);
            prop_assert_eq!(on_packed, oracle, "tier {} packed, op {}, k {}", tier, op, k);
            prop_assert_eq!(in_place, oracle, "tier {} in place, op {}, k {}", tier, op, k);
        }
        let mut production = start;
        microkernel_view(op, k, &a, view, &mut production);
        prop_assert_eq!(production, oracle, "production ({}), op {}", Tier::detected(), op);
    }

    /// The panel run: 1–5 NR-row panels of a matrix read in place, from a
    /// non-zero word offset at a row stride longer than k, added into
    /// 1..=MR row segments of γ that already hold counts and run `slack`
    /// columns past the last panel. Every tier must add what the oracle
    /// counts panel by panel, and leave the slack columns alone.
    #[test]
    fn every_available_tier_runs_panels_like_the_scalar_oracle(
        k in 0usize..=24,
        panels in 1usize..=5,
        n_segs in 1usize..=MR,
        slack in 0usize..=2,
        word_off in 1usize..=3,
        extra in 1usize..=3,
        row_off in 0usize..=2,
        op_i in 0usize..3,
        seed in any::<u64>(),
        fill in 0usize..4,
    ) {
        let op = CompareOp::ALL[op_i];
        let wpr = word_off + k + extra;
        let rows = row_off + panels * NR + 1;
        let m = BitMatrix::from_words(rows, wpr * 64, wpr, words(rows * wpr, !seed, fill));
        let view = BView::rows(&m, row_off, word_off);
        let a = words(k * MR, seed, fill);
        let start: Vec<Vec<u32>> = (0..n_segs)
            .map(|i| {
                (0..panels * NR + slack)
                    .map(|c| (seed >> ((i * 7 + c) % 48)) as u32 & 0xFFF)
                    .collect()
            })
            .collect();

        let mut oracle = start.clone();
        for q in 0..panels {
            let mut tile = zero_tile();
            let panel = BView::rows(&m, row_off + q * NR, word_off);
            microkernel_scalar(op, k, &a, panel, &mut tile);
            for (seg, counts) in oracle.iter_mut().zip(&tile) {
                for (o, &c) in seg[q * NR..(q + 1) * NR].iter_mut().zip(counts) {
                    *o += c;
                }
            }
        }
        for tier in available_tiers() {
            let mut got = start.clone();
            let mut segs: Vec<&mut [u32]> = got.iter_mut().map(Vec::as_mut_slice).collect();
            microkernel_run_tier(tier, op, k, &a, view, panels, &mut segs);
            prop_assert_eq!(
                &got, &oracle,
                "tier {}, op {}, k {}, {} panel(s) into {} segment(s)", tier, op, k, panels, n_segs
            );
        }
        let mut production = start.clone();
        let mut segs: Vec<&mut [u32]> = production.iter_mut().map(Vec::as_mut_slice).collect();
        microkernel_run(op, k, &a, view, panels, &mut segs);
        prop_assert_eq!(&production, &oracle, "production ({}), op {}", Tier::detected(), op);
    }

    /// The store run (β = 0) on the same panels, into 1..=MR row segments
    /// poisoned with values no count reaches, `slack` columns past the last
    /// panel. Every tier must store what the oracle counts panel by panel,
    /// whatever the segments held, and leave the slack columns alone.
    #[test]
    fn every_available_tier_stores_panels_like_the_scalar_oracle(
        k in 0usize..=24,
        panels in 1usize..=5,
        n_segs in 1usize..=MR,
        slack in 0usize..=2,
        word_off in 1usize..=3,
        extra in 1usize..=3,
        row_off in 0usize..=2,
        op_i in 0usize..3,
        seed in any::<u64>(),
        fill in 0usize..4,
    ) {
        let op = CompareOp::ALL[op_i];
        let wpr = word_off + k + extra;
        let rows = row_off + panels * NR + 1;
        let m = BitMatrix::from_words(rows, wpr * 64, wpr, words(rows * wpr, !seed, fill));
        let view = BView::rows(&m, row_off, word_off);
        let a = words(k * MR, seed, fill);
        let poison: Vec<Vec<u32>> = (0..n_segs)
            .map(|i| (0..panels * NR + slack).map(|c| u32::MAX ^ (i * 64 + c) as u32).collect())
            .collect();

        let mut oracle = poison.clone();
        for q in 0..panels {
            let mut tile = zero_tile();
            let panel = BView::rows(&m, row_off + q * NR, word_off);
            microkernel_scalar(op, k, &a, panel, &mut tile);
            for (seg, counts) in oracle.iter_mut().zip(&tile) {
                seg[q * NR..(q + 1) * NR].copy_from_slice(counts);
            }
        }
        for tier in available_tiers() {
            let got = stored(&poison, |segs| {
                microkernel_store_tier(tier, op, k, &a, view, panels, segs)
            });
            prop_assert_eq!(
                &got, &oracle,
                "tier {}, op {}, k {}, {} panel(s) into {} segment(s)", tier, op, k, panels, n_segs
            );
        }
        let production = stored(&poison, |segs| microkernel_store(op, k, &a, view, panels, segs));
        prop_assert_eq!(&production, &oracle, "production ({}), op {}", Tier::detected(), op);
    }
}

#[test]
fn detected_tier_is_the_fastest_available() {
    assert_eq!(Some(&Tier::detected()), available_tiers().first());
    assert!(Tier::Portable.available());
}

fn short_a_panel(tier: Tier) {
    let mut acc = zero_tile();
    microkernel_tier(
        tier,
        CompareOp::And,
        2,
        &[0u64; MR],
        BView::packed(&[0u64; 2 * NR]),
        &mut acc,
    );
}

/// Three steps at strides (10, 1) read up to word (NR − 1)·10 + 2, so they
/// need (NR − 1)·10 + 3 words; the view holds one fewer.
fn short_b_view(tier: Tier) {
    let words = [0u64; (NR - 1) * 10 + 2];
    let mut acc = zero_tile();
    microkernel_tier(
        tier,
        CompareOp::Xor,
        3,
        &[0u64; 3 * MR],
        BView::new(&words, 10, 1),
        &mut acc,
    );
}

#[test]
#[should_panic(expected = "A panel too short")]
fn vpopcntq_rejects_a_short_a_panel() {
    short_a_panel(Tier::Vpopcntq);
}

#[test]
#[should_panic(expected = "A panel too short")]
fn avx2_rejects_a_short_a_panel() {
    short_a_panel(Tier::Avx2);
}

#[test]
#[should_panic(expected = "A panel too short")]
fn portable_rejects_a_short_a_panel() {
    short_a_panel(Tier::Portable);
}

#[test]
#[should_panic(expected = "B view too short")]
fn vpopcntq_rejects_a_short_b_view() {
    short_b_view(Tier::Vpopcntq);
}

#[test]
#[should_panic(expected = "B view too short")]
fn avx2_rejects_a_short_b_view() {
    short_b_view(Tier::Avx2);
}

#[test]
#[should_panic(expected = "B view too short")]
fn portable_rejects_a_short_b_view() {
    short_b_view(Tier::Portable);
}

/// Two panels into two row segments, one of them a column short of
/// 2·NR.
fn short_row_segment(tier: Tier) {
    let words = [0u64; 2 * NR * 3];
    let (mut long, mut short) = ([0u32; 2 * NR], [0u32; 2 * NR - 1]);
    microkernel_run_tier(
        tier,
        CompareOp::And,
        3,
        &[0u64; 3 * MR],
        BView::new(&words, 3, 1),
        2,
        &mut [&mut long[..], &mut short[..]],
    );
}

/// Three panels of a matrix whose last two rows hold only two of the third
/// panel's NR rows.
fn panels_past_the_matrix(tier: Tier) {
    let m = BitMatrix::<u64>::zeros(2 * NR + 2, 64 * 3);
    let mut gamma = [0u32; 3 * NR];
    microkernel_run_tier(
        tier,
        CompareOp::Xor,
        3,
        &[0u64; 3 * MR],
        BView::rows(&m, 0, 0),
        3,
        &mut [&mut gamma[..]],
    );
}

#[test]
#[should_panic(expected = "row segment shorter")]
fn vpopcntq_rejects_a_short_row_segment() {
    short_row_segment(Tier::Vpopcntq);
}

#[test]
#[should_panic(expected = "row segment shorter")]
fn avx2_rejects_a_short_row_segment() {
    short_row_segment(Tier::Avx2);
}

#[test]
#[should_panic(expected = "row segment shorter")]
fn portable_rejects_a_short_row_segment() {
    short_row_segment(Tier::Portable);
}

/// [`short_row_segment`] for the store run.
fn short_store_segment(tier: Tier) {
    let words = [0u64; 2 * NR * 3];
    let mut long = [MaybeUninit::<u32>::uninit(); 2 * NR];
    let mut short = [MaybeUninit::<u32>::uninit(); 2 * NR - 1];
    microkernel_store_tier(
        tier,
        CompareOp::And,
        3,
        &[0u64; 3 * MR],
        BView::new(&words, 3, 1),
        2,
        &mut [&mut long[..], &mut short[..]],
    );
}

#[test]
#[should_panic(expected = "row segment shorter")]
fn vpopcntq_store_rejects_a_short_row_segment() {
    short_store_segment(Tier::Vpopcntq);
}

#[test]
#[should_panic(expected = "row segment shorter")]
fn avx2_store_rejects_a_short_row_segment() {
    short_store_segment(Tier::Avx2);
}

#[test]
#[should_panic(expected = "row segment shorter")]
fn portable_store_rejects_a_short_row_segment() {
    short_store_segment(Tier::Portable);
}

#[test]
#[should_panic(expected = "B view too short")]
fn vpopcntq_rejects_panels_past_the_matrix() {
    panels_past_the_matrix(Tier::Vpopcntq);
}

#[test]
#[should_panic(expected = "B view too short")]
fn avx2_rejects_panels_past_the_matrix() {
    panels_past_the_matrix(Tier::Avx2);
}

#[test]
#[should_panic(expected = "B view too short")]
fn portable_rejects_panels_past_the_matrix() {
    panels_past_the_matrix(Tier::Portable);
}

#[test]
#[should_panic(expected = "row segments for an A panel")]
fn a_run_rejects_more_row_segments_than_mr() {
    let mut rows = [[0u32; NR]; MR + 1];
    let mut segs: Vec<&mut [u32]> = rows.iter_mut().map(|r| &mut r[..]).collect();
    microkernel_run(
        CompareOp::And,
        1,
        &[0u64; MR],
        BView::packed(&[0u64; NR]),
        1,
        &mut segs,
    );
}

#[test]
fn a_view_exactly_long_enough_is_accepted() {
    // The boundary of the check above: (NR − 1)·10 + 3 words cover k = 3.
    let words = [u64::MAX; (NR - 1) * 10 + 3];
    for tier in available_tiers() {
        let mut acc = zero_tile();
        microkernel_tier(
            tier,
            CompareOp::Xor,
            3,
            &[0u64; 3 * MR],
            BView::new(&words, 10, 1),
            &mut acc,
        );
        assert_eq!(acc, [[3 * 64; NR]; MR], "tier {tier}");
    }
}

#[test]
fn panels_exactly_covering_the_matrix_are_accepted() {
    // The boundary of `panels_past_the_matrix`: 3·NR rows hold three
    // panels, and a run adds only its panels' columns.
    let m = BitMatrix::<u64>::from_fn(3 * NR, 64 * 3, |_, _| true);
    let a = [u64::MAX; 3 * MR];
    for tier in available_tiers() {
        let mut gamma = [[7u32; 3 * NR + 1]; 2];
        let [first, second] = &mut gamma;
        microkernel_run_tier(
            tier,
            CompareOp::And,
            3,
            &a,
            BView::rows(&m, 0, 0),
            3,
            &mut [&mut first[..], &mut second[..]],
        );
        let mut want = [7 + 3 * 64; 3 * NR + 1];
        want[3 * NR] = 7;
        assert_eq!(gamma, [want; 2], "tier {tier}");
    }
}
