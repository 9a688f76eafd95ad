//! Every popcount tier this host supports must be bit-identical to the
//! one-popcount-per-word oracle on every operator, shared-dimension length
//! and bit pattern, and on both B views (a packed panel and rows of a
//! matrix read in place): the tiers are pure performance transformations.

use proptest::prelude::*;
use snp_bitmat::{BitMatrix, CompareOp, PackedPanels};
use snp_cpu::blocking::{MR, NR};
use snp_cpu::microkernel::{
    microkernel, microkernel_scalar, microkernel_tier, microkernel_view, zero_tile, BView, Tier,
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
