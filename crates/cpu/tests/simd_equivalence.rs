//! Every popcount tier this host supports must be bit-identical to the
//! one-popcount-per-word oracle on every operator, shared-dimension length
//! and bit pattern: the tiers are pure performance transformations.

use proptest::prelude::*;
use snp_bitmat::CompareOp;
use snp_cpu::blocking::{MR, NR};
use snp_cpu::microkernel::{microkernel, microkernel_scalar, microkernel_tier, zero_tile, Tier};

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
        microkernel_scalar(op, k, &a, &b, &mut oracle);
        for tier in available_tiers() {
            let mut got = start;
            microkernel_tier(tier, op, k, &a, &b, &mut got);
            prop_assert_eq!(got, oracle, "tier {}, op {}, k {} words", tier, op, k);
        }
        let mut production = start;
        microkernel(op, k, &a, &b, &mut production);
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
        &[0u64; 2 * NR],
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
