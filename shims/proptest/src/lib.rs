//! Offline stand-in for the `proptest` crate.
//!
//! The build environment cannot fetch crates.io dependencies, so this crate
//! implements the subset of proptest this workspace's property tests use:
//! the [`Strategy`](strategy::Strategy) trait with `prop_map`/`prop_flat_map`,
//! range and tuple strategies, `any::<T>()`, `prop::collection::vec`,
//! [`ProptestConfig`](test_runner::ProptestConfig),
//! and the `proptest!`/`prop_assert!`/`prop_assert_eq!` macros.
//!
//! Differences from real proptest, deliberately accepted:
//! - **No shrinking.** A failing case panics with the assertion message as-is.
//! - **Deterministic seeding.** Case `i` of test `t` draws from an RNG seeded
//!   by `hash(t) ^ i`, so failures reproduce exactly on re-run — which
//!   replaces shrinking's role of making failures actionable.
//!
//! Swapping the real crate back in requires only a `Cargo.toml` change.

#![warn(missing_docs)]

pub mod strategy;
pub mod test_runner;

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::RngExt;

    /// Size specifications accepted by [`vec()`]: an exact length or a range.
    pub trait SizeRange: Clone {
        /// Picks a concrete length.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for std::ops::Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            rng.random_range(self.clone())
        }
    }

    impl SizeRange for std::ops::RangeInclusive<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            rng.random_range(self.clone())
        }
    }

    /// Strategy producing `Vec`s of values drawn from `elem`.
    #[derive(Clone)]
    pub struct VecStrategy<S, Z> {
        elem: S,
        size: Z,
    }

    /// Generates vectors whose elements come from `elem` and whose length
    /// comes from `size` (a `usize` or a range of `usize`).
    pub fn vec<S: Strategy, Z: SizeRange>(elem: S, size: Z) -> VecStrategy<S, Z> {
        VecStrategy { elem, size }
    }

    impl<S: Strategy, Z: SizeRange> Strategy for VecStrategy<S, Z> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.pick(rng);
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// The usual `use proptest::prelude::*` surface.
pub mod prelude {
    pub use crate::strategy::{any, Arbitrary, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};

    /// Module alias mirroring `proptest::prelude::prop`.
    pub mod prop {
        pub use crate::collection;
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn pair(max: usize) -> impl Strategy<Value = (usize, Vec<bool>)> {
        (1..=max)
            .prop_flat_map(|n| prop::collection::vec(any::<bool>(), n).prop_map(move |v| (n, v)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Generated lengths respect the strategy bounds.
        #[test]
        fn vec_lengths_in_range((n, v) in pair(17)) {
            prop_assert!((1..=17).contains(&n));
            prop_assert_eq!(v.len(), n);
        }

        /// Multiple parameters and format args both work.
        #[test]
        fn multi_param(a in 0usize..10, b in 5u32..6, flag in any::<bool>()) {
            prop_assert!(a < 10, "a was {}", a);
            prop_assert_eq!(b, 5);
            prop_assert_ne!(flag as u32, 2);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        let strat = crate::collection::vec(0u64..1_000_000, 8usize);
        let a = strat.generate(&mut TestRng::deterministic("x", 3));
        let b = strat.generate(&mut TestRng::deterministic("x", 3));
        let c = strat.generate(&mut TestRng::deterministic("x", 4));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
