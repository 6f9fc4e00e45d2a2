//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so this shim implements
//! the subset of proptest the workspace's property tests use: the
//! [`proptest!`] macro over `arg in strategy` bindings, numeric-range and
//! tuple strategies, `collection::vec`, `array::uniform9`, and the
//! `prop_assert!`/`prop_assert_eq!`/`prop_assume!` macros.
//!
//! Differences from real proptest, deliberately accepted:
//! * failures are reported by ordinary `assert!` panics — there is **no
//!   shrinking**;
//! * each property runs a fixed number of random cases
//!   ([`DEFAULT_CASES`]) from a per-test deterministic seed, so runs are
//!   reproducible without a persistence file.
#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::Rng;

/// Number of random cases each property executes.
pub const DEFAULT_CASES: usize = 64;

pub mod test_runner {
    /// RNG handed to strategies by the [`proptest!`](crate::proptest) macro.
    pub type TestRng = rand::rngs::StdRng;

    /// Derives a deterministic per-test RNG from the test's name.
    pub fn rng_for(test_name: &str) -> TestRng {
        let mut seed: u64 = 0xCBF2_9CE4_8422_2325;
        for b in test_name.bytes() {
            seed ^= b as u64;
            seed = seed.wrapping_mul(0x1000_0000_01B3);
        }
        <TestRng as rand::SeedableRng>::seed_from_u64(seed)
    }
}

/// A source of random values of one type.
pub trait Strategy {
    /// The type of value produced.
    type Value;
    /// Draws one value.
    fn sample(&self, rng: &mut StdRng) -> Self::Value;
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn sample(&self, rng: &mut StdRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);

pub mod collection {
    use super::Strategy;

    /// Strategy for `Vec`s with a length drawn from a range.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        min_len: usize,
        max_len: usize,
    }

    /// `proptest::collection::vec`: vectors of `element` values with length
    /// in `size` (half-open, as in the call sites of this workspace).
    pub fn vec<S: Strategy>(element: S, size: std::ops::Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty size range");
        VecStrategy {
            element,
            min_len: size.start,
            max_len: size.end - 1,
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut rand::rngs::StdRng) -> Self::Value {
            let len = rand::Rng::gen_range(rng, self.min_len..=self.max_len);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod array {
    use super::Strategy;

    /// Strategy for `[T; 9]` with every element drawn from `element`.
    #[derive(Debug, Clone)]
    pub struct Uniform9<S>(S);

    /// `proptest::array::uniform9`.
    pub fn uniform9<S: Strategy>(element: S) -> Uniform9<S> {
        Uniform9(element)
    }

    impl<S: Strategy> Strategy for Uniform9<S> {
        type Value = [S::Value; 9];
        fn sample(&self, rng: &mut rand::rngs::StdRng) -> Self::Value {
            std::array::from_fn(|_| self.0.sample(rng))
        }
    }
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that runs the body for [`DEFAULT_CASES`] sampled
/// argument tuples.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block)+) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut __proptest_rng = $crate::test_runner::rng_for(stringify!($name));
                for __proptest_case in 0..$crate::DEFAULT_CASES {
                    let _ = __proptest_case;
                    $(let $arg = $crate::Strategy::sample(&($strategy), &mut __proptest_rng);)+
                    $body
                }
            }
        )+
    };
}

/// Asserts a property; panics (no shrinking) on failure.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// Asserts equality of two expressions.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

/// Skips the current case when its inputs do not satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            continue;
        }
    };
}

pub mod prelude {
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest, Strategy};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn vec_strategy_respects_bounds() {
        let mut rng = crate::test_runner::rng_for("vec_strategy_respects_bounds");
        let strat = crate::collection::vec(0u32..10, 2..5);
        for _ in 0..200 {
            let v = strat.sample(&mut rng);
            assert!((2..5).contains(&v.len()), "len {}", v.len());
            assert!(v.iter().all(|x| *x < 10));
        }
    }

    #[test]
    fn uniform9_fills_every_slot() {
        let mut rng = crate::test_runner::rng_for("uniform9");
        let arr = crate::array::uniform9(-1.0f32..1.0).sample(&mut rng);
        assert_eq!(arr.len(), 9);
        assert!(arr.iter().all(|x| (-1.0..1.0).contains(x)));
    }

    proptest! {
        #[test]
        fn macro_binds_multiple_strategies(
            a in 0u32..50,
            pair in (0u64..10, 1u8..3),
            v in crate::collection::vec(0u32..5, 0..4)
        ) {
            prop_assume!(a != 49);
            prop_assert!(a < 50);
            prop_assert!(pair.0 < 10 && pair.1 >= 1);
            prop_assert_eq!(v.iter().filter(|x| **x >= 5).count(), 0);
        }
    }
}
