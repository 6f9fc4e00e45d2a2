//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so this shim provides
//! the small slice of the `rand 0.8` API the workspace uses — `StdRng`,
//! `SeedableRng::seed_from_u64`, `Rng::{gen_range, gen_bool}` and
//! `seq::SliceRandom::shuffle` — backed by a SplitMix64 generator.  The
//! streams are deterministic for a given seed (everything in the repo seeds
//! explicitly), which is all the callers rely on; statistical quality beyond
//! "uncorrelated enough for synthetic scenes and tests" is a non-goal.
#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Low-level source of random 64-bit words.
pub trait RngCore {
    /// Next raw 64-bit word of the stream.
    fn next_u64(&mut self) -> u64;
}

/// Construction of a generator from seed material.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

pub mod rngs {
    /// Deterministic SplitMix64 generator standing in for rand's `StdRng`.
    ///
    /// Note: the streams differ from the real `StdRng` (ChaCha12); seeds in
    /// this repo only promise determinism, not any particular sequence.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl crate::RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    impl crate::SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut rng = StdRng { state: seed };
            // Discard one output so that consecutive small seeds do not hand
            // the caller their own (highly correlated) first words.
            let _ = crate::RngCore::next_u64(&mut rng);
            rng
        }
    }
}

/// Types that can be drawn uniformly from a half-open or closed interval.
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform draw from `[low, high)`.
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
    /// Uniform draw from `[low, high]`.
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                assert!(low < high, "cannot sample from empty range");
                let span = (high as i128 - low as i128) as u128;
                low + (rng.next_u64() as u128 % span) as $t
            }
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                assert!(low <= high, "cannot sample from empty range");
                let span = (high as i128 - low as i128) as u128 + 1;
                low + (rng.next_u64() as u128 % span) as $t
            }
        }
    )*};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_sample_uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                assert!(low < high, "cannot sample from empty range");
                let unit = (rng.next_u64() >> 11) as $t / (1u64 << 53) as $t;
                let value = low + unit * (high - low);
                // Casting the 53-bit numerator to f32 can round `unit` up to
                // exactly 1.0; keep the documented exclusive upper bound.
                if value < high {
                    value
                } else {
                    high.next_down().max(low)
                }
            }
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                assert!(low <= high, "cannot sample from empty range");
                let unit = (rng.next_u64() >> 11) as $t / ((1u64 << 53) - 1) as $t;
                low + unit * (high - low)
            }
        }
    )*};
}

impl_sample_uniform_float!(f32, f64);

/// Range-like arguments accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_inclusive(rng, *self.start(), *self.end())
    }
}

/// High-level sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform draw from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// Bernoulli draw with success probability `p`.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} not in [0, 1]");
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod seq {
    use crate::Rng;

    /// Slice shuffling, the only piece of rand's `seq` module the workspace
    /// uses.
    pub trait SliceRandom {
        /// Fisher–Yates shuffle in place.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..i + 1);
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0u64..1_000_000), b.gen_range(0u64..1_000_000));
        }
    }

    #[test]
    fn ranges_are_respected() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let x = rng.gen_range(-3i32..9);
            assert!((-3..9).contains(&x));
            let f = rng.gen_range(0.25f32..0.75);
            assert!((0.25..0.75).contains(&f));
            let g = rng.gen_range(1.0f64..=2.0);
            assert!((1.0..=2.0).contains(&g));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(42);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2_500..3_500).contains(&hits), "hits {hits}");
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<u32> = (0..50).collect();
        let mut rng = StdRng::seed_from_u64(3);
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements should not shuffle to identity");
    }
}
