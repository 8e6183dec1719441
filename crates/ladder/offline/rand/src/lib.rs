//! Offline stand-in for the slice of `rand` 0.8 the partitioner uses:
//! `SmallRng::seed_from_u64`, `Rng::gen_range` over `u32` ranges and
//! `SliceRandom::shuffle`.
//!
//! The generator is xoshiro256++ seeded through SplitMix64 and the range
//! and shuffle code follow the published crate's algorithms, but nothing
//! here has been checked bit for bit against it: quality counts measured
//! with this crate are comparable with each other, not with a build that
//! links the real `rand`.

use std::ops::Range;

/// A source of random bits.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 random bits (the high half of a 64-bit draw).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Construction from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// A generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Integer types `gen_range` can sample.
pub trait SampleUniform: Copy {
    /// A uniform draw from `low..high` (`low < high`).
    fn sample<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
}

impl SampleUniform for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R, low: u32, high: u32) -> u32 {
        assert!(low < high, "cannot sample an empty range");
        let range = high - low;
        // Widening multiply with rejection of the biased zone.
        let zone = (range << range.leading_zeros()).wrapping_sub(1);
        loop {
            let wide = u64::from(rng.next_u32()) * u64::from(range);
            if (wide as u32) <= zone {
                return low + (wide >> 32) as u32;
            }
        }
    }
}

impl SampleUniform for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R, low: u64, high: u64) -> u64 {
        assert!(low < high, "cannot sample an empty range");
        let range = high - low;
        let zone = (range << range.leading_zeros()).wrapping_sub(1);
        loop {
            let wide = u128::from(rng.next_u64()) * u128::from(range);
            if (wide as u64) <= zone {
                return low + (wide >> 64) as u64;
            }
        }
    }
}

impl SampleUniform for usize {
    fn sample<R: RngCore + ?Sized>(rng: &mut R, low: usize, high: usize) -> usize {
        u64::sample(rng, low as u64, high as u64) as usize
    }
}

/// Convenience sampling on top of [`RngCore`].
pub trait Rng: RngCore {
    /// A uniform draw from the half-open `range`.
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        T::sample(self, range.start, range.end)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// A small, fast, non-cryptographic generator (xoshiro256++).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(mut state: u64) -> Self {
            let mut s = [0u64; 4];
            for word in &mut s {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                *word = z ^ (z >> 31);
            }
            Self { s }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

/// Slice helpers.
pub mod seq {
    use super::Rng;

    /// Random reordering of slices.
    pub trait SliceRandom {
        /// Fisher-Yates shuffle, from the back.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let bound = i + 1;
                let j = if bound <= u32::MAX as usize {
                    rng.gen_range(0..bound as u32) as usize
                } else {
                    rng.gen_range(0..bound)
                };
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream_and_ranges_hold() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x = a.gen_range(3..17u32);
            assert_eq!(x, b.gen_range(3..17u32));
            assert!((3..17).contains(&x));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut SmallRng::seed_from_u64(1));
        assert_ne!(v, (0..100).collect::<Vec<u32>>());
        v.sort_unstable();
        assert_eq!(v, (0..100).collect::<Vec<u32>>());
    }
}
