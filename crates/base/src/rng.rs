//! The seeded generator: xoshiro256++ seeded through SplitMix64, a
//! widening-multiply `range_u32` and a back-to-front Fisher–Yates
//! `shuffle`. The streams reproduce, bit for bit, the generator every
//! committed benchmark count was measured with (`tests/rng_contract.rs`
//! pins them), so changing a constant here changes every partition.

use std::ops::Range;

/// SplitMix64 of `seed` advanced by `salt` increments: the one hash behind
/// generator seeding, the partitioner's child seeds and every fault fate.
#[inline]
pub fn splitmix64(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9E3779B97F4A7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A small, fast, non-cryptographic generator (xoshiro256++).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// A generator whose stream is a pure function of `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        Self { s: [1, 2, 3, 4].map(|i| splitmix64(seed, i)) }
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
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

    /// A uniform draw from `0..bound`, by widening multiply on the high
    /// half of one 64-bit draw, rejecting the biased zone.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    #[inline]
    pub fn range_u32(&mut self, bound: u32) -> u32 {
        assert!(bound > 0, "cannot sample an empty range");
        let zone = (bound << bound.leading_zeros()).wrapping_sub(1);
        loop {
            let wide = (self.next_u64() >> 32) * u64::from(bound);
            if (wide as u32) <= zone {
                return (wide >> 32) as u32;
            }
        }
    }

    /// A uniform draw from `range`, at most `u32::MAX` wide: the signed
    /// form the property sweeps draw their inputs with.
    ///
    /// # Panics
    /// Panics if `range` is empty or wider than `u32::MAX`.
    pub fn range_i64(&mut self, range: Range<i64>) -> i64 {
        let span = u32::try_from(range.end - range.start).expect("a span that fits u32");
        range.start + i64::from(self.range_u32(span))
    }

    /// Fisher–Yates shuffle, from the back.
    ///
    /// # Panics
    /// Panics if `items` has more than `u32::MAX` elements.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        let len = u32::try_from(items.len()).expect("shuffle indexes with u32");
        for i in (1..len).rev() {
            items.swap(i as usize, self.range_u32(i + 1) as usize);
        }
    }
}

/// The property-test driver: runs `case` on one generator per seed in
/// `0..cases` and, when a case panics, names its seed on stderr beside the
/// assertion message, so the failure replays from the seed alone.
pub fn sweep(cases: u64, mut case: impl FnMut(&mut Rng)) {
    struct NameSeed(u64);
    impl Drop for NameSeed {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("sweep: the failing seed is {}", self.0);
            }
        }
    }
    for seed in 0..cases {
        let _name = NameSeed(seed);
        case(&mut Rng::seed_from_u64(seed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_ranges_hold() {
        let (mut a, mut b) = (Rng::seed_from_u64(7), Rng::seed_from_u64(7));
        for _ in 0..1000 {
            let x = a.range_u32(14);
            assert_eq!(x, b.range_u32(14));
            assert!(x < 14);
        }
        assert_eq!(a.range_u32(1), 0);
        assert!((0..1000).all(|_| (-3..4).contains(&a.range_i64(-3..4))));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<u32> = (0..100).collect();
        Rng::seed_from_u64(1).shuffle(&mut v);
        assert_ne!(v, (0..100).collect::<Vec<u32>>());
        v.sort_unstable();
        assert_eq!(v, (0..100).collect::<Vec<u32>>());
        Rng::seed_from_u64(1).shuffle::<u32>(&mut []);
    }
}
