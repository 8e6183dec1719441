//! The harness's only source of randomness: SplitMix64.
//!
//! `--seed` enters here and nowhere else. Every generated input —
//! partitioner seeds, job seeds, boundary perturbations — is drawn from a
//! [`SplitMix64`] stream or a [`fork`] of the run seed; the programs under
//! test only ever see those generated values.

const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `salt`-th independent seed derived from `seed`.
pub fn fork(seed: u64, salt: u64) -> u64 {
    mix(seed.wrapping_add(salt.wrapping_add(1).wrapping_mul(GAMMA)))
}

/// A SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream that is a pure function of `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        mix(self.state)
    }

    /// A draw from `0..n` (`n > 0`); the modulo bias is irrelevant at the
    /// sizes the harness uses.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_and_forks_are_pure_functions_of_the_seed() {
        let a: Vec<u64> = std::iter::repeat_with({
            let mut r = SplitMix64::new(42);
            move || r.next_u64()
        })
        .take(4)
        .collect();
        let mut again = SplitMix64::new(42);
        assert!(a.iter().all(|&x| x == again.next_u64()));
        // Reference value of the published SplitMix64 for seed 0.
        assert_eq!(SplitMix64::new(0).next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(fork(7, 3), fork(7, 3));
        assert_ne!(fork(7, 3), fork(7, 4));
        assert_ne!(fork(7, 3), fork(8, 3));
        assert!(SplitMix64::new(1).below(10) < 10);
    }
}
