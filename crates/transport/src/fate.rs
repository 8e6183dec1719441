//! The one seeded fate stream every fault source in the tree draws
//! from: the executor's `FaultPlan`, the [`ChaosPlan`](crate::chaos::ChaosPlan)
//! proxy, and the job client's retry jitter. A fate is a pure function
//! of `(seed, identity)`, so a chaos run replays exactly from its seed.

pub use cip_base::rng::splitmix64;

/// Draws one fate for the event `ident`: `rates` are permille
/// (0..=1000) probabilities of mutually exclusive faults, evaluated in
/// slice order on a single hash of `(seed, ident)`, so the fates of
/// distinct events are independent. Returns the index of the fault that
/// fires, or `None` for "no fault".
#[inline]
pub fn permille_pick(seed: u64, ident: u64, rates: &[u16]) -> Option<usize> {
    if rates.iter().all(|&r| r == 0) {
        return None;
    }
    let mut x = splitmix64(seed, ident) % 1000;
    for (i, &rate) in rates.iter().enumerate() {
        if x < u64::from(rate) {
            return Some(i);
        }
        x -= u64::from(rate);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_follow_the_cumulative_rates() {
        let rates = [100, 0, 300, 50];
        let mut hits = [0usize; 5];
        for ident in 0..20_000u64 {
            let slot = permille_pick(9, ident, &rates).unwrap_or(4);
            assert_ne!(slot, 1, "a zero rate never fires");
            hits[slot] += 1;
            assert_eq!(permille_pick(9, ident, &rates), permille_pick(9, ident, &rates));
        }
        for (slot, want) in [(0, 2_000), (2, 6_000), (3, 1_000), (4, 11_000)] {
            assert!(hits[slot].abs_diff(want) < want / 5, "slot {slot}: {hits:?}");
        }
        assert_eq!(permille_pick(9, 1, &[0, 0]), None);
        assert_eq!(permille_pick(9, 1, &[1000]), Some(0));
    }
}
