//! Deterministic fault injection for the step executor.
//!
//! A [`FaultPlan`] decides, purely from its seed and a message's identity
//! `(from, to, seq)`, whether that message is delivered, dropped,
//! duplicated, delayed past the sender's `Done` marker, or reordered with
//! the next message to the same destination — and whether a rank is
//! killed mid-step. [`crate::execute_steps`] takes one `Option<FaultPlan>`
//! per step, and a plan only decides fates and kills: every step, `None`
//! (clean) or armed, runs the same delivery and repair protocol, so a
//! clean step draws no fates and re-sends a payload the transport lost.
//!
//! Two rules keep chaos runs provably convergent:
//!
//! * fates apply to **first transmissions only** — the executor's
//!   retry/resend path replays messages verbatim from its history buffer,
//!   bypassing injection, so one retry round always repairs pure
//!   message-level faults;
//! * only payload messages (`Halo`, `Elements`, `Migrate`) are
//!   injectable — `Done` trailers and the recovery-control messages are
//!   never given a fate; a `Done` the transport loses is requested again
//!   by the timeout path, and one a killed rank never sent is how it
//!   detects the death.

use cip_transport::{codec_struct, permille_pick, splitmix64};

/// The fate of one first-transmission payload message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Send normally.
    Deliver,
    /// Never send (the receiver must detect the gap and ask again).
    Drop,
    /// Send twice (the receiver must deduplicate by sequence number).
    Duplicate,
    /// Hold until after the sender's `Done` marker (arrives "late").
    Delay,
    /// Swap with the next message to the same destination.
    Reorder,
}

/// Kills one rank mid-step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSpec {
    /// The rank to kill.
    pub rank: u32,
    /// The rank dies just before its `after_sends + 1`-th payload send
    /// (0 = before any send; a value past the rank's send count kills it
    /// right before its `Done` markers).
    pub after_sends: u64,
}

/// Permille rates (0..=1000) of the four message faults, evaluated in
/// the order drop → duplicate → delay → reorder on one hash per message
/// ([`cip_transport::fate`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultRates {
    /// Permille of payload messages dropped.
    pub drop_permille: u16,
    /// Permille of payload messages duplicated.
    pub dup_permille: u16,
    /// Permille of payload messages delayed past `Done`.
    pub delay_permille: u16,
    /// Permille of payload messages swapped with their successor.
    pub reorder_permille: u16,
}

impl FaultRates {
    /// A modest default chaos mix: 2% drops, 1% duplicates, 1% delays,
    /// 1% reorders.
    pub const CHAOS: Self =
        Self { drop_permille: 20, dup_permille: 10, delay_permille: 10, reorder_permille: 10 };

    /// The rates in evaluation order.
    pub fn in_order(&self) -> [u16; 4] {
        [self.drop_permille, self.dup_permille, self.delay_permille, self.reorder_permille]
    }
}

/// A deterministic, seeded chaos schedule for one executed step: the
/// fates of distinct messages are independent and the whole plan is a
/// pure function of `(seed, from, to, seq)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the per-message fate hash.
    pub seed: u64,
    /// How often each message fault fires.
    pub rates: FaultRates,
    /// Optional mid-step rank kill.
    pub kill: Option<KillSpec>,
}

codec_struct!(KillSpec { rank, after_sends });
codec_struct!(FaultRates { drop_permille, dup_permille, delay_permille, reorder_permille });
codec_struct!(FaultPlan { seed, rates, kill });

impl FaultPlan {
    /// A plan that injects nothing (useful as a baseline: arming a step
    /// with it only adds one fate draw per payload, and must not change
    /// the output).
    pub fn quiet(seed: u64) -> Self {
        Self { seed, ..Self::default() }
    }

    /// The [`FaultRates::CHAOS`] mix, no kill.
    pub fn chaos(seed: u64) -> Self {
        Self { seed, rates: FaultRates::CHAOS, kill: None }
    }

    /// Derives the per-step plan of a multi-step run: an independent fate
    /// stream per step, same rates, same kill spec.
    pub fn for_step(&self, step: u64) -> Self {
        Self { seed: splitmix64(self.seed, 0xFA_0175 ^ step), ..self.clone() }
    }

    /// The fate of first transmission `(from, to, seq)`.
    pub fn fate(&self, from: u32, to: u32, seq: u64) -> Fate {
        let ident = (u64::from(from) << 40) ^ (u64::from(to) << 20) ^ seq;
        match permille_pick(self.seed, ident, &self.rates.in_order()) {
            Some(0) => Fate::Drop,
            Some(1) => Fate::Duplicate,
            Some(2) => Fate::Delay,
            Some(_) => Fate::Reorder,
            None => Fate::Deliver,
        }
    }

    /// Whether `rank` dies once it has made `sends_so_far` payload sends.
    pub fn kills(&self, rank: u32, sends_so_far: u64) -> bool {
        self.kill.is_some_and(|k| k.rank == rank && sends_so_far >= k.after_sends)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_is_armed_but_injects_nothing() {
        let plan = FaultPlan::quiet(99);
        assert!(!plan.kills(0, 0));
        for from in 0..4 {
            for to in 0..4 {
                for seq in 0..50 {
                    assert_eq!(plan.fate(from, to, seq), Fate::Deliver);
                }
            }
        }
    }

    #[test]
    fn fates_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::chaos(7);
        let b = FaultPlan::chaos(7);
        let c = FaultPlan::chaos(8);
        let fates_a: Vec<Fate> = (0..500).map(|s| a.fate(1, 2, s)).collect();
        let fates_b: Vec<Fate> = (0..500).map(|s| b.fate(1, 2, s)).collect();
        let fates_c: Vec<Fate> = (0..500).map(|s| c.fate(1, 2, s)).collect();
        assert_eq!(fates_a, fates_b, "same seed, same fates");
        assert_ne!(fates_a, fates_c, "different seed, different stream");
        // The rates are low, so most messages must be delivered.
        let delivered = fates_a.iter().filter(|&&f| f == Fate::Deliver).count();
        assert!(delivered > 400, "delivered {delivered}/500");
        // But with 500 draws at 5% total rate, *some* fault must fire.
        assert!(delivered < 500, "chaos plan never injected anything");
    }

    #[test]
    fn per_step_plans_have_independent_streams() {
        let base = FaultPlan::chaos(3);
        let s0 = base.for_step(0);
        let s1 = base.for_step(1);
        assert_ne!(s0.seed, s1.seed);
        assert_eq!(s0.rates, base.rates);
        assert_eq!(s0.for_step(0).seed, base.for_step(0).for_step(0).seed, "derivation is pure");
    }

    #[test]
    fn kill_threshold_semantics() {
        let plan =
            FaultPlan { kill: Some(KillSpec { rank: 2, after_sends: 3 }), ..FaultPlan::quiet(1) };
        assert!(!plan.kills(2, 0));
        assert!(!plan.kills(2, 2));
        assert!(plan.kills(2, 3));
        assert!(plan.kills(2, 10));
        assert!(!plan.kills(1, 10), "only the named rank dies");
    }
}
