//! Deterministic fault injection for the step executor.
//!
//! A [`FaultPlan`] decides, purely from its seed and a message's identity
//! `(from, to, seq)`, whether that message is delivered, dropped,
//! duplicated, delayed past the sender's `Done` marker, or reordered with
//! the next message to the same destination — and whether a rank is
//! killed mid-step. [`crate::execute_steps`] takes one `Option<FaultPlan>`
//! per step, and every step, `None` (clean) or armed, runs the same
//! delivery and repair protocol. The rank loop decides only kills, as a
//! kill changes what the rank does next; it sends every frame through
//! the `Chaos` seat, which decides what the wire sees. Two rules keep
//! chaos runs provably convergent:
//!
//! * fates apply to **first transmissions only** — the seat knows a
//!   resend by its `seq`, below that `(step, to)`'s first-transmission
//!   cursor, and passes it verbatim, so one retry round always repairs
//!   pure message-level faults;
//! * only payload messages (`Halo`, `Elements`, `Migrate`) are
//!   injectable — `Done` trailers and the recovery-control messages are
//!   never given a fate; a `Done` the transport loses is requested again
//!   by the timeout path, and one a killed rank never sent is how it
//!   detects the death.

use crate::exec::Msg;
use cip_telemetry::Recorder;
use cip_transport::{
    codec_struct, permille_pick, splitmix64, Mailbox, RecvTimeoutError, TryRecvError,
};
use std::time::Duration;

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

/// One rank's seat for one batch, the one place a frame's fate is
/// decided: a payload's first transmission gets the fate its step's plan
/// draws for `(me, to, seq)`, charged to that step's `fault.*` counters;
/// a resend, every control message and a clean step's frames pass
/// verbatim. It wraps the epoch-fenced seat, so it sees batch-local
/// steps and live ranks.
pub(crate) struct Chaos<'a, MB> {
    inner: &'a mut MB,
    me: u32,
    k: usize,
    /// Per batch-local step (`None` = clean).
    arms: Vec<Option<Arm<'a>>>,
    /// Per `(step, to)`, at `[step * k + to]`.
    lanes: Vec<Lane>,
}

/// A step's plan and the recorder its `fault.*` counters go to.
type Arm<'a> = (&'a FaultPlan, &'a Recorder);

/// What the seat keeps for one `(step, to)`.
#[derive(Default)]
struct Lane {
    /// The next first-transmission `seq`: a lower one is a resend.
    next: u64,
    /// The payload a `Reorder` holds until the next send to `to`.
    held: Option<Msg>,
    /// Payloads a `Delay` holds until after the step's `Done`.
    delayed: Vec<Msg>,
}

impl<'a, MB: Mailbox<Msg>> Chaos<'a, MB> {
    /// Wraps `inner`, rank `me`'s seat of a `k`-rank batch whose steps
    /// carry `arms` (empty = a clean batch).
    pub(crate) fn new(inner: &'a mut MB, me: u32, k: usize, arms: Vec<Option<Arm<'a>>>) -> Self {
        let lanes = std::iter::repeat_with(Lane::default).take(arms.len() * k).collect();
        Self { inner, me, k, arms, lanes }
    }
}

impl<MB: Mailbox<Msg>> Mailbox<Msg> for Chaos<'_, MB> {
    fn send(&mut self, to: usize, msg: Msg) {
        let (step, seq) = match &msg {
            Msg::Halo { step, seq, .. }
            | Msg::Elements { step, seq, .. }
            | Msg::Migrate { step, seq, .. } => (*step as usize, Some(*seq)),
            Msg::Done { step, .. } => (*step as usize, None),
            Msg::Resend { .. } | Msg::Complete { .. } => return self.inner.send(to, msg),
        };
        let Self { inner, me, k, arms, lanes } = self;
        let (Some(&Some((plan, rec))), Some(lane)) =
            (arms.get(step), lanes.get_mut(step * *k + to))
        else {
            return inner.send(to, msg);
        };
        let seq = match seq {
            // A `Done` goes out after its step's held payload and before
            // the delayed ones.
            None => {
                for m in lane.held.take().into_iter().chain([msg]).chain(lane.delayed.drain(..)) {
                    inner.send(to, m);
                }
                return;
            }
            Some(seq) if seq < lane.next => return inner.send(to, msg),
            Some(seq) => seq,
        };
        lane.next = seq + 1;
        match plan.fate(*me, to as u32, seq) {
            Fate::Deliver => inner.send(to, msg),
            Fate::Drop => rec.add("fault.dropped", 1),
            Fate::Duplicate => {
                rec.add("fault.duplicated", 1);
                inner.send(to, msg.clone());
                inner.send(to, msg);
            }
            Fate::Delay => {
                rec.add("fault.delayed", 1);
                lane.delayed.push(msg);
            }
            // The first of a run is held, the rest go out as they come.
            Fate::Reorder => {
                rec.add("fault.reordered", 1);
                match lane.held {
                    None => lane.held = Some(msg),
                    Some(_) => inner.send(to, msg),
                }
                return;
            }
        }
        // Any other send releases the held predecessor *after* itself:
        // the two swap places on the wire.
        if let Some(held) = lane.held.take() {
            inner.send(to, held);
        }
    }

    fn try_recv(&mut self) -> Result<Msg, TryRecvError> {
        self.inner.try_recv()
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Msg, RecvTimeoutError> {
        self.inner.recv_timeout(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cip_transport::{InProcess, MailboxConfig, Transport};

    /// What rank 1 receives when rank 0's seat, armed with `rates` for
    /// step 0, sends `sends` in order.
    fn seen_through(rates: FaultRates, sends: Vec<Msg>) -> Vec<Msg> {
        let mut mesh = InProcess.connect::<Msg>(2, &MailboxConfig::default()).expect("mesh");
        let (plan, rec) = (FaultPlan { rates, ..FaultPlan::quiet(3) }, Recorder::disabled());
        let mut seat = Chaos::new(&mut mesh[0], 0, 2, vec![Some((&plan, &rec))]);
        for msg in sends {
            seat.send(1, msg);
        }
        std::iter::from_fn(|| mesh[1].try_recv().ok()).collect()
    }

    fn halo(seq: u64) -> Msg {
        Msg::Halo { from: 0, step: 0, seq, values: vec![(seq as u32, [0.0; 3])] }
    }

    fn done(sent: u64) -> Msg {
        Msg::Done { from: 0, step: 0, sent }
    }

    #[test]
    fn the_seat_orders_each_destinations_frames_by_their_fates() {
        // Reordered: the second payload overtakes the held first, which
        // still precedes the trailer.
        let reorder = FaultRates { reorder_permille: 1000, ..FaultRates::default() };
        let got = seen_through(reorder, vec![halo(0), halo(1), done(2)]);
        assert_eq!(got, [halo(1), halo(0), done(2)]);
        // Delayed: the payload arrives after the trailer.
        let delay = FaultRates { delay_permille: 1000, ..FaultRates::default() };
        assert_eq!(seen_through(delay, vec![halo(0), done(1)]), [done(1), halo(0)]);
        // Dropped: the first transmission is lost, and a resend of its seq
        // passes verbatim, like the trailer.
        let drop = FaultRates { drop_permille: 1000, ..FaultRates::default() };
        assert_eq!(seen_through(drop, vec![halo(0), done(1), halo(0)]), [done(1), halo(0)]);
    }

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
