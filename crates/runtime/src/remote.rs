//! Running batches over a persistent mesh.
//!
//! A rank's mesh outlives every batch: a session connects its mailboxes
//! once ([`connect_ranks`]; a worker process builds its end of the TCP
//! mesh at start-up) and each batch runs over a per-batch view of them.
//! A frame still in flight when a batch ends or fails (a resend answered
//! late, a duplicate, a halo a dying rank managed to push) would
//! otherwise be delivered into the *next* batch and corrupt it.
//!
//! [`SteppedMailbox`] solves this by tagging every step-carrying message
//! with a driver-assigned **epoch base**: batch-local step `s` travels
//! as `base + s`, and the receive side drops anything tagged below the
//! current base before handing it to the executor (which already ignores
//! steps at or past the batch length). As long as the driver hands out
//! strictly increasing, non-overlapping base ranges — `base` must grow
//! by at least the *attempted* length of the previous batch, committed
//! or not — a stale frame can never alias into a live step. This is the
//! only staleness argument in the tree: rank threads and worker
//! processes share it.
//!
//! The wrapper also maps the executor's *live* rank space onto the
//! transport's fixed peer space. After a rank loss the survivors are
//! relabeled `0..live_k`, but a worker mesh still addresses the original
//! worker processes; `route[live]` names the transport peer that now
//! plays rank `live`. Incoming `from` fields need no translation — the
//! sender already writes its own live rank into every message. (A
//! session of rank threads reconnects a `live_k`-sized mesh after a loss
//! instead, so its route is always the identity.)
//!
//! [`Mailbox::close_outgoing`] stays the default no-op: the mesh must
//! stay open for the next batch.

use crate::exec::{ExecOptions, Msg};
use cip_telemetry::Recorder;
use cip_transport::{
    Mailbox, RecvTimeoutError, Transport, TransportError, TransportStats, TryRecvError,
};
use std::time::{Duration, Instant};

/// Connects the `k` seats of one session over `transport` (index =
/// rank), counting the mesh build in `rec`'s `transport.mesh.connects`.
/// A seat is the rank's connected mailbox and nothing else: it is all a
/// rank keeps from batch to batch.
pub fn connect_ranks<T: Transport>(
    transport: &T,
    k: usize,
    opts: &ExecOptions,
    rec: &Recorder,
) -> Result<Vec<T::Mailbox<Msg>>, TransportError> {
    let mailboxes = transport.connect::<Msg>(k, &opts.mailbox_config(rec))?;
    rec.add("transport.mesh.connects", 1);
    Ok(mailboxes)
}

/// A per-batch view over a persistent mailbox: epoch-tags outgoing
/// steps, drops stale inbound frames, and routes live ranks to
/// transport peers. See the module docs for the staleness argument.
pub struct SteppedMailbox<'a, MB> {
    inner: &'a mut MB,
    base: u32,
    route: &'a [u32],
}

impl<'a, MB: Mailbox<Msg>> SteppedMailbox<'a, MB> {
    /// Wrap `inner` for one batch. `base` is this batch's epoch tag;
    /// `route[live_rank]` is the transport peer playing that rank (use
    /// an identity slice when no rank has been lost).
    pub fn new(inner: &'a mut MB, base: u32, route: &'a [u32]) -> Self {
        Self { inner, base, route }
    }

    /// Re-tag an outgoing message from batch-local to global steps.
    fn lift(&self, msg: &mut Msg) {
        match msg {
            Msg::Halo { step, .. }
            | Msg::Elements { step, .. }
            | Msg::Done { step, .. }
            | Msg::Resend { step, .. }
            | Msg::Migrate { step, .. } => *step += self.base,
            Msg::Complete { .. } => {}
        }
    }

    /// Map an inbound message back to batch-local steps; `None` means
    /// the frame belongs to an earlier epoch and must be dropped.
    fn lower(&self, mut msg: Msg) -> Option<Msg> {
        match &mut msg {
            Msg::Halo { step, .. }
            | Msg::Elements { step, .. }
            | Msg::Done { step, .. }
            | Msg::Resend { step, .. }
            | Msg::Migrate { step, .. } => {
                if *step < self.base {
                    return None;
                }
                *step -= self.base;
            }
            Msg::Complete { .. } => {}
        }
        Some(msg)
    }
}

impl<MB: Mailbox<Msg>> Mailbox<Msg> for SteppedMailbox<'_, MB> {
    fn send(&mut self, to: usize, mut msg: Msg) {
        self.lift(&mut msg);
        // An unrouted rank cannot happen in a well-formed batch; treat
        // it as a dead peer (silent drop) rather than misdelivering.
        let Some(&peer) = self.route.get(to) else { return };
        self.inner.send(peer as usize, msg);
    }

    fn try_recv(&mut self) -> Result<Msg, TryRecvError> {
        loop {
            let msg = self.inner.try_recv()?;
            if let Some(m) = self.lower(msg) {
                return Ok(m);
            }
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Msg, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let msg = self.inner.recv_timeout(left)?;
            if let Some(m) = self.lower(msg) {
                return Ok(m);
            }
            if Instant::now() >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
        }
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cip_transport::{InProcess, MailboxConfig, Transport};

    fn mesh(k: usize) -> Vec<impl Mailbox<Msg>> {
        InProcess.connect::<Msg>(k, &MailboxConfig::default()).expect("in-process mesh")
    }

    #[test]
    fn steps_are_lifted_and_lowered_by_the_base() {
        let mut mbs = mesh(2);
        let (a, b) = mbs.split_at_mut(1);
        let route = [0u32, 1];
        let mut tx = SteppedMailbox::new(&mut a[0], 100, &route);
        tx.send(1, Msg::Done { from: 0, step: 3, sent: 5 });
        // On the wire the step is global...
        let raw = b[0].try_recv().expect("delivered");
        assert_eq!(raw, Msg::Done { from: 0, step: 103, sent: 5 });
        // ...and a wrapped receiver sees it batch-local again.
        let mut tx2 = SteppedMailbox::new(&mut a[0], 100, &route);
        tx2.send(1, Msg::Done { from: 0, step: 3, sent: 5 });
        let mut rx = SteppedMailbox::new(&mut b[0], 100, &route);
        let msg = rx.recv_timeout(Duration::from_secs(5)).expect("delivered");
        assert_eq!(msg, Msg::Done { from: 0, step: 3, sent: 5 });
    }

    #[test]
    fn stale_epochs_are_dropped_completes_pass() {
        let mut mbs = mesh(2);
        let (a, b) = mbs.split_at_mut(1);
        // A frame from epoch 40 arrives while the receiver is in epoch
        // 200: dropped. A Complete and a current-epoch frame pass.
        a[0].send(1, Msg::Done { from: 0, step: 40, sent: 1 });
        a[0].send(1, Msg::Complete { from: 0 });
        a[0].send(1, Msg::Done { from: 0, step: 207, sent: 2 });
        let route = [0u32, 1];
        let mut rx = SteppedMailbox::new(&mut b[0], 200, &route);
        assert_eq!(rx.try_recv(), Ok(Msg::Complete { from: 0 }));
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)),
            Ok(Msg::Done { from: 0, step: 7, sent: 2 })
        );
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn migrate_stages_are_epoch_fenced_like_payload_steps() {
        let mut mbs = mesh(2);
        let (a, b) = mbs.split_at_mut(1);
        let route = [0u32, 1];
        // A migrate stage from a pre-recovery epoch must be dropped; the
        // current epoch's stage passes and lowers to batch-local step 0.
        a[0].send(1, Msg::Migrate { from: 0, step: 40, nodes: vec![7] });
        let mut tx = SteppedMailbox::new(&mut a[0], 200, &route);
        tx.send(1, Msg::Migrate { from: 0, step: 0, nodes: vec![8, 9] });
        let mut rx = SteppedMailbox::new(&mut b[0], 200, &route);
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)),
            Ok(Msg::Migrate { from: 0, step: 0, nodes: vec![8, 9] })
        );
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn routes_live_ranks_to_surviving_peers() {
        // 3-peer mesh, peer 1 lost: live rank 1 is peer 2.
        let mut mbs = mesh(3);
        let route = [0u32, 2];
        let (a, rest) = mbs.split_at_mut(1);
        let mut tx = SteppedMailbox::new(&mut a[0], 0, &route);
        tx.send(1, Msg::Complete { from: 0 });
        // Out-of-route live ranks drop silently instead of misrouting.
        tx.send(5, Msg::Complete { from: 0 });
        assert_eq!(rest[1].try_recv(), Ok(Msg::Complete { from: 0 }));
        assert_eq!(rest[0].try_recv(), Err(TryRecvError::Empty));
        assert_eq!(rest[1].try_recv(), Err(TryRecvError::Empty));
    }
}
