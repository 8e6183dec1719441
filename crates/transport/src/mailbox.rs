//! The bounded mailbox both backends hand to rank threads.
//!
//! One MPSC inbox per rank, one outgoing lane per peer. In-process mode
//! points the lanes straight at the peers' inboxes and moves messages
//! without serializing; the TCP backend makes each lane a socket the
//! sending rank writes its own frames to, and fills the inbox from one
//! reader thread per peer. The executor code cannot tell the difference
//! — that is the point.
//!
//! **Deadlock freedom under bounded capacity.** A blocking send on a
//! full lane could cycle: every rank full-up sending, nobody receiving.
//! [`ChannelMailbox::send`] never blocks without making progress —
//! while its outgoing lane is full it drains its *own* inbox into a
//! local stash (served before the channel on receive, preserving
//! per-sender FIFO order). Some mailbox in any would-be cycle always
//! has a deliverable message to absorb, so the cycle cannot close, even
//! at capacity 1.
//!
//! A socket lane is full when the peer's receive buffer and our send
//! buffer are, which happens only once the peer's reader thread stops
//! reading — and a reader stops only to wait on its own rank's full
//! inbox. The write gives up after a short send timeout (or returns
//! short); the sender then absorbs its inbox and resumes the frame at
//! the byte where it stopped. So a rank stuck writing still drains the
//! inbox its readers wait on, and the argument above holds at the socket
//! level, whatever the buffer sizes.

use crate::tcp::SocketLane;
use crate::wire::Wire;
use crate::{Mailbox, RecvTimeoutError, TryRecvError};
use cip_telemetry::Recorder;
use std::collections::VecDeque;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{
    sync_channel, Receiver, RecvTimeoutError as ChanTimeout, SyncSender, TryRecvError as ChanTry,
    TrySendError,
};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning for mailbox construction.
#[derive(Debug, Clone)]
pub struct MailboxConfig {
    /// Per-lane bounded capacity (clamped to ≥ 1).
    pub capacity: usize,
    /// Sink for `transport.*` counters and the frame-size histogram; a
    /// disabled recorder costs nothing.
    pub recorder: Recorder,
}

impl Default for MailboxConfig {
    fn default() -> Self {
        Self { capacity: 256, recorder: Recorder::disabled() }
    }
}

/// Snapshot of a mailbox's byte-level counters. All zeros for the
/// in-process backend, which never serializes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Frame bytes written to peers.
    pub bytes_sent: u64,
    /// Frame bytes read from peers.
    pub bytes_recv: u64,
    /// Frames written.
    pub frames_sent: u64,
    /// Frames read and decoded.
    pub frames_recv: u64,
    /// Frames dropped for CRC/decode corruption. The runtime detects
    /// each lost payload by its `Done` counts and re-requests it from
    /// the sender's history.
    pub recv_corrupt: u64,
}

crate::codec_struct!(TransportStats {
    bytes_sent,
    bytes_recv,
    frames_sent,
    frames_recv,
    recv_corrupt
});

/// Shared atomic cells behind [`TransportStats`], updated by the
/// sending rank and its reader threads and snapshotted by
/// [`Mailbox::stats`].
#[derive(Default)]
pub(crate) struct StatCells {
    pub(crate) bytes_sent: AtomicU64,
    pub(crate) bytes_recv: AtomicU64,
    pub(crate) frames_sent: AtomicU64,
    pub(crate) frames_recv: AtomicU64,
    pub(crate) recv_corrupt: AtomicU64,
}

impl StatCells {
    fn snapshot(&self) -> TransportStats {
        TransportStats {
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            bytes_recv: self.bytes_recv.load(Ordering::Relaxed),
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            frames_recv: self.frames_recv.load(Ordering::Relaxed),
            recv_corrupt: self.recv_corrupt.load(Ordering::Relaxed),
        }
    }
}

/// Socket halves and reader threads owned by a TCP-backed mailbox, torn
/// down on drop.
pub(crate) struct TcpLinks {
    /// Clones used only to `shutdown(Read)` so blocked readers wake.
    pub(crate) shutters: Vec<TcpStream>,
    pub(crate) readers: Vec<JoinHandle<()>>,
}

/// Where one outgoing lane delivers.
pub(crate) enum Lane<M> {
    /// Straight into the peer's inbox, unserialized (in-process).
    Chan(SyncSender<M>),
    /// Framed onto a socket the sending rank writes itself (TCP).
    Socket(SocketLane),
}

/// One rank's endpoint over either backend. See the module docs for the
/// capacity-1 deadlock-freedom argument.
pub struct ChannelMailbox<M> {
    rank: usize,
    outs: Vec<Option<Lane<M>>>,
    inbox: Receiver<M>,
    /// Incoming messages absorbed while an outgoing lane was full;
    /// served before the inbox so arrival order is preserved.
    stash: VecDeque<M>,
    stats: Arc<StatCells>,
    links: Option<TcpLinks>,
}

impl<M: Send> ChannelMailbox<M> {
    pub(crate) fn new(
        rank: usize,
        outs: Vec<Option<Lane<M>>>,
        inbox: Receiver<M>,
        stats: Arc<StatCells>,
        links: Option<TcpLinks>,
    ) -> Self {
        Self { rank, outs, inbox, stash: VecDeque::new(), stats, links }
    }

    /// This mailbox's rank (= its index in the `connect` result).
    pub fn rank(&self) -> usize {
        self.rank
    }
}

impl<M: Wire> Mailbox<M> for ChannelMailbox<M> {
    fn send(&mut self, to: usize, msg: M) {
        if to == self.rank {
            return; // the executor never self-sends
        }
        let Some(lane) = self.outs.get_mut(to).and_then(Option::as_mut) else {
            return; // closed or unknown lane: counts as message loss
        };
        let tx = match lane {
            Lane::Chan(tx) => tx,
            Lane::Socket(socket) => {
                if !socket.send(&msg, &self.stats, &self.inbox, &mut self.stash) {
                    // The peer is gone; this and every later message to
                    // it count as lost, which the protocol tolerates.
                    self.outs[to] = None;
                }
                return;
            }
        };
        let mut pending = msg;
        loop {
            match tx.try_send(pending) {
                Ok(()) => return,
                // A dead peer drops the message — the chaos protocol
                // already treats unacknowledged sends as lost.
                Err(TrySendError::Disconnected(_)) => return,
                Err(TrySendError::Full(m)) => {
                    pending = m;
                    // Backpressure: absorb our own inbox instead of
                    // blocking, so the send graph cannot deadlock.
                    match self.inbox.try_recv() {
                        Ok(incoming) => self.stash.push_back(incoming),
                        Err(_) => std::thread::yield_now(),
                    }
                }
            }
        }
    }

    fn try_recv(&mut self) -> Result<M, TryRecvError> {
        if let Some(m) = self.stash.pop_front() {
            return Ok(m);
        }
        self.inbox.try_recv().map_err(|e| match e {
            ChanTry::Empty => TryRecvError::Empty,
            ChanTry::Disconnected => TryRecvError::Closed,
        })
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<M, RecvTimeoutError> {
        if let Some(m) = self.stash.pop_front() {
            return Ok(m);
        }
        self.inbox.recv_timeout(timeout).map_err(|e| match e {
            ChanTimeout::Timeout => RecvTimeoutError::Timeout,
            ChanTimeout::Disconnected => RecvTimeoutError::Closed,
        })
    }

    fn close_outgoing(&mut self) {
        for slot in &mut self.outs {
            *slot = None;
        }
    }

    fn stats(&self) -> TransportStats {
        self.stats.snapshot()
    }
}

impl<M> Drop for ChannelMailbox<M> {
    fn drop(&mut self) {
        let Some(links) = self.links.take() else { return };
        // Wake readers blocked on peers that outlive this mailbox.
        for s in &links.shutters {
            let _ = s.shutdown(Shutdown::Read);
        }
        // Dropping a socket lane half-closes it: the peer reads EOF.
        self.outs.clear();
        // Drain the inbox so a reader blocked on a full lane can finish
        // its push and observe the shutdown; recv errors out once every
        // reader has exited and dropped its sender.
        while self.inbox.recv().is_ok() {}
        for r in links.readers {
            let _ = r.join();
        }
    }
}

/// Build `k` fully connected in-process mailboxes: one bounded MPSC
/// inbox per rank, every peer holding a sender clone — exactly the
/// channel topology the executor used before transports existed, plus
/// backpressure.
pub(crate) fn in_process<M: Send>(k: usize, cfg: &MailboxConfig) -> Vec<ChannelMailbox<M>> {
    let cap = cfg.capacity.max(1);
    let mut outs: Vec<Vec<Option<Lane<M>>>> =
        (0..k).map(|_| (0..k).map(|_| None).collect()).collect();
    let mut inboxes = Vec::with_capacity(k);
    for to in 0..k {
        let (tx, rx) = sync_channel::<M>(cap);
        for (from, lanes) in outs.iter_mut().enumerate() {
            if from != to {
                lanes[to] = Some(Lane::Chan(tx.clone()));
            }
        }
        inboxes.push(rx);
        // The original `tx` drops here: only the k-1 peer clones keep
        // the lane open, so sender-drop semantics match the old code.
    }
    let stats = Arc::new(StatCells::default());
    outs.into_iter()
        .zip(inboxes)
        .enumerate()
        .map(|(rank, (lanes, inbox))| ChannelMailbox::new(rank, lanes, inbox, stats.clone(), None))
        .collect()
}
