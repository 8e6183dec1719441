//! Pluggable rank-to-rank message transport.
//!
//! The runtime executor (cip-runtime) speaks to its peers through a
//! per-rank [`Mailbox`]: send to any peer, receive from all of them
//! with a timeout — exactly the semantics of the bounded channels the
//! executor grew up on. This crate makes that surface a trait with two
//! backends:
//!
//! * [`InProcess`] — bounded `std::sync::mpsc` channels, no serialization. The
//!   default, and the bit-identity oracle every other backend is
//!   measured against.
//! * [`tcp::Tcp`] — one persistent TCP connection per peer pair,
//!   length-prefixed CRC-checked binary frames ([`frame`]) that the
//!   sending rank writes itself, one buffered reader thread per
//!   connection. The same mesh can be built
//!   across OS processes via [`tcp::bind_mesh`] / [`tcp::connect_mesh`]
//!   / [`tcp::mesh_mailbox`] — that is what the `cip-worker` binary
//!   does.
//!
//! Messages implement [`Wire`] ([`wire`] has the primitives); transport
//! failures are typed [`TransportError`]s, never panics, so the
//! runtime's retry/NACK protocol handles a corrupt frame on a real
//! socket the same way it handles an injected drop.

pub mod chaos;
pub mod fate;
pub mod frame;
pub mod mailbox;
pub mod tcp;
pub mod wire;

pub use fate::{permille_pick, splitmix64};
pub use frame::{FrameHeader, ReadError, HEADER_LEN, MAX_PAYLOAD, WIRE_VERSION};
pub use mailbox::{ChannelMailbox, MailboxConfig, TransportStats};
pub use wire::{ByteReader, ByteWriter, Codec, Route, Wire, WireError};

use std::fmt;
use std::time::Duration;

/// Why [`Mailbox::try_recv`] returned nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// No message queued right now.
    Empty,
    /// Every sending lane has closed; nothing will ever arrive.
    Closed,
}

/// Why [`Mailbox::recv_timeout`] returned nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// Nothing arrived within the timeout.
    Timeout,
    /// Every sending lane has closed; nothing will ever arrive.
    Closed,
}

/// A shared cancellation flag with checkpoint semantics: the holder of a
/// running step loop (a `cip::trace::Session`, a job-server
/// worker) polls it at batch boundaries and winds down cleanly when it
/// trips. Cloning shares the flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(std::sync::Arc<std::sync::atomic::AtomicBool>);

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trips the flag; every clone observes it at its next checkpoint.
    pub fn cancel(&self) {
        self.0.store(true, std::sync::atomic::Ordering::Release);
    }

    /// Whether the flag has been tripped.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(std::sync::atomic::Ordering::Acquire)
    }
}

/// A transport-layer failure: connection setup, socket I/O, or a fatal
/// wire-format violation.
#[derive(Debug)]
pub enum TransportError {
    /// Byte-level decode failure outside a stream, or one fatal enough
    /// to kill a stream (version mismatch, absurd length).
    Wire(WireError),
    /// Socket or stream failure; `what` names the operation.
    Io {
        /// The operation that failed.
        what: &'static str,
        /// The underlying I/O error, stringified.
        detail: String,
    },
    /// A peer spoke the wrong protocol during connection setup.
    Handshake {
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Wire(e) => write!(f, "wire decode failed: {e}"),
            Self::Io { what, detail } => write!(f, "transport i/o failed ({what}): {detail}"),
            Self::Handshake { detail } => write!(f, "transport handshake failed: {detail}"),
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for TransportError {
    fn from(e: WireError) -> Self {
        Self::Wire(e)
    }
}

/// One rank's endpoint: send to any peer, receive from all of them.
///
/// Contract (what the executor protocol relies on):
/// * `send` must not deadlock under bounded capacity — implementations
///   make progress by absorbing their own inbox while an outgoing lane
///   is full; per-sender FIFO order is preserved.
/// * Sends to dead or closed peers are dropped silently; the runtime's
///   sequence/NACK protocol treats them as message loss.
/// * After every peer calls [`Mailbox::close_outgoing`] (or drops), a
///   receiver drains what is queued and then sees `Closed`.
pub trait Mailbox<M>: Send {
    /// Queue `msg` for rank `to`.
    fn send(&mut self, to: usize, msg: M);
    /// Non-blocking receive from any peer.
    fn try_recv(&mut self) -> Result<M, TryRecvError>;
    /// Blocking receive with a timeout.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<M, RecvTimeoutError>;
    /// Declare that this rank will send nothing further; peers' drains
    /// observe `Closed` once every rank has done so.
    fn close_outgoing(&mut self) {}
    /// Byte/frame counters (zeros for backends that never serialize).
    fn stats(&self) -> TransportStats {
        TransportStats::default()
    }
}

/// Factory for the `k` connected per-rank mailboxes of one executor
/// run.
pub trait Transport {
    /// The mailbox type handed to each rank thread.
    type Mailbox<M: Wire>: Mailbox<M>;

    /// Build `k` mutually connected mailboxes; index = rank.
    fn connect<M: Wire>(
        &self,
        k: usize,
        cfg: &MailboxConfig,
    ) -> Result<Vec<Self::Mailbox<M>>, TransportError>;
}

/// The in-process backend: bounded channels, no serialization — the
/// default and the oracle.
#[derive(Debug, Clone, Copy, Default)]
pub struct InProcess;

impl Transport for InProcess {
    type Mailbox<M: Wire> = ChannelMailbox<M>;

    fn connect<M: Wire>(
        &self,
        k: usize,
        cfg: &MailboxConfig,
    ) -> Result<Vec<Self::Mailbox<M>>, TransportError> {
        Ok(mailbox::in_process(k, cfg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire::{ByteReader, ByteWriter};

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Ping {
        from: u32,
        n: u64,
    }

    impl Wire for Ping {
        fn tag(&self) -> u8 {
            1
        }
        fn route(&self) -> Route {
            Route { from: self.from, ..Route::default() }
        }
        fn encode_payload(&self, w: &mut ByteWriter<'_>) {
            self.n.put(w);
        }
        fn decode_payload(tag: u8, h: Route, r: &mut ByteReader<'_>) -> Result<Self, WireError> {
            if tag != 1 {
                return Err(WireError::BadTag { got: tag });
            }
            Ok(Ping { from: h.from, n: Codec::get(r)? })
        }
    }

    fn ring_trip<T: Transport>(transport: &T, k: usize, capacity: usize) {
        // Each rank sends `rounds` pings to its right neighbour and
        // receives as many from the left — with capacity 1 this
        // saturates every lane and exercises the anti-deadlock stash.
        let rounds = 64u64;
        let cfg = MailboxConfig { capacity, ..Default::default() };
        let mailboxes = transport.connect::<Ping>(k, &cfg).unwrap();
        let got: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = mailboxes
                .into_iter()
                .enumerate()
                .map(|(r, mut mb)| {
                    s.spawn(move || {
                        for n in 0..rounds {
                            mb.send((r + 1) % k, Ping { from: r as u32, n });
                        }
                        let mut sum = 0;
                        for _ in 0..rounds {
                            let p = mb
                                .recv_timeout(std::time::Duration::from_secs(10))
                                .expect("ping arrives");
                            assert_eq!(p.from as usize, (r + k - 1) % k);
                            sum += p.n;
                        }
                        mb.close_outgoing();
                        sum
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let expect = rounds * (rounds - 1) / 2;
        assert!(got.iter().all(|&s| s == expect), "{got:?}");
    }

    #[test]
    fn in_process_ring_survives_capacity_one() {
        ring_trip(&InProcess, 4, 1);
        ring_trip(&InProcess, 3, 256);
    }

    #[test]
    fn tcp_ring_survives_capacity_one() {
        ring_trip(&tcp::Tcp::loopback(), 4, 1);
    }

    /// A 1 MiB frame whose every byte names its sender and sequence.
    #[derive(Debug)]
    enum Bulk {
        Chunk { from: u32, n: u64, data: Vec<u8> },
    }

    crate::codec_enum!(framed Bulk { 1 => Chunk { [from] n, data } });

    fn fill(from: u32, n: u64) -> u8 {
        (from as u64 * 61 + n) as u8
    }

    #[test]
    fn tcp_senders_absorb_their_inbox_while_socket_buffers_are_full() {
        // Every rank writes 48 MiB to each peer before it reads anything,
        // far past what the socket buffers hold: a sender that just
        // blocked in `write` would wait on a peer blocked the same way.
        let (k, frames) = (3, 48u64);
        let cfg = MailboxConfig { capacity: 1, ..Default::default() };
        let mailboxes = tcp::Tcp::loopback().connect::<Bulk>(k, &cfg).unwrap();
        std::thread::scope(|s| {
            for (r, mut mb) in mailboxes.into_iter().enumerate() {
                s.spawn(move || {
                    for n in 0..frames {
                        for peer in (0..k).filter(|&p| p != r) {
                            let data = vec![fill(r as u32, n); 1 << 20];
                            mb.send(peer, Bulk::Chunk { from: r as u32, n, data });
                        }
                    }
                    let mut next = vec![0u64; k];
                    for _ in 0..frames * (k as u64 - 1) {
                        let Bulk::Chunk { from, n, data } =
                            mb.recv_timeout(std::time::Duration::from_secs(30)).expect("arrives");
                        assert_eq!(n, next[from as usize], "per-sender FIFO order");
                        next[from as usize] += 1;
                        assert_eq!(data.len(), 1 << 20);
                        assert!(data.iter().all(|&b| b == fill(from, n)), "payload intact");
                    }
                    assert_eq!(mb.stats().recv_corrupt, 0);
                });
            }
        });
    }

    #[test]
    fn tcp_carries_stats() {
        let cfg = MailboxConfig::default();
        let mailboxes = tcp::Tcp::loopback().connect::<Ping>(2, &cfg).unwrap();
        let stats = std::thread::scope(|s| {
            let handles: Vec<_> = mailboxes
                .into_iter()
                .enumerate()
                .map(|(r, mut mb)| {
                    s.spawn(move || {
                        mb.send(1 - r, Ping { from: r as u32, n: 7 });
                        let p = mb.recv_timeout(std::time::Duration::from_secs(10)).unwrap();
                        assert_eq!(p.n, 7);
                        // A send is counted before it returns, a receive
                        // before it is delivered: nothing to wait for.
                        mb.stats()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
        });
        for st in stats {
            assert_eq!(st.frames_sent, 1);
            assert_eq!(st.frames_recv, 1);
            assert_eq!(st.bytes_sent, (HEADER_LEN + 8) as u64);
            assert_eq!(st.bytes_recv, st.bytes_sent);
            assert_eq!(st.recv_corrupt, 0);
        }
    }
}
