//! TCP backend: one persistent connection per peer pair, frames from
//! [`crate::frame`]. The sending rank writes its own frames (one `write`
//! per frame, no writer thread); one reader thread per connection reads
//! them through a buffer into the receiving rank's inbox.
//!
//! Mesh construction is split so one process *or* many can build it:
//! [`bind_mesh`] first (so every listener exists before anyone dials),
//! gossip the addresses, then [`connect_mesh`] — each rank dials every
//! lower rank and accepts from every higher one. Dials complete against
//! the kernel backlog without a live accept loop on the other side, and
//! only the accepting side blocks (on a dialer that is guaranteed to
//! dial before its own accept phase), so construction cannot deadlock
//! whether ranks connect concurrently (worker processes) or
//! sequentially (the in-process [`Tcp`] transport).

use crate::frame::{encode_frame, read_frame, ReadError, READ_BUF};
use crate::mailbox::{ChannelMailbox, Lane, MailboxConfig, StatCells, TcpLinks};
use crate::wire::Wire;
use crate::{Transport, TransportError};
use cip_telemetry::Recorder;
use std::collections::VecDeque;
use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Handshake preamble: magic, wire version, dialer's rank.
const HELLO_MAGIC: [u8; 4] = *b"CIP\x01";
const HELLO_LEN: usize = 9;

fn io_err(what: &'static str, e: std::io::Error) -> TransportError {
    TransportError::Io { what, detail: e.to_string() }
}

/// A bound, not-yet-connected mesh endpoint. Bind first, gossip
/// [`MeshListener::addr`], then [`connect_mesh`].
pub struct MeshListener {
    listener: TcpListener,
    /// The actual bound address (port resolved if bound to `:0`).
    pub addr: SocketAddr,
}

/// Bind a mesh listener on `bind` (e.g. `127.0.0.1:0`).
pub fn bind_mesh(bind: &str) -> Result<MeshListener, TransportError> {
    let listener = TcpListener::bind(bind).map_err(|e| io_err("bind", e))?;
    let addr = listener.local_addr().map_err(|e| io_err("local_addr", e))?;
    Ok(MeshListener { listener, addr })
}

/// A fully connected mesh for one rank: a socket per peer, no reader
/// threads yet. Feed it to [`mesh_mailbox`].
pub struct MeshNode {
    rank: usize,
    streams: Vec<Option<TcpStream>>,
}

fn send_hello(s: &mut TcpStream, rank: usize) -> Result<(), TransportError> {
    let mut hello = [0u8; HELLO_LEN];
    hello[..4].copy_from_slice(&HELLO_MAGIC);
    hello[4] = crate::frame::WIRE_VERSION;
    hello[5..9].copy_from_slice(&(rank as u32).to_le_bytes());
    s.write_all(&hello).map_err(|e| io_err("send hello", e))
}

fn recv_hello(s: &mut TcpStream) -> Result<u32, TransportError> {
    let mut hello = [0u8; HELLO_LEN];
    s.read_exact(&mut hello).map_err(|e| io_err("recv hello", e))?;
    if hello[..4] != HELLO_MAGIC {
        return Err(TransportError::Handshake { detail: "bad magic".into() });
    }
    if hello[4] != crate::frame::WIRE_VERSION {
        return Err(TransportError::Handshake {
            detail: format!("wire version mismatch: peer has {}", hello[4]),
        });
    }
    Ok(u32::from_le_bytes([hello[5], hello[6], hello[7], hello[8]]))
}

/// Connect rank `rank` of `k` to every peer: dial every lower rank
/// (announcing ourselves with a hello), accept from every higher one
/// (identifying the dialer by its hello). `addrs[p]` must be peer `p`'s
/// gossiped listener address; `addrs[rank]` is ignored.
pub fn connect_mesh(
    rank: usize,
    k: usize,
    lst: MeshListener,
    addrs: &[SocketAddr],
) -> Result<MeshNode, TransportError> {
    if addrs.len() != k || rank >= k {
        return Err(TransportError::Handshake { detail: "bad mesh geometry".into() });
    }
    let mut streams: Vec<Option<TcpStream>> = (0..k).map(|_| None).collect();
    for (peer, slot) in streams.iter_mut().enumerate().take(rank) {
        let mut s = TcpStream::connect(addrs[peer]).map_err(|e| io_err("dial peer", e))?;
        send_hello(&mut s, rank)?;
        *slot = Some(s);
    }
    for _ in rank + 1..k {
        let (mut s, _) = lst.listener.accept().map_err(|e| io_err("accept peer", e))?;
        let peer = recv_hello(&mut s)? as usize;
        let valid = peer > rank && peer < k && streams[peer].is_none();
        if !valid {
            return Err(TransportError::Handshake {
                detail: format!("unexpected peer rank {peer} accepted by rank {rank}"),
            });
        }
        streams[peer] = Some(s);
    }
    Ok(MeshNode { rank, streams })
}

/// How long one `write` on a full socket may block before the sending
/// rank absorbs its inbox and retries (the mailbox module's deadlock
/// argument).
const SEND_SLICE: Duration = Duration::from_millis(1);

/// An outgoing TCP lane: the socket the sending rank writes its own
/// frames to, plus the frame scratch it reuses. Dropping it half-closes
/// the socket, so the peer's reader sees EOF.
pub(crate) struct SocketLane {
    stream: TcpStream,
    peer: u32,
    buf: Vec<u8>,
    rec: Recorder,
}

impl SocketLane {
    fn new(stream: TcpStream, peer: u32, rec: Recorder) -> std::io::Result<Self> {
        stream.set_write_timeout(Some(SEND_SLICE))?;
        Ok(Self { stream, peer, buf: Vec::with_capacity(4096), rec })
    }

    /// Encode `msg` and write the frame, counting it once it is out.
    /// While the socket is full, moves whatever `inbox` holds into
    /// `stash` and resumes from the byte it reached. Returns `false`
    /// once the peer is gone (the frame is lost).
    pub(crate) fn send<M: Wire>(
        &mut self,
        msg: &M,
        stats: &StatCells,
        inbox: &Receiver<M>,
        stash: &mut VecDeque<M>,
    ) -> bool {
        self.buf.clear();
        encode_frame(msg, self.peer, &mut self.buf);
        let mut sent = 0;
        while sent < self.buf.len() {
            match self.stream.write(&self.buf[sent..]) {
                Ok(0) => return false,
                Ok(n) => sent += n,
                Err(e) if matches!(e.kind(), WouldBlock | TimedOut | Interrupted) => {}
                // A broken pipe or a reset: the peer is gone.
                Err(_) => return false,
            }
            if sent < self.buf.len() {
                stash.extend(inbox.try_iter());
            }
        }
        let n = sent as u64;
        stats.bytes_sent.fetch_add(n, Ordering::Relaxed);
        stats.frames_sent.fetch_add(1, Ordering::Relaxed);
        self.rec.add("transport.bytes_sent", n);
        self.rec.record("transport.frame_bytes", n);
        true
    }
}

impl Drop for SocketLane {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Write);
    }
}

fn reader_loop<M: Wire>(
    stream: TcpStream,
    tx: SyncSender<M>,
    stats: Arc<StatCells>,
    rec: Recorder,
) {
    let mut stream = BufReader::with_capacity(READ_BUF, stream);
    let mut payload = Vec::new();
    loop {
        match read_frame::<M>(&mut stream, &mut payload) {
            Ok((msg, _to, n)) => {
                stats.bytes_recv.fetch_add(n as u64, Ordering::Relaxed);
                stats.frames_recv.fetch_add(1, Ordering::Relaxed);
                rec.add("transport.bytes_recv", n as u64);
                if tx.send(msg).is_err() {
                    break; // mailbox dropped
                }
            }
            // Frame-local corruption: drop the frame and keep reading.
            // The runtime's `Done` counts reveal the lost payload, and the
            // receiver re-requests it from the sender's history.
            Err(ReadError::Corrupt(_)) => {
                stats.recv_corrupt.fetch_add(1, Ordering::Relaxed);
                rec.add("transport.recv_corrupt", 1);
            }
            // EOF, I/O failure, or fatal desync: the lane is closed.
            Err(_) => break,
        }
    }
}

/// Make every socket of a connected mesh node an outgoing lane, start
/// one reader thread per peer, and wrap them in a [`ChannelMailbox`].
pub fn mesh_mailbox<M: Wire>(
    node: MeshNode,
    cfg: &MailboxConfig,
) -> Result<ChannelMailbox<M>, TransportError> {
    let k = node.streams.len();
    let stats = Arc::new(StatCells::default());
    let (in_tx, in_rx) = sync_channel::<M>(cfg.capacity.max(1));
    let mut outs: Vec<Option<Lane<M>>> = (0..k).map(|_| None).collect();
    let mut links = TcpLinks { shutters: Vec::new(), readers: Vec::new() };
    for (peer, slot) in node.streams.into_iter().enumerate() {
        let Some(stream) = slot else { continue };
        stream.set_nodelay(true).ok();
        let read_half = stream.try_clone().map_err(|e| io_err("clone stream", e))?;
        links.shutters.push(stream.try_clone().map_err(|e| io_err("clone stream", e))?);
        let lane = SocketLane::new(stream, peer as u32, cfg.recorder.clone())
            .map_err(|e| io_err("set send timeout", e))?;
        outs[peer] = Some(Lane::Socket(lane));
        let (rstats, rrec, itx) = (stats.clone(), cfg.recorder.clone(), in_tx.clone());
        links.readers.push(thread::spawn(move || reader_loop(read_half, itx, rstats, rrec)));
    }
    drop(in_tx);
    Ok(ChannelMailbox::new(node.rank, outs, in_rx, stats, Some(links)))
}

/// The TCP transport: `connect` builds a `k`-rank loopback mesh inside
/// this process, each rank with its own sockets and reader threads — the
/// bit-identity bridge between the channel oracle and the multi-process
/// deployment, which assembles the same mesh across processes via
/// [`bind_mesh`]/[`connect_mesh`]/[`mesh_mailbox`].
pub struct Tcp {
    /// Bind address for the per-rank listeners (default loopback).
    pub bind: String,
}

impl Tcp {
    /// Loopback mesh on OS-assigned ports.
    pub fn loopback() -> Self {
        Self { bind: "127.0.0.1:0".into() }
    }
}

impl Transport for Tcp {
    type Mailbox<M: Wire> = ChannelMailbox<M>;

    fn connect<M: Wire>(
        &self,
        k: usize,
        cfg: &MailboxConfig,
    ) -> Result<Vec<Self::Mailbox<M>>, TransportError> {
        let mut listeners = Vec::with_capacity(k);
        let mut addrs = Vec::with_capacity(k);
        for _ in 0..k {
            let lst = bind_mesh(&self.bind)?;
            addrs.push(lst.addr);
            listeners.push(lst);
        }
        // Connect highest rank first: its dials land in the lower
        // listeners' backlogs, so no rank ever accept-waits on a peer
        // whose dial phase has not run yet.
        let mut mailboxes = Vec::with_capacity(k);
        for (rank, lst) in listeners.into_iter().enumerate().rev() {
            let node = connect_mesh(rank, k, lst, &addrs)?;
            mailboxes.push(mesh_mailbox(node, cfg)?);
        }
        mailboxes.reverse();
        Ok(mailboxes)
    }
}
