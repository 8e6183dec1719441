//! Seeded chaos proxy: a TCP relay that deterministically injures the
//! byte stream between a client and a server.
//!
//! [`ChaosProxy`] binds its own loopback port, dials the real target
//! for every accepted connection, and relays bytes in both directions —
//! except when the seeded [`ChaosPlan`] says otherwise. Per relay event
//! (one read chunk, one direction) the plan draws a fate from the
//! shared seeded stream ([`crate::fate`]) keyed by `(seed, connection,
//! direction, event)` — the executor's `FaultPlan` discipline: permille
//! rates evaluated in a fixed order, the whole schedule a pure function
//! of the seed. Faults model the transport failure classes a resilient
//! client must survive:
//!
//! * **delay** — the chunk is forwarded late (reordering across
//!   connections, latency spikes);
//! * **stall** — a long pause, sized to trip client read timeouts;
//! * **truncate** — half the chunk is forwarded, then both directions
//!   are torn down: a frame dies mid-flight, exercising the receiver's
//!   CRC/truncation handling;
//! * **close** — the connection is torn down between chunks.
//!
//! The proxy never rewrites bytes — corruption *content* is covered by
//! the frame-level tests; this layer injects *timing and connectivity*
//! faults, so a CRC-checked stream sees only clean frames or clean
//! breaks. Counters land in a [`Recorder`] under `chaos.proxy.*`.

use crate::fate::permille_pick;
use cip_telemetry::Recorder;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The fate of one relay event (one read chunk in one direction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosFate {
    /// Relay the chunk unmodified.
    Forward,
    /// Relay after [`ChaosPlan::delay`].
    Delay,
    /// Relay after [`ChaosPlan::stall`] (sized to trip read timeouts).
    Stall,
    /// Forward half the chunk, then tear the connection down — a frame
    /// dies mid-flight.
    TruncateClose,
    /// Tear the connection down between chunks.
    Close,
}

/// A deterministic, seeded injury schedule for one proxy.
///
/// Rates are permille (0..=1000), evaluated delay → stall → truncate →
/// close on a single per-event hash — the same discipline as the
/// executor's `FaultPlan`, so two proxies with the same seed injure
/// identical byte streams identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Seed of the per-event fate hash.
    pub seed: u64,
    /// Permille of chunks delayed by [`ChaosPlan::delay`].
    pub delay_permille: u16,
    /// Permille of chunks stalled by [`ChaosPlan::stall`].
    pub stall_permille: u16,
    /// Permille of chunks truncated mid-flight (connection dies).
    pub truncate_permille: u16,
    /// Permille of chunk boundaries where the connection just closes.
    pub close_permille: u16,
    /// How long a delayed chunk waits.
    pub delay: Duration,
    /// How long a stalled chunk waits.
    pub stall: Duration,
}

impl ChaosPlan {
    /// A plan that injures nothing — the baseline: a quiet proxy on the
    /// path must not change any result.
    pub fn quiet(seed: u64) -> Self {
        Self {
            seed,
            delay_permille: 0,
            stall_permille: 0,
            truncate_permille: 0,
            close_permille: 0,
            delay: Duration::from_millis(5),
            stall: Duration::from_millis(200),
        }
    }

    /// A modest default mix: 5% delays, 2% truncations, 2% closes (no
    /// stalls — add those only when the client under test has a read
    /// timeout to trip).
    pub fn chaos(seed: u64) -> Self {
        Self { delay_permille: 50, truncate_permille: 20, close_permille: 20, ..Self::quiet(seed) }
    }

    /// The fate of relay event `event` on direction `dir` (0 = client →
    /// server, 1 = server → client) of connection `conn`.
    pub fn fate(&self, conn: u64, dir: u8, event: u64) -> ChaosFate {
        let ident = (conn << 33) ^ (u64::from(dir) << 32) ^ event;
        let rates =
            [self.delay_permille, self.stall_permille, self.truncate_permille, self.close_permille];
        match permille_pick(self.seed, ident, &rates) {
            Some(0) => ChaosFate::Delay,
            Some(1) => ChaosFate::Stall,
            Some(2) => ChaosFate::TruncateClose,
            Some(_) => ChaosFate::Close,
            None => ChaosFate::Forward,
        }
    }
}

struct ProxyShared {
    plan: ChaosPlan,
    target: SocketAddr,
    rec: Recorder,
    stop: AtomicBool,
    conn_ids: AtomicU64,
}

/// A running chaos proxy. Point the client at [`ChaosProxy::addr`]; the
/// proxy relays to the target it was started with, injuring the stream
/// per its [`ChaosPlan`]. Stopped by [`ChaosProxy::shutdown`] (also on
/// drop).
pub struct ChaosProxy {
    addr: SocketAddr,
    shared: Arc<ProxyShared>,
    accept: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds a loopback listener and starts relaying to `target`.
    pub fn start(target: SocketAddr, plan: ChaosPlan, rec: Recorder) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ProxyShared {
            plan,
            target,
            rec,
            stop: AtomicBool::new(false),
            conn_ids: AtomicU64::new(0),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || accept_loop(&listener, &accept_shared));
        Ok(Self { addr, shared, accept: Some(accept) })
    }

    /// Where clients should connect.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and asks live relays to wind down (they notice
    /// within one read-timeout tick).
    pub fn shutdown(&mut self) {
        if self.shared.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // Nudge the accept loop out of a blocking accept().
        TcpStream::connect_timeout(&self.addr, Duration::from_millis(250)).ok();
        if let Some(h) = self.accept.take() {
            h.join().ok();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<ProxyShared>) {
    loop {
        match listener.accept() {
            Ok((client, _)) => {
                if shared.stop.load(Ordering::Acquire) {
                    return;
                }
                let conn = shared.conn_ids.fetch_add(1, Ordering::Relaxed);
                shared.rec.add("chaos.proxy.connections", 1);
                let Ok(upstream) =
                    TcpStream::connect_timeout(&shared.target, Duration::from_secs(5))
                else {
                    // Target unreachable: the refused connection *is*
                    // the fault the client observes.
                    shared.rec.add("chaos.proxy.dial_failed", 1);
                    drop(client);
                    continue;
                };
                client.set_nodelay(true).ok();
                upstream.set_nodelay(true).ok();
                spawn_relay(shared, conn, 0, &client, &upstream);
                spawn_relay(shared, conn, 1, &upstream, &client);
            }
            Err(_) => {
                if shared.stop.load(Ordering::Acquire) {
                    return;
                }
            }
        }
    }
}

/// Spawns one direction of a relay (detached: it exits on EOF, a
/// connection fault, or the proxy's stop flag).
fn spawn_relay(shared: &Arc<ProxyShared>, conn: u64, dir: u8, from: &TcpStream, to: &TcpStream) {
    let (Ok(src), Ok(dst)) = (from.try_clone(), to.try_clone()) else {
        shared.rec.add("chaos.proxy.dial_failed", 1);
        return;
    };
    let shared = Arc::clone(shared);
    std::thread::spawn(move || relay(&shared, conn, dir, src, dst));
}

/// Tears down both directions of a relayed connection.
fn sever(src: &TcpStream, dst: &TcpStream) {
    src.shutdown(Shutdown::Both).ok();
    dst.shutdown(Shutdown::Both).ok();
}

fn relay(shared: &ProxyShared, conn: u64, dir: u8, mut src: TcpStream, mut dst: TcpStream) {
    // A short read timeout keeps the loop responsive to the stop flag
    // without busy-waiting.
    src.set_read_timeout(Some(Duration::from_millis(50))).ok();
    let mut buf = [0u8; 4096];
    let mut event = 0u64;
    loop {
        if shared.stop.load(Ordering::Acquire) {
            sever(&src, &dst);
            return;
        }
        let n = match src.read(&mut buf) {
            Ok(0) => {
                // Clean EOF: propagate the half-close downstream so the
                // peer sees it too.
                dst.shutdown(Shutdown::Write).ok();
                return;
            }
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => {
                sever(&src, &dst);
                return;
            }
        };
        let fate = shared.plan.fate(conn, dir, event);
        event += 1;
        match fate {
            ChaosFate::Forward => {}
            ChaosFate::Delay => {
                shared.rec.add("chaos.proxy.delayed", 1);
                std::thread::sleep(shared.plan.delay);
            }
            ChaosFate::Stall => {
                shared.rec.add("chaos.proxy.stalled", 1);
                std::thread::sleep(shared.plan.stall);
            }
            ChaosFate::TruncateClose => {
                shared.rec.add("chaos.proxy.truncated", 1);
                // Half a chunk, then the wire goes dark mid-frame.
                dst.write_all(&buf[..n / 2]).ok();
                sever(&src, &dst);
                return;
            }
            ChaosFate::Close => {
                shared.rec.add("chaos.proxy.closed", 1);
                sever(&src, &dst);
                return;
            }
        }
        if dst.write_all(&buf[..n]).is_err() {
            sever(&src, &dst);
            return;
        }
        shared.rec.add("chaos.proxy.forwarded", 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fates_are_deterministic_and_seed_sensitive() {
        let a = ChaosPlan::chaos(7);
        let b = ChaosPlan::chaos(7);
        let c = ChaosPlan::chaos(8);
        let fa: Vec<ChaosFate> = (0..500).map(|e| a.fate(1, 0, e)).collect();
        let fb: Vec<ChaosFate> = (0..500).map(|e| b.fate(1, 0, e)).collect();
        let fc: Vec<ChaosFate> = (0..500).map(|e| c.fate(1, 0, e)).collect();
        assert_eq!(fa, fb, "same seed, same schedule");
        assert_ne!(fa, fc, "different seed, different schedule");
        let forwarded = fa.iter().filter(|&&f| f == ChaosFate::Forward).count();
        assert!(forwarded > 400, "forwarded {forwarded}/500");
        assert!(forwarded < 500, "chaos plan never injected anything");
        // Directions draw independent streams.
        let rev: Vec<ChaosFate> = (0..500).map(|e| a.fate(1, 1, e)).collect();
        assert_ne!(fa, rev);
    }

    #[test]
    fn quiet_plan_always_forwards() {
        let plan = ChaosPlan::quiet(3);
        for conn in 0..4 {
            for dir in 0..2 {
                for event in 0..100 {
                    assert_eq!(plan.fate(conn, dir, event), ChaosFate::Forward);
                }
            }
        }
    }

    #[test]
    fn quiet_proxy_relays_bytes_both_ways() {
        // Echo server: read a chunk, write it back upper-cased.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let target = listener.local_addr().unwrap();
        let echo = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 64];
            let n = s.read(&mut buf).unwrap();
            let upper: Vec<u8> = buf[..n].iter().map(|b| b.to_ascii_uppercase()).collect();
            s.write_all(&upper).unwrap();
        });
        let rec = Recorder::enabled();
        let mut proxy = ChaosProxy::start(target, ChaosPlan::quiet(1), rec.clone()).unwrap();
        let mut client = TcpStream::connect(proxy.addr()).unwrap();
        client.write_all(b"hello").unwrap();
        let mut reply = [0u8; 5];
        client.read_exact(&mut reply).unwrap();
        assert_eq!(&reply, b"HELLO");
        echo.join().unwrap();
        proxy.shutdown();
        assert!(rec.counter_value("chaos.proxy.forwarded") >= 2);
        assert_eq!(rec.counter_value("chaos.proxy.connections"), 1);
    }

    #[test]
    fn close_heavy_plan_severs_connections() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let target = listener.local_addr().unwrap();
        // A sink that accepts and holds connections open.
        let sink = std::thread::spawn(move || {
            let mut held = Vec::new();
            listener.set_nonblocking(true).ok();
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while std::time::Instant::now() < deadline && held.is_empty() {
                if let Ok((s, _)) = listener.accept() {
                    held.push(s);
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            std::thread::sleep(Duration::from_millis(300));
        });
        let rec = Recorder::enabled();
        let plan = ChaosPlan { close_permille: 1000, ..ChaosPlan::quiet(9) };
        let mut proxy = ChaosProxy::start(target, plan, rec.clone()).unwrap();
        let mut client = TcpStream::connect(proxy.addr()).unwrap();
        client.write_all(b"doomed").unwrap();
        client.set_read_timeout(Some(Duration::from_secs(5))).ok();
        let mut buf = [0u8; 8];
        // The first chunk draws Close: the proxy severs, so the client
        // sees EOF (or a reset), never a hang.
        let got = client.read(&mut buf);
        assert!(matches!(got, Ok(0) | Err(_)), "expected severed connection, got {got:?}");
        proxy.shutdown();
        sink.join().unwrap();
        assert_eq!(rec.counter_value("chaos.proxy.closed"), 1);
    }
}
