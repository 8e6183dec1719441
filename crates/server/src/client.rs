//! Blocking request/response client for the job server.
//!
//! One [`Client`] owns one connection and speaks the strict
//! request/response discipline the server enforces: every call writes
//! one [`JobMsg`] request and reads exactly one reply, through a
//! buffered reader. [`Client::run_job`] runs a job in one exchange
//! ([`JobMsg::Run`]): the server replies once the job finalizes, so
//! callers get completion without polling.
//!
//! # Timeouts and retries
//!
//! [`ClientConfig`] adds the resilience half: a connect timeout, an
//! optional socket read timeout (so a dead server surfaces as a typed
//! error instead of an eternal block), and a seeded deterministic retry
//! policy used by [`Client::run_job`] — exponential backoff with jitter
//! from the shared seeded stream ([`cip_transport::fate`]). On a transient failure (connection refused/reset, a
//! read timeout, a corrupt reply) the client reconnects and resends
//! the same payload. Resending is idempotent by construction: jobs
//! are deterministic functions of their payload bytes, and the server's
//! content-hash cache replays an already-completed result bit-for-bit,
//! so a retry can duplicate *work* at worst, never *results*.
//! [`ServerError::Rejected`] is permanent and never retried. A dial
//! tries every address the server's name resolves to, in order.
//!
//! Sizing note: `read_timeout` bounds every reply, including the
//! server-side-blocking [`Client::run_job`] wait — set it comfortably
//! above the server's job deadline (plus expected queueing) or leave it
//! `None` and rely on the server, which ends a `Run` wait once the
//! awaited job overruns its deadline.

use crate::protocol::{CatalogInfo, JobMsg, JobOutcome, ServerStats};
use crate::ServerError;
use cip_transport::frame::{read_frame, write_frame, ReadError, READ_BUF};
use cip_transport::splitmix64;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client-side resilience knobs. The default is the legacy behavior
/// plus a 5-second connect timeout: no read timeout, no retries.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// How long a dial may take before it fails typed.
    pub connect_timeout: Duration,
    /// Socket read timeout for every reply; `None` blocks indefinitely
    /// (the server's job deadline then bounds `run_job` waits).
    pub read_timeout: Option<Duration>,
    /// Extra attempts [`Client::run_job`] makes after the first one
    /// fails transiently. 0 = fail fast.
    pub retries: u32,
    /// Backoff before retry `n` is `min(backoff_max, backoff_base·2ⁿ)`
    /// plus deterministic jitter in `[0, backoff_base)`.
    pub backoff_base: Duration,
    /// Ceiling on the exponential backoff term.
    pub backoff_max: Duration,
    /// Jitter seed: retry schedules are a pure function of
    /// `(seed, attempt)`, so chaos runs are reproducible.
    pub seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(5),
            read_timeout: None,
            retries: 0,
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_secs(2),
            seed: 0,
        }
    }
}

impl ClientConfig {
    /// The deterministic pause before retry attempt `attempt` (0-based).
    fn backoff(&self, attempt: u32) -> Duration {
        let exp = self
            .backoff_base
            .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
            .min(self.backoff_max);
        let base_ms = self.backoff_base.as_millis() as u64;
        let jitter_ms =
            if base_ms == 0 { 0 } else { splitmix64(self.seed, u64::from(attempt)) % base_ms };
        exp + Duration::from_millis(jitter_ms)
    }
}

/// One connection to a job server (re-dialed transparently by
/// [`Client::run_job`] after transient failures).
pub struct Client {
    addr: String,
    cfg: ClientConfig,
    stream: Option<BufReader<TcpStream>>,
    ticket: u32,
    wbuf: Vec<u8>,
    rbuf: Vec<u8>,
}

impl Client {
    /// Connects to a server at `addr` (e.g. `127.0.0.1:45123`) with the
    /// default [`ClientConfig`].
    pub fn connect(addr: &str) -> Result<Self, ServerError> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit timeouts and retry policy. The first dial
    /// happens eagerly so an unreachable server fails here, not on the
    /// first call.
    pub fn connect_with(addr: &str, cfg: ClientConfig) -> Result<Self, ServerError> {
        let mut client = Self {
            addr: addr.to_string(),
            cfg,
            stream: None,
            ticket: 0,
            wbuf: Vec::new(),
            rbuf: Vec::new(),
        };
        client.ensure_connected()?;
        Ok(client)
    }

    /// Dials the server if no live connection is held.
    fn ensure_connected(&mut self) -> Result<(), ServerError> {
        if self.stream.is_some() {
            return Ok(());
        }
        let addrs: Vec<SocketAddr> = self
            .addr
            .to_socket_addrs()
            .map_err(|e| ServerError::Io {
                what: "resolve job server address",
                detail: e.to_string(),
            })?
            .collect();
        if addrs.is_empty() {
            return Err(ServerError::Io {
                what: "resolve job server address",
                detail: format!("'{}' resolved to no address", self.addr),
            });
        }
        let stream = dial(&addrs, self.cfg.connect_timeout).map_err(|e| ServerError::Io {
            what: "connect to job server",
            detail: e.to_string(),
        })?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(self.cfg.read_timeout).ok();
        self.stream = Some(BufReader::with_capacity(READ_BUF, stream));
        Ok(())
    }

    /// Drops the connection so the next call re-dials.
    fn disconnect(&mut self) {
        self.stream = None;
    }

    fn call(&mut self, msg: &JobMsg) -> Result<JobMsg, ServerError> {
        self.ensure_connected()?;
        let Some(stream) = self.stream.as_mut() else {
            return Err(ServerError::Protocol { what: "no connection after dial".to_string() });
        };
        let result = (|| {
            write_frame(stream.get_mut(), msg, 0, &mut self.wbuf)
                .map_err(|e| ServerError::Io { what: "send request", detail: e.to_string() })?;
            match read_frame::<JobMsg>(stream, &mut self.rbuf) {
                Ok((reply, _, _)) => Ok(reply),
                Err(ReadError::Eof) => Err(ServerError::Protocol {
                    what: "server closed the connection mid-request".to_string(),
                }),
                Err(ReadError::Corrupt(e) | ReadError::Fatal(e)) => Err(ServerError::Wire(e)),
                Err(ReadError::Io(e)) => {
                    Err(ServerError::Io { what: "read reply", detail: e.to_string() })
                }
            }
        })();
        // Any failed exchange poisons the request/response framing on
        // this connection: drop it so the next call starts clean.
        if result.is_err() {
            self.disconnect();
        }
        result
    }

    fn next_ticket(&mut self) -> u32 {
        self.ticket = self.ticket.wrapping_add(1);
        self.ticket
    }

    /// Aggregate server counters.
    pub fn stats(&mut self) -> Result<ServerStats, ServerError> {
        match self.call(&JobMsg::Stats)? {
            JobMsg::StatsIs(stats) => Ok(stats),
            other => Err(unexpected("StatsIs", &other)),
        }
    }

    /// The workloads the server's runner advertises, plus its admission
    /// limits.
    pub fn catalog(&mut self) -> Result<CatalogInfo, ServerError> {
        match self.call(&JobMsg::Catalog)? {
            JobMsg::CatalogIs { entries, max_payload } => Ok(CatalogInfo { entries, max_payload }),
            other => Err(unexpected("CatalogIs", &other)),
        }
    }

    /// Runs `payload` and waits for its outcome in one [`JobMsg::Run`]
    /// exchange, retrying it (reconnect, resend) up to
    /// [`ClientConfig::retries`] times on transient failures. Safe to
    /// retry because job execution is a deterministic function of the
    /// payload and completed results replay from the content-hash cache
    /// bit-identically; a [`ServerError::Rejected`] is returned
    /// immediately — admission refusals are policy, not weather.
    pub fn run_job(&mut self, payload: &[u8]) -> Result<(JobOutcome, bool), ServerError> {
        let ticket = self.next_ticket();
        let run = JobMsg::Run { ticket, payload: payload.to_vec() };
        let attempts = self.cfg.retries.saturating_add(1);
        let mut attempt = 0u32;
        loop {
            let outcome = self.call(&run).and_then(|reply| match reply {
                JobMsg::ResultIs { outcome, cached, .. } => Ok((outcome, cached)),
                JobMsg::Rejected { ticket: t, reason } if t == ticket => {
                    Err(ServerError::Rejected { reason })
                }
                other => Err(unexpected("ResultIs/Rejected", &other)),
            });
            match outcome {
                Ok(r) => return Ok(r),
                Err(e @ (ServerError::Rejected { .. } | ServerError::RetriesExhausted { .. })) => {
                    return Err(e);
                }
                Err(e) => {
                    self.disconnect();
                    if attempt + 1 >= attempts {
                        return Err(if attempt == 0 {
                            e
                        } else {
                            ServerError::RetriesExhausted { attempts, last: Box::new(e) }
                        });
                    }
                    std::thread::sleep(self.cfg.backoff(attempt));
                    attempt += 1;
                }
            }
        }
    }
}

/// Connects to the first of `addrs` that accepts, trying each in order;
/// the error is the last address's. A name such as `localhost` may
/// resolve to `::1` before `127.0.0.1`, and a server bound to only one of
/// them must still be reached.
fn dial(addrs: &[SocketAddr], timeout: Duration) -> std::io::Result<TcpStream> {
    let mut last = Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address"));
    for addr in addrs {
        last = TcpStream::connect_timeout(addr, timeout);
        if last.is_ok() {
            break;
        }
    }
    last
}

fn unexpected(wanted: &str, got: &JobMsg) -> ServerError {
    ServerError::Protocol { what: format!("expected {wanted}, got {got:?}") }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_exponential_and_capped() {
        let cfg = ClientConfig {
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_millis(400),
            seed: 7,
            ..ClientConfig::default()
        };
        let again = cfg.clone();
        let a: Vec<Duration> = (0..8).map(|n| cfg.backoff(n)).collect();
        let b: Vec<Duration> = (0..8).map(|n| again.backoff(n)).collect();
        assert_eq!(a, b, "same seed, same schedule");
        // Exponential up to the cap, jitter bounded by the base.
        for (n, d) in a.iter().enumerate() {
            let exp = Duration::from_millis(50u64 << n.min(3)).min(Duration::from_millis(400));
            assert!(*d >= exp, "attempt {n}: {d:?} < {exp:?}");
            assert!(*d < exp + Duration::from_millis(50), "attempt {n}: {d:?} jitter too big");
        }
        let other = ClientConfig { seed: 8, ..cfg };
        let c: Vec<Duration> = (0..8).map(|n| other.backoff(n)).collect();
        assert_ne!(a, c, "different seed, different jitter");
    }

    #[test]
    fn huge_attempt_counts_do_not_overflow_the_backoff() {
        let cfg = ClientConfig::default();
        assert_eq!(cfg.backoff(200).min(cfg.backoff_max), cfg.backoff_max);
    }

    #[test]
    fn a_dial_tries_every_resolved_address_in_order() {
        let closed = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let closed_addr = closed.local_addr().expect("addr");
        drop(closed);
        let live = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let live_addr = live.local_addr().expect("addr");
        let timeout = Duration::from_secs(5);

        let stream = dial(&[closed_addr, live_addr], timeout).expect("the second address answers");
        assert_eq!(stream.peer_addr().expect("peer"), live_addr);
        let err = dial(&[closed_addr], timeout).expect_err("nothing listens");
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
    }
}
