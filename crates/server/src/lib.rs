//! Multi-tenant job server over the versioned binary wire format.
//!
//! `cip-server` turns the one-shot trace pipeline into a long-lived
//! service: many concurrent clients submit jobs (opaque payloads a
//! [`JobRunner`] knows how to execute), a bounded worker pool runs them,
//! and a content-hash cache answers repeated submissions with the exact
//! bytes of the first run — bit-identical by construction. The crate is
//! deliberately partitioner-agnostic: it depends only on the transport,
//! telemetry, and runtime layers, and the `cip` facade plugs the traced
//! partition/execute pipeline in via its `JobRunner` implementation
//! (`cip::service`), keeping the dependency graph acyclic.
//!
//! * [`protocol`] — the client/server control frames ([`JobMsg`]),
//!   framed and CRC-checked exactly like mesh traffic,
//! * [`Server`] — bounded queue, a fixed pool of worker threads,
//!   content-hash cache, `server.jobs.*` counters and per-job telemetry
//!   spans,
//! * [`Memo`] — immutable values runners share across jobs (the traced
//!   runner keeps one simulation per scenario), kept in the result
//!   cache's LRU under its budgets,
//! * [`Client`] — a blocking request/response client for one
//!   connection, with optional connect/read timeouts and a seeded
//!   deterministic retry policy ([`ClientConfig`]).
//!
//! # Resilience model (DESIGN.md §6e)
//!
//! The service degrades gracefully under component failure instead of
//! hanging or leaking, with one thread per role: the accept loop, one
//! handler per connection, and a fixed pool of workers.
//!
//! * **Panics are jobs failing, not workers dying.** Runner execution is
//!   wrapped in `catch_unwind`: a panicking job finalizes as a typed
//!   [`JobError::Panicked`] and its client is unblocked. The worker
//!   counts the caught panic (`server.workers.respawned`) and keeps
//!   serving — jobs share only immutable memo entries, and a job that
//!   does not complete adds none — so pool capacity is invariant.
//! * **Deadlines bound every job.** The server alone owns
//!   [`ServerConfig::job_deadline`] and enforces it where the outcome is
//!   observed: a job's `Run` waiter sleeps no longer than the job's
//!   deadline, then trips its [`CancelToken`] and finalizes it as a typed
//!   deadline failure, so a wedged runner can never hold a waiter
//!   hostage. The shutdown drain applies the same rule, and `finalize`
//!   turns any outcome that arrives past the deadline into one. A runner
//!   learns of an overrun only through its token.
//! * **The result cache is bounded** by entry count and byte budget
//!   with least-recently-used eviction (`server.cache.evictions`,
//!   `cache_bytes` in [`ServerStats`]). Memo entries live in the same
//!   cache and count against the same budgets.
//! * **Shutdown is a graceful drain**: admission stops immediately,
//!   in-flight jobs get [`ServerConfig::drain_timeout`] to finish, then
//!   stragglers are cancelled and worker threads joined (with a bounded
//!   grace so a wedged runner cannot hang the join).
//!
//! One way to run a job: the connection that sends a [`JobMsg::Run`]
//! admits the job, waits for it and replies, so it creates the job's
//! record and removes it again — while the server admits jobs, no record
//! outlives its waiter.
//!
//! Cancellation is cooperative: an overrun deadline or the shutdown
//! drain trips the job's [`CancelToken`]; a queued job is finalized
//! immediately, a running one winds down at the runner's next checkpoint
//! (for traced sessions, a batch boundary). Either way the worker thread
//! survives and picks up the next job — a cancelled job never poisons
//! the pool.

pub mod client;
pub mod protocol;

pub use client::{Client, ClientConfig};
pub use protocol::{CatalogEntry, CatalogInfo, JobMsg, JobOutcome, ServerStats};

use cip_telemetry::Recorder;
use cip_transport::frame::{read_frame, write_frame, ReadError, READ_BUF};
use cip_transport::CancelToken;
use cip_transport::WireError;
use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io::BufReader;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// FNV-1a 64 over the submission payload — the content-hash cache key.
/// Collisions are handled by byte-comparing the stored payload, so a
/// hash collision degrades to a cache miss, never a wrong result.
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Why a job runner gave up — the runner-side half of [`JobOutcome`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The payload failed validation before any work started.
    Invalid {
        /// Why.
        reason: String,
    },
    /// Execution started but failed.
    Failed {
        /// Why.
        reason: String,
    },
    /// The job's [`CancelToken`] tripped and the runner wound down.
    Cancelled,
    /// The runner panicked; `catch_unwind` captured the payload and the
    /// job finalized instead of killing its worker silently.
    Panicked {
        /// The panic message.
        reason: String,
    },
    /// The job overran its [`ServerConfig::job_deadline`]; the server
    /// tripped its cancel token and reported it so.
    DeadlineExceeded {
        /// The deadline that was exceeded, in milliseconds.
        limit_ms: u64,
    },
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Invalid { reason } => write!(f, "invalid job: {reason}"),
            Self::Failed { reason } => write!(f, "job failed: {reason}"),
            Self::Cancelled => write!(f, "job cancelled"),
            Self::Panicked { reason } => write!(f, "job panicked: {reason}"),
            Self::DeadlineExceeded { limit_ms } => {
                write!(f, "job deadline exceeded ({limit_ms} ms)")
            }
        }
    }
}

impl std::error::Error for JobError {}

/// Per-job execution context the server hands to [`JobRunner::run`].
#[derive(Debug, Clone)]
pub struct JobContext {
    /// Trips on shutdown drain timeout, or when the job overruns its
    /// deadline. Runners should poll it at their checkpoints and return
    /// [`JobError::Cancelled`]; the server owns the deadline and reports
    /// an overrun job as [`JobError::DeadlineExceeded`] itself.
    pub cancel: CancelToken,
    /// The server's memo: immutable values shared across jobs.
    pub memo: Memo,
}

/// A memoised value, shared by every job that reads it.
type MemoValue = Arc<dyn Any + Send + Sync>;

/// A value a job computed on a memo miss: (key, value, bytes charged).
type Computed = (Vec<u8>, MemoValue, u64);

/// A job's handle on the server's memo: immutable values that jobs
/// share, keyed by bytes the runner chooses. Entries live in the result
/// cache — one LRU under `cache_max_entries` / `cache_max_bytes`, an
/// entry larger than the whole byte budget is not kept — and the server
/// stays agnostic of what they hold.
///
/// A value is computed outside the server lock. If two jobs miss on one
/// key at the same time both compute it, and the first to complete keeps
/// its copy. A job's values join the memo only when the job completes:
/// one that fails, panics or is cancelled leaves nothing behind.
/// Lookups count `server.memo.hits` / `server.memo.misses`, and every
/// value kept samples its size into `server.memo.bytes`; none of these
/// is a job cache hit.
#[derive(Clone)]
pub struct Memo {
    inner: Arc<Mutex<Inner>>,
    rec: Recorder,
    /// What this job computed on a miss, offered to the cache when the
    /// job completes.
    fresh: Arc<Mutex<Vec<Computed>>>,
}

impl fmt::Debug for Memo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memo").finish_non_exhaustive()
    }
}

impl Memo {
    /// The value memoised under `key`, or the one `compute` returns with
    /// the bytes to charge for it; the flag says whether it was reused.
    /// A value under `key` of another type than `T` reads as a miss.
    pub fn get_or_compute<T: Any + Send + Sync>(
        &self,
        key: &[u8],
        compute: impl FnOnce() -> (T, u64),
    ) -> (Arc<T>, bool) {
        let found = match lock(&self.inner).cache_get(Slot::Memo(content_hash(key)), key) {
            Some(Cached::Memo { value, .. }) => Some(Arc::clone(value)),
            _ => None,
        };
        if let Some(value) = found.and_then(|v| v.downcast::<T>().ok()) {
            self.rec.add("server.memo.hits", 1);
            return (value, true);
        }
        self.rec.add("server.memo.misses", 1);
        let (value, bytes) = compute();
        let value = Arc::new(value);
        lock(&self.fresh).push((key.to_vec(), Arc::clone(&value) as MemoValue, bytes));
        (value, false)
    }
}

/// What the server executes. Implementations decode the payload, run
/// the work, and return result bytes; the server never interprets
/// either side. Jobs share nothing but the [`Memo`]'s immutable values,
/// so a panicking job leaves nothing behind to repair.
pub trait JobRunner: Send + Sync + 'static {
    /// Executes one job. `ctx.cancel` trips when the job overruns its
    /// deadline or the server drains; the runner should poll it at its
    /// checkpoints and return [`JobError::Cancelled`].
    fn run(&self, payload: &[u8], ctx: &JobContext) -> Result<Vec<u8>, JobError>;

    /// The workloads this runner advertises ([`JobMsg::Catalog`]).
    fn catalog(&self) -> Vec<CatalogEntry> {
        Vec::new()
    }
}

/// A failed server/client operation.
#[derive(Debug)]
pub enum ServerError {
    /// Socket-level failure.
    Io {
        /// What was being attempted.
        what: &'static str,
        /// The OS error.
        detail: String,
    },
    /// A malformed or unexpected frame on the control connection.
    Wire(WireError),
    /// The peer violated the request/response protocol.
    Protocol {
        /// What went wrong.
        what: String,
    },
    /// The server refused a job at admission.
    Rejected {
        /// Why.
        reason: String,
    },
    /// Every retry attempt failed; `last` is the final error.
    RetriesExhausted {
        /// Attempts made (initial try + retries).
        attempts: u32,
        /// The error of the last attempt.
        last: Box<ServerError>,
    },
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { what, detail } => write!(f, "{what}: {detail}"),
            Self::Wire(e) => write!(f, "wire protocol violation: {e}"),
            Self::Protocol { what } => write!(f, "protocol violation: {what}"),
            Self::Rejected { reason } => write!(f, "submission rejected: {reason}"),
            Self::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Wire(e) => Some(e),
            Self::RetriesExhausted { last, .. } => Some(last),
            _ => None,
        }
    }
}

impl From<WireError> for ServerError {
    fn from(e: WireError) -> Self {
        Self::Wire(e)
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listener bind address (`127.0.0.1:0` = OS-assigned port).
    pub bind: String,
    /// Worker threads (= jobs in flight); at least 1.
    pub workers: usize,
    /// Longest admission queue; submissions beyond it are rejected so a
    /// flood degrades loudly instead of accumulating unbounded state.
    pub queue_capacity: usize,
    /// Largest accepted `Run` payload in bytes. Checked at admission
    /// — before the payload is queued or hashed into the cache — and
    /// surfaced to clients via [`CatalogInfo`] and [`ServerStats`].
    /// Independent of (and at most) the wire-level frame ceiling.
    pub max_payload: usize,
    /// Per-job wall-clock deadline, measured from the moment a worker
    /// starts the job. `None` = unbounded (trusted runners only).
    pub job_deadline: Option<Duration>,
    /// How long [`Server::shutdown`] lets in-flight jobs finish before
    /// cancelling them. Zero restores immediate-cancel shutdown.
    pub drain_timeout: Duration,
    /// Result-cache entry ceiling (LRU-evicted past it); at least 1.
    pub cache_max_entries: usize,
    /// Result-cache byte budget over stored payload + result bytes;
    /// entries larger than the whole budget are never cached.
    pub cache_max_bytes: usize,
    /// Telemetry sink for `server.jobs.*` counters and per-job spans.
    pub recorder: Recorder,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            bind: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 64,
            max_payload: 16 << 20,
            job_deadline: None,
            drain_timeout: Duration::from_secs(5),
            cache_max_entries: 256,
            cache_max_bytes: 64 << 20,
            recorder: Recorder::disabled(),
        }
    }
}

/// One job between its admission and its `Run` reply. `started_at` and
/// `outcome` say where it is: queued, running or finished.
struct Job {
    /// The submission payload; moved into the cache on success.
    payload: Vec<u8>,
    hash: u64,
    cancel: CancelToken,
    outcome: Option<JobOutcome>,
    /// When the job was admitted.
    queued_at: Instant,
    /// When a worker took it; its deadline runs from here.
    started_at: Option<Instant>,
}

/// Where a cache entry lives: a result under its payload's content hash,
/// a memo value under its key's. Both kinds share one map, and so one
/// LRU and one budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Slot {
    Result(u64),
    Memo(u64),
}

/// What a cache entry holds.
enum Cached {
    /// A completed job's result bytes, replayed on a hit.
    Result(Vec<u8>),
    /// A runner's memoised value and the bytes charged for it.
    Memo { value: MemoValue, bytes: u64 },
}

/// One cache entry: the bytes its slot hashes (a submission payload or a
/// memo key, compared on every hit so hash collisions degrade to
/// misses), what it holds, and the LRU stamp of the last touch.
struct CacheEntry {
    key: Vec<u8>,
    value: Cached,
    stamp: u64,
}

impl CacheEntry {
    fn bytes(&self) -> u64 {
        let held = match &self.value {
            Cached::Result(result) => result.len() as u64,
            Cached::Memo { bytes, .. } => *bytes,
        };
        self.key.len() as u64 + held
    }
}

/// A [`ServerStats`] field and the recorder counter that mirrors it.
type Counter = (fn(&mut ServerStats) -> &mut u64, &'static str);

const SUBMITTED: Counter = (|s| &mut s.submitted, "server.jobs.submitted");
const COMPLETED: Counter = (|s| &mut s.completed, "server.jobs.completed");
const CANCELLED: Counter = (|s| &mut s.cancelled, "server.jobs.cancelled");
const CACHE_HITS: Counter = (|s| &mut s.cache_hits, "server.jobs.cache_hits");
const FAILED: Counter = (|s| &mut s.failed, "server.jobs.failed");
const REJECTED: Counter = (|s| &mut s.rejected, "server.jobs.rejected");
const PANICKED: Counter = (|s| &mut s.panicked, "server.jobs.panicked");
const DEADLINE_EXCEEDED: Counter = (|s| &mut s.deadline_exceeded, "server.jobs.deadline_exceeded");
const EVICTIONS: Counter = (|s| &mut s.cache_evictions, "server.cache.evictions");
const RESPAWNED: Counter = (|s| &mut s.workers_respawned, "server.workers.respawned");

/// Mutex-guarded server state.
struct Inner {
    queue: VecDeque<u64>,
    /// Jobs whose outcome has not been delivered yet; the `Run` that
    /// admitted a job removes its record when it replies.
    jobs: HashMap<u64, Job>,
    cache: HashMap<Slot, CacheEntry>,
    /// Monotone LRU clock; bumped on every cache touch.
    cache_clock: u64,
    next_id: u64,
    /// The counters `Stats` reports; `stats.cache_bytes` (the sum of
    /// `CacheEntry::bytes` over `cache`) is the eviction budget's gauge.
    stats: ServerStats,
}

impl Inner {
    /// Counts one event in `stats` and in its recorder counter.
    fn count(&mut self, rec: &Recorder, (field, name): Counter) {
        *field(&mut self.stats) += 1;
        rec.add(name, 1);
    }

    /// What the cache holds under `slot` for exactly `key`, stamped as
    /// the most recently used entry.
    fn cache_get(&mut self, slot: Slot, key: &[u8]) -> Option<&Cached> {
        self.cache_clock += 1;
        let clock = self.cache_clock;
        let entry = self.cache.get_mut(&slot).filter(|e| e.key == key)?;
        entry.stamp = clock;
        Some(&entry.value)
    }
}

struct Shared<R: JobRunner> {
    runner: R,
    /// Shared with every running job's [`Memo`].
    inner: Arc<Mutex<Inner>>,
    /// Wakes workers when the queue grows (and on shutdown).
    work_cv: Condvar,
    /// Wakes result waiters when any job finalizes or starts with a
    /// deadline (and on shutdown).
    done_cv: Condvar,
    rec: Recorder,
    /// Admission closed; in-flight jobs may still drain.
    draining: AtomicBool,
    /// Hard stop: workers exit at their next checkpoint.
    shutdown: AtomicBool,
    queue_capacity: usize,
    max_payload: usize,
    job_deadline: Option<Duration>,
    cache_max_entries: usize,
    cache_max_bytes: u64,
}

/// Poison-tolerant lock: a panicking connection handler must not take
/// the whole server down with it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Renders a caught panic payload for [`JobError::Panicked`].
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl<R: JobRunner> Shared<R> {
    /// Finalizes `id` under the lock: outcome, counters, cache
    /// insertion for successes, and the completion broadcast. A job
    /// that already has an outcome is left untouched — a waiter past
    /// the deadline and the worker may both report the same job, and
    /// the first result wins. A job finalized past its deadline is a
    /// deadline failure, whatever its runner returned.
    fn finalize(&self, inner: &mut Inner, id: u64, result: Result<Vec<u8>, JobError>) {
        let Some(job) = inner.jobs.get_mut(&id) else {
            return;
        };
        if job.outcome.is_some() {
            return;
        }
        let now = Instant::now();
        let overdue = self.deadline_at(job).is_some_and(|at| now >= at);
        let result = if overdue { Err(self.deadline_error()) } else { result };
        // A job finalized before a worker took it queued all its life.
        let started = job.started_at.unwrap_or(now);
        let micros = |from: Instant, to: Instant| to.saturating_duration_since(from).as_micros();
        self.rec.record("server.job.queue_wait", micros(job.queued_at, started) as u64);
        self.rec.record("server.job.run", micros(started, now) as u64);
        self.rec.record("server.job.total", micros(job.queued_at, now) as u64);
        let (outcome, counter) = match result {
            Ok(payload) => (JobOutcome::Done { payload }, COMPLETED),
            Err(JobError::Cancelled) => (JobOutcome::Cancelled, CANCELLED),
            Err(e) => {
                let counter = match e {
                    JobError::Panicked { .. } => PANICKED,
                    JobError::DeadlineExceeded { .. } => DEADLINE_EXCEEDED,
                    _ => FAILED,
                };
                (JobOutcome::Failed { reason: e.to_string() }, counter)
            }
        };
        let entry = match &outcome {
            JobOutcome::Done { payload } => {
                Some((job.hash, std::mem::take(&mut job.payload), payload.clone()))
            }
            _ => None,
        };
        job.outcome = Some(outcome);
        if let Some((hash, payload, result)) = entry {
            self.cache_insert(inner, Slot::Result(hash), payload, Cached::Result(result));
        }
        inner.count(&self.rec, counter);
        self.done_cv.notify_all();
    }

    /// When `job` must be finished: its start plus the server's job
    /// deadline, once a worker has taken it.
    fn deadline_at(&self, job: &Job) -> Option<Instant> {
        Some(job.started_at? + self.job_deadline?)
    }

    fn deadline_error(&self) -> JobError {
        JobError::DeadlineExceeded {
            limit_ms: self.job_deadline.map_or(0, |d| d.as_millis() as u64),
        }
    }

    /// Enforces `id`'s deadline where its outcome is observed: a job
    /// still running past its deadline is cancelled and finalized as a
    /// deadline failure. Returns the time left of a pending deadline.
    fn enforce_deadline(&self, inner: &mut Inner, id: u64) -> Option<Duration> {
        let job = inner.jobs.get(&id).filter(|j| j.outcome.is_none())?;
        let left = self.deadline_at(job)?.saturating_duration_since(Instant::now());
        if !left.is_zero() {
            return Some(left);
        }
        job.cancel.cancel();
        self.finalize(inner, id, Err(self.deadline_error()));
        None
    }

    /// Trips `id`'s cancel token; a queued job finalizes at once, a
    /// running one when its runner yields.
    fn cancel(&self, inner: &mut Inner, id: u64) {
        let Some(job) = inner.jobs.get(&id) else {
            return;
        };
        job.cancel.cancel();
        if job.started_at.is_none() {
            self.finalize(inner, id, Err(JobError::Cancelled));
        }
    }

    /// Inserts a successful result or a memo value into the bounded
    /// cache, evicting least-recently-used entries of either kind until
    /// both the entry-count and the byte budget hold. An entry larger
    /// than the whole byte budget is simply not cached, and an occupied
    /// slot keeps what it holds.
    fn cache_insert(&self, inner: &mut Inner, slot: Slot, key: Vec<u8>, value: Cached) {
        let mut entry = CacheEntry { key, value, stamp: 0 };
        let entry_bytes = entry.bytes();
        if entry_bytes > self.cache_max_bytes || inner.cache.contains_key(&slot) {
            return;
        }
        while !inner.cache.is_empty()
            && (inner.cache.len() >= self.cache_max_entries
                || inner.stats.cache_bytes + entry_bytes > self.cache_max_bytes)
        {
            let Some((&victim, _)) = inner.cache.iter().min_by_key(|(_, e)| e.stamp) else {
                break;
            };
            if let Some(evicted) = inner.cache.remove(&victim) {
                inner.stats.cache_bytes -= evicted.bytes();
            }
            inner.count(&self.rec, EVICTIONS);
        }
        if let Cached::Memo { bytes, .. } = entry.value {
            self.rec.record("server.memo.bytes", bytes);
        }
        inner.cache_clock += 1;
        entry.stamp = inner.cache_clock;
        inner.cache.insert(slot, entry);
        inner.stats.cache_bytes += entry_bytes;
        // Histogram sample: the byte occupancy over time (counters are
        // monotone, so the gauge lives in ServerStats and this
        // distribution backs `server.cache.bytes` in the summary).
        self.rec.record("server.cache.bytes", inner.stats.cache_bytes);
    }

    /// Counts and rejects one refused submission.
    fn reject(&self, ticket: u32, reason: String) -> JobMsg {
        lock(&self.inner).count(&self.rec, REJECTED);
        JobMsg::Rejected { ticket, reason }
    }
}

/// A running job server: accept loop + fixed worker pool. Bind with
/// [`Server::start`], stop with [`Server::shutdown`] (also called on
/// drop).
pub struct Server<R: JobRunner> {
    addr: SocketAddr,
    /// Kept so shutdown can flip the listener nonblocking — the
    /// belt-and-braces half of unblocking an accept loop that is parked
    /// in `accept()` (the nudge connection is the other half).
    listener: TcpListener,
    drain_timeout: Duration,
    shared: Arc<Shared<R>>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl<R: JobRunner> Server<R> {
    /// Binds the listener, spawns the worker pool, and starts accepting
    /// clients.
    pub fn start(runner: R, cfg: &ServerConfig) -> Result<Self, ServerError> {
        let listener = TcpListener::bind(&cfg.bind)
            .map_err(|e| ServerError::Io { what: "bind job listener", detail: e.to_string() })?;
        let addr = listener
            .local_addr()
            .map_err(|e| ServerError::Io { what: "job listener address", detail: e.to_string() })?;
        let accept_listener = listener
            .try_clone()
            .map_err(|e| ServerError::Io { what: "clone job listener", detail: e.to_string() })?;
        let shared = Arc::new(Shared {
            runner,
            inner: Arc::new(Mutex::new(Inner {
                queue: VecDeque::new(),
                jobs: HashMap::new(),
                cache: HashMap::new(),
                cache_clock: 0,
                next_id: 1,
                stats: ServerStats {
                    max_payload: cfg.max_payload as u64,
                    ..ServerStats::default()
                },
            })),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            rec: cfg.recorder.clone(),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            queue_capacity: cfg.queue_capacity.max(1),
            max_payload: cfg.max_payload,
            job_deadline: cfg.job_deadline,
            cache_max_entries: cfg.cache_max_entries.max(1),
            cache_max_bytes: cfg.cache_max_bytes as u64,
        });

        let workers = (0..cfg.workers.max(1))
            .map(|wid| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, wid))
            })
            .collect();
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || {
            accept_loop(&accept_listener, &accept_shared);
        });

        Ok(Self {
            addr,
            listener,
            drain_timeout: cfg.drain_timeout,
            shared,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound listener address (resolve `127.0.0.1:0` to the real
    /// port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Aggregate job counters so far.
    pub fn stats(&self) -> ServerStats {
        lock(&self.shared.inner).stats
    }

    /// Graceful drain shutdown: stop admitting immediately, let
    /// in-flight jobs finish within [`ServerConfig::drain_timeout`],
    /// cancel whatever remains, then join the pool (abandoning — but
    /// never waiting forever on — a worker wedged in a runner that
    /// ignores cancellation).
    pub fn shutdown(&mut self) {
        if self.shared.draining.swap(true, Ordering::AcqRel) {
            return;
        }
        // Wake idle workers: with admission closed they drain the queue
        // and exit once it is empty.
        self.shared.work_cv.notify_all();

        // Drain phase: wait for every job to finalize, up to the
        // configured drain budget. Overdue jobs finalize here as they
        // would for a waiter, so the next job deadline bounds each wait.
        let deadline = Instant::now() + self.drain_timeout;
        {
            let mut inner = lock(&self.shared.inner);
            loop {
                let mut wait = deadline.saturating_duration_since(Instant::now());
                let ids: Vec<u64> = inner.jobs.keys().copied().collect();
                for id in ids {
                    if let Some(left) = self.shared.enforce_deadline(&mut inner, id) {
                        wait = wait.min(left);
                    }
                }
                if wait.is_zero() || inner.jobs.values().all(|j| j.outcome.is_some()) {
                    break;
                }
                inner = self
                    .shared
                    .done_cv
                    .wait_timeout(inner, wait)
                    .unwrap_or_else(|p| p.into_inner())
                    .0;
            }
            // Whatever is still pending gets cancelled: queued jobs
            // finalize here, running ones at their runner's next
            // cancellation checkpoint.
            let pending: Vec<u64> =
                inner.jobs.iter().filter(|(_, j)| j.outcome.is_none()).map(|(&id, _)| id).collect();
            for id in pending {
                self.shared.cancel(&mut inner, id);
            }
            inner.queue.clear();
        }

        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.work_cv.notify_all();
        self.shared.done_cv.notify_all();

        // Unblock the accept loop: flip the listener nonblocking (so a
        // racing `accept()` that misses the nudge still returns
        // `WouldBlock` next time) and poke it with a loopback
        // connection. An unspecified bind address (0.0.0.0/[::]) is not
        // connectable, so the nudge targets the loopback of the same
        // family.
        self.listener.set_nonblocking(true).ok();
        let mut nudge = self.addr;
        if nudge.ip().is_unspecified() {
            nudge.set_ip(match nudge.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        TcpStream::connect_timeout(&nudge, Duration::from_millis(250)).ok();
        if let Some(h) = self.accept.take() {
            h.join().ok();
        }

        // Join the workers, but never forever: a runner that ignores
        // its cancel token would otherwise hang shutdown, so after a
        // bounded grace the wedged thread is abandoned (the process
        // teardown reaps it) and counted.
        let grace = Instant::now() + self.drain_timeout.max(Duration::from_millis(200));
        while Instant::now() < grace && self.workers.iter().any(|h| !h.is_finished()) {
            std::thread::sleep(Duration::from_millis(2));
        }
        for handle in self.workers.drain(..) {
            if handle.is_finished() {
                handle.join().ok();
            } else {
                self.shared.rec.add("server.workers.abandoned", 1);
            }
        }
    }
}

impl<R: JobRunner> Drop for Server<R> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One worker thread: drains the queue until shutdown. A caught panic
/// finalizes the job, and the worker carries on with the next one.
fn worker_loop<R: JobRunner>(shared: &Shared<R>, wid: usize) {
    loop {
        let (id, payload, ctx) = {
            let mut inner = lock(&shared.inner);
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if let Some(id) = inner.queue.pop_front() {
                    // Skip entries finalized while queued (drain cancel).
                    let Some(job) = inner.jobs.get_mut(&id).filter(|j| j.outcome.is_none()) else {
                        continue;
                    };
                    job.started_at = Some(Instant::now());
                    if shared.job_deadline.is_some() {
                        // A waiter that arrived while the job was queued
                        // sleeps without a timeout: wake it to arm one.
                        shared.done_cv.notify_all();
                    }
                    let ctx = JobContext {
                        cancel: job.cancel.clone(),
                        memo: Memo {
                            inner: Arc::clone(&shared.inner),
                            rec: shared.rec.clone(),
                            fresh: Arc::default(),
                        },
                    };
                    break (id, job.payload.clone(), ctx);
                }
                // Admission is closed and the queue is dry: this worker
                // is done.
                if shared.draining.load(Ordering::Acquire) {
                    return;
                }
                inner = shared.work_cv.wait(inner).unwrap_or_else(|p| p.into_inner());
            }
        };

        let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut span = shared.rec.span("server.job").attr("job", id).attr("worker", wid);
            if ctx.cancel.is_cancelled() {
                // Cancelled between dequeue and start: never run it.
                Err(JobError::Cancelled)
            } else {
                let r = shared.runner.run(&payload, &ctx);
                span.set_attr(
                    "outcome",
                    match &r {
                        Ok(_) => "done",
                        Err(JobError::Cancelled) => "cancelled",
                        Err(_) => "failed",
                    },
                );
                r
            }
        }));
        let result = run.unwrap_or_else(|panic| {
            // Count the caught panic before the panicked job finalizes.
            lock(&shared.inner).count(&shared.rec, RESPAWNED);
            Err(JobError::Panicked { reason: panic_reason(panic.as_ref()) })
        });
        let fresh = std::mem::take(&mut *lock(&ctx.memo.fresh));
        let mut inner = lock(&shared.inner);
        shared.finalize(&mut inner, id, result);
        // Only a job that completed adds to the memo.
        if inner.jobs.get(&id).is_some_and(|j| matches!(j.outcome, Some(JobOutcome::Done { .. }))) {
            for (key, value, bytes) in fresh {
                let slot = Slot::Memo(content_hash(&key));
                shared.cache_insert(&mut inner, slot, key, Cached::Memo { value, bytes });
            }
        }
    }
}

/// The accept loop: hands each connection to a detached handler. Exits
/// when shutdown is flagged — woken by the nudge connection, or by the
/// listener having been flipped nonblocking.
fn accept_loop<R: JobRunner>(listener: &TcpListener, shared: &Arc<Shared<R>>) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                stream.set_nodelay(true).ok();
                let shared = Arc::clone(shared);
                // Handlers are detached: they exit on client EOF or
                // corrupt frames, and the process teardown reaps any
                // that are still blocked on an open client socket.
                std::thread::spawn(move || serve_connection(&shared, stream));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                // Nonblocking only happens on the way down; be gentle.
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
            }
        }
    }
}

/// One client connection: a strict request/response loop, read through
/// a buffer. EOF or a corrupt frame ends the connection. Corrupt frames
/// — a retired tag among them — are counted (`server.recv_corrupt`) and
/// dropped: never a panic, never a dead server.
fn serve_connection<R: JobRunner>(shared: &Shared<R>, stream: TcpStream) {
    let mut stream = BufReader::with_capacity(READ_BUF, stream);
    let mut payload = Vec::new();
    let mut buf = Vec::new();
    loop {
        let msg = match read_frame::<JobMsg>(&mut stream, &mut payload) {
            Ok((m, _, _)) => m,
            Err(ReadError::Eof) => return,
            Err(ReadError::Corrupt(_) | ReadError::Fatal(_)) => {
                shared.rec.add("server.recv_corrupt", 1);
                return;
            }
            Err(ReadError::Io(_)) => return,
        };
        let reply = match msg {
            JobMsg::Run { ticket, payload } => run(shared, ticket, payload),
            JobMsg::Stats => JobMsg::StatsIs(lock(&shared.inner).stats),
            JobMsg::Catalog => JobMsg::CatalogIs {
                entries: shared.runner.catalog(),
                max_payload: shared.max_payload as u64,
            },
            // A reply frame arriving as a request is a protocol
            // violation; drop the connection.
            _ => return,
        };
        if write_frame(stream.get_mut(), &reply, 0, &mut buf).is_err() {
            return;
        }
    }
}

/// One `Run`: admission (size check, cache lookup, bounded queue), then
/// the job's outcome once it finalizes (or the server shuts down). A
/// cache hit replies at once and leaves no record; any other admitted
/// job's record lives exactly as long as this wait. With a server-side
/// job deadline the wait never outlives the queue backlog plus one
/// deadline: it sleeps no longer than the running job's time left, then
/// finalizes an overrunner itself.
fn run<R: JobRunner>(shared: &Shared<R>, ticket: u32, payload: Vec<u8>) -> JobMsg {
    if shared.draining.load(Ordering::Acquire) || shared.shutdown.load(Ordering::Acquire) {
        return shared.reject(ticket, "server shutting down".to_string());
    }
    // Admission-time size ceiling: rejected before the payload is
    // hashed, queued, or cached — the wire-level MAX_PAYLOAD only
    // guards frame decoding, this guards worker memory.
    if payload.len() > shared.max_payload {
        return shared.reject(
            ticket,
            format!(
                "payload of {} bytes exceeds the server max_payload of {} bytes",
                payload.len(),
                shared.max_payload
            ),
        );
    }
    let hash = content_hash(&payload);
    let mut inner = lock(&shared.inner);

    // Content-hash cache: a byte-identical resubmission is answered
    // with the exact result bytes of the first run — no worker, no
    // recomputation, bit-identical totals. A hit refreshes the entry's
    // LRU stamp.
    let hit = match inner.cache_get(Slot::Result(hash), &payload) {
        Some(Cached::Result(result)) => Some(JobOutcome::Done { payload: result.clone() }),
        _ => None,
    };
    if hit.is_none() && inner.queue.len() >= shared.queue_capacity {
        drop(inner);
        return shared.reject(ticket, "admission queue full".to_string());
    }
    let job_id = inner.next_id;
    inner.next_id += 1;
    inner.count(&shared.rec, SUBMITTED);
    if let Some(outcome) = hit {
        inner.count(&shared.rec, CACHE_HITS);
        return JobMsg::ResultIs { job_id, outcome, cached: true };
    }
    let job = Job {
        payload,
        hash,
        cancel: CancelToken::new(),
        outcome: None,
        queued_at: Instant::now(),
        started_at: None,
    };
    inner.jobs.insert(job_id, job);
    inner.queue.push_back(job_id);
    shared.work_cv.notify_one();

    loop {
        let left = shared.enforce_deadline(&mut inner, job_id);
        let outcome = inner.jobs.get_mut(&job_id).and_then(|j| j.outcome.take());
        if let Some(outcome) = outcome {
            inner.jobs.remove(&job_id);
            return JobMsg::ResultIs { job_id, outcome, cached: false };
        }
        if shared.shutdown.load(Ordering::Acquire) {
            // The record stays for the worker's late finalize to count;
            // admission is closed, so such records cannot accumulate.
            let outcome = JobOutcome::Failed { reason: "server shutting down".to_string() };
            return JobMsg::ResultIs { job_id, outcome, cached: false };
        }
        inner = match left {
            Some(left) => {
                shared.done_cv.wait_timeout(inner, left).unwrap_or_else(|p| p.into_inner()).0
            }
            None => shared.done_cv.wait(inner).unwrap_or_else(|p| p.into_inner()),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Test runner: payload[0] selects the behavior. 0 = echo the rest
    /// reversed, 1 = spin until cancelled (checkpoint every 1 ms), 2 =
    /// fail, 3 = panic, 4 = sleep 300 ms ignoring the cancel token (a
    /// "wedged" runner for the deadline tests). `[5, key]` memoises `key`
    /// and then panics; `[6, key, bytes, ..]` memoises `key` charged
    /// `bytes` and returns `[key, reused]`.
    struct TestRunner;

    impl JobRunner for TestRunner {
        fn run(&self, payload: &[u8], ctx: &JobContext) -> Result<Vec<u8>, JobError> {
            match payload.first() {
                Some(0) => Ok(payload[1..].iter().rev().copied().collect()),
                Some(1) => loop {
                    if ctx.cancel.is_cancelled() {
                        return Err(JobError::Cancelled);
                    }
                    std::thread::sleep(Duration::from_millis(1));
                },
                Some(2) => Err(JobError::Failed { reason: "scripted failure".to_string() }),
                Some(3) => panic!("scripted panic"),
                Some(4) => {
                    std::thread::sleep(Duration::from_millis(300));
                    Ok(vec![42])
                }
                Some(5) => {
                    ctx.memo.get_or_compute(&payload[1..2], || (payload[1], 1));
                    panic!("scripted panic after a memo miss")
                }
                Some(6) => {
                    let (value, reused) = ctx
                        .memo
                        .get_or_compute(&payload[1..2], || (payload[1], u64::from(payload[2])));
                    Ok(vec![*value, u8::from(reused)])
                }
                _ => Err(JobError::Invalid { reason: "empty payload".to_string() }),
            }
        }

        fn catalog(&self) -> Vec<CatalogEntry> {
            vec![CatalogEntry { name: "echo".to_string(), summary: "reverses bytes".to_string() }]
        }
    }

    fn start_with(cfg: ServerConfig) -> (Server<TestRunner>, Client) {
        let server = Server::start(TestRunner, &cfg).expect("server starts");
        let client = Client::connect(&server.addr().to_string()).expect("client connects");
        (server, client)
    }

    fn start() -> (Server<TestRunner>, Client) {
        start_with(ServerConfig { workers: 1, ..ServerConfig::default() })
    }

    /// Runs `payload` on a client of its own, on a thread of its own.
    fn spawn_run(
        server: &Server<TestRunner>,
        payload: &'static [u8],
    ) -> JoinHandle<Result<(JobOutcome, bool), ServerError>> {
        let addr = server.addr().to_string();
        std::thread::spawn(move || Client::connect(&addr)?.run_job(payload))
    }

    /// Waits until the server has admitted `n` jobs.
    fn await_submitted(server: &Server<TestRunner>, n: u64) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.stats().submitted < n {
            assert!(Instant::now() < deadline, "{n} jobs never arrived: {:?}", server.stats());
            std::thread::yield_now();
        }
    }

    fn outcome_of(h: JoinHandle<Result<(JobOutcome, bool), ServerError>>) -> JobOutcome {
        h.join().expect("client thread").expect("run job").0
    }

    #[test]
    fn echo_job_roundtrips_and_is_cached_on_resubmit() {
        let (server, mut client) = start();
        let (outcome, cached) = client.run_job(&[0, 1, 2, 3]).expect("run");
        assert_eq!(outcome, JobOutcome::Done { payload: vec![3, 2, 1] });
        assert!(!cached);

        let (outcome2, cached2) = client.run_job(&[0, 1, 2, 3]).expect("cached run");
        assert_eq!(outcome2, JobOutcome::Done { payload: vec![3, 2, 1] });
        assert!(cached2, "byte-identical resubmission must hit the cache");

        let stats = client.stats().expect("stats");
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(server.stats(), stats);
    }

    #[test]
    fn failures_are_reported_not_fatal_and_never_cached() {
        let (_server, mut client) = start();
        let (outcome, _) = client.run_job(&[2]).expect("run");
        assert!(
            matches!(outcome, JobOutcome::Failed { ref reason } if reason.contains("scripted"))
        );
        let (outcome, cached) = client.run_job(&[2]).expect("rerun failure");
        assert!(matches!(outcome, JobOutcome::Failed { .. }));
        assert!(!cached);
    }

    #[test]
    fn catalog_is_advertised_with_the_payload_limit() {
        let (_server, mut client) =
            start_with(ServerConfig { workers: 1, max_payload: 4096, ..ServerConfig::default() });
        let info = client.catalog().expect("catalog");
        assert_eq!(info.entries.len(), 1);
        assert_eq!(info.entries[0].name, "echo");
        assert_eq!(info.max_payload, 4096);
    }

    #[test]
    fn content_hash_is_fnv1a_and_order_sensitive() {
        assert_eq!(content_hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(content_hash(b"ab"), content_hash(b"ba"));
    }

    #[test]
    fn shutdown_finalizes_queued_jobs_and_joins() {
        let (mut server, _client) = start_with(ServerConfig {
            workers: 1,
            drain_timeout: Duration::from_millis(50),
            ..ServerConfig::default()
        });
        // The blocker spins until cancelled, so the second job is still
        // queued when the drain runs out.
        let blocker = spawn_run(&server, &[1]);
        await_submitted(&server, 1);
        let queued = spawn_run(&server, &[0, 1]);
        await_submitted(&server, 2);
        server.shutdown();
        assert_eq!(
            outcome_of(queued),
            JobOutcome::Cancelled,
            "its waiter gets the drain's outcome"
        );
        let blocked = outcome_of(blocker);
        assert!(
            matches!(blocked, JobOutcome::Cancelled | JobOutcome::Failed { .. }),
            "the running job is cancelled or abandoned, got {blocked:?}"
        );
        let stats = server.stats();
        assert!(stats.cancelled >= 1, "shutdown cancels what never ran: {stats:?}");
        assert_eq!(stats.completed, 0, "{stats:?}");
    }

    #[test]
    fn a_panicking_job_finalizes_typed_and_its_worker_serves_the_next_job() {
        let (server, mut client) = start();
        let (outcome, _) = client.run_job(&[3]).expect("panic result arrives");
        assert!(
            matches!(outcome, JobOutcome::Failed { ref reason } if reason.contains("panic")),
            "panic must surface as a typed failure, got {outcome:?}"
        );

        // The same (only) worker serves the next job.
        let (outcome, _) = client.run_job(&[0, 5, 6]).expect("post-panic result");
        assert_eq!(outcome, JobOutcome::Done { payload: vec![6, 5] });
        let stats = server.stats();
        assert_eq!(stats.panicked, 1, "{stats:?}");
        assert_eq!(stats.workers_respawned, 1, "{stats:?}");
    }

    fn is_deadline_failure(outcome: &JobOutcome) -> bool {
        matches!(outcome, JobOutcome::Failed { reason } if reason.contains("deadline"))
    }

    fn with_deadline(ms: u64) -> ServerConfig {
        ServerConfig {
            workers: 1,
            job_deadline: Some(Duration::from_millis(ms)),
            ..ServerConfig::default()
        }
    }

    #[test]
    fn deadline_bounds_wedged_jobs_and_keeps_the_pool_alive() {
        let (server, mut client) = start_with(with_deadline(40));
        // Payload [4] sleeps 300 ms and never polls the cancel token —
        // the waiting client must be unblocked long before that.
        let t0 = Instant::now();
        let (outcome, _) = client.run_job(&[4]).expect("deadline result arrives");
        let waited = t0.elapsed();
        assert!(
            is_deadline_failure(&outcome),
            "overrun must surface as a typed deadline failure, got {outcome:?}"
        );
        assert!(waited >= Duration::from_millis(40), "the client waited only {waited:?}");
        assert!(
            waited < Duration::from_millis(280),
            "the client waited {waited:?}, past the deadline bound"
        );

        // A cooperative job (well under the deadline) still completes.
        let (outcome, _) = client.run_job(&[0, 1]).expect("post-deadline result");
        assert_eq!(outcome, JobOutcome::Done { payload: vec![1] });
        let stats = server.stats();
        assert_eq!(stats.deadline_exceeded, 1, "{stats:?}");
    }

    #[test]
    fn a_waiter_that_arrives_before_its_job_starts_still_gets_the_deadline() {
        let (server, mut client) = start_with(with_deadline(40));
        // The blocker holds the only worker for 300 ms, so the second job
        // is still queued — with no deadline armed — when its waiter
        // arrives. It starts at ~300 ms and overruns at ~340 ms; its
        // runner would return at ~600 ms. The blocker's own waiter fails
        // it at ~40 ms, so its runner's return at ~300 ms finds no record
        // and wakes no one: only the second job's start can.
        let t0 = Instant::now();
        let blocker = spawn_run(&server, &[4]);
        await_submitted(&server, 1);
        let (outcome, _) = client.run_job(&[4]).expect("deadline result arrives");
        let waited = t0.elapsed();
        assert!(is_deadline_failure(&outcome), "got {outcome:?}");
        assert!(waited >= Duration::from_millis(340), "the client waited only {waited:?}");
        assert!(
            waited < Duration::from_millis(520),
            "the client waited {waited:?}: the job's start did not arm its waiter's deadline"
        );
        assert!(is_deadline_failure(&outcome_of(blocker)));
    }

    #[test]
    fn delivered_jobs_leave_the_table() {
        let (server, mut client) = start();
        // 10 distinct payloads, each run once cold and four times from
        // the cache.
        for i in 0..50u8 {
            let (outcome, _) = client.run_job(&[0, i % 10]).expect("run job");
            assert_eq!(outcome, JobOutcome::Done { payload: vec![i % 10] });
        }
        // A hit is submitted and a hit, and completes nothing.
        let stats = server.stats();
        assert_eq!((stats.submitted, stats.completed, stats.cache_hits), (50, 10, 40), "{stats:?}");
        assert!(lock(&server.shared.inner).jobs.is_empty(), "delivered jobs must be forgotten");
    }

    #[test]
    fn cache_is_bounded_by_bytes_and_entries_with_lru_eviction() {
        let budget = 256;
        let (server, mut client) = start_with(ServerConfig {
            workers: 1,
            cache_max_entries: 8,
            cache_max_bytes: budget,
            ..ServerConfig::default()
        });
        // 100 distinct jobs sweep far more bytes than the budget.
        for i in 0..100u8 {
            let (outcome, _) = client.run_job(&[0, i, i, i, i, i, i, i]).expect("sweep result");
            assert!(matches!(outcome, JobOutcome::Done { .. }));
            let stats = server.stats();
            assert!(
                stats.cache_bytes <= budget as u64,
                "cache bytes {} exceed the budget {budget} after job {i}",
                stats.cache_bytes
            );
        }
        let stats = server.stats();
        assert!(stats.cache_evictions > 0, "a 100-job sweep must evict: {stats:?}");
        assert!(stats.cache_bytes > 0 && stats.cache_bytes <= budget as u64, "{stats:?}");

        // The most recent payload is still resident (LRU keeps the
        // newest), an early one was evicted and recomputes.
        let (_, cached_recent) = client.run_job(&[0, 99, 99, 99, 99, 99, 99, 99]).expect("newest");
        assert!(cached_recent, "the newest entry must survive eviction");
        let (_, cached_old) = client.run_job(&[0, 0, 0, 0, 0, 0, 0, 0]).expect("oldest");
        assert!(!cached_old, "the oldest entry must have been evicted");
    }

    #[test]
    fn oversized_submissions_are_rejected_at_admission() {
        let (server, mut client) =
            start_with(ServerConfig { workers: 1, max_payload: 8, ..ServerConfig::default() });
        let err = client.run_job(&[0; 16]).expect_err("oversized run must be rejected");
        assert!(
            matches!(err, ServerError::Rejected { ref reason } if reason.contains("max_payload")),
            "got {err:?}"
        );
        let stats = server.stats();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.submitted, 0, "a rejected payload is never admitted");
        assert_eq!(stats.max_payload, 8, "the limit is surfaced in stats");
        // At the limit is fine.
        let (outcome, _) = client.run_job(&[0, 1, 2, 3, 4, 5, 6, 7]).expect("limit-sized run");
        assert!(matches!(outcome, JobOutcome::Done { .. }));
    }

    #[test]
    fn drain_shutdown_finishes_inflight_work() {
        let (mut server, _client) = start_with(ServerConfig {
            workers: 1,
            drain_timeout: Duration::from_secs(10),
            ..ServerConfig::default()
        });
        // A 300-ms job holds the only worker while three quick ones
        // queue behind it: the drain must let all four finish.
        let mut runs = vec![spawn_run(&server, &[4])];
        await_submitted(&server, 1);
        let quick: [&'static [u8]; 3] = [&[0, 1], &[0, 2], &[0, 3]];
        runs.extend(quick.map(|payload| spawn_run(&server, payload)));
        await_submitted(&server, 4);
        server.shutdown();
        let stats = server.stats();
        assert_eq!(stats.completed, 4, "drain must finish queued work: {stats:?}");
        assert_eq!(stats.cancelled, 0, "{stats:?}");
        for run in runs {
            assert!(matches!(outcome_of(run), JobOutcome::Done { .. }));
        }
    }

    #[test]
    fn zero_drain_shutdown_cancels_immediately() {
        let (mut server, _client) = start_with(ServerConfig {
            workers: 1,
            drain_timeout: Duration::ZERO,
            ..ServerConfig::default()
        });
        let blocker = spawn_run(&server, &[1]);
        await_submitted(&server, 1);
        let queued = spawn_run(&server, &[0, 1]);
        await_submitted(&server, 2);
        server.shutdown();
        let stats = server.stats();
        assert!(stats.cancelled >= 1, "zero drain cancels pending work: {stats:?}");
        for run in [blocker, queued] {
            let outcome = outcome_of(run);
            assert!(!matches!(outcome, JobOutcome::Done { .. }), "got {outcome:?}");
        }
    }

    #[test]
    fn corrupt_frames_are_counted_and_dropped_not_fatal() {
        use std::io::Write;
        let rec = Recorder::enabled();
        let (server, mut client) = start_with(ServerConfig {
            workers: 1,
            recorder: rec.clone(),
            ..ServerConfig::default()
        });
        // A raw connection spews garbage: the handler drops it, counts
        // it, and the server keeps serving.
        let mut raw = TcpStream::connect(server.addr()).expect("raw connect");
        raw.write_all(&[0xFF; 64]).expect("write garbage");
        drop(raw);
        let deadline = Instant::now() + Duration::from_secs(5);
        while rec.counter_value("server.recv_corrupt") == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(rec.counter_value("server.recv_corrupt") >= 1, "corruption must be counted");
        let (outcome, _) = client.run_job(&[0, 1, 2]).expect("run after garbage");
        assert_eq!(outcome, JobOutcome::Done { payload: vec![2, 1] });
    }

    #[test]
    fn a_cold_job_records_where_its_time_went_and_a_hit_records_nothing() {
        let rec = Recorder::enabled();
        let (_server, mut client) = start_with(ServerConfig {
            workers: 1,
            recorder: rec.clone(),
            ..ServerConfig::default()
        });
        let hist = |name: &str| {
            let summary = rec.summary().expect("enabled recorder");
            summary.histogram(name).map_or((0, 0), |h| (h.count, h.sum))
        };
        let names = ["server.job.queue_wait", "server.job.run", "server.job.total"];
        client.run_job(&[0, 1, 2]).expect("cold job");
        let [(n_queue, queue), (n_run, run), (n_total, total)] = names.map(hist);
        assert_eq!((n_queue, n_run, n_total), (1, 1, 1));
        assert!(queue + run <= total, "{queue} + {run} > {total}");

        let (_, cached) = client.run_job(&[0, 1, 2]).expect("cache hit");
        assert!(cached);
        assert_eq!(names.map(|n| hist(n).0), [1, 1, 1], "a hit records nothing");
    }

    fn memo_keys(server: &Server<TestRunner>) -> usize {
        lock(&server.shared.inner).cache.keys().filter(|s| matches!(s, Slot::Memo(_))).count()
    }

    #[test]
    fn a_panicking_job_leaves_no_memo_entry() {
        let rec = Recorder::enabled();
        let (server, mut client) = start_with(ServerConfig {
            workers: 1,
            recorder: rec.clone(),
            ..ServerConfig::default()
        });
        let (outcome, _) = client.run_job(&[5, 9]).expect("panicking job");
        assert!(matches!(outcome, JobOutcome::Failed { ref reason } if reason.contains("panic")));
        assert_eq!(memo_keys(&server), 0, "a panicked job must not memoise");

        // The next job on that key computes it afresh, and keeps it.
        let (outcome, _) = client.run_job(&[6, 9, 1, 0]).expect("memo miss");
        assert_eq!(outcome, JobOutcome::Done { payload: vec![9, 0] });
        let (outcome, _) = client.run_job(&[6, 9, 1, 1]).expect("memo hit");
        assert_eq!(outcome, JobOutcome::Done { payload: vec![9, 1] });
        assert_eq!(memo_keys(&server), 1);
        assert_eq!(rec.counter_value("server.memo.misses"), 2);
        assert_eq!(rec.counter_value("server.memo.hits"), 1);
        assert_eq!(server.stats().cache_hits, 0, "a memo hit is not a job cache hit");
    }

    #[test]
    fn memo_and_result_entries_are_evicted_under_one_budget() {
        let budget = 128;
        let rec = Recorder::enabled();
        let (server, mut client) = start_with(ServerConfig {
            workers: 1,
            cache_max_entries: 64,
            cache_max_bytes: budget,
            recorder: rec.clone(),
            ..ServerConfig::default()
        });
        let mut run = |payload: &[u8]| {
            let (outcome, _) = client.run_job(payload).expect("run job");
            let stats = server.stats();
            assert!(stats.cache_bytes <= budget as u64, "{stats:?} after {payload:?}");
            outcome
        };
        // A memo entry of 1 + 100 bytes beside its job's 6-byte result.
        assert_eq!(run(&[6, 1, 100, 0]), JobOutcome::Done { payload: vec![1, 0] });
        assert_eq!(server.stats().cache_bytes, 107);
        // Results push it out: 15 bytes each, least recently used first.
        for i in 0..4u8 {
            run(&[0, i, i, i, i, i, i, i]);
        }
        assert_eq!(memo_keys(&server), 0, "results must evict the memo entry");
        let evicted = server.stats().cache_evictions;
        assert_eq!(evicted, 2, "the memo job's result, then its memo entry");

        // A memo entry pushes results out in turn.
        assert_eq!(run(&[6, 1, 100, 1]), JobOutcome::Done { payload: vec![1, 0] });
        assert!(server.stats().cache_evictions > evicted, "{:?}", server.stats());
        assert_eq!(memo_keys(&server), 1);

        // A value larger than the whole budget is never kept.
        assert_eq!(run(&[6, 2, 200, 0]), JobOutcome::Done { payload: vec![2, 0] });
        assert_eq!(run(&[6, 2, 200, 1]), JobOutcome::Done { payload: vec![2, 0] });
        assert_eq!(rec.counter_value("server.memo.misses"), 4);
        assert_eq!(rec.counter_value("server.memo.hits"), 0);
        assert_eq!(server.stats().cache_hits, 0);
    }
}
