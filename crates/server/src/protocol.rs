//! The job-server control protocol.
//!
//! Client and server speak [`JobMsg`] frames over one TCP connection,
//! framed exactly like mesh and worker-control traffic
//! ([`cip_transport::frame`]: versioned header + CRC), so the wire
//! corruption guarantees are shared with the data plane. Control
//! corruption is fatal for the connection — there is no NACK layer here
//! — but never for the server: the handler drops the connection and the
//! jobs it submitted keep running.
//!
//! The payload of a [`JobMsg::Submit`] or [`JobMsg::Run`] is opaque to
//! this crate: the server hands it to its [`crate::JobRunner`] verbatim,
//! and the content-hash cache keys on exactly these bytes. A `ticket`
//! chosen by the client correlates a submission with the `Rejected` that
//! may refuse it, and a `Submit` with its `Accepted`, so one connection
//! can pipeline submissions.
//!
//! Two ways to run a job. `Submit` answers `Accepted` with a job id that
//! `Status`, `Cancel` and `Result` then address — the asynchronous API.
//! `Run` is `Submit` and `Result` in one exchange: the server admits the
//! payload exactly as for `Submit` and answers with the job's
//! [`JobMsg::ResultIs`] once it finalizes, or with the `Rejected` that
//! refused it. The job id a `Run` assigns travels only in its
//! `ResultIs`.
//!
//! A job's outcome is delivered once: after [`JobMsg::ResultIs`] has
//! carried it, the server forgets the job, and `Status`, `Cancel` and
//! `Result` answer for its id exactly as for an id it never issued.

use cip_transport::{codec_enum, codec_struct};

/// Where a job is in its life cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished; the result is available.
    Done,
    /// The runner rejected or aborted it.
    Failed,
    /// Cancelled before or during execution.
    Cancelled,
}

/// How a job ended — the payload of a [`JobMsg::ResultIs`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome {
    /// The runner finished; `payload` is its (runner-defined) result.
    Done {
        /// Runner-defined result bytes.
        payload: Vec<u8>,
    },
    /// The runner failed.
    Failed {
        /// Why.
        reason: String,
    },
    /// The job was cancelled before it produced a result.
    Cancelled,
}

/// One catalog row: a workload the server advertises.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogEntry {
    /// Stable workload name.
    pub name: String,
    /// One-line human summary.
    pub summary: String,
}

/// Aggregate server counters, as reported by [`JobMsg::StatsIs`]. The
/// same values back the `server.jobs.*` telemetry counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Jobs accepted (cache hits included).
    pub submitted: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Jobs cancelled before completion.
    pub cancelled: u64,
    /// Submissions answered from the content-hash cache.
    pub cache_hits: u64,
    /// Jobs whose runner failed.
    pub failed: u64,
    /// Submissions refused at admission (oversized payload, full
    /// queue, shutdown drain).
    pub rejected: u64,
    /// Jobs whose runner panicked (caught; finalized as failed).
    pub panicked: u64,
    /// Jobs that overran their per-job deadline: stopped by their own
    /// budget, or finalized by the server when a `Result` waiter, a
    /// `Status` query, the shutdown drain or their late-returning worker
    /// found them overdue.
    pub deadline_exceeded: u64,
    /// Result-cache entries evicted to stay inside the budget.
    pub cache_evictions: u64,
    /// Current result-cache occupancy in bytes (a gauge, not a
    /// counter).
    pub cache_bytes: u64,
    /// Jobs whose panic a worker caught (the worker thread itself keeps
    /// serving; one per caught panic).
    pub workers_respawned: u64,
    /// The server's `Submit` payload ceiling in bytes (a limit, not a
    /// counter — surfaced here so clients can size submissions).
    pub max_payload: u64,
}

/// What [`JobMsg::CatalogIs`] carries: the advertised workloads plus
/// the admission limits a client needs to size its submissions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogInfo {
    /// One row per advertised workload.
    pub entries: Vec<CatalogEntry>,
    /// The server's `Submit` payload ceiling in bytes.
    pub max_payload: u64,
}

/// Messages on a client connection. Requests flow client → server,
/// `*Is`/`Accepted`/`Rejected` replies flow server → client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobMsg {
    /// Client → server: run `payload` (opaque to the transport; the
    /// server's [`crate::JobRunner`] decodes it).
    Submit {
        /// Client-chosen correlation id, echoed by the reply.
        ticket: u32,
        /// The job payload (cache key: exactly these bytes).
        payload: Vec<u8>,
    },
    /// Server → client: the submission was accepted as job `job_id`.
    Accepted {
        /// Echo of the submit ticket.
        ticket: u32,
        /// Server-assigned job id.
        job_id: u64,
    },
    /// Server → client: the submission was refused (queue full,
    /// shutting down).
    Rejected {
        /// Echo of the submit ticket.
        ticket: u32,
        /// Why.
        reason: String,
    },
    /// Client → server: where is this job?
    Status {
        /// The job to query.
        job_id: u64,
    },
    /// Server → client: the job's current state.
    StatusIs {
        /// Echo of the queried job.
        job_id: u64,
        /// Its state.
        state: JobState,
    },
    /// Client → server: cancel this job (idempotent; unknown and
    /// delivered ids are reported via [`JobMsg::StatusIs`] as
    /// [`JobState::Failed`]).
    Cancel {
        /// The job to cancel.
        job_id: u64,
    },
    /// Client → server: block until the job completes, then send
    /// [`JobMsg::ResultIs`] — once; the job is forgotten after it.
    Result {
        /// The job to wait for.
        job_id: u64,
    },
    /// Server → client: the job's final outcome.
    ResultIs {
        /// Echo of the awaited job.
        job_id: u64,
        /// How it ended.
        outcome: JobOutcome,
        /// Whether the result came from the content-hash cache.
        cached: bool,
    },
    /// Client → server: run `payload` and reply with its outcome —
    /// [`JobMsg::Submit`] then [`JobMsg::Result`] in one exchange. The
    /// reply is a [`JobMsg::ResultIs`], or the [`JobMsg::Rejected`] that
    /// refused the submission.
    Run {
        /// Client-chosen correlation id, echoed by a `Rejected`.
        ticket: u32,
        /// The job payload (cache key: exactly these bytes).
        payload: Vec<u8>,
    },
    /// Client → server: report aggregate counters.
    Stats,
    /// Server → client: the counters.
    StatsIs(ServerStats),
    /// Client → server: advertise the available workloads.
    Catalog,
    /// Server → client: the workload catalog and admission limits.
    CatalogIs {
        /// One row per advertised workload.
        entries: Vec<CatalogEntry>,
        /// The server's `Submit` payload ceiling in bytes.
        max_payload: u64,
    },
}

codec_enum!(JobState { 0 => Queued, 1 => Running, 2 => Done, 3 => Failed, 4 => Cancelled });

codec_enum!(JobOutcome {
    0 => Done { payload },
    1 => Failed { reason },
    2 => Cancelled,
});

codec_struct!(CatalogEntry { name, summary });

codec_struct!(ServerStats {
    submitted,
    completed,
    cancelled,
    cache_hits,
    failed,
    rejected,
    panicked,
    deadline_exceeded,
    cache_evictions,
    cache_bytes,
    workers_respawned,
    max_payload
});

codec_enum!(framed JobMsg {
    1 => Submit { ticket, payload },
    2 => Accepted { ticket, job_id },
    3 => Rejected { ticket, reason },
    4 => Status { job_id },
    5 => StatusIs { job_id, state },
    6 => Cancel { job_id },
    7 => Result { job_id },
    8 => ResultIs { job_id, cached, outcome },
    9 => Stats,
    10 => StatsIs(stats),
    11 => Catalog,
    12 => CatalogIs { max_payload, entries },
    13 => Run { ticket, payload },
});
