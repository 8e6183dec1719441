//! The job-server control protocol.
//!
//! Client and server speak [`JobMsg`] frames over one TCP connection,
//! framed exactly like mesh and worker-control traffic
//! ([`cip_transport::frame`]: versioned header + CRC), so the wire
//! corruption guarantees are shared with the data plane. Control
//! corruption is fatal for the connection — there is no NACK layer here
//! — but never for the server: the handler drops the connection.
//!
//! One way to run a job: a [`JobMsg::Run`] carries the payload, and the
//! server answers it once, with the job's [`JobMsg::ResultIs`] when it
//! finalizes or with the [`JobMsg::Rejected`] that refused it at
//! admission. The payload is opaque to this crate: the server hands it
//! to its [`crate::JobRunner`] verbatim, and the content-hash cache keys
//! on exactly these bytes. The client-chosen `ticket` correlates a `Run`
//! with the `Rejected` that may refuse it; the job id the server assigns
//! travels only in the `ResultIs`, and the job is forgotten once that
//! reply is sent. Besides `Run` a client may ask for `Stats` and the
//! `Catalog`.
//!
//! Wire tags 1, 2 and 4–7 belonged to an asynchronous job API (submit,
//! then poll, cancel or wait by job id) that is gone. They are never
//! reused: a frame carrying one is refused as
//! [`cip_transport::WireError::BadTag`], like any unknown tag.

use cip_transport::{codec_enum, codec_struct};

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
    /// budget, or finalized by the server when their `Run` waiter, the
    /// shutdown drain or their late-returning worker found them overdue.
    pub deadline_exceeded: u64,
    /// Result-cache entries evicted to stay inside the budget.
    pub cache_evictions: u64,
    /// Current result-cache occupancy in bytes (a gauge, not a
    /// counter).
    pub cache_bytes: u64,
    /// Jobs whose panic a worker caught (the worker thread itself keeps
    /// serving; one per caught panic).
    pub workers_respawned: u64,
    /// The server's `Run` payload ceiling in bytes (a limit, not a
    /// counter — surfaced here so clients can size submissions).
    pub max_payload: u64,
}

/// What [`JobMsg::CatalogIs`] carries: the advertised workloads plus
/// the admission limits a client needs to size its submissions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogInfo {
    /// One row per advertised workload.
    pub entries: Vec<CatalogEntry>,
    /// The server's `Run` payload ceiling in bytes.
    pub max_payload: u64,
}

/// Messages on a client connection. Requests flow client → server,
/// `*Is`/`Rejected` replies flow server → client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobMsg {
    /// Server → client: the `Run` was refused at admission (oversized
    /// payload, queue full, shutting down).
    Rejected {
        /// Echo of the `Run` ticket.
        ticket: u32,
        /// Why.
        reason: String,
    },
    /// Server → client: the job's final outcome.
    ResultIs {
        /// The server-assigned job id.
        job_id: u64,
        /// How it ended.
        outcome: JobOutcome,
        /// Whether the result came from the content-hash cache.
        cached: bool,
    },
    /// Client → server: run `payload` and reply with its outcome — a
    /// [`JobMsg::ResultIs`], or the [`JobMsg::Rejected`] that refused it.
    Run {
        /// Client-chosen correlation id, echoed by a `Rejected`.
        ticket: u32,
        /// The job payload (opaque to the transport; the server's
        /// [`crate::JobRunner`] decodes it; cache key: exactly these
        /// bytes).
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
        /// The server's `Run` payload ceiling in bytes.
        max_payload: u64,
    },
}

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

// Tags 1, 2 and 4–7 are retired (see the module doc) and never reused.
codec_enum!(framed JobMsg {
    3 => Rejected { ticket, reason },
    8 => ResultIs { job_id, cached, outcome },
    9 => Stats,
    10 => StatsIs(stats),
    11 => Catalog,
    12 => CatalogIs { max_payload, entries },
    13 => Run { ticket, payload },
});
