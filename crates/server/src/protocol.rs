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
//! The payload of a [`JobMsg::Submit`] is opaque to this crate: the
//! server hands it to its [`crate::JobRunner`] verbatim, and the
//! content-hash cache keys on exactly these bytes. A `ticket` chosen by
//! the client correlates `Submit` with `Accepted`/`Rejected` so one
//! connection can pipeline submissions.

use cip_transport::{ByteReader, ByteWriter, Wire, WireError};

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

impl JobState {
    fn code(self) -> u8 {
        match self {
            Self::Queued => 0,
            Self::Running => 1,
            Self::Done => 2,
            Self::Failed => 3,
            Self::Cancelled => 4,
        }
    }

    fn from_code(code: u8) -> Result<Self, WireError> {
        Ok(match code {
            0 => Self::Queued,
            1 => Self::Running,
            2 => Self::Done,
            3 => Self::Failed,
            4 => Self::Cancelled,
            _ => return Err(WireError::Malformed { what: "unknown job state" }),
        })
    }
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
    /// Jobs stopped by the per-job deadline watchdog.
    pub deadline_exceeded: u64,
    /// Result-cache entries evicted to stay inside the budget.
    pub cache_evictions: u64,
    /// Current result-cache occupancy in bytes (a gauge, not a
    /// counter).
    pub cache_bytes: u64,
    /// Worker threads the supervisor respawned after a panic retired
    /// their predecessor.
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
    /// Client → server: cancel this job (idempotent; unknown ids are
    /// reported via [`JobMsg::StatusIs`] as [`JobState::Failed`]).
    Cancel {
        /// The job to cancel.
        job_id: u64,
    },
    /// Client → server: block until the job completes, then send
    /// [`JobMsg::ResultIs`].
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

/// Frame tag of [`JobMsg::Submit`].
pub const TAG_SUBMIT: u8 = 1;
/// Frame tag of [`JobMsg::Accepted`].
pub const TAG_ACCEPTED: u8 = 2;
/// Frame tag of [`JobMsg::Rejected`].
pub const TAG_REJECTED: u8 = 3;
/// Frame tag of [`JobMsg::Status`].
pub const TAG_STATUS: u8 = 4;
/// Frame tag of [`JobMsg::StatusIs`].
pub const TAG_STATUS_IS: u8 = 5;
/// Frame tag of [`JobMsg::Cancel`].
pub const TAG_CANCEL: u8 = 6;
/// Frame tag of [`JobMsg::Result`].
pub const TAG_RESULT: u8 = 7;
/// Frame tag of [`JobMsg::ResultIs`].
pub const TAG_RESULT_IS: u8 = 8;
/// Frame tag of [`JobMsg::Stats`].
pub const TAG_STATS: u8 = 9;
/// Frame tag of [`JobMsg::StatsIs`].
pub const TAG_STATS_IS: u8 = 10;
/// Frame tag of [`JobMsg::Catalog`].
pub const TAG_CATALOG: u8 = 11;
/// Frame tag of [`JobMsg::CatalogIs`].
pub const TAG_CATALOG_IS: u8 = 12;

fn w_outcome(w: &mut ByteWriter<'_>, outcome: &JobOutcome) {
    match outcome {
        JobOutcome::Done { payload } => {
            w.u8(0);
            w.bytes(payload);
        }
        JobOutcome::Failed { reason } => {
            w.u8(1);
            w.str(reason);
        }
        JobOutcome::Cancelled => w.u8(2),
    }
}

fn r_outcome(r: &mut ByteReader<'_>) -> Result<JobOutcome, WireError> {
    match r.u8()? {
        0 => Ok(JobOutcome::Done { payload: r.bytes()? }),
        1 => Ok(JobOutcome::Failed { reason: r.str()? }),
        2 => Ok(JobOutcome::Cancelled),
        _ => Err(WireError::Malformed { what: "unknown outcome variant" }),
    }
}

impl Wire for JobMsg {
    fn tag(&self) -> u8 {
        match self {
            Self::Submit { .. } => TAG_SUBMIT,
            Self::Accepted { .. } => TAG_ACCEPTED,
            Self::Rejected { .. } => TAG_REJECTED,
            Self::Status { .. } => TAG_STATUS,
            Self::StatusIs { .. } => TAG_STATUS_IS,
            Self::Cancel { .. } => TAG_CANCEL,
            Self::Result { .. } => TAG_RESULT,
            Self::ResultIs { .. } => TAG_RESULT_IS,
            Self::Stats => TAG_STATS,
            Self::StatsIs(_) => TAG_STATS_IS,
            Self::Catalog => TAG_CATALOG,
            Self::CatalogIs { .. } => TAG_CATALOG_IS,
        }
    }

    fn src_rank(&self) -> u32 {
        0
    }

    fn step(&self) -> u32 {
        0
    }

    fn seq(&self) -> u64 {
        0
    }

    fn encode_payload(&self, w: &mut ByteWriter<'_>) {
        match self {
            Self::Submit { ticket, payload } => {
                w.u32(*ticket);
                w.bytes(payload);
            }
            Self::Accepted { ticket, job_id } => {
                w.u32(*ticket);
                w.u64(*job_id);
            }
            Self::Rejected { ticket, reason } => {
                w.u32(*ticket);
                w.str(reason);
            }
            Self::Status { job_id } | Self::Cancel { job_id } | Self::Result { job_id } => {
                w.u64(*job_id);
            }
            Self::StatusIs { job_id, state } => {
                w.u64(*job_id);
                w.u8(state.code());
            }
            Self::ResultIs { job_id, outcome, cached } => {
                w.u64(*job_id);
                w.u8(u8::from(*cached));
                w_outcome(w, outcome);
            }
            Self::Stats | Self::Catalog => {}
            Self::StatsIs(s) => {
                w.u64(s.submitted);
                w.u64(s.completed);
                w.u64(s.cancelled);
                w.u64(s.cache_hits);
                w.u64(s.failed);
                w.u64(s.rejected);
                w.u64(s.panicked);
                w.u64(s.deadline_exceeded);
                w.u64(s.cache_evictions);
                w.u64(s.cache_bytes);
                w.u64(s.workers_respawned);
                w.u64(s.max_payload);
            }
            Self::CatalogIs { entries, max_payload } => {
                w.u64(*max_payload);
                w.u32(entries.len() as u32);
                for e in entries {
                    w.str(&e.name);
                    w.str(&e.summary);
                }
            }
        }
    }

    fn decode_payload(
        tag: u8,
        _from: u32,
        _step: u32,
        _seq: u64,
        r: &mut ByteReader<'_>,
    ) -> Result<Self, WireError> {
        match tag {
            TAG_SUBMIT => Ok(Self::Submit { ticket: r.u32()?, payload: r.bytes()? }),
            TAG_ACCEPTED => Ok(Self::Accepted { ticket: r.u32()?, job_id: r.u64()? }),
            TAG_REJECTED => Ok(Self::Rejected { ticket: r.u32()?, reason: r.str()? }),
            TAG_STATUS => Ok(Self::Status { job_id: r.u64()? }),
            TAG_STATUS_IS => {
                Ok(Self::StatusIs { job_id: r.u64()?, state: JobState::from_code(r.u8()?)? })
            }
            TAG_CANCEL => Ok(Self::Cancel { job_id: r.u64()? }),
            TAG_RESULT => Ok(Self::Result { job_id: r.u64()? }),
            TAG_RESULT_IS => {
                let job_id = r.u64()?;
                let cached = r.u8()? != 0;
                Ok(Self::ResultIs { job_id, outcome: r_outcome(r)?, cached })
            }
            TAG_STATS => Ok(Self::Stats),
            TAG_STATS_IS => Ok(Self::StatsIs(ServerStats {
                submitted: r.u64()?,
                completed: r.u64()?,
                cancelled: r.u64()?,
                cache_hits: r.u64()?,
                failed: r.u64()?,
                rejected: r.u64()?,
                panicked: r.u64()?,
                deadline_exceeded: r.u64()?,
                cache_evictions: r.u64()?,
                cache_bytes: r.u64()?,
                workers_respawned: r.u64()?,
                max_payload: r.u64()?,
            })),
            TAG_CATALOG => Ok(Self::Catalog),
            TAG_CATALOG_IS => {
                let max_payload = r.u64()?;
                let count = r.u32()? as usize;
                if count * 8 > r.remaining() {
                    return Err(WireError::Malformed { what: "catalog count exceeds payload" });
                }
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    entries.push(CatalogEntry { name: r.str()?, summary: r.str()? });
                }
                Ok(Self::CatalogIs { entries, max_payload })
            }
            got => Err(WireError::BadTag { got }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cip_transport::frame::{decode_frame, encode_frame};

    fn roundtrip(msg: &JobMsg) -> JobMsg {
        let mut buf = Vec::new();
        encode_frame(msg, 0, &mut buf);
        let (decoded, _, _) = decode_frame::<JobMsg>(&buf).expect("frame decodes");
        decoded
    }

    #[test]
    fn every_variant_roundtrips() {
        let msgs = [
            JobMsg::Submit { ticket: 7, payload: vec![1, 2, 3, 255] },
            JobMsg::Accepted { ticket: 7, job_id: 42 },
            JobMsg::Rejected { ticket: 9, reason: "queue full".into() },
            JobMsg::Status { job_id: 42 },
            JobMsg::StatusIs { job_id: 42, state: JobState::Running },
            JobMsg::Cancel { job_id: 42 },
            JobMsg::Result { job_id: 42 },
            JobMsg::ResultIs {
                job_id: 42,
                outcome: JobOutcome::Done { payload: b"totals".to_vec() },
                cached: true,
            },
            JobMsg::ResultIs {
                job_id: 1,
                outcome: JobOutcome::Failed { reason: "x".into() },
                cached: false,
            },
            JobMsg::ResultIs { job_id: 2, outcome: JobOutcome::Cancelled, cached: false },
            JobMsg::Stats,
            JobMsg::StatsIs(ServerStats {
                submitted: 5,
                completed: 3,
                cancelled: 1,
                cache_hits: 2,
                failed: 0,
                rejected: 4,
                panicked: 1,
                deadline_exceeded: 2,
                cache_evictions: 9,
                cache_bytes: 1 << 20,
                workers_respawned: 1,
                max_payload: 16 << 20,
            }),
            JobMsg::Catalog,
            JobMsg::CatalogIs {
                entries: vec![CatalogEntry { name: "tiny".into(), summary: "unit test".into() }],
                max_payload: 4096,
            },
        ];
        for msg in msgs {
            assert_eq!(roundtrip(&msg), msg, "{msg:?}");
        }
    }

    #[test]
    fn all_job_states_roundtrip() {
        for state in [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Failed,
            JobState::Cancelled,
        ] {
            let msg = roundtrip(&JobMsg::StatusIs { job_id: 1, state });
            assert_eq!(msg, JobMsg::StatusIs { job_id: 1, state });
        }
        assert!(JobState::from_code(9).is_err());
    }

    #[test]
    fn large_payloads_roundtrip() {
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let msg = JobMsg::Submit { ticket: 1, payload };
        assert_eq!(roundtrip(&msg), msg);
    }
}
