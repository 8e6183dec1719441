//! Partitioning-as-a-service: the glue between the generic
//! [`cip_server`] job machinery and the traced partition/execute
//! pipeline in [`crate::trace`].
//!
//! A job submission is a [`JobRequest`] — a versioned, deterministic
//! byte encoding of [`TraceOptions`] (minus the transport, which the
//! service pins to in-process ranks inside the worker thread). The
//! encoding is canonical: equal options produce equal bytes, so the
//! server's content-hash cache recognises repeated submissions and
//! answers them with the exact result bytes of the first run.
//!
//! The result payload is a [`TraceTotals`] — the deterministic
//! conservation totals of the run (the same numbers
//! [`crate::trace::TraceReport::verify_totals`] cross-checks against
//! telemetry). Timing-dependent artifacts (spans, chrome traces) stay
//! server-side; only bit-stable bytes cross the wire, which is what
//! makes cached and fresh replies indistinguishable.
//!
//! [`TraceJobRunner`] implements [`JobRunner`] on top of
//! [`Session`]: build → advance (with the job's
//! [`cip_runtime::CancelToken`] checked at every batch boundary, and
//! the server's per-job deadline threaded in as the session's time
//! budget) → totals. Each
//! server worker owns one [`SessionWorkspace`], so steady-state service
//! traffic reuses partitioner scratch instead of reallocating per job.

use crate::trace::{
    ChaosOptions, RunBudget, RunControl, Session, SessionWorkspace, TraceError, TraceOptions,
    TraceReport,
};
use cip_server::{CatalogEntry, JobContext, JobError, JobRunner};
use cip_sim::scenarios;
use cip_transport::wire::{ByteReader, ByteWriter};
use cip_transport::WireError;

/// Payload format version; bump on any encoding change. Version 1
/// carried a schedule tag and a repartition-mode tag; both knobs are
/// gone, and a version-1 payload is rejected.
const REQUEST_VERSION: u8 = 2;
/// Result format version.
const TOTALS_VERSION: u8 = 1;

fn w_opt_u64(w: &mut ByteWriter<'_>, v: Option<u64>) {
    match v {
        Some(v) => {
            w.u8(1);
            w.u64(v);
        }
        None => w.u8(0),
    }
}

fn r_opt_u64(r: &mut ByteReader<'_>) -> Result<Option<u64>, WireError> {
    Ok(match r.u8()? {
        0 => None,
        1 => Some(r.u64()?),
        _ => return Err(WireError::Malformed { what: "bad option tag" }),
    })
}

/// A job submission: what to run and how, in a canonical byte form.
///
/// Wraps the subset of [`TraceOptions`] that makes sense server-side —
/// everything except the transport, which the service fixes to
/// in-process ranks (each job runs entirely inside one worker thread).
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// The options to run. `opts.transport` is ignored by the service.
    pub opts: TraceOptions,
}

impl JobRequest {
    /// A request for `opts` (the transport field is not transmitted).
    pub fn new(opts: TraceOptions) -> Self {
        Self { opts }
    }

    /// The canonical byte encoding — the server's cache key input.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut w = ByteWriter::new(&mut out);
        let o = &self.opts;
        w.u8(REQUEST_VERSION);
        w.str(&o.scenario);
        w.u64(o.k as u64);
        w_opt_u64(&mut w, o.snapshots.map(|n| n as u64));
        w.u64(o.seed);
        w_opt_u64(&mut w, o.repartition_period.map(|n| n as u64));
        match &o.chaos {
            None => w.u8(0),
            Some(c) => {
                w.u8(1);
                w.u64(c.seed);
                w.u16(c.drop_permille);
                w.u16(c.dup_permille);
                w.u16(c.delay_permille);
                w.u16(c.reorder_permille);
                match c.kill {
                    None => w.u8(0),
                    Some((step, rank)) => {
                        w.u8(1);
                        w.u64(step as u64);
                        w.u32(rank);
                    }
                }
                w.u64(c.timeout_ms);
                w.u32(c.retries);
            }
        }
        w.u64(o.lookahead as u64);
        w.u64(o.max_batch as u64);
        out
    }

    /// Decodes a request; rejects unknown versions and malformed bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = ByteReader::new(payload);
        let version = r.u8()?;
        if version != REQUEST_VERSION {
            return Err(WireError::Malformed { what: "unsupported job request version" });
        }
        let scenario = r.str()?;
        let k = r.u64()? as usize;
        let snapshots = r_opt_u64(&mut r)?.map(|n| n as usize);
        let seed = r.u64()?;
        let repartition_period = r_opt_u64(&mut r)?.map(|n| n as usize);
        let chaos = match r.u8()? {
            0 => None,
            1 => {
                let seed = r.u64()?;
                let drop_permille = r.u16()?;
                let dup_permille = r.u16()?;
                let delay_permille = r.u16()?;
                let reorder_permille = r.u16()?;
                let kill = match r.u8()? {
                    0 => None,
                    1 => Some((r.u64()? as usize, r.u32()?)),
                    _ => return Err(WireError::Malformed { what: "bad kill tag" }),
                };
                Some(ChaosOptions {
                    seed,
                    drop_permille,
                    dup_permille,
                    delay_permille,
                    reorder_permille,
                    kill,
                    timeout_ms: r.u64()?,
                    retries: r.u32()?,
                })
            }
            _ => return Err(WireError::Malformed { what: "bad chaos tag" }),
        };
        let lookahead = r.u64()? as usize;
        let max_batch = r.u64()? as usize;
        r.finish()?;
        Ok(Self {
            opts: TraceOptions {
                scenario,
                k,
                snapshots,
                seed,
                repartition_period,
                chaos,
                lookahead,
                max_batch,
                transport: Default::default(),
            },
        })
    }
}

/// The deterministic totals of one traced run — the job result payload.
///
/// These are exactly the conservation totals the in-process oracle
/// ([`crate::trace::run_traced`]) reports, so a byte-equal comparison
/// against a direct run is the service's end-to-end correctness check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceTotals {
    /// Ranks used.
    pub k: u64,
    /// Steps executed.
    pub steps: u64,
    /// Total executed halo traffic.
    pub halo: u64,
    /// Total executed element shipments.
    pub shipments: u64,
    /// Total nodes migrated by repartitioning.
    pub migrated: u64,
    /// Total contact pairs detected.
    pub contact_pairs: u64,
    /// Repartitions performed.
    pub repartitions: u64,
    /// Ranks lost to faults (each recovered over the survivors).
    pub rank_losses: u64,
}

impl TraceTotals {
    /// Extracts the deterministic totals from a finished report.
    pub fn from_report(report: &TraceReport) -> Self {
        Self {
            k: report.k as u64,
            steps: report.steps as u64,
            halo: report.halo,
            shipments: report.shipments,
            migrated: report.migrated,
            contact_pairs: report.contact_pairs,
            repartitions: report.repartitions as u64,
            rank_losses: report.rank_losses as u64,
        }
    }

    /// Canonical byte encoding (what the cache stores and replays).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut w = ByteWriter::new(&mut out);
        w.u8(TOTALS_VERSION);
        for v in [
            self.k,
            self.steps,
            self.halo,
            self.shipments,
            self.migrated,
            self.contact_pairs,
            self.repartitions,
            self.rank_losses,
        ] {
            w.u64(v);
        }
        out
    }

    /// Decodes a totals payload.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = ByteReader::new(payload);
        if r.u8()? != TOTALS_VERSION {
            return Err(WireError::Malformed { what: "unsupported totals version" });
        }
        let t = Self {
            k: r.u64()?,
            steps: r.u64()?,
            halo: r.u64()?,
            shipments: r.u64()?,
            migrated: r.u64()?,
            contact_pairs: r.u64()?,
            repartitions: r.u64()?,
            rank_losses: r.u64()?,
        };
        r.finish()?;
        Ok(t)
    }

    /// The totals as one stable JSON object (keys in fixed order) —
    /// what the CI smoke diff compares against the in-process oracle.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"k\":{},\"steps\":{},\"halo\":{},\"shipments\":{},",
                "\"migrated\":{},\"contact_pairs\":{},\"repartitions\":{},",
                "\"rank_losses\":{}}}"
            ),
            self.k,
            self.steps,
            self.halo,
            self.shipments,
            self.migrated,
            self.contact_pairs,
            self.repartitions,
            self.rank_losses
        )
    }
}

/// Per-worker scratch: one [`SessionWorkspace`] reused across jobs.
#[derive(Default)]
pub struct ServiceWorkspace {
    session: SessionWorkspace,
}

/// [`JobRunner`] that executes [`JobRequest`]s as traced sessions.
#[derive(Debug, Default, Clone, Copy)]
pub struct TraceJobRunner;

fn classify(e: TraceError) -> JobError {
    match e {
        TraceError::UnknownScenario { .. } | TraceError::Config(_) | TraceError::Wire(_) => {
            JobError::Invalid { reason: e.to_string() }
        }
        other => JobError::Failed { reason: other.to_string() },
    }
}

impl JobRunner for TraceJobRunner {
    type Workspace = ServiceWorkspace;

    fn workspace(&self) -> ServiceWorkspace {
        ServiceWorkspace::default()
    }

    fn run(
        &self,
        payload: &[u8],
        ctx: &JobContext,
        ws: &mut ServiceWorkspace,
    ) -> Result<Vec<u8>, JobError> {
        let req =
            JobRequest::decode(payload).map_err(|e| JobError::Invalid { reason: e.to_string() })?;
        let mut session = Session::build_with(&req.opts, &mut ws.session).map_err(classify)?;
        // The server's per-job deadline becomes the session's time
        // budget, so an overrunning trace stops cooperatively at a
        // batch boundary — the watchdog only has to force the issue for
        // runners that ignore their budget.
        let ctrl = RunControl {
            cancel: ctx.cancel.clone(),
            budget: RunBudget { max_time: ctx.deadline, ..RunBudget::default() },
        };
        match session.advance(&ctrl).map_err(classify)? {
            crate::trace::Advance::Cancelled => return Err(JobError::Cancelled),
            crate::trace::Advance::BudgetExhausted => {
                let limit_ms = ctx.deadline.map_or(0, |d| d.as_millis() as u64);
                return Err(JobError::DeadlineExceeded { limit_ms });
            }
            crate::trace::Advance::Finished => {}
        }
        let report = session.into_report();
        report.verify_totals().map_err(classify)?;
        Ok(TraceTotals::from_report(&report).encode())
    }

    fn catalog(&self) -> Vec<CatalogEntry> {
        scenarios::list()
            .iter()
            .map(|d| CatalogEntry { name: d.name.to_string(), summary: d.summary.to_string() })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceOptions;

    fn sample_opts() -> TraceOptions {
        TraceOptions::builder()
            .scenario("head_on")
            .k(3)
            .snapshots(4)
            .seed(7)
            .repartition_period(Some(2))
            .build()
            .expect("valid options")
    }

    #[test]
    fn job_request_roundtrips_and_is_canonical() {
        let req = JobRequest::new(sample_opts());
        let bytes = req.encode();
        let back = JobRequest::decode(&bytes).expect("decodes");
        assert_eq!(back.opts.scenario, "head_on");
        assert_eq!(back.opts.k, 3);
        assert_eq!(back.opts.snapshots, Some(4));
        assert_eq!(back.opts.repartition_period, Some(2));
        assert_eq!(back.opts, sample_opts(), "every transmitted option survives");
        // Canonical: encoding the decoded request reproduces the bytes.
        assert_eq!(back.encode(), bytes);
        // And a different seed changes them.
        let mut other = sample_opts();
        other.seed = 8;
        assert_ne!(JobRequest::new(other).encode(), bytes);
    }

    #[test]
    fn chaos_options_roundtrip_through_the_payload() {
        let mut opts = sample_opts();
        opts.chaos = Some(ChaosOptions { kill: Some((3, 1)), ..ChaosOptions::default() });
        let bytes = JobRequest::new(opts.clone()).encode();
        let back = JobRequest::decode(&bytes).expect("decodes");
        assert_eq!(back.opts.chaos, opts.chaos);
    }

    #[test]
    fn totals_roundtrip_bit_exactly() {
        let t = TraceTotals {
            k: 3,
            steps: 12,
            halo: 999,
            shipments: 44,
            migrated: 17,
            contact_pairs: 5,
            repartitions: 2,
            rank_losses: 1,
        };
        let bytes = t.encode();
        assert_eq!(TraceTotals::decode(&bytes).expect("decodes"), t);
        let json = t.to_json();
        assert!(json.contains("\"halo\":999"), "{json}");
        assert!(json.contains("\"contact_pairs\":5"), "{json}");
    }

    #[test]
    fn malformed_payloads_are_rejected_not_fatal() {
        assert!(JobRequest::decode(&[]).is_err());
        assert!(JobRequest::decode(&[9, 0, 0]).is_err(), "unknown version");
        let mut bytes = JobRequest::new(sample_opts()).encode();
        bytes[0] = 1;
        assert!(JobRequest::decode(&bytes).is_err(), "version 1 (schedule/mode tags) is retired");
        bytes[0] = REQUEST_VERSION;
        bytes.push(0);
        assert!(JobRequest::decode(&bytes).is_err(), "trailing bytes");
        assert!(TraceTotals::decode(&[1, 2, 3]).is_err());
    }

    #[test]
    fn catalog_mirrors_the_scenario_registry() {
        let entries = TraceJobRunner.catalog();
        assert_eq!(entries.len(), scenarios::list().len());
        assert!(entries.iter().any(|e| e.name == "head_on"));
    }
}
