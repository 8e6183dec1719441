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
//! [`cip_runtime::CancelToken`] checked at every batch boundary; the
//! server alone owns the job's deadline and trips that token when it
//! passes) → totals. Jobs share only immutable memo entries: the
//! simulation of each (scenario, snapshots) pair, kept in the server's
//! memo ([`cip_server::Memo`]) together with the mesh topology it
//! caches. Every session allocates its own partitioner scratch.

use crate::trace::{
    Advance, ChaosOptions, RunControl, Session, TraceError, TraceOptions, TraceReport,
};
use cip_server::{CatalogEntry, JobContext, JobError, JobRunner};
use cip_sim::{scenarios, SimResult};
use cip_transport::wire::{decode_versioned, encode_versioned};
use cip_transport::{codec_struct, WireError};

/// Payload format version; bump on any encoding change. Version 1
/// carried a schedule tag and a repartition-mode tag; both knobs are
/// gone, and a version-1 payload is rejected.
const REQUEST_VERSION: u8 = 2;
/// Result format version.
const TOTALS_VERSION: u8 = 1;

codec_struct!(ChaosOptions { seed, rates, kill, timeout_ms, retries });

// The transport does not travel: the service pins it to in-process ranks.
codec_struct!(TraceOptions {
    scenario,
    k,
    snapshots,
    seed,
    repartition_period,
    chaos,
    lookahead,
    max_batch;
    ..TraceOptions::default()
});

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
        encode_versioned(REQUEST_VERSION, &self.opts)
    }

    /// Decodes a request; rejects unknown versions and malformed bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        decode_versioned(REQUEST_VERSION, payload).map(Self::new)
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

codec_struct!(TraceTotals {
    k,
    steps,
    halo,
    shipments,
    migrated,
    contact_pairs,
    repartitions,
    rank_losses
});
cip_telemetry::json_struct!(TraceTotals {
    k,
    steps,
    halo,
    shipments,
    migrated,
    contact_pairs,
    repartitions,
    rank_losses
});

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
        encode_versioned(TOTALS_VERSION, self)
    }

    /// Decodes a totals payload.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        decode_versioned(TOTALS_VERSION, payload)
    }

    /// The totals as one stable JSON object (keys in fixed order) —
    /// what the CI smoke diff compares against the in-process oracle.
    pub fn to_json(&self) -> String {
        cip_telemetry::json::ToJson::to_json(self)
    }
}

/// [`JobRunner`] that executes [`JobRequest`]s as traced sessions.
#[derive(Debug, Default, Clone, Copy)]
pub struct TraceJobRunner;

fn classify(e: TraceError) -> JobError {
    match e {
        TraceError::UnknownScenario { .. } | TraceError::Config(_) => {
            JobError::Invalid { reason: e.to_string() }
        }
        other => JobError::Failed { reason: other.to_string() },
    }
}

impl JobRunner for TraceJobRunner {
    fn run(&self, payload: &[u8], ctx: &JobContext) -> Result<Vec<u8>, JobError> {
        let req =
            JobRequest::decode(payload).map_err(|e| JobError::Invalid { reason: e.to_string() })?;
        // One simulation per (scenario, snapshots) per server: a job
        // reuses the run, and the topology built inside it, of any
        // completed job before it.
        let mut session = Session::build_with(&req.opts, |spec| {
            ctx.memo.get_or_compute::<SimResult>(&spec.key, || {
                let sim = spec.run();
                let bytes = sim.heap_bytes();
                (sim, bytes)
            })
        })
        .map_err(classify)?;
        // The session polls the job's token at every batch boundary; the
        // server trips it on an overrun deadline or a drain, and turns
        // the outcome of an overrun job into a deadline failure.
        let ctrl = RunControl { cancel: ctx.cancel.clone(), ..RunControl::default() };
        if session.advance(&ctrl).map_err(classify)? == Advance::Cancelled {
            return Err(JobError::Cancelled);
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

    #[test]
    fn catalog_mirrors_the_scenario_registry() {
        let entries = TraceJobRunner.catalog();
        assert_eq!(entries.len(), scenarios::list().len());
        assert!(entries.iter().any(|e| e.name == "head_on"));
    }
}
