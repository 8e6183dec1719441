//! Background repartition planning (DESIGN.md §6b).
//!
//! The driver computes the diffusion repartition and
//! [`crate::MigrationPlan`] for the *next* boundary on a planner thread
//! while the executor is still running the batches before it against the
//! old decomposition. [`Replanner`] owns that
//! thread's lifecycle: one plan in flight at a time, keyed by the
//! boundary step it targets and a driver-maintained **version** that is
//! bumped whenever the rank space changes (a `RankLost` recovery). A
//! take with a mismatched key discards the stale plan instead of
//! applying a repartition computed over dead ranks.
//!
//! The planner is generic over the plan payload `P` because this crate
//! sits below the driver in the dependency order: the closure that
//! actually calls the partitioner lives in `cip::trace`, and the
//! runtime only schedules it.
//!
//! Telemetry contract (read by `summary.json` consumers):
//!
//! * `repartition.stall` span — the wall time the driver was actually
//!   blocked waiting for a plan at a boundary (the driver wraps its
//!   synchronous fallback plan in the same span, so a planner miss shows
//!   up as a long stall);
//! * `repartition.overlap.hidden_ms` counter — planning time that
//!   overlapped batch execution: `compute - stall`, clamped at zero;
//! * `repartition.overlap.planned` / `repartition.plan.discarded`
//!   counters — accepted vs invalidated background plans.

use cip_telemetry::Recorder;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One in-flight background plan.
struct Pending<P> {
    /// Boundary step the plan targets (it may only be applied there).
    boundary: usize,
    /// Rank-space version the plan was computed under.
    version: u64,
    /// The planner thread; returns the plan and its compute time.
    handle: JoinHandle<(P, Duration)>,
}

/// Owns at most one background planning thread. See the module docs.
pub struct Replanner<P: Send + 'static> {
    pending: Option<Pending<P>>,
}

impl<P: Send + 'static> Default for Replanner<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Send + 'static> Replanner<P> {
    /// A planner with nothing in flight.
    pub fn new() -> Self {
        Self { pending: None }
    }

    /// Whether a background plan is currently in flight.
    pub fn has_pending(&self) -> bool {
        self.pending.is_some()
    }

    /// Starts planning for `boundary` under rank-space `version` on a
    /// background thread. Any previously pending plan is discarded
    /// first (there is one boundary ahead at most, so an older plan can
    /// never be applied again).
    pub fn submit<F>(&mut self, boundary: usize, version: u64, rec: &Recorder, job: F)
    where
        F: FnOnce() -> P + Send + 'static,
    {
        self.discard(rec);
        let handle = std::thread::spawn(move || {
            let t0 = Instant::now();
            let plan = job();
            (plan, t0.elapsed())
        });
        self.pending = Some(Pending { boundary, version, handle });
    }

    /// Claims the pending plan at a boundary. Returns `None` — and the
    /// caller must plan synchronously — when nothing is in flight, when
    /// the pending plan targets a different boundary or rank-space
    /// version (it is discarded), or when the planner thread panicked.
    /// On success the join wait is charged to a `repartition.stall`
    /// span and the overlapped share of the compute time to the
    /// `repartition.overlap.hidden_ms` counter.
    pub fn take(&mut self, boundary: usize, version: u64, rec: &Recorder) -> Option<P> {
        let p = self.pending.take()?;
        if p.boundary != boundary || p.version != version {
            rec.add("repartition.plan.discarded", 1);
            let _ = p.handle.join();
            return None;
        }
        let mut span = rec.span("repartition.stall").attr("boundary", boundary as u64);
        let waited = Instant::now();
        match p.handle.join() {
            Ok((plan, compute)) => {
                let stall = waited.elapsed();
                let hidden = compute.saturating_sub(stall);
                span.set_attr("stall_us", stall.as_micros() as u64);
                span.set_attr("hidden_us", hidden.as_micros() as u64);
                rec.add("repartition.overlap.hidden_ms", hidden.as_millis() as u64);
                rec.add("repartition.overlap.planned", 1);
                Some(plan)
            }
            Err(_) => {
                // A panicked planner degrades to the synchronous path.
                rec.add("repartition.plan.discarded", 1);
                None
            }
        }
    }

    /// Drops any in-flight plan (joining its thread) without applying
    /// it. Used when the rank space changes mid-batch.
    pub fn discard(&mut self, rec: &Recorder) {
        if let Some(p) = self.pending.take() {
            rec.add("repartition.plan.discarded", 1);
            let _ = p.handle.join();
        }
    }
}

impl<P: Send + 'static> Drop for Replanner<P> {
    fn drop(&mut self) {
        if let Some(p) = self.pending.take() {
            let _ = p.handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submitted_plan_is_taken_at_its_boundary() {
        let rec = Recorder::enabled();
        let mut rp: Replanner<u32> = Replanner::new();
        assert!(!rp.has_pending());
        rp.submit(8, 0, &rec, || 42);
        assert!(rp.has_pending());
        assert_eq!(rp.take(8, 0, &rec), Some(42));
        assert!(!rp.has_pending());
        let summary = rec.summary().expect("enabled recorder");
        assert_eq!(summary.counter("repartition.overlap.planned"), Some(1));
        assert!(summary.span("repartition.stall").is_some(), "stall span must be charged");
    }

    #[test]
    fn boundary_or_version_mismatch_discards() {
        let rec = Recorder::enabled();
        let mut rp: Replanner<u32> = Replanner::new();
        rp.submit(8, 0, &rec, || 1);
        assert_eq!(rp.take(16, 0, &rec), None, "wrong boundary");
        rp.submit(8, 0, &rec, || 2);
        assert_eq!(rp.take(8, 1, &rec), None, "stale rank-space version");
        assert_eq!(rp.take(8, 1, &rec), None, "nothing left in flight");
        let summary = rec.summary().expect("enabled recorder");
        assert_eq!(summary.counter("repartition.plan.discarded"), Some(2));
        assert_eq!(summary.counter("repartition.overlap.planned"), None);
    }

    #[test]
    fn resubmit_discards_the_previous_plan() {
        let rec = Recorder::enabled();
        let mut rp: Replanner<u32> = Replanner::new();
        rp.submit(8, 0, &rec, || 1);
        rp.submit(8, 1, &rec, || 2);
        assert_eq!(rp.take(8, 1, &rec), Some(2));
        let summary = rec.summary().expect("enabled recorder");
        assert_eq!(summary.counter("repartition.plan.discarded"), Some(1));
    }

    #[test]
    fn panicked_planner_degrades_to_none() {
        let rec = Recorder::enabled();
        let mut rp: Replanner<u32> = Replanner::new();
        rp.submit(4, 0, &rec, || panic!("planner bug"));
        assert_eq!(rp.take(4, 0, &rec), None);
        let summary = rec.summary().expect("enabled recorder");
        assert_eq!(summary.counter("repartition.plan.discarded"), Some(1));
    }
}
