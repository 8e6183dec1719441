//! `trace_inproc` / `trace_tcp`: the executed `cip-trace` path on one set
//! of inputs, once per transport.

use super::{mcml_dt, probe_layers, CONTACT_EDGE_WEIGHT};
use crate::harness::Ctx;
use crate::rng::fork;
use crate::stats::median;
use cip::service::TraceTotals;
use cip::trace::{
    Advance, RunBudget, RunControl, Session, TraceError, TraceOptions, TraceReport, TransportKind,
};
use cip_core::SnapshotView;

/// Ranks.
const K: usize = 4;

/// Partitioner seed of every measured session: `TraceOptions::default()`'s.
/// A run holds one k=4 decomposition, and at k=4 its quality swings with
/// the seed (NRemote: 25 % between quartiles over ten seeds), so the
/// decomposition is part of the workload like the scenario and `k`;
/// `--seed` reseeds only the warm-up.
const DECOMPOSITION_SEED: u64 = 1;

/// Steps per `advance` slice; the first slice is reported on its own
/// because it carries the first tree induction and thread/socket spin-up.
const SLICE_STEPS: usize = 8;

fn tcp() -> TransportKind {
    TransportKind::TcpThreads { bind: "127.0.0.1:0".to_string() }
}

fn scenario(ctx: &Ctx) -> &'static str {
    if ctx.smoke {
        "tiny"
    } else {
        "head_on"
    }
}

fn options(
    ctx: &Ctx,
    transport: TransportKind,
    seed: u64,
    snapshots: Option<usize>,
) -> TraceOptions {
    let period = if ctx.smoke { 4 } else { 10 };
    let mut b = TraceOptions::builder()
        .scenario(scenario(ctx))
        .k(K)
        .seed(seed)
        .repartition_period(Some(period))
        .transport(transport);
    if let Some(n) = snapshots {
        b = b.snapshots(n);
    }
    b.build().expect("the harness only builds valid trace options")
}

/// One rep: build a session and advance it to `Finished` in slices.
/// `per_step` names the metric the steady slices feed; only a `primary`
/// rep (the measured transport) feeds the build and first-batch metrics.
fn run_rep(
    ctx: &mut Ctx,
    opts: &TraceOptions,
    per_step: &str,
    primary: bool,
) -> Result<TraceReport, TraceError> {
    let slice = RunControl { budget: RunBudget::steps(SLICE_STEPS), ..RunControl::default() };
    let (session, build_ms) = ctx.tracer.span("trace.build", || Session::build(opts));
    let mut session = session?;
    let (state, first_ms) = ctx.tracer.span("trace.first_batch", || session.advance(&slice));
    let mut state = state?;
    let first_steps = session.executed();
    let (rest, ms) = ctx.tracer.span("trace.advance", || {
        while state != Advance::Finished {
            state = session.advance(&slice)?;
        }
        Ok::<(), TraceError>(())
    });
    rest?;
    if primary {
        ctx.sample("trace.build_ms", build_ms);
        ctx.sample("trace.first_batch_ms", first_ms);
    }
    let steady_steps = session.executed() - first_steps;
    if steady_steps > 0 {
        ctx.sample(per_step, ms / steady_steps as f64);
    }
    Ok(session.into_report())
}

/// Checks one finished rep and returns its totals in wire form.
fn judge_rep(ctx: &mut Ctx, what: &str, rep: Result<TraceReport, TraceError>) -> Option<Vec<u8>> {
    let report = match rep {
        Ok(report) => report,
        Err(e) => {
            ctx.checks.check(false, || format!("{what} rep failed: {e}"));
            return None;
        }
    };
    let verified = report.verify_totals();
    ctx.checks.check(verified.is_ok(), || format!("{what}: {verified:?}"));
    let expected = if ctx.smoke { 10 } else { 100 };
    ctx.checks.check(report.steps == expected, || {
        format!("{what}: executed {} steps, expected {expected}", report.steps)
    });
    let steps = report.steps.max(1) as f64;
    ctx.count("fe_comm", report.halo as f64 / steps);
    ctx.count("n_remote", report.shipments as f64 / steps);
    ctx.count("trace.halo_units", report.halo as f64);
    ctx.count("trace.shipment_units", report.shipments as f64);
    ctx.count("trace.migrated_units", report.migrated as f64);
    ctx.count("trace.repartitions", report.repartitions as f64);
    Some(TraceTotals::from_report(&report).encode())
}

/// Traced cycles, once: the layers under a session, measured on the same
/// scenario from outside (the session itself is opaque to the harness).
fn probe_session_layers(ctx: &mut Ctx) {
    if !ctx.counting() {
        return;
    }
    let cfg = cip_sim::scenarios::get(scenario(ctx)).expect("registry scenario").config();
    let pseed = DECOMPOSITION_SEED;
    let mut parts = None;
    ctx.probe(|ctx| {
        let sim = ctx.time("sim.run", || cip_sim::run(&cfg));
        let view0 =
            ctx.time("mesh.view_build", || SnapshotView::build(&sim, 0, CONTACT_EDGE_WEIGHT));
        let dec = mcml_dt(ctx, &view0, K, pseed);
        parts = Some((sim, view0, dec));
    });
    if let Some((sim, view0, dec)) = parts {
        probe_layers(ctx, &sim, &view0, &dec, K, pseed);
    }
}

fn run(ctx: &mut Ctx, measured: TransportKind, per_step: &'static str) {
    let over_tcp = measured != TransportKind::InProcess;
    let opts = options(ctx, measured.clone(), DECOMPOSITION_SEED, None);
    let warmup = options(ctx, measured, fork(ctx.seed, 0), Some(if ctx.smoke { 3 } else { 10 }));
    ctx.setup(|ctx| {
        // Warm-up operation: a short session on the measured transport.
        let (done, _) = ctx.tracer.span("setup.warmup", || {
            Session::build(&warmup).and_then(|mut s| s.advance(&RunControl::default()))
        });
        ctx.checks
            .check(matches!(done, Ok(Advance::Finished)), || format!("warm-up session: {done:?}"));
    });
    ctx.param("scenario", opts.scenario.as_str());
    ctx.param("k", K);
    ctx.param("slice_steps", SLICE_STEPS);

    // The in-process run is the oracle for the TCP one. Traced cycles
    // repeat it as the base of the wire tax; an untraced run pays for it
    // once, after the measured region.
    let in_process = options(ctx, TransportKind::InProcess, DECOMPOSITION_SEED, None);
    let oracle = |ctx: &mut Ctx| {
        ctx.aside(|ctx| run_rep(ctx, &in_process, "trace.advance_inproc_ms_per_step", false))
            .ok()
            .map(|r| TraceTotals::from_report(&r).encode())
    };
    let mut reference: Option<Vec<u8>> = None; // in-process totals, wire form
    let mut measured_totals = Vec::new();
    while ctx.next_cycle() {
        let rep = ctx.op_units(|ctx| {
            let rep = run_rep(ctx, &opts, per_step, true);
            let steps = rep.as_ref().map_or(1, |r| r.steps as u64);
            (rep, steps)
        });
        measured_totals.push(judge_rep(ctx, "measured", rep));
        if over_tcp && ctx.tracer.enabled {
            reference = oracle(ctx).or(reference);
        }
        probe_session_layers(ctx);
    }
    if over_tcp && reference.is_none() {
        reference = oracle(ctx);
    } else if !over_tcp {
        reference = measured_totals[0].clone(); // every rep must repeat the first
    }
    ctx.checks.check(reference.is_some(), || "no in-process reference totals".to_string());
    for (i, totals) in measured_totals.iter().enumerate() {
        ctx.checks.check(totals.is_some() && *totals == reference, || {
            format!("rep {i}: totals differ from the in-process reference run")
        });
    }
    let base = median(ctx.samples_of("trace.advance_inproc_ms_per_step"));
    if over_tcp && base > 0.0 {
        // Base: the in-process ms/step of the same run.
        ctx.set("transport.wire_tax", median(ctx.samples_of(per_step)) / base);
    }
}

/// `trace_inproc`.
pub fn run_inproc(ctx: &mut Ctx) {
    run(ctx, TransportKind::InProcess, "trace.advance_inproc_ms_per_step");
}

/// `trace_tcp`.
pub fn run_tcp(ctx: &mut Ctx) {
    run(ctx, tcp(), "trace.advance_tcp_ms_per_step");
}
