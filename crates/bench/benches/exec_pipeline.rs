//! Batch execution under a deliberately skewed per-rank load (rank 0
//! owns half the chain): wall-clock for an 8-step batch at lookahead 1
//! and 2, plus an idle report printed before the criterion groups.
//!
//! A wider lookahead does not do less work — the traffic is the same at
//! any lookahead — it waits less: a light rank's step `s+1` halo sends
//! overlap the straggler's step `s`. `exec.idle` (total nanoseconds rank
//! threads spend blocked on their inbox) is the direct measurement; on a
//! single-CPU runner the wall-clock gap narrows but the idle gap
//! survives. End-to-end numbers live in the `cip-ladder` benchmark
//! (`trace_inproc`, `trace_tcp`).

use cip::trace::{run_traced, TraceOptions};
use cip_bench::pipeline_load::{batch_inputs, skewed_chain};
use cip_runtime::{connect_ranks, execute_steps, ExecOptions};
use cip_telemetry::Recorder;
use cip_transport::InProcess;
use criterion::{criterion_group, BenchmarkId, Criterion};
use std::hint::black_box;

const N_NODES: usize = 512;
const N_STEPS: usize = 8;
const SKEW: f64 = 0.5;
const LOOKAHEADS: [usize; 2] = [1, 2];

fn opts(lookahead: usize) -> ExecOptions {
    ExecOptions { lookahead, ..ExecOptions::default() }
}

/// One instrumented run per lookahead: prints total `exec.idle` time and
/// the high-water `exec.overlap.steps_in_flight` gauge.
fn idle_report() {
    for &k in &[2usize, 4, 8] {
        let sc = skewed_chain(N_NODES, k, N_STEPS, SKEW);
        for lookahead in LOOKAHEADS {
            let rec = Recorder::enabled();
            let steps = batch_inputs(&sc, &rec);
            let opts = opts(lookahead);
            let mut seats = connect_ranks(&InProcess, k, &opts, &rec).expect("in-process mesh");
            execute_steps(&steps, &[], &opts, None, &mut seats, 0).expect("batch executes");
            let summary = rec.summary().expect("recorder is enabled");
            let idle_ms = summary.span("exec.idle").map_or(0.0, |s| s.total_ns as f64 / 1e6);
            let in_flight = summary.histogram("exec.overlap.steps_in_flight").map_or(0, |h| h.max);
            eprintln!(
                "idle report: k={k} lookahead={lookahead} exec.idle {idle_ms:8.2} ms  \
                 max steps in flight {in_flight}"
            );
        }
    }
}

/// One instrumented traced run: prints the boundary stall time and the
/// planning time hidden behind batches (DESIGN.md §6b).
fn repart_report() {
    let report = run_traced(&repart_opts()).expect("traced repartition run");
    let summary = report.summary();
    let stall_ms = summary.span("repartition.stall").map_or(0.0, |s| s.total_ns as f64 / 1e6);
    let hidden_ms = report.recorder.counter_value("repartition.overlap.hidden_ms") as f64;
    eprintln!(
        "repart report: repartition.stall {stall_ms:8.2} ms  hidden {hidden_ms:8.2} ms  \
         ({} repartitions)",
        report.repartitions
    );
}

/// The traced-driver config of the repartition row: big enough that a
/// boundary plan costs whole milliseconds, with two mid-run boundaries
/// for the background planner to hide.
fn repart_opts() -> TraceOptions {
    TraceOptions {
        scenario: "head_on".into(),
        k: 4,
        snapshots: Some(12),
        repartition_period: Some(4),
        ..TraceOptions::default()
    }
}

fn bench_exec_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("exec_pipeline");
    group.sample_size(10);
    for &k in &[2usize, 4, 8] {
        let sc = skewed_chain(N_NODES, k, N_STEPS, SKEW);
        let rec = Recorder::disabled();
        let steps = batch_inputs(&sc, &rec);
        for lookahead in LOOKAHEADS {
            let opts = opts(lookahead);
            let mut seats = connect_ranks(&InProcess, k, &opts, &rec).expect("in-process mesh");
            let mut epoch = 0;
            group.bench_with_input(
                BenchmarkId::new(format!("lookahead_{lookahead}"), k),
                &k,
                |b, _| {
                    b.iter(|| {
                        epoch += N_STEPS as u32;
                        black_box(execute_steps(&steps, &[], &opts, None, &mut seats, epoch))
                            .expect("batch executes")
                    });
                },
            );
        }
    }
    group.finish();
}

/// Repartitioning through the full traced driver: where the planning
/// time goes (a boundary stall vs hidden behind the preceding batch) is
/// in `repart_report`; this row is the wall-clock.
fn bench_repart(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_repart");
    group.sample_size(10);
    let topts = repart_opts();
    group.bench_function(BenchmarkId::new("background_plan", 4), |b| {
        b.iter(|| black_box(run_traced(&topts).expect("traced repartition run")));
    });
    group.finish();
}

criterion_group!(benches, bench_exec_pipeline, bench_repart);

fn main() {
    idle_report();
    repart_report();
    benches();
}
