//! Repartition-overlap suite against ground truth (DESIGN.md §6b).
//!
//! The driver plans each repartition boundary on a scoped thread beside
//! the first batch of its region that starts with no plan stored, keeps
//! the plan until the boundary, and splices the node migration into the
//! next batch as a `Migrate` prologue — and none of that may show in the
//! result. This suite proves it end to end through the
//! traced driver: every executed total — halo units, element shipments,
//! migrated nodes, contact pairs, repartition count — must equal what an
//! independent serial loop predicts (`common::serial_reference`) at 2,
//! 4, and 8 ranks, over every transport, under seeded message chaos (CI
//! sweeps seeds 7/21/1337 via `CHAOS_SEED`), and a rank dying while a
//! plan is being made beside the batch, or is stored, must drop that plan
//! and recompute it over the survivors. It also pins the
//! repartition-boundary guard regressions: period 1 and period ==
//! max_batch fire exactly once per boundary.

mod common;

use cip::trace::{run_traced, ChaosOptions, TraceOptions, TransportKind};
use common::{env_seed, message_chaos, serial_reference, totals};
use std::path::PathBuf;

/// A tiny run with two repartition boundaries (steps 3 and 6) that both
/// land mid-run, so each one is planned during the preceding batch and
/// splices a migration into the following one.
fn opts(k: usize) -> TraceOptions {
    TraceOptions {
        scenario: "tiny".into(),
        k,
        snapshots: Some(9),
        repartition_period: Some(3),
        ..TraceOptions::default()
    }
}

/// The multi-process transport, pointed at the workspace's own
/// `cip-worker` binary.
fn workers() -> TransportKind {
    TransportKind::Workers {
        bind: "127.0.0.1:0".into(),
        worker_bin: Some(PathBuf::from(env!("CARGO_BIN_EXE_cip-worker"))),
    }
}

#[test]
fn executed_totals_equal_the_serial_reference_across_rank_counts() {
    for k in [2usize, 4, 8] {
        let run = run_traced(&opts(k)).expect("traced run");
        assert_eq!(totals(&run), serial_reference(&opts(k)), "k={k}");
        assert_eq!(run.repartitions, 2, "k={k}: boundaries at 3 and 6");
        run.verify_totals().expect("counters equal executed traffic");
        // Every boundary charges its wait to the stall span, and the
        // stored plans are accounted.
        assert_eq!(run.summary().span("repartition.stall").map(|s| s.count), Some(2), "k={k}");
        assert!(run.recorder.counter_value("repartition.overlap.planned") >= 1, "k={k}");
        assert_eq!(run.recorder.counter_value("repartition.plan.discarded"), 0, "k={k}");
    }
}

#[test]
fn tcp_threads_transport_executes_the_reference_totals() {
    let tcp = run_traced(&TraceOptions {
        transport: TransportKind::TcpThreads { bind: "127.0.0.1:0".into() },
        ..opts(3)
    })
    .expect("tcp-threads run");
    assert_eq!(totals(&tcp), serial_reference(&opts(3)));
    tcp.verify_totals().expect("tcp counters equal executed traffic");
}

#[test]
fn multiprocess_transport_executes_the_reference_totals_at_any_depth() {
    let expected = serial_reference(&opts(3));
    let default = TraceOptions::default();
    for (lookahead, max_batch) in [(1usize, 1usize), (default.lookahead, default.max_batch), (4, 2)]
    {
        let multi =
            run_traced(&TraceOptions { lookahead, max_batch, transport: workers(), ..opts(3) })
                .expect("worker-pool run");
        assert_eq!(totals(&multi), expected, "lookahead={lookahead} max_batch={max_batch}");
        multi.verify_totals().expect("worker counters equal executed traffic");
    }
}

#[test]
fn message_chaos_repairs_to_the_clean_totals() {
    let expected = serial_reference(&opts(2));
    for seed in [7u64, 21, 1337] {
        let noisy = TraceOptions { chaos: Some(message_chaos(seed)), ..opts(2) };
        let stepwise = run_traced(&TraceOptions { lookahead: 1, max_batch: 1, ..noisy.clone() })
            .expect("stepwise chaos run");
        let batched = run_traced(&noisy).expect("batched chaos run");
        assert_eq!(totals(&stepwise), expected, "seed={seed}");
        assert_eq!(totals(&batched), expected, "seed={seed}");
        assert_eq!(batched.rank_losses, 0, "seed={seed}: faults repaired in place");
        batched.verify_totals().expect("counters stay exact under chaos");
    }
}

#[test]
fn kill_in_the_planning_window_discards_the_plan_and_recovers() {
    // First case: step 4 sits inside batch [3, 6) — exactly while the
    // planner beside it is computing boundary 6. Second case: the
    // boundary-6 plan is made beside batch [0, 2) and stored, and the kill
    // at step 3 lands in batch [2, 4). Either way the plan was computed
    // over the old rank space: the recovery must drop it and the boundary
    // must be recomputed over the survivors, landing on the totals of the
    // one-step-at-a-time run.
    let kill = |step| ChaosOptions {
        seed: 13 ^ env_seed(),
        kill: Some((step, 1)),
        timeout_ms: 300,
        retries: 2,
        ..ChaosOptions::default()
    };
    let beside = TraceOptions { chaos: Some(kill(4)), ..opts(3) };
    let stored =
        TraceOptions { chaos: Some(kill(3)), repartition_period: Some(6), max_batch: 2, ..opts(3) };
    // Boundaries 3 and 6 plus the recovery; boundary 6 plus the recovery.
    for (killed, repartitions) in [(beside, 3), (stored, 2)] {
        let case = format!("period {:?}", killed.repartition_period);
        let stepwise = run_traced(&TraceOptions { lookahead: 1, max_batch: 1, ..killed.clone() })
            .expect("stepwise kill run");
        let batched = run_traced(&killed).expect("batched kill run");
        assert_eq!(totals(&batched), totals(&stepwise), "{case}");
        assert_eq!(batched.rank_losses, 1, "{case}");
        assert_eq!(stepwise.rank_losses, 1, "{case}");
        assert!(batched.repartitions >= repartitions, "{case}");
        assert!(
            batched.recorder.counter_value("repartition.plan.discarded") >= 1,
            "{case}: the boundary-6 plan was computed over a dead rank"
        );
        assert_eq!(
            batched.contact_pairs,
            serial_reference(&opts(3)).4,
            "{case}: pairs equal the clean run"
        );
        batched.verify_totals().expect("counters stay exact across a recovery");
        stepwise.verify_totals().expect("counters stay exact across a recovery");
    }
}

#[test]
fn period_one_fires_every_boundary_exactly_once() {
    let o = TraceOptions { snapshots: Some(5), repartition_period: Some(1), ..opts(2) };
    let r = run_traced(&o).expect("period-1 run");
    assert_eq!(r.repartitions, 4, "boundaries at 1, 2, 3, 4");
    assert_eq!(totals(&r), serial_reference(&o));
    r.verify_totals().expect("counters stay exact at period 1");
}

#[test]
fn period_equal_to_max_batch_fires_once_per_boundary() {
    let o =
        TraceOptions { snapshots: Some(6), repartition_period: Some(2), max_batch: 2, ..opts(2) };
    let r = run_traced(&o).expect("period == max_batch run");
    assert_eq!(r.repartitions, 2, "boundaries at 2 and 4");
    assert_eq!(totals(&r), serial_reference(&o));
    r.verify_totals().expect("counters stay exact at period == max_batch");
}

#[test]
fn max_batch_depth_does_not_change_the_answer() {
    let expected = serial_reference(&opts(3));
    for max_batch in [1usize, 2, 8] {
        let r = run_traced(&TraceOptions { max_batch, ..opts(3) }).expect("max_batch run");
        assert_eq!(totals(&r), expected, "max_batch={max_batch}");
    }
    // max_batch 0 is a typed configuration error, not a clamp or panic.
    let err = run_traced(&TraceOptions { max_batch: 0, ..opts(3) });
    assert!(
        matches!(err, Err(cip::trace::TraceError::Config(ref c)) if c.field == "max_batch"),
        "got {err:?}"
    );
}
