//! Multi-process smoke suite (DESIGN.md §6c): real `cip-worker` OS
//! processes over loopback TCP, driven by the traced pipeline and
//! diffed against the in-process oracle.
//!
//! Three guarantees:
//!
//! * **bit-identity** — k worker processes produce `TrafficLog` totals
//!   (halo, shipments, pairs, migration) identical to the in-process
//!   run, across repartitions;
//! * **chaos** — message faults injected inside the workers converge to
//!   the clean answer, exactly as they do in-process;
//! * **death** — a fault-plan kill becomes a real process exit, and the
//!   driver recovers over the surviving workers while still detecting
//!   every contact pair.
//!
//! The abrupt-death (`kill -9`-style, no outcome report) variant lives
//! in `multiprocess_kill.rs` — it needs its own process because it sets
//! a process-wide environment variable.

mod common;

use cip::runtime::FaultRates;
use cip::trace::{run_traced, ChaosOptions, TraceOptions, TraceReport, TransportKind};
use common::{env_seed, serial_reference, totals};
use std::path::PathBuf;

/// The worker-process transport, pointing at the binary Cargo built for
/// this test run (the `CIP_WORKER_BIN` / sibling lookup is for
/// installed use).
fn workers() -> TransportKind {
    TransportKind::Workers {
        bind: "127.0.0.1:0".into(),
        worker_bin: Some(PathBuf::from(env!("CARGO_BIN_EXE_cip-worker"))),
    }
}

fn tiny(k: usize, period: Option<usize>, transport: TransportKind) -> TraceOptions {
    TraceOptions {
        scenario: "tiny".into(),
        k,
        snapshots: Some(6),
        repartition_period: period,
        chaos: None,
        transport,
        ..TraceOptions::default()
    }
}

#[test]
fn four_worker_processes_match_the_in_process_oracle() {
    let clean = run_traced(&tiny(4, Some(2), TransportKind::InProcess)).expect("in-process run");
    let multi = run_traced(&tiny(4, Some(2), workers())).expect("worker-process run");
    assert_eq!(totals(&multi), serial_reference(&tiny(4, Some(2), TransportKind::InProcess)));
    assert_eq!(multi.steps, clean.steps);
    assert_eq!(multi.halo, clean.halo, "halo totals must be bit-identical");
    assert_eq!(multi.shipments, clean.shipments, "shipment totals must be bit-identical");
    assert_eq!(multi.contact_pairs, clean.contact_pairs, "pair counts must be bit-identical");
    assert_eq!(multi.migrated, clean.migrated, "migration totals must be bit-identical");
    assert_eq!(multi.repartitions, clean.repartitions);
    assert!(multi.repartitions >= 2, "the scenario must exercise repartitioning");
    multi.verify_totals().expect("counters equal executed traffic");
    // A worker counts a frame before its send returns, so the stats in its
    // last `Done` already hold the final batch's tail: the folded deltas
    // add up to exactly what rank threads over loopback sockets meter.
    let threads =
        run_traced(&tiny(4, Some(2), TransportKind::TcpThreads { bind: "127.0.0.1:0".into() }))
            .expect("tcp-threads run");
    let bytes = |r: &TraceReport, name: &str| r.recorder.counter_value(name);
    let sent = bytes(&multi, "transport.bytes_sent");
    assert!(sent > 0, "worker byte deltas must be folded into the driver's telemetry");
    assert_eq!(sent, bytes(&multi, "transport.bytes_recv"), "every sent frame is received");
    assert_eq!(sent, bytes(&threads, "transport.bytes_sent"), "workers meter what threads do");
    assert_eq!(sent, bytes(&threads, "transport.bytes_recv"));
}

#[test]
fn worker_processes_match_the_clean_run_under_message_chaos() {
    let clean = run_traced(&tiny(3, Some(2), TransportKind::InProcess)).expect("in-process run");
    let mut opts = tiny(3, Some(2), workers());
    opts.chaos = Some(ChaosOptions {
        seed: 47 ^ env_seed(),
        rates: FaultRates {
            drop_permille: 120,
            dup_permille: 60,
            delay_permille: 60,
            reorder_permille: 60,
        },
        kill: None,
        timeout_ms: 300,
        retries: 2,
    });
    let noisy = run_traced(&opts).expect("chaotic worker-process run");
    assert_eq!(noisy.rank_losses, 0);
    assert_eq!(noisy.contact_pairs, clean.contact_pairs);
    assert_eq!(noisy.halo, clean.halo);
    assert_eq!(noisy.shipments, clean.shipments);
    noisy.verify_totals().expect("counters equal executed traffic");
}

#[test]
fn fault_plan_kill_becomes_a_real_process_death_and_the_driver_recovers() {
    let clean = run_traced(&tiny(3, Some(10), TransportKind::InProcess)).expect("in-process run");
    let mut opts = tiny(3, Some(10), workers());
    opts.chaos = Some(ChaosOptions {
        seed: 13 ^ env_seed(),
        rates: FaultRates::default(),
        kill: Some((1, 1)),
        timeout_ms: 300,
        retries: 2,
    });
    let report = run_traced(&opts).expect("kill run recovers");
    assert_eq!(report.rank_losses, 1, "exactly the killed rank is lost");
    assert!(report.repartitions >= 1, "recovery repartitions over the survivors");
    assert_eq!(report.contact_pairs, clean.contact_pairs, "recovery must still detect every pair");
    report.verify_totals().expect("counters equal executed traffic");
}
