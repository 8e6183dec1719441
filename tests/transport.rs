//! Transport suite (DESIGN.md §6c): the pluggable transport backends.
//! (The wire format itself is held to its contract, every variant of
//! every message type, in `tests/wire_contract.rs`.)
//!
//! Two families of guarantees:
//!
//! * **backend identity** — the loopback-TCP backend produces output
//!   bit-identical to the in-process backend, clean and under message
//!   chaos; traced runs over either execute the totals the serial
//!   reference predicts; and a transport that cannot come up surfaces as
//!   a typed [`RuntimeError::Transport`];
//! * **bounded mailboxes** — capacity-1 lanes, in-process or over
//!   sockets, do not deadlock at any lookahead and change nothing about
//!   the output.
//!
//! CI sweeps seeds without recompiling via the `CHAOS_SEED` env var.

mod common;

use cip::contact::serial_contact_pairs;
use cip::runtime::{BatchError, ExecOptions, FaultPlan, FaultRates, RuntimeError, StepOutput};
use cip::trace::{run_traced, ChaosOptions, TraceOptions, TransportKind};
use cip_transport::tcp::Tcp;
use cip_transport::{InProcess, Transport};
use common::{env_seed, run_batch, serial_reference, stage, totals, Staged};
use std::time::Duration;

// ---------------------------------------------------------------------
// Executor-level fixture (staging shared with the chaos suite)
// ---------------------------------------------------------------------

/// One clean-or-chaotic batch over `transport`.
fn run_over<T: Transport>(
    staged: &[Staged],
    faults: &[Option<FaultPlan>],
    opts: &ExecOptions,
    transport: &T,
) -> Result<Vec<StepOutput>, BatchError> {
    run_batch(staged, 0.4, faults, opts, transport)
}

// ---------------------------------------------------------------------
// Backend identity and typed failures
// ---------------------------------------------------------------------

#[test]
fn loopback_tcp_matches_the_in_process_backend_bit_for_bit() {
    let staged = stage(4, &[3, 4, 5]);
    let opts = ExecOptions::default();
    let inproc = run_over(&staged, &[], &opts, &InProcess).expect("in-process batch executes");
    let tcp = run_over(&staged, &[], &opts, &Tcp::loopback()).expect("loopback-TCP batch executes");
    assert_eq!(inproc, tcp, "the TCP backend must be bit-identical to the in-process one");
    // And both are right: per step, the serial pairs and the plan's halo.
    for (s, out) in staged.iter().zip(&tcp) {
        assert_eq!(out.contact_pairs, serial_contact_pairs(&s.elements, &s.bodies, 0.4));
        assert_eq!(out.traffic.total_halo(), s.decomposition.total_halo_volume());
    }
}

#[test]
fn loopback_tcp_matches_in_process_under_message_chaos() {
    let staged = stage(3, &[4, 5]);
    let plan = FaultPlan {
        rates: FaultRates {
            drop_permille: 150,
            dup_permille: 80,
            delay_permille: 80,
            reorder_permille: 80,
        },
        ..FaultPlan::quiet(29 ^ env_seed())
    };
    let faults: Vec<Option<FaultPlan>> = (0..staged.len()).map(|_| Some(plan.clone())).collect();
    let opts =
        ExecOptions { timeout: Duration::from_millis(300), retries: 2, ..ExecOptions::default() };
    let inproc =
        run_over(&staged, &faults, &opts, &InProcess).expect("chaotic in-process batch converges");
    let tcp = run_over(&staged, &faults, &opts, &Tcp::loopback())
        .expect("chaotic loopback-TCP batch converges");
    assert_eq!(inproc, tcp, "fault injection is seeded above the transport, so outputs must agree");
    // Repaired traffic counts first transmissions only: the clean batch.
    let clean = run_over(&staged, &[], &opts, &InProcess).expect("clean batch executes");
    assert_eq!(tcp, clean);
}

#[test]
fn unbindable_transport_surfaces_as_a_typed_runtime_error() {
    let staged = stage(2, &[3]);
    // 192.0.2.0/24 is TEST-NET-1: never assigned to a local interface,
    // so binding fails immediately without touching the network.
    let bad = Tcp { bind: "192.0.2.1:9".into() };
    let err = run_over(&staged, &[], &ExecOptions::default(), &bad)
        .expect_err("binding a TEST-NET address must fail");
    assert_eq!(err.failed_step, 0);
    assert!(err.completed.is_empty());
    match err.error {
        RuntimeError::Transport(_) => {}
        other => panic!("expected RuntimeError::Transport, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Bounded mailboxes
// ---------------------------------------------------------------------

#[test]
fn capacity_one_mailboxes_complete_without_deadlock_at_any_lookahead() {
    let staged = stage(4, &[3, 4, 5]);
    let baseline = run_over(&staged, &[], &ExecOptions::default(), &InProcess)
        .expect("default-capacity batch executes");
    for lookahead in [1usize, 2, 4] {
        let opts = ExecOptions { mailbox_capacity: 1, lookahead, ..ExecOptions::default() };
        let tight = run_over(&staged, &[], &opts, &InProcess).expect("capacity-1 batch executes");
        let socket =
            run_over(&staged, &[], &opts, &Tcp::loopback()).expect("capacity-1 TCP batch executes");
        for out in [tight, socket] {
            assert_eq!(
                out, baseline,
                "a full lane must block the sender, not deadlock or change the output"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Traced runs over rank threads + loopback sockets
// ---------------------------------------------------------------------

fn tiny_trace(transport: TransportKind, chaos: Option<ChaosOptions>) -> TraceOptions {
    TraceOptions {
        scenario: "tiny".into(),
        k: 3,
        snapshots: Some(5),
        repartition_period: Some(2),
        chaos,
        transport,
        ..TraceOptions::default()
    }
}

#[test]
fn traced_tcp_threads_run_is_bit_identical_and_meters_bytes() {
    let clean = run_traced(&tiny_trace(TransportKind::InProcess, None)).expect("in-process run");
    let tcp =
        run_traced(&tiny_trace(TransportKind::TcpThreads { bind: "127.0.0.1:0".into() }, None))
            .expect("tcp-threads run");
    let expected = serial_reference(&tiny_trace(TransportKind::InProcess, None));
    assert_eq!(totals(&clean), expected);
    assert_eq!(totals(&tcp), expected);
    assert!(tcp.repartitions >= 1, "the scenario must exercise migration");
    tcp.verify_totals().expect("counters equal executed traffic");

    let sent = tcp.recorder.counter_value("transport.bytes_sent");
    let recv = tcp.recorder.counter_value("transport.bytes_recv");
    assert!(sent > 0, "a socket run must meter its bytes");
    assert_eq!(sent, recv, "every sent frame is received in a clean run");
    assert_eq!(clean.recorder.counter_value("transport.bytes_sent"), 0);
    assert!(
        tcp.summary().to_json().contains("transport.frame_bytes"),
        "the frame-size histogram must land in the summary"
    );
}

/// Three batches on one mesh, every step chaotic: repairs of batch *n*
/// answered late land in batch *n + 1*'s inbox, and the epoch fence is
/// what keeps the totals at the serial reference's.
#[test]
fn traced_chaos_on_a_reused_mesh_matches_the_serial_reference() {
    let expected = serial_reference(&tiny_trace(TransportKind::InProcess, None));
    let chaos = ChaosOptions {
        seed: 41 ^ env_seed(),
        rates: FaultRates {
            drop_permille: 120,
            dup_permille: 60,
            delay_permille: 60,
            reorder_permille: 60,
        },
        kill: None,
        timeout_ms: 300,
        retries: 2,
    };
    for transport in
        [TransportKind::InProcess, TransportKind::TcpThreads { bind: "127.0.0.1:0".into() }]
    {
        let noisy =
            run_traced(&tiny_trace(transport, Some(chaos.clone()))).expect("chaotic traced run");
        assert_eq!(noisy.rank_losses, 0);
        assert_eq!(totals(&noisy), expected);
        noisy.verify_totals().expect("counters equal executed traffic");
        assert_eq!(noisy.recorder.counter_value("transport.mesh.connects"), 1);
    }
}
