//! Transport suite (DESIGN.md §6e): the binary wire format and the
//! pluggable transport backends.
//!
//! Four families of guarantees:
//!
//! * **wire round-trips** (proptest) — every [`Msg`] variant survives
//!   encode → decode bit-exactly, including non-finite float payloads;
//! * **corruption** — truncation, any single bit flip, a bad version
//!   byte, and hostile length fields are all rejected with a typed
//!   [`WireError`], never a panic;
//! * **backend identity** — the loopback-TCP backend produces output
//!   bit-identical to the in-process backend, clean and under message
//!   chaos; traced runs over either execute the totals the serial
//!   reference predicts; and a transport that cannot come up surfaces as
//!   a typed [`RuntimeError::Transport`];
//! * **bounded mailboxes** — capacity-1 lanes do not deadlock at any
//!   lookahead and change nothing about the output.
//!
//! CI sweeps seeds without recompiling via the `CHAOS_SEED` env var.

mod common;

use cip::contact::serial_contact_pairs;
use cip::geom::{Aabb, Point};
use cip::runtime::{
    execute_steps, BatchError, ExecOptions, FaultInjector, FaultPlan, Msg, RuntimeError, StepOutput,
};
use cip::trace::{run_traced, ChaosOptions, TraceOptions, TransportKind};
use cip_transport::frame::{decode_frame, encode_frame};
use cip_transport::tcp::Tcp;
use cip_transport::{InProcess, Transport, WireError, HEADER_LEN, MAX_PAYLOAD, WIRE_VERSION};
use common::{env_seed, serial_reference, stage, totals, with_inputs, Staged};
use proptest::prelude::*;
use std::time::Duration;

// ---------------------------------------------------------------------
// Wire format: round-trips and corruption
// ---------------------------------------------------------------------

/// SplitMix64 — deterministic field filler for arbitrary messages.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An arbitrary message of the chosen variant. Floats come straight
/// from random bit patterns, so NaN and infinity payloads are covered.
fn arb_msg(variant: u8, seed: u64, n: usize) -> Msg {
    let mut s = seed;
    let pt = |s: &mut u64| {
        Point::from([f64::from_bits(mix(s)), f64::from_bits(mix(s)), f64::from_bits(mix(s))])
    };
    match variant {
        0 => Msg::Halo {
            from: mix(&mut s) as u32,
            step: mix(&mut s) as u32,
            seq: mix(&mut s),
            values: (0..n).map(|_| (mix(&mut s) as u32, pt(&mut s))).collect(),
        },
        1 => Msg::Element {
            from: mix(&mut s) as u32,
            step: mix(&mut s) as u32,
            seq: mix(&mut s),
            id: mix(&mut s) as u32,
            bbox: Aabb { min: pt(&mut s), max: pt(&mut s) },
            body: mix(&mut s) as u16,
        },
        2 => Msg::Done { from: mix(&mut s) as u32, step: mix(&mut s) as u32, sent: mix(&mut s) },
        3 => Msg::Resend {
            from: mix(&mut s) as u32,
            step: mix(&mut s) as u32,
            seqs: (0..n).map(|_| mix(&mut s)).collect(),
        },
        4 => Msg::Complete { from: mix(&mut s) as u32 },
        _ => Msg::Migrate {
            from: mix(&mut s) as u32,
            step: mix(&mut s) as u32,
            nodes: (0..n).map(|_| mix(&mut s) as u32).collect(),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every `Msg` variant round-trips through its frame bit-exactly.
    /// Equality is checked on the re-encoded bytes, which is injective
    /// and — unlike `PartialEq` on floats — also covers NaN payloads.
    #[test]
    fn every_msg_variant_round_trips_bit_exactly(
        variant in 0u8..6,
        seed in 0u64..u64::MAX,
        to in 0u32..64,
        n in 0usize..12,
    ) {
        let msg = arb_msg(variant, seed ^ env_seed(), n);
        let mut buf = Vec::new();
        encode_frame(&msg, to, &mut buf);
        let (back, to2, consumed) = match decode_frame::<Msg>(&buf) {
            Ok(t) => t,
            Err(e) => panic!("own frame failed to decode: {e:?}"),
        };
        prop_assert_eq!(consumed, buf.len(), "frame must consume itself exactly");
        prop_assert_eq!(to2, to);
        let mut buf2 = Vec::new();
        encode_frame(&back, to, &mut buf2);
        prop_assert_eq!(&buf, &buf2, "decoded message re-encodes to different bytes");
    }

    /// Every strict prefix of a frame is rejected as truncated — the
    /// decoder never reads past the buffer and never panics.
    #[test]
    fn truncated_frames_are_rejected(
        variant in 0u8..6,
        seed in 0u64..u64::MAX,
        n in 0usize..8,
    ) {
        let msg = arb_msg(variant, seed ^ env_seed(), n);
        let mut buf = Vec::new();
        encode_frame(&msg, 3, &mut buf);
        for cut in 0..buf.len() {
            prop_assert!(
                decode_frame::<Msg>(&buf[..cut]).is_err(),
                "prefix of {cut}/{} bytes decoded", buf.len()
            );
        }
    }
}

#[test]
fn every_single_bit_flip_is_detected() {
    let msg = Msg::Halo {
        from: 1,
        step: 2,
        seq: 3,
        values: vec![(7, [1.0, -2.0, 3.5].into()), (9, [0.0, 4.0, -1.0].into())],
    };
    let mut buf = Vec::new();
    encode_frame(&msg, 2, &mut buf);
    for bit in 0..buf.len() * 8 {
        let mut c = buf.clone();
        c[bit / 8] ^= 1 << (bit % 8);
        assert!(
            decode_frame::<Msg>(&c).is_err(),
            "flipping bit {bit} of the frame went undetected"
        );
    }
}

/// Re-derives a frame's checksum after the header was tampered with, so
/// the targeted validation (not the CRC) is what rejects it.
fn re_crc(buf: &mut [u8]) {
    let crc = cip_transport::wire::crc32(&[&buf[..26], &buf[HEADER_LEN..]]);
    buf[26..30].copy_from_slice(&crc.to_le_bytes());
}

#[test]
fn unknown_wire_version_is_rejected_even_with_a_valid_checksum() {
    let mut buf = Vec::new();
    encode_frame(&Msg::Complete { from: 0 }, 1, &mut buf);
    buf[0] = WIRE_VERSION + 1;
    re_crc(&mut buf);
    match decode_frame::<Msg>(&buf) {
        Err(WireError::BadVersion { got }) => assert_eq!(got, WIRE_VERSION + 1),
        other => panic!("expected BadVersion, got {other:?}"),
    }
}

#[test]
fn hostile_payload_length_is_rejected_before_allocation() {
    let mut buf = Vec::new();
    encode_frame(&Msg::Complete { from: 0 }, 1, &mut buf);
    // Claim a payload just past the sanity ceiling; the declared bytes
    // are not even present, but the length check must fire first.
    buf[22..26].copy_from_slice(&((MAX_PAYLOAD as u32) + 1).to_le_bytes());
    re_crc(&mut buf);
    match decode_frame::<Msg>(&buf) {
        Err(WireError::Oversized { len }) => assert_eq!(len, MAX_PAYLOAD + 1),
        other => panic!("expected Oversized, got {other:?}"),
    }
}

#[test]
fn unknown_message_tag_is_rejected() {
    let mut buf = Vec::new();
    encode_frame(&Msg::Complete { from: 0 }, 1, &mut buf);
    buf[1] = 0xEE;
    re_crc(&mut buf);
    match decode_frame::<Msg>(&buf) {
        Err(WireError::BadTag { got }) => assert_eq!(got, 0xEE),
        other => panic!("expected BadTag, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Executor-level fixture (staging shared with the chaos suite)
// ---------------------------------------------------------------------

/// One clean-or-chaotic batch over `transport`.
fn run_over<T: Transport>(
    staged: &[Staged],
    faults: &[FaultInjector],
    opts: &ExecOptions,
    transport: &T,
) -> Result<Vec<StepOutput>, BatchError> {
    with_inputs(staged, 0.4, |inputs| execute_steps(inputs, faults, opts, None, transport))
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
        drop_permille: 150,
        dup_permille: 80,
        delay_permille: 80,
        reorder_permille: 80,
        ..FaultPlan::quiet(29 ^ env_seed())
    };
    let faults: Vec<FaultInjector> =
        (0..staged.len()).map(|_| FaultInjector::with_plan(plan.clone())).collect();
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
        assert_eq!(
            tight, baseline,
            "a full lane must block the sender, not deadlock or change the output"
        );
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

#[test]
fn traced_tcp_threads_chaos_matches_the_clean_in_process_run() {
    let clean = run_traced(&tiny_trace(TransportKind::InProcess, None)).expect("in-process run");
    let chaos = ChaosOptions {
        seed: 41 ^ env_seed(),
        drop_permille: 120,
        dup_permille: 60,
        delay_permille: 60,
        reorder_permille: 60,
        kill: None,
        timeout_ms: 300,
        retries: 2,
    };
    let noisy = run_traced(&tiny_trace(
        TransportKind::TcpThreads { bind: "127.0.0.1:0".into() },
        Some(chaos),
    ))
    .expect("chaotic tcp-threads run");
    assert_eq!(noisy.rank_losses, 0);
    assert_eq!(noisy.contact_pairs, clean.contact_pairs);
    assert_eq!(noisy.halo, clean.halo);
    assert_eq!(noisy.shipments, clean.shipments);
    noisy.verify_totals().expect("counters equal executed traffic");
}
