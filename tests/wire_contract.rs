//! The wire contract (DESIGN.md §6c): one sample per variant of every
//! message type that crosses a process boundary, held to
//! `common::wire_contract`, and pinned to **golden bytes** — the hex
//! below was dumped from the last hand-written encoders, so the derived
//! codecs reproduce every layout bit for bit (`WIRE_VERSION`,
//! `REQUEST_VERSION` and `TOTALS_VERSION` did not move), and a layout
//! edit that forgets a version bump fails here. The same goes for the
//! seeded fate streams: every chaos suite replays the faults it always
//! did.
//!
//! Two layouts have moved since that dump, both re-dumped from the
//! derived codec: `Msg` tag 2 carries a counted list of elements where it
//! carried one (see `a_v1_single_element_frame_is_refused_not_misread`
//! for why that needed no version bump), and the `RankResult`s inside
//! `Ctrl::Done` carry `ship_msgs` after `halo_msgs` — a control frame a
//! driver exchanges only with the `cip-worker` processes it spawned from
//! its own build. Every other sample's bytes are the original dump's,
//! except `JobMsg::Run` (tag 13), which is newer than the dump: its golden
//! is the derived codec's and repeats the retired tag 1's layout under its
//! own tag. The ten goldens of the retired `JobMsg` tags 1, 2 and 4–7 stay
//! as `RETIRED_JOBMSG`, and every one must now be refused. Likewise the
//! two `Ctrl::Done` goldens of the retired `RankBatchOutcome` tag 2 stay
//! as `RETIRED_CTRL`; their tag-3 successors drop the salvaged partial
//! and are otherwise the same bytes.

mod common;

use cip::runtime::{
    Fate, FaultPlan, FaultRates, KillSpec, Msg, RankBatchOutcome, RankResult, ShippedElement,
};
use cip::server::{CatalogEntry, JobMsg, JobOutcome, ServerStats};
use cip::service::{JobRequest, TraceTotals};
use cip::trace::{ChaosOptions, TraceOptions};
use cip::worker::{Ctrl, RunSpec};
use cip_transport::chaos::{ChaosFate, ChaosPlan};
use cip_transport::frame::{decode_frame, encode_frame};
use cip_transport::{splitmix64, TransportStats, Wire, WireError, HEADER_LEN};
use common::{decoder_contract, wire_contract};

/// A message and the payload offsets of its sequence counts.
type Sample<M> = (M, Vec<usize>);

fn msg_samples() -> Vec<Sample<Msg>> {
    let nan = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
    let values = vec![(7, [1.5, -0.0, f64::MIN_POSITIVE]), (8, [nan, 1e300, f64::NEG_INFINITY])];
    let one = ShippedElement { id: 40, bbox: [[0.0, 1.0, 2.0], [1.0, 2.0, f64::NAN]], body: 6 };
    let far = ShippedElement { id: u32::MAX, bbox: [[-0.0, nan, 1e300], [f64::MAX; 3]], body: 0 };
    vec![
        (Msg::Halo { from: 2, step: 5, seq: 9, values }, vec![0]),
        (Msg::Halo { from: 0, step: 0, seq: 0, values: Vec::new() }, vec![0]),
        (Msg::Elements { from: 1, step: 2, seq: 3, items: vec![one] }, vec![0]),
        (Msg::Elements { from: 0, step: 9, seq: 1, items: vec![one, far, one] }, vec![0]),
        (Msg::Elements { from: 2, step: 0, seq: 0, items: Vec::new() }, vec![0]),
        (Msg::Done { from: 3, step: 7, sent: u64::MAX }, vec![]),
        (Msg::Resend { from: 1, step: 4, seqs: vec![0, 5, 1 << 40] }, vec![0]),
        (Msg::Complete { from: 9, step: 0 }, vec![]),
        (Msg::Migrate { from: 2, step: 0, seq: 0, nodes: vec![1, 9, u32::MAX] }, vec![0]),
    ]
}

fn result(pairs: usize) -> RankResult {
    RankResult {
        pairs: vec![(1, 9); pairs],
        halo_sent: vec![3, 0, 7],
        shipments_sent: vec![0, 2, 0],
        halo_msgs: 5,
        ship_msgs: 1,
        done_msgs: 2,
        ghost_mismatches: 0,
    }
}

fn run_spec(full: bool) -> RunSpec {
    let rates = FaultRates { drop_permille: 10, delay_permille: 5, ..FaultRates::default() };
    let kill = Some(KillSpec { rank: 2, after_sends: 7 });
    let plans = vec![None, Some(FaultPlan { seed: 99, rates, kill }), Some(FaultPlan::chaos(7))];
    RunSpec {
        start: 4,
        end: 8,
        chain_start: 2,
        live_k: 2,
        rank: 1,
        epoch: 12,
        node_parts: if full { vec![0, 1, 2, u32::MAX] } else { Vec::new() },
        route: if full { vec![0, 2, 3] } else { Vec::new() },
        plans: if full { plans } else { Vec::new() },
        migrate: full.then(|| vec![vec![], vec![5, 6, 7], vec![9], vec![]]),
        timeout_ms: 2000,
        retries: 3,
        lookahead: 2,
    }
}

fn ctrl_samples() -> Vec<Sample<Ctrl>> {
    let done = |outcome| Ctrl::Done { outcome, stats: TransportStats::default() };
    let stats = TransportStats {
        bytes_sent: 100,
        bytes_recv: 200,
        frames_sent: 3,
        frames_recv: 4,
        recv_corrupt: 1,
    };
    let completed = RankBatchOutcome::Completed(vec![result(2), result(0)]);
    let lost = RankBatchOutcome::Lost { done: vec![result(3)], dead: vec![2] };
    let stalled = RankBatchOutcome::Lost { done: Vec::new(), dead: vec![0, 1] };
    vec![
        (Ctrl::Hello { from: 3, mesh_addr: "127.0.0.1:45123".into() }, vec![0]),
        (Ctrl::Peers { mesh_addrs: vec!["127.0.0.1:1".into(), "[::1]:2".into()] }, vec![0, 4, 19]),
        (Ctrl::Run(run_spec(true)), vec![40, 60, 76, 130, 134, 138, 154, 162]),
        (Ctrl::Run(run_spec(false)), vec![40, 44, 48]),
        (Ctrl::Done { outcome: completed, stats }, vec![1, 5, 25, 53, 113, 117, 145]),
        (done(RankBatchOutcome::Dead { done: vec![result(1)] }), vec![1, 5, 17, 45]),
        (done(lost), vec![1, 5, 33, 61, 121]),
        (done(stalled), vec![1, 5]),
        (Ctrl::Exit, vec![]),
    ]
}

fn jobmsg_samples() -> Vec<Sample<JobMsg>> {
    let stats = ServerStats {
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
    };
    let entries = vec![
        CatalogEntry { name: "tiny".into(), summary: "unit test".into() },
        CatalogEntry { name: "head_on".into(), summary: String::new() },
    ];
    let result_is = |job_id, outcome, cached| JobMsg::ResultIs { job_id, outcome, cached };
    vec![
        (JobMsg::Rejected { ticket: 9, reason: "queue full".into() }, vec![4]),
        (result_is(42, JobOutcome::Done { payload: b"totals".to_vec() }, true), vec![10]),
        (result_is(1, JobOutcome::Failed { reason: "x".into() }, false), vec![10]),
        (result_is(2, JobOutcome::Cancelled, false), vec![]),
        (JobMsg::Stats, vec![]),
        (JobMsg::StatsIs(stats), vec![]),
        (JobMsg::Catalog, vec![]),
        (JobMsg::CatalogIs { entries, max_payload: 4096 }, vec![8, 12, 20, 33, 44]),
        (JobMsg::Run { ticket: 7, payload: vec![1, 2, 3, 255] }, vec![4]),
    ]
}

fn request_samples() -> Vec<JobRequest> {
    let base = TraceOptions::builder()
        .scenario("head_on")
        .k(3)
        .snapshots(4)
        .seed(7)
        .repartition_period(Some(2))
        .build()
        .expect("valid options");
    let quiet = TraceOptions {
        snapshots: None,
        repartition_period: None,
        chaos: Some(ChaosOptions::default()),
        ..base.clone()
    };
    let chaos = Some(ChaosOptions { seed: 7, kill: Some((3, 1)), ..ChaosOptions::default() });
    [base.clone(), quiet, TraceOptions { chaos, ..base }].map(JobRequest::new).into()
}

const TOTALS: TraceTotals = TraceTotals {
    k: 3,
    steps: 12,
    halo: 999,
    shipments: 44,
    migrated: 17,
    contact_pairs: 5,
    repartitions: 2,
    rank_losses: 1,
};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len() / 2)
        .map(|i| u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).expect("hex"))
        .collect()
}

/// Sample `i`, framed for rank `to`, is exactly `golden[i]`.
fn assert_golden<M: Wire + std::fmt::Debug>(samples: &[Sample<M>], to: u32, golden: &[&str]) {
    assert_eq!(samples.len(), golden.len());
    for ((msg, _), want) in samples.iter().zip(golden) {
        let mut buf = Vec::new();
        encode_frame(msg, to, &mut buf);
        assert_eq!(hex(&buf), *want, "{msg:?}");
    }
}

#[test]
fn msg_frames_keep_the_contract_and_the_golden_bytes() {
    wire_contract(&msg_samples());
    assert_golden(&msg_samples(), 3, GOLDEN_MSG);
}

/// Tag 2 is the one `Msg` layout that changed under wire version 1: a
/// v1 `Element` payload was exactly 54 bytes (`id, bbox, body`), an
/// `Elements` payload is a `u32` count then 54 bytes per item — `4 + 54n`
/// is never 54, payloads are consumed exactly, so neither decoder accepts
/// the other's frame (a typed error, repaired like any corrupt frame) and
/// none can mis-read it. `WIRE_VERSION` therefore did not move.
#[test]
fn a_v1_single_element_frame_is_refused_not_misread() {
    let v1 = unhex(V1_ELEMENT_FRAME);
    assert_eq!(
        decode_frame::<Msg>(&v1).map(drop),
        Err(WireError::Malformed { what: "declared count exceeds payload" })
    );
    // And a count the payload cannot hold is refused before allocating.
    let mut hostile = Vec::new();
    encode_frame(&msg_samples()[2].0, 0, &mut hostile);
    hostile[30..34].copy_from_slice(&2u32.to_le_bytes());
    common::re_crc(&mut hostile);
    assert!(matches!(decode_frame::<Msg>(&hostile), Err(WireError::Malformed { .. })));
}

#[test]
fn ctrl_frames_keep_the_contract_and_the_golden_bytes() {
    wire_contract(&ctrl_samples());
    assert_golden(&ctrl_samples(), 0, GOLDEN_CTRL);
}

/// A worker's `Done` frame with the retired `Lost` layout is well formed
/// and still refused: outcome tag 2 is never reused.
#[test]
fn retired_lost_outcomes_are_refused_as_bad_tags() {
    for want in RETIRED_CTRL {
        let frame = unhex(want);
        // A `Done` payload opens with its outcome's tag.
        assert_eq!(frame[HEADER_LEN], 2, "{want}");
        assert_eq!(decode_frame::<Ctrl>(&frame).map(drop), Err(WireError::BadTag { got: 2 }));
    }
}

#[test]
fn jobmsg_frames_keep_the_contract_and_the_golden_bytes() {
    wire_contract(&jobmsg_samples());
    assert_golden(&jobmsg_samples(), 0, GOLDEN_JOBMSG);
    // Bulk payloads take the one-`memcpy` path; size is no special case.
    let big = JobMsg::Run { ticket: 1, payload: (0..100_000u32).map(|i| i as u8).collect() };
    let mut buf = Vec::new();
    encode_frame(&big, 0, &mut buf);
    assert_eq!(
        decode_frame::<JobMsg>(&buf).map(|(msg, _, used)| (msg, used)),
        Ok((big, buf.len()))
    );
}

/// The retired asynchronous job verbs' frames are well formed — header,
/// CRC and all — and still refused: their tags are never reused.
#[test]
fn retired_jobmsg_frames_are_refused_as_bad_tags() {
    for want in RETIRED_JOBMSG {
        let frame = unhex(want);
        let got = frame[1];
        assert!([1, 2, 4, 5, 6, 7].contains(&got), "{want}");
        assert_eq!(decode_frame::<JobMsg>(&frame).map(drop), Err(WireError::BadTag { got }));
    }
}

#[test]
fn job_payloads_keep_the_contract_and_the_golden_bytes() {
    let no_seal = |_: &mut [u8]| {};
    for (req, want) in request_samples().iter().zip(GOLDEN_REQUEST) {
        let bytes = req.encode();
        assert_eq!(hex(&bytes), *want, "{req:?}");
        assert_eq!(JobRequest::decode(&bytes).as_ref(), Ok(req), "every option survives");
        // Offset 1 is the scenario string's length.
        decoder_contract(&bytes, &[1], 0, no_seal, |b| JobRequest::decode(b).map(|r| r.encode()));
        let bad_version = [&[bytes[0] - 1][..], &bytes[1..]].concat();
        let trailing = [&bytes[..], &[0]].concat();
        assert_eq!(JobRequest::decode(&bad_version), Err(WireError::BadVersion { got: 1 }));
        assert!(JobRequest::decode(&trailing).is_err());
    }
    let bytes = TOTALS.encode();
    assert_eq!(hex(&bytes), GOLDEN_TOTALS);
    assert_eq!(TraceTotals::decode(&bytes), Ok(TOTALS));
    decoder_contract(&bytes, &[], 0, no_seal, |b| TraceTotals::decode(b).map(|t| t.encode()));
    assert!(TraceTotals::decode(&[&bytes[..], &[0]].concat()).is_err());
}

#[test]
fn seeded_fate_streams_replay_the_parents_faults() {
    let plan = FaultPlan::chaos(7);
    let fates: String = (0..500)
        .map(|seq| match plan.fate(1, 2, seq) {
            Fate::Deliver => '.',
            Fate::Drop => 'x',
            Fate::Duplicate => '2',
            Fate::Delay => 'd',
            Fate::Reorder => 'r',
        })
        .collect();
    assert_eq!(fates, GOLDEN_FAULT_FATES);
    let plan = ChaosPlan::chaos(7);
    let fates: String = (0..500)
        .map(|event| match plan.fate(1, 0, event) {
            ChaosFate::Forward => '.',
            ChaosFate::Delay => 'd',
            ChaosFate::Stall => 's',
            ChaosFate::TruncateClose => 't',
            ChaosFate::Close => 'c',
        })
        .collect();
    assert_eq!(fates, GOLDEN_PROXY_FATES);
    assert_eq!(FaultPlan::chaos(7).for_step(3).seed, 0xbe30_6133_2609_b2ba);
    // What the job client's retry jitter draws.
    assert_eq!(splitmix64(0, 0), 0);
    assert_eq!(splitmix64(7, 3), 0xe698_4080_bab1_2a02);
    assert_eq!(splitmix64(1337, 11), 0xc630_240b_78da_bc7b);
}

const GOLDEN_MSG: &[&str] = &[
    "010102000000030000000500000009000000000000003c000000d17431150200000007000000000000000000f83f\
     0000000000000080000000000000100008000000efbeadde0000f87f9c7500883ce4377e000000000000f0ff",
    "01010000000003000000000000000000000000000000040000004ba3378300000000",
    "010201000000030000000200000003000000000000003a0000003c97fef001000000280000000000000000000000\
     000000000000f03f0000000000000040000000000000f03f0000000000000040000000000000f87f0600",
    "01020000000003000000090000000100000000000000a60000002b10c94503000000280000000000000000000000\
     000000000000f03f0000000000000040000000000000f03f0000000000000040000000000000f87f0600ffffffff\
     0000000000000080efbeadde0000f87f9c7500883ce4377effffffffffffef7fffffffffffffef7fffffffffffff\
     ef7f0000280000000000000000000000000000000000f03f0000000000000040000000000000f03f000000000000\
     0040000000000000f87f0600",
    "01020200000003000000000000000000000000000000040000001d32542500000000",
    "01030300000003000000070000000000000000000000080000006dc25786ffffffffffffffff",
    "010401000000030000000400000000000000000000001c0000007edb296503000000000000000000000005000000\
     000000000000000000010000",
    "010509000000030000000000000000000000000000000000000003d646ea",
    "010602000000030000000000000000000000000000001000000051f4f32a030000000100000009000000ffffffff",
];

/// The parent's golden frame for `Msg::Element { from: 1, step: 2, seq: 3,
/// id: 40, bbox, body: 6 }` — the layout tag 2 had before shipments went
/// bulk.
const V1_ELEMENT_FRAME: &str =
    "0102010000000300000002000000030000000000000036000000e359befe28000000000000000000000000000000\
     0000f03f0000000000000040000000000000f03f0000000000000040000000000000f87f0600";

const GOLDEN_CTRL: &[&str] = &[
    "0101030000000000000000000000000000000000000013000000784277f20f0000003132372e302e302e313a3435\
     313233",
    "010200000000000000000000000000000000000000001e0000002889b978020000000b0000003132372e302e302e\
     313a31070000005b3a3a315d3a32",
    "01030000000000000000000000000000000000000000a60000003245d7a704000000080000000200000002000000\
     010000000c000000d007000000000000030000000200000004000000000000000100000002000000ffffffff0300\
     000000000000020000000300000003000000000163000000000000000a0000000500000001020000000700000000\
     00000001070000000000000014000a000a000a000001040000000000000003000000050000000600000007000000\
     010000000900000000000000",
    "0103000000000000000000000000000000000000000035000000b3fe8d1b04000000080000000200000002000000\
     010000000c000000d007000000000000030000000200000000000000000000000000000000",
    "01040000000000000000000000000000000000000000f5000000154b541d00020000000200000001000000090000\
     00010000000900000003000000030000000000000000000000000000000700000000000000030000000000000000\
     00000002000000000000000000000000000000050000000000000001000000000000000200000000000000000000\
     00000000000000000003000000030000000000000000000000000000000700000000000000030000000000000000\
     00000002000000000000000000000000000000050000000000000001000000000000000200000000000000000000\
     00000000006400000000000000c800000000000000030000000000000004000000000000000100000000000000",
    "010400000000000000000000000000000000000000009100000009b25aff01010000000100000001000000090000\
     00030000000300000000000000000000000000000007000000000000000300000000000000000000000200000000\
     00000000000000000000000500000000000000010000000000000002000000000000000000000000000000000000\
     00000000000000000000000000000000000000000000000000000000000000000000000000",
    "01040000000000000000000000000000000000000000a9000000d341ffe003010000000300000001000000090000\
     00010000000900000001000000090000000300000003000000000000000000000000000000070000000000000003\
     00000000000000000000000200000000000000000000000000000005000000000000000100000000000000020000\
     00000000000000000000000000010000000200000000000000000000000000000000000000000000000000000000\
     000000000000000000000000000000",
    "01040000000000000000000000000000000000000000390000000106031a03000000000200000000000000010000\
     0000000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "010500000000000000000000000000000000000000000000000050c2c716",
];

/// The `Ctrl::Done` frames whose outcome is the retired `Lost` layout
/// (`RankBatchOutcome` tag 2, which carried a salvaged partial result),
/// as the last encoder that knew it wrote them.
const RETIRED_CTRL: &[&str] = &[
    "010400000000000000000000000000000000000000000e01000009f1e47c02010000000300000001000000090000\
     00010000000900000001000000090000000300000003000000000000000000000000000000070000000000000003\
     00000000000000000000000200000000000000000000000000000005000000000000000100000000000000020000\
     00000000000000000000000000010100000001000000090000000300000003000000000000000000000000000000\
     07000000000000000300000000000000000000000200000000000000000000000000000005000000000000000100\
     00000000000002000000000000000000000000000000010000000200000000000000000000000000000000000000\
     000000000000000000000000000000000000000000000000",
    "010400000000000000000000000000000000000000003a000000e97d134902000000000002000000000000000100\
     000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
];

const GOLDEN_JOBMSG: &[&str] = &[
    "0103000000000000000000000000000000000000000012000000fa878c10090000000a0000007175657565206675\
     6c6c",
    "01080000000000000000000000000000000000000000140000001ad2b28b2a00000000000000010006000000746f\
     74616c73",
    "010800000000000000000000000000000000000000000f000000c9df6fae010000000000000000010100000078",
    "010800000000000000000000000000000000000000000a000000cfac4f0d02000000000000000002",
    "01090000000000000000000000000000000000000000000000001c1b71c1",
    "010a000000000000000000000000000000000000000060000000388e149e05000000000000000300000000000000\
     01000000000000000200000000000000000000000000000004000000000000000100000000000000020000000000\
     00000900000000000000000010000000000001000000000000000000000100000000",
    "010b000000000000000000000000000000000000000000000000413d1751",
    "010c0000000000000000000000000000000000000000300000009c0c3c4300100000000000000200000004000000\
     74696e7909000000756e6974207465737407000000686561645f6f6e00000000",
    "010d00000000000000000000000000000000000000000c00000077b193cd0700000004000000010203ff",
];

/// The frames of the retired `JobMsg` tags, as the last encoder that
/// knew them wrote them: `Submit`, `Accepted`, `Status`, `StatusIs` for
/// each of the five job states, `Cancel` and `Result`.
const RETIRED_JOBMSG: &[&str] = &[
    "010100000000000000000000000000000000000000000c000000b64a667f0700000004000000010203ff",
    "010200000000000000000000000000000000000000000c000000f70aec74070000002a00000000000000",
    "0104000000000000000000000000000000000000000008000000b07683d02a00000000000000",
    "0105000000000000000000000000000000000000000009000000c457a7e02a0000000000000000",
    "01050000000000000000000000000000000000000000090000005267a0972a0000000000000001",
    "0105000000000000000000000000000000000000000009000000e836a90e2a0000000000000002",
    "01050000000000000000000000000000000000000000090000007e06ae792a0000000000000003",
    "0105000000000000000000000000000000000000000009000000dd93cae72a0000000000000004",
    "0106000000000000000000000000000000000000000008000000565766bd2a00000000000000",
    "0107000000000000000000000000000000000000000008000000a5c7948b2a00000000000000",
];

const GOLDEN_REQUEST: &[&str] = &[
    "0207000000686561645f6f6e03000000000000000104000000000000000700000000000000010200000000000000\
     0002000000000000000800000000000000",
    "0207000000686561645f6f6e03000000000000000007000000000000000001010000000000000014000a000a000a\
     0000d0070000000000000300000002000000000000000800000000000000",
    "0207000000686561645f6f6e03000000000000000104000000000000000700000000000000010200000000000000\
     01070000000000000014000a000a000a0001030000000000000001000000d0070000000000000300000002000000\
     000000000800000000000000",
];

const GOLDEN_TOTALS: &str =
    "0103000000000000000c00000000000000e7030000000000002c0000000000000011000000000000000500000000\
     00000002000000000000000100000000000000";

const GOLDEN_FAULT_FATES: &str =
    "...........r..............2........2.x..x................................................x..\
     ............................................................................................\
     ..........................r............................x..............x...............2.....\
     .........................................................................................x..\
     ............................d....2..........x.......................d.......................\
     .............................r..........";

const GOLDEN_PROXY_FATES: &str =
    "..dt...........t..............dc..................t......d..............d.c.................\
     .....d..............d................t...cd..............c......d...d....d...........t...d..\
     ....c....d.......c.................t................t...........d........c.........d........\
     .......d.........d................d.....d...................t........d....td...d...........t\
     ..........................cd.......d.............d.....................d....................\
     .......t.........d........d......t......";
