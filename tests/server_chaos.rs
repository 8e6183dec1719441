//! Service resilience suite (DESIGN.md §6e): the job tier under a
//! seeded chaos proxy and hostile control frames.
//!
//! Three families of guarantees:
//!
//! * **recovery bit-identity** — with a seeded [`ChaosProxy`] injuring
//!   the client↔server wire (delays, mid-frame truncations, closes),
//!   a retrying client still lands every job and the totals are
//!   byte-identical to the clean in-process oracle — the retry path
//!   cannot change results, only repeat work the content-hash cache
//!   then deduplicates;
//! * **typed failure, no hangs** — a close-everything proxy with
//!   retries disabled surfaces a typed [`ServerError`] promptly; a
//!   retry budget that runs dry surfaces `RetriesExhausted`;
//! * **control-frame corruption** — a live server counts a corrupt
//!   [`JobMsg`] frame, drops that connection, and keeps serving (that
//!   every corrupt frame *is* rejected typed is `tests/wire_contract.rs`).
//!
//! CI sweeps seeds without recompiling via the `CHAOS_SEED` env var
//! (the `server-chaos` job runs ≥3 seeds).

use cip::server::{Client, ClientConfig, JobOutcome, Server, ServerConfig, ServerError};
use cip::service::{JobRequest, TraceJobRunner, TraceTotals};
use cip::trace::{run_traced, TraceOptions};
use cip_server::protocol::JobMsg;
use cip_telemetry::Recorder;
use cip_transport::chaos::{ChaosPlan, ChaosProxy};
use cip_transport::frame::encode_frame;
use std::time::{Duration, Instant};

/// CI seed sweep: `CHAOS_SEED` perturbs every seed in this file.
fn env_seed() -> u64 {
    std::env::var("CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0)
}

fn tiny_opts(k: usize, seed: u64) -> TraceOptions {
    TraceOptions::builder()
        .scenario("tiny")
        .k(k)
        .seed(seed)
        .repartition_period(Some(2))
        .build()
        .expect("valid options")
}

fn oracle_totals(opts: &TraceOptions) -> TraceTotals {
    let report = run_traced(opts).expect("oracle run succeeds");
    report.verify_totals().expect("oracle totals are conserved");
    TraceTotals::from_report(&report)
}

fn start_server(workers: usize) -> (Server<TraceJobRunner>, Recorder) {
    let rec = Recorder::enabled();
    let cfg = ServerConfig {
        workers,
        job_deadline: Some(Duration::from_secs(30)),
        recorder: rec.clone(),
        ..ServerConfig::default()
    };
    let server = Server::start(TraceJobRunner, &cfg).expect("server starts");
    (server, rec)
}

/// A retry policy tuned for tests: fast backoff, plenty of attempts, a
/// read timeout large enough for a tiny trace but small enough that a
/// stalled or severed wire turns around quickly.
fn retrying(seed: u64) -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_secs(5),
        read_timeout: Some(Duration::from_secs(10)),
        retries: 12,
        backoff_base: Duration::from_millis(10),
        backoff_max: Duration::from_millis(200),
        seed,
    }
}

// ---------------------------------------------------------------------
// ChaosProxy: recovered results are bit-identical to the oracle
// ---------------------------------------------------------------------

/// The acceptance sweep: for each seed, a proxy injuring the wire with
/// delays, mid-frame truncations, and closes sits between a retrying
/// client and the server. Every job must come back `Done` with totals
/// byte-identical to the in-process oracle.
#[test]
fn chaos_proxy_sweep_recovers_bit_identical_totals() {
    let mixes = [tiny_opts(2, 5), tiny_opts(3, 7), tiny_opts(2, 42)];
    let oracles: Vec<TraceTotals> = mixes.iter().map(oracle_totals).collect();
    let (server, _rec) = start_server(2);

    for &seed in &[7u64, 21, 1337] {
        let seed = seed ^ env_seed();
        let plan = ChaosPlan {
            delay_permille: 60,
            truncate_permille: 25,
            close_permille: 25,
            delay: Duration::from_millis(2),
            ..ChaosPlan::quiet(seed)
        };
        let proxy_rec = Recorder::enabled();
        let mut proxy =
            ChaosProxy::start(server.addr(), plan, proxy_rec.clone()).expect("proxy starts");
        let mut client = Client::connect_with(&proxy.addr().to_string(), retrying(seed))
            .expect("client connects through the proxy");

        for (i, opts) in mixes.iter().enumerate() {
            let payload = JobRequest::new(opts.clone()).encode();
            let (outcome, _cached) = client
                .run_job(&payload)
                .unwrap_or_else(|e| panic!("seed {seed}: job {i} failed through chaos: {e}"));
            let JobOutcome::Done { payload: bytes } = outcome else {
                panic!("seed {seed}: job {i} did not finish: {outcome:?}");
            };
            let totals = TraceTotals::decode(&bytes).expect("totals decode");
            assert_eq!(
                totals, oracles[i],
                "seed {seed}: recovered totals for job {i} differ from the oracle"
            );
            assert_eq!(bytes, oracles[i].encode(), "seed {seed}: byte identity violated");
        }
        proxy.shutdown();
    }
    // The sweep resubmitted through retries; whatever recomputation
    // happened, the server never failed a job.
    let stats = server.stats();
    assert_eq!(stats.failed, 0, "{stats:?}");
    assert!(stats.completed >= 3, "{stats:?}");
}

/// A quiet proxy on the path is invisible: no retries needed, results
/// bit-identical — the baseline that proves the proxy itself does not
/// perturb the bytes.
#[test]
fn quiet_proxy_is_transparent() {
    let opts = tiny_opts(2, 11);
    let expected = oracle_totals(&opts);
    let (server, _rec) = start_server(1);
    let mut proxy = ChaosProxy::start(server.addr(), ChaosPlan::quiet(1), Recorder::disabled())
        .expect("proxy starts");
    let mut client =
        Client::connect(&proxy.addr().to_string()).expect("client connects through the proxy");
    let (outcome, cached) = client.run_job(&JobRequest::new(opts).encode()).expect("run");
    let JobOutcome::Done { payload } = outcome else { panic!("job did not finish: {outcome:?}") };
    assert!(!cached);
    assert_eq!(TraceTotals::decode(&payload).expect("decode"), expected);
    proxy.shutdown();
}

// ---------------------------------------------------------------------
// Typed failure, bounded time — never a hang
// ---------------------------------------------------------------------

/// With the wire severed on every chunk and retries disabled, the
/// client gets a typed error promptly — no hang, no panic.
#[test]
fn severed_wire_without_retries_fails_typed_and_fast() {
    let (server, _rec) = start_server(1);
    let plan = ChaosPlan { close_permille: 1000, ..ChaosPlan::quiet(3 ^ env_seed()) };
    let mut proxy =
        ChaosProxy::start(server.addr(), plan, Recorder::disabled()).expect("proxy starts");
    let cfg = ClientConfig {
        read_timeout: Some(Duration::from_secs(5)),
        retries: 0,
        ..ClientConfig::default()
    };
    let t0 = Instant::now();
    // Connect may itself succeed (the TCP handshake passes the proxy);
    // the first exchange then dies.
    let outcome = Client::connect_with(&proxy.addr().to_string(), cfg)
        .and_then(|mut c| c.run_job(&JobRequest::new(tiny_opts(2, 1)).encode()).map(|_| ()));
    let err = outcome.expect_err("a fully severed wire cannot succeed");
    assert!(
        matches!(err, ServerError::Io { .. } | ServerError::Protocol { .. }),
        "expected a transport-class error, got {err:?}"
    );
    assert!(t0.elapsed() < Duration::from_secs(20), "took {:?}", t0.elapsed());
    proxy.shutdown();
}

/// When every attempt dies, the retrying client reports
/// `RetriesExhausted` with the attempt count — the caller can tell "the
/// wire was bad N times" from "the server refused".
#[test]
fn exhausted_retries_surface_typed_with_attempt_count() {
    let (server, _rec) = start_server(1);
    let plan = ChaosPlan { close_permille: 1000, ..ChaosPlan::quiet(5 ^ env_seed()) };
    let mut proxy =
        ChaosProxy::start(server.addr(), plan, Recorder::disabled()).expect("proxy starts");
    let cfg = ClientConfig {
        read_timeout: Some(Duration::from_secs(5)),
        retries: 2,
        backoff_base: Duration::from_millis(5),
        backoff_max: Duration::from_millis(20),
        ..ClientConfig::default()
    };
    let outcome = Client::connect_with(&proxy.addr().to_string(), cfg)
        .and_then(|mut c| c.run_job(&JobRequest::new(tiny_opts(2, 2)).encode()).map(|_| ()));
    match outcome.expect_err("all attempts die") {
        ServerError::RetriesExhausted { attempts, .. } => assert_eq!(attempts, 3),
        // The very first dial can also die before any retryable
        // exchange happened — equally typed, equally fine.
        ServerError::Io { .. } | ServerError::Protocol { .. } => {}
        other => panic!("expected RetriesExhausted or Io, got {other:?}"),
    }
    proxy.shutdown();
}

// ---------------------------------------------------------------------
// A corrupt control frame costs its connection, never the server
// ---------------------------------------------------------------------

/// A live server fed a corrupted frame counts it, drops that
/// connection, and keeps serving other clients — counts-and-drops,
/// never panic-and-die.
#[test]
fn live_server_counts_and_drops_corrupt_frames() {
    use std::io::{Read, Write};
    let (server, rec) = start_server(1);

    // A tampered Run frame: valid header shape, corrupted payload.
    let mut buf = Vec::new();
    encode_frame(&JobMsg::Run { ticket: 1, payload: vec![9; 32] }, 0, &mut buf);
    let last = buf.len() - 1;
    buf[last] ^= 0xFF;
    let mut evil = std::net::TcpStream::connect(server.addr()).expect("connect");
    evil.write_all(&buf).expect("write tampered frame");
    // The server drops the connection: read sees EOF, not a reply.
    evil.set_read_timeout(Some(Duration::from_secs(10))).ok();
    let mut sink = [0u8; 16];
    let got = evil.read(&mut sink);
    assert!(matches!(got, Ok(0) | Err(_)), "expected a dropped connection, got {got:?}");

    let deadline = Instant::now() + Duration::from_secs(5);
    while rec.counter_value("server.recv_corrupt") == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(rec.counter_value("server.recv_corrupt") >= 1, "corruption must be counted");

    // And the server still serves a clean client, bit-identically.
    let opts = tiny_opts(2, 9);
    let expected = oracle_totals(&opts);
    let mut client = Client::connect(&server.addr().to_string()).expect("clean client connects");
    let (outcome, _) =
        client.run_job(&JobRequest::new(opts).encode()).expect("clean job completes");
    let JobOutcome::Done { payload } = outcome else { panic!("job did not finish: {outcome:?}") };
    assert_eq!(TraceTotals::decode(&payload).expect("decode"), expected);
}
