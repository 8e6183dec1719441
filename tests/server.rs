//! Job-server suite: the multi-tenant partition/trace service against
//! the in-process oracle.
//!
//! The service's correctness contract is bit-identity: totals fetched
//! through run → queue → worker → wire must equal, byte for byte,
//! the totals of a direct [`run_traced`] call with the same options —
//! under client concurrency, from the content-hash cache, after invalid
//! payloads, and with chaos-mode fault injection in the job — and
//! whether the job ran its own simulation or shared one from the
//! server's memo.

use cip::server::{Client, ClientConfig, JobMsg, JobOutcome, Server, ServerConfig, ServerError};
use cip::service::{JobRequest, TraceJobRunner, TraceTotals};
use cip::trace::{run_traced, ChaosOptions, RunControl, Session, SimSpec, TraceOptions};
use cip_telemetry::Recorder;
use cip_transport::frame::{read_frame, write_frame, ReadError};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

fn start_server(workers: usize) -> (Server<TraceJobRunner>, String, Recorder) {
    start_server_with(ServerConfig { workers, ..ServerConfig::default() })
}

fn start_server_with(cfg: ServerConfig) -> (Server<TraceJobRunner>, String, Recorder) {
    let rec = Recorder::enabled();
    let cfg = ServerConfig { recorder: rec.clone(), ..cfg };
    let server = Server::start(TraceJobRunner, &cfg).expect("server starts");
    let addr = server.addr().to_string();
    (server, addr, rec)
}

fn oracle_totals(opts: &TraceOptions) -> TraceTotals {
    let report = run_traced(opts).expect("oracle run succeeds");
    report.verify_totals().expect("oracle totals are conserved");
    TraceTotals::from_report(&report)
}

fn run_and_fetch(client: &mut Client, opts: &TraceOptions) -> (TraceTotals, bool) {
    let (outcome, cached) = client.run_job(&JobRequest::new(opts.clone()).encode()).expect("run");
    match outcome {
        JobOutcome::Done { payload } => {
            (TraceTotals::decode(&payload).expect("totals decode"), cached)
        }
        other => panic!("job did not finish: {other:?}"),
    }
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

/// ≥4 concurrent clients with a mix of scenarios, ranks, schedules, and
/// repartition modes: every reply must be byte-identical to the direct
/// in-process run of the same options.
#[test]
fn concurrent_clients_get_bit_identical_totals() {
    let mixes: Vec<TraceOptions> = vec![
        tiny_opts(2, 5),
        tiny_opts(4, 7),
        TraceOptions::builder()
            .scenario("head_on")
            .k(3)
            .snapshots(4)
            .seed(11)
            .repartition_period(Some(2))
            .build()
            .expect("valid options"),
        TraceOptions::builder()
            .scenario("tiny")
            .k(3)
            .seed(9)
            .repartition_period(None)
            .build()
            .expect("valid options"),
        tiny_opts(2, 42),
    ];
    let oracles: Vec<TraceTotals> = mixes.iter().map(oracle_totals).collect();

    let (server, addr, _rec) = start_server(3);
    let mixes = Arc::new(mixes);
    let handles: Vec<_> = (0..mixes.len())
        .map(|i| {
            let addr = addr.clone();
            let mixes = Arc::clone(&mixes);
            thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("client connects");
                run_and_fetch(&mut client, &mixes[i]).0
            })
        })
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        let totals = h.join().expect("client thread");
        assert_eq!(
            totals, oracles[i],
            "client {i} got totals that differ from the in-process oracle"
        );
    }
    let stats = server.stats();
    assert_eq!(stats.submitted, 5);
    assert_eq!(stats.completed, 5);
    assert_eq!(stats.failed, 0);
}

/// A byte-identical resubmission is served from the content-hash cache:
/// no recomputation, `cached = true`, and the exact bytes of the first
/// run — including across distinct client connections.
#[test]
fn repeat_submissions_hit_the_cache_bit_identically() {
    let opts = tiny_opts(3, 13);
    let (server, addr, rec) = start_server(2);

    let mut first_client = Client::connect(&addr).expect("client 1");
    let (first, cached_first) = run_and_fetch(&mut first_client, &opts);
    assert!(!cached_first, "first submission must compute");

    let mut second_client = Client::connect(&addr).expect("client 2");
    let (second, cached_second) = run_and_fetch(&mut second_client, &opts);
    assert!(cached_second, "identical resubmission must hit the cache");
    assert_eq!(second, first, "cached totals must be bit-identical");
    assert_eq!(second.encode(), first.encode());

    // A different seed is a different payload — cache miss.
    let (third, cached_third) = run_and_fetch(&mut second_client, &tiny_opts(3, 14));
    assert!(!cached_third);
    let _ = third;

    let stats = server.stats();
    assert_eq!(stats.submitted, 3);
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.completed, 2, "the cached reply must not recompute");
    assert_eq!(rec.counter_value("server.jobs.cache_hits"), 1);
    assert_eq!(rec.counter_value("server.jobs.submitted"), 3);
}

/// A chaos-seeded job (deterministic message faults + a scripted rank
/// kill) through the job API produces the same totals as the direct
/// chaos run: fault recovery happens inside the job, invisibly to the
/// service layer.
#[test]
fn chaos_job_through_the_job_api_matches_the_oracle() {
    let opts = TraceOptions::builder()
        .scenario("tiny")
        .k(3)
        .seed(5)
        .repartition_period(Some(2))
        // The default loss detection (2 s × 4 attempts) would dominate
        // the suite; 300 ms × 2 still declares the killed rank dead.
        .chaos(Some(ChaosOptions {
            seed: 7,
            kill: Some((2, 1)),
            timeout_ms: 300,
            retries: 2,
            ..ChaosOptions::default()
        }))
        .build()
        .expect("valid options");
    let expected = oracle_totals(&opts);
    assert!(expected.rank_losses >= 1, "the kill must actually cost a rank");

    let (_server, addr, _rec) = start_server(2);
    let mut client = Client::connect(&addr).expect("client connects");
    let (totals, _) = run_and_fetch(&mut client, &opts);
    assert_eq!(totals, expected, "chaos job must match the direct chaos run");
}

/// The wire catalog mirrors the scenario registry, and a garbage
/// payload is rejected as a failed job — not a dead server.
#[test]
fn catalog_and_invalid_payloads() {
    let (_server, addr, _rec) = start_server(1);
    let mut client = Client::connect(&addr).expect("client connects");

    let info = client.catalog().expect("catalog");
    let names: Vec<&str> = info.entries.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(info.entries.len(), cip::sim::scenarios::list().len());
    assert!(names.contains(&"head_on") && names.contains(&"tiny"), "{names:?}");
    assert_eq!(info.max_payload, ServerConfig::default().max_payload as u64);

    let (outcome, _) = client.run_job(&[0xFF, 0xEE]).expect("garbage runs fine");
    assert!(matches!(outcome, JobOutcome::Failed { .. }), "got {outcome:?}");

    // The server survives: a real job still works.
    let opts = tiny_opts(2, 1);
    let expected = oracle_totals(&opts);
    let (totals, _) = run_and_fetch(&mut client, &opts);
    assert_eq!(totals, expected);
}

/// A chaos plan that kills rank 1 at step 1, with the given drain
/// timeout and repair rounds.
fn stall(timeout_ms: u64, retries: u32) -> ChaosOptions {
    ChaosOptions { kill: Some((1, 1)), timeout_ms, retries, ..ChaosOptions::default() }
}

/// A payload may carry any `u64` where a size or a wait goes; values
/// past the validation ceilings are refused as a typed configuration
/// error at `Session::build` — never handed to an allocator or a thread
/// spawner, whose failure would abort the process where no
/// `catch_unwind` can catch it, nor to a drain wait that would hold a
/// worker past any deadline. Nothing panics, and the server keeps
/// serving.
#[test]
fn oversized_requests_fail_typed_and_the_server_survives() {
    let (server, addr, _rec) = start_server(1);
    let mut client = Client::connect(&addr).expect("client connects");
    let base = tiny_opts(2, 1);
    let huge = 1usize << 40;
    let hostile = [
        ("k", TraceOptions { k: huge, ..base.clone() }),
        ("snapshots", TraceOptions { snapshots: Some(huge), ..base.clone() }),
        ("lookahead", TraceOptions { lookahead: huge, ..base.clone() }),
        ("max_batch", TraceOptions { max_batch: huge, ..base.clone() }),
        // A kill makes survivors wait `timeout × (retries + 1)` on the
        // victim, deaf to the job's cancel token.
        ("chaos", TraceOptions { chaos: Some(stall(u64::MAX, 2)), ..base.clone() }),
        ("chaos", TraceOptions { chaos: Some(stall(300, u32::MAX)), ..base.clone() }),
    ];
    for (field, opts) in hostile {
        let (outcome, _) = client.run_job(&JobRequest::new(opts).encode()).expect("runs fine");
        match outcome {
            JobOutcome::Failed { reason } => assert!(reason.contains(field), "{field}: {reason}"),
            other => panic!("an oversized {field} was not refused: {other:?}"),
        }
    }
    assert_eq!(server.stats().panicked, 0, "{:?}", server.stats());
    let (totals, _) = run_and_fetch(&mut client, &base);
    assert_eq!(totals, oracle_totals(&base));
}

/// The result bytes of a session built directly, with its own simulation.
fn direct_bytes(opts: &TraceOptions) -> Vec<u8> {
    let mut session = Session::build(opts).expect("direct session builds");
    session.advance(&RunControl::default()).expect("direct session runs");
    TraceTotals::from_report(&session.into_report()).encode()
}

/// Runs `opts` as a job and checks the reply byte for byte against a
/// direct `Session::build` run.
fn served_equals_direct(client: &mut Client, opts: &TraceOptions) {
    let (outcome, cached) =
        client.run_job(&JobRequest::new(opts.clone()).encode()).expect("job runs");
    assert!(!cached, "every job here is a new payload");
    assert_eq!(outcome, JobOutcome::Done { payload: direct_bytes(opts) }, "{opts:?}");
}

fn memo_counts(rec: &Recorder) -> (u64, u64) {
    (rec.counter_value("server.memo.misses"), rec.counter_value("server.memo.hits"))
}

/// Jobs on one (scenario, snapshots) pair run one simulation between
/// them, whatever their seed or rank count; the reuse is not a job cache
/// hit, and every reply is the bytes of a direct run.
#[test]
fn jobs_on_one_scenario_share_one_simulation() {
    let (server, addr, rec) = start_server(2);
    let mut client = Client::connect(&addr).expect("client connects");
    let jobs = [tiny_opts(2, 1), tiny_opts(2, 2), tiny_opts(3, 1), tiny_opts(4, 9)];
    for opts in &jobs {
        served_equals_direct(&mut client, opts);
    }
    let n = jobs.len() as u64;
    assert_eq!(memo_counts(&rec), (1, n - 1), "one simulation for {n} jobs");
    assert_eq!(server.stats().cache_hits, 0, "memo hits are not job cache hits");
    assert_eq!(server.stats().completed, n);

    // Another snapshot count is another simulation.
    let shorter = TraceOptions { snapshots: Some(3), ..tiny_opts(2, 1) };
    served_equals_direct(&mut client, &shorter);
    assert_eq!(memo_counts(&rec), (2, n - 1));
}

/// A cache budget smaller than one simulation keeps none: every job
/// computes its own, and the replies are unchanged.
#[test]
fn a_budget_below_one_simulation_memoises_nothing() {
    let sim_bytes = SimSpec::resolve("tiny", None).expect("registry scenario").run().heap_bytes();
    let (server, addr, rec) = start_server_with(ServerConfig {
        workers: 1,
        cache_max_bytes: sim_bytes as usize - 1,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr).expect("client connects");
    for seed in 1..=3 {
        served_equals_direct(&mut client, &tiny_opts(2, seed));
    }
    assert_eq!(memo_counts(&rec), (3, 0));
    assert!(server.stats().cache_bytes < sim_bytes, "{:?}", server.stats());
}

/// One request on a raw framed socket: its one reply, and proof that no
/// second frame follows it.
fn exchange(stream: &mut TcpStream, request: &JobMsg) -> JobMsg {
    write_frame(stream, request, 0, &mut Vec::new()).expect("send request");
    stream.set_read_timeout(Some(Duration::from_secs(60))).expect("set timeout");
    let (reply, _, _) = read_frame::<JobMsg>(stream, &mut Vec::new()).expect("one reply");
    stream.set_read_timeout(Some(Duration::from_millis(100))).expect("set timeout");
    match read_frame::<JobMsg>(stream, &mut Vec::new()) {
        Err(ReadError::Io(e)) => assert!(
            matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut),
            "{e}"
        ),
        other => panic!("a second frame or a closed socket after {reply:?}: {other:?}"),
    }
    reply
}

/// A `Run` is one exchange: one `ResultIs` per request, cold and then
/// from the cache, each the bytes of a direct run. Its job record lives
/// only while the `Run` waits, so none outlives the reply.
#[test]
fn a_run_is_one_exchange_and_leaves_no_job_behind() {
    let opts = tiny_opts(2, 31);
    let expected = direct_bytes(&opts);
    let (server, addr, _rec) = start_server(1);
    let mut stream = TcpStream::connect(&addr).expect("raw connect");
    let payload = JobRequest::new(opts).encode();
    for (ticket, want_cached) in [(1, false), (2, true)] {
        match exchange(&mut stream, &JobMsg::Run { ticket, payload: payload.clone() }) {
            JobMsg::ResultIs { outcome, cached, .. } => {
                assert_eq!(cached, want_cached, "run {ticket}");
                assert_eq!(outcome, JobOutcome::Done { payload: expected.clone() }, "run {ticket}");
            }
            other => panic!("run {ticket} got {other:?}"),
        }
    }
    let stats = server.stats();
    assert_eq!((stats.submitted, stats.completed, stats.cache_hits), (2, 1, 1), "{stats:?}");
}

/// A refusal ends `run_job` at once: retries are for transient
/// failures, and the server counts exactly one rejection.
#[test]
fn run_job_returns_a_rejection_after_one_attempt() {
    let (server, addr, _rec) =
        start_server_with(ServerConfig { workers: 1, max_payload: 8, ..ServerConfig::default() });
    let cfg = ClientConfig { retries: 3, ..ClientConfig::default() };
    let mut client = Client::connect_with(&addr, cfg).expect("client connects");
    let payload = JobRequest::new(tiny_opts(2, 1)).encode();
    assert!(payload.len() > 8);
    match client.run_job(&payload) {
        Err(ServerError::Rejected { reason }) => {
            assert!(reason.contains("max_payload"), "{reason}")
        }
        other => panic!("expected a rejection, got {other:?}"),
    }
    let stats = server.stats();
    assert_eq!((stats.rejected, stats.submitted), (1, 0), "{stats:?}");
}

/// The frame `Submit { ticket: 7, payload: [1, 2, 3, 255] }` had under
/// the retired tag 1 (the wire contract's golden for it).
const RETIRED_SUBMIT_FRAME: &str =
    "010100000000000000000000000000000000000000000c000000b64a667f0700000004000000010203ff";

/// A client still speaking the retired asynchronous API is refused like
/// any corrupt frame: its connection is dropped, the server counts it,
/// and a `Run` on a fresh connection is served as before.
#[test]
fn a_retired_submit_frame_is_refused_and_the_server_survives() {
    let (_server, addr, rec) = start_server(1);
    let frame: Vec<u8> = (0..RETIRED_SUBMIT_FRAME.len() / 2)
        .map(|i| u8::from_str_radix(&RETIRED_SUBMIT_FRAME[2 * i..2 * i + 2], 16).expect("hex"))
        .collect();
    let mut old = TcpStream::connect(&addr).expect("raw connect");
    old.write_all(&frame).expect("write the retired frame");
    old.set_read_timeout(Some(Duration::from_secs(10))).expect("set timeout");
    let mut sink = [0u8; 64];
    let got = old.read(&mut sink);
    assert!(matches!(got, Ok(0) | Err(_)), "expected a dropped connection, got {got:?}");
    assert_eq!(rec.counter_value("server.recv_corrupt"), 1);

    let opts = tiny_opts(2, 3);
    let mut client = Client::connect(&addr).expect("fresh client connects");
    let (outcome, cached) =
        client.run_job(&JobRequest::new(opts.clone()).encode()).expect("job runs");
    assert!(!cached);
    assert_eq!(outcome, JobOutcome::Done { payload: direct_bytes(&opts) });
}

/// The server alone owns a job's deadline: the `Run` waiter trips the
/// job's token and answers with the deadline failure, and the session
/// stops on that token at its next batch boundary, so shutdown finds
/// every worker back and abandons none.
#[test]
fn overdue_jobs_fail_on_the_deadline_and_their_sessions_stop() {
    let cfg = ServerConfig {
        workers: 1,
        job_deadline: Some(Duration::from_millis(1)),
        ..ServerConfig::default()
    };
    let (mut server, addr, rec) = start_server_with(cfg);
    let mut client = Client::connect(&addr).expect("client connects");
    for seed in [1, 2] {
        let opts = TraceOptions::builder()
            .scenario("head_on")
            .k(2)
            .snapshots(4)
            .seed(seed)
            .build()
            .expect("valid options");
        let (outcome, _) = client.run_job(&JobRequest::new(opts).encode()).expect("runs fine");
        match outcome {
            JobOutcome::Failed { reason } => assert!(reason.contains("deadline"), "{reason}"),
            other => panic!("seed {seed}: expected a deadline failure, got {other:?}"),
        }
    }
    let stats = server.stats();
    assert_eq!((stats.deadline_exceeded, stats.panicked), (2, 0), "{stats:?}");
    server.shutdown();
    assert_eq!(rec.counter_value("server.workers.abandoned"), 0);
}
