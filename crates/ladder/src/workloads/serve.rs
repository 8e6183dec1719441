//! `serve_cold` / `serve_hit` / `serve_mixed`: a live job server on
//! loopback inside the harness process, driven by closed-loop clients.

use crate::harness::{Checks, Ctx};
use crate::rng::fork;
use crate::spans::Tracer;
use crate::stats::{highest_valid_tail, median, percentile};
use cip::server::{Client, JobOutcome, Server, ServerConfig, ServerError, ServerStats};
use cip::service::{JobRequest, TraceJobRunner, TraceTotals};
use cip::trace::{RunControl, Session, TraceError, TraceOptions};
use std::sync::Barrier;
use std::time::Instant;

/// Base of the job-seed sequence. A job's seed is its partitioner seed, and
/// k=4 decomposition quality swings with it (see `trace.rs`), while a run
/// completes too few cold jobs to average that out; so every run submits
/// the same sequence of jobs, and `--seed` reseeds only the warm-up job.
const JOB_SEEDS: u64 = 0xC1F0_2003;

/// Server worker threads (= jobs in flight).
const WORKERS: usize = 2;
/// Distinct job seeds per `serve_cold` cycle.
const COLD_JOBS_PER_CYCLE: u64 = 6;
/// Cached payloads `serve_hit` replays round-robin.
const HIT_PAYLOADS: u64 = 4;
/// Clients of `serve_mixed` (= nproc on the reference box).
const MIXED_CLIENTS: u64 = 2;
/// Per client and cycle of `serve_mixed`: groups of 1 new seed + 4 replays.
const MIXED_GROUPS: u64 = 2;
/// Replays after each new seed in `serve_mixed`.
const MIXED_REPLAYS: u64 = 4;
/// Jobs in one `serve_mixed` group.
const MIXED_GROUP_JOBS: u64 = 1 + MIXED_REPLAYS;

/// The job every serve workload submits: head_on, k=4, 10 snapshots.
fn job_options(smoke: bool, job_seed: u64) -> TraceOptions {
    TraceOptions::builder()
        .scenario(if smoke { "tiny" } else { "head_on" })
        .k(4)
        .snapshots(if smoke { 4 } else { 10 })
        .seed(job_seed)
        .build()
        .expect("the harness only builds valid job options")
}

fn payload(smoke: bool, job_seed: u64) -> Vec<u8> {
    JobRequest::new(job_options(smoke, job_seed)).encode()
}

/// The same options run directly through a `Session` in the harness: the
/// oracle for served result bytes.
fn direct_totals(opts: &TraceOptions) -> Result<Vec<u8>, TraceError> {
    let mut session = Session::build(opts)?;
    session.advance(&RunControl::default())?;
    Ok(TraceTotals::from_report(&session.into_report()).encode())
}

/// A live server plus one connected client.
struct Service {
    server: Server<TraceJobRunner>,
    client: Client,
}

impl Service {
    /// Starts the server, connects, and runs one warm-up job.
    fn start(ctx: &mut Ctx) -> Self {
        let cfg = ServerConfig { workers: WORKERS, ..ServerConfig::default() };
        let server = Server::start(TraceJobRunner, &cfg).expect("job server binds on loopback");
        let mut client = Client::connect(&server.addr().to_string()).expect("client connects");
        let warm_up = payload(ctx.smoke, fork(ctx.seed, u64::MAX));
        let (warm, _) = ctx.tracer.span("setup.warmup", || client.run_job(&warm_up));
        ctx.checks.check(done_bytes(&warm).is_some(), || format!("warm-up job: {warm:?}"));
        Self { server, client }
    }

    fn connect(&self) -> Client {
        Client::connect(&self.server.addr().to_string()).expect("client connects")
    }

    fn stats(&mut self, ctx: &mut Ctx) -> ServerStats {
        let stats = self.client.stats();
        ctx.checks.check(stats.is_ok(), || format!("stats request: {stats:?}"));
        stats.unwrap_or_default()
    }
}

type Served = Result<(JobOutcome, bool), ServerError>;

/// The result bytes of a job that ran to completion.
fn done_bytes(served: &Served) -> Option<&[u8]> {
    match served {
        Ok((JobOutcome::Done { payload }, _)) => Some(payload),
        _ => None,
    }
}

fn was_cached(served: &Served) -> Option<bool> {
    served.as_ref().ok().map(|(_, cached)| *cached)
}

/// One job, inside a `server.run_job` span; returns the outcome and the
/// round-trip time in milliseconds.
fn run_job(tracer: &mut Tracer, client: &mut Client, payload: &[u8]) -> (Served, f64) {
    tracer.span("server.run_job", || client.run_job(payload))
}

/// Feeds the communication counts of a served result to the quality
/// metrics: executed halo and shipment units per step.
fn count_totals(ctx: &mut Ctx, request: &[u8], result: &[u8]) {
    if let Ok(t) = TraceTotals::decode(result) {
        let steps = t.steps.max(1) as f64;
        ctx.count("fe_comm", t.halo as f64 / steps);
        ctx.count("n_remote", t.shipments as f64 / steps);
    }
    ctx.count("service.request_bytes", request.len() as f64);
    ctx.count("service.result_bytes", result.len() as f64);
}

/// Checks the server's own counters against what the clients did, exactly.
fn check_stats(ctx: &mut Ctx, before: &ServerStats, after: &ServerStats, ran: u64, hits: u64) {
    let completed = after.completed - before.completed;
    let cache_hits = after.cache_hits - before.cache_hits;
    ctx.checks.check(completed == ran, || {
        format!("server completed {completed} jobs, clients ran {ran}")
    });
    ctx.checks.check(cache_hits == hits, || {
        format!("server counted {cache_hits} cache hits, clients replayed {hits}")
    });
    let failed = after.failed + after.rejected + after.panicked + after.deadline_exceeded;
    ctx.checks.check(failed == 0, || format!("server reports {failed} failed or refused jobs"));
    if ctx.layers {
        ctx.set("server.jobs_completed", completed as f64);
        ctx.set("server.cache_hits", cache_hits as f64);
    }
}

/// Traced runs: the protocol round trip without a job behind it.
fn probe_ping(ctx: &mut Ctx, client: &mut Client) {
    ctx.probe(|ctx| {
        for _ in 0..200 {
            let (stats, ms) = ctx.tracer.span("server.ping", || client.stats());
            ctx.checks.check(stats.is_ok(), || format!("stats request: {stats:?}"));
            ctx.sample("server.ping_p50_us", ms * 1e3);
        }
    });
}

/// Sets a tail-latency metric if the run has the samples to support it
/// (at least ten beyond the percentile).
fn set_tail(ctx: &mut Ctx, name: &str, p: f64, latencies_ms: &[f64]) {
    if highest_valid_tail(latencies_ms.len()).is_some_and(|valid| valid >= p) {
        ctx.set(name, percentile(latencies_ms, p).expect("a valid tail has samples"));
    }
}

/// `serve_cold`: one client, every job a new seed.
pub fn run_cold(ctx: &mut Ctx) {
    let mut svc = ctx.setup(Service::start);
    let smoke = ctx.smoke;
    ctx.param("workers", WORKERS);
    ctx.param("clients", 1u64);
    ctx.param("jobs_per_cycle", COLD_JOBS_PER_CYCLE);
    let before = svc.stats(ctx);

    let (mut served_ms, mut traced_ms, mut direct_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut cycle = 0u64;
    while ctx.next_cycle() {
        for j in 0..COLD_JOBS_PER_CYCLE {
            let job_seed = fork(JOB_SEEDS, cycle * COLD_JOBS_PER_CYCLE + j);
            let request = payload(smoke, job_seed);
            let (served, ms) = ctx.op(|ctx| run_job(&mut ctx.tracer, &mut svc.client, &request));
            served_ms.push(ms);
            let fresh = done_bytes(&served).is_some() && was_cached(&served) == Some(false);
            ctx.checks.check(fresh, || format!("cold job {job_seed:#x}: {served:?}"));
            let Some(result) = done_bytes(&served) else { continue };
            count_totals(ctx, &request, result);

            // Oracle: the same options straight through a Session. Two
            // sampled seeds in every run; every job of a traced cycle,
            // where the pairing also prices the server's overhead.
            if ctx.tracer.enabled || (ctx.counting() && j < 2) {
                let opts = job_options(smoke, job_seed);
                let (bytes, direct_run_ms) = ctx
                    .aside(|ctx| ctx.tracer.span("trace.session_direct", || direct_totals(&opts)));
                if ctx.tracer.enabled {
                    traced_ms.push(ms);
                    direct_ms.push(direct_run_ms);
                }
                ctx.checks.check(bytes.as_deref().ok() == Some(result), || {
                    format!("job {job_seed:#x}: served bytes differ from the in-harness Session")
                });
            }
        }
        if ctx.counting() {
            let cfg = job_options(smoke, 0);
            let sim_cfg = cip_sim::scenarios::get(&cfg.scenario).expect("registry scenario");
            let mut sim_cfg = sim_cfg.config();
            sim_cfg.snapshots = cfg.snapshots.unwrap_or(sim_cfg.snapshots);
            ctx.probe(|ctx| {
                ctx.time("sim.run", || cip_sim::run(&sim_cfg));
            });
            probe_ping(ctx, &mut svc.client);
        }
        cycle += 1;
    }
    let after = svc.stats(ctx);
    check_stats(ctx, &before, &after, served_ms.len() as u64, 0);
    if !direct_ms.is_empty() {
        // Served minus direct, medians over the paired traced jobs.
        ctx.set("server.overhead_ms", median(&traced_ms) - median(&direct_ms));
    }
    set_tail(ctx, "server.job_cold_p90_ms", 90.0, &served_ms);
    svc.server.shutdown();
}

/// `serve_hit`: one client replaying payloads the cache already holds.
pub fn run_hit(ctx: &mut Ctx) {
    let smoke = ctx.smoke;
    let requests: Vec<Vec<u8>> =
        (0..HIT_PAYLOADS).map(|i| payload(smoke, fork(JOB_SEEDS, i))).collect();
    let (mut svc, cold) = ctx.setup(|ctx| {
        let mut svc = Service::start(ctx);
        let (cold, _) = ctx.tracer.span("setup.cache_fill", || {
            requests.iter().map(|r| svc.client.run_job(r)).collect::<Vec<Served>>()
        });
        (svc, cold)
    });
    let cold: Vec<Vec<u8>> = cold
        .iter()
        .map(|served| {
            ctx.checks.check(done_bytes(served).is_some(), || format!("cache fill: {served:?}"));
            done_bytes(served).unwrap_or_default().to_vec()
        })
        .collect();
    // Short cycles: the loopback round trip runs five times faster while
    // both cores stay awake than when each hop wakes an idle one, and
    // only a short cycle fits inside such a stretch in every run.
    let replays_per_cycle = 5 * requests.len();
    ctx.param("workers", WORKERS);
    ctx.param("clients", 1u64);
    ctx.param("cached_payloads", HIT_PAYLOADS);
    ctx.param("replays_per_cycle", replays_per_cycle);
    let before = svc.stats(ctx);

    let mut hit_ms = Vec::new();
    while ctx.next_cycle() {
        for i in 0..replays_per_cycle {
            let which = i % requests.len();
            let request = &requests[which];
            let (served, ms) = ctx.op(|ctx| run_job(&mut ctx.tracer, &mut svc.client, request));
            hit_ms.push(ms);
            // Hit bytes equal cold bytes.
            let replayed =
                was_cached(&served) == Some(true) && done_bytes(&served) == Some(&cold[which]);
            ctx.checks.check(replayed, || format!("replay of payload {which}: {served:?}"));
            if let (Some(result), true) = (done_bytes(&served), i < requests.len()) {
                count_totals(ctx, request, result); // once per distinct payload
            }
        }
        if ctx.counting() {
            probe_ping(ctx, &mut svc.client);
        }
    }
    let after = svc.stats(ctx);
    check_stats(ctx, &before, &after, 0, hit_ms.len() as u64);
    set_tail(ctx, "server.job_hit_p99_ms", 99.0, &hit_ms);
    svc.server.shutdown();
}

/// What one `serve_mixed` client did in one cycle.
struct ClientOut {
    tracer: Tracer,
    checks: Checks,
    /// Wall-clock of each group of [`MIXED_GROUP_JOBS`] jobs.
    group_ms: Vec<f64>,
    /// `(request, result)` of every new seed, for the quality counts.
    fresh: Vec<(Vec<u8>, Vec<u8>)>,
}

/// One client's share of a cycle: [`MIXED_GROUPS`] groups of one new seed
/// followed by [`MIXED_REPLAYS`] replays of it, groups starting in step
/// with the other client.
fn mixed_client(
    mut tracer: Tracer,
    client: &mut Client,
    smoke: bool,
    seeds: &[u64],
    group_start: &Barrier,
) -> ClientOut {
    let (mut checks, mut group_ms, mut fresh_jobs) = (Checks::default(), Vec::new(), Vec::new());
    for &job_seed in seeds {
        let request = payload(smoke, job_seed);
        // Both clients submit their new seed together, so the two cold
        // jobs always contend for the cores; left to drift, the clients
        // fall in and out of step and throughput swings by half.
        group_start.wait();
        tracer.next_op();
        tracer.begin("op");
        let t = Instant::now();
        let (first, _) = run_job(&mut tracer, client, &request);
        let replays: Vec<Served> =
            (0..MIXED_REPLAYS).map(|_| run_job(&mut tracer, client, &request).0).collect();
        group_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tracer.end();

        let fresh = done_bytes(&first).is_some() && was_cached(&first) == Some(false);
        checks.check(fresh, || format!("new seed {job_seed:#x}: {first:?}"));
        for again in &replays {
            let replayed =
                was_cached(again) == Some(true) && done_bytes(again) == done_bytes(&first);
            checks.check(replayed, || format!("replay of {job_seed:#x}: {again:?}"));
        }
        if let Some(result) = done_bytes(&first) {
            fresh_jobs.push((request, result.to_vec()));
        }
    }
    ClientOut { tracer, checks, group_ms, fresh: fresh_jobs }
}

/// `serve_mixed`: two closed-loop clients, new seeds and replays mixed.
pub fn run_mixed(ctx: &mut Ctx) {
    let mut svc = ctx.setup(Service::start);
    let smoke = ctx.smoke;
    let mut clients: Vec<Client> = (0..MIXED_CLIENTS).map(|_| svc.connect()).collect();
    ctx.param("workers", WORKERS);
    ctx.param("clients", MIXED_CLIENTS);
    ctx.param("groups_per_client_per_cycle", MIXED_GROUPS);
    ctx.param("replays_per_new_seed", MIXED_REPLAYS);
    let before = svc.stats(ctx);

    let (mut new_seeds, mut replays) = (0u64, 0u64);
    let mut cycle = 0u64;
    while ctx.next_cycle() {
        let t = Instant::now();
        let group_start = &Barrier::new(MIXED_CLIENTS as usize);
        let outs: Vec<ClientOut> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .zip(0u64..)
                .map(|(client, c)| {
                    let first = (cycle * MIXED_CLIENTS + c) * MIXED_GROUPS;
                    let seeds: Vec<u64> =
                        (first..first + MIXED_GROUPS).map(|s| fork(JOB_SEEDS, s)).collect();
                    let tracer = ctx.tracer.for_lane(c as u32 + 1);
                    scope.spawn(move || mixed_client(tracer, client, smoke, &seeds, group_start))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread does not panic")).collect()
        });
        let wall_s = t.elapsed().as_secs_f64();
        // One window per group; a job counts with its group's mean latency.
        let per_job_ms: Vec<f64> = outs
            .iter()
            .flat_map(|out| out.group_ms.iter().map(|ms| ms / MIXED_GROUP_JOBS as f64))
            .collect();
        ctx.record_ops(&per_job_ms, MIXED_GROUP_JOBS, wall_s);
        for out in outs {
            ctx.tracer.absorb(out.tracer);
            ctx.checks.absorb(out.checks);
            new_seeds += out.fresh.len() as u64;
            replays += out.fresh.len() as u64 * MIXED_REPLAYS;
            for (request, result) in &out.fresh {
                count_totals(ctx, request, result);
            }
        }
        cycle += 1;
    }
    let after = svc.stats(ctx);
    check_stats(ctx, &before, &after, new_seeds, replays);
    svc.server.shutdown();
}
