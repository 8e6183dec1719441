//! `cip-trace` — run a simulation scenario with telemetry enabled and
//! export the timeline.
//!
//! Executes the full MCML+DT pipeline (partition → DT-friendly correction
//! → search tree → threaded rank executor → optional diffusion
//! repartitioning) with a live [`cip::telemetry::Recorder`], then writes
//!
//! * `trace.json` — chrome://tracing timeline, one lane per logical rank
//!   (open in `about:tracing` or <https://ui.perfetto.dev>),
//! * `summary.json` — executed totals + aggregated span/counter/histogram
//!   summary in the shared `cip-results-v1` envelope,
//!
//! and prints the summary table. The tool asserts that the telemetry
//! counters equal the executed `TrafficLog` totals exactly before writing
//! anything.
//!
//! Chaos mode (`--chaos SEED`) injects deterministic message faults into
//! the executor; `--kill STEP:RANK` kills a rank mid-run, and the driver
//! recovers by diffusion-repartitioning over the survivors (DESIGN.md
//! §6b). The `fault.*` / `recovery.*` counters land in `summary.json`.
//!
//! Steps run in batches of up to `--max-batch` on persistent rank
//! threads; inside a batch a rank's sends may run `--lookahead` steps
//! ahead of its drains, and the next repartition boundary is planned on a
//! scoped thread beside the batch that starts with no plan stored, and
//! kept until the boundary (DESIGN.md §6b). Neither knob changes the
//! totals.
//!
//! ```text
//! cip-trace --scenario head_on --k 8 --snapshots 20 --out results
//! cip-trace --scenario thick_plates --k 4 --no-repart
//! cip-trace --scenario tiny --k 4 --chaos 7 --kill 3:2
//! cip-trace --scenario head_on --k 8 --lookahead 1 --max-batch 4
//! cip-trace --list-scenarios
//! cip-trace --scenario head_on --k 4 --server 127.0.0.1:PORT   # job client
//! ```
//!
//! With `--server ADDR`, the run is submitted as a job to a running
//! `cip-serve` instead of executing in-process; the deterministic totals
//! come back over the wire (bit-identical to a local run) and land in
//! `totals.json`.

use cip::service::{JobRequest, TraceTotals};
use cip::trace::{run_traced, ChaosOptions, TraceOptions, TransportKind};
use cip_base::cli::{self, Argv, UsageError};
use cip_server::{Client, ClientConfig, JobOutcome};
use cip_sim::scenarios;

struct Args {
    opts: TraceOptions,
    out_dir: String,
    /// Submit to a running `cip-serve` at this address instead of
    /// executing in-process.
    server: Option<String>,
    /// Client retry/timeout policy for `--server` mode.
    client: ClientConfig,
}

fn parse_args(argv: &mut Argv) -> Result<Args, UsageError> {
    let mut args = Args {
        opts: TraceOptions::default(),
        out_dir: "results".to_string(),
        server: None,
        client: ClientConfig::default(),
    };
    while let Some(flag) = argv.next_flag() {
        match flag.as_str() {
            "--scenario" => args.opts.scenario = argv.value(&flag)?,
            "--k" => args.opts.k = argv.integer(&flag)?,
            "--snapshots" => args.opts.snapshots = Some(argv.integer(&flag)?),
            "--seed" => args.opts.seed = argv.integer(&flag)?,
            "--period" => args.opts.repartition_period = Some(argv.integer(&flag)?),
            "--no-repart" => args.opts.repartition_period = None,
            "--out" => args.out_dir = argv.value(&flag)?,
            "--chaos" => {
                let seed = argv.integer(&flag)?;
                args.opts.chaos.get_or_insert_with(ChaosOptions::default).seed = seed;
            }
            "--kill" => {
                let kill = argv.parse_with(&flag, "STEP:RANK", |spec| {
                    let (step, rank) = spec.split_once(':')?;
                    Some((step.parse().ok()?, rank.parse().ok()?))
                })?;
                args.opts.chaos.get_or_insert_with(ChaosOptions::default).kill = Some(kill);
            }
            "--lookahead" => args.opts.lookahead = argv.integer(&flag)?,
            "--max-batch" => args.opts.max_batch = argv.integer(&flag)?,
            "--transport" => {
                args.opts.transport = argv.parse_with(
                    &flag,
                    "inproc, tcp-threads[:BIND], or tcp[:BIND]",
                    parse_transport,
                )?;
            }
            "--server" => args.server = Some(argv.value(&flag)?),
            "--client-retries" => args.client.retries = argv.integer(&flag)?,
            "--client-timeout-ms" => {
                let ms: u64 = argv.integer(&flag)?;
                args.client.read_timeout = Some(std::time::Duration::from_millis(ms.max(1)));
            }
            "--retry-seed" => args.client.seed = argv.integer(&flag)?,
            "--list-scenarios" => {
                for d in scenarios::list() {
                    println!("{:<16} {}", d.name, d.summary);
                }
                std::process::exit(0);
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: cip-trace [--scenario NAME] [--list-scenarios] [--k K] \
                     [--snapshots N] [--seed N] \
                     [--period N | --no-repart] [--chaos SEED] [--kill STEP:RANK] \
                     [--lookahead N>=1] [--max-batch N>=1] \
                     [--transport inproc|tcp-threads[:BIND]|tcp[:BIND]] \
                     [--server ADDR:PORT] [--client-retries N] [--client-timeout-ms N] \
                     [--retry-seed N] [--out DIR]"
                );
                std::process::exit(0);
            }
            _ => return Err(cli::unknown(&flag, "try --help")),
        }
    }
    Ok(args)
}

/// Parses `inproc` (the in-memory oracle), `tcp-threads[:BIND]` (rank
/// threads over loopback sockets), or `tcp[:BIND]` (one `cip-worker`
/// process per rank; the worker binary comes from `$CIP_WORKER_BIN` or
/// sits next to `cip-trace`).
fn parse_transport(spec: &str) -> Option<TransportKind> {
    let default_bind = "127.0.0.1:0";
    Some(match spec {
        "inproc" => TransportKind::InProcess,
        "tcp-threads" => TransportKind::TcpThreads { bind: default_bind.to_string() },
        "tcp" => TransportKind::Workers { bind: default_bind.to_string(), worker_bin: None },
        other => {
            if let Some(bind) = other.strip_prefix("tcp-threads:") {
                TransportKind::TcpThreads { bind: bind.to_string() }
            } else {
                let bind = other.strip_prefix("tcp:")?;
                TransportKind::Workers { bind: bind.to_string(), worker_bin: None }
            }
        }
    })
}

/// Client mode: submit the run as a job to a `cip-serve` instance, wait
/// for the result, and write `totals.json` (the deterministic totals —
/// byte-identical to what the in-process oracle reports). With
/// `--client-retries`, transient failures (server restart, connection
/// reset) are retried with seeded backoff: the payload is resubmitted
/// idempotently and a completed result replays from the server's
/// content-hash cache bit-identically.
fn run_remote(addr: &str, args: &Args) {
    let mut client = Client::connect_with(addr, args.client.clone()).unwrap_or_else(|e| {
        eprintln!("cip-trace: {e}");
        std::process::exit(1);
    });
    let payload = JobRequest::new(args.opts.clone()).encode();
    eprintln!(
        "submitting job to {addr} (retries {}, timeout {:?}), waiting...",
        args.client.retries, args.client.read_timeout
    );
    let (outcome, cached) = client.run_job(&payload).unwrap_or_else(|e| {
        eprintln!("cip-trace: {e}");
        std::process::exit(1);
    });
    match outcome {
        JobOutcome::Done { payload } => {
            let totals = TraceTotals::decode(&payload).unwrap_or_else(|e| {
                eprintln!("cip-trace: bad result payload: {e}");
                std::process::exit(1);
            });
            eprintln!(
                "job done{}: {} steps, halo {}, shipments {}, migrated {}, pairs {}",
                if cached { " (cache hit)" } else { "" },
                totals.steps,
                totals.halo,
                totals.shipments,
                totals.migrated,
                totals.contact_pairs
            );
            println!("{}", totals.to_json());
            let dir = std::path::Path::new(&args.out_dir);
            std::fs::create_dir_all(dir).expect("create output directory");
            let path = dir.join("totals.json");
            std::fs::write(&path, totals.to_json()).expect("write totals.json");
            eprintln!("wrote {}", path.display());
        }
        JobOutcome::Failed { reason } => {
            eprintln!("cip-trace: job failed: {reason}");
            std::process::exit(1);
        }
        JobOutcome::Cancelled => {
            eprintln!("cip-trace: job was cancelled");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args = cli::parse(parse_args);
    if let Err(e) = args.opts.validate() {
        cli::fail(e);
    }
    if let Some(addr) = args.server.clone() {
        run_remote(&addr, &args);
        return;
    }
    eprintln!("tracing scenario '{}' across {} rank threads...", args.opts.scenario, args.opts.k);
    let report = run_traced(&args.opts).unwrap_or_else(|e| {
        eprintln!("cip-trace: {e}");
        std::process::exit(1);
    });
    report.verify_totals().expect("telemetry counters must equal the executed TrafficLog totals");

    eprintln!(
        "\nexecuted {} steps: halo {}, shipments {}, migrated {}, pairs {} \
         ({} repartitions, {} rank losses)",
        report.steps,
        report.halo,
        report.shipments,
        report.migrated,
        report.contact_pairs,
        report.repartitions,
        report.rank_losses
    );
    print!("{}", report.summary().render());

    let dir = std::path::Path::new(&args.out_dir);
    std::fs::create_dir_all(dir).expect("create output directory");
    let trace_path = dir.join("trace.json");
    std::fs::write(&trace_path, report.chrome_trace()).expect("write trace.json");
    let summary_path = dir.join("summary.json");
    std::fs::write(&summary_path, report.summary_json()).expect("write summary.json");
    eprintln!(
        "\nwrote {} and {} (load the trace in about:tracing or ui.perfetto.dev)",
        trace_path.display(),
        summary_path.display()
    );
}
