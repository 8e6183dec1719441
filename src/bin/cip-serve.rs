//! `cip-serve` — the multi-tenant partition/trace job server.
//!
//! Binds a TCP listener, spawns a bounded worker pool, and serves
//! partition/trace jobs submitted on the versioned binary wire format
//! (`cip_server::protocol::JobMsg`). Each job is a canonical
//! `cip::service::JobRequest` payload; results are deterministic
//! `TraceTotals` bytes, so the content-hash cache answers repeated
//! submissions bit-identically without recomputation.
//!
//! The first stdout line is `listening on ADDR` — scripts bind to port 0
//! and parse the line to discover the real port. The process then serves
//! until stdin reaches EOF (or a `quit` line), which triggers a graceful
//! drain: admission stops, in-flight jobs get `--drain-ms` to finish
//! (stragglers are cancelled), workers join, and the final
//! `server.jobs.*` counters are printed to stderr — even when the accept
//! loop was blocked in `accept()` with no client in sight (shutdown
//! nudges it loose).
//!
//! ```text
//! cip-serve --bind 127.0.0.1:0 --workers 4
//! cip-trace --scenario head_on --k 4 --server 127.0.0.1:PORT
//! ```

use cip::service::TraceJobRunner;
use cip_server::{Server, ServerConfig};
use cip_telemetry::Recorder;
use std::io::BufRead;

struct Args {
    cfg: ServerConfig,
}

/// Reports a usage error and exits (exit code 2, like the other CLIs).
fn usage_error(msg: &str) -> ! {
    eprintln!("cip-serve: {msg}");
    std::process::exit(2);
}

/// Parses `--flag N` as an integer >= 1, or exits with a usage error.
fn positive(flag: &str, value: &str) -> usize {
    match value.parse::<usize>() {
        Ok(n) if n >= 1 => n,
        _ => usage_error(&format!("{flag} takes an integer >= 1, got '{value}'")),
    }
}

fn parse_args() -> Args {
    let mut args =
        Args { cfg: ServerConfig { recorder: Recorder::enabled(), ..ServerConfig::default() } };
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--bind" if i + 1 < argv.len() => {
                args.cfg.bind = argv[i + 1].clone();
                i += 2;
            }
            "--workers" if i + 1 < argv.len() => {
                args.cfg.workers = positive("--workers", &argv[i + 1]);
                i += 2;
            }
            "--queue" if i + 1 < argv.len() => {
                args.cfg.queue_capacity = positive("--queue", &argv[i + 1]);
                i += 2;
            }
            "--deadline-ms" if i + 1 < argv.len() => {
                args.cfg.job_deadline =
                    Some(std::time::Duration::from_millis(
                        positive("--deadline-ms", &argv[i + 1]) as u64
                    ));
                i += 2;
            }
            "--drain-ms" if i + 1 < argv.len() => {
                let ms = match argv[i + 1].parse::<u64>() {
                    Ok(n) => n,
                    Err(_) => usage_error(&format!(
                        "--drain-ms takes an integer >= 0, got '{}'",
                        argv[i + 1]
                    )),
                };
                args.cfg.drain_timeout = std::time::Duration::from_millis(ms);
                i += 2;
            }
            "--max-payload" if i + 1 < argv.len() => {
                args.cfg.max_payload = positive("--max-payload", &argv[i + 1]);
                i += 2;
            }
            "--cache-entries" if i + 1 < argv.len() => {
                args.cfg.cache_max_entries = positive("--cache-entries", &argv[i + 1]);
                i += 2;
            }
            "--cache-bytes" if i + 1 < argv.len() => {
                args.cfg.cache_max_bytes = positive("--cache-bytes", &argv[i + 1]);
                i += 2;
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: cip-serve [--bind ADDR:PORT] [--workers N>=1] [--queue N>=1] \
                     [--deadline-ms N>=1] [--drain-ms N>=0] [--max-payload BYTES>=1] \
                     [--cache-entries N>=1] [--cache-bytes BYTES>=1]"
                );
                std::process::exit(0);
            }
            other => usage_error(&format!("unknown argument '{other}' (try --help)")),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let mut server = match Server::start(TraceJobRunner, &args.cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cip-serve: {e}");
            std::process::exit(1);
        }
    };
    // Scripts parse this exact line to discover the OS-assigned port.
    println!("listening on {}", server.addr());
    eprintln!(
        "cip-serve: {} workers, queue capacity {} (EOF or 'quit' on stdin stops the server)",
        args.cfg.workers, args.cfg.queue_capacity
    );

    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line.trim() == "quit" => break,
            Ok(_) => {}
            Err(_) => break,
        }
    }

    server.shutdown();
    let stats = server.stats();
    eprintln!(
        "cip-serve: shut down — submitted {}, completed {}, cached {}, cancelled {}, failed {}, \
         rejected {}, panicked {}, deadline-exceeded {}, evictions {}, respawned {}",
        stats.submitted,
        stats.completed,
        stats.cache_hits,
        stats.cancelled,
        stats.failed,
        stats.rejected,
        stats.panicked,
        stats.deadline_exceeded,
        stats.cache_evictions,
        stats.workers_respawned
    );
    let rec = &args.cfg.recorder;
    eprintln!(
        "cip-serve: memo hits {}, misses {}",
        rec.counter_value("server.memo.hits"),
        rec.counter_value("server.memo.misses")
    );
}
