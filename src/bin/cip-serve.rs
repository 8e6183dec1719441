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
use cip_base::cli::{self, Argv, UsageError};
use cip_server::{Server, ServerConfig};
use cip_telemetry::Recorder;
use std::io::BufRead;
use std::time::Duration;

fn parse_args(argv: &mut Argv) -> Result<ServerConfig, UsageError> {
    let mut cfg = ServerConfig { recorder: Recorder::enabled(), ..ServerConfig::default() };
    while let Some(flag) = argv.next_flag() {
        let mut positive =
            || argv.parse_with(&flag, "an integer >= 1", |v| v.parse().ok().filter(|&n| n >= 1));
        match flag.as_str() {
            "--bind" => cfg.bind = argv.value(&flag)?,
            "--workers" => cfg.workers = positive()?,
            "--queue" => cfg.queue_capacity = positive()?,
            "--deadline-ms" => cfg.job_deadline = Some(Duration::from_millis(positive()? as u64)),
            "--drain-ms" => {
                let ms = argv.parse_with(&flag, "an integer >= 0", |v| v.parse().ok())?;
                cfg.drain_timeout = Duration::from_millis(ms);
            }
            "--max-payload" => cfg.max_payload = positive()?,
            "--cache-entries" => cfg.cache_max_entries = positive()?,
            "--cache-bytes" => cfg.cache_max_bytes = positive()?,
            "--help" | "-h" => {
                eprintln!(
                    "usage: cip-serve [--bind ADDR:PORT] [--workers N>=1] [--queue N>=1] \
                     [--deadline-ms N>=1] [--drain-ms N>=0] [--max-payload BYTES>=1] \
                     [--cache-entries N>=1] [--cache-bytes BYTES>=1]"
                );
                std::process::exit(0);
            }
            _ => return Err(cli::unknown(&flag, "try --help")),
        }
    }
    Ok(cfg)
}

fn main() {
    let cfg = cli::parse(parse_args);
    let mut server = match Server::start(TraceJobRunner, &cfg) {
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
        cfg.workers, cfg.queue_capacity
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
    let rec = &cfg.recorder;
    eprintln!(
        "cip-serve: memo hits {}, misses {}",
        rec.counter_value("server.memo.hits"),
        rec.counter_value("server.memo.misses")
    );
}
