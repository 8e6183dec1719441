//! `cip-worker` — one rank of a multi-process traced run.
//!
//! Spawned by `cip-trace --transport tcp` (one process per rank), not
//! meant to be run by hand. The worker dials the driver's control
//! address, joins the rank-to-rank TCP mesh, and executes the batches
//! the driver assigns until it is told to exit — or until its fault
//! plan kills its rank, at which point the process exits for real and
//! the driver recovers over the survivors. See `cip::worker`.

use cip::worker::{run_worker, WorkerArgs};

/// Bad arguments: one line on stderr, exit code 2.
fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("cip-worker: {message}");
    std::process::exit(2);
}

/// `raw` as the integer `flag` takes, or the one-line failure.
fn integer(flag: &str, raw: &str) -> usize {
    raw.parse().unwrap_or_else(|_| fail(format!("{flag} takes an integer, got '{raw}'")))
}

fn parse_args() -> WorkerArgs {
    let mut args = WorkerArgs {
        connect: String::new(),
        rank: usize::MAX,
        ranks: 0,
        scenario: "tiny".to_string(),
        snapshots: None,
    };
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--connect" if i + 1 < argv.len() => args.connect = argv[i + 1].clone(),
            "--rank" if i + 1 < argv.len() => args.rank = integer("--rank", &argv[i + 1]),
            "--ranks" if i + 1 < argv.len() => args.ranks = integer("--ranks", &argv[i + 1]),
            "--scenario" if i + 1 < argv.len() => args.scenario = argv[i + 1].clone(),
            "--snapshots" if i + 1 < argv.len() => {
                args.snapshots = Some(integer("--snapshots", &argv[i + 1]));
            }
            other => fail(format!(
                "unknown argument '{other}' (cip-worker is spawned by cip-trace --transport tcp)"
            )),
        }
        i += 2;
    }
    if args.connect.is_empty() || args.ranks == 0 || args.rank >= args.ranks {
        fail("usage: cip-worker --connect ADDR --rank R --ranks K --scenario NAME [--snapshots N]");
    }
    args
}

fn main() {
    let args = parse_args();
    if let Err(e) = run_worker(&args) {
        eprintln!("cip-worker rank {}: {e}", args.rank);
        std::process::exit(1);
    }
}
