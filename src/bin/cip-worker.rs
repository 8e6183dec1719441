//! `cip-worker` — one rank of a multi-process traced run.
//!
//! Spawned by `cip-trace --transport tcp` (one process per rank), not
//! meant to be run by hand. The worker dials the driver's control
//! address, joins the rank-to-rank TCP mesh, and executes the batches
//! the driver assigns until it is told to exit — or until its fault
//! plan kills its rank, at which point the process exits for real and
//! the driver recovers over the survivors. See `cip::worker`.

use cip::worker::{run_worker, WorkerArgs};
use cip_base::cli::{self, Argv, UsageError};

fn parse_args(argv: &mut Argv) -> Result<WorkerArgs, UsageError> {
    let mut args = WorkerArgs {
        connect: String::new(),
        rank: usize::MAX,
        ranks: 0,
        scenario: "tiny".to_string(),
        snapshots: None,
    };
    while let Some(flag) = argv.next_flag() {
        match flag.as_str() {
            "--connect" => args.connect = argv.value(&flag)?,
            "--rank" => args.rank = argv.integer(&flag)?,
            "--ranks" => args.ranks = argv.integer(&flag)?,
            "--scenario" => args.scenario = argv.value(&flag)?,
            "--snapshots" => args.snapshots = Some(argv.integer(&flag)?),
            _ => {
                return Err(cli::unknown(
                    &flag,
                    "cip-worker is spawned by cip-trace --transport tcp",
                ))
            }
        }
    }
    if args.connect.is_empty() || args.ranks == 0 || args.rank >= args.ranks {
        return Err("usage: cip-worker --connect ADDR --rank R --ranks K --scenario NAME \
                    [--snapshots N]"
            .into());
    }
    Ok(args)
}

fn main() {
    let args = cli::parse(parse_args);
    if let Err(e) = run_worker(&args) {
        eprintln!("cip-worker rank {}: {e}", args.rank);
        std::process::exit(1);
    }
}
