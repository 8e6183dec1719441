//! Abrupt worker death (DESIGN.md §6c): a worker process that vanishes
//! *without reporting an outcome* — the `kill -9` case — must be
//! synthesized from control-channel EOF as a dead rank and recovered
//! like any other rank loss.
//!
//! This lives in its own test binary because the `CIP_WORKER_DIE` chaos
//! hook is a process-wide environment variable inherited by every pool
//! spawned from this process; isolating it here keeps the other
//! multi-process tests honest.

use cip::runtime::FaultRates;
use cip::trace::{run_traced, ChaosOptions, TraceOptions, TransportKind};
use std::path::PathBuf;

fn env_seed() -> u64 {
    std::env::var("CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0)
}

#[test]
fn abrupt_worker_death_is_synthesized_from_eof_and_recovered() {
    // Worker #1 will exit(137) the moment its first batch arrives — no
    // Done frame, no clean shutdown.
    std::env::set_var("CIP_WORKER_DIE", "1");

    let base = TraceOptions {
        scenario: "tiny".into(),
        k: 3,
        snapshots: Some(4),
        repartition_period: Some(10),
        chaos: None,
        ..TraceOptions::default()
    };
    let clean = run_traced(&base).expect("in-process run");

    let opts = TraceOptions {
        transport: TransportKind::Workers {
            bind: "127.0.0.1:0".into(),
            worker_bin: Some(PathBuf::from(env!("CARGO_BIN_EXE_cip-worker"))),
        },
        // A quiet armed plan changes nothing about the output but gives
        // the survivors short drain timeouts, so they declare the
        // vanished peer dead in seconds rather than executor defaults.
        chaos: Some(ChaosOptions {
            seed: 3 ^ env_seed(),
            rates: FaultRates::default(),
            kill: None,
            timeout_ms: 300,
            retries: 2,
        }),
        ..base
    };
    let report = run_traced(&opts).expect("driver recovers from the vanished worker");
    assert_eq!(report.rank_losses, 1, "the vanished worker is one lost rank");
    assert!(report.repartitions >= 1, "recovery repartitions over the survivors");
    assert_eq!(report.contact_pairs, clean.contact_pairs, "recovery must still detect every pair");
    report.verify_totals().expect("counters equal executed traffic");
}
