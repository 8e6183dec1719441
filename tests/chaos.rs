//! Chaos suite (DESIGN.md §6b): deterministic fault injection against the
//! step executor and the traced driver.
//!
//! Three families of guarantees:
//!
//! * **zero-cost arming** — an armed all-zero-rate plan produces output
//!   bit-identical to the disabled injector;
//! * **rank loss** — killing any rank makes the step fail with a typed
//!   [`RuntimeError::RankLost`] naming exactly the victim, and the traced
//!   driver recovers by repartitioning over the survivors and re-running
//!   the step while still detecting exactly the clean run's contact pairs;
//! * **message faults** (seeded sweep) — under random drop/duplicate/delay/
//!   reorder rates the repair protocol converges: the step succeeds, the
//!   detected pairs equal the serial oracle, and the traffic invariants
//!   (first-transmission halo volume, `Done` count) hold exactly.
//!
//! CI sweeps seeds without recompiling via the `CHAOS_SEED` env var: it
//! xor-perturbs every plan seed used here.

use cip::contact::serial_contact_pairs;
mod common;

use cip::base::rng::sweep;
use cip::runtime::{ExecOptions, FaultPlan, FaultRates, KillSpec, RuntimeError, StepOutput};
use cip::trace::{run_traced, ChaosOptions, TraceOptions, TransportKind};
use cip::transport::InProcess;
use common::{env_seed, run_batch, stage};
use std::time::Duration;

/// Executes one step (a one-element batch) of the tiny scenario at `k`
/// ranks under `fault` and `opts`, also returning the serial oracle's
/// pairs and the decomposition's halo volume for invariant checks.
fn run_step(
    k: usize,
    fault: Option<FaultPlan>,
    opts: &ExecOptions,
) -> (Result<StepOutput, RuntimeError>, StepOutput2) {
    let staged = stage(k, &[5]);
    let out = run_batch(&staged, 0.4, &[fault], opts, &InProcess)
        .map(|mut outs| outs.remove(0))
        .map_err(|e| e.error);
    let s = &staged[0];
    let oracle = StepOutput2 {
        serial: serial_contact_pairs(&s.elements, &s.bodies, 0.4),
        halo: s.decomposition.total_halo_volume(),
    };
    (out, oracle)
}

/// The side-band facts a chaos assertion needs.
struct StepOutput2 {
    serial: Vec<cip::contact::ContactPair>,
    halo: u64,
}

fn chaos_exec_options() -> ExecOptions {
    ExecOptions { timeout: Duration::from_millis(300), retries: 2, ..ExecOptions::default() }
}

#[test]
fn armed_quiet_plan_is_bit_identical_to_disabled() {
    let (clean, _) = run_step(3, None, &ExecOptions::default());
    let quiet = Some(FaultPlan::quiet(11 ^ env_seed()));
    let (armed, _) = run_step(3, quiet, &chaos_exec_options());
    assert_eq!(
        clean.expect("clean step executes"),
        armed.expect("quiet-armed step executes"),
        "arming the injector with zero rates must not change anything"
    );
}

#[test]
fn killing_each_rank_is_detected_as_rank_lost() {
    for k in [2usize, 3, 4] {
        for victim in 0..k as u32 {
            let plan = FaultPlan {
                kill: Some(KillSpec { rank: victim, after_sends: 0 }),
                ..FaultPlan::quiet(5 ^ env_seed())
            };
            let opts = ExecOptions {
                timeout: Duration::from_millis(150),
                retries: 1,
                ..ExecOptions::default()
            };
            let (out, _) = run_step(k, Some(plan), &opts);
            match out {
                Err(RuntimeError::RankLost { dead }) => assert_eq!(dead, vec![victim], "k={k}"),
                other => panic!("k={k} victim={victim}: expected RankLost, got {other:?}"),
            }
        }
    }
}

#[test]
fn driver_recovers_from_any_single_rank_kill() {
    let clean = run_traced(&TraceOptions {
        scenario: "tiny".into(),
        k: 3,
        snapshots: Some(4),
        chaos: None,
        ..TraceOptions::default()
    })
    .expect("clean run");
    for victim in 0..3u32 {
        let opts = TraceOptions {
            scenario: "tiny".into(),
            k: 3,
            snapshots: Some(4),
            chaos: Some(ChaosOptions {
                seed: 13 ^ env_seed(),
                rates: FaultRates::default(),
                kill: Some((1, victim)),
                timeout_ms: 300,
                retries: 2,
            }),
            ..TraceOptions::default()
        };
        let report = run_traced(&opts).expect("chaos run");
        assert_eq!(report.rank_losses, 1, "victim {victim}");
        assert!(report.repartitions >= 1, "victim {victim}");
        assert_eq!(
            report.contact_pairs, clean.contact_pairs,
            "victim {victim}: recovery must still detect every pair"
        );
        report.verify_totals().expect("counters equal executed traffic");
    }
}

/// Losing one of two ranks leaves nothing to partition: the session
/// collapses to one rank and finishes on the serial contact search, on
/// every transport, with the clean run's pairs and exact counters.
#[test]
fn losing_one_of_two_ranks_falls_back_to_a_serial_run() {
    let tiny = |transport: TransportKind, chaos: Option<ChaosOptions>| TraceOptions {
        scenario: "tiny".into(),
        k: 2,
        snapshots: Some(6),
        transport,
        chaos,
        ..TraceOptions::default()
    };
    let clean = run_traced(&tiny(TransportKind::InProcess, None)).expect("clean run");
    let kill = ChaosOptions {
        seed: 13 ^ env_seed(),
        rates: FaultRates::default(),
        kill: Some((3, 1)),
        timeout_ms: 300,
        retries: 2,
    };
    for transport in
        [TransportKind::InProcess, TransportKind::TcpThreads { bind: "127.0.0.1:0".into() }]
    {
        let what = format!("{transport:?}");
        let report = run_traced(&tiny(transport, Some(kill.clone()))).expect("chaos run");
        assert_eq!(report.rank_losses, 1, "{what}");
        assert_eq!(report.recorder.counter_value("recovery.serial_fallback"), 1, "{what}");
        report.verify_totals().expect("counters equal executed traffic");
        assert_eq!(report.contact_pairs, clean.contact_pairs, "{what}: serial search lost pairs");
    }
}

/// Dropped, duplicated, delayed and reordered messages are detected
/// and repaired: the step succeeds, detection equals the serial
/// oracle, and first-transmission traffic invariants hold exactly.
#[test]
fn message_faults_converge_to_the_fault_free_answer() {
    sweep(8, |rng| {
        let k = 3;
        let mut permille = |max: u32| rng.range_u32(max + 1) as u16;
        let rates = FaultRates {
            drop_permille: permille(250),
            dup_permille: permille(150),
            delay_permille: permille(150),
            reorder_permille: permille(150),
        };
        let plan = FaultPlan { rates, ..FaultPlan::quiet(rng.next_u64() ^ env_seed()) };
        let (out, oracle) = run_step(k, Some(plan), &chaos_exec_options());
        let out = out.expect("message faults alone must never fail the step");
        assert_eq!(&out.contact_pairs, &oracle.serial);
        assert_eq!(out.ghost_mismatches, 0);
        assert_eq!(out.traffic.total_halo(), oracle.halo);
        assert_eq!(out.traffic.phases.halo_units, oracle.halo);
        assert_eq!(out.traffic.phases.done_msgs, (k * (k - 1)) as u64);
    });
}

/// The traced driver under message chaos matches its clean twin on
/// every executed total.
#[test]
fn traced_message_chaos_matches_clean_run() {
    let base = TraceOptions {
        scenario: "tiny".into(),
        k: 2,
        snapshots: Some(3),
        chaos: None,
        ..TraceOptions::default()
    };
    let clean = run_traced(&base).expect("clean run");
    sweep(8, |rng| {
        let chaotic = run_traced(&TraceOptions {
            chaos: Some(ChaosOptions {
                seed: rng.next_u64() ^ env_seed(),
                rates: FaultRates {
                    drop_permille: 150,
                    dup_permille: 80,
                    delay_permille: 80,
                    reorder_permille: 80,
                },
                kill: None,
                timeout_ms: 300,
                retries: 2,
            }),
            ..base.clone()
        })
        .expect("chaos run");
        assert_eq!(chaotic.rank_losses, 0);
        assert_eq!(chaotic.contact_pairs, clean.contact_pairs);
        assert_eq!(chaotic.halo, clean.halo);
        chaotic.verify_totals().expect("counters equal executed traffic");
    });
}
