//! Step-executor suite against ground truth (DESIGN.md §6b).
//!
//! The rank loop overlaps halo sends, shipments, and contact searches
//! across ranks *and* adjacent steps — and none of that may show in the
//! result. This suite proves it end to end through the traced driver:
//! multi-step sequences with diffusion repartitioning (and therefore
//! migration) in the middle must execute exactly the totals an
//! independent serial loop predicts (`common::serial_reference`: halo
//! units, element shipments, migrated nodes, contact pairs, repartition
//! count) at 1, 2, 3, 4 and 8 ranks, and keep executing them at every
//! lookahead, batch depth and thread transport. Chaos variants repeat
//! the comparison under seeded message faults (CI sweeps seeds 7/21/1337
//! via `CHAOS_SEED`), and a kill variant checks that a rank lost
//! mid-batch yields the recovery the one-step-at-a-time core yields.

mod common;

use cip::runtime::FaultRates;
use cip::trace::{run_traced, ChaosOptions, TraceOptions, TransportKind};
use common::{env_seed, message_chaos, serial_reference, totals};

/// A tiny run with repartitioning mid-sequence (period 3 over 7 steps →
/// migration happens inside the batched region, so `Migrate` payloads
/// ride step 0 of the batches that follow a boundary).
fn opts(k: usize) -> TraceOptions {
    TraceOptions {
        scenario: "tiny".into(),
        k,
        snapshots: Some(7),
        repartition_period: Some(3),
        ..TraceOptions::default()
    }
}

/// The degenerate settings of the one core: every rank finishes a step
/// before it sends the next, and every batch is one step.
fn one_step_at_a_time(opts: TraceOptions) -> TraceOptions {
    TraceOptions { lookahead: 1, max_batch: 1, ..opts }
}

#[test]
fn executed_totals_equal_the_serial_reference_across_rank_counts() {
    let odd = TraceOptions { snapshots: Some(5), seed: 7, repartition_period: Some(2), ..opts(3) };
    for o in [opts(1), opts(2), odd, opts(4), opts(8)] {
        let run = run_traced(&o).expect("traced run");
        assert_eq!(totals(&run), serial_reference(&o), "k={}", o.k);
        assert_eq!(run.rank_losses, 0, "k={}", o.k);
        run.verify_totals().expect("counters equal executed traffic");
    }
}

#[test]
fn lookahead_and_batch_depth_do_not_change_the_answer() {
    let expected = serial_reference(&opts(4));
    let tcp = TransportKind::TcpThreads { bind: "127.0.0.1:0".into() };
    for transport in [TransportKind::InProcess, tcp] {
        for lookahead in [1usize, 2, 4] {
            for max_batch in [1usize, 2, 8] {
                let o =
                    TraceOptions { lookahead, max_batch, transport: transport.clone(), ..opts(4) };
                let run = run_traced(&o).expect("traced run");
                assert_eq!(
                    totals(&run),
                    expected,
                    "lookahead={lookahead} max_batch={max_batch} {transport:?}"
                );
            }
        }
    }
}

#[test]
fn message_chaos_repairs_to_the_clean_totals() {
    let expected = serial_reference(&opts(2));
    for seed in [7u64, 21, 1337] {
        let noisy = TraceOptions { chaos: Some(message_chaos(seed)), ..opts(2) };
        let stepwise = run_traced(&one_step_at_a_time(noisy.clone())).expect("stepwise chaos run");
        let batched = run_traced(&noisy).expect("batched chaos run");
        // First-transmission traffic is fault-invariant, so both equal
        // the clean prediction, not just each other.
        assert_eq!(totals(&stepwise), expected, "seed {seed}");
        assert_eq!(totals(&batched), expected, "seed {seed}");
        assert_eq!(batched.rank_losses, 0, "seed {seed}: faults repair, nobody dies");
        assert_eq!(stepwise.rank_losses, 0, "seed {seed}");
    }
}

#[test]
fn kill_mid_batch_recovers_like_the_one_step_core() {
    let chaos = ChaosOptions {
        seed: 13 ^ env_seed(),
        rates: FaultRates::default(),
        kill: Some((2, 1)),
        timeout_ms: 300,
        retries: 2,
    };
    let killed = TraceOptions { chaos: Some(chaos), ..opts(3) };
    let stepwise = run_traced(&one_step_at_a_time(killed.clone())).expect("stepwise kill run");
    let batched = run_traced(&killed).expect("batched kill run recovers");
    assert_eq!(stepwise.rank_losses, 1);
    assert_eq!(batched.rank_losses, 1);
    assert!(batched.repartitions >= 1, "the driver repartitioned over the survivors");
    // Recovery repartitions over the survivors, so post-kill traffic does
    // not depend on where the batch was cut: every total must agree.
    assert_eq!(totals(&batched), totals(&stepwise));
    // And the detected pairs are the clean run's at any rank count.
    assert_eq!(batched.contact_pairs, serial_reference(&opts(3)).4);
    batched.verify_totals().expect("counters equal executed traffic");
    stepwise.verify_totals().expect("counters equal executed traffic");
}
