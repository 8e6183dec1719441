//! The strongest claim this repository makes: the communication numbers
//! the evaluation reports (FEComm, NRemote) are the **exact message
//! counts of an executable parallel step**. These tests run the rank
//! executor on batches of real simulation snapshots under the MCML+DT
//! decomposition and assert, step for step and message-matrix for
//! message-matrix, that the executed traffic equals the metric
//! predictions — and that the distributed contact detection equals the
//! serial one.

mod common;

use cip::contact::{n_remote, serial_contact_pairs, DtreeFilter};
use cip::core::halo_traffic;
use cip::graph::comm_volume_of_rows;
use cip::runtime::{ExecOptions, StepOutput};
use cip::telemetry::Recorder;
use cip::transport::InProcess;
use common::{run_batch, stage};

/// Drives the staged snapshots as **one batch** through the one executor
/// and checks every step against ground truth computed without it: the
/// halo matrix against `halo_traffic` (and its total against
/// `comm_volume_of_rows`), the detected pairs against the serial search,
/// and — at tolerance 0, where the shipped boxes are the boxes NRemote is
/// defined on — the shipments against `n_remote`.
fn run_step(k: usize, snapshots: &[usize], tolerance: f64) -> Vec<StepOutput> {
    let staged = stage(k, snapshots);
    let outs = run_batch(&staged, tolerance, &[], &ExecOptions::default(), &InProcess)
        .expect("batch executes without injected faults");
    assert_eq!(outs.len(), snapshots.len());
    for ((out, s), &snapshot) in outs.iter().zip(&staged).zip(snapshots) {
        let at = format!("k={k} snapshot={snapshot}");
        assert_eq!(out.ghost_mismatches, 0, "{at}: halo exchange delivered stale ghosts");
        let topology = s.sim.topology(snapshot, &Recorder::disabled());
        let (xadj, adjncy) = (topology.xadj(), topology.adjncy());
        assert_eq!(out.traffic.halo, halo_traffic(xadj, adjncy, &s.asg, k).matrix, "{at}");
        assert_eq!(out.traffic.total_halo(), comm_volume_of_rows(xadj, adjncy, &s.asg), "{at}");
        let serial = serial_contact_pairs(&s.elements, &s.bodies, tolerance);
        assert_eq!(out.contact_pairs, serial, "{at}: executed step must detect the serial pairs");
        if tolerance == 0.0 {
            let filter = DtreeFilter::new(&s.tree, k);
            assert_eq!(out.traffic.total_shipments(), n_remote(&s.elements, &filter), "{at}");
        }
    }
    outs
}

#[test]
fn every_step_of_a_batch_matches_ground_truth_at_every_rank_count() {
    for k in [1usize, 2, 4, 8] {
        // Tolerance 0 pins NRemote; the capture tolerance the traced
        // driver uses pins the shipped-box inflation.
        for tolerance in [0.0, 0.4] {
            let outs = run_step(k, &[3, 4, 5, 6], tolerance);
            if k == 1 {
                assert!(outs.iter().all(|o| o.traffic.total_halo() == 0));
                assert!(outs.iter().all(|o| o.traffic.total_shipments() == 0));
            }
        }
    }
}

#[test]
fn executed_detection_equals_serial_across_penetration_stages() {
    run_step(3, &[2, 5, 9], 0.4);
}

#[test]
fn a_single_step_is_a_one_element_batch() {
    for k in [1usize, 2, 5, 8] {
        let batch = run_step(k, &[5, 6, 7], 0.3);
        let single = run_step(k, &[6], 0.3);
        assert_eq!(single[0], batch[1], "k={k}: a step's output does not depend on its batch");
    }
}
