//! Execute one contact/impact time step across logical ranks — threads
//! with explicit message passing — and check the measured traffic against
//! the analytic metrics the evaluation reports. This is the "aha" of the
//! reproduction: FEComm and NRemote are not estimates, they are the exact
//! message counts of a runnable parallel step.
//!
//! Run with: `cargo run --release --example parallel_step`

use cip::contact::DtreeFilter;
use cip::core::{dt_friendly_correct, halo_traffic, DtFriendlyConfig, SnapshotView};
use cip::dtree::{induce, DtreeConfig};
use cip::partition::{partition_kway, PartitionerConfig};
use cip::runtime::{build_decomposition, connect_ranks, execute_steps, ExecOptions, StepInput};
use cip::sim::SimConfig;
use cip::transport::InProcess;

fn main() {
    let k = 8;
    let mut cfg = SimConfig::small();
    cfg.snapshots = 30;
    let sim = cip::sim::run(&cfg);

    // Decompose on snapshot 0 with the full MCML+DT pipeline.
    let view0 = SnapshotView::build(&sim, 0, 5);
    let mut asg = partition_kway(&view0.graph2.graph, k, &PartitionerConfig::default());
    let positions: Vec<_> =
        view0.graph2.node_of_vertex.iter().map(|&n| view0.mesh.points[n as usize]).collect();
    dt_friendly_correct(&view0.graph2.graph, &positions, k, &mut asg, &DtFriendlyConfig::default());
    let node_parts = view0.graph2.assignment_on_nodes(&asg);

    // One mesh for the whole run; each one-step batch gets its own epoch.
    let opts = ExecOptions::default();
    let recorder = cip::telemetry::Recorder::disabled();
    let mut seats = connect_ranks(&InProcess, k, &opts, &recorder).expect("in-process mesh");

    println!("executing snapshots across {k} rank threads:\n");
    println!(
        "{:>5} {:>9} {:>11} {:>11} {:>9} {:>7}",
        "snap", "halo", "halo=pred?", "shipments", "pairs", "ghosts"
    );
    for i in [0usize, 10, 20, 29] {
        let view = SnapshotView::build(&sim, i, 5);
        let asg_now: Vec<u32> =
            view.graph2.node_of_vertex.iter().map(|&n| node_parts[n as usize]).collect();
        let elements = view.surface_elements(&node_parts);
        let bodies = view.face_bodies();
        let owners: Vec<u32> = elements.iter().map(|e| e.owner).collect();
        let decomposition = build_decomposition(
            &view.graph2.graph,
            &view.graph2.node_of_vertex,
            &asg_now,
            &owners,
            k,
        );
        let labels = view.contact.labels_from_node_parts(&node_parts);
        let tree = induce(&view.contact.positions, &labels, k, &DtreeConfig::search_tree());
        let filter = DtreeFilter::new(&tree, k);

        let input = StepInput {
            decomposition: &decomposition,
            positions: &view.mesh.points,
            elements: &elements,
            bodies: &bodies,
            filter: &filter,
            tolerance: 0.4,
            recorder: recorder.clone(),
        };
        // A single step is a one-element batch.
        let out = execute_steps(&[input], &[], &opts, None, &mut seats, i as u32)
            .expect("step executes without injected faults")
            .remove(0);
        let predicted = halo_traffic(&view.graph2.graph, &asg_now, k);
        println!(
            "{:>5} {:>9} {:>11} {:>11} {:>9} {:>7}",
            i,
            out.traffic.total_halo(),
            if out.traffic.halo == predicted.matrix { "exact" } else { "MISMATCH" },
            out.traffic.total_shipments(),
            out.contact_pairs.len(),
            out.ghost_mismatches,
        );
        assert_eq!(out.traffic.halo, predicted.matrix);
        assert_eq!(out.ghost_mismatches, 0);
    }
    println!("\nevery executed halo matrix equals the FEComm prediction, message for message.");
}
