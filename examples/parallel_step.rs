//! Execute one contact/impact time step across logical ranks — threads
//! with explicit message passing — and check the measured traffic against
//! the analytic metrics the evaluation reports. This is the "aha" of the
//! reproduction: FEComm and NRemote are not estimates, they are the exact
//! message counts of a runnable parallel step.
//!
//! Run with: `cargo run --release --example parallel_step`

use cip::contact::DtreeFilter;
use cip::core::{
    contact_graph, decompose, face_bodies, gather, halo_traffic, surface_elements, McmlDtConfig,
};
use cip::dtree::{induce, DtreeConfig};
use cip::runtime::{connect_ranks, execute_steps, ExecOptions, HaloPlan, StepInput};
use cip::sim::SimConfig;
use cip::telemetry::Recorder;
use cip::transport::InProcess;

fn main() {
    let k = 8;
    let mut cfg = SimConfig::small();
    cfg.snapshots = 30;
    let sim = cip::sim::run(&cfg);

    // Decompose on snapshot 0 with the full MCML+DT pipeline.
    let recorder = Recorder::disabled();
    let mcml = McmlDtConfig::paper(k);
    let graph0 = contact_graph(&sim, 0, mcml.graph_options(), &recorder);
    let points0 = &sim.snapshots[0].points;
    let node_parts = decompose(&graph0, points0, &mcml).node_parts;

    // One mesh for the whole run; each one-step batch gets its own epoch.
    let opts = ExecOptions::default();
    let mut seats = connect_ranks(&InProcess, k, &opts, &recorder).expect("in-process mesh");

    println!("executing snapshots across {k} rank threads:\n");
    println!(
        "{:>5} {:>9} {:>11} {:>11} {:>9} {:>7}",
        "snap", "halo", "halo=pred?", "shipments", "pairs", "ghosts"
    );
    for i in [0usize, 10, 20, 29] {
        let snap = &sim.snapshots[i];
        let topology = sim.topology(i, &recorder);
        let (xadj, adjncy, nodes) = (topology.xadj(), topology.adjncy(), topology.node_of_vertex());
        let asg_now = gather(nodes, &node_parts);
        let elements = surface_elements(&snap.contact.faces, &snap.points, &node_parts);
        let bodies = face_bodies(&snap.contact.faces);
        let decomposition = HaloPlan::build(xadj, adjncy, nodes, &asg_now, k)
            .decomposition(elements.iter().map(|e| e.owner));
        let contact = &snap.contact.contact_nodes;
        let labels = gather(contact, &node_parts);
        let tree = induce(&gather(contact, &snap.points), &labels, k, &DtreeConfig::search_tree());
        let filter = DtreeFilter::new(&tree, k);

        let input = StepInput {
            decomposition: &decomposition,
            positions: &snap.points,
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
        let predicted = halo_traffic(xadj, adjncy, &asg_now, k);
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
