//! Execute the **whole** simulation sequence on rank threads: per
//! snapshot, run the halo exchange + global search + local search step
//! (`cip-runtime`), optionally repartitioning on the §4.3 hybrid schedule
//! and executing the resulting data migration. Prints executed (not
//! estimated) cumulative traffic for both the fixed and hybrid policies.
//!
//! Usage: `cargo run --release -p cip-bench --bin exec_sequence [--scale ...] [--k 8] [--snapshots N]`

use cip_contact::DtreeFilter;
use cip_core::{
    contact_graph, decompose, face_bodies, gather, merge_live, repartition_step, surface_elements,
    McmlDtConfig, RepartitionMethod,
};
use cip_dtree::{induce, DtreeConfig};
use cip_runtime::{
    build_migration, connect_ranks, execute_steps, ExecOptions, HaloPlan, StepInput,
};
use cip_sim::SimResult;
use cip_telemetry::{json_struct, Recorder};
use cip_transport::InProcess;

#[derive(Default)]
struct Totals {
    halo: u64,
    shipments: u64,
    migrated_nodes: u64,
    contact_pairs_detected: u64,
    repartitions: usize,
}

json_struct!(Totals { halo, shipments, migrated_nodes, contact_pairs_detected, repartitions });

fn run_policy(sim: &SimResult, k: usize, hybrid_period: Option<usize>) -> Totals {
    // The paper's decomposition of snapshot 0; the hybrid policy then
    // diffuses, without the DT-friendly correction.
    let recorder = Recorder::disabled();
    let cfg =
        McmlDtConfig { repartition_method: RepartitionMethod::Diffusion, ..McmlDtConfig::paper(k) };
    let graph0 = contact_graph(sim, 0, cfg.graph_options(), &recorder);
    let mut node_parts = decompose(&graph0, &sim.snapshots[0].points, &cfg).node_parts;
    let cfg = McmlDtConfig { dt_friendly: None, ..cfg };

    let opts = ExecOptions::default();
    let mut seats = connect_ranks(&InProcess, k, &opts, &recorder).expect("in-process mesh");
    let mut totals = Totals::default();
    for (i, snap) in sim.snapshots.iter().enumerate() {
        // Hybrid policy: repartition by diffusion, execute the migration.
        if hybrid_period.is_some_and(|period| i > 0 && i % period == 0) {
            let graph = contact_graph(sim, i, cfg.graph_options(), &recorder);
            let new_node_parts = repartition_step(&graph, &snap.points, &node_parts, k, &cfg);
            let plan = build_migration(&node_parts, &new_node_parts, k);
            totals.migrated_nodes += plan.total_moved();
            totals.repartitions += 1;
            merge_live(&mut node_parts, &new_node_parts);
        }

        let topology = sim.topology(i, &recorder);
        let asg_now = gather(topology.node_of_vertex(), &node_parts);
        let elements = surface_elements(&snap.contact.faces, &snap.points, &node_parts);
        let bodies = face_bodies(&snap.contact.faces);
        let decomposition = HaloPlan::build(
            topology.xadj(),
            topology.adjncy(),
            topology.node_of_vertex(),
            &asg_now,
            k,
        )
        .decomposition(elements.iter().map(|e| e.owner));
        let nodes = &snap.contact.contact_nodes;
        let (positions, labels) = (gather(nodes, &snap.points), gather(nodes, &node_parts));
        let tree = induce(&positions, &labels, k, &DtreeConfig::search_tree());
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
        let out = execute_steps(&[input], &[], &opts, None, &mut seats, i as u32)
            .expect("step executes without injected faults")
            .remove(0);
        assert_eq!(out.ghost_mismatches, 0);
        totals.halo += out.traffic.total_halo();
        totals.shipments += out.traffic.total_shipments();
        totals.contact_pairs_detected += out.contact_pairs.len() as u64;
    }
    totals
}

fn main() {
    let args = cip_bench::HarnessArgs::parse(&[8]);
    let k = args.ks[0];
    let mut cfg = args.scale.sim_config();
    cfg.snapshots = args.snapshots.unwrap_or(30);
    let sim = cip_sim::run(&cfg);
    println!(
        "executing {} snapshots across {k} rank threads ({} nodes)\n",
        sim.len(),
        sim.base.num_nodes()
    );

    println!(
        "{:<22} {:>10} {:>11} {:>10} {:>8} {:>8}",
        "policy", "halo", "shipments", "migrated", "reparts", "pairs"
    );
    let mut results = Vec::new();
    for (name, period) in [("fixed", None), ("hybrid (period 10)", Some(10))] {
        let t = run_policy(&sim, k, period);
        println!(
            "{:<22} {:>10} {:>11} {:>10} {:>8} {:>8}",
            name, t.halo, t.shipments, t.migrated_nodes, t.repartitions, t.contact_pairs_detected
        );
        results.push((name.to_string(), t));
    }
    println!("\nevery number above is an executed message count (threads + channels),");
    println!("not an analytic estimate; ghost consistency was asserted on every step.");
    cip_bench::write_json("exec_sequence", &results);
}
