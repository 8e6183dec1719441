//! Execute the **whole** simulation sequence on rank threads: per
//! snapshot, run the halo exchange + global search + local search step
//! (`cip-runtime`), optionally repartitioning on the §4.3 hybrid schedule
//! and executing the resulting data migration. Prints executed (not
//! estimated) cumulative traffic for both the fixed and hybrid policies.
//!
//! Usage: `cargo run --release -p cip-bench --bin exec_sequence [--scale ...] [--k 8] [--snapshots N]`

use cip_contact::DtreeFilter;
use cip_core::{dt_friendly_correct, DtFriendlyConfig, SnapshotView};
use cip_dtree::{induce, DtreeConfig};
use cip_partition::{diffusion_repartition, partition_kway, PartitionerConfig};
use cip_runtime::{
    build_decomposition, build_migration, connect_ranks, execute_steps, ExecOptions, StepInput,
};
use cip_sim::SimResult;
use cip_telemetry::json_struct;
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
    let pcfg = PartitionerConfig::default();
    let view0 = SnapshotView::build(sim, 0, 5);
    let mut asg = partition_kway(&view0.graph2.graph, k, &pcfg);
    let positions: Vec<_> =
        view0.graph2.node_of_vertex.iter().map(|&n| view0.mesh.points[n as usize]).collect();
    dt_friendly_correct(&view0.graph2.graph, &positions, k, &mut asg, &DtFriendlyConfig::default());
    let mut node_parts = view0.graph2.assignment_on_nodes(&asg);

    let opts = ExecOptions::default();
    let recorder = cip_telemetry::Recorder::disabled();
    let mut seats = connect_ranks(&InProcess, k, &opts, &recorder).expect("in-process mesh");
    let mut totals = Totals::default();
    for i in 0..sim.len() {
        let view = SnapshotView::build(sim, i, 5);

        // Hybrid policy: repartition by diffusion, execute the migration.
        if let Some(period) = hybrid_period {
            if i > 0 && i % period == 0 {
                let old: Vec<u32> =
                    view.graph2.node_of_vertex.iter().map(|&n| node_parts[n as usize]).collect();
                let fresh = diffusion_repartition(&view.graph2.graph, k, &old, &pcfg);
                let new_node_parts = view.graph2.assignment_on_nodes(&fresh);
                let plan = build_migration(&node_parts, &new_node_parts, k);
                totals.migrated_nodes += plan.total_moved();
                totals.repartitions += 1;
                for (n, &p) in new_node_parts.iter().enumerate() {
                    if p != u32::MAX {
                        node_parts[n] = p;
                    }
                }
            }
        }

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
