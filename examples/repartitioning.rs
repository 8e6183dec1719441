//! Adaptive repartitioning strategies (§4.3 of the paper): as the
//! penetration erodes elements and the contact set drifts, the fixed
//! partition goes out of balance. This example compares the two
//! repartitioning primitives — scratch-remap and local diffusion — on the
//! evolving workload, measuring restored balance vs. migration cost.
//!
//! Run with: `cargo run --release --example repartitioning`

use cip::core::{contact_graph, gather, McmlDtConfig};
use cip::graph::Partition;
use cip::partition::repart::migration_count;
use cip::partition::{diffusion_repartition, partition_kway, repartition, PartitionerConfig};
use cip::sim::SimConfig;
use cip::telemetry::Recorder;

fn main() {
    let k = 12;
    let mut cfg = SimConfig::small();
    cfg.snapshots = 20;
    let sim = cip::sim::run(&cfg);
    let pcfg = PartitionerConfig::default();
    let graph_at =
        |i| contact_graph(&sim, i, McmlDtConfig::paper(k).graph_options(), &Recorder::disabled());

    // Partition snapshot 0, then carry the assignment to the final
    // snapshot where erosion has changed the graph.
    let graph0 = graph_at(0);
    let node_parts = graph0.assignment_on_nodes(&partition_kway(&graph0.graph, k, &pcfg));

    let last = sim.len() - 1;
    let graph = graph_at(last);
    let carried = gather(&graph.node_of_vertex, &node_parts);
    let p_carried = Partition::from_assignment(&graph.graph, k, carried.clone());
    println!(
        "carried partition at snapshot {last}: FE imbalance {:.3}, contact imbalance {:.3}",
        p_carried.imbalance(0),
        p_carried.imbalance(1)
    );

    for (name, fresh) in [
        ("scratch-remap", repartition(&graph.graph, k, &carried, &pcfg)),
        ("diffusion", diffusion_repartition(&graph.graph, k, &carried, &pcfg)),
    ] {
        let p = Partition::from_assignment(&graph.graph, k, fresh.clone());
        let moved = migration_count(&carried, &fresh);
        println!(
            "{name:>14}: FE imbalance {:.3}, contact imbalance {:.3}, migrated {moved} of {} vertices ({:.1}%)",
            p.imbalance(0),
            p.imbalance(1),
            graph.graph.nv(),
            100.0 * moved as f64 / graph.graph.nv() as f64
        );
    }
    println!("\ndiffusion restores balance with far less data movement when the");
    println!("drift is mild — the trade-off §4.3 of the paper navigates with its");
    println!("hybrid update strategy.");
}
