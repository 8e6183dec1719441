//! Quickstart: partition one contact/impact mesh snapshot with MCML+DT
//! and inspect every stage of the pipeline.
//!
//! Run with: `cargo run --release --example quickstart`

use cip::contact::{n_remote, DtreeFilter};
use cip::core::{contact_graph, decompose, gather, surface_elements, McmlDtConfig};
use cip::dtree::{induce, DtreeConfig};
use cip::graph::{edge_cut, total_comm_volume, Partition};
use cip::sim::SimConfig;
use cip::telemetry::Recorder;

fn main() {
    let k = 8;

    // 1. A contact/impact workload: projectile penetrating two plates.
    //    (Swap in your own mesh by constructing `cip::mesh::Mesh` directly.)
    let sim = cip::sim::run(&SimConfig::small());
    println!(
        "workload: {} nodes, {} elements, {} snapshots",
        sim.base.num_nodes(),
        sim.base.num_elements(),
        sim.len()
    );

    // 2. Build the two-constraint nodal graph of the first snapshot:
    //    constraint 0 = FE work (all nodes), constraint 1 = contact work
    //    (contact nodes only); contact-contact edges weighted 5.
    let cfg = McmlDtConfig::paper(k);
    let snap = &sim.snapshots[0];
    let graph = contact_graph(&sim, 0, cfg.graph_options(), &Recorder::disabled());
    let g = &graph.graph;
    let contact = &snap.contact.contact_nodes;
    println!(
        "nodal graph: {} vertices, {} edges, {} contact points",
        g.nv(),
        g.ne(),
        contact.len()
    );

    // 3. Multi-constraint multilevel partitioning, then the DT-friendly
    //    correction: subdomain boundaries become piecewise axes-parallel
    //    so the search tree stays small.
    let dec = decompose(&graph, &snap.points, &cfg);
    let stats = dec.stats.expect("the paper's configuration corrects");
    let p = Partition::from_assignment(g, k, dec.asg.clone());
    println!(
        "partition: cut {}, FE imbalance {:.3}, contact imbalance {:.3}",
        edge_cut(g, &dec.asg),
        p.imbalance(0),
        p.imbalance(1)
    );
    println!(
        "DT-friendly: {} regions, {} vertices relabeled, {} moved back by refinement",
        stats.regions, stats.relabeled, stats.refined
    );

    // 4. Induce the contact-search tree over the contact points.
    let labels = gather(contact, &dec.node_parts);
    let tree = induce(&gather(contact, &snap.points), &labels, k, &DtreeConfig::search_tree());
    println!("search tree: {} nodes, depth {}", tree.num_nodes(), tree.depth());

    // 5. Global search: ship each surface element to the subdomains whose
    //    leaf regions its bounding box intersects.
    let elements = surface_elements(&snap.contact.faces, &snap.points, &dec.node_parts);
    let shipped = n_remote(&elements, &DtreeFilter::new(&tree, k));
    println!(
        "global search: {} of {} surface elements shipped to remote parts (NRemote)",
        shipped,
        elements.len()
    );

    // 6. The FE-phase communication volume of the same decomposition.
    println!("FE halo-exchange volume (FEComm): {}", total_comm_volume(g, &dec.asg));
}
