//! Regenerates the §4.2 parameter-sensitivity result: sweeping `max_p`
//! and `max_i` around the paper's recommended bands
//! `n/k^1.5 <= max_p <= n/k` and `n/k^2.5 <= max_i <= n/k^2`, reporting
//! the resulting search-tree size (NTNodes), edge-cut, and balance.
//!
//! Usage: `cargo run --release -p cip-bench --bin sweep_maxpi [--scale ...] [--k 25]`

use cip_bench::HarnessArgs;
use cip_core::{contact_graph, dt_friendly_correct, gather, DtFriendlyConfig, McmlDtConfig};
use cip_dtree::{induce, DtreeConfig};
use cip_graph::{cut_edges_of_rows, Partition};
use cip_partition::{partition_kway, PartitionerConfig};
use cip_telemetry::{json_struct, Recorder};

struct SweepRow {
    label: String,
    max_p: usize,
    max_i: usize,
    guidance_tree_nodes: usize,
    regions: usize,
    search_tree_nodes: usize,
    edge_cut: i64,
    imbalance_fe: f64,
    imbalance_contact: f64,
}

json_struct!(SweepRow {
    label,
    max_p,
    max_i,
    guidance_tree_nodes,
    regions,
    search_tree_nodes,
    edge_cut,
    imbalance_fe,
    imbalance_contact
});

fn main() {
    let args = HarnessArgs::parse(&[25]);
    let k = args.ks[0];
    let mut sim_cfg = args.scale.sim_config();
    sim_cfg.snapshots = args.snapshots.unwrap_or(1); // the sweep only needs snapshot 0
    let sim = cip_sim::run(&sim_cfg);
    let graph =
        contact_graph(&sim, 0, McmlDtConfig::paper(k).graph_options(), &Recorder::disabled());
    let g = &graph.graph;
    let snap = &sim.snapshots[0];
    let contact = &snap.contact.contact_nodes;
    let n = g.nv();
    let nf = n as f64;
    let kf = k as f64;

    println!("§4.2 sweep — n = {n}, k = {k}");
    println!(
        "recommended bands: max_p in [{:.0}, {:.0}], max_i in [{:.0}, {:.0}]\n",
        nf / kf.powf(1.5),
        nf / kf,
        nf / kf.powf(2.5),
        nf / kf.powf(2.0)
    );
    println!(
        "{:<22} {:>7} {:>7} {:>10} {:>8} {:>11} {:>9} {:>8} {:>8}",
        "setting",
        "max_p",
        "max_i",
        "guide tree",
        "regions",
        "search tree",
        "edge cut",
        "imb FE",
        "imb C"
    );

    // One partition; the sweep varies only the DT-friendly correction of it.
    let base_asg = partition_kway(g, k, &PartitionerConfig::default());
    let positions = gather(&graph.node_of_vertex, &snap.points);

    // The sweep: below-band, band edges, recommended midpoint, above-band.
    let settings: Vec<(String, usize, usize)> = vec![
        (
            "far below band".into(),
            (nf / kf.powf(2.0)) as usize,
            (nf / kf.powf(3.0)).max(1.0) as usize,
        ),
        ("band lower edge".into(), (nf / kf.powf(1.5)) as usize, (nf / kf.powf(2.5)) as usize),
        ("recommended mid".into(), (nf / kf.powf(1.25)) as usize, (nf / kf.powf(2.25)) as usize),
        ("band upper edge".into(), (nf / kf) as usize, (nf / kf.powf(2.0)) as usize),
        ("far above band".into(), (2.0 * nf / kf.powf(0.5)) as usize, (nf / kf) as usize),
    ];

    let mut rows = Vec::new();
    for (label, max_p, max_i) in settings {
        let max_p = max_p.max(4);
        let max_i = max_i.max(1);
        let mut asg = base_asg.clone();
        let cfg = DtFriendlyConfig {
            max_p: Some(max_p),
            max_i: Some(max_i),
            partitioner: PartitionerConfig::default(),
        };
        let stats = dt_friendly_correct(g, &positions, k, &mut asg, &cfg);

        // Evaluate the corrected partition: search tree over contact points.
        let labels = gather(contact, &graph.assignment_on_nodes(&asg));
        let search =
            induce(&gather(contact, &snap.points), &labels, k, &DtreeConfig::search_tree());
        let cut = cut_edges_of_rows(g.xadj(), g.adjncy(), &asg) as i64;
        let part = Partition::from_assignment(g, k, asg);
        let row = SweepRow {
            label: label.clone(),
            max_p,
            max_i,
            guidance_tree_nodes: stats.tree_nodes,
            regions: stats.regions,
            search_tree_nodes: search.num_nodes(),
            edge_cut: cut,
            imbalance_fe: part.imbalance(0),
            imbalance_contact: part.imbalance(1),
        };
        println!(
            "{:<22} {:>7} {:>7} {:>10} {:>8} {:>11} {:>9} {:>8.3} {:>8.3}",
            row.label,
            row.max_p,
            row.max_i,
            row.guidance_tree_nodes,
            row.regions,
            row.search_tree_nodes,
            row.edge_cut,
            row.imbalance_fe,
            row.imbalance_contact
        );
        rows.push(row);
    }

    println!("\nExpected shape (per §4.2): tiny max_p/max_i -> many regions (big guidance");
    println!("tree, easy balance); huge max_p/max_i -> few immovable regions (balance and");
    println!("cut degrade). The recommended band sits between the extremes.");
    cip_bench::write_json("sweep_maxpi", &rows);
}
