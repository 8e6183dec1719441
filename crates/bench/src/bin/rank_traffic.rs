//! Per-rank traffic analysis (extension beyond the paper's totals).
//!
//! Table 1 reports *total* communication counts; on a real machine the
//! step time is bounded by the busiest rank. This binary breaks each
//! communication kind down per rank for both algorithms on one snapshot:
//! halo exchange (FEComm), global-search shipments (NRemote), and — for
//! ML+RCB — the mesh-to-mesh transfer (M2MComm), reporting totals,
//! bottleneck-rank volume, traffic imbalance, and active pair counts.
//!
//! Usage: `cargo run --release -p cip-bench --bin rank_traffic [--scale ...] [--k 25]`

use cip_contact::{BboxFilter, DtreeFilter};
use cip_core::{
    contact_graph, decompose, gather, halo_traffic, m2m_traffic, shipment_traffic,
    surface_elements, McmlDtConfig, NodalGraphOptions, RankTraffic,
};
use cip_dtree::{induce, DtreeConfig};
use cip_geom::RcbTree;
use cip_partition::{max_weight_assignment, partition_kway, PartitionerConfig};
use cip_telemetry::{json_struct, Recorder};

struct TrafficRow {
    algorithm: String,
    kind: String,
    total: u64,
    bottleneck_rank_volume: u64,
    traffic_imbalance: f64,
    active_pairs: usize,
}

json_struct!(TrafficRow {
    algorithm,
    kind,
    total,
    bottleneck_rank_volume,
    traffic_imbalance,
    active_pairs
});

fn row(algorithm: &str, kind: &str, t: &RankTraffic) -> TrafficRow {
    TrafficRow {
        algorithm: algorithm.into(),
        kind: kind.into(),
        total: t.total(),
        bottleneck_rank_volume: t.max_rank_volume(),
        traffic_imbalance: t.traffic_imbalance(),
        active_pairs: t.active_pairs(),
    }
}

fn print_row(r: &TrafficRow) {
    println!(
        "{:<9} {:<12} {:>9} {:>12} {:>10.2} {:>12}",
        r.algorithm, r.kind, r.total, r.bottleneck_rank_volume, r.traffic_imbalance, r.active_pairs
    );
}

fn main() {
    let args = cip_bench::HarnessArgs::parse(&[25]);
    let k = args.ks[0];
    let mut sim_cfg = args.scale.sim_config();
    sim_cfg.snapshots = args.snapshots.unwrap_or(50);
    let sim = cip_sim::run(&sim_cfg);
    // Analyze a mid-penetration snapshot (craters open, both plates hit).
    let i = sim.len() / 2;
    let snap = &sim.snapshots[i];
    let contact = &snap.contact.contact_nodes;
    let positions = gather(contact, &snap.points);
    println!(
        "rank traffic at snapshot {i} (step {}), k = {k}, {} contact points\n",
        snap.step,
        contact.len()
    );
    println!(
        "{:<9} {:<12} {:>9} {:>12} {:>10} {:>12}",
        "algo", "kind", "total", "bottleneck", "imbalance", "active pairs"
    );

    let mut rows = Vec::new();

    // ---- MCML+DT ------------------------------------------------------
    let rec = Recorder::disabled();
    let mcml = McmlDtConfig::paper(k);
    let graph2 = contact_graph(&sim, i, mcml.graph_options(), &rec);
    let dec = decompose(&graph2, &snap.points, &mcml);
    let (xadj, adjncy) = (graph2.graph.xadj(), graph2.graph.adjncy());

    let halo = halo_traffic(xadj, adjncy, &dec.asg, k);
    rows.push(row("MCML+DT", "halo (FE)", &halo));

    let labels = gather(contact, &dec.node_parts);
    let tree = induce(&positions, &labels, k, &DtreeConfig::search_tree());
    let elements = surface_elements(&snap.contact.faces, &snap.points, &dec.node_parts);
    let ship = shipment_traffic(&elements, &DtreeFilter::new(&tree, k), k);
    rows.push(row("MCML+DT", "shipments", &ship));

    // ---- ML+RCB -------------------------------------------------------
    let graph1 = contact_graph(&sim, i, NodalGraphOptions::single_constraint(), &rec);
    let fe_asg = partition_kway(&graph1.graph, k, &PartitionerConfig::default());
    let fe_node_parts = graph1.assignment_on_nodes(&fe_asg);
    let halo_b = halo_traffic(xadj, adjncy, &fe_asg, k);
    rows.push(row("ML+RCB", "halo (FE)", &halo_b));

    let weights = vec![1.0; contact.len()];
    let (_, rcb_labels) = RcbTree::build(&positions, &weights, k);
    let fe_labels = gather(contact, &fe_node_parts);
    // Optimal relabeling, as in the M2MComm metric.
    let mut overlap = vec![0i64; k * k];
    for (ci, &rp) in rcb_labels.iter().enumerate() {
        overlap[rp as usize * k + fe_labels[ci] as usize] += 1;
    }
    let sigma = max_weight_assignment(k, &overlap);
    let relabeled: Vec<u32> = rcb_labels.iter().map(|&rp| sigma[rp as usize] as u32).collect();
    let m2m = m2m_traffic(&fe_labels, &relabeled, k);
    rows.push(row("ML+RCB", "m2m (x2)", &m2m));

    let mut rcb_node_parts = vec![u32::MAX; sim.base.num_nodes()];
    for (ci, &n) in contact.iter().enumerate() {
        rcb_node_parts[n as usize] = relabeled[ci];
    }
    let bfilter = BboxFilter::from_points(&positions, &relabeled, k);
    let elements_b = surface_elements(&snap.contact.faces, &snap.points, &rcb_node_parts);
    let ship_b = shipment_traffic(&elements_b, &bfilter, k);
    rows.push(row("ML+RCB", "shipments", &ship_b));

    for r in &rows {
        print_row(r);
    }

    // Per-step bottleneck comparison (m2m counted twice: to contact
    // decomposition and back).
    let mc_bottleneck = halo.max_rank_volume() + ship.max_rank_volume();
    let ml_bottleneck =
        halo_b.max_rank_volume() + 2 * m2m.max_rank_volume() + ship_b.max_rank_volume();
    println!("\nper-step bottleneck-rank volume (halo + 2*m2m + shipments):");
    println!("  MCML+DT: {mc_bottleneck}");
    println!(
        "  ML+RCB : {ml_bottleneck}  ({:+.0}%)",
        100.0 * (ml_bottleneck as f64 / mc_bottleneck as f64 - 1.0)
    );

    cip_bench::write_json("rank_traffic", &rows);
}
