//! `search_sweep_medium`: per-snapshot search maintenance under a fixed
//! k=100 decomposition computed in set-up.

use super::{
    check_leaf_purity, check_no_empty_part, mcml_dt, medium_sim_config, CONTACT_EDGE_WEIGHT,
};
use crate::harness::Ctx;
use crate::rng::fork;
use cip_contact::{
    distributed_contact_pairs, n_remote, serial_contact_pairs, BboxFilter, ContactPair,
    DtreeFilter, SurfaceElementInfo,
};
use cip_core::SnapshotView;
use cip_dtree::{induce, refresh, DecisionTree, DtreeConfig, RefreshStats};
use cip_graph::{total_comm_volume, Partition};
use cip_sim::SimResult;

/// Contact capture tolerance — the one every traced run of the repo uses.
const TOLERANCE: f64 = 0.4;

/// What one snapshot of search maintenance produced.
struct SnapshotOut {
    view: SnapshotView,
    labels: Vec<u32>,
    tree: DecisionTree<3>,
    refreshed: Option<RefreshStats>,
    elements: Vec<SurfaceElementInfo<3>>,
    shipped_dt: u64,
    shipped_bbox: u64,
    pairs: Vec<ContactPair>,
}

/// One snapshot, in sequence order: view, tree refresh (first: induce),
/// global search through the tree filter and through the bounding-box
/// baseline, distributed contact detection.
fn snapshot_op(
    ctx: &mut Ctx,
    sim: &SimResult,
    i: usize,
    node_parts: &[u32],
    k: usize,
    previous: Option<DecisionTree<3>>,
) -> SnapshotOut {
    let view = ctx.time("mesh.view_build", || SnapshotView::build(sim, i, CONTACT_EDGE_WEIGHT));
    let labels = view.contact.labels_from_node_parts(node_parts);
    let points = &view.contact.positions;
    let cfg = DtreeConfig::search_tree();
    let (tree, refreshed) = match previous {
        None => (ctx.time("dtree.induce", || induce(points, &labels, k, &cfg)), None),
        Some(old) => {
            let (tree, stats) =
                ctx.time("dtree.refresh", || refresh(&old, points, &labels, k, &cfg));
            (tree, Some(stats))
        }
    };
    let elements = view.surface_elements(node_parts);
    let filter = DtreeFilter::new(&tree, k);
    let shipped_dt = ctx.time("contact.n_remote_dt", || n_remote(&elements, &filter));
    let shipped_bbox = ctx.time("contact.n_remote_bbox", || {
        n_remote(&elements, &BboxFilter::from_points(points, &labels, k))
    });
    let bodies = view.face_bodies();
    let pairs = ctx.time("contact.local_pairs", || {
        distributed_contact_pairs(&elements, &bodies, &filter, TOLERANCE)
    });
    SnapshotOut { view, labels, tree, refreshed, elements, shipped_dt, shipped_bbox, pairs }
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) {
    let k = if ctx.smoke { 4 } else { 100 };
    let cfg = medium_sim_config(ctx.smoke);
    let pseed = fork(ctx.seed, 0);
    let (sim, node_parts) = ctx.setup(|ctx| {
        let sim = ctx.time("sim.run", || cip_sim::run(&cfg));
        let view0 = SnapshotView::build(&sim, 0, CONTACT_EDGE_WEIGHT);
        let dec = mcml_dt(ctx, &view0, k, pseed);
        check_no_empty_part(ctx, &dec.asg, k);
        ctx.tracer.begin("setup.warmup");
        snapshot_op(ctx, &sim, 0, &dec.node_parts, k, None);
        ctx.tracer.end();
        (sim, dec.node_parts)
    });
    ctx.param("k", k);
    ctx.param("mesh_nodes", sim.base.num_nodes());
    ctx.param("snapshots_per_cycle", sim.len());
    ctx.param("tolerance", TOLERANCE);

    while ctx.next_cycle() {
        let mut tree = None;
        let (mut sum_dt, mut sum_bbox) = (0u64, 0u64);
        for i in 0..sim.len() {
            let out = ctx.op(|ctx| snapshot_op(ctx, &sim, i, &node_parts, k, tree.take()));

            let bodies = out.view.face_bodies();
            let serial = serial_contact_pairs(&out.elements, &bodies, TOLERANCE);
            ctx.checks.check(out.pairs == serial, || {
                format!(
                    "snapshot {i}: {} distributed pairs, {} serial",
                    out.pairs.len(),
                    serial.len()
                )
            });
            check_leaf_purity(ctx, &out.tree, &out.view.contact.positions, &out.labels);

            let g = &out.view.graph2.graph;
            let asg: Vec<u32> =
                out.view.graph2.node_of_vertex.iter().map(|&n| node_parts[n as usize]).collect();
            ctx.count("fe_comm", total_comm_volume(g, &asg) as f64);
            ctx.count("n_remote", out.shipped_dt as f64);
            let part = Partition::from_assignment(g, k, asg);
            ctx.count("partition.imbalance_max", part.imbalance(0).max(part.imbalance(1)));
            ctx.count("dtree.nodes", out.tree.num_nodes() as f64);
            ctx.count("contact.pairs", out.pairs.len() as f64);
            if let Some(stats) = out.refreshed {
                let points = out.labels.len() as f64;
                ctx.count("dtree.reinduced_point_ratio", stats.reinduced_points as f64 / points);
                ctx.count("dtree.grown_nodes", stats.grown_nodes as f64);
            }
            sum_dt += out.shipped_dt;
            sum_bbox += out.shipped_bbox;
            tree = Some(out.tree);
        }
        if ctx.counting() && sum_bbox > 0 {
            // NRemote(DT) ÷ NRemote(bbox), base: the bounding-box filter.
            ctx.set("contact.dt_over_bbox", sum_dt as f64 / sum_bbox as f64);
        }
    }
}
