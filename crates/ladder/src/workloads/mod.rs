//! The workloads, and the MCML+DT pipeline pieces several of them share.
//!
//! Everything here calls the layers' public functions from outside and
//! times the calls; nothing reaches into a crate.

pub mod decompose;
pub mod serve;
pub mod sweep;
pub mod trace;

use crate::harness::Ctx;
use crate::rng::{fork, SplitMix64};
use cip::geom::Point;
use cip_contact::{n_remote, DtreeFilter, SurfaceElementInfo};
use cip_core::{dt_friendly_correct, DtFriendlyConfig, DtFriendlyStats, SnapshotView};
use cip_dtree::{induce, refresh, DecisionTree, DtreeConfig};
use cip_graph::{edge_cut, total_comm_volume, Graph, Partition};
use cip_partition::{
    coarsen, diffusion_repartition, partition_kway, refine_kway, PartitionerConfig,
};
use cip_runtime::build_decomposition;
use cip_sim::{SimConfig, SimResult};
use std::collections::HashMap;

/// The paper's contact-edge weight.
pub const CONTACT_EDGE_WEIGHT: i64 = 5;

/// The balance check: every constraint within the partitioner's own
/// tolerance `1 + eps(j)` plus this slack. `cip-partition` does not hold it
/// on every seed (of 440 decompositions at k=25, `partition_kway` left 4
/// past it, the worst at 1.224 against 1.17, and the DT-friendly correction
/// then trades more contact balance for a smaller tree: 13 past it, the
/// worst at 1.233), so a violation is a
/// [`Checks::known_defect`](crate::harness::Checks::known_defect): counted
/// in `partition.balance_violations` / `core.balance_violations` and
/// listed in the run document, not hidden and not a failed operation.
pub const BALANCE_SLACK: f64 = 0.02;

/// The function that runs workload `name`.
pub fn lookup(name: &str) -> Option<fn(&mut Ctx)> {
    Some(match name {
        "decompose_medium" => decompose::run,
        "search_sweep_medium" => sweep::run,
        "trace_inproc" => trace::run_inproc,
        "trace_tcp" => trace::run_tcp,
        "serve_cold" => serve::run_cold,
        "serve_hit" => serve::run_hit,
        "serve_mixed" => serve::run_mixed,
        _ => return None,
    })
}

/// The mesh both `*_medium` workloads use: `SimConfig::medium()` with 40
/// snapshots spread over the full penetration (a 10×10×2-plate mesh with 5
/// snapshots under `--smoke`).
pub fn medium_sim_config(smoke: bool) -> SimConfig {
    let mut cfg = if smoke { SimConfig::tiny() } else { SimConfig::medium() };
    cfg.snapshots = if smoke { 5 } else { 40 };
    cfg
}

/// One MCML+DT decomposition and what the search sees of it.
pub struct Decomposed {
    /// Part of every graph vertex as `partition_kway` left it.
    pub raw: Vec<u32>,
    /// Part of every graph vertex after the DT-friendly correction.
    pub asg: Vec<u32>,
    /// Part of every mesh node (`u32::MAX` for dead nodes).
    pub node_parts: Vec<u32>,
    /// What the DT-friendly correction did.
    pub stats: DtFriendlyStats,
    /// Search tree over the contact points.
    pub tree: DecisionTree<3>,
    /// Surface elements with their owners.
    pub elements: Vec<SurfaceElementInfo<3>>,
    /// NRemote through the tree filter.
    pub n_remote: u64,
}

/// The full MCML+DT pipeline on one snapshot view: multi-constraint k-way
/// partition, DT-friendly correction, search-tree induction over the
/// contact points, global search through the tree filter.
pub fn mcml_dt(ctx: &mut Ctx, view: &SnapshotView, k: usize, pseed: u64) -> Decomposed {
    let pc = PartitionerConfig::with_seed(pseed);
    let g = &view.graph2.graph;
    let raw = ctx.time("partition.kway", || partition_kway(g, k, &pc));
    let mut asg = raw.clone();
    let stats = ctx.time("core.dt_friendly", || {
        let positions: Vec<Point<3>> =
            view.graph2.node_of_vertex.iter().map(|&n| view.mesh.points[n as usize]).collect();
        let cfg = DtFriendlyConfig { partitioner: pc.clone(), ..DtFriendlyConfig::default() };
        dt_friendly_correct(g, &positions, k, &mut asg, &cfg)
    });
    let node_parts = view.graph2.assignment_on_nodes(&asg);
    let labels = view.contact.labels_from_node_parts(&node_parts);
    let tree = ctx.time("dtree.induce", || {
        induce(&view.contact.positions, &labels, k, &DtreeConfig::search_tree())
    });
    let elements = view.surface_elements(&node_parts);
    let shipped =
        ctx.time("contact.n_remote_dt", || n_remote(&elements, &DtreeFilter::new(&tree, k)));
    Decomposed { raw, asg, node_parts, stats, tree, elements, n_remote: shipped }
}

/// How many of the two constraints of `part` exceed `1 + eps(j)` plus
/// [`BALANCE_SLACK`].
fn balance_violations(part: &Partition) -> usize {
    let pc = PartitionerConfig::default();
    (0..2).filter(|&j| part.imbalance(j) > 1.0 + pc.eps_for(j) + BALANCE_SLACK).count()
}

/// Records the quality counts of a decomposition and checks it against
/// ground truth: no empty part, every contact point in a leaf of its own
/// label, and — when `judge_balance` — both constraints of the raw k-way
/// partition and of the final assignment against [`BALANCE_SLACK`].
pub fn judge_decomposition(
    ctx: &mut Ctx,
    view: &SnapshotView,
    k: usize,
    dec: &Decomposed,
    judge_balance: bool,
) {
    let g = &view.graph2.graph;
    let part = Partition::from_assignment(g, k, dec.asg.clone());
    let worst = part.imbalance(0).max(part.imbalance(1));
    ctx.count("fe_comm", total_comm_volume(g, &dec.asg) as f64);
    ctx.count("n_remote", dec.n_remote as f64);
    ctx.count("partition.edge_cut", edge_cut(&view.graph1.graph, &dec.asg) as f64);
    ctx.count("partition.imbalance_max", worst);
    ctx.count("core.dt_friendly_relabeled", dec.stats.relabeled as f64);
    ctx.count("core.dt_friendly_refined", dec.stats.refined as f64);
    ctx.count("dtree.nodes", dec.tree.num_nodes() as f64);

    check_no_empty_part(ctx, &dec.asg, k);
    if judge_balance {
        let raw = Partition::from_assignment(g, k, dec.raw.clone());
        let imbalances = |p: &Partition| format!("{:.4} / {:.4}", p.imbalance(0), p.imbalance(1));
        let raw_over = balance_violations(&raw);
        let final_over = balance_violations(&part);
        ctx.count("partition.balance_violations", raw_over as f64);
        ctx.count("core.balance_violations", final_over as f64);
        ctx.checks.known_defect(raw_over == 0, || {
            format!("partition_kway imbalance {} exceeds eps + {BALANCE_SLACK}", imbalances(&raw))
        });
        ctx.checks.known_defect(final_over == 0, || {
            format!("final imbalance {} exceeds eps + {BALANCE_SLACK}", imbalances(&part))
        });
    }
    let labels = view.contact.labels_from_node_parts(&dec.node_parts);
    check_leaf_purity(ctx, &dec.tree, &view.contact.positions, &labels);
}

/// Every one of the `k` parts must own at least one vertex.
pub fn check_no_empty_part(ctx: &mut Ctx, asg: &[u32], k: usize) {
    let mut used = vec![false; k];
    for &p in asg {
        used[p as usize] = true;
    }
    let empty = used.iter().filter(|&&u| !u).count();
    ctx.checks.check(empty == 0, || format!("{empty} of {k} parts are empty"));
}

/// Leaf purity against ground truth: every point must locate to a leaf of
/// its own label. A tree maps coordinates to one label, so of points that
/// share their exact coordinates but not their label (two bodies touching
/// at a node) it can serve only one; those are left out.
pub fn check_leaf_purity(
    ctx: &mut Ctx,
    tree: &DecisionTree<3>,
    points: &[Point<3>],
    labels: &[u32],
) {
    // Label at each coordinate (-0.0 folded into 0.0), `None` once two
    // labels met there.
    let key = |p: &Point<3>| p.coords.map(|c| (c + 0.0).to_bits());
    let mut label_at: HashMap<[u64; 3], Option<u32>> = HashMap::with_capacity(points.len());
    for (p, &l) in points.iter().zip(labels) {
        let seen = label_at.entry(key(p)).or_insert(Some(l));
        if *seen != Some(l) {
            *seen = None;
        }
    }
    let separable = |p: &Point<3>| label_at[&key(p)].is_some();
    let wrong =
        points.iter().zip(labels).filter(|&(p, &l)| separable(p) && tree.locate(p) != l).count();
    ctx.checks.check(wrong == 0, || {
        format!("{wrong} of {} contact points sit in a leaf of another part", points.len())
    });
}

/// Moves about 2 % of the boundary vertices into a neighbouring part,
/// chosen by `seed` — the damage `partition.refine_ms` then repairs.
fn perturb_boundary(g: &Graph, asg: &mut [u32], seed: u64) {
    let foreign = |v: u32, asg: &[u32]| {
        g.adj(v).iter().map(|&u| asg[u as usize]).find(|&p| p != asg[v as usize])
    };
    let boundary: Vec<u32> = (0..g.nv() as u32).filter(|&v| foreign(v, asg).is_some()).collect();
    if boundary.is_empty() {
        return;
    }
    let mut rng = SplitMix64::new(seed);
    for _ in 0..boundary.len().div_ceil(50) {
        let v = boundary[rng.below(boundary.len())];
        if let Some(p) = foreign(v, asg) {
            asg[v as usize] = p;
        }
    }
}

/// Traced cycles only: times the layers no operation of the calling
/// workload reaches on its own — coarsening, k-way refinement after a
/// seeded boundary perturbation, diffusion repartitioning onto the
/// mid-sequence graph, the per-step rank plan, and a tree refresh from
/// snapshot 0 to the mid-sequence positions.
pub fn probe_layers(
    ctx: &mut Ctx,
    sim: &SimResult,
    view0: &SnapshotView,
    dec: &Decomposed,
    k: usize,
    pseed: u64,
) {
    ctx.probe(|ctx| {
        let g = &view0.graph2.graph;
        let pc = PartitionerConfig::with_seed(pseed);

        let hierarchy = ctx.time("partition.coarsen", || coarsen(g, pc.coarsen_to, pseed));
        ctx.count("partition.levels", hierarchy.len() as f64);

        let mut damaged = dec.asg.clone();
        perturb_boundary(g, &mut damaged, fork(pseed, 1));
        ctx.time("partition.refine", || refine_kway(g, k, &mut damaged, &pc));

        let view_mid = ctx.time("mesh.view_build", || {
            SnapshotView::build(sim, sim.len() / 2, CONTACT_EDGE_WEIGHT)
        });
        let g_mid = &view_mid.graph2.graph;
        let old: Vec<u32> =
            view_mid.graph2.node_of_vertex.iter().map(|&n| dec.node_parts[n as usize]).collect();
        let moved = ctx.time("partition.diffusion", || diffusion_repartition(g_mid, k, &old, &pc));
        ctx.checks
            .check(moved.len() == g_mid.nv() && moved.iter().all(|&p| (p as usize) < k), || {
                "diffusion repartitioning left a vertex without a live part".to_string()
            });

        let owners: Vec<u32> = dec.elements.iter().map(|e| e.owner).collect();
        let plan = ctx.time("runtime.plan", || {
            build_decomposition(g, &view0.graph2.node_of_vertex, &dec.asg, &owners, k)
        });
        let fe_comm = total_comm_volume(g, &dec.asg);
        ctx.checks.check(plan.total_halo_volume() == fe_comm, || {
            format!("rank plan ships {} halo units, FEComm is {fe_comm}", plan.total_halo_volume())
        });

        let labels = view_mid.contact.labels_from_node_parts(&dec.node_parts);
        let points = &view_mid.contact.positions;
        let (tree, stats) = ctx.time("dtree.refresh", || {
            refresh(&dec.tree, points, &labels, k, &DtreeConfig::search_tree())
        });
        ctx.count(
            "dtree.reinduced_point_ratio",
            stats.reinduced_points as f64 / points.len() as f64,
        );
        ctx.count("dtree.grown_nodes", stats.grown_nodes as f64);
        check_leaf_purity(ctx, &tree, points, &labels);
    });
}
