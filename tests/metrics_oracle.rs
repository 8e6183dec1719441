//! Analysis ≡ oracle ≡ executed. Every per-snapshot number the three
//! evaluators report must equal a recomputation the long way round — a
//! `SnapshotView` per snapshot, FEComm by `total_comm_volume` over its
//! two-constraint graph, the cut by `edge_cut` over its unit-weight graph,
//! balance by `Partition`, NRemote over faces boxed from the view's own
//! mesh — and that FEComm must be the halo volume the executed step's plan
//! (`HaloPlan` over the epoch's topology rows) ships. The oracles below
//! replay each pipeline's decisions on those views, independently of the
//! primitives the evaluators are built from.

use cip::contact::{n_remote, BboxFilter, DtreeFilter, RcbRegionFilter, SurfaceElementInfo};
use cip::core::{
    dt_friendly_correct, evaluate_known_contact, evaluate_mcml_dt, evaluate_ml_rcb, face_owner,
    KnownContactConfig, McmlDtConfig, MlRcbConfig, RepartitionMethod, SnapshotMetrics,
    SnapshotView, UpdatePolicy,
};
use cip::dtree::{induce, DtreeConfig};
use cip::geom::{Aabb, RcbTree};
use cip::graph::{edge_cut, total_comm_volume, GraphBuilder, Partition};
use cip::partition::{diffusion_repartition, max_weight_assignment, partition_kway, repartition};
use cip::runtime::HaloPlan;
use cip::sim::{SimConfig, SimResult};
use cip::telemetry::Recorder;

const KS: [usize; 3] = [2, 4, 7];

/// Part of every vertex of `view`'s graphs.
fn on_graph(view: &SnapshotView, node_parts: &[u32]) -> Vec<u32> {
    view.graph2.node_of_vertex.iter().map(|&n| node_parts[n as usize]).collect()
}

/// The view's contact faces boxed over its own mesh, each owned by the
/// majority part of its nodes.
fn elements(view: &SnapshotView, node_parts: &[u32]) -> Vec<SurfaceElementInfo<3>> {
    view.faces
        .iter()
        .map(|sf| {
            let mut bbox = Aabb::empty();
            for &n in sf.face.nodes() {
                bbox.grow(&view.mesh.points[n as usize]);
            }
            SurfaceElementInfo { bbox, owner: face_owner(sf.face.nodes(), node_parts) }
        })
        .collect()
}

/// FEComm of `node_parts` on snapshot `i`, checked against the halo volume
/// of the executed step's plan.
fn fe_comm(sim: &SimResult, i: usize, view: &SnapshotView, node_parts: &[u32], k: usize) -> u64 {
    let fe_comm = total_comm_volume(&view.graph2.graph, &on_graph(view, node_parts));
    let topology = sim.topology(i, &Recorder::disabled());
    let asg: Vec<u32> = topology.node_of_vertex().iter().map(|&n| node_parts[n as usize]).collect();
    let owners = elements(view, node_parts).into_iter().map(|e| e.owner);
    let plan =
        HaloPlan::build(topology.xadj(), topology.adjncy(), topology.node_of_vertex(), &asg, k)
            .decomposition(owners);
    assert_eq!(fe_comm, plan.total_halo_volume(), "snapshot {i}: FEComm is not the halo shipped");
    fe_comm
}

/// Sets the parts of every node `new` covers.
fn merge(node_parts: &mut [u32], new: &[u32]) {
    for (n, &p) in new.iter().enumerate() {
        if p != u32::MAX {
            node_parts[n] = p;
        }
    }
}

/// Contact points whose part differs between two node assignments.
fn migrated(view: &SnapshotView, old: &[u32], new: &[u32]) -> u64 {
    let moved = |&&n: &&u32| old[n as usize] != u32::MAX && old[n as usize] != new[n as usize];
    view.contact.nodes.iter().filter(moved).count() as u64
}

/// Snapshot `i` under `node_parts` over `k` parts, searched through a
/// decision tree built by `tree` (MCML+DT and the known-contact method).
fn dt_metrics(
    sim: &SimResult,
    i: usize,
    view: &SnapshotView,
    node_parts: &[u32],
    k: usize,
    tree: &DtreeConfig,
    tight: bool,
) -> SnapshotMetrics {
    let asg = on_graph(view, node_parts);
    let part = Partition::from_assignment(&view.graph2.graph, k, asg.clone());
    let labels = view.contact.labels_from_node_parts(node_parts);
    let tree = induce(&view.contact.positions, &labels, k, tree);
    let elements = elements(view, node_parts);
    let filter = if tight { DtreeFilter::tight(&tree, k) } else { DtreeFilter::new(&tree, k) };
    SnapshotMetrics {
        step: sim.snapshots[i].step,
        fe_comm: fe_comm(sim, i, view, node_parts, k),
        nt_nodes: tree.num_nodes() as u64,
        n_remote: n_remote(&elements, &filter),
        m2m_comm: 0,
        upd_comm: 0,
        edge_cut: edge_cut(&view.graph1.graph, &asg) as u64,
        imbalance_fe: part.imbalance(0),
        imbalance_contact: part.imbalance(1),
        contact_points: view.contact.len() as u64,
        surface_elements: view.faces.len() as u64,
    }
}

/// MCML+DT replayed on views: partition and correct snapshot 0, then per
/// snapshot the policy's repartition.
fn oracle_mcml_dt(sim: &SimResult, cfg: &McmlDtConfig) -> Vec<SnapshotMetrics> {
    let (k, w) = (cfg.k, cfg.contact_edge_weight);
    let view0 = SnapshotView::build(sim, 0, w);
    let positions = |view: &SnapshotView| -> Vec<_> {
        view.graph2.node_of_vertex.iter().map(|&n| view.mesh.points[n as usize]).collect()
    };
    let mut asg = partition_kway(&view0.graph2.graph, k, &cfg.partitioner);
    if let Some(fc) = &cfg.dt_friendly {
        dt_friendly_correct(&view0.graph2.graph, &positions(&view0), k, &mut asg, fc);
    }
    let mut node_parts = view0.graph2.assignment_on_nodes(&asg);
    let mut out = Vec::new();
    for i in 0..sim.len() {
        let view = SnapshotView::build(sim, i, w);
        let g = &view.graph2.graph;
        let mut upd_comm = 0;
        let repartition_now = match cfg.update {
            UpdatePolicy::Fixed => false,
            UpdatePolicy::Hybrid { period } => i > 0 && i % period == 0,
        };
        if repartition_now {
            let old = on_graph(&view, &node_parts);
            let mut fresh = match cfg.repartition_method {
                RepartitionMethod::ScratchRemap => repartition(g, k, &old, &cfg.partitioner),
                RepartitionMethod::Diffusion => diffusion_repartition(g, k, &old, &cfg.partitioner),
            };
            if let Some(fc) = &cfg.dt_friendly {
                dt_friendly_correct(g, &positions(&view), k, &mut fresh, fc);
            }
            let new = view.graph2.assignment_on_nodes(&fresh);
            upd_comm = migrated(&view, &node_parts, &new);
            merge(&mut node_parts, &new);
        }
        let m = dt_metrics(sim, i, &view, &node_parts, k, &cfg.tree, cfg.tight_filter);
        out.push(SnapshotMetrics { upd_comm, ..m });
    }
    out
}

/// ML+RCB replayed on views: a static single-constraint FE partition, RCB
/// over the contact points per snapshot, the Hungarian mapping between
/// them.
fn oracle_ml_rcb(sim: &SimResult, cfg: &MlRcbConfig) -> Vec<SnapshotMetrics> {
    let k = cfg.k;
    let view0 = SnapshotView::build(sim, 0, 1);
    let fe_node_parts =
        view0.graph1.assignment_on_nodes(&partition_kway(&view0.graph1.graph, k, &cfg.partitioner));
    let mut rcb: Option<RcbTree<3>> = None;
    let mut prev_rcb_parts = vec![u32::MAX; sim.base.num_nodes()];
    let mut out = Vec::new();
    for i in 0..sim.len() {
        let view = SnapshotView::build(sim, i, 1);
        let asg = on_graph(&view, &fe_node_parts);
        let part = Partition::from_assignment(&view.graph1.graph, k, asg.clone());
        let points = &view.contact.positions;
        let weights = vec![1.0; view.contact.len()];
        let rcb_labels = match (&mut rcb, cfg.rebuild_rcb) {
            (Some(tree), false) => tree.update(points, &weights),
            _ => {
                let (tree, labels) = RcbTree::build(points, &weights, k);
                rcb = Some(tree);
                labels
            }
        };
        let nodes = &view.contact.nodes;
        let upd_comm = nodes
            .iter()
            .zip(&rcb_labels)
            .filter(|&(&n, &l)| {
                i > 0 && prev_rcb_parts[n as usize] != u32::MAX && prev_rcb_parts[n as usize] != l
            })
            .count() as u64;
        prev_rcb_parts.fill(u32::MAX);
        let mut rcb_node_parts = vec![u32::MAX; sim.base.num_nodes()];
        for (&n, &l) in nodes.iter().zip(&rcb_labels) {
            prev_rcb_parts[n as usize] = l;
            rcb_node_parts[n as usize] = l;
        }
        let fe_labels = view.contact.labels_from_node_parts(&fe_node_parts);
        let mut overlap = vec![0i64; k * k];
        for (&rp, &fp) in rcb_labels.iter().zip(&fe_labels) {
            overlap[rp as usize * k + fp as usize] += 1;
        }
        let sigma = max_weight_assignment(k, &overlap);
        let matched: i64 = sigma.iter().enumerate().map(|(rp, &fp)| overlap[rp * k + fp]).sum();
        let elements = elements(&view, &rcb_node_parts);
        let shipped = if cfg.region_filter {
            n_remote(&elements, &RcbRegionFilter::new(rcb.as_ref().expect("built above")))
        } else {
            n_remote(&elements, &BboxFilter::from_points(points, &rcb_labels, k))
        };
        let mut counts = vec![0u64; k];
        for &p in &rcb_labels {
            counts[p as usize] += 1;
        }
        let avg = view.contact.len() as f64 / k as f64;
        out.push(SnapshotMetrics {
            step: sim.snapshots[i].step,
            fe_comm: fe_comm(sim, i, &view, &fe_node_parts, k),
            nt_nodes: 0,
            n_remote: shipped,
            m2m_comm: view.contact.len() as u64 - matched as u64,
            upd_comm,
            edge_cut: edge_cut(&view.graph1.graph, &asg) as u64,
            imbalance_fe: part.imbalance(0),
            imbalance_contact: counts.iter().copied().max().unwrap_or(0) as f64 / avg.max(1e-12),
            contact_points: view.contact.len() as u64,
            surface_elements: view.faces.len() as u64,
        });
    }
    out
}

/// The known-contact method replayed on views: virtual edges between
/// contact points of different bodies within the prediction radius in xy,
/// one partition of that graph, the decision-tree search per snapshot.
fn oracle_known_contact(sim: &SimResult, cfg: &KnownContactConfig) -> Vec<SnapshotMetrics> {
    let k = cfg.k;
    let view = SnapshotView::build(sim, cfg.prediction_snapshot, 5);
    let base = &view.graph2.graph;
    let mut b = GraphBuilder::new(base.nv(), base.ncon());
    for v in 0..base.nv() as u32 {
        b.set_vwgt(v, base.vwgt(v));
        for (u, w) in base.neighbors(v).filter(|&(u, _)| u > v) {
            b.add_edge(v, u, w);
        }
    }
    let mut body = vec![u16::MAX; view.mesh.num_nodes()];
    for f in &view.faces {
        for &n in f.face.nodes() {
            body[n as usize] = f.body;
        }
    }
    let (nodes, points) = (&view.contact.nodes, &view.contact.positions);
    for i in 0..nodes.len() {
        for j in i + 1..nodes.len() {
            let (dx, dy) = (points[i][0] - points[j][0], points[i][1] - points[j][1]);
            let near = dx * dx + dy * dy <= cfg.prediction_radius * cfg.prediction_radius;
            if body[nodes[i] as usize] != body[nodes[j] as usize] && near {
                let vertex = |n: u32| view.graph2.vertex_of_node[n as usize];
                b.add_edge(vertex(nodes[i]), vertex(nodes[j]), cfg.virtual_edge_weight);
            }
        }
    }
    let node_parts =
        view.graph2.assignment_on_nodes(&partition_kway(&b.build(), k, &cfg.partitioner));
    let search = DtreeConfig::search_tree();
    (0..sim.len())
        .map(|i| {
            dt_metrics(sim, i, &SnapshotView::build(sim, i, 5), &node_parts, k, &search, false)
        })
        .collect()
}

fn assert_same(got: &[SnapshotMetrics], want: &[SnapshotMetrics], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g, w, "{what}: snapshot {i}");
    }
}

#[test]
fn mcml_dt_metrics_equal_the_view_oracle_under_every_policy() {
    let sim = cip::sim::run(&SimConfig::tiny());
    for k in KS {
        let paper = McmlDtConfig::paper(k);
        let hybrid = McmlDtConfig { update: UpdatePolicy::Hybrid { period: 5 }, ..paper.clone() };
        let per_step = McmlDtConfig { update: UpdatePolicy::Hybrid { period: 1 }, ..paper.clone() };
        let diffuse = |c: &McmlDtConfig| McmlDtConfig {
            repartition_method: RepartitionMethod::Diffusion,
            ..c.clone()
        };
        let configs = [
            ("fixed", paper.clone()),
            ("hybrid 5 scratch-remap", hybrid.clone()),
            ("hybrid 5 diffusion", diffuse(&hybrid)),
            ("per-step scratch-remap", per_step.clone()),
            ("per-step diffusion", diffuse(&per_step)),
        ];
        for (name, cfg) in configs {
            let (got, _) = evaluate_mcml_dt(&sim, &cfg);
            assert_same(&got, &oracle_mcml_dt(&sim, &cfg), &format!("MCML+DT {name} k={k}"));
        }
    }
}

#[test]
fn ml_rcb_metrics_equal_the_view_oracle() {
    let sim = cip::sim::run(&SimConfig::tiny());
    for k in KS {
        let paper = MlRcbConfig::paper(k);
        let ablated = MlRcbConfig { rebuild_rcb: true, region_filter: true, ..paper.clone() };
        for (name, cfg) in [("paper", paper), ("rebuilt regions", ablated)] {
            let got = evaluate_ml_rcb(&sim, &cfg);
            assert_same(&got, &oracle_ml_rcb(&sim, &cfg), &format!("ML+RCB {name} k={k}"));
        }
    }
}

#[test]
fn known_contact_metrics_equal_the_view_oracle() {
    let sim = cip::sim::run(&SimConfig::tiny());
    for k in KS {
        let cfg = KnownContactConfig::new(k);
        let got = evaluate_known_contact(&sim, &cfg);
        assert_same(&got, &oracle_known_contact(&sim, &cfg), &format!("known contact k={k}"));
    }
}
