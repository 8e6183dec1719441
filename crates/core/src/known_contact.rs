//! The a-priori-known-contact method (§3, first problem class).
//!
//! When the portions of the mesh that will come into contact are known in
//! advance (e.g. a die stamping a blank), the classical approach [Hoover
//! et al., ParaDyn] augments the nodal graph with *virtual edges* between
//! the surfaces that will touch and runs a two-constraint partitioning on
//! it. Minimizing the edge-cut then co-locates the contacting surfaces on
//! the same processor, so most contact pairs need no communication at all.
//!
//! This module implements that method as a third algorithm, both because
//! the paper surveys it and because it makes a sharp experimental point:
//! on *predictable* contact it beats the general-purpose schemes, and on
//! *unpredictable* contact (the paper's problem class) its advantage
//! evaporates — which is exactly why MCML+DT exists.

use crate::common::SnapshotView;
use crate::metrics::SnapshotMetrics;
use cip_contact::{n_remote, DtreeFilter};
use cip_dtree::{induce, DtreeConfig};
use cip_graph::{edge_cut, total_comm_volume, Graph, GraphBuilder, Partition};
use cip_partition::{partition_kway, PartitionerConfig};
use cip_sim::SimResult;

/// Configuration of the known-contact method.
#[derive(Debug, Clone)]
pub struct KnownContactConfig {
    /// Number of parts.
    pub k: usize,
    /// Weight of the virtual edges between predicted contact pairs.
    pub virtual_edge_weight: i64,
    /// Capture distance for predicting which contact points will touch
    /// (pairs of different bodies within this distance at the *prediction
    /// snapshot* get a virtual edge).
    pub prediction_radius: f64,
    /// Snapshot used to predict the contacts (0 = the initial state, as a
    /// real pre-simulation prediction would use).
    pub prediction_snapshot: usize,
    /// Partitioner settings.
    pub partitioner: PartitionerConfig,
}

impl KnownContactConfig {
    /// Reasonable defaults for `k` parts.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            virtual_edge_weight: 10,
            prediction_radius: 3.0,
            prediction_snapshot: 0,
            partitioner: PartitionerConfig::default(),
        }
    }
}

/// Builds the augmented graph: the two-constraint nodal graph plus
/// virtual edges between predicted contacting point pairs.
///
/// Prediction: for contact points of *different bodies* within
/// `radius` of each other (in the prediction snapshot's configuration,
/// with the projectile's future path accounted for by ignoring the z
/// coordinate — the projectile travels in -z), add an edge of
/// `virtual_edge_weight`.
fn augmented_graph(view: &SnapshotView, cfg: &KnownContactConfig) -> Graph {
    let base = &view.graph2.graph;
    let mut b = GraphBuilder::new(base.nv(), base.ncon());
    for v in 0..base.nv() as u32 {
        b.set_vwgt(v, base.vwgt(v));
    }
    for v in 0..base.nv() as u32 {
        for (u, w) in base.neighbors(v) {
            if u > v {
                b.add_edge(v, u, w);
            }
        }
    }

    // Predicted contacts: xy-proximity between contact points of
    // different bodies (the projectile bores straight down, so xy overlap
    // predicts eventual touching).
    let n = view.contact.len();
    // Body of each contact point: body of any face containing it.
    let mut body = vec![u16::MAX; view.mesh.num_nodes()];
    for f in &view.faces {
        for &node in f.nodes() {
            body[node as usize] = f.body;
        }
    }
    let r2 = cfg.prediction_radius * cfg.prediction_radius;
    for i in 0..n {
        let ni = view.contact.nodes[i];
        let pi = view.contact.positions[i];
        for j in i + 1..n {
            let nj = view.contact.nodes[j];
            if body[ni as usize] == body[nj as usize] {
                continue;
            }
            let pj = view.contact.positions[j];
            let dx = pi[0] - pj[0];
            let dy = pi[1] - pj[1];
            if dx * dx + dy * dy <= r2 {
                let (gi, gj) = (
                    view.graph2.vertex_of_node[ni as usize],
                    view.graph2.vertex_of_node[nj as usize],
                );
                b.add_edge(gi, gj, cfg.virtual_edge_weight);
            }
        }
    }
    b.build()
}

/// Runs the known-contact method over the sequence: partition the
/// augmented snapshot-`prediction_snapshot` graph once, evaluate the same
/// metrics as the other pipelines (search filter: decision tree, like
/// MCML+DT — the method only changes the partition).
pub fn evaluate_known_contact(sim: &SimResult, cfg: &KnownContactConfig) -> Vec<SnapshotMetrics> {
    assert!(!sim.is_empty());
    let k = cfg.k;
    let view_p = SnapshotView::build(sim, cfg.prediction_snapshot, 5);
    let g_aug = augmented_graph(&view_p, cfg);
    let asg = partition_kway(&g_aug, k, &cfg.partitioner);
    let node_parts = view_p.graph2.assignment_on_nodes(&asg);

    let mut out = Vec::with_capacity(sim.len());
    for i in 0..sim.len() {
        let view = SnapshotView::build(sim, i, 5);
        let asg_now: Vec<u32> =
            view.graph2.node_of_vertex.iter().map(|&n| node_parts[n as usize]).collect();
        let fe_comm = total_comm_volume(&view.graph2.graph, &asg_now);
        let cut = edge_cut(&view.graph1.graph, &asg_now) as u64;
        let part = Partition::from_assignment(&view.graph2.graph, k, asg_now);

        let labels = view.contact.labels_from_node_parts(&node_parts);
        let tree = induce(&view.contact.positions, &labels, k, &DtreeConfig::search_tree());
        let elements = view.surface_elements(&node_parts);
        let shipped = n_remote(&elements, &DtreeFilter::new(&tree, k));

        out.push(SnapshotMetrics {
            step: sim.snapshots[i].step,
            fe_comm,
            nt_nodes: tree.num_nodes() as u64,
            n_remote: shipped,
            m2m_comm: 0,
            upd_comm: 0,
            edge_cut: cut,
            imbalance_fe: part.imbalance(0),
            imbalance_contact: part.imbalance(1),
            contact_points: view.contact.len() as u64,
            surface_elements: view.faces.len() as u64,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cip_sim::SimConfig;

    #[test]
    fn augmented_graph_adds_cross_body_edges() {
        let sim = cip_sim::run(&SimConfig::tiny());
        let view = SnapshotView::build(&sim, 0, 5);
        let cfg = KnownContactConfig::new(3);
        let aug = augmented_graph(&view, &cfg);
        assert_eq!(aug.nv(), view.graph2.graph.nv());
        assert!(
            aug.ne() > view.graph2.graph.ne(),
            "prediction must add virtual edges ({} vs {})",
            aug.ne(),
            view.graph2.graph.ne()
        );
        aug.validate().unwrap();
    }

    #[test]
    fn pipeline_produces_balanced_metrics() {
        let sim = cip_sim::run(&SimConfig::tiny());
        let cfg = KnownContactConfig::new(3);
        let metrics = evaluate_known_contact(&sim, &cfg);
        assert_eq!(metrics.len(), sim.len());
        assert!(metrics[0].imbalance_fe <= 1.2, "{}", metrics[0].imbalance_fe);
        assert!(metrics.iter().all(|m| m.fe_comm > 0));
        assert!(metrics.iter().all(|m| m.m2m_comm == 0));
    }

    /// Cross-owner true contact pairs under a node partition — the cost
    /// the known-contact method is designed to eliminate.
    fn remote_true_pairs(
        sim: &SimResult,
        snapshot: usize,
        node_parts: &[u32],
        tolerance: f64,
    ) -> (usize, usize) {
        let view = SnapshotView::build(sim, snapshot, 5);
        let elements = view.surface_elements(node_parts);
        let bodies = view.face_bodies();
        let pairs = cip_contact::serial_contact_pairs(&elements, &bodies, tolerance);
        let remote = pairs
            .iter()
            .filter(|p| elements[p.a as usize].owner != elements[p.b as usize].owner)
            .count();
        (remote, pairs.len())
    }

    #[test]
    fn colocation_makes_true_contacts_local() {
        // Mid-penetration, the known-contact partition (which saw the
        // prediction) should keep a larger share of the *actual* contact
        // pairs on one processor than a geometry-blind MCML partition.
        let sim = cip_sim::run(&SimConfig::tiny());
        let k = 3;
        let snapshot = sim.len() / 2;

        // Known-contact node partition.
        let kc_cfg = KnownContactConfig::new(k);
        let view_p = SnapshotView::build(&sim, 0, 5);
        let g_aug = augmented_graph(&view_p, &kc_cfg);
        let kc_asg = partition_kway(&g_aug, k, &kc_cfg.partitioner);
        let kc_parts = view_p.graph2.assignment_on_nodes(&kc_asg);

        // Plain two-constraint partition (no prediction).
        let plain_asg = partition_kway(&view_p.graph2.graph, k, &PartitionerConfig::default());
        let plain_parts = view_p.graph2.assignment_on_nodes(&plain_asg);

        let (kc_remote, kc_total) = remote_true_pairs(&sim, snapshot, &kc_parts, 0.4);
        let (pl_remote, pl_total) = remote_true_pairs(&sim, snapshot, &plain_parts, 0.4);
        assert!(kc_total > 0 && pl_total > 0, "workload must produce contacts");
        let kc_frac = kc_remote as f64 / kc_total as f64;
        let pl_frac = pl_remote as f64 / pl_total as f64;
        assert!(
            kc_frac <= pl_frac + 0.05,
            "known-contact remote fraction {kc_frac:.2} should not exceed plain {pl_frac:.2}"
        );
    }
}
