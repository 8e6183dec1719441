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

use crate::common::contact_graph;
use crate::mcml_dt::dt_snapshot_metrics;
use crate::metrics::SnapshotMetrics;
use cip_dtree::DtreeConfig;
use cip_graph::{Graph, GraphBuilder};
use cip_mesh::graphs::{NodalGraph, NodalGraphOptions};
use cip_partition::{partition_kway, PartitionerConfig};
use cip_sim::{SimResult, Snapshot};

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

/// Builds the augmented graph: the two-constraint nodal graph `base` of the
/// prediction snapshot `snap` plus virtual edges between predicted
/// contacting point pairs.
///
/// Prediction: for contact points of *different bodies* within
/// `radius` of each other (in the prediction snapshot's configuration,
/// with the projectile's future path accounted for by ignoring the z
/// coordinate — the projectile travels in -z), add an edge of
/// `virtual_edge_weight`.
fn augmented_graph(base: &NodalGraph, snap: &Snapshot, cfg: &KnownContactConfig) -> Graph {
    let g = &base.graph;
    let mut b = GraphBuilder::new(g.nv(), g.ncon());
    for v in 0..g.nv() as u32 {
        b.set_vwgt(v, g.vwgt(v));
    }
    for v in 0..g.nv() as u32 {
        for (u, w) in g.neighbors(v) {
            if u > v {
                b.add_edge(v, u, w);
            }
        }
    }

    // Predicted contacts: xy-proximity between contact points of
    // different bodies (the projectile bores straight down, so xy overlap
    // predicts eventual touching).
    let nodes = &snap.contact.contact_nodes;
    // Body of each contact point: body of any face containing it.
    let mut body = vec![u16::MAX; snap.points.len()];
    for f in &snap.contact.faces {
        for &node in f.face.nodes() {
            body[node as usize] = f.body;
        }
    }
    let r2 = cfg.prediction_radius * cfg.prediction_radius;
    for (i, &ni) in nodes.iter().enumerate() {
        let pi = snap.points[ni as usize];
        for &nj in &nodes[i + 1..] {
            if body[ni as usize] == body[nj as usize] {
                continue;
            }
            let pj = snap.points[nj as usize];
            let dx = pi[0] - pj[0];
            let dy = pi[1] - pj[1];
            if dx * dx + dy * dy <= r2 {
                let (gi, gj) = (base.vertex_of_node[ni as usize], base.vertex_of_node[nj as usize]);
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
    let rec = &cfg.partitioner.recorder;
    let p = cfg.prediction_snapshot;
    let base = contact_graph(sim, p, NodalGraphOptions::default(), rec);
    let asg = partition_kway(&augmented_graph(&base, &sim.snapshots[p], cfg), k, &cfg.partitioner);
    let node_parts = base.assignment_on_nodes(&asg);
    let search = DtreeConfig::search_tree();
    (0..sim.len())
        .map(|i| dt_snapshot_metrics(sim, i, &node_parts, k, &search, false, rec))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{face_bodies, surface_elements};
    use cip_sim::SimConfig;
    use cip_telemetry::Recorder;

    fn base_graph(sim: &SimResult) -> NodalGraph {
        contact_graph(sim, 0, NodalGraphOptions::default(), &Recorder::disabled())
    }

    #[test]
    fn augmented_graph_adds_cross_body_edges() {
        let sim = cip_sim::run(&SimConfig::tiny());
        let base = base_graph(&sim);
        let cfg = KnownContactConfig::new(3);
        let aug = augmented_graph(&base, &sim.snapshots[0], &cfg);
        assert_eq!(aug.nv(), base.graph.nv());
        assert!(
            aug.ne() > base.graph.ne(),
            "prediction must add virtual edges ({} vs {})",
            aug.ne(),
            base.graph.ne()
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
        let snap = &sim.snapshots[snapshot];
        let elements = surface_elements(&snap.contact.faces, &snap.points, node_parts);
        let bodies = face_bodies(&snap.contact.faces);
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
        let base = base_graph(&sim);
        let g_aug = augmented_graph(&base, &sim.snapshots[0], &kc_cfg);
        let kc_asg = partition_kway(&g_aug, k, &kc_cfg.partitioner);
        let kc_parts = base.assignment_on_nodes(&kc_asg);

        // Plain two-constraint partition (no prediction).
        let plain_asg = partition_kway(&base.graph, k, &PartitionerConfig::default());
        let plain_parts = base.assignment_on_nodes(&plain_asg);

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
