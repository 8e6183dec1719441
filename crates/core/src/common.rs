//! Per-snapshot primitives — the one implementation of each quantity the
//! pipelines and the executed step read off a snapshot — and the
//! [`SnapshotView`] fixture the oracles compare them with.

use cip_contact::SurfaceElementInfo;
use cip_geom::{Aabb, Point};
use cip_graph::{comm_volume_of_rows, cut_edges_of_rows, load_imbalance};
use cip_mesh::graphs::{NodalGraph, NodalGraphOptions};
use cip_mesh::{Mesh, NodalTopology, Surface, SurfaceFace};
use cip_sim::SimResult;
use cip_telemetry::Recorder;

/// `values[id]` of every id in `ids`, e.g. the positions of contact nodes
/// or the parts of a graph's vertices (`gather(&g.node_of_vertex, parts)`).
pub fn gather<T: Copy>(ids: &[u32], values: &[T]) -> Vec<T> {
    ids.iter().map(|&id| values[id as usize]).collect()
}

/// The weighted nodal graph of snapshot `i` under `opts`: the epoch's
/// topology ([`SimResult::topology`], reported to `rec`) weighted by the
/// snapshot's contact nodes.
pub fn contact_graph(
    sim: &SimResult,
    i: usize,
    opts: NodalGraphOptions,
    rec: &Recorder,
) -> NodalGraph {
    let mask = sim.snapshots[i].contact.contact_node_mask(sim.base.num_nodes());
    sim.topology(i, rec).graph(&mask, opts)
}

/// The face pass: every contact face's box over `points` and owner under
/// `node_parts` ([`face_owner`]) — what a step ships and NRemote counts.
pub fn surface_elements<const D: usize>(
    faces: &[SurfaceFace],
    points: &[Point<D>],
    node_parts: &[u32],
) -> Vec<SurfaceElementInfo<D>> {
    faces
        .iter()
        .map(|sf| {
            let mut bbox = Aabb::empty();
            for &n in sf.face.nodes() {
                bbox.grow(&points[n as usize]);
            }
            SurfaceElementInfo { bbox, owner: face_owner(sf.face.nodes(), node_parts) }
        })
        .collect()
}

/// Body id of every contact face (parallel to [`surface_elements`]).
pub fn face_bodies(faces: &[SurfaceFace]) -> Vec<u16> {
    faces.iter().map(|sf| sf.body).collect()
}

/// The part that owns a surface element: the majority part among its
/// nodes' parts (ties broken towards the smallest part id, so ownership is
/// deterministic).
pub fn face_owner(face_nodes: &[u32], node_parts: &[u32]) -> u32 {
    debug_assert!(!face_nodes.is_empty());
    // Faces have at most 4 nodes; a tiny fixed scan beats any map.
    let mut parts = [u32::MAX; 4];
    let mut counts = [0u8; 4];
    let mut used = 0usize;
    for &n in face_nodes {
        let p = node_parts[n as usize];
        debug_assert_ne!(p, u32::MAX, "face node {n} has no part");
        match parts[..used].iter().position(|&q| q == p) {
            Some(i) => counts[i] += 1,
            None => {
                parts[used] = p;
                counts[used] = 1;
                used += 1;
            }
        }
    }
    let mut best = 0usize;
    for i in 1..used {
        if counts[i] > counts[best] || (counts[i] == counts[best] && parts[i] < parts[best]) {
            best = i;
        }
    }
    parts[best]
}

/// What the FE phase of one snapshot costs under a node assignment, read
/// off its epoch's topology rows (no weighted graph is built).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeCost {
    /// FEComm: the node copies `cip_runtime::HaloPlan` ships.
    pub fe_comm: u64,
    /// Edges between parts, each weighing 1.
    pub edge_cut: u64,
    /// Balance of the node count per part.
    pub imbalance_fe: f64,
}

impl FeCost {
    /// The cost of `node_parts` over `k` parts on `topology`.
    pub fn of(topology: &NodalTopology, node_parts: &[u32], k: usize) -> Self {
        let asg = gather(topology.node_of_vertex(), node_parts);
        debug_assert!(asg.iter().all(|&p| p != u32::MAX), "a live node has no part");
        Self {
            fe_comm: comm_volume_of_rows(topology.xadj(), topology.adjncy(), &asg),
            edge_cut: cut_edges_of_rows(topology.xadj(), topology.adjncy(), &asg),
            imbalance_fe: label_imbalance(&asg, k),
        }
    }
}

/// The balance of a unit-weight labelling over `k` parts: the
/// `cip_graph::Partition::imbalance` of its counts.
pub(crate) fn label_imbalance(labels: &[u32], k: usize) -> f64 {
    let mut loads = vec![0i64; k];
    for &p in labels {
        loads[p as usize] += 1;
    }
    load_imbalance(loads.iter().copied().max().unwrap_or(0), labels.len() as i64, k)
}

/// The contact points of one snapshot: node ids and their positions,
/// parallel arrays.
#[derive(Debug, Clone)]
pub struct ContactPoints {
    /// Mesh node ids (sorted ascending, as produced by surface
    /// extraction).
    pub nodes: Vec<u32>,
    /// Positions of those nodes at this snapshot.
    pub positions: Vec<Point<3>>,
}

impl ContactPoints {
    /// Extracts the contact points of `surface` at the given positions.
    pub fn from_surface(surface: &Surface, points: &[Point<3>]) -> Self {
        let nodes = surface.contact_nodes.clone();
        let positions = gather(&nodes, points);
        Self { nodes, positions }
    }

    /// Number of contact points.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether there are no contact points.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The part of each contact point under a mesh-node assignment
    /// (`node_parts[n]` = part of node `n`, `u32::MAX` allowed only for
    /// non-contact nodes).
    pub fn labels_from_node_parts(&self, node_parts: &[u32]) -> Vec<u32> {
        self.nodes
            .iter()
            .map(|&n| {
                let p = node_parts[n as usize];
                debug_assert_ne!(p, u32::MAX, "contact node {n} has no part");
                p
            })
            .collect()
    }
}

/// One snapshot materialised the long way round: a deep copy of the mesh,
/// both weighted nodal graphs, the contact points and faces. A fixture for
/// the oracle tests and the benchmark's `*_medium` workloads, not a
/// pipeline path: those price a snapshot with this module's primitives.
pub struct SnapshotView {
    /// The materialized mesh at this snapshot.
    pub mesh: Mesh<3>,
    /// The two-constraint nodal graph (FE + contact work, boosted contact
    /// edges).
    pub graph2: NodalGraph,
    /// The single-constraint, unit-weight nodal graph (ML+RCB's FE
    /// partition; the edge cut).
    pub graph1: NodalGraph,
    /// Contact points.
    pub contact: ContactPoints,
    /// The contact faces: node ids and owning body.
    pub faces: Vec<SurfaceFace>,
}

impl SnapshotView {
    /// Builds the view of snapshot `i` of a simulation run.
    pub fn build(sim: &SimResult, i: usize, contact_edge_weight: i64) -> Self {
        Self::build_recorded(sim, i, contact_edge_weight, &Recorder::disabled())
    }

    /// [`SnapshotView::build`], reporting the topology cache of `sim` to
    /// `rec` (see [`SimResult::topology`]).
    pub fn build_recorded(
        sim: &SimResult,
        i: usize,
        contact_edge_weight: i64,
        rec: &Recorder,
    ) -> Self {
        let mesh = sim.mesh_at(i);
        let surface = &sim.snapshots[i].contact;
        let mask = surface.contact_node_mask(mesh.num_nodes());
        let topology = sim.topology(i, rec);
        let graph2 = topology.graph(
            &mask,
            NodalGraphOptions { ncon: 2, contact_edge_weight, normal_edge_weight: 1 },
        );
        let graph1 = topology.graph(&mask, NodalGraphOptions::single_constraint());
        let contact = ContactPoints::from_surface(surface, &mesh.points);
        let faces = surface.faces.clone();
        Self { mesh, graph2, graph1, contact, faces }
    }

    /// [`surface_elements`] of this snapshot under a node-part assignment.
    pub fn surface_elements(&self, node_parts: &[u32]) -> Vec<SurfaceElementInfo<3>> {
        surface_elements(&self.faces, &self.mesh.points, node_parts)
    }

    /// [`face_bodies`] of this snapshot.
    pub fn face_bodies(&self) -> Vec<u16> {
        face_bodies(&self.faces)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cip_graph::{edge_cut, total_comm_volume, Partition};
    use cip_sim::SimConfig;

    #[test]
    fn face_owner_majority_and_ties() {
        let parts = vec![0u32, 0, 1, 2, 1, 1];
        assert_eq!(face_owner(&[0, 1, 2, 3], &parts), 0); // 2x part0 beats 1x1,1x2
        assert_eq!(face_owner(&[2, 4, 5], &parts), 1);
        assert_eq!(face_owner(&[0, 2], &parts), 0, "tie -> smaller part id");
        assert_eq!(face_owner(&[3], &parts), 2);
    }

    #[test]
    fn snapshot_view_is_consistent() {
        let sim = cip_sim::run(&SimConfig::tiny());
        let view = SnapshotView::build(&sim, 0, 5);
        assert_eq!(view.graph2.graph.ncon(), 2);
        assert_eq!(view.graph1.graph.ncon(), 1);
        assert_eq!(view.graph1.graph.nv(), view.graph2.graph.nv());
        assert_eq!(view.contact.len(), sim.snapshots[0].contact.num_contact_nodes());
        assert_eq!(view.faces.len(), sim.snapshots[0].contact.num_faces());
        // Total contact weight equals the contact-node count.
        let totals = view.graph2.graph.total_vwgt();
        assert_eq!(totals[1] as usize, view.contact.len());
    }

    #[test]
    fn contact_points_track_node_positions() {
        let sim = cip_sim::run(&SimConfig::tiny());
        let view = SnapshotView::build(&sim, 3, 5);
        for (i, &n) in view.contact.nodes.iter().enumerate() {
            assert_eq!(view.contact.positions[i], view.mesh.points[n as usize]);
        }
    }

    #[test]
    fn labels_from_node_parts_roundtrip() {
        let sim = cip_sim::run(&SimConfig::tiny());
        let view = SnapshotView::build(&sim, 0, 5);
        let node_parts = vec![3u32; view.mesh.num_nodes()];
        let labels = view.contact.labels_from_node_parts(&node_parts);
        assert!(labels.iter().all(|&l| l == 3));
        assert_eq!(labels.len(), view.contact.len());
    }

    #[test]
    fn fe_cost_equals_the_graph_metrics_of_the_view() {
        let sim = cip_sim::run(&SimConfig::tiny());
        for i in [0, sim.len() - 1] {
            let view = SnapshotView::build(&sim, i, 5);
            let k = 3;
            let node_parts: Vec<u32> = (0..sim.base.num_nodes() as u32).map(|n| n % 3).collect();
            let asg = gather(&view.graph2.node_of_vertex, &node_parts);
            let cost = FeCost::of(sim.topology(i, &Recorder::disabled()), &node_parts, k);
            let part = Partition::from_assignment(&view.graph1.graph, k, asg.clone());
            assert_eq!(cost.fe_comm, total_comm_volume(&view.graph2.graph, &asg));
            assert_eq!(cost.edge_cut as i64, edge_cut(&view.graph1.graph, &asg));
            assert_eq!(cost.imbalance_fe, part.imbalance(0));
            assert_eq!(
                contact_graph(&sim, i, NodalGraphOptions::default(), &Recorder::disabled())
                    .graph
                    .adjwgt(),
                view.graph2.graph.adjwgt()
            );
        }
    }
}
