//! Shared per-snapshot machinery for both pipelines.

use cip_contact::SurfaceElementInfo;
use cip_geom::{Aabb, Point};
use cip_mesh::graphs::{NodalGraph, NodalGraphOptions};
use cip_mesh::{Face, Mesh, Surface};
use cip_sim::SimResult;
use cip_telemetry::Recorder;

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
        let positions = nodes.iter().map(|&n| points[n as usize]).collect();
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

/// Everything both pipelines need about one snapshot, computed once.
pub struct SnapshotView {
    /// The materialized mesh at this snapshot.
    pub mesh: Mesh<3>,
    /// The two-constraint nodal graph (FE + contact work, boosted contact
    /// edges).
    pub graph2: NodalGraph,
    /// The single-constraint nodal graph (baseline FE partitioning /
    /// FEComm evaluation uses the same topology; kept separate because the
    /// baseline uses uniform edge weights).
    pub graph1: NodalGraph,
    /// Contact points.
    pub contact: ContactPoints,
    /// One entry per contact face: its node ids (for ownership), bbox,
    /// and the body it belongs to.
    pub faces: Vec<FaceView>,
}

/// A contact face as the pipelines see it.
#[derive(Debug, Clone, Copy)]
pub struct FaceView {
    /// The face (global node ids).
    pub face: Face,
    /// Bounding box at this snapshot.
    pub bbox: Aabb<3>,
    /// Body id of the owning element.
    pub body: u16,
}

impl FaceView {
    /// Global node ids of the face.
    #[inline]
    pub fn nodes(&self) -> &[u32] {
        self.face.nodes()
    }
}

impl SnapshotView {
    /// Builds the view of snapshot `i` of a simulation run.
    pub fn build(sim: &SimResult, i: usize, contact_edge_weight: i64) -> Self {
        Self::build_recorded(sim, i, contact_edge_weight, &Recorder::disabled())
    }

    /// [`SnapshotView::build`], reporting the topology cache of `sim` to
    /// `rec` (see [`SimResult::topology`]).
    ///
    /// The graph topology comes from the snapshot's epoch and is built at
    /// most once per epoch; per snapshot only the contact mask, the
    /// weights it selects, and the face boxes are computed.
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
        let faces = surface
            .faces
            .iter()
            .map(|sf| {
                let mut bbox = Aabb::empty();
                for &n in sf.face.nodes() {
                    bbox.grow(&mesh.points[n as usize]);
                }
                FaceView { face: sf.face, bbox, body: sf.body }
            })
            .collect();
        Self { mesh, graph2, graph1, contact, faces }
    }

    /// Surface-element descriptors under a node-part assignment: bbox plus
    /// the owning part (majority part of the face's nodes).
    pub fn surface_elements(&self, node_parts: &[u32]) -> Vec<SurfaceElementInfo<3>> {
        self.faces
            .iter()
            .map(|f| SurfaceElementInfo { bbox: f.bbox, owner: face_owner(f.nodes(), node_parts) })
            .collect()
    }

    /// Body id of every contact face (parallel to
    /// [`SnapshotView::surface_elements`]).
    pub fn face_bodies(&self) -> Vec<u16> {
        self.faces.iter().map(|f| f.body).collect()
    }
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

#[cfg(test)]
mod tests {
    use super::*;
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
}
