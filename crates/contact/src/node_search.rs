//! Node-vs-face local search.
//!
//! Production contact codes (the paper cites Zhong & Nilsson, Heinstein
//! et al., Oldenburg & Nilsson) detect contact between a *slave node* and
//! a *master face*: a node of one body penetrating (or within the capture
//! distance of) a face of another body. This module supplies that
//! detection mode alongside the element-pair mode of [`crate::local`];
//! the grid broad phase keeps it near linear.

use crate::grid::UniformGrid;
use crate::hull::BodyHulls;
use cip_base::par;
use cip_geom::{Aabb, Point};

/// A candidate node-face contact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeFaceContact {
    /// Index of the node in the caller's node array.
    pub node: u32,
    /// Index of the face in the caller's face array.
    pub face: u32,
    /// Squared distance from the node to the face's bounding box
    /// (0 = inside the box).
    pub dist2: f64,
}

/// Finds all (node, face) pairs with `body[node] != face_body[face]` whose
/// node lies within `tolerance` of the face's bounding box.
///
/// Like the element-pair search it is culled to the contact zone first
/// (`hull.rs`): only nodes within reach of another body's face hull query
/// the grid, and only faces within reach of another body's node hull are
/// in it.
///
/// Results are sorted by `(node, face)`. Deterministic.
pub fn find_node_face_contacts<const D: usize>(
    nodes: &[Point<D>],
    node_body: &[u16],
    faces: &[Aabb<D>],
    face_body: &[u16],
    tolerance: f64,
) -> Vec<NodeFaceContact> {
    assert_eq!(nodes.len(), node_body.len(), "one body per node");
    assert_eq!(faces.len(), face_body.len(), "one body per face");
    // A negative tolerance empties every query; cull with zero.
    let reach = tolerance.max(0.0);
    let node_items = || node_body.iter().copied().zip(nodes.iter().map(|p| Aabb::from_point(*p)));
    let face_items = || face_body.iter().copied().zip(faces.iter().copied());
    let (all_nodes, all_faces) =
        (BodyHulls::of(node_items(), reach), BodyHulls::of(face_items(), reach));
    let (node_hulls, face_hulls) = (all_nodes.facing(&all_faces), all_faces.facing(&all_nodes));
    let active_nodes = node_hulls.zone(&face_hulls, node_items(), reach);
    let active_faces = face_hulls.zone(&node_hulls, face_items(), reach);
    let zone_faces: Vec<Aabb<D>> = active_faces.iter().map(|&f| faces[f as usize]).collect();
    let zone_body: Vec<u16> = active_faces.iter().map(|&f| face_body[f as usize]).collect();
    let grid = UniformGrid::build_auto(&zone_faces);
    let tol2 = tolerance * tolerance;
    // One (stamp scratch, candidate buffer) per part, so the hot query
    // loop does not allocate per node.
    let mut contacts = par::flat_parts(&active_nodes[..], |_, active_nodes| {
        let (mut scratch, mut out, mut contacts) = (grid.scratch(), Vec::new(), Vec::new());
        for &n in active_nodes {
            let p = &nodes[n as usize];
            let mine = node_body[n as usize];
            let q = Aabb::from_point(*p).inflate(tolerance);
            grid.query_where(&q, &mut scratch, &mut out, |f| zone_body[f as usize] != mine);
            for &f in out.iter() {
                let d2 = zone_faces[f as usize].dist2_to_point(p);
                if d2 <= tol2 {
                    contacts.push(NodeFaceContact {
                        node: n,
                        face: active_faces[f as usize],
                        dist2: d2,
                    });
                }
            }
        }
        contacts
    });
    contacts.sort_by_key(|c| (c.node, c.face));
    contacts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn face(x: f64, y: f64) -> Aabb<2> {
        Aabb::new(Point::new([x, y]), Point::new([x + 1.0, y + 0.1]))
    }

    #[test]
    fn detects_node_near_other_body_face() {
        let nodes = vec![Point::new([0.5, 0.3]), Point::new([5.0, 5.0])];
        let node_body = vec![1, 1];
        let faces = vec![face(0.0, 0.0)];
        let face_body = vec![0];
        let hits = find_node_face_contacts(&nodes, &node_body, &faces, &face_body, 0.25);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].node, 0);
        assert_eq!(hits[0].face, 0);
        assert!((hits[0].dist2 - 0.04).abs() < 1e-12, "0.2 above the face");
    }

    #[test]
    fn same_body_is_ignored() {
        let nodes = vec![Point::new([0.5, 0.05])];
        let node_body = vec![0];
        let faces = vec![face(0.0, 0.0)];
        let face_body = vec![0];
        assert!(find_node_face_contacts(&nodes, &node_body, &faces, &face_body, 1.0).is_empty());
    }

    #[test]
    fn tolerance_gates_detection() {
        let nodes = vec![Point::new([0.5, 1.0])];
        let node_body = vec![1];
        let faces = vec![face(0.0, 0.0)]; // top at y = 0.1, node 0.9 above
        let face_body = vec![0];
        assert!(find_node_face_contacts(&nodes, &node_body, &faces, &face_body, 0.5).is_empty());
        assert_eq!(find_node_face_contacts(&nodes, &node_body, &faces, &face_body, 0.95).len(), 1);
    }

    #[test]
    fn penetrating_node_reports_zero_distance() {
        let nodes = vec![Point::new([0.5, 0.05])];
        let node_body = vec![1];
        let faces = vec![face(0.0, 0.0)];
        let face_body = vec![0];
        let hits = find_node_face_contacts(&nodes, &node_body, &faces, &face_body, 0.1);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].dist2, 0.0, "inside the face box");
    }

    #[test]
    fn matches_bruteforce_on_grid_of_faces() {
        let mut faces = Vec::new();
        let mut face_body = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                faces.push(face(i as f64 * 1.5, j as f64 * 1.5));
                face_body.push(0);
            }
        }
        let nodes: Vec<Point<2>> =
            (0..40).map(|i| Point::new([i as f64 * 0.37, (i % 7) as f64 * 1.9])).collect();
        let node_body = vec![1u16; nodes.len()];
        let tol = 0.3;
        let fast = find_node_face_contacts(&nodes, &node_body, &faces, &face_body, tol);
        let mut brute = Vec::new();
        for (n, p) in nodes.iter().enumerate() {
            for (f, b) in faces.iter().enumerate() {
                let d2 = b.dist2_to_point(p);
                if d2 <= tol * tol {
                    brute.push(NodeFaceContact { node: n as u32, face: f as u32, dist2: d2 });
                }
            }
        }
        assert_eq!(fast, brute);
    }
}
