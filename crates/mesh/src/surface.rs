//! Boundary-surface extraction.
//!
//! A facet (edge in 2D, face in 3D) is a *boundary facet* iff exactly one
//! live element owns it. The boundary facets are the paper's **surface
//! (contact) elements** and their nodes the **contact nodes** — the entities
//! the contact-search phase operates on. As elements erode during
//! penetration, interior facets become boundary facets, so the contact set
//! grows exactly as it does in the EPIC simulations the paper evaluates on.

use crate::element::Face;
use crate::mesh::Mesh;

/// A boundary facet together with its owning element and body.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurfaceFace {
    /// The facet (global node ids).
    pub face: Face,
    /// The unique live element owning this facet.
    pub element: u32,
    /// Body id of the owning element.
    pub body: u16,
}

/// The extracted boundary surface of a mesh.
#[derive(Debug, Clone, PartialEq)]
pub struct Surface {
    /// Boundary facets — the *surface elements* searched for contact.
    pub faces: Vec<SurfaceFace>,
    /// Sorted, deduplicated node ids of all boundary facets — the
    /// *contact nodes*.
    pub contact_nodes: Vec<u32>,
}

impl Surface {
    /// Number of surface elements.
    pub fn num_faces(&self) -> usize {
        self.faces.len()
    }

    /// Number of contact nodes.
    pub fn num_contact_nodes(&self) -> usize {
        self.contact_nodes.len()
    }

    /// A membership mask over mesh nodes: `mask[n]` iff `n` is a contact
    /// node.
    pub fn contact_node_mask(&self, num_nodes: usize) -> Vec<bool> {
        let mut mask = vec![false; num_nodes];
        for &n in &self.contact_nodes {
            mask[n as usize] = true;
        }
        mask
    }
}

/// Extracts the boundary surface of the live part of `mesh`.
///
/// Runs in `O(F log F)` for `F` total facets via sort-and-scan on canonical
/// facet keys (no hashing, no per-facet allocation).
///
/// ```
/// use cip_geom::Point;
/// use cip_mesh::{extract_surface, generators};
///
/// let mesh = generators::hex_box([2, 2, 2], Point::new([0.0; 3]), [1.0; 3], 0);
/// let surface = extract_surface(&mesh);
/// // A 2x2x2 box exposes 6 faces of 4 quads each.
/// assert_eq!(surface.num_faces(), 24);
/// // All 27 nodes except the center touch the boundary.
/// assert_eq!(surface.num_contact_nodes(), 26);
/// ```
pub fn extract_surface<const D: usize>(mesh: &Mesh<D>) -> Surface {
    // (canonical key, element id, facet index) per live facet.
    let mut recs: Vec<([u32; 4], u32, u8)> = Vec::new();
    for (e, el) in mesh.live_elements() {
        for f in 0..el.kind.num_faces() {
            recs.push((el.face(f).key(), e, f as u8));
        }
    }
    recs.sort_unstable_by_key(|a| a.0);

    let mut faces = Vec::new();
    let mut i = 0;
    while i < recs.len() {
        let mut j = i + 1;
        while j < recs.len() && recs[j].0 == recs[i].0 {
            j += 1;
        }
        if j - i == 1 {
            let (_, e, f) = recs[i];
            let el = &mesh.elements[e as usize];
            faces.push(SurfaceFace {
                face: el.face(f as usize),
                element: e,
                body: mesh.body[e as usize],
            });
        }
        i = j;
    }

    let mut contact_nodes: Vec<u32> =
        faces.iter().flat_map(|sf| sf.face.nodes().iter().copied()).collect();
    contact_nodes.sort_unstable();
    contact_nodes.dedup();
    Surface { faces, contact_nodes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Element;
    use crate::generators;
    use cip_geom::Point;

    #[test]
    fn single_quad_is_all_boundary() {
        let m = Mesh::<2>::new(
            vec![
                Point::new([0.0, 0.0]),
                Point::new([1.0, 0.0]),
                Point::new([1.0, 1.0]),
                Point::new([0.0, 1.0]),
            ],
            vec![Element::quad4([0, 1, 2, 3])],
        );
        let s = extract_surface(&m);
        assert_eq!(s.num_faces(), 4);
        assert_eq!(s.num_contact_nodes(), 4);
    }

    #[test]
    fn shared_edge_is_interior() {
        // Two quads sharing edge (1,4): 8 total edges, 6 boundary.
        let m = Mesh::<2>::new(
            vec![
                Point::new([0.0, 0.0]),
                Point::new([1.0, 0.0]),
                Point::new([2.0, 0.0]),
                Point::new([0.0, 1.0]),
                Point::new([1.0, 1.0]),
                Point::new([2.0, 1.0]),
            ],
            vec![Element::quad4([0, 1, 4, 3]), Element::quad4([1, 2, 5, 4])],
        );
        let s = extract_surface(&m);
        assert_eq!(s.num_faces(), 6);
        assert_eq!(s.num_contact_nodes(), 6, "all nodes touch the boundary here");
    }

    #[test]
    fn hex_box_surface_count() {
        // An (nx, ny, nz) hex box has 2(nx*ny + ny*nz + nx*nz) boundary faces.
        let m = generators::hex_box([3, 4, 5], Point::new([0.0, 0.0, 0.0]), [1.0, 1.0, 1.0], 0);
        let s = extract_surface(&m);
        assert_eq!(s.num_faces(), 2 * (3 * 4 + 4 * 5 + 3 * 5));
        // Interior nodes are (nx-1)(ny-1)(nz-1).
        let interior = 2 * 3 * 4;
        assert_eq!(s.num_contact_nodes(), m.num_nodes() - interior);
    }

    #[test]
    fn erosion_exposes_new_surface() {
        let m0 = generators::hex_box([3, 3, 3], Point::new([0.0, 0.0, 0.0]), [1.0, 1.0, 1.0], 0);
        let before = extract_surface(&m0).num_faces();
        let mut m = m0;
        // Erode the center element: its 6 faces were interior, all become
        // boundary (owned by the 6 orthogonal neighbors).
        let center = (0..m.num_elements() as u32)
            .find(|&e| {
                let c = m.element_centroid(e);
                (c[0] - 1.5).abs() < 1e-9 && (c[1] - 1.5).abs() < 1e-9 && (c[2] - 1.5).abs() < 1e-9
            })
            .unwrap();
        m.erode(center);
        let after = extract_surface(&m).num_faces();
        assert_eq!(after, before + 6);
    }

    #[test]
    fn fully_eroded_mesh_has_empty_surface() {
        let mut m = generators::hex_box([2, 2, 2], Point::new([0.0, 0.0, 0.0]), [1.0, 1.0, 1.0], 0);
        for e in 0..m.num_elements() as u32 {
            m.erode(e);
        }
        let s = extract_surface(&m);
        assert_eq!(s.num_faces(), 0);
        assert_eq!(s.num_contact_nodes(), 0);
    }

    #[test]
    fn surface_faces_record_owner_and_body() {
        let m = Mesh::<2>::with_bodies(
            vec![
                Point::new([0.0, 0.0]),
                Point::new([1.0, 0.0]),
                Point::new([1.0, 1.0]),
                Point::new([0.0, 1.0]),
            ],
            vec![Element::quad4([0, 1, 2, 3])],
            vec![7],
        );
        let s = extract_surface(&m);
        assert!(s.faces.iter().all(|f| f.element == 0 && f.body == 7));
    }

    #[test]
    fn contact_node_mask_roundtrip() {
        let m = generators::hex_box([2, 2, 2], Point::new([0.0, 0.0, 0.0]), [1.0, 1.0, 1.0], 0);
        let s = extract_surface(&m);
        let mask = s.contact_node_mask(m.num_nodes());
        assert_eq!(mask.iter().filter(|&&b| b).count(), s.num_contact_nodes());
    }
}
