//! Boundary-surface extraction.
//!
//! A facet (edge in 2D, face in 3D) is a *boundary facet* iff exactly one
//! live element owns it. The boundary facets are the paper's **surface
//! (contact) elements** and their nodes the **contact nodes** — the entities
//! the contact-search phase operates on. As elements erode during
//! penetration, interior facets become boundary facets, so the contact set
//! grows exactly as it does in the EPIC simulations the paper evaluates on.

use crate::element::{Element, Face};
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
    /// The surface made of `faces` over a mesh of `num_nodes` nodes. The
    /// contact nodes are listed by marking a node mask and sweeping it,
    /// which leaves them ascending and distinct without a sort.
    pub fn from_faces(faces: Vec<SurfaceFace>, num_nodes: usize) -> Self {
        let mut on_surface = vec![false; num_nodes];
        for sf in &faces {
            for &n in sf.face.nodes() {
                on_surface[n as usize] = true;
            }
        }
        let contact_nodes = (0..num_nodes as u32).filter(|&n| on_surface[n as usize]).collect();
        Self { faces, contact_nodes }
    }

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

/// The canonical facet records of a mesh's elements — live or not —
/// sorted once.
///
/// Erosion only flips live flags, so the sort (the `O(F log F)` part of
/// boundary extraction, `F` = total facets) is paid once per mesh and
/// the boundary of any live mask is one linear scan over the sorted runs
/// ([`FacetIndex::boundary`]).
#[derive(Debug)]
pub struct FacetIndex<'m> {
    elements: &'m [Element],
    body: &'m [u16],
    num_nodes: usize,
    /// `(canonical key, element id, facet index)`, sorted by key.
    recs: Vec<([u32; 4], u32, u8)>,
}

impl<'m> FacetIndex<'m> {
    /// Indexes every facet of every element of `mesh` (its live mask is
    /// not read). No hashing, no per-facet allocation.
    pub fn build<const D: usize>(mesh: &'m Mesh<D>) -> Self {
        let mut recs = Vec::new();
        for (e, el) in mesh.elements.iter().enumerate() {
            for f in 0..el.kind.num_faces() {
                recs.push((el.face(f).key(), e as u32, f as u8));
            }
        }
        recs.sort_unstable_by_key(|a| a.0);
        Self { elements: &mesh.elements, body: &mesh.body, num_nodes: mesh.num_nodes(), recs }
    }

    /// Calls `visit` with the live owners `(element, facet index)` of
    /// every facet that has one, in key order.
    pub(crate) fn for_each_live_facet(&self, alive: &[bool], mut visit: impl FnMut(&[(u32, u8)])) {
        assert_eq!(alive.len(), self.elements.len(), "one live flag per element");
        let mut owners: Vec<(u32, u8)> = Vec::new();
        let mut i = 0;
        while i < self.recs.len() {
            let key = self.recs[i].0;
            owners.clear();
            while i < self.recs.len() && self.recs[i].0 == key {
                let (_, e, f) = self.recs[i];
                if alive[e as usize] {
                    owners.push((e, f));
                }
                i += 1;
            }
            if !owners.is_empty() {
                visit(&owners);
            }
        }
    }

    /// The boundary surface under the live mask `alive`: the facets with
    /// exactly one live owner, in key order.
    pub fn boundary(&self, alive: &[bool]) -> Surface {
        let mut faces = Vec::new();
        self.for_each_live_facet(alive, |owners| {
            if let &[(e, f)] = owners {
                faces.push(SurfaceFace {
                    face: self.elements[e as usize].face(f as usize),
                    element: e,
                    body: self.body[e as usize],
                });
            }
        });
        Surface::from_faces(faces, self.num_nodes)
    }
}

/// Extracts the boundary surface of the live part of `mesh`: index its
/// facets, scan once. A caller that extracts under many live masks of one
/// mesh keeps the [`FacetIndex`] instead.
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
    FacetIndex::build(mesh).boundary(&mesh.alive)
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
