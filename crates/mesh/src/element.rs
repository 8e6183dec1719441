//! Linear finite elements and their face/edge topology.

use cip_geom::Point;

/// The element families supported by the mesh layer.
///
/// 2D elements (Tri3, Quad4) have *edges* as their boundary facets; 3D
/// elements (Tet4, Hex8) have triangular or quadrilateral *faces*. The
/// synthetic projectile workload uses Hex8 throughout (matching the EPIC
/// hexahedral meshes); Tet4/Tri3/Quad4 round out the layer for tests and
/// 2D illustrations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElementKind {
    /// 3-node triangle (2D).
    Tri3,
    /// 4-node quadrilateral (2D).
    Quad4,
    /// 4-node tetrahedron (3D).
    Tet4,
    /// 8-node hexahedron (3D), nodes 0-3 on the bottom face
    /// (counter-clockwise), 4-7 directly above them.
    Hex8,
}

impl ElementKind {
    /// Number of nodes of this element kind.
    pub const fn num_nodes(self) -> usize {
        match self {
            ElementKind::Tri3 => 3,
            ElementKind::Quad4 => 4,
            ElementKind::Tet4 => 4,
            ElementKind::Hex8 => 8,
        }
    }

    /// Number of boundary facets (edges in 2D, faces in 3D).
    pub const fn num_faces(self) -> usize {
        match self {
            ElementKind::Tri3 => 3,
            ElementKind::Quad4 => 4,
            ElementKind::Tet4 => 4,
            ElementKind::Hex8 => 6,
        }
    }

    /// Number of element edges (used for nodal-graph construction).
    pub const fn num_edges(self) -> usize {
        match self {
            ElementKind::Tri3 => 3,
            ElementKind::Quad4 => 4,
            ElementKind::Tet4 => 6,
            ElementKind::Hex8 => 12,
        }
    }

    /// Spatial dimension this element is naturally embedded in.
    pub const fn dimension(self) -> usize {
        match self {
            ElementKind::Tri3 | ElementKind::Quad4 => 2,
            ElementKind::Tet4 | ElementKind::Hex8 => 3,
        }
    }

    /// Local node indices of facet `f`, in canonical order.
    pub fn face_local(self, f: usize) -> &'static [usize] {
        match self {
            ElementKind::Tri3 => [[0, 1], [1, 2], [2, 0]][f].as_slice(),
            ElementKind::Quad4 => [[0, 1], [1, 2], [2, 3], [3, 0]][f].as_slice(),
            ElementKind::Tet4 => [[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]][f].as_slice(),
            ElementKind::Hex8 => [
                [0, 3, 2, 1], // bottom (z-)
                [4, 5, 6, 7], // top (z+)
                [0, 1, 5, 4], // y-
                [2, 3, 7, 6], // y+
                [1, 2, 6, 5], // x+
                [3, 0, 4, 7], // x-
            ][f]
                .as_slice(),
        }
    }

    /// Local node-index pairs of the element's edges.
    pub fn edges_local(self) -> &'static [[usize; 2]] {
        match self {
            ElementKind::Tri3 => &[[0, 1], [1, 2], [2, 0]],
            ElementKind::Quad4 => &[[0, 1], [1, 2], [2, 3], [3, 0]],
            ElementKind::Tet4 => &[[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]],
            ElementKind::Hex8 => &[
                [0, 1],
                [1, 2],
                [2, 3],
                [3, 0],
                [4, 5],
                [5, 6],
                [6, 7],
                [7, 4],
                [0, 4],
                [1, 5],
                [2, 6],
                [3, 7],
            ],
        }
    }
}

/// An element: a kind plus its global node ids.
///
/// Node ids are stored in a fixed 8-slot array (unused slots are
/// `u32::MAX`) so `Vec<Element>` stays contiguous without boxing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Element {
    /// Element family.
    pub kind: ElementKind,
    nodes: [u32; 8],
}

impl Element {
    /// Creates an element from its kind and global node ids.
    ///
    /// # Panics
    /// Panics if `nodes.len()` does not match the kind.
    pub fn new(kind: ElementKind, nodes: &[u32]) -> Self {
        assert_eq!(nodes.len(), kind.num_nodes(), "wrong node count for {kind:?}");
        let mut arr = [u32::MAX; 8];
        arr[..nodes.len()].copy_from_slice(nodes);
        Self { kind, nodes: arr }
    }

    /// Shorthand for a hexahedron.
    pub fn hex8(nodes: [u32; 8]) -> Self {
        Self { kind: ElementKind::Hex8, nodes }
    }

    /// Shorthand for a quadrilateral.
    pub fn quad4(nodes: [u32; 4]) -> Self {
        Self::new(ElementKind::Quad4, &nodes)
    }

    /// Shorthand for a triangle.
    pub fn tri3(nodes: [u32; 3]) -> Self {
        Self::new(ElementKind::Tri3, &nodes)
    }

    /// Shorthand for a tetrahedron.
    pub fn tet4(nodes: [u32; 4]) -> Self {
        Self::new(ElementKind::Tet4, &nodes)
    }

    /// Global node ids of this element.
    #[inline]
    pub fn nodes(&self) -> &[u32] {
        &self.nodes[..self.kind.num_nodes()]
    }

    /// Global node ids of facet `f`, written into a [`Face`].
    pub fn face(&self, f: usize) -> Face {
        let local = self.kind.face_local(f);
        let mut nodes = [u32::MAX; 4];
        for (slot, &l) in nodes.iter_mut().zip(local.iter()) {
            *slot = self.nodes[l];
        }
        Face { nodes, len: local.len() as u8 }
    }

    /// Iterates over the element's global edges.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.kind.edges_local().iter().map(move |&[a, b]| (self.nodes[a], self.nodes[b]))
    }

    /// The mean of this element's node positions (`points[n]` of node `n`).
    pub fn centroid<const D: usize>(&self, points: &[Point<D>]) -> Point<D> {
        let mut acc = Point::origin();
        for &n in self.nodes() {
            acc = acc.add(&points[n as usize]);
        }
        acc.scale(1.0 / self.nodes().len() as f64)
    }
}

/// A boundary facet: up to four global node ids (segments in 2D, triangles
/// or quadrilaterals in 3D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Face {
    nodes: [u32; 4],
    len: u8,
}

impl Face {
    /// The facet's global node ids in element-local order.
    #[inline]
    pub fn nodes(&self) -> &[u32] {
        &self.nodes[..self.len as usize]
    }

    /// A sort-canonical key identifying the facet regardless of orientation
    /// or starting node. Two elements share a facet iff their keys match.
    pub fn key(&self) -> [u32; 4] {
        let mut k = self.nodes;
        k[..self.len as usize].sort_unstable();
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_counts_consistent() {
        for kind in [ElementKind::Tri3, ElementKind::Quad4, ElementKind::Tet4, ElementKind::Hex8] {
            for f in 0..kind.num_faces() {
                let local = kind.face_local(f);
                assert!(local.iter().all(|&l| l < kind.num_nodes()));
            }
            for e in kind.edges_local() {
                assert!(e[0] < kind.num_nodes() && e[1] < kind.num_nodes());
            }
            assert_eq!(kind.edges_local().len(), kind.num_edges());
        }
    }

    #[test]
    fn hex_faces_cover_all_nodes() {
        let e = Element::hex8([10, 11, 12, 13, 14, 15, 16, 17]);
        let mut seen = std::collections::HashSet::new();
        for f in 0..6 {
            for &n in e.face(f).nodes() {
                seen.insert(n);
            }
        }
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn each_hex_edge_shared_by_two_faces() {
        // In a hexahedron each edge belongs to exactly 2 faces.
        let e = Element::hex8([0, 1, 2, 3, 4, 5, 6, 7]);
        for (a, b) in e.edges() {
            let mut count = 0;
            for f in 0..6 {
                let face = e.face(f);
                let n = face.nodes();
                for i in 0..n.len() {
                    let (x, y) = (n[i], n[(i + 1) % n.len()]);
                    if (x == a && y == b) || (x == b && y == a) {
                        count += 1;
                    }
                }
            }
            assert_eq!(count, 2, "edge ({a},{b})");
        }
    }

    #[test]
    fn face_key_is_orientation_invariant() {
        let f1 = Element::quad4([3, 9, 1, 7]).face(0); // edge (3,9)
        let f2 = Element::quad4([9, 3, 5, 6]).face(0); // edge (9,3)
        assert_eq!(f1.key(), f2.key());
        assert_ne!(f1.nodes(), f2.nodes());
    }

    #[test]
    fn tet_faces_are_triangles() {
        let e = Element::tet4([0, 1, 2, 3]);
        for f in 0..4 {
            assert_eq!(e.face(f).nodes().len(), 3);
        }
    }

    #[test]
    #[should_panic(expected = "wrong node count")]
    fn wrong_node_count_panics() {
        let _ = Element::new(ElementKind::Tri3, &[0, 1]);
    }

    #[test]
    fn edges_report_global_ids() {
        let e = Element::tri3([5, 8, 2]);
        let edges: Vec<_> = e.edges().collect();
        assert_eq!(edges, vec![(5, 8), (8, 2), (2, 5)]);
    }
}
