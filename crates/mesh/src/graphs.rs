//! Nodal- and dual-graph construction (§2 of the paper).
//!
//! The partitioner in this system operates on the **nodal graph**: one
//! vertex per (live) mesh node, one edge per mesh edge of a live element.
//! For the contact/impact model of §4.2 the nodal graph carries
//!
//! * two vertex weights — `w1(v) = 1` (finite-element work) for every node
//!   and `w2(v) = 1` for contact nodes, 0 otherwise (contact-search work);
//! * boosted edge weights between pairs of contact nodes (the paper uses 5),
//!   since cutting such an edge costs communication in *both* phases.
//!
//! The **dual graph** (one vertex per element, edges across shared facets)
//! is also provided for completeness and for element-based decompositions.

use crate::element::Element;
use crate::mesh::Mesh;
use crate::surface::FacetIndex;
use cip_graph::{Graph, GraphBuilder};

/// Options controlling nodal-graph construction.
#[derive(Debug, Clone, Copy)]
pub struct NodalGraphOptions {
    /// Number of vertex-weight constraints: 1 (FE work only — the ML
    /// baseline) or 2 (FE + contact work — the paper's MCML formulation).
    pub ncon: usize,
    /// Weight of edges connecting two contact nodes (paper: 5).
    pub contact_edge_weight: i64,
    /// Weight of all other edges (paper: 1).
    pub normal_edge_weight: i64,
}

impl Default for NodalGraphOptions {
    fn default() -> Self {
        Self { ncon: 2, contact_edge_weight: 5, normal_edge_weight: 1 }
    }
}

impl NodalGraphOptions {
    /// The single-constraint, uniform-edge-weight options used when
    /// partitioning for the ML+RCB baseline's FE phase.
    pub fn single_constraint() -> Self {
        Self { ncon: 1, contact_edge_weight: 1, normal_edge_weight: 1 }
    }
}

/// A nodal graph together with its mesh-node <-> graph-vertex mappings.
///
/// Only nodes referenced by at least one live element become graph
/// vertices, so eroded regions do not pollute the balance constraints.
#[derive(Debug, Clone)]
pub struct NodalGraph {
    /// The graph (vertices = live mesh nodes).
    pub graph: Graph,
    /// `node_of_vertex[gv] = mesh node id`.
    pub node_of_vertex: Vec<u32>,
    /// `vertex_of_node[n] = graph vertex id`, or `u32::MAX` for dead nodes.
    pub vertex_of_node: Vec<u32>,
}

impl NodalGraph {
    /// Translates a graph-vertex assignment into a mesh-node assignment
    /// (dead nodes receive `u32::MAX`).
    pub fn assignment_on_nodes(&self, assignment: &[u32]) -> Vec<u32> {
        let mut out = vec![u32::MAX; self.vertex_of_node.len()];
        for (gv, &n) in self.node_of_vertex.iter().enumerate() {
            out[n as usize] = assignment[gv];
        }
        out
    }
}

/// The part of a nodal graph that depends on the mesh connectivity and the
/// live mask alone: which nodes are graph vertices, and which vertices are
/// adjacent.
///
/// Element erosion is the only event that changes it, so a run of
/// snapshots sharing one live mask (a *topology epoch*) shares one
/// `NodalTopology`; the per-snapshot contact mask only selects vertex and
/// edge weights, which [`NodalTopology::graph`] fills in `O(nnz)`.
#[derive(Debug, Clone)]
pub struct NodalTopology {
    /// `node_of_vertex[gv] = mesh node id` (ascending).
    node_of_vertex: Vec<u32>,
    /// `vertex_of_node[n] = graph vertex id`, or `u32::MAX` for dead nodes.
    vertex_of_node: Vec<u32>,
    /// CSR offsets, one per vertex plus the terminal offset.
    xadj: Vec<usize>,
    /// Neighbor vertex ids; every row is strictly ascending.
    adjncy: Vec<u32>,
}

impl NodalTopology {
    /// Builds the topology of the elements flagged in `alive` over a mesh
    /// of `num_nodes` nodes: one vertex per node of a live element, one
    /// edge per distinct element edge.
    ///
    /// Count, fill, then sort and deduplicate each (short) row — an edge
    /// shared by several elements is recorded once per element and must
    /// appear once.
    pub fn build(num_nodes: usize, elements: &[Element], alive: &[bool]) -> Self {
        assert_eq!(alive.len(), elements.len(), "one live flag per element");
        let live = || elements.iter().zip(alive).filter(|&(_, &a)| a).map(|(el, _)| el);

        // Mark the nodes of live elements, then number them in node order.
        let mut vertex_of_node = vec![u32::MAX; num_nodes];
        for el in live() {
            for &n in el.nodes() {
                vertex_of_node[n as usize] = 0;
            }
        }
        let mut node_of_vertex = Vec::new();
        for (n, slot) in vertex_of_node.iter_mut().enumerate() {
            if *slot == 0 {
                *slot = node_of_vertex.len() as u32;
                node_of_vertex.push(n as u32);
            }
        }
        let nv = node_of_vertex.len();

        // Every element edge as a vertex pair, once per element that has
        // it; self-loops never enter.
        let edges = || {
            live().flat_map(|el| el.edges()).filter(|&(a, c)| a != c).map(|(a, c)| {
                (vertex_of_node[a as usize] as usize, vertex_of_node[c as usize] as usize)
            })
        };
        // Rows with duplicates: row `v` is `raw[offset[v]..offset[v + 1]]`.
        let mut offset = vec![0usize; nv + 1];
        for (a, c) in edges() {
            offset[a + 1] += 1;
            offset[c + 1] += 1;
        }
        for v in 0..nv {
            offset[v + 1] += offset[v];
        }
        let mut raw = vec![0u32; offset[nv]];
        let mut cursor = offset[..nv].to_vec();
        for (a, c) in edges() {
            raw[cursor[a]] = c as u32;
            cursor[a] += 1;
            raw[cursor[c]] = a as u32;
            cursor[c] += 1;
        }

        let mut xadj = Vec::with_capacity(nv + 1);
        xadj.push(0);
        let mut adjncy: Vec<u32> = Vec::new();
        for v in 0..nv {
            let row = &mut raw[offset[v]..offset[v + 1]];
            row.sort_unstable();
            let row_start = adjncy.len();
            for &u in row.iter() {
                if adjncy[row_start..].last() != Some(&u) {
                    adjncy.push(u);
                }
            }
            xadj.push(adjncy.len());
        }
        adjncy.shrink_to_fit();
        Self { node_of_vertex, vertex_of_node, xadj, adjncy }
    }

    /// `node_of_vertex()[gv]` = mesh node id of vertex `gv` (ascending).
    pub fn node_of_vertex(&self) -> &[u32] {
        &self.node_of_vertex
    }

    /// CSR row offsets: the neighbours of vertex `v` are
    /// `adjncy()[xadj()[v]..xadj()[v + 1]]`.
    pub fn xadj(&self) -> &[usize] {
        &self.xadj
    }

    /// Neighbour vertex ids, every row strictly ascending.
    pub fn adjncy(&self) -> &[u32] {
        &self.adjncy
    }

    /// The weighted nodal graph over this topology.
    ///
    /// `contact_mask[n]` marks mesh node `n` as a contact node (see
    /// [`crate::surface::Surface::contact_node_mask`]).
    pub fn graph(&self, contact_mask: &[bool], opts: NodalGraphOptions) -> NodalGraph {
        assert!(opts.ncon == 1 || opts.ncon == 2, "nodal graphs support 1 or 2 constraints");
        assert_eq!(contact_mask.len(), self.vertex_of_node.len(), "one contact flag per node");
        let contact: Vec<bool> =
            self.node_of_vertex.iter().map(|&n| contact_mask[n as usize]).collect();
        let vwgt: Vec<i64> = if opts.ncon == 2 {
            contact.iter().flat_map(|&c| [1, i64::from(c)]).collect()
        } else {
            vec![1; contact.len()]
        };
        let mut adjwgt = vec![opts.normal_edge_weight; self.adjncy.len()];
        if opts.contact_edge_weight != opts.normal_edge_weight {
            for (v, _) in contact.iter().enumerate().filter(|&(_, &c)| c) {
                let row = self.xadj[v]..self.xadj[v + 1];
                for (w, &u) in adjwgt[row.clone()].iter_mut().zip(&self.adjncy[row]) {
                    if contact[u as usize] {
                        *w = opts.contact_edge_weight;
                    }
                }
            }
        }
        // Symmetric and loop-free by construction (checked in debug builds).
        let graph = Graph::from_csr_unchecked(
            opts.ncon,
            self.xadj.clone(),
            self.adjncy.clone(),
            adjwgt,
            vwgt,
        );
        NodalGraph {
            graph,
            node_of_vertex: self.node_of_vertex.clone(),
            vertex_of_node: self.vertex_of_node.clone(),
        }
    }
}

/// Builds the nodal graph of the live part of `mesh`.
///
/// `contact_mask[n]` marks mesh node `n` as a contact node (see
/// [`crate::surface::Surface::contact_node_mask`]).
pub fn nodal_graph<const D: usize>(
    mesh: &Mesh<D>,
    contact_mask: &[bool],
    opts: NodalGraphOptions,
) -> NodalGraph {
    NodalTopology::build(mesh.num_nodes(), &mesh.elements, &mesh.alive).graph(contact_mask, opts)
}

/// Builds the dual graph of the live part of `mesh`: one vertex per live
/// element, edges between elements sharing a facet. Returns the graph and
/// the `element_of_vertex` mapping.
pub fn dual_graph<const D: usize>(mesh: &Mesh<D>) -> (Graph, Vec<u32>) {
    let mut element_of_vertex = Vec::new();
    let mut vertex_of_element = vec![u32::MAX; mesh.num_elements()];
    for (e, _) in mesh.live_elements() {
        vertex_of_element[e as usize] = element_of_vertex.len() as u32;
        element_of_vertex.push(e);
    }

    let mut b = GraphBuilder::new(element_of_vertex.len(), 1);
    for gv in 0..element_of_vertex.len() as u32 {
        b.set_vwgt(gv, &[1]);
    }
    // A facet with two live owners is an interior facet = a dual edge.
    FacetIndex::build(mesh).for_each_live_facet(&mesh.alive, |owners| {
        if let &[(e, _), (f, _)] = owners {
            b.add_edge(vertex_of_element[e as usize], vertex_of_element[f as usize], 1);
        }
    });
    (b.build(), element_of_vertex)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::surface::extract_surface;
    use cip_geom::Point;

    fn grid3x3() -> Mesh<2> {
        generators::quad_grid([3, 3], Point::new([0.0, 0.0]), [1.0, 1.0], 0)
    }

    #[test]
    fn nodal_graph_counts() {
        let m = grid3x3();
        let s = extract_surface(&m);
        let ng = nodal_graph(&m, &s.contact_node_mask(m.num_nodes()), Default::default());
        assert_eq!(ng.graph.nv(), 16);
        // 4x4 grid of nodes: 2 * 3 * 4 = 24 distinct mesh edges.
        assert_eq!(ng.graph.ne(), 24);
        assert_eq!(ng.graph.ncon(), 2);
    }

    #[test]
    fn contact_weights_follow_mask() {
        let m = grid3x3();
        let s = extract_surface(&m);
        let mask = s.contact_node_mask(m.num_nodes());
        let ng = nodal_graph(&m, &mask, Default::default());
        // The single interior node of a 3x3 quad grid is node (1+4*... ) —
        // find via mask: exactly 4 interior nodes? No: 4x4 nodes, boundary
        // ring has 12, interior 4.
        let interior: Vec<u32> = (0..m.num_nodes() as u32).filter(|&n| !mask[n as usize]).collect();
        assert_eq!(interior.len(), 4);
        for gv in 0..ng.graph.nv() as u32 {
            let n = ng.node_of_vertex[gv as usize];
            let expect = [1, i64::from(mask[n as usize])];
            assert_eq!(ng.graph.vwgt(gv), &expect);
        }
        // Edges between two boundary (contact) nodes get weight 5.
        for gv in 0..ng.graph.nv() as u32 {
            let n = ng.node_of_vertex[gv as usize];
            for (gu, w) in ng.graph.neighbors(gv) {
                let u = ng.node_of_vertex[gu as usize];
                let both = mask[n as usize] && mask[u as usize];
                assert_eq!(w, if both { 5 } else { 1 });
            }
        }
    }

    #[test]
    fn single_constraint_option() {
        let m = grid3x3();
        let s = extract_surface(&m);
        let ng = nodal_graph(
            &m,
            &s.contact_node_mask(m.num_nodes()),
            NodalGraphOptions::single_constraint(),
        );
        assert_eq!(ng.graph.ncon(), 1);
        assert!(ng.graph.adjwgt().iter().all(|&w| w == 1));
    }

    #[test]
    fn eroded_nodes_excluded() {
        let mut m = grid3x3();
        // Erode the corner element (element 0). Node 0 dies.
        m.erode(0);
        let s = extract_surface(&m);
        let ng = nodal_graph(&m, &s.contact_node_mask(m.num_nodes()), Default::default());
        assert_eq!(ng.graph.nv(), 15);
        assert_eq!(ng.vertex_of_node[0], u32::MAX);
        let nodes = ng.assignment_on_nodes(&vec![3; ng.graph.nv()]);
        assert_eq!(nodes[0], u32::MAX);
        assert!(nodes[1..].iter().all(|&p| p == 3));
    }

    #[test]
    fn dual_graph_of_grid() {
        let m = grid3x3();
        let (dg, eov) = dual_graph(&m);
        assert_eq!(dg.nv(), 9);
        // 3x3 quad grid: 2 * 3 * 2 = 12 element adjacencies.
        assert_eq!(dg.ne(), 12);
        assert_eq!(eov.len(), 9);
    }

    #[test]
    fn dual_graph_respects_erosion() {
        let mut m = grid3x3();
        m.erode(4); // center element
        let (dg, _) = dual_graph(&m);
        assert_eq!(dg.nv(), 8);
        assert_eq!(dg.ne(), 8, "the four adjacencies of the center vanish");
    }

    #[test]
    fn hex_box_dual_graph() {
        let m = generators::hex_box([2, 2, 2], Point::new([0.0, 0.0, 0.0]), [1.0; 3], 0);
        let (dg, _) = dual_graph(&m);
        assert_eq!(dg.nv(), 8);
        // 2x2x2 box: 4 interior faces per axis pair = 12 adjacencies.
        assert_eq!(dg.ne(), 12);
    }
}
