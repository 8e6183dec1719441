//! Nodal-graph construction (§2 of the paper).
//!
//! The partitioner in this system operates on the **nodal graph**: one
//! vertex per (live) mesh node, one edge per mesh edge of a live element.
//! For the contact/impact model of §4.2 the nodal graph carries
//!
//! * two vertex weights — `w1(v) = 1` (finite-element work) for every node
//!   and `w2(v) = 1` for contact nodes, 0 otherwise (contact-search work);
//! * boosted edge weights between pairs of contact nodes (the paper uses 5),
//!   since cutting such an edge costs communication in *both* phases.

use crate::element::Element;
use crate::mesh::Mesh;
use cip_graph::Graph;

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

/// Every element edge of a mesh — live or not — sorted once, with the
/// number of elements supporting each entry and each node.
///
/// Erosion only flips live flags, so the row sort (the `O(E log deg)` part
/// of building a topology) is paid once per mesh, and the topology of any
/// live mask is a subtraction of the dead elements' support plus one
/// filtering scan of the rows ([`EdgeIndex::topology`]).
#[derive(Debug)]
pub struct EdgeIndex {
    /// Number of elements indexed.
    num_elements: usize,
    /// CSR offsets over mesh nodes: the distinct neighbours of node `n` are
    /// `adjncy[xadj[n]..xadj[n + 1]]`, strictly ascending.
    xadj: Vec<usize>,
    /// Neighbour node ids; every edge has an entry in both endpoints' rows.
    adjncy: Vec<u32>,
    /// `support[s]` = number of elements having the edge of entry `s`.
    support: Vec<u32>,
    /// `node_support[n]` = number of elements having node `n`.
    node_support: Vec<u32>,
}

impl EdgeIndex {
    /// Indexes every edge of `elements` over a mesh of `num_nodes` nodes.
    ///
    /// Count, fill, then sort and run-length each (short) row — an edge
    /// shared by several elements is recorded once per element, and the
    /// run length is its support. Self-loops never enter.
    pub fn build(num_nodes: usize, elements: &[Element]) -> Self {
        let mut node_support = vec![0u32; num_nodes];
        // Rows with duplicates: row `n` is `raw[offset[n]..offset[n + 1]]`.
        let mut offset = vec![0usize; num_nodes + 1];
        for el in elements {
            for &n in el.nodes() {
                node_support[n as usize] += 1;
            }
            for (a, c) in el.edges().filter(|&(a, c)| a != c) {
                offset[a as usize + 1] += 1;
                offset[c as usize + 1] += 1;
            }
        }
        for n in 0..num_nodes {
            offset[n + 1] += offset[n];
        }
        let mut raw = vec![0u32; offset[num_nodes]];
        let mut cursor = offset[..num_nodes].to_vec();
        for (a, c) in elements.iter().flat_map(|el| el.edges()).filter(|&(a, c)| a != c) {
            raw[cursor[a as usize]] = c;
            cursor[a as usize] += 1;
            raw[cursor[c as usize]] = a;
            cursor[c as usize] += 1;
        }

        let mut xadj = Vec::with_capacity(num_nodes + 1);
        xadj.push(0);
        let mut adjncy: Vec<u32> = Vec::new();
        let mut support: Vec<u32> = Vec::new();
        for n in 0..num_nodes {
            let row = &mut raw[offset[n]..offset[n + 1]];
            row.sort_unstable();
            for run in row.chunk_by(|a, b| a == b) {
                adjncy.push(run[0]);
                support.push(run.len() as u32);
            }
            xadj.push(adjncy.len());
        }
        Self { num_elements: elements.len(), xadj, adjncy, support, node_support }
    }

    /// The entry of edge `a`–`c` in row `a`.
    fn entry(&self, a: u32, c: u32) -> usize {
        let row = &self.adjncy[self.xadj[a as usize]..self.xadj[a as usize + 1]];
        self.xadj[a as usize] + row.binary_search(&c).expect("an edge of an indexed element")
    }

    /// The topology of the elements flagged in `alive` (`elements` are the
    /// ones the index was built from): one vertex per node of a live
    /// element, one edge per distinct live element edge.
    ///
    /// Subtracts the support of the dead elements, numbers the still
    /// supported nodes in node order, and keeps the still supported
    /// entries of their rows — already ascending, so nothing is sorted.
    pub fn topology(&self, elements: &[Element], alive: &[bool]) -> NodalTopology {
        assert_eq!(elements.len(), self.num_elements, "the elements the index was built from");
        assert_eq!(alive.len(), elements.len(), "one live flag per element");
        let mut node_support = self.node_support.clone();
        let mut support = self.support.clone();
        for (el, _) in elements.iter().zip(alive).filter(|&(_, &a)| !a) {
            for &n in el.nodes() {
                node_support[n as usize] -= 1;
            }
            for (a, c) in el.edges().filter(|&(a, c)| a != c) {
                support[self.entry(a, c)] -= 1;
                support[self.entry(c, a)] -= 1;
            }
        }

        let mut vertex_of_node = vec![u32::MAX; node_support.len()];
        let mut node_of_vertex = Vec::new();
        for (n, _) in node_support.iter().enumerate().filter(|&(_, &s)| s > 0) {
            vertex_of_node[n] = node_of_vertex.len() as u32;
            node_of_vertex.push(n as u32);
        }
        let mut xadj = Vec::with_capacity(node_of_vertex.len() + 1);
        xadj.push(0);
        let mut adjncy = Vec::with_capacity(self.adjncy.len());
        for &n in &node_of_vertex {
            let row = self.xadj[n as usize]..self.xadj[n as usize + 1];
            for (&u, _) in
                self.adjncy[row.clone()].iter().zip(&support[row]).filter(|(_, &s)| s > 0)
            {
                adjncy.push(vertex_of_node[u as usize]);
            }
            xadj.push(adjncy.len());
        }
        adjncy.shrink_to_fit();
        NodalTopology { node_of_vertex, vertex_of_node, xadj, adjncy }
    }
}

/// The part of a nodal graph that depends on the mesh connectivity and the
/// live mask alone: which nodes are graph vertices, and which vertices are
/// adjacent.
///
/// Element erosion is the only event that changes it, so a run of
/// snapshots sharing one live mask (a *topology epoch*) shares one
/// `NodalTopology`, derived from the mesh's [`EdgeIndex`]; the
/// per-snapshot contact mask only selects vertex and edge weights, which
/// [`NodalTopology::graph`] fills in `O(nnz)`.
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
    EdgeIndex::build(mesh.num_nodes(), &mesh.elements)
        .topology(&mesh.elements, &mesh.alive)
        .graph(contact_mask, opts)
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
}
