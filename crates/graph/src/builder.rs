//! Incremental graph construction.

use crate::csr::Graph;

/// Builds a [`Graph`] from an edge stream, merging duplicate edges by
/// summing their weights and dropping self-loops.
///
/// Construction is two-phase (count, then fill) so the final CSR arrays are
/// allocated exactly once, which matters when building nodal graphs for
/// meshes with hundreds of thousands of nodes every snapshot.
///
/// ```
/// use cip_graph::GraphBuilder;
///
/// // A triangle with two-constraint vertex weights.
/// let mut b = GraphBuilder::new(3, 2);
/// b.set_vwgt(0, &[1, 0]).set_vwgt(1, &[1, 1]).set_vwgt(2, &[1, 0]);
/// b.add_edge(0, 1, 5).add_edge(1, 2, 1).add_edge(2, 0, 1);
/// let g = b.build();
/// assert_eq!(g.nv(), 3);
/// assert_eq!(g.ne(), 3);
/// assert_eq!(g.total_vwgt(), vec![3, 1]);
/// assert_eq!(g.weighted_degree(1), 6);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    nv: usize,
    ncon: usize,
    vwgt: Vec<i64>,
    /// Undirected edges, one entry per logical edge (u < v not required).
    edges: Vec<(u32, u32, i64)>,
}

impl GraphBuilder {
    /// A builder for a graph with `nv` vertices and `ncon` constraints.
    /// All vertex weights start at zero.
    pub fn new(nv: usize, ncon: usize) -> Self {
        assert!(ncon >= 1, "ncon must be >= 1");
        Self { nv, ncon, vwgt: vec![0; nv * ncon], edges: Vec::new() }
    }

    /// Sets the full weight vector of vertex `v`.
    pub fn set_vwgt(&mut self, v: u32, w: &[i64]) -> &mut Self {
        assert_eq!(w.len(), self.ncon);
        let base = v as usize * self.ncon;
        self.vwgt[base..base + self.ncon].copy_from_slice(w);
        self
    }

    /// Adds an undirected edge `{u, v}` with weight `w`. Self-loops are
    /// ignored; duplicate edges accumulate their weights.
    pub fn add_edge(&mut self, u: u32, v: u32, w: i64) -> &mut Self {
        assert!((u as usize) < self.nv && (v as usize) < self.nv, "edge endpoint out of range");
        if u != v {
            self.edges.push((u, v, w));
        }
        self
    }

    /// Finalizes the CSR graph.
    pub fn build(mut self) -> Graph {
        // Normalize each edge to (min, max) and sort so duplicates are
        // adjacent and can be merged with a single pass.
        for e in &mut self.edges {
            if e.0 > e.1 {
                std::mem::swap(&mut e.0, &mut e.1);
            }
        }
        self.edges.sort_unstable_by_key(|&(u, v, _)| (u, v));
        let mut merged: Vec<(u32, u32, i64)> = Vec::with_capacity(self.edges.len());
        for &(u, v, w) in &self.edges {
            match merged.last_mut() {
                Some(last) if last.0 == u && last.1 == v => last.2 += w,
                _ => merged.push((u, v, w)),
            }
        }

        let mut degree = vec![0usize; self.nv];
        for &(u, v, _) in &merged {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut xadj = vec![0usize; self.nv + 1];
        for v in 0..self.nv {
            xadj[v + 1] = xadj[v] + degree[v];
        }
        let nnz = xadj[self.nv];
        let mut adjncy = vec![0u32; nnz];
        let mut adjwgt = vec![0i64; nnz];
        let mut cursor = xadj[..self.nv].to_vec();
        for &(u, v, w) in &merged {
            adjncy[cursor[u as usize]] = v;
            adjwgt[cursor[u as usize]] = w;
            cursor[u as usize] += 1;
            adjncy[cursor[v as usize]] = u;
            adjwgt[cursor[v as usize]] = w;
            cursor[v as usize] += 1;
        }
        Graph::from_csr(self.ncon, xadj, adjncy, adjwgt, self.vwgt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_triangle() {
        let mut b = GraphBuilder::new(3, 1);
        for v in 0..3u32 {
            b.set_vwgt(v, &[1]);
        }
        b.add_edge(0, 1, 2).add_edge(1, 2, 3).add_edge(2, 0, 4);
        let g = b.build();
        assert_eq!(g.nv(), 3);
        assert_eq!(g.ne(), 3);
        assert_eq!(g.weighted_degree(0), 6);
        assert_eq!(g.weighted_degree(1), 5);
        assert_eq!(g.weighted_degree(2), 7);
    }

    #[test]
    fn duplicate_edges_merge() {
        let mut b = GraphBuilder::new(2, 1);
        b.set_vwgt(0, &[1]).set_vwgt(1, &[1]);
        b.add_edge(0, 1, 1).add_edge(1, 0, 2).add_edge(0, 1, 3);
        let g = b.build();
        assert_eq!(g.ne(), 1);
        assert_eq!(g.neighbors(0).next(), Some((1, 6)));
    }

    #[test]
    fn self_loops_dropped() {
        let mut b = GraphBuilder::new(2, 1);
        b.set_vwgt(0, &[1]).set_vwgt(1, &[1]);
        b.add_edge(0, 0, 9).add_edge(0, 1, 1);
        let g = b.build();
        assert_eq!(g.ne(), 1);
    }

    #[test]
    fn multiconstraint_weights_roundtrip() {
        let mut b = GraphBuilder::new(2, 3);
        b.set_vwgt(0, &[1, 2, 3]);
        let g = b.build();
        assert_eq!(g.vwgt(0), &[1, 2, 3]);
        assert_eq!(g.vwgt(1), &[0, 0, 0]);
    }

    #[test]
    fn isolated_vertices_allowed() {
        let b = GraphBuilder::new(4, 1);
        let g = b.build();
        assert_eq!(g.nv(), 4);
        assert_eq!(g.ne(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut b = GraphBuilder::new(2, 1);
        b.add_edge(0, 5, 1);
    }
}
