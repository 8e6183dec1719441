//! Induced subgraph extraction.
//!
//! Multilevel *recursive bisection* partitions a graph into two sides and
//! recurses independently on each side's induced subgraph; this module
//! provides that extraction together with the index mapping back to the
//! parent graph.

use crate::csr::Graph;

/// An induced subgraph plus the mapping from its vertex ids to the parent
/// graph's vertex ids.
#[derive(Debug, Clone)]
pub struct Subgraph {
    /// The induced subgraph.
    pub graph: Graph,
    /// `to_parent[new_id] = old_id`.
    pub to_parent: Vec<u32>,
}

/// Extracts the subgraph induced by the vertices for which `select` is true.
///
/// Edges with exactly one selected endpoint are dropped (they are the cut
/// edges of the enclosing bisection and are accounted for at that level).
pub fn induced_subgraph(g: &Graph, select: &[bool]) -> Subgraph {
    assert_eq!(select.len(), g.nv(), "one flag per vertex");
    let ncon = g.ncon();
    let mut to_parent = Vec::new();
    let mut to_new = vec![u32::MAX; g.nv()];
    for v in 0..g.nv() {
        if select[v] {
            to_new[v] = to_parent.len() as u32;
            to_parent.push(v as u32);
        }
    }
    let nv = to_parent.len();
    let mut xadj = Vec::with_capacity(nv + 1);
    xadj.push(0usize);
    let mut adjncy = Vec::new();
    let mut adjwgt = Vec::new();
    let mut vwgt = Vec::with_capacity(nv * ncon);
    for &old in &to_parent {
        vwgt.extend_from_slice(g.vwgt(old));
        for (u, w) in g.neighbors(old) {
            let nu = to_new[u as usize];
            if nu != u32::MAX {
                adjncy.push(nu);
                adjwgt.push(w);
            }
        }
        xadj.push(adjncy.len());
    }
    // Symmetric and loop-free because `g` is (checked in debug builds).
    Subgraph { graph: Graph::from_csr_unchecked(ncon, xadj, adjncy, adjwgt, vwgt), to_parent }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    /// Path 0 - 1 - 2 - 3 - 4 with edge weights 1..4.
    fn path5() -> Graph {
        let mut b = GraphBuilder::new(5, 1);
        for v in 0..5u32 {
            b.set_vwgt(v, &[v as i64 + 1]);
        }
        for v in 0..4u32 {
            b.add_edge(v, v + 1, v as i64 + 1);
        }
        b.build()
    }

    #[test]
    fn extracts_prefix() {
        let g = path5();
        let sg = induced_subgraph(&g, &[true, true, true, false, false]);
        assert_eq!(sg.graph.nv(), 3);
        assert_eq!(sg.graph.ne(), 2);
        assert_eq!(sg.to_parent, vec![0, 1, 2]);
        assert_eq!(sg.graph.vwgt(2), &[3]);
        // Cut edge 2-3 dropped.
        assert_eq!(sg.graph.degree(2), 1);
    }

    #[test]
    fn extracts_disconnected_selection() {
        let g = path5();
        let sg = induced_subgraph(&g, &[true, false, true, false, true]);
        assert_eq!(sg.graph.nv(), 3);
        assert_eq!(sg.graph.ne(), 0);
        assert_eq!(sg.to_parent, vec![0, 2, 4]);
    }

    #[test]
    fn empty_selection_gives_empty_graph() {
        let g = path5();
        let sg = induced_subgraph(&g, &[false; 5]);
        assert_eq!(sg.graph.nv(), 0);
        assert_eq!(sg.graph.ne(), 0);
    }

    #[test]
    fn full_selection_is_identity() {
        let g = path5();
        let sg = induced_subgraph(&g, &[true; 5]);
        assert_eq!(sg.graph.nv(), g.nv());
        assert_eq!(sg.graph.ne(), g.ne());
        assert_eq!(sg.graph.total_vwgt(), g.total_vwgt());
    }
}
