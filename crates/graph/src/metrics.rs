//! Partition quality metrics.
//!
//! Two objectives from the paper:
//!
//! * **edge-cut** — the classical objective the multilevel refinement
//!   minimizes;
//! * **total communication volume** (Hendrickson's metric, the paper's
//!   *FEComm*) — for every vertex, the number of *distinct* remote parts
//!   among its neighbors, summed over all vertices. This counts each nodal
//!   value once per remote subdomain it must be shipped to, which is the
//!   actual message volume of a halo exchange.

use crate::csr::Graph;

/// Sum of the weights of edges whose endpoints lie in different parts.
pub fn edge_cut(g: &Graph, assignment: &[u32]) -> i64 {
    debug_assert_eq!(assignment.len(), g.nv());
    let mut cut = 0i64;
    for u in 0..g.nv() as u32 {
        let pu = assignment[u as usize];
        for (v, w) in g.neighbors(u) {
            if v > u && assignment[v as usize] != pu {
                cut += w;
            }
        }
    }
    cut
}

/// Hendrickson's total communication volume: for each vertex `v`, the number
/// of distinct parts (other than `P[v]`) that own a neighbor of `v`.
///
/// This is the communication volume of one halo exchange of per-node data —
/// the paper's **FEComm** metric for the finite-element phase.
pub fn total_comm_volume(g: &Graph, assignment: &[u32]) -> u64 {
    debug_assert_eq!(assignment.len(), g.nv());
    comm_volume_of_rows(g.xadj(), g.adjncy(), assignment)
}

/// [`total_comm_volume`] over bare CSR rows — the neighbours of vertex `v`
/// are `adjncy[xadj[v]..xadj[v + 1]]`, as in [`Graph::xadj`] /
/// [`Graph::adjncy`] or a nodal topology's — so no weighted graph has to
/// exist to price an assignment.
pub fn comm_volume_of_rows(xadj: &[usize], adjncy: &[u32], assignment: &[u32]) -> u64 {
    debug_assert_eq!(xadj.len(), assignment.len() + 1);
    let mut volume = 0u64;
    let mut seen: Vec<u32> = Vec::with_capacity(16);
    for (u, &pu) in assignment.iter().enumerate() {
        seen.clear();
        for &v in &adjncy[xadj[u]..xadj[u + 1]] {
            let pv = assignment[v as usize];
            if pv != pu && !seen.contains(&pv) {
                seen.push(pv);
            }
        }
        volume += seen.len() as u64;
    }
    volume
}

/// Edges whose endpoints lie in different parts, over bare CSR rows (see
/// [`comm_volume_of_rows`]): [`edge_cut`] under unit edge weights.
pub fn cut_edges_of_rows(xadj: &[usize], adjncy: &[u32], assignment: &[u32]) -> u64 {
    debug_assert_eq!(xadj.len(), assignment.len() + 1);
    let mut cut = 0u64;
    for (u, &pu) in assignment.iter().enumerate() {
        let row = &adjncy[xadj[u]..xadj[u + 1]];
        cut +=
            row.iter().filter(|&&v| v as usize > u && assignment[v as usize] != pu).count() as u64;
    }
    cut
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    /// 2x3 grid:
    /// ```text
    /// 0 - 1 - 2
    /// |   |   |
    /// 3 - 4 - 5
    /// ```
    fn grid2x3() -> Graph {
        let mut b = GraphBuilder::new(6, 1);
        for v in 0..6u32 {
            b.set_vwgt(v, &[1]);
        }
        for (u, v) in [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)] {
            b.add_edge(u, v, 1);
        }
        b.build()
    }

    #[test]
    fn edge_cut_counts_cut_edges_once() {
        let g = grid2x3();
        // Split columns {0,3} | {1,4} | {2,5}: cuts 0-1, 3-4, 1-2, 4-5.
        let asg = vec![0, 1, 2, 0, 1, 2];
        assert_eq!(edge_cut(&g, &asg), 4);
        // Everything together: no cut.
        assert_eq!(edge_cut(&g, &[0; 6]), 0);
    }

    #[test]
    fn edge_cut_respects_weights() {
        let mut b = GraphBuilder::new(2, 1);
        b.set_vwgt(0, &[1]).set_vwgt(1, &[1]);
        b.add_edge(0, 1, 7);
        let g = b.build();
        assert_eq!(edge_cut(&g, &[0, 1]), 7);
    }

    #[test]
    fn comm_volume_counts_distinct_parts() {
        let g = grid2x3();
        let asg = vec![0, 1, 2, 0, 1, 2];
        // Vertex 0: neighbors 1(p1), 3(p0) -> 1 remote part.
        // Vertex 1: neighbors 0(p0), 2(p2), 4(p1) -> 2.
        // Vertex 2: neighbors 1(p1), 5(p2) -> 1.
        // Symmetric bottom row: 1 + 2 + 1.
        assert_eq!(total_comm_volume(&g, &asg), 8);
    }

    #[test]
    fn comm_volume_le_edge_cut_for_unit_weights() {
        // With unit edge weights, comm volume never exceeds the number of
        // cut edge endpoints (2 * cut); usually it is much smaller.
        let g = grid2x3();
        let asg = vec![0, 0, 1, 0, 1, 1];
        let cut = edge_cut(&g, &asg) as u64;
        let vol = total_comm_volume(&g, &asg);
        assert!(vol <= 2 * cut);
        assert!(vol > 0);
    }

    #[test]
    fn row_metrics_equal_the_graph_metrics_under_unit_weights() {
        let g = grid2x3();
        for asg in [vec![0, 1, 2, 0, 1, 2], vec![0, 0, 1, 0, 1, 1], vec![0; 6]] {
            let rows = (g.xadj(), g.adjncy());
            assert_eq!(comm_volume_of_rows(rows.0, rows.1, &asg), total_comm_volume(&g, &asg));
            assert_eq!(cut_edges_of_rows(rows.0, rows.1, &asg) as i64, edge_cut(&g, &asg));
        }
    }
}
