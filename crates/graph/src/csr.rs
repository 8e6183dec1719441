//! Compressed-sparse-row graph with multi-constraint vertex weights.

/// An undirected graph in CSR form.
///
/// * Every undirected edge `{u, v}` is stored twice (once in each adjacency
///   list) with the same weight — the METIS storage convention.
/// * Every vertex `v` carries `ncon` weights, stored flattened in `vwgt`
///   at `v * ncon .. (v + 1) * ncon`. For the paper's contact/impact model,
///   `ncon = 2`: component 0 is the finite-element work of the node and
///   component 1 is its contact-search work (zero for non-contact nodes).
/// * Vertex ids are `u32` (meshes of interest have far fewer than 2³²
///   nodes); offsets are `usize`.
#[derive(Debug, Clone)]
pub struct Graph {
    ncon: usize,
    xadj: Vec<usize>,
    adjncy: Vec<u32>,
    adjwgt: Vec<i64>,
    vwgt: Vec<i64>,
}

impl Graph {
    /// Assembles a graph from raw CSR arrays.
    ///
    /// # Panics
    /// Panics if the arrays are inconsistent (see [`Graph::validate`] for
    /// the checked invariants).
    pub fn from_csr(
        ncon: usize,
        xadj: Vec<usize>,
        adjncy: Vec<u32>,
        adjwgt: Vec<i64>,
        vwgt: Vec<i64>,
    ) -> Self {
        let g = Self { ncon, xadj, adjncy, adjwgt, vwgt };
        g.validate().expect("invalid CSR graph");
        g
    }

    /// [`Graph::from_csr`] without the O(E·deg) validation pass — for hot
    /// construction sites (contraction, subgraph extraction) whose outputs
    /// are correct by construction. Invariants are still checked in debug
    /// builds.
    pub fn from_csr_unchecked(
        ncon: usize,
        xadj: Vec<usize>,
        adjncy: Vec<u32>,
        adjwgt: Vec<i64>,
        vwgt: Vec<i64>,
    ) -> Self {
        let g = Self { ncon, xadj, adjncy, adjwgt, vwgt };
        if cfg!(debug_assertions) {
            g.validate().expect("invalid CSR graph");
        }
        g
    }

    /// A graph with `nv` vertices, no edges, and all weights set to one.
    pub fn edgeless(nv: usize, ncon: usize) -> Self {
        Self {
            ncon,
            xadj: vec![0; nv + 1],
            adjncy: Vec::new(),
            adjwgt: Vec::new(),
            vwgt: vec![1; nv * ncon],
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn nv(&self) -> usize {
        self.xadj.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn ne(&self) -> usize {
        self.adjncy.len() / 2
    }

    /// Number of vertex-weight constraints.
    #[inline]
    pub fn ncon(&self) -> usize {
        self.ncon
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        self.xadj[v as usize + 1] - self.xadj[v as usize]
    }

    /// Iterates over `(neighbor, edge_weight)` pairs of `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> impl Iterator<Item = (u32, i64)> + '_ {
        let lo = self.xadj[v as usize];
        let hi = self.xadj[v as usize + 1];
        self.adjncy[lo..hi].iter().copied().zip(self.adjwgt[lo..hi].iter().copied())
    }

    /// The adjacency slice of `v` (neighbor ids only).
    #[inline]
    pub fn adj(&self, v: u32) -> &[u32] {
        &self.adjncy[self.xadj[v as usize]..self.xadj[v as usize + 1]]
    }

    /// The weight vector of vertex `v` (`ncon` entries).
    #[inline]
    pub fn vwgt(&self, v: u32) -> &[i64] {
        let base = v as usize * self.ncon;
        &self.vwgt[base..base + self.ncon]
    }

    /// Sum of all vertex weights, one total per constraint.
    pub fn total_vwgt(&self) -> Vec<i64> {
        let mut totals = vec![0i64; self.ncon];
        for chunk in self.vwgt.chunks_exact(self.ncon) {
            for (t, w) in totals.iter_mut().zip(chunk) {
                *t += w;
            }
        }
        totals
    }

    /// Sum of the weights of edges incident to `v`.
    pub fn weighted_degree(&self, v: u32) -> i64 {
        let lo = self.xadj[v as usize];
        let hi = self.xadj[v as usize + 1];
        self.adjwgt[lo..hi].iter().sum()
    }

    /// Raw CSR offsets (one per vertex, plus the terminal offset).
    #[inline]
    pub fn xadj(&self) -> &[usize] {
        &self.xadj
    }

    /// Raw adjacency array.
    #[inline]
    pub fn adjncy(&self) -> &[u32] {
        &self.adjncy
    }

    /// Raw edge-weight array (parallel to [`Graph::adjncy`]).
    #[inline]
    pub fn adjwgt(&self) -> &[i64] {
        &self.adjwgt
    }

    /// Raw flattened vertex weights.
    #[inline]
    pub fn vwgt_raw(&self) -> &[i64] {
        &self.vwgt
    }

    /// Checks the CSR invariants:
    ///
    /// * offsets are monotone and end at `adjncy.len()`,
    /// * `adjwgt` is parallel to `adjncy`,
    /// * `vwgt` has `nv * ncon` entries,
    /// * neighbor ids are in range and there are no self-loops,
    /// * the adjacency structure is symmetric with matching weights.
    pub fn validate(&self) -> Result<(), String> {
        if self.ncon == 0 {
            return Err("ncon must be >= 1".into());
        }
        if self.xadj.is_empty() {
            return Err("xadj must have at least one entry".into());
        }
        let nv = self.nv();
        if *self.xadj.last().unwrap() != self.adjncy.len() {
            return Err("xadj must end at adjncy.len()".into());
        }
        if self.adjwgt.len() != self.adjncy.len() {
            return Err("adjwgt must parallel adjncy".into());
        }
        if self.vwgt.len() != nv * self.ncon {
            return Err(format!(
                "vwgt has {} entries, expected nv * ncon = {}",
                self.vwgt.len(),
                nv * self.ncon
            ));
        }
        for v in 0..nv {
            if self.xadj[v] > self.xadj[v + 1] {
                return Err(format!("xadj not monotone at vertex {v}"));
            }
        }
        // Symmetry: every (u -> v, w) slot must have a matching (v -> u, w).
        for u in 0..nv as u32 {
            for (v, w) in self.neighbors(u) {
                if v as usize >= nv {
                    return Err(format!("neighbor {v} of {u} out of range"));
                }
                if v == u {
                    return Err(format!("self-loop at vertex {u}"));
                }
                let found = self.neighbors(v).any(|(b, bw)| b == u && bw == w);
                if !found {
                    return Err(format!("edge {u} -> {v} (w={w}) has no symmetric twin"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Path graph 0 - 1 - 2 with unit weights, ncon = 2.
    fn path3() -> Graph {
        Graph::from_csr(
            2,
            vec![0, 1, 3, 4],
            vec![1, 0, 2, 1],
            vec![1, 1, 1, 1],
            vec![1, 0, 1, 1, 1, 0],
        )
    }

    #[test]
    fn basic_accessors() {
        let g = path3();
        assert_eq!(g.nv(), 3);
        assert_eq!(g.ne(), 2);
        assert_eq!(g.ncon(), 2);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.vwgt(0), &[1, 0]);
        assert_eq!(g.vwgt(1), &[1, 1]);
        assert_eq!(g.total_vwgt(), vec![3, 1]);
        assert_eq!(g.weighted_degree(1), 2);
        let n: Vec<_> = g.neighbors(1).collect();
        assert_eq!(n, vec![(0, 1), (2, 1)]);
    }

    #[test]
    fn edgeless_graph() {
        let g = Graph::edgeless(5, 1);
        assert_eq!(g.nv(), 5);
        assert_eq!(g.ne(), 0);
        assert_eq!(g.total_vwgt(), vec![5]);
        g.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "invalid CSR graph")]
    fn asymmetric_graph_rejected() {
        // 0 -> 1 exists but 1 -> 0 does not.
        let _ = Graph::from_csr(1, vec![0, 1, 1], vec![1], vec![1], vec![1, 1]);
    }

    #[test]
    #[should_panic(expected = "invalid CSR graph")]
    fn self_loop_rejected() {
        let _ = Graph::from_csr(1, vec![0, 1], vec![0], vec![1], vec![1]);
    }

    #[test]
    #[should_panic(expected = "invalid CSR graph")]
    fn weight_mismatch_rejected() {
        // Symmetric structure but mismatched weights.
        let _ = Graph::from_csr(1, vec![0, 1, 2], vec![1, 0], vec![1, 2], vec![1, 1]);
    }
}
