//! `k`-way partitions with cached per-part weights.

use crate::csr::Graph;

/// A `k`-way partition of a graph's vertices with its per-part weight
/// sums for every constraint, summed once from the assignment.
#[derive(Debug, Clone)]
pub struct Partition {
    k: usize,
    ncon: usize,
    assignment: Vec<u32>,
    /// Flattened `k * ncon` per-part weight sums.
    part_weights: Vec<i64>,
    /// Total weight per constraint (denominator of the imbalance ratio).
    totals: Vec<i64>,
}

impl Partition {
    /// Wraps an existing assignment, computing the per-part weight cache.
    ///
    /// # Panics
    /// Panics if `assignment.len() != g.nv()` or any part id is `>= k`.
    pub fn from_assignment(g: &Graph, k: usize, assignment: Vec<u32>) -> Self {
        assert_eq!(assignment.len(), g.nv(), "one part id per vertex");
        let ncon = g.ncon();
        let mut part_weights = vec![0i64; k * ncon];
        for (v, &p) in assignment.iter().enumerate() {
            assert!((p as usize) < k, "part id {p} out of range for k={k}");
            let base = p as usize * ncon;
            for (j, w) in g.vwgt(v as u32).iter().enumerate() {
                part_weights[base + j] += w;
            }
        }
        Self { k, ncon, assignment, part_weights, totals: g.total_vwgt() }
    }

    /// Number of parts.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of constraints.
    #[inline]
    pub fn ncon(&self) -> usize {
        self.ncon
    }

    /// Part of vertex `v`.
    #[inline]
    pub fn part(&self, v: u32) -> u32 {
        self.assignment[v as usize]
    }

    /// The raw assignment vector.
    #[inline]
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// Load imbalance under constraint `j`:
    /// `max_p w_j(V_p) / (w_j(V) / k)`. Returns 1.0 when the constraint has
    /// zero total weight (vacuously balanced).
    pub fn imbalance(&self, j: usize) -> f64 {
        let max = (0..self.k).map(|p| self.part_weights[p * self.ncon + j]).max().unwrap_or(0);
        load_imbalance(max, self.totals[j], self.k)
    }

    /// The worst load imbalance across all constraints.
    pub fn max_imbalance(&self) -> f64 {
        (0..self.ncon).map(|j| self.imbalance(j)).fold(1.0, f64::max)
    }

    /// Whether every constraint's imbalance is within `1 + eps`.
    pub fn is_balanced(&self, eps: f64) -> bool {
        (0..self.ncon).all(|j| self.imbalance(j) <= 1.0 + eps + 1e-12)
    }

    /// Number of vertices assigned to part `p`.
    pub fn part_size(&self, p: u32) -> usize {
        self.assignment.iter().filter(|&&q| q == p).count()
    }
}

/// The load imbalance of `k` parts whose heaviest carries `max_load` of
/// `total`: `max_load / (total / k)`, and 1.0 when `total` is zero
/// (vacuously balanced). [`Partition::imbalance`] of one constraint, for
/// callers that count part loads without a graph.
pub fn load_imbalance(max_load: i64, total: i64, k: usize) -> f64 {
    if total == 0 {
        return 1.0;
    }
    let avg = total as f64 / k as f64;
    max_load as f64 / avg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn path(n: usize, ncon: usize) -> Graph {
        let mut b = GraphBuilder::new(n, ncon);
        for v in 0..n as u32 {
            let w: Vec<i64> = (0..ncon).map(|j| if j == 0 { 1 } else { (v % 2) as i64 }).collect();
            b.set_vwgt(v, &w);
        }
        for v in 0..n as u32 - 1 {
            b.add_edge(v, v + 1, 1);
        }
        b.build()
    }

    #[test]
    fn weights_cached_correctly() {
        let g = path(6, 2);
        let p = Partition::from_assignment(&g, 2, vec![0, 0, 0, 1, 1, 1]);
        assert!((p.imbalance(0) - 1.0).abs() < 1e-12); // 3 and 3
        assert!((p.imbalance(1) - 4.0 / 3.0).abs() < 1e-12); // vertex 1 vs 3, 5
    }

    #[test]
    fn imbalance_matches_definition() {
        let g = path(4, 1);
        let p = Partition::from_assignment(&g, 2, vec![0, 0, 0, 1]);
        // max part weight 3, avg 2 -> imbalance 1.5
        assert!((p.imbalance(0) - 1.5).abs() < 1e-12);
        assert!(!p.is_balanced(0.4));
        assert!(p.is_balanced(0.5));
    }

    #[test]
    fn zero_total_constraint_is_balanced() {
        let mut b = GraphBuilder::new(3, 2);
        for v in 0..3u32 {
            b.set_vwgt(v, &[1, 0]);
        }
        let g = b.build();
        let p = Partition::from_assignment(&g, 3, vec![0, 1, 2]);
        assert_eq!(p.imbalance(1), 1.0);
        assert!(p.is_balanced(0.05));
    }

    #[test]
    fn part_size_counts() {
        let g = path(5, 1);
        let p = Partition::from_assignment(&g, 3, vec![0, 1, 1, 2, 2]);
        assert_eq!(p.part_size(0), 1);
        assert_eq!(p.part_size(1), 2);
        assert_eq!(p.part_size(2), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_part_id_panics() {
        let g = path(2, 1);
        let _ = Partition::from_assignment(&g, 2, vec![0, 5]);
    }
}
