//! The §4.2 decision-tree-friendly partition correction.
//!
//! A raw multi-constraint partition has subdomain boundaries that follow
//! the mesh, not the coordinate axes; a purity-stopped decision tree over
//! such a partition can blow up (Figure 2). The correction:
//!
//! 1. induce a tree over **all** graph vertices (not just contact points)
//!    with the `max_p`/`max_i` stopping rule,
//! 2. reassign every vertex to the **majority part of its leaf** — after
//!    this, subdomain boundaries coincide with leaf faces, i.e. they are
//!    piecewise axes-parallel,
//! 3. the relabeling may break the balance constraints, so contract each
//!    leaf into one vertex of the region graph `G'` and run
//!    multi-constraint k-way refinement + balancing on `G'` — moves on
//!    `G'` shuffle whole rectangular regions between parts, preserving the
//!    axes-parallel geometry by construction.

use cip_dtree::{induce, DtreeConfig};
use cip_geom::Point;
use cip_graph::{contract, Graph};
use cip_partition::{balance_kway, refine_kway, PartitionerConfig};

/// Configuration of the DT-friendly correction.
#[derive(Debug, Clone, Default)]
pub struct DtFriendlyConfig {
    /// Pure-leaf point threshold. `None` = use the paper's recommended
    /// range (see [`recommended_max_pi`]).
    pub max_p: Option<usize>,
    /// Impure-leaf point threshold. `None` = recommended.
    pub max_i: Option<usize>,
    /// Partitioner tolerances/seed for the `G'` refinement.
    pub partitioner: PartitionerConfig,
}

/// Statistics reported by the correction step.
#[derive(Debug, Clone)]
pub struct DtFriendlyStats {
    /// Nodes in the full-vertex guidance tree.
    pub tree_nodes: usize,
    /// Leaves (= vertices of `G'`).
    pub regions: usize,
    /// Vertices whose part changed in the majority-relabel step.
    pub relabeled: usize,
    /// Vertices whose part changed in the `G'` refinement step.
    pub refined: usize,
    /// The `max_p` actually used.
    pub max_p: usize,
    /// The `max_i` actually used.
    pub max_i: usize,
}

/// The paper's recommended parameter ranges (§4.2):
/// `n/k^1.5 <= max_p <= n/k` and `n/k^2.5 <= max_i <= n/k^2`.
/// Returns the geometric midpoint of each range, floored at small
/// constants so tiny problems stay sensible.
pub fn recommended_max_pi(n: usize, k: usize) -> (usize, usize) {
    let n = n as f64;
    let k = (k as f64).max(2.0);
    let max_p = n / k.powf(1.25);
    let max_i = n / k.powf(2.25);
    ((max_p as usize).max(8), (max_i as usize).max(2))
}

/// Applies the DT-friendly correction to `asg` (a `k`-way partition of the
/// graph whose vertex `v` sits at `positions[v]`), in place.
pub fn dt_friendly_correct<const D: usize>(
    graph: &Graph,
    positions: &[Point<D>],
    k: usize,
    asg: &mut [u32],
    cfg: &DtFriendlyConfig,
) -> DtFriendlyStats {
    assert_eq!(positions.len(), graph.nv(), "one position per vertex");
    assert_eq!(asg.len(), graph.nv(), "one part per vertex");
    let n = graph.nv();
    let (rec_p, rec_i) = recommended_max_pi(n, k);
    let max_p = cfg.max_p.unwrap_or(rec_p);
    let max_i = cfg.max_i.unwrap_or(rec_i);

    // 1. Guidance tree over all vertices.
    let tree = induce(positions, asg, k, &DtreeConfig::friendly_tree(max_p, max_i));

    // 2. Majority relabel: each vertex takes its leaf's majority part.
    let relabeled_parts = tree.relabel_points(positions);
    let relabeled = asg.iter().zip(relabeled_parts.iter()).filter(|(a, b)| a != b).count();

    // 3. Contract leaves into G' and refine there.
    let (leaf_of_vertex, num_leaves) = tree.leaf_index_of_points(positions);
    let g_prime = contract(graph, &leaf_of_vertex, num_leaves);
    // Each leaf's part in G' is its (pure, by construction) relabeled part.
    let mut coarse_asg = vec![0u32; num_leaves];
    for (v, &leaf) in leaf_of_vertex.iter().enumerate() {
        coarse_asg[leaf as usize] = relabeled_parts[v];
    }
    refine_kway(&g_prime, k, &mut coarse_asg, &cfg.partitioner);
    balance_kway(&g_prime, k, &mut coarse_asg, &cfg.partitioner);
    refine_kway(&g_prime, k, &mut coarse_asg, &cfg.partitioner);

    // Project back.
    let mut refined = 0usize;
    for (v, &leaf) in leaf_of_vertex.iter().enumerate() {
        let p = coarse_asg[leaf as usize];
        if p != relabeled_parts[v] {
            refined += 1;
        }
        asg[v] = p;
    }

    DtFriendlyStats {
        tree_nodes: tree.num_nodes(),
        regions: num_leaves,
        relabeled,
        refined,
        max_p,
        max_i,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cip_dtree::{induce as induce_tree, DtreeConfig as TreeCfg};
    use cip_graph::{GraphBuilder, Partition};

    /// An n x n grid graph with positions; diagonal 2-way partition.
    fn diagonal_setup(n: usize) -> (Graph, Vec<Point<3>>, Vec<u32>) {
        let mut b = GraphBuilder::new(n * n, 1);
        let id = |i: usize, j: usize| (j * n + i) as u32;
        let mut positions = Vec::with_capacity(n * n);
        let mut asg = Vec::with_capacity(n * n);
        for j in 0..n {
            for i in 0..n {
                b.set_vwgt(id(i, j), &[1]);
                if i + 1 < n {
                    b.add_edge(id(i, j), id(i + 1, j), 1);
                }
                if j + 1 < n {
                    b.add_edge(id(i, j), id(i, j + 1), 1);
                }
            }
        }
        for j in 0..n {
            for i in 0..n {
                positions.push(Point::new([i as f64, j as f64, 0.0]));
                asg.push(u32::from(i + j >= n));
            }
        }
        (b.build(), positions, asg)
    }

    #[test]
    fn correction_shrinks_the_search_tree() {
        let n = 24;
        let (graph, positions, mut asg) = diagonal_setup(n);
        // Search tree on the raw diagonal partition: large.
        let before = induce_tree(&positions, &asg, 2, &TreeCfg::search_tree()).num_nodes();
        let stats = dt_friendly_correct(&graph, &positions, 2, &mut asg, &Default::default());
        let after = induce_tree(&positions, &asg, 2, &TreeCfg::search_tree()).num_nodes();
        assert!(
            after < before,
            "search tree should shrink: before {before}, after {after} (stats {stats:?})"
        );
        // Balance must be restored within the partitioner tolerance.
        let p = Partition::from_assignment(&graph, 2, asg);
        assert!(p.max_imbalance() <= 1.11, "imbalance {}", p.max_imbalance());
    }

    #[test]
    fn correction_preserves_an_already_axis_aligned_partition() {
        let n = 16;
        let (graph, positions, _) = diagonal_setup(n);
        // Perfect vertical split: already axes-parallel and balanced.
        let mut asg: Vec<u32> = (0..n * n).map(|v| u32::from(v % n >= n / 2)).collect();
        let original = asg.clone();
        dt_friendly_correct(&graph, &positions, 2, &mut asg, &Default::default());
        let changed = asg.iter().zip(original.iter()).filter(|(a, b)| a != b).count();
        assert!(
            changed <= n * n / 10,
            "axis-aligned partition should be nearly untouched ({changed} moved)"
        );
    }

    #[test]
    fn recommended_ranges_are_ordered() {
        for (n, k) in [(10_000usize, 25usize), (150_000, 100), (500, 4)] {
            let (max_p, max_i) = recommended_max_pi(n, k);
            assert!(max_i < max_p, "max_i {max_i} must be < max_p {max_p}");
            // Inside the paper's bands (allowing the small-problem floors).
            let nf = n as f64;
            let kf = k as f64;
            assert!(max_p as f64 <= nf / kf + 1.0);
            assert!(max_p as f64 >= (nf / kf.powf(1.5)).min(8.0));
        }
    }

    #[test]
    fn explicit_parameters_respected() {
        let (graph, positions, mut asg) = diagonal_setup(12);
        let cfg = DtFriendlyConfig { max_p: Some(40), max_i: Some(6), ..Default::default() };
        let stats = dt_friendly_correct(&graph, &positions, 2, &mut asg, &cfg);
        assert_eq!(stats.max_p, 40);
        assert_eq!(stats.max_i, 6);
        assert!(stats.regions >= 2);
    }
}
