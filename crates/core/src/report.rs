//! Human-readable decomposition quality reports.
//!
//! Pulls the quality signals scattered across the stack — balance per
//! constraint, edge-cut, communication volume, subdomain connectivity,
//! search-tree statistics — into one struct with a formatted rendering,
//! for the CLI and for users validating their own decompositions.

use cip_dtree::tree::DtNode;
use cip_dtree::DecisionTree;
use cip_graph::{edge_cut, part_fragments, total_comm_volume, Graph, Partition};
use std::fmt::Write as _;

/// A quality snapshot of one decomposition.
#[derive(Debug, Clone)]
pub struct QualityReport {
    /// Part count.
    pub k: usize,
    /// Vertices in the partitioned graph.
    pub num_vertices: usize,
    /// Edge-cut of the assignment.
    pub edge_cut: i64,
    /// Total communication volume (FEComm).
    pub comm_volume: u64,
    /// Load imbalance per constraint.
    pub imbalance: Vec<f64>,
    /// Number of connected fragments per part (1 = connected).
    pub fragments: Vec<usize>,
    /// Parts that are disconnected (fragments > 1).
    pub disconnected_parts: usize,
    /// Search-tree statistics, when a tree was supplied.
    pub tree_nodes: Option<usize>,
    /// Search-tree depth, when a tree was supplied.
    pub tree_depth: Option<usize>,
    /// Leaves describing the most fragmented subdomain.
    pub max_leaves_per_part: Option<usize>,
}

/// Builds the quality report of `assignment` on `g`, optionally including
/// the statistics of a contact-search tree.
pub fn quality_report(
    g: &Graph,
    assignment: &[u32],
    k: usize,
    tree: Option<&DecisionTree<3>>,
) -> QualityReport {
    let part = Partition::from_assignment(g, k, assignment.to_vec());
    let fragments = part_fragments(g, assignment, k);
    let disconnected = fragments.iter().filter(|&&f| f > 1).count();
    let (tree_nodes, tree_depth, max_leaves) = match tree {
        Some(t) => {
            let mut leaves = vec![0usize; k];
            for node in t.nodes() {
                if let DtNode::Leaf { part, .. } = node {
                    if let Some(n) = leaves.get_mut(*part as usize) {
                        *n += 1;
                    }
                }
            }
            (Some(t.num_nodes()), Some(t.depth()), Some(leaves.into_iter().max().unwrap_or(0)))
        }
        None => (None, None, None),
    };
    QualityReport {
        k,
        num_vertices: g.nv(),
        edge_cut: edge_cut(g, assignment),
        comm_volume: total_comm_volume(g, assignment),
        imbalance: (0..g.ncon()).map(|j| part.imbalance(j)).collect(),
        fragments,
        disconnected_parts: disconnected,
        tree_nodes,
        tree_depth,
        max_leaves_per_part: max_leaves,
    }
}

impl QualityReport {
    /// Renders a terminal-friendly summary.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "decomposition: {} vertices into {} parts", self.num_vertices, self.k);
        let _ = writeln!(
            s,
            "  edge cut {} | comm volume {} | imbalance {}",
            self.edge_cut,
            self.comm_volume,
            self.imbalance.iter().map(|i| format!("{i:.3}")).collect::<Vec<_>>().join(" / ")
        );
        let _ = writeln!(
            s,
            "  connectivity: {} of {} parts disconnected (worst: {} fragments)",
            self.disconnected_parts,
            self.k,
            self.fragments.iter().copied().max().unwrap_or(0)
        );
        if let (Some(n), Some(d)) = (self.tree_nodes, self.tree_depth) {
            let _ = writeln!(
                s,
                "  search tree: {} nodes, depth {}, worst subdomain needs {} leaves",
                n,
                d,
                self.max_leaves_per_part.unwrap_or(0)
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cip_dtree::{induce, DtreeConfig};
    use cip_geom::Point;
    use cip_graph::GraphBuilder;

    fn path(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n, 1);
        for v in 0..n as u32 {
            b.set_vwgt(v, &[1]);
        }
        for v in 0..n as u32 - 1 {
            b.add_edge(v, v + 1, 1);
        }
        b.build()
    }

    #[test]
    fn report_on_clean_halves() {
        let g = path(8);
        let asg = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let r = quality_report(&g, &asg, 2, None);
        assert_eq!(r.edge_cut, 1);
        assert_eq!(r.comm_volume, 2);
        assert_eq!(r.disconnected_parts, 0);
        assert_eq!(r.fragments, vec![1, 1]);
        assert!(r.tree_nodes.is_none());
        let text = r.render();
        assert!(text.contains("8 vertices into 2 parts"));
        assert!(!text.contains("search tree"));
    }

    #[test]
    fn report_detects_fragmentation() {
        let g = path(6);
        // Part 0 in two pieces.
        let asg = vec![0, 1, 0, 0, 1, 1];
        let r = quality_report(&g, &asg, 2, None);
        assert_eq!(r.disconnected_parts, 2);
        assert_eq!(r.fragments, vec![2, 2]);
    }

    #[test]
    fn report_includes_tree_stats() {
        let g = path(4);
        let asg = vec![0, 0, 1, 1];
        let pts: Vec<Point<3>> = (0..4).map(|i| Point::new([i as f64, 0.0, 0.0])).collect();
        let tree = induce(&pts, &asg, 2, &DtreeConfig::search_tree());
        let r = quality_report(&g, &asg, 2, Some(&tree));
        assert_eq!(r.tree_nodes, Some(3));
        assert_eq!(r.max_leaves_per_part, Some(1));
        assert!(r.render().contains("search tree: 3 nodes"));
        // Part 0 split into two spatial fragments -> two leaves.
        let asg = vec![0, 1, 0];
        let pts: Vec<Point<3>> = (0..3).map(|i| Point::new([i as f64, 0.0, 0.0])).collect();
        let tree = induce(&pts, &asg, 2, &DtreeConfig::search_tree());
        let r = quality_report(&path(3), &asg, 2, Some(&tree));
        assert_eq!(
            (r.tree_nodes, r.tree_depth, r.max_leaves_per_part),
            (Some(5), Some(2), Some(2))
        );
    }
}
