//! Tree inspection: Graphviz export.
//!
//! [`DecisionTree::to_dot`] renders the tree for inspection, mirroring the
//! paper's Figures 1(c) and 2(b).

use crate::tree::{DecisionTree, DtNode};
use std::fmt::Write as _;

impl<const D: usize> DecisionTree<D> {
    /// Renders the tree in Graphviz DOT format. Internal nodes show their
    /// decision hyperplane (`x <= 4.75?` with yes/no edge labels, as in
    /// the paper's Figure 1(c)); leaves show their partition and point
    /// count.
    pub fn to_dot(&self) -> String {
        let mut s = String::from("digraph dtree {\n  node [fontname=\"monospace\"];\n");
        for (i, node) in self.nodes().iter().enumerate() {
            match node {
                DtNode::Internal { plane, left, right } => {
                    let axis = ["x", "y", "z", "w"][plane.dim.min(3)];
                    let _ =
                        writeln!(s, "  n{i} [shape=box, label=\"{axis} <= {:.4}?\"];", plane.coord);
                    let _ = writeln!(s, "  n{i} -> n{left} [label=\"yes\"];");
                    let _ = writeln!(s, "  n{i} -> n{right} [label=\"no\"];");
                }
                DtNode::Leaf { part, count, pure, .. } => {
                    let style = if *pure { "solid" } else { "dashed" };
                    let _ = writeln!(
                        s,
                        "  n{i} [shape=ellipse, style={style}, label=\"P{part} ({count})\"];"
                    );
                }
            }
        }
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::induce::{induce, DtreeConfig};
    use cip_geom::Point;

    fn banded() -> DecisionTree<2> {
        let mut pts = Vec::new();
        let mut labels = Vec::new();
        for band in 0..3u32 {
            for i in 0..8 {
                pts.push(Point::new([i as f64, band as f64 * 10.0]));
                labels.push(band);
            }
        }
        induce(&pts, &labels, 3, &DtreeConfig::search_tree())
    }

    #[test]
    fn dot_output_is_well_formed() {
        let t = banded();
        let dot = t.to_dot();
        assert!(dot.starts_with("digraph dtree {"));
        assert!(dot.ends_with("}\n"));
        assert_eq!(dot.matches("shape=box").count(), 2, "two internal nodes");
        assert_eq!(dot.matches("shape=ellipse").count(), 3, "three leaves");
        assert_eq!(dot.matches("label=\"yes\"").count(), 2);
    }
}
