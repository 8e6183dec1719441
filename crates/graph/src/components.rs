//! Connected components.
//!
//! Diagnostics for partition quality: a subdomain that falls apart into
//! several components costs extra communication and defeats geometric
//! descriptors, and the DT-friendly correction can in principle create
//! such fragments (a leaf region reassigned to a part it does not touch).
//! The experiment harness uses these helpers to report fragment counts.

use crate::csr::Graph;

/// Labels each vertex with its component id under the edges `joined`
/// keeps (`0..num_components`, in order of first discovery) and returns
/// the label vector plus the component count.
fn connected_components(g: &Graph, joined: impl Fn(u32, u32) -> bool) -> (Vec<u32>, usize) {
    let nv = g.nv();
    let mut label = vec![u32::MAX; nv];
    let mut next = 0u32;
    let mut stack: Vec<u32> = Vec::new();
    for start in 0..nv as u32 {
        if label[start as usize] != u32::MAX {
            continue;
        }
        label[start as usize] = next;
        stack.push(start);
        while let Some(v) = stack.pop() {
            for &u in g.adj(v) {
                if label[u as usize] == u32::MAX && joined(v, u) {
                    label[u as usize] = next;
                    stack.push(u);
                }
            }
        }
        next += 1;
    }
    (label, next as usize)
}

/// For a `k`-way assignment, the number of connected fragments of each
/// part (1 = the part is connected; 0 = the part is empty).
pub fn part_fragments(g: &Graph, assignment: &[u32], k: usize) -> Vec<usize> {
    assert_eq!(assignment.len(), g.nv());
    let (label, _) =
        connected_components(g, |v, u| assignment[v as usize] == assignment[u as usize]);
    // A component's first vertex (in index order) is where it was found.
    let mut fragments = vec![0usize; k];
    let mut next = 0;
    for (&l, &part) in label.iter().zip(assignment) {
        if l == next {
            fragments[part as usize] += 1;
            next += 1;
        }
    }
    fragments
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn two_paths() -> Graph {
        // 0-1-2   3-4
        let mut b = GraphBuilder::new(5, 1);
        for v in 0..5u32 {
            b.set_vwgt(v, &[1]);
        }
        b.add_edge(0, 1, 1).add_edge(1, 2, 1).add_edge(3, 4, 1);
        b.build()
    }

    #[test]
    fn finds_two_components() {
        let g = two_paths();
        let (label, n) = connected_components(&g, |_, _| true);
        assert_eq!(n, 2);
        assert_eq!(label[0], label[1]);
        assert_eq!(label[1], label[2]);
        assert_eq!(label[3], label[4]);
        assert_ne!(label[0], label[3]);
    }

    #[test]
    fn connected_graph_is_one_component() {
        let mut b = GraphBuilder::new(4, 1);
        for v in 0..4u32 {
            b.set_vwgt(v, &[1]);
        }
        for v in 0..3u32 {
            b.add_edge(v, v + 1, 1);
        }
        let (label, n) = connected_components(&b.build(), |_, _| true);
        assert_eq!(n, 1);
        assert!(label.iter().all(|&l| l == 0));
    }

    #[test]
    fn isolated_vertices_are_singletons() {
        let g = Graph::edgeless(3, 1);
        let (_, n) = connected_components(&g, |_, _| true);
        assert_eq!(n, 3);
    }

    #[test]
    fn part_fragments_counts_pieces() {
        // Path 0-1-2-3-4-5 with assignment 0,1,0,0,1,1: part 0 has
        // fragments {0} and {2,3}; part 1 has {1} and {4,5}.
        let mut b = GraphBuilder::new(6, 1);
        for v in 0..6u32 {
            b.set_vwgt(v, &[1]);
        }
        for v in 0..5u32 {
            b.add_edge(v, v + 1, 1);
        }
        let g = b.build();
        let frags = part_fragments(&g, &[0, 1, 0, 0, 1, 1], 2);
        assert_eq!(frags, vec![2, 2]);
        // Contiguous halves: one fragment each.
        let frags = part_fragments(&g, &[0, 0, 0, 1, 1, 1], 2);
        assert_eq!(frags, vec![1, 1]);
    }

    #[test]
    fn empty_parts_report_zero_fragments() {
        let g = two_paths();
        let frags = part_fragments(&g, &[0, 0, 0, 0, 0], 3);
        assert_eq!(frags, vec![2, 0, 0]);
    }
}
