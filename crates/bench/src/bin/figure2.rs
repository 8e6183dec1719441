//! Regenerates **Figure 2**'s point quantitatively: a 2-way partitioning
//! whose boundary runs along a diagonal forces the decision tree into a
//! fine-grained staircase, while the paper's DT-friendly correction
//! (§4.2) straightens the boundary and collapses the tree.
//!
//! Prints tree sizes for the raw diagonal partition and after the
//! correction, across grid sizes.
//!
//! Usage: `cargo run --release -p cip-bench --bin figure2`

use cip_core::{dt_friendly_correct, DtFriendlyConfig};
use cip_dtree::{induce, DtreeConfig};
use cip_geom::Point;
use cip_graph::{edge_cut, GraphBuilder, Partition};
use cip_telemetry::json_struct;

struct Row {
    n: usize,
    diagonal_tree_nodes: usize,
    corrected_tree_nodes: usize,
    diagonal_cut: i64,
    corrected_cut: i64,
    corrected_imbalance: f64,
}

json_struct!(Row {
    n,
    diagonal_tree_nodes,
    corrected_tree_nodes,
    diagonal_cut,
    corrected_cut,
    corrected_imbalance
});

fn main() {
    println!("Figure 2 — decision-tree blowup on diagonal boundaries, and the DT-friendly fix\n");
    println!(
        "{:>6} | {:>14} {:>15} | {:>12} {:>13} {:>10}",
        "grid", "diag tree", "corrected tree", "diag cut", "corrected cut", "imbalance"
    );
    println!("-------+--------------------------------+---------------------------------------");

    let mut rows = Vec::new();
    for n in [8usize, 16, 24, 32, 48] {
        // n x n grid of contact points, diagonal 2-way partition.
        let mut b = GraphBuilder::new(n * n, 1);
        let id = |i: usize, j: usize| (j * n + i) as u32;
        let mut positions2: Vec<Point<2>> = Vec::with_capacity(n * n);
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
                positions2.push(Point::new([i as f64, j as f64]));
                asg.push(u32::from(i + j >= n));
            }
        }
        let graph = b.build();

        // Raw diagonal: induce the purity tree directly (2D points).
        let diag_tree = induce(&positions2, &asg, 2, &DtreeConfig::search_tree());
        let diag_cut = edge_cut(&graph, &asg);

        // DT-friendly correction (natively in 2D), then re-induce.
        let mut corrected = asg.clone();
        dt_friendly_correct(&graph, &positions2, 2, &mut corrected, &DtFriendlyConfig::default());
        let corr_tree = induce(&positions2, &corrected, 2, &DtreeConfig::search_tree());
        let corr_cut = edge_cut(&graph, &corrected);
        let imb = Partition::from_assignment(&graph, 2, corrected).max_imbalance();

        println!(
            "{n:>4}^2 | {:>14} {:>15} | {:>12} {:>13} {:>10.3}",
            diag_tree.num_nodes(),
            corr_tree.num_nodes(),
            diag_cut,
            corr_cut,
            imb
        );
        rows.push(Row {
            n,
            diagonal_tree_nodes: diag_tree.num_nodes(),
            corrected_tree_nodes: corr_tree.num_nodes(),
            diagonal_cut: diag_cut,
            corrected_cut: corr_cut,
            corrected_imbalance: imb,
        });
    }

    println!("\nExpected shape: the diagonal tree grows ~linearly with the grid side");
    println!("(staircase of O(n) rectangles), while the corrected tree stays near-constant.");
    cip_bench::write_json("figure2", &rows);
}
