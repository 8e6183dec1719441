//! Tree aging (§4.3): with the partition held fixed, the contact points
//! drift away from the geometry the subdomain boundaries were drawn for,
//! and the search tree grows. This binary quantifies that claim and
//! evaluates the maintenance strategies:
//!
//! * **rebuild** — re-induce from scratch every snapshot (the paper's
//!   stated policy; NTNodes tracks the true descriptor complexity);
//! * **refresh** — incremental maintenance (`cip_dtree::refresh`): keep
//!   pure leaves, re-induce only impure subtrees — same purity contract,
//!   far less work, but the frozen upper structure accumulates extra
//!   nodes;
//! * **hybrid** — refresh with a periodic full rebuild, §4.3's suggestion
//!   applied to the tree itself.
//!
//! Usage: `cargo run --release -p cip-bench --bin tree_aging [--scale ...] [--k 25]`

use cip_core::{contact_graph, decompose, gather, McmlDtConfig};
use cip_dtree::{induce, refresh, DecisionTree, DtreeConfig};
use cip_telemetry::{json_struct, Recorder};

struct AgingRow {
    snapshot: usize,
    rebuild_nodes: usize,
    refresh_nodes: usize,
    hybrid_nodes: usize,
    refresh_reinduced_points: usize,
    refresh_total_points: usize,
}

json_struct!(AgingRow {
    snapshot,
    rebuild_nodes,
    refresh_nodes,
    hybrid_nodes,
    refresh_reinduced_points,
    refresh_total_points
});

fn main() {
    let args = cip_bench::HarnessArgs::parse(&[25]);
    let k = args.ks[0];
    let sim = args.run_sim();

    // Fixed MCML+DT partition from snapshot 0.
    let mcml = McmlDtConfig::paper(k);
    let graph0 = contact_graph(&sim, 0, mcml.graph_options(), &Recorder::disabled());
    let points0 = &sim.snapshots[0].points;
    let node_parts = decompose(&graph0, points0, &mcml).node_parts;

    let cfg = DtreeConfig::search_tree();
    let rebuild_period = 10;
    let mut refreshed: Option<DecisionTree<3>> = None;
    let mut hybrid: Option<DecisionTree<3>> = None;

    println!(
        "tree aging at k = {k} (fixed partition, {} snapshots; hybrid rebuilds every {rebuild_period})\n",
        sim.len()
    );
    println!(
        "{:>5} {:>9} {:>9} {:>9} {:>12}",
        "snap", "rebuild", "refresh", "hybrid", "work saved"
    );

    let mut rows = Vec::new();
    for (i, snap) in sim.snapshots.iter().enumerate() {
        let nodes = &snap.contact.contact_nodes;
        let labels = gather(nodes, &node_parts);
        let pts = &gather(nodes, &snap.points);

        let rebuilt = induce(pts, &labels, k, &cfg);

        let (new_refreshed, stats) = match &refreshed {
            None => (rebuilt.clone(), None),
            Some(prev) => {
                let (t, s) = refresh(prev, pts, &labels, k, &cfg);
                (t, Some(s))
            }
        };
        let (new_hybrid, _) = match &hybrid {
            Some(prev) if i % rebuild_period != 0 => refresh(prev, pts, &labels, k, &cfg),
            _ => (rebuilt.clone(), refresh(&rebuilt, pts, &labels, k, &cfg).1),
        };

        let row = AgingRow {
            snapshot: i,
            rebuild_nodes: rebuilt.num_nodes(),
            refresh_nodes: new_refreshed.num_nodes(),
            hybrid_nodes: new_hybrid.num_nodes(),
            refresh_reinduced_points: stats.map_or(pts.len(), |s| s.reinduced_points),
            refresh_total_points: pts.len(),
        };
        if i % (sim.len() / 20).max(1) == 0 || i + 1 == sim.len() {
            let saved = 100.0
                * (1.0
                    - row.refresh_reinduced_points as f64 / row.refresh_total_points.max(1) as f64);
            println!(
                "{:>5} {:>9} {:>9} {:>9} {:>11.0}%",
                row.snapshot, row.rebuild_nodes, row.refresh_nodes, row.hybrid_nodes, saved
            );
        }
        refreshed = Some(new_refreshed);
        hybrid = Some(new_hybrid);
        rows.push(row);
    }

    let last = rows.last().unwrap();
    println!(
        "\nfinal sizes: rebuild {} | refresh-only {} (+{:.0}%) | hybrid {} (+{:.0}%)",
        last.rebuild_nodes,
        last.refresh_nodes,
        100.0 * (last.refresh_nodes as f64 / last.rebuild_nodes as f64 - 1.0),
        last.hybrid_nodes,
        100.0 * (last.hybrid_nodes as f64 / last.rebuild_nodes as f64 - 1.0),
    );
    let avg_saved: f64 = rows
        .iter()
        .skip(1)
        .map(|r| 1.0 - r.refresh_reinduced_points as f64 / r.refresh_total_points.max(1) as f64)
        .sum::<f64>()
        / (rows.len() - 1).max(1) as f64;
    println!(
        "refresh re-induces only {:.0}% of the points per snapshot on average",
        100.0 * (1.0 - avg_saved)
    );
    cip_bench::write_json("tree_aging", &rows);
}
