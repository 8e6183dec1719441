//! Initial bisection of the coarsest graph.
//!
//! Multi-constraint greedy graph growing (GGG): grow side 0 from a random
//! seed vertex, always absorbing the frontier vertex with the highest FM
//! gain, until side 0 reaches its target share of the primary constraint.
//! A balance-repair pass then fixes the secondary constraints, and a short
//! FM run polishes the cut. Several seeded attempts are made and the best
//! feasible result (lowest cut) is kept.

use crate::config::{child_seed, PartitionerConfig};
use crate::fm::{fm_refine_with, rebalance_bisection_with, side_weights, BisectTargets};
use crate::RefineWorkspace;
use cip_base::rng::Rng;
use cip_graph::Graph;
use std::cmp::Reverse;

/// Seeded greedy growings the initial bisection tries.
const INIT_TRIES: usize = 6;

/// Computes an initial bisection of `g` with side-0 target fraction
/// `targets.frac0`, trying `INIT_TRIES` seeded growings (with random
/// streams rooted at `seed`, normally a recursion node's seed) and
/// returning the best assignment found. The growing frontier, the balance
/// repair and the FM polish of every attempt share `ws`, so restarts stop
/// re-allocating — the best assignment is cloned out only when an attempt
/// actually improves.
pub fn greedy_bisection_with(
    g: &Graph,
    targets: &BisectTargets,
    cfg: &PartitionerConfig,
    seed: u64,
    ws: &mut RefineWorkspace,
) -> Vec<u32> {
    assert!(g.nv() >= 2, "bisection needs at least two vertices");
    // Take the assignment buffer out so `ws` stays borrowable by the
    // rebalance/FM scratch below; restored before returning.
    let mut asg = std::mem::take(&mut ws.grow_asg);
    let mut best: Option<(f64, i64, Vec<u32>)> = None;
    for t in 0..INIT_TRIES {
        let try_seed = child_seed(seed, 0xB15EC7 + t as u64);
        grow_once(g, targets, try_seed, ws, &mut asg);
        rebalance_bisection_with(g, &mut asg, targets, ws).record(&cfg.recorder);
        let cut = fm_refine_with(g, &mut asg, targets, ws);
        let violation = targets.violation(&side_weights(g, &asg));
        let key = (violation, cut);
        if best.as_ref().is_none_or(|(bv, bc, _)| key < (*bv, *bc)) {
            match &mut best {
                Some((bv, bc, kept)) => {
                    *bv = violation;
                    *bc = cut;
                    kept.clone_from(&asg);
                }
                None => best = Some((violation, cut, asg.clone())),
            }
        }
    }
    ws.grow_asg = asg;
    best.expect("at least one bisection attempt").2
}

/// One greedy growing from a random seed vertex, written into `asg`. The
/// frontier heap, gain table and membership flags live in the workspace,
/// so repeated attempts perform no heap allocation.
fn grow_once(
    g: &Graph,
    targets: &BisectTargets,
    seed: u64,
    ws: &mut RefineWorkspace,
    asg: &mut Vec<u32>,
) {
    let nv = g.nv();
    let mut rng = Rng::seed_from_u64(seed);
    asg.clear();
    asg.resize(nv, 1);

    // Primary stopping constraint: the first constraint with nonzero total
    // (constraint 0 in practice — every mesh node does FE work).
    let primary = (0..targets.ncon()).find(|&j| targets.totals[j] > 0).unwrap_or(0);
    let target0 = targets.frac0 * targets.totals[primary] as f64;

    let mut grown = 0i64;
    let heap = &mut ws.grow_heap;
    heap.clear();
    let gains = &mut ws.grow_gains;
    gains.clear();
    gains.resize(nv, 0);
    let in_side0 = &mut ws.grow_in0;
    in_side0.clear();
    in_side0.resize(nv, false);

    let start = rng.range_u32(nv as u32);
    let mut pending: Option<u32> = Some(start);

    while (grown as f64) < target0 {
        let v = match pending.take() {
            Some(v) => v,
            None => {
                // Pop the best frontier vertex, skipping stale entries.
                let mut chosen = None;
                while let Some((gain, Reverse(v))) = heap.pop() {
                    if !in_side0[v as usize] && gains[v as usize] == gain {
                        chosen = Some(v);
                        break;
                    }
                }
                match chosen {
                    Some(v) => v,
                    None => {
                        // Disconnected graph: restart from a random
                        // unabsorbed vertex.
                        match (0..nv as u32).find(|&v| !in_side0[v as usize]) {
                            Some(v) => v,
                            None => break,
                        }
                    }
                }
            }
        };
        in_side0[v as usize] = true;
        asg[v as usize] = 0;
        grown += g.vwgt(v)[primary];
        for (u, w) in g.neighbors(v) {
            if !in_side0[u as usize] {
                gains[u as usize] += 2 * w; // u gains an edge into side 0
                heap.push((gains[u as usize], Reverse(u)));
            }
        }
    }
}

/// Splits a graph that is smaller than the requested part count: each
/// vertex gets its own part, the rest stay empty. Degenerate but total —
/// callers hit this only on pathological inputs (e.g. contracted region
/// graphs with fewer regions than parts).
pub fn assign_distinct_parts(nv: usize, k: usize) -> Vec<u32> {
    (0..nv).map(|v| (v % k) as u32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fm::bisection_cut;
    use cip_graph::GraphBuilder;

    fn grid(nx: usize, ny: usize, ncon: usize) -> Graph {
        let mut b = GraphBuilder::new(nx * ny, ncon);
        let id = |i: usize, j: usize| (j * nx + i) as u32;
        for j in 0..ny {
            for i in 0..nx {
                let border = i == 0 || j == 0 || i == nx - 1 || j == ny - 1;
                let w: Vec<i64> =
                    (0..ncon).map(|c| if c == 0 { 1 } else { i64::from(border) }).collect();
                b.set_vwgt(id(i, j), &w);
                if i + 1 < nx {
                    b.add_edge(id(i, j), id(i + 1, j), 1);
                }
                if j + 1 < ny {
                    b.add_edge(id(i, j), id(i, j + 1), 1);
                }
            }
        }
        b.build()
    }

    #[test]
    fn bisection_of_grid_is_balanced_and_reasonable() {
        let g = grid(12, 12, 1);
        let targets = BisectTargets::new(&g, 0.5, &[0.05]);
        let cfg = PartitionerConfig::with_seed(11);
        let asg = greedy_bisection_with(&g, &targets, &cfg, cfg.seed, &mut RefineWorkspace::new());
        let sw = side_weights(&g, &asg);
        assert!(targets.feasible(&sw), "side weights {sw:?}");
        let cut = bisection_cut(&g, &asg);
        // Optimal straight cut = 12; allow slack but reject garbage
        // (a random split would cut ~132 edges).
        assert!(cut <= 30, "cut {cut} too high");
    }

    #[test]
    fn two_constraint_bisection_balances_both() {
        let g = grid(12, 12, 2);
        let targets = BisectTargets::new(&g, 0.5, &[0.05, 0.2]);
        let cfg = PartitionerConfig::with_seed(5);
        let asg = greedy_bisection_with(&g, &targets, &cfg, cfg.seed, &mut RefineWorkspace::new());
        let sw = side_weights(&g, &asg);
        assert!(targets.feasible(&sw), "side weights {sw:?}");
    }

    #[test]
    fn asymmetric_fraction_respected() {
        let g = grid(10, 10, 1);
        // One third / two thirds split (k1=1, k2=2 of a 3-way).
        let targets = BisectTargets::new(&g, 1.0 / 3.0, &[0.05]);
        let cfg = PartitionerConfig::with_seed(2);
        let asg = greedy_bisection_with(&g, &targets, &cfg, cfg.seed, &mut RefineWorkspace::new());
        let sw = side_weights(&g, &asg);
        assert!(targets.feasible(&sw), "side weights {sw:?}");
        assert!((sw[0] as f64 - 100.0 / 3.0).abs() <= 5.0, "side 0 weight {}", sw[0]);
    }

    #[test]
    fn disconnected_graph_grows_across_components() {
        // Two disjoint 4-cliques-ish paths.
        let mut b = GraphBuilder::new(8, 1);
        for v in 0..8u32 {
            b.set_vwgt(v, &[1]);
        }
        for v in 0..3u32 {
            b.add_edge(v, v + 1, 1);
            b.add_edge(v + 4, v + 5, 1);
        }
        let g = b.build();
        let targets = BisectTargets::new(&g, 0.5, &[0.05]);
        let cfg = PartitionerConfig::with_seed(3);
        let asg = greedy_bisection_with(&g, &targets, &cfg, cfg.seed, &mut RefineWorkspace::new());
        let sw = side_weights(&g, &asg);
        assert!(targets.feasible(&sw));
    }

    #[test]
    fn reused_workspace_bisection_matches_fresh() {
        let g = grid(12, 12, 2);
        let targets = BisectTargets::new(&g, 0.5, &[0.05, 0.2]);
        let cfg = PartitionerConfig::with_seed(9);
        let mut ws = RefineWorkspace::new();
        // Dirty every grow/FM buffer on a different graph size first.
        let g2 = grid(6, 7, 1);
        let t2 = BisectTargets::new(&g2, 0.5, &[0.05]);
        let _ = greedy_bisection_with(&g2, &t2, &cfg, cfg.seed, &mut ws);

        let reused = greedy_bisection_with(&g, &targets, &cfg, cfg.seed, &mut ws);
        let fresh =
            greedy_bisection_with(&g, &targets, &cfg, cfg.seed, &mut RefineWorkspace::new());
        assert_eq!(reused, fresh, "scratch reuse must not change the result");
    }

    #[test]
    fn assign_distinct_parts_covers() {
        let asg = assign_distinct_parts(3, 5);
        assert_eq!(asg, vec![0, 1, 2]);
        let asg2 = assign_distinct_parts(7, 3);
        assert!(asg2.iter().all(|&p| p < 3));
    }
}
