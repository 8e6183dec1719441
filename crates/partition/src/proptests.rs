//! Property tests for the partitioner internals: seeded sweeps over
//! random graphs (compiled only with `cfg(test)`).

#![cfg(test)]

use crate::coarsen::{coarsen, heavy_edge_matching, parallel_heavy_edge_matching};
use crate::config::PartitionerConfig;
use crate::fm::{bisection_cut, fm_refine_with, side_weights, BisectTargets};
use crate::hungarian::max_weight_assignment;
use crate::kway::{balance_kway, refine_kway, RefineWorkspace};
use cip_base::rng::{sweep, Rng};
use cip_graph::{contract, edge_cut, Graph, GraphBuilder};
use std::cmp::Reverse;

/// Random connected graph on `min_n..max_n` vertices: a path backbone
/// plus up to `2n` random chords of weight 1–3. Constraint 0 is unit FE
/// weight; higher constraints are random sparse weights (the paper's
/// lumpy contact-node pattern).
fn random_graph(rng: &mut Rng, min_n: i64, max_n: i64, ncon: usize) -> Graph {
    let n = rng.range_i64(min_n..max_n) as u32;
    let mut b = GraphBuilder::new(n as usize, ncon);
    for v in 0..n {
        let mut w = vec![1i64; ncon];
        for extra in &mut w[1..] {
            *extra = rng.range_i64(0..3);
        }
        b.set_vwgt(v, &w);
    }
    for v in 0..n - 1 {
        b.add_edge(v, v + 1, 1);
    }
    for _ in 0..rng.range_u32(2 * n) {
        let (u, v, w) = (rng.range_u32(n), rng.range_u32(n), rng.range_i64(1..4));
        if u != v {
            b.add_edge(u, v, w);
        }
    }
    b.build()
}

/// A uniformly random assignment of `g`'s vertices to `k` parts.
fn random_assignment(rng: &mut Rng, g: &Graph, k: usize) -> Vec<u32> {
    (0..g.nv()).map(|_| rng.range_u32(k as u32)).collect()
}

/// Per-part weights (`k * ncon`, part-major) of an assignment.
fn part_weights(g: &Graph, k: usize, asg: &[u32]) -> Vec<i64> {
    let ncon = g.ncon();
    let mut w = vec![0i64; k * ncon];
    for (v, &p) in asg.iter().enumerate() {
        for (j, x) in g.vwgt(v as u32).iter().enumerate() {
            w[p as usize * ncon + j] += x;
        }
    }
    w
}

/// FM refinement never worsens the (violation, cut) pair it starts
/// from.
#[test]
fn fm_never_worsens() {
    sweep(64, |rng| {
        let g = random_graph(rng, 4, 40, 1);
        let mut asg = random_assignment(rng, &g, 2);
        let targets = BisectTargets::new(&g, 0.5, &[0.1]);
        let cut_before = bisection_cut(&g, &asg);
        let viol_before = targets.violation(&side_weights(&g, &asg));
        let cut_after = fm_refine_with(&g, &mut asg, &targets, &mut RefineWorkspace::new());
        let viol_after = targets.violation(&side_weights(&g, &asg));
        assert!(
            (viol_after, cut_after) <= (viol_before, cut_before),
            "({viol_before}, {cut_before}) -> ({viol_after}, {cut_after})"
        );
        // Still a valid bisection.
        assert!(asg.iter().all(|&s| s <= 1));
    });
}

/// Heavy-edge matching yields a valid pairing of adjacent vertices and
/// contraction preserves the total weight — for both the sequential
/// matcher and the deterministic parallel (propose-then-resolve)
/// matcher used above `parallel_threshold`.
#[test]
fn matching_and_contraction_invariants() {
    sweep(64, |rng| {
        let g = random_graph(rng, 4, 50, 1);
        let seed = rng.next_u64() % 100;
        let seq = heavy_edge_matching(&g, seed);
        let par = parallel_heavy_edge_matching(&g, seed, 8);
        for (map, cnv) in [&seq, &par] {
            let (map, cnv) = (map, *cnv);
            assert!(cnv <= g.nv());
            // Coarse ids are dense: every id in 0..cnv is used.
            assert!(map.iter().all(|&c| (c as usize) < cnv));
            let mut used = vec![false; cnv];
            for &c in map {
                used[c as usize] = true;
            }
            assert!(used.iter().all(|&u| u), "coarse ids not dense");
            // Total vertex weight is preserved per constraint.
            let cg = contract(&g, map, cnv);
            assert_eq!(cg.total_vwgt(), g.total_vwgt());
            // No vertex matched twice (groups of 1 or 2) and matched
            // pairs must be adjacent in g (mate symmetry at map level).
            let mut members: Vec<Vec<u32>> = vec![Vec::new(); cnv];
            for (v, &c) in map.iter().enumerate() {
                members[c as usize].push(v as u32);
            }
            assert!(members.iter().all(|m| !m.is_empty() && m.len() <= 2));
            for m in members.iter().filter(|m| m.len() == 2) {
                assert!(g.adj(m[0]).contains(&m[1]));
            }
        }
        // The parallel matcher is a pure function of (graph, seed).
        let par2 = parallel_heavy_edge_matching(&g, seed, 8);
        assert_eq!(par, par2);
    });
}

/// Random graph on 2–80 vertices, not necessarily connected, built for
/// ties: edge weights 1–2, contact weights 0–1, so many neighbours share
/// a (weight, complementarity) key and the seeded rank decides.
fn tied_graph(rng: &mut Rng, ncon: usize) -> Graph {
    let n = rng.range_i64(2..80) as u32;
    let mut b = GraphBuilder::new(n as usize, ncon);
    for v in 0..n {
        let contact = rng.range_i64(0..2);
        b.set_vwgt(v, &[1, contact][..ncon]);
    }
    for _ in 0..rng.range_u32(3 * n) {
        let (u, v, w) = (rng.range_u32(n), rng.range_u32(n), rng.range_i64(1..3));
        if u != v {
            b.add_edge(u, v, w);
        }
    }
    b.build()
}

/// The parallel matcher as it ran before it kept proposals across
/// rounds, kept as the oracle: every round recomputes, from scratch, the
/// best unmatched neighbour of every unmatched vertex by (edge weight,
/// complementarity, lowest seeded rank), accepts the mutual proposals,
/// and stops after `max_rounds` or the first round that matches nothing.
fn round_by_round_matching(g: &Graph, seed: u64, max_rounds: usize) -> (Vec<u32>, usize) {
    let nv = g.nv();
    let mut order: Vec<u32> = (0..nv as u32).collect();
    Rng::seed_from_u64(seed).shuffle(&mut order);
    let mut rank = vec![0u32; nv];
    for (i, &v) in order.iter().enumerate() {
        rank[v as usize] = i as u32;
    }
    let mut mate = vec![u32::MAX; nv];
    for _ in 0..max_rounds.max(1) {
        let proposal: Vec<u32> = (0..nv as u32)
            .map(|v| {
                if mate[v as usize] != u32::MAX {
                    return u32::MAX;
                }
                let key = |(u, w): (u32, i64)| {
                    let dot: i64 = g.vwgt(v).iter().zip(g.vwgt(u)).map(|(a, b)| a * b).sum();
                    ((w, -dot, Reverse(rank[u as usize])), u)
                };
                let free = g.neighbors(v).filter(|&(u, _)| mate[u as usize] == u32::MAX);
                free.map(key).max().map_or(u32::MAX, |(_, u)| u)
            })
            .collect();
        let mut newly = 0;
        for v in 0..nv {
            let u = proposal[v];
            if mate[v] == u32::MAX && u != u32::MAX && proposal[u as usize] == v as u32 {
                mate[v] = u;
                newly += 1;
            }
        }
        if newly == 0 {
            break;
        }
    }
    // Dense coarse ids in vertex order; a pair takes its lower member's.
    let mut map = vec![u32::MAX; nv];
    let mut cnv = 0;
    for v in 0..nv {
        if map[v] == u32::MAX {
            map[v] = cnv;
            if mate[v] != u32::MAX {
                map[mate[v] as usize] = cnv;
            }
            cnv += 1;
        }
    }
    (map, cnv as usize)
}

/// Keeping every proposal whose target is still unmatched gives the
/// round-by-round matcher's pairs and coarse ids, at every round cap, on
/// one- and two-constraint graphs full of ties, with round 1 cut one to
/// four ways.
#[test]
fn kept_proposals_match_the_round_by_round_matcher() {
    sweep(96, |rng| {
        let ncon = 1 + rng.range_u32(2) as usize;
        let g = tied_graph(rng, ncon);
        let seed = rng.next_u64();
        for max_rounds in 1..=8 {
            let want = round_by_round_matching(&g, seed, max_rounds);
            let threads = 1 + max_rounds % 4;
            let got = cip_base::par::with_threads(threads, || {
                parallel_heavy_edge_matching(&g, seed, max_rounds)
            });
            assert_eq!(got, want, "max_rounds {max_rounds}, {threads} threads");
        }
    });
}

/// Coarsening hierarchies project any coarsest-level cut faithfully:
/// the cut of a projected assignment equals the coarse cut at every
/// level.
#[test]
fn hierarchy_projection_preserves_cut() {
    sweep(64, |rng| {
        let g = random_graph(rng, 4, 60, 1);
        let h = coarsen(&g, 8, rng.next_u64() % 100);
        if let Some(coarsest) = h.coarsest() {
            let coarse_asg: Vec<u32> = (0..coarsest.nv() as u32).map(|v| v & 1).collect();
            // Project down through every level.
            let mut asg = coarse_asg.clone();
            let mut cut = edge_cut(coarsest, &asg);
            for lvl in (0..h.levels.len()).rev() {
                let fine = if lvl == 0 { &g } else { &h.levels[lvl - 1].graph };
                let map = &h.levels[lvl].map;
                let fine_asg: Vec<u32> = map.iter().map(|&c| asg[c as usize]).collect();
                let fine_cut = edge_cut(fine, &fine_asg);
                assert_eq!(fine_cut, cut, "cut changed during projection");
                asg = fine_asg;
                cut = fine_cut;
            }
        }
    });
}

/// Hungarian output is invariant under adding a constant to a full
/// row (assignment structure unchanged).
#[test]
fn hungarian_row_shift_invariance() {
    sweep(64, |rng| {
        let n = 4;
        let w: Vec<i64> = (0..n * n).map(|_| rng.range_i64(0..50)).collect();
        let (row, shift) = (rng.range_u32(4) as usize, rng.range_i64(1..100));
        let a1 = max_weight_assignment(n, &w);
        let mut w2 = w.clone();
        for c in 0..n {
            w2[row * n + c] += shift;
        }
        let a2 = max_weight_assignment(n, &w2);
        let weight = |w: &[i64], a: &[usize]| -> i64 {
            a.iter().enumerate().map(|(r, &c)| w[r * n + c]).sum()
        };
        // Optimal values differ exactly by the shift.
        assert_eq!(weight(&w2, &a2), weight(&w, &a1) + shift);
    });
}

/// K-way refinement — both the sequential boundary sweep and the
/// parallel propose-then-resolve sweep — never increases the cut and
/// never breaks multi-constraint feasibility: a part within its cap
/// for some constraint before refinement stays within that cap.
#[test]
fn kway_refinement_preserves_feasibility() {
    sweep(64, |rng| {
        let ncon = rng.range_i64(1..4) as usize;
        let g = random_graph(rng, 6, 40, ncon);
        let k = rng.range_i64(2..5) as usize;
        let start = random_assignment(rng, &g, k);
        let seed = rng.next_u64() % 500;

        for threshold in [usize::MAX, 0] {
            let cfg = PartitionerConfig {
                parallel_threshold: threshold,
                ..PartitionerConfig::with_seed(seed)
            };
            let totals = g.total_vwgt();
            let cap =
                |j: usize| ((1.0 + cfg.eps_for(j)) * totals[j] as f64 / k as f64).ceil() as i64;
            let caps: Vec<i64> = (0..k * ncon).map(|i| cap(i % ncon)).collect();

            let mut asg = start.clone();
            let cut_before = edge_cut(&g, &asg);
            let pw_before = part_weights(&g, k, &asg);
            refine_kway(&g, k, &mut asg, &cfg);
            let cut_after = edge_cut(&g, &asg);
            let pw_after = part_weights(&g, k, &asg);

            assert!(
                cut_after <= cut_before,
                "threshold {threshold}: cut {cut_before} -> {cut_after}"
            );
            assert!(asg.iter().all(|&p| (p as usize) < k));
            for i in 0..k * ncon {
                // Refinement only moves weight into parts with headroom, so
                // no cap violation can appear (existing violations may
                // persist — that is balance_kway's job).
                assert!(
                    pw_after[i] <= pw_before[i].max(caps[i]),
                    "threshold {threshold}: part-constraint {i} grew over cap: \
                     {} -> {} (cap {})",
                    pw_before[i],
                    pw_after[i],
                    caps[i]
                );
            }

            // balance_kway obeys the same no-new-violation contract.
            let mut bal = start.clone();
            balance_kway(&g, k, &mut bal, &cfg);
            let pw_bal = part_weights(&g, k, &bal);
            for i in 0..k * ncon {
                assert!(
                    pw_bal[i] <= pw_before[i].max(caps[i]),
                    "balance: part-constraint {i} grew over cap: \
                     {} -> {} (cap {})",
                    pw_before[i],
                    pw_bal[i],
                    caps[i]
                );
            }
        }
    });
}

/// Config child seeds never collide across a small salt range.
#[test]
fn child_seeds_unique() {
    sweep(64, |rng| {
        let cfg = PartitionerConfig::with_seed(rng.next_u64() % 10_000);
        let seeds: Vec<u64> = (0..64).map(|s| cfg.child_seed(s)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len());
    });
}
