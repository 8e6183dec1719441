//! 2-way Fiduccia–Mattheyses refinement with multi-constraint feasibility.
//!
//! The FM pass tentatively moves the best-gain vertex (allowing negative
//! gains — hill climbing), tracks the best feasible prefix of the move
//! sequence, and rolls back the rest. Feasibility is the multi-constraint
//! condition: each side's weight must stay within its per-constraint cap.
//! When a bisection *starts* infeasible (e.g. after projecting a coarse
//! partition, or after the paper's majority-relabel step), moves that
//! reduce the total violation are admitted even if the destination is over
//! cap, so refinement doubles as balance repair.
//!
//! Gains are never recomputed from scratch: the `FmScratch` inside
//! [`crate::RefineWorkspace`] keeps the internal degree `id[v]` (edge
//! weight from `v` into its own side) incrementally updated on every move
//! and rollback. With the graph-constant weighted degree `tdeg[v]`, the
//! external degree is `ed[v] = tdeg[v] - id[v]` and the FM gain is
//! `ed - id = tdeg - 2·id` — the METIS id/ed invariant. The boundary set
//! (`ed > 0`) is maintained the same way, so each pass seeds its queue
//! from the boundary list instead of scanning every vertex, and the
//! post-rollback cut is updated move-by-move instead of recomputed in
//! `O(|E|)`.

use cip_graph::Graph;
use cip_telemetry::Recorder;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Maximum FM passes per refinement call (one call per uncoarsening level
/// and per initial-bisection try).
const FM_PASSES: usize = 4;

/// Largest *transient* balance violation an FM hill-climb may cross
/// mid-pass (the best-prefix rollback never commits to a state less
/// feasible than the start, so this only widens the search).
const TRANSIENT_VIOLATION: f64 = 0.02;

/// Balance targets for a bisection.
///
/// Side 0 should receive fraction `frac0` of the total weight of every
/// constraint (recursive bisection splits `k` into `k1 + k2`, so
/// `frac0 = k1 / k` rather than always one half).
#[derive(Debug, Clone)]
pub struct BisectTargets {
    /// Total vertex weight per constraint.
    pub totals: Vec<i64>,
    /// Target fraction of every constraint's weight for side 0.
    pub frac0: f64,
    /// Per-constraint imbalance tolerance (cap multiplier is `1 + eps`).
    pub eps: Vec<f64>,
}

impl BisectTargets {
    /// Builds targets for bisecting `g` with side-0 fraction `frac0`.
    pub fn new(g: &Graph, frac0: f64, eps: &[f64]) -> Self {
        let ncon = g.ncon();
        let eps_vec: Vec<f64> =
            (0..ncon).map(|j| *eps.get(j).unwrap_or_else(|| eps.last().unwrap())).collect();
        Self { totals: g.total_vwgt(), frac0, eps: eps_vec }
    }

    /// Number of constraints.
    pub fn ncon(&self) -> usize {
        self.totals.len()
    }

    /// The weight cap of `side` for constraint `j`.
    pub fn cap(&self, side: usize, j: usize) -> i64 {
        let frac = if side == 0 { self.frac0 } else { 1.0 - self.frac0 };
        ((1.0 + self.eps[j]) * frac * self.totals[j] as f64).ceil() as i64
    }

    /// Total violation of a side-weight vector (`2 * ncon` entries,
    /// side-major), normalized per constraint so different scales compose.
    pub fn violation(&self, side_weights: &[i64]) -> f64 {
        let ncon = self.ncon();
        let mut v = 0.0;
        for side in 0..2 {
            for j in 0..ncon {
                if self.totals[j] == 0 {
                    continue;
                }
                let over = side_weights[side * ncon + j] - self.cap(side, j);
                if over > 0 {
                    v += over as f64 / self.totals[j] as f64;
                }
            }
        }
        v
    }

    /// Whether a side-weight vector satisfies every cap.
    pub fn feasible(&self, side_weights: &[i64]) -> bool {
        self.violation(side_weights) == 0.0
    }
}

/// Side weights (`2 * ncon`, side-major) of a bisection assignment.
pub fn side_weights(g: &Graph, asg: &[u32]) -> Vec<i64> {
    let ncon = g.ncon();
    let mut w = vec![0i64; 2 * ncon];
    for (v, &s) in asg.iter().enumerate() {
        let base = s as usize * ncon;
        for (j, x) in g.vwgt(v as u32).iter().enumerate() {
            w[base + j] += x;
        }
    }
    w
}

/// Edge-cut of a bisection.
pub fn bisection_cut(g: &Graph, asg: &[u32]) -> i64 {
    cip_graph::edge_cut(g, asg)
}

/// Reusable 2-way FM scratch: id/ed degrees, boundary set, move queue and
/// move log. Lives inside [`crate::RefineWorkspace`]; all buffers are
/// resized (never shrunk) per call, so repeated refinement at a given
/// graph size performs no heap allocation.
#[derive(Debug, Default)]
pub(crate) struct FmScratch {
    /// Weighted degree per vertex (graph-constant within one call).
    tdeg: Vec<i64>,
    /// Edge weight from `v` into its own side (`ed = tdeg - id`).
    id: Vec<i64>,
    /// Moved-this-pass flags.
    moved: Vec<bool>,
    /// Lazy max-queue of `(gain, Reverse(vertex))`; stale entries are
    /// skipped on pop by re-deriving the gain from `id`.
    heap: BinaryHeap<(i64, Reverse<u32>)>,
    /// Boundary vertices (every `v` with `ed[v] > 0`), unordered.
    bnd: Vec<u32>,
    /// Position of `v` in `bnd`, or `u32::MAX` when interior.
    bnd_pos: Vec<u32>,
    /// Committed moves of the current pass, in order.
    log: Vec<u32>,
    /// Side weights (`2 * ncon`, side-major).
    sw: Vec<i64>,
}

impl FmScratch {
    /// (Re)derives every structure from `asg`: degrees, boundary set, side
    /// weights. Returns the current cut (from `Σ ed = 2·cut`).
    fn init(&mut self, g: &Graph, asg: &[u32]) -> i64 {
        let nv = g.nv();
        let ncon = g.ncon();
        self.tdeg.clear();
        self.tdeg.resize(nv, 0);
        self.id.clear();
        self.id.resize(nv, 0);
        self.moved.clear();
        self.moved.resize(nv, false);
        self.bnd.clear();
        self.bnd_pos.clear();
        self.bnd_pos.resize(nv, u32::MAX);
        self.heap.clear();
        self.log.clear();
        self.sw.clear();
        self.sw.resize(2 * ncon, 0);

        let mut ed_sum = 0i64;
        for v in 0..nv as u32 {
            let side = asg[v as usize];
            let mut td = 0i64;
            let mut idv = 0i64;
            for (u, w) in g.neighbors(v) {
                td += w;
                if asg[u as usize] == side {
                    idv += w;
                }
            }
            self.tdeg[v as usize] = td;
            self.id[v as usize] = idv;
            ed_sum += td - idv;
            if td > idv {
                self.bnd_pos[v as usize] = self.bnd.len() as u32;
                self.bnd.push(v);
            }
            let base = side as usize * ncon;
            for (j, x) in g.vwgt(v).iter().enumerate() {
                self.sw[base + j] += x;
            }
        }
        ed_sum / 2
    }

    /// Current FM gain of `v` (`ed - id`).
    #[inline]
    fn gain(&self, v: u32) -> i64 {
        self.tdeg[v as usize] - 2 * self.id[v as usize]
    }

    /// Re-syncs `v`'s boundary membership with its current `ed`.
    #[inline]
    fn sync_bnd(&mut self, v: u32) {
        let on = self.tdeg[v as usize] > self.id[v as usize];
        let pos = self.bnd_pos[v as usize];
        if on && pos == u32::MAX {
            self.bnd_pos[v as usize] = self.bnd.len() as u32;
            self.bnd.push(v);
        } else if !on && pos != u32::MAX {
            let last = *self.bnd.last().unwrap();
            self.bnd.swap_remove(pos as usize);
            if last != v {
                self.bnd_pos[last as usize] = pos;
            }
            self.bnd_pos[v as usize] = u32::MAX;
        }
    }

    /// Flips `v` to the other side, updating `asg`, side weights, id
    /// degrees and boundary membership of `v` and its neighbors. Returns
    /// the gain the flip realized (callers subtract it from the cut).
    fn flip(&mut self, g: &Graph, asg: &mut [u32], v: u32, ncon: usize) -> i64 {
        let gain = self.gain(v);
        let from = asg[v as usize] as usize;
        let to = 1 - from;
        for (j, w) in g.vwgt(v).iter().enumerate() {
            self.sw[from * ncon + j] -= w;
            self.sw[to * ncon + j] += w;
        }
        asg[v as usize] = to as u32;
        // 2-way: the weight to the new side is everything that was not on
        // the old side.
        self.id[v as usize] = self.tdeg[v as usize] - self.id[v as usize];
        self.sync_bnd(v);
        for (u, w) in g.neighbors(v) {
            if asg[u as usize] as usize == from {
                self.id[u as usize] -= w;
            } else {
                self.id[u as usize] += w;
            }
            self.sync_bnd(u);
        }
        gain
    }
}

/// Runs up to `FM_PASSES` FM passes on the bisection `asg`, returning the
/// final cut. `asg` must contain only sides 0 and 1. Repeated calls on
/// one workspace (across uncoarsening levels or initial-bisection tries)
/// perform no heap allocation once it has grown to the finest graph's
/// size.
pub fn fm_refine_with(
    g: &Graph,
    asg: &mut [u32],
    targets: &BisectTargets,
    ws: &mut crate::RefineWorkspace,
) -> i64 {
    let scratch = &mut ws.fm;
    let mut cut = scratch.init(g, asg);
    for _ in 0..FM_PASSES {
        let improved = fm_pass(g, asg, targets, scratch, &mut cut);
        if !improved {
            break;
        }
    }
    debug_assert_eq!(cut, bisection_cut(g, asg));
    cut
}

/// One FM pass over `scratch`'s boundary set. Returns whether the pass
/// strictly improved (cut, violation) lexicographically with violation
/// first. `scratch` must be in sync with `asg` on entry and is left in
/// sync on exit (including after rollback).
#[allow(clippy::needless_range_loop)] // indexing lets us push to the heap mid-loop
fn fm_pass(
    g: &Graph,
    asg: &mut [u32],
    targets: &BisectTargets,
    scratch: &mut FmScratch,
    cut: &mut i64,
) -> bool {
    let nv = g.nv();
    let ncon = g.ncon();
    scratch.moved.fill(false);
    scratch.log.clear();
    scratch.heap.clear();
    for i in 0..scratch.bnd.len() {
        let v = scratch.bnd[i];
        scratch.heap.push((scratch.gain(v), Reverse(v)));
    }

    let start_violation = targets.violation(&scratch.sw);
    let start_cut = *cut;
    // Best state seen: (violation, cut) lexicographic, preferring lower
    // violation, then lower cut. Index = number of applied moves.
    let mut best_key = (start_violation, start_cut);
    let mut best_len = 0usize;
    let limit = (nv / 50).clamp(32, 2048);

    while let Some((gain, Reverse(v))) = scratch.heap.pop() {
        if scratch.moved[v as usize] || scratch.gain(v) != gain {
            continue; // stale entry
        }
        let from = asg[v as usize] as usize;
        let to = 1 - from;

        // Tentative side weights after the move.
        for (j, w) in g.vwgt(v).iter().enumerate() {
            scratch.sw[from * ncon + j] -= w;
            scratch.sw[to * ncon + j] += w;
        }
        let violation_after = targets.violation(&scratch.sw);
        // Roll the weights back; we only commit below.
        for (j, w) in g.vwgt(v).iter().enumerate() {
            scratch.sw[from * ncon + j] += w;
            scratch.sw[to * ncon + j] -= w;
        }
        let violation_now = targets.violation(&scratch.sw);
        // Admissible moves either keep the violation from growing (within-
        // cap moves always qualify, and over-cap starts can still be
        // repaired) or incur only a small *transient* violation — the pass
        // may cross the balance line while hill-climbing, because the
        // best-prefix rollback below never commits to a state less
        // feasible than the start.
        if violation_after > violation_now + 1e-12 && violation_after > TRANSIENT_VIOLATION {
            continue;
        }

        // Commit the move; `flip` updates sw, id/ed and the boundary set.
        *cut -= scratch.flip(g, asg, v, ncon);
        scratch.moved[v as usize] = true;
        scratch.log.push(v);

        for (u, _) in g.neighbors(v) {
            if !scratch.moved[u as usize] {
                scratch.heap.push((scratch.gain(u), Reverse(u)));
            }
        }

        let key = (violation_after, *cut);
        if key < best_key {
            best_key = key;
            best_len = scratch.log.len();
        }
        if scratch.log.len() - best_len > limit {
            break; // hill climb exhausted
        }
    }

    // Roll back every move after the best prefix, updating the cut
    // incrementally (the flip's gain is exact under the maintained id/ed).
    for i in (best_len..scratch.log.len()).rev() {
        let v = scratch.log[i];
        *cut -= scratch.flip(g, asg, v, ncon);
    }
    debug_assert_eq!(*cut, bisection_cut(g, asg));

    (targets.violation(&scratch.sw), *cut) < (start_violation, start_cut)
}

/// Total violation after hypothetically moving a vertex with weights
/// `vwgt` off `side`, evaluated in `O(ncon)` from the per-(side,
/// constraint) terms the move touches — the violation is a sum of
/// independent terms, so nothing else changes.
fn violation_after_move(
    targets: &BisectTargets,
    sw: &[i64],
    vwgt: &[i64],
    side: usize,
    violation_now: f64,
) -> f64 {
    let ncon = targets.ncon();
    let other = 1 - side;
    let mut v = violation_now;
    for (j, &w) in vwgt.iter().enumerate() {
        if targets.totals[j] == 0 || w == 0 {
            continue;
        }
        let tj = targets.totals[j] as f64;
        let cap_s = targets.cap(side, j);
        let cap_o = targets.cap(other, j);
        let old_s = (sw[side * ncon + j] - cap_s).max(0);
        let new_s = (sw[side * ncon + j] - w - cap_s).max(0);
        let old_o = (sw[other * ncon + j] - cap_o).max(0);
        let new_o = (sw[other * ncon + j] + w - cap_o).max(0);
        v += (new_s - old_s + new_o - old_o) as f64 / tj;
    }
    v
}

/// What one balance repair did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Rebalance {
    /// Vertices moved.
    pub moves: u64,
    /// Full vertex scans: searches the boundary list could not serve.
    pub scans: u64,
}

impl Rebalance {
    /// Adds this repair to the `partition.rebalance.{moves,scans}` counters.
    pub fn record(self, rec: &Recorder) {
        rec.add("partition.rebalance.moves", self.moves);
        rec.add("partition.rebalance.scans", self.scans);
    }
}

/// Balance repair: greedily moves vertices off over-cap sides, choosing the
/// highest-gain vertex that strictly reduces total violation. Used when the
/// initial bisection or a projected partition is infeasible. Same
/// boundary-list + incremental-weights discipline as `balance_kway`, in a
/// reusable workspace. Candidates come from the maintained boundary list
/// (moving a boundary vertex repairs balance *and* tends to help the
/// cut), falling back to a full vertex scan only when no boundary vertex
/// can reduce the violation (e.g. a fully one-sided start has an empty
/// boundary). Each candidate's violation change is evaluated in `O(ncon)`
/// from the incrementally maintained side weights — no per-candidate
/// clone — and its FM gain comes from the maintained id/ed degrees in
/// `O(1)`.
pub fn rebalance_bisection_with(
    g: &Graph,
    asg: &mut [u32],
    targets: &BisectTargets,
    ws: &mut crate::RefineWorkspace,
) -> Rebalance {
    let ncon = g.ncon();
    let scratch = &mut ws.fm;
    scratch.init(g, asg);
    let mut done = Rebalance::default();
    let mut budget = 2 * g.nv();
    while budget > 0 {
        budget -= 1;
        let violation = targets.violation(&scratch.sw);
        if violation == 0.0 {
            return done;
        }
        // Find the most violated (side, constraint).
        let mut worst: Option<(f64, usize, usize)> = None;
        for side in 0..2 {
            for j in 0..ncon {
                if targets.totals[j] == 0 {
                    continue;
                }
                let over = scratch.sw[side * ncon + j] - targets.cap(side, j);
                if over > 0 {
                    let score = over as f64 / targets.totals[j] as f64;
                    if worst.is_none_or(|(s, _, _)| score > s) {
                        worst = Some((score, side, j));
                    }
                }
            }
        }
        let Some((_, side, j)) = worst else { return done };

        // Candidate: vertex on `side` with positive weight in `j` whose
        // move reduces total violation the most; break ties by FM gain,
        // then by lowest vertex id (deterministic regardless of boundary
        // list order).
        let mut best: Option<(f64, i64, u32)> = None;
        for pass in 0..2 {
            let scan_all = pass == 1;
            done.scans += u64::from(scan_all);
            let count = if scan_all { g.nv() } else { scratch.bnd.len() };
            for i in 0..count {
                let v = if scan_all { i as u32 } else { scratch.bnd[i] };
                if asg[v as usize] as usize != side || g.vwgt(v)[j] <= 0 {
                    continue;
                }
                let v_after =
                    violation_after_move(targets, &scratch.sw, g.vwgt(v), side, violation);
                if v_after >= violation {
                    continue;
                }
                let key = (violation - v_after, scratch.gain(v), v);
                let better = match best {
                    None => true,
                    Some((d, bg, bv)) => {
                        (key.0, key.1) > (d, bg) || ((key.0, key.1) == (d, bg) && v < bv)
                    }
                };
                if better {
                    best = Some(key);
                }
            }
            if best.is_some() {
                break;
            }
        }
        let Some((_, _, v)) = best else { return done };
        // `flip` keeps asg, side weights, id/ed and the boundary list in
        // sync, so the next iteration's candidates are exact.
        scratch.flip(g, asg, v, ncon);
        done.moves += 1;
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RefineWorkspace;
    use cip_graph::GraphBuilder;

    /// Path of 8 vertices, unit weights.
    fn path8() -> Graph {
        let mut b = GraphBuilder::new(8, 1);
        for v in 0..8u32 {
            b.set_vwgt(v, &[1]);
        }
        for v in 0..7u32 {
            b.add_edge(v, v + 1, 1);
        }
        b.build()
    }

    #[test]
    fn fm_fixes_interleaved_partition() {
        let g = path8();
        // Alternating sides: cut = 7. Optimal balanced cut = 1.
        let mut asg: Vec<u32> = (0..8).map(|v| (v % 2) as u32).collect();
        let targets = BisectTargets::new(&g, 0.5, &[0.05]);
        let cut = fm_refine_with(&g, &mut asg, &targets, &mut RefineWorkspace::new());
        assert_eq!(cut, 1, "assignment: {asg:?}");
        let sw = side_weights(&g, &asg);
        assert!(targets.feasible(&sw));
    }

    #[test]
    fn fm_does_not_worsen_an_optimal_partition() {
        let g = path8();
        let mut asg = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let targets = BisectTargets::new(&g, 0.5, &[0.05]);
        let cut = fm_refine_with(&g, &mut asg, &targets, &mut RefineWorkspace::new());
        assert_eq!(cut, 1);
    }

    #[test]
    fn reused_workspace_matches_fresh_workspace() {
        let g = path8();
        let targets = BisectTargets::new(&g, 0.5, &[0.05]);
        let mut ws = RefineWorkspace::new();
        // Dirty the workspace with an unrelated refinement first.
        let mut dirty: Vec<u32> = (0..8).map(|v| u32::from(v >= 3)).collect();
        let _ = fm_refine_with(&g, &mut dirty, &targets, &mut ws);

        let start: Vec<u32> = (0..8).map(|v| (v % 2) as u32).collect();
        let mut a = start.clone();
        let mut b = start.clone();
        let cut_reused = fm_refine_with(&g, &mut a, &targets, &mut ws);
        let cut_fresh = fm_refine_with(&g, &mut b, &targets, &mut RefineWorkspace::new());
        assert_eq!(a, b);
        assert_eq!(cut_reused, cut_fresh);
    }

    #[test]
    fn rebalance_repairs_lopsided_bisection() {
        let g = path8();
        let mut asg = vec![0, 0, 0, 0, 0, 0, 0, 1];
        let targets = BisectTargets::new(&g, 0.5, &[0.05]);
        rebalance_bisection_with(&g, &mut asg, &targets, &mut RefineWorkspace::new());
        let sw = side_weights(&g, &asg);
        assert!(targets.feasible(&sw), "side weights {sw:?}");
    }

    #[test]
    fn rebalance_handles_two_constraints() {
        // 8 vertices, second constraint only on vertices 0..4 (like contact
        // nodes clustered on one side of a mesh).
        let mut b = GraphBuilder::new(8, 2);
        for v in 0..8u32 {
            b.set_vwgt(v, &[1, i64::from(v < 4)]);
        }
        for v in 0..7u32 {
            b.add_edge(v, v + 1, 1);
        }
        let g = b.build();
        // All contact vertices on side 0 -> constraint 1 fully unbalanced.
        let mut asg = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let targets = BisectTargets::new(&g, 0.5, &[0.05, 0.05]);
        let sw0 = side_weights(&g, &asg);
        assert!(!targets.feasible(&sw0));
        rebalance_bisection_with(&g, &mut asg, &targets, &mut RefineWorkspace::new());
        fm_refine_with(&g, &mut asg, &targets, &mut RefineWorkspace::new());
        let sw = side_weights(&g, &asg);
        // Constraint 1 must now be split 2/2 (cap = ceil(1.05 * 2) = 3).
        assert!(sw[1] <= 3 && sw[3] <= 3, "contact weights {sw:?}");
    }

    #[test]
    fn rebalance_with_reused_workspace_matches_fresh() {
        let g = path8();
        let targets = BisectTargets::new(&g, 0.5, &[0.05]);
        let mut ws = RefineWorkspace::new();
        // Dirty the workspace with an unrelated refinement first.
        let mut dirty: Vec<u32> = (0..8).map(|v| u32::from(v >= 3)).collect();
        let _ = fm_refine_with(&g, &mut dirty, &targets, &mut ws);

        let start = vec![0u32, 0, 0, 0, 0, 0, 0, 1];
        let mut a = start.clone();
        let mut b = start.clone();
        rebalance_bisection_with(&g, &mut a, &targets, &mut ws);
        rebalance_bisection_with(&g, &mut b, &targets, &mut RefineWorkspace::new());
        assert_eq!(a, b);
        assert!(targets.feasible(&side_weights(&g, &a)));
    }

    #[test]
    fn asymmetric_target_fraction() {
        let g = path8();
        let targets = BisectTargets::new(&g, 0.25, &[0.2]);
        // frac0 = 0.25 of 8 = 2 vertices (cap ~ ceil(1.2*2) = 3).
        let mut asg = vec![0; 8];
        let done = rebalance_bisection_with(&g, &mut asg, &targets, &mut RefineWorkspace::new());
        let sw = side_weights(&g, &asg);
        assert!(targets.feasible(&sw), "side weights {sw:?}");
        assert!(sw[0] <= 3);
        // At least 5 moves; the first finds an empty boundary and scans.
        assert_eq!(done.moves, 8 - sw[0] as u64);
        assert!(done.moves >= 5 && done.scans >= 1, "{done:?}");
        let rec = Recorder::enabled();
        done.record(&rec);
        done.record(&rec);
        assert_eq!(rec.counter_value("partition.rebalance.moves"), 2 * done.moves);
        assert_eq!(rec.counter_value("partition.rebalance.scans"), 2 * done.scans);
    }

    #[test]
    fn side_weights_and_cut_agree_with_bruteforce() {
        let g = path8();
        let asg = vec![0, 1, 1, 0, 0, 1, 0, 1];
        assert_eq!(side_weights(&g, &asg), vec![4, 4]);
        assert_eq!(bisection_cut(&g, &asg), 5);
    }
}
