//! Boundary-driven multi-constraint `k`-way refinement and balancing.
//!
//! This is the refinement primitive the paper's §4.2 relies on twice:
//! once as the final polish of the initial multi-constraint partitioning,
//! and once on the leaf-contracted region graph `G'` after the
//! majority-relabel step, where each vertex is a whole axis-parallel
//! region, so every move provably preserves the piecewise axes-parallel
//! boundary geometry.
//!
//! The implementation follows the METIS id/ed discipline instead of
//! recomputing gains from scratch: a [`RefineWorkspace`] keeps, per
//! vertex, the internal degree `id[v]` (edge weight into the own part)
//! and the graph-constant weighted degree `tdeg[v]`; the external degree
//! is `ed = tdeg - id` and a vertex is *boundary* iff `ed > 0`. Every
//! move updates `id` of the moved vertex and its neighbors in `O(deg)`
//! and keeps an incremental boundary list in sync, so sweeps touch only
//! boundary vertices and [`balance_kway`] picks candidates from the
//! boundary list instead of scanning all `V` vertices per move.
//!
//! Two sweep schedules implement the same move rule:
//!
//! * **sequential** (below `parallel_threshold`): the boundary snapshot is
//!   visited in seeded random order, committing each strictly-improving
//!   feasible move immediately — the classic greedy sweep.
//! * **parallel** (at or above `parallel_threshold`): propose-then-resolve
//!   rounds, mirroring the coarsening matcher. Every boundary vertex
//!   computes its best strictly-positive feasible move against a frozen
//!   assignment snapshot (in parallel); a vertex *wins* its round iff its
//!   `(gain, seeded rank)` priority beats every proposing neighbor, so
//!   the committed set is an independent set and the cut drops by exactly
//!   the sum of the winning gains; winners then commit in priority order
//!   under live balance caps. Every step is a pure function of the
//!   previous snapshot, so the result is **bit-identical at any
//!   thread count**.

use crate::config::PartitionerConfig;
use cip_base::par;
use cip_base::rng::Rng;
use cip_graph::Graph;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::fm::FmScratch;

/// Maximum greedy k-way refinement passes per call.
const KWAY_PASSES: usize = 6;

/// Rounds cap per k-way refinement pass of the parallel
/// (propose-then-resolve) sweep (which also stops as soon as a round
/// commits no move).
const REFINE_ROUNDS: usize = 8;

/// Reusable scratch for the whole uncoarsening path: k-way id/ed degrees
/// and boundary set, per-part weights and caps, the parallel sweep's
/// proposal tables and the 2-way FM scratch. Create one per multilevel
/// bisection or polish and every refinement pass, level and restart of it
/// reuses it — zero steady-state heap allocation on the sequential paths.
#[derive(Debug, Default)]
pub struct RefineWorkspace {
    /// 2-way FM scratch (see `fm.rs`).
    pub(crate) fm: FmScratch,
    /// Weighted degree per vertex (graph-constant within one call).
    tdeg: Vec<i64>,
    /// Edge weight from `v` into its own part (`ed = tdeg - id`).
    id: Vec<i64>,
    /// Boundary vertices (every `v` with `ed[v] > 0`), unordered.
    bnd: Vec<u32>,
    /// Position of `v` in `bnd`, or `u32::MAX` when interior.
    bnd_pos: Vec<u32>,
    /// Per-part weights (`k * ncon`, part-major).
    pwgts: Vec<i64>,
    /// Per-part weight caps (`k * ncon`).
    caps: Vec<i64>,
    /// Total vertex weight per constraint (derived from `pwgts`, avoiding
    /// the allocating `Graph::total_vwgt`).
    totals: Vec<i64>,
    /// Per-vertex (part, weight) connectivity scratch.
    conn: Vec<(u32, i64)>,
    /// Sequential sweep: the shuffled boundary snapshot.
    order: Vec<u32>,
    /// Parallel sweep: per-vertex proposed gain (i64::MIN = no proposal).
    prop_gain: Vec<i64>,
    /// Parallel sweep: per-vertex proposed destination part.
    prop_to: Vec<u32>,
    /// Parallel sweep: seeded priority rank per vertex.
    rank: Vec<u32>,
    /// Parallel sweep: this round's winners.
    winners: Vec<u32>,
    /// Parallel sweep: per-boundary-position win flags (resolve scratch).
    win_flags: Vec<bool>,
    /// Greedy-growing frontier heap for `bisect::grow_once` restarts.
    pub(crate) grow_heap: BinaryHeap<(i64, Reverse<u32>)>,
    /// Greedy-growing per-vertex frontier gains.
    pub(crate) grow_gains: Vec<i64>,
    /// Greedy-growing side-0 membership flags.
    pub(crate) grow_in0: Vec<bool>,
    /// Greedy-growing assignment buffer, reused across attempts.
    pub(crate) grow_asg: Vec<u32>,
}

impl RefineWorkspace {
    /// A workspace with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-reserves every per-vertex buffer for graphs up to `nv`
    /// vertices, so a following uncoarsening loop never reallocates.
    pub fn reserve(&mut self, nv: usize) {
        self.tdeg.reserve(nv);
        self.id.reserve(nv);
        self.bnd.reserve(nv);
        self.bnd_pos.reserve(nv);
        self.order.reserve(nv);
        self.prop_gain.reserve(nv);
        self.prop_to.reserve(nv);
        self.rank.reserve(nv);
        self.winners.reserve(nv);
        self.win_flags.reserve(nv);
        self.grow_heap.reserve(nv);
        self.grow_gains.reserve(nv);
        self.grow_in0.reserve(nv);
        self.grow_asg.reserve(nv);
    }

    /// (Re)derives degrees, boundary list, part weights and caps from
    /// `asg`. Gain initialization (the `id` sweep) forks on graphs at or
    /// above `cfg.parallel_threshold` vertices.
    fn init_kway(&mut self, g: &Graph, k: usize, asg: &[u32], cfg: &PartitionerConfig) {
        let nv = g.nv();
        let ncon = g.ncon();
        self.tdeg.clear();
        self.tdeg.resize(nv, 0);
        self.id.clear();
        self.id.resize(nv, 0);
        self.bnd.clear();
        self.bnd_pos.clear();
        self.bnd_pos.resize(nv, u32::MAX);
        self.pwgts.clear();
        self.pwgts.resize(k * ncon, 0);
        self.conn.reserve(16);

        let degrees = |at: usize, (tdeg, id): (&mut [i64], &mut [i64])| {
            for (v, (td, idv)) in (at..).zip(tdeg.iter_mut().zip(id)) {
                let own = asg[v];
                for (u, w) in g.neighbors(v as u32) {
                    *td += w;
                    if asg[u as usize] == own {
                        *idv += w;
                    }
                }
            }
        };
        let (tdeg, id) = (&mut self.tdeg[..], &mut self.id[..]);
        if nv >= cfg.parallel_threshold {
            par::parts((tdeg, id), degrees);
        } else {
            degrees(0, (tdeg, id));
        }
        for v in 0..nv as u32 {
            if self.tdeg[v as usize] > self.id[v as usize] {
                self.bnd_pos[v as usize] = self.bnd.len() as u32;
                self.bnd.push(v);
            }
        }
        for (v, &p) in asg.iter().enumerate() {
            let base = p as usize * ncon;
            for (j, w) in g.vwgt(v as u32).iter().enumerate() {
                self.pwgts[base + j] += w;
            }
        }

        // Uniform per-part caps from the imbalance tolerances. The totals
        // come from the freshly built part weights, not the allocating
        // `Graph::total_vwgt`.
        self.totals.clear();
        self.totals.resize(ncon, 0);
        for p in 0..k {
            for j in 0..ncon {
                self.totals[j] += self.pwgts[p * ncon + j];
            }
        }
        self.caps.clear();
        for _ in 0..k {
            for j in 0..ncon {
                let t = self.totals[j];
                self.caps.push(((1.0 + cfg.eps_for(j)) * t as f64 / k as f64).ceil() as i64);
            }
        }
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

    /// Moves `v` to part `to`, given `v`'s edge weight into `to`
    /// (`conn_to`). Updates `asg`, part weights, id degrees and boundary
    /// membership of `v` and its neighbors in `O(deg)`.
    fn apply_move(&mut self, g: &Graph, asg: &mut [u32], v: u32, to: u32, conn_to: i64) {
        let from = asg[v as usize];
        debug_assert_ne!(from, to);
        let ncon = g.ncon();
        let fb = from as usize * ncon;
        let tb = to as usize * ncon;
        for (j, w) in g.vwgt(v).iter().enumerate() {
            self.pwgts[fb + j] -= w;
            self.pwgts[tb + j] += w;
        }
        asg[v as usize] = to;
        self.id[v as usize] = conn_to;
        self.sync_bnd(v);
        for (u, w) in g.neighbors(v) {
            if asg[u as usize] == from {
                self.id[u as usize] -= w;
            } else if asg[u as usize] == to {
                self.id[u as usize] += w;
            }
            self.sync_bnd(u);
        }
    }

    /// Whether moving `v` into part `p` keeps every constraint of `p`
    /// within its cap.
    #[inline]
    fn fits(&self, g: &Graph, v: u32, p: u32, ncon: usize) -> bool {
        let base = p as usize * ncon;
        g.vwgt(v).iter().enumerate().all(|(j, &w)| self.pwgts[base + j] + w <= self.caps[base + j])
    }
}

/// The connectivity of `v` to each part among its neighbors:
/// returns (part, total edge weight) pairs, unsorted.
fn connectivity(g: &Graph, asg: &[u32], v: u32, out: &mut Vec<(u32, i64)>) {
    out.clear();
    for (u, w) in g.neighbors(v) {
        let p = asg[u as usize];
        match out.iter_mut().find(|(q, _)| *q == p) {
            Some((_, acc)) => *acc += w,
            None => out.push((p, w)),
        }
    }
}

/// Greedy `k`-way refinement: sweeps the boundary vertices, moving each to
/// the adjacent part with the highest positive gain that keeps every
/// constraint within its cap. Stops when a sweep makes no move or after
/// `KWAY_PASSES` sweeps. Graphs at or above `cfg.parallel_threshold`
/// vertices use the deterministic parallel propose-then-resolve sweep
/// (bit-identical at any thread count); smaller graphs use the seeded
/// sequential sweep.
///
/// Never worsens the edge-cut and never moves a vertex into a part that
/// would exceed its cap (moves out of over-cap parts are always allowed).
pub fn refine_kway(g: &Graph, k: usize, asg: &mut [u32], cfg: &PartitionerConfig) {
    refine_kway_with(g, k, asg, cfg, &mut RefineWorkspace::new());
}

/// [`refine_kway`] with a reusable workspace: after the workspace has
/// grown to the graph's size, the sequential path performs no heap
/// allocation across passes, levels and calls.
pub fn refine_kway_with(
    g: &Graph,
    k: usize,
    asg: &mut [u32],
    cfg: &PartitionerConfig,
    ws: &mut RefineWorkspace,
) {
    if g.nv() == 0 || k <= 1 {
        return;
    }
    ws.init_kway(g, k, asg, cfg);
    if g.nv() >= cfg.parallel_threshold {
        refine_parallel(g, asg, cfg, ws);
    } else {
        refine_sequential(g, asg, cfg, ws);
    }
    debug_assert!(check_scratch(g, asg, ws));
}

/// Sequential boundary sweep (graphs below `parallel_threshold`).
#[allow(clippy::needless_range_loop)] // indexing lets us mutate `ws` mid-loop
fn refine_sequential(
    g: &Graph,
    asg: &mut [u32],
    cfg: &PartitionerConfig,
    ws: &mut RefineWorkspace,
) {
    let ncon = g.ncon();
    let rec = &cfg.recorder;
    let mut rng = Rng::seed_from_u64(cfg.child_seed(0x4EF1E));

    for _pass in 0..KWAY_PASSES {
        rec.add("partition.refine.passes", 1);
        rec.record("partition.refine.boundary", ws.bnd.len() as u64);
        // Snapshot the boundary in seeded random order; vertices that
        // leave the boundary mid-pass are skipped when reached.
        ws.order.clear();
        ws.order.extend_from_slice(&ws.bnd);
        rng.shuffle(&mut ws.order);

        let mut moves = 0usize;
        for i in 0..ws.order.len() {
            let v = ws.order[i];
            if ws.bnd_pos[v as usize] == u32::MAX {
                continue; // no longer boundary
            }
            let from = asg[v as usize];
            let id_w = ws.id[v as usize];
            // Best strictly-improving feasible target part.
            let mut conn = std::mem::take(&mut ws.conn);
            connectivity(g, asg, v, &mut conn);
            let mut best: Option<(i64, u32, i64)> = None;
            for &(p, w) in conn.iter() {
                if p == from {
                    continue;
                }
                let gain = w - id_w;
                if gain <= 0 {
                    continue;
                }
                if ws.fits(g, v, p, ncon) && best.is_none_or(|(bg, _, _)| gain > bg) {
                    best = Some((gain, p, w));
                }
            }
            ws.conn = conn;
            if let Some((_, p, w)) = best {
                ws.apply_move(g, asg, v, p, w);
                moves += 1;
            }
        }
        rec.add("partition.refine.moves", moves as u64);
        if moves == 0 {
            break;
        }
    }
}

/// Deterministic parallel propose-then-resolve sweep (graphs at or above
/// `parallel_threshold`). Runs up to `KWAY_PASSES * REFINE_ROUNDS` rounds,
/// stopping as soon as a round commits nothing.
#[allow(clippy::needless_range_loop)] // indexing lets us mutate `ws` mid-loop
fn refine_parallel(g: &Graph, asg: &mut [u32], cfg: &PartitionerConfig, ws: &mut RefineWorkspace) {
    let nv = g.nv();
    let ncon = g.ncon();
    let rec = &cfg.recorder;

    // Seeded priority rank (shared by every round; unique per vertex so
    // priority comparisons are total).
    ws.order.clear();
    ws.order.extend(0..nv as u32);
    Rng::seed_from_u64(cfg.child_seed(0x4EF1E)).shuffle(&mut ws.order);
    ws.rank.clear();
    ws.rank.resize(nv, 0);
    for (i, &v) in ws.order.iter().enumerate() {
        ws.rank[v as usize] = i as u32;
    }
    ws.prop_gain.clear();
    ws.prop_gain.resize(nv, i64::MIN);
    ws.prop_to.clear();
    ws.prop_to.resize(nv, u32::MAX);

    for _round in 0..KWAY_PASSES * REFINE_ROUNDS {
        rec.add("partition.refine.passes", 1);
        rec.record("partition.refine.boundary", ws.bnd.len() as u64);

        // Propose: every boundary vertex picks its best strictly-positive
        // feasible move against the frozen assignment and part weights.
        // Each task writes only its own vertex's slots — pure function of
        // the snapshot, hence thread-count invariant.
        {
            let (prop_gain, prop_to) = (&mut ws.prop_gain, &mut ws.prop_to);
            let (id, tdeg, pwgts, caps) = (&ws.id, &ws.tdeg, &ws.pwgts, &ws.caps);
            let asg_ro: &[u32] = asg;
            par::parts((&mut prop_gain[..], &mut prop_to[..]), |at, (prop_gain, prop_to)| {
                let mut conn = Vec::with_capacity(16);
                for (vi, (pg, pt)) in (at..).zip(prop_gain.iter_mut().zip(prop_to)) {
                    let v = vi as u32;
                    *pg = i64::MIN;
                    *pt = u32::MAX;
                    if tdeg[vi] <= id[vi] {
                        continue; // interior
                    }
                    connectivity(g, asg_ro, v, &mut conn);
                    let from = asg_ro[vi];
                    let id_w = id[vi];
                    // Highest gain wins; gain ties keep the first part in
                    // adjacency order — a deterministic, snapshot-only
                    // choice.
                    let mut best: Option<(i64, u32)> = None;
                    for &(p, w) in conn.iter() {
                        if p == from {
                            continue;
                        }
                        let gain = w - id_w;
                        if gain <= 0 {
                            continue;
                        }
                        let base = p as usize * ncon;
                        let fits = g
                            .vwgt(v)
                            .iter()
                            .enumerate()
                            .all(|(j, &vw)| pwgts[base + j] + vw <= caps[base + j]);
                        if fits && best.is_none_or(|(bg, _)| gain > bg) {
                            best = Some((gain, p));
                        }
                    }
                    if let Some((gain, p)) = best {
                        *pg = gain;
                        *pt = p;
                    }
                }
            });
        }

        // Resolve: a vertex wins iff its (gain, rank) priority beats every
        // proposing neighbor — winners form an independent set, so the cut
        // drops by exactly the sum of their gains. Pure function of the
        // proposal table.
        // Two passes over the boundary, both workspace-resident: a
        // parallel flag pass (each task writes only its own boundary
        // slot) and a sequential scan that gathers flagged vertices in
        // boundary order, so no round allocates a winners list per part.
        {
            let (prop_gain, rank) = (&ws.prop_gain, &ws.rank);
            ws.win_flags.clear();
            ws.win_flags.resize(ws.bnd.len(), false);
            let bnd: &[u32] = &ws.bnd;
            par::parts((&mut ws.win_flags[..], bnd), |_, (flags, bnd)| {
                for (flag, &v) in flags.iter_mut().zip(bnd) {
                    let vi = v as usize;
                    if prop_gain[vi] == i64::MIN {
                        continue;
                    }
                    let my = (prop_gain[vi], u32::MAX - rank[vi]);
                    *flag = g.neighbors(v).all(|(u, _)| {
                        let ui = u as usize;
                        prop_gain[ui] == i64::MIN || my > (prop_gain[ui], u32::MAX - rank[ui])
                    });
                }
            });
            ws.winners.clear();
            for (bi, &won) in ws.win_flags.iter().enumerate() {
                if won {
                    ws.winners.push(ws.bnd[bi]);
                }
            }
        }
        // Commit in descending priority so the best moves get the cap
        // headroom first; caps are re-checked against live part weights
        // because independent winners can share a destination part.
        let (prop_gain, rank) = (&ws.prop_gain, &ws.rank);
        ws.winners.sort_unstable_by_key(|&v| {
            std::cmp::Reverse((prop_gain[v as usize], u32::MAX - rank[v as usize]))
        });

        let mut moves = 0usize;
        for i in 0..ws.winners.len() {
            let v = ws.winners[i];
            let to = ws.prop_to[v as usize];
            if !ws.fits(g, v, to, ncon) {
                continue;
            }
            // The winner's gain is exact (no committed neighbor this
            // round), but its connectivity to `to` must be recomputed for
            // the id update.
            let mut conn = std::mem::take(&mut ws.conn);
            connectivity(g, asg, v, &mut conn);
            let w_to = conn.iter().find(|(p, _)| *p == to).map_or(0, |(_, w)| *w);
            ws.conn = conn;
            debug_assert_eq!(w_to - ws.id[v as usize], ws.prop_gain[v as usize]);
            ws.apply_move(g, asg, v, to, w_to);
            moves += 1;
        }
        rec.add("partition.refine.moves", moves as u64);
        if moves == 0 {
            break;
        }
    }
}

/// Debug check: the workspace's id/pwgts/boundary agree with `asg`.
fn check_scratch(g: &Graph, asg: &[u32], ws: &RefineWorkspace) -> bool {
    for v in 0..g.nv() as u32 {
        let own = asg[v as usize];
        let mut idv = 0i64;
        let mut td = 0i64;
        for (u, w) in g.neighbors(v) {
            td += w;
            if asg[u as usize] == own {
                idv += w;
            }
        }
        if ws.id[v as usize] != idv || ws.tdeg[v as usize] != td {
            return false;
        }
        let on = td > idv;
        if on != (ws.bnd_pos[v as usize] != u32::MAX) {
            return false;
        }
    }
    true
}

/// Balance enforcement: for every constraint whose imbalance exceeds the
/// tolerance, moves weight out of over-cap parts into parts with headroom,
/// choosing the (vertex, destination) with the least cut damage among the
/// over-cap part's *boundary* vertices (falling back to a full member scan
/// only when the boundary offers no candidate). Bounded effort; leaves the
/// partition as balanced as it could make it.
pub fn balance_kway(g: &Graph, k: usize, asg: &mut [u32], cfg: &PartitionerConfig) {
    balance_kway_with(g, k, asg, cfg, &mut RefineWorkspace::new());
}

/// [`balance_kway`] with a reusable workspace (same contract as
/// [`refine_kway_with`]).
pub fn balance_kway_with(
    g: &Graph,
    k: usize,
    asg: &mut [u32],
    cfg: &PartitionerConfig,
    ws: &mut RefineWorkspace,
) {
    if g.nv() == 0 || k <= 1 {
        return;
    }
    let ncon = g.ncon();
    ws.init_kway(g, k, asg, cfg);
    let rec = &cfg.recorder;

    for j in 0..ncon {
        if ws.totals[j] == 0 {
            continue;
        }
        let mut budget = g.nv();
        loop {
            // Most overloaded part under constraint j.
            let over: Option<u32> = (0..k as u32)
                .filter(|&p| ws.pwgts[p as usize * ncon + j] > ws.caps[p as usize * ncon + j])
                .max_by_key(|&p| ws.pwgts[p as usize * ncon + j] - ws.caps[p as usize * ncon + j]);
            let Some(from) = over else { break };
            if budget == 0 {
                break;
            }

            // Candidates: boundary members of `from` carrying weight in j
            // (the incremental boundary list makes this O(|boundary|)
            // instead of O(V)); interior members only when the boundary
            // has nothing to offer.
            let mut best = best_balance_move(g, asg, ws, from, j, k, ncon, BalanceScan::Boundary);
            if best.is_none() {
                best = best_balance_move(g, asg, ws, from, j, k, ncon, BalanceScan::AllMembers);
            }
            let Some((_, v, to, w_to)) = best else { break };
            ws.apply_move(g, asg, v, to, w_to);
            rec.add("partition.balance.moves", 1);
            budget -= 1;
        }
    }
    debug_assert!(check_scratch(g, asg, ws));
}

/// Candidate source for [`best_balance_move`].
#[derive(Clone, Copy, PartialEq)]
enum BalanceScan {
    /// Only the over-cap part's boundary vertices.
    Boundary,
    /// Every member of the over-cap part (fallback for interior weight).
    AllMembers,
}

/// The least-damage feasible move of a `from`-member carrying weight in
/// constraint `j`: `(damage, vertex, destination, conn_to_destination)`.
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
fn best_balance_move(
    g: &Graph,
    asg: &[u32],
    ws: &mut RefineWorkspace,
    from: u32,
    j: usize,
    k: usize,
    ncon: usize,
    scan: BalanceScan,
) -> Option<(i64, u32, u32, i64)> {
    let mut best: Option<(i64, u32, u32, i64)> = None;
    let mut conn = std::mem::take(&mut ws.conn);
    let candidates = ws.bnd.len();
    let n = if scan == BalanceScan::Boundary { candidates } else { g.nv() };
    for i in 0..n {
        let v = match scan {
            BalanceScan::Boundary => ws.bnd[i],
            BalanceScan::AllMembers => i as u32,
        };
        if asg[v as usize] != from || g.vwgt(v)[j] <= 0 {
            continue;
        }
        connectivity(g, asg, v, &mut conn);
        let id_w = ws.id[v as usize];
        // Destinations: neighbor parts first, then the globally
        // least-loaded part as a fallback for poorly-connected vertices.
        let try_part = |p: u32, best: &mut Option<(i64, u32, u32, i64)>| {
            if p == from || !ws.fits(g, v, p, ncon) {
                return;
            }
            let ext = conn.iter().find(|(q, _)| *q == p).map_or(0, |(_, w)| *w);
            let damage = id_w - ext; // negative damage = cut improves
                                     // Deterministic tie-break on (vertex, part) keeps the result
                                     // independent of the boundary list's internal order.
            if best.is_none_or(|(bd, bv, bp, _)| (damage, v, p) < (bd, bv, bp)) {
                *best = Some((damage, v, p, ext));
            }
        };
        for idx in 0..conn.len() {
            let p = conn[idx].0;
            try_part(p, &mut best);
        }
        let least: u32 = (0..k as u32).min_by_key(|&p| ws.pwgts[p as usize * ncon + j]).unwrap();
        try_part(least, &mut best);
    }
    ws.conn = conn;
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use cip_graph::{edge_cut, GraphBuilder, Partition};

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

    /// Columns-of-the-grid assignment: balanced but high-cut for k=2 when
    /// interleaved.
    #[test]
    fn refinement_reduces_cut_without_breaking_balance() {
        let g = grid(12, 12, 1);
        // Striped assignment: columns alternate parts -> terrible cut.
        let mut asg: Vec<u32> = (0..144).map(|v| ((v % 12) % 2) as u32).collect();
        let before = edge_cut(&g, &asg);
        let cfg = PartitionerConfig::with_seed(4);
        refine_kway(&g, 2, &mut asg, &cfg);
        let after = edge_cut(&g, &asg);
        assert!(after < before, "cut {before} -> {after}");
        let p = Partition::from_assignment(&g, 2, asg);
        assert!(p.max_imbalance() <= 1.06);
    }

    #[test]
    fn parallel_sweep_reduces_cut_without_breaking_balance() {
        let g = grid(12, 12, 1);
        let mut asg: Vec<u32> = (0..144).map(|v| ((v % 12) % 2) as u32).collect();
        let before = edge_cut(&g, &asg);
        // Force the propose-then-resolve path.
        let cfg = PartitionerConfig { parallel_threshold: 0, ..PartitionerConfig::with_seed(4) };
        refine_kway(&g, 2, &mut asg, &cfg);
        let after = edge_cut(&g, &asg);
        assert!(after < before, "cut {before} -> {after}");
        let p = Partition::from_assignment(&g, 2, asg);
        assert!(p.max_imbalance() <= 1.06);
    }

    #[test]
    fn refinement_never_increases_cut() {
        let g = grid(10, 10, 1);
        for threshold in [usize::MAX, 0] {
            let mut asg: Vec<u32> = (0..100).map(|v| if v < 50 { 0 } else { 1 }).collect();
            let before = edge_cut(&g, &asg);
            let cfg = PartitionerConfig {
                parallel_threshold: threshold,
                ..PartitionerConfig::with_seed(8)
            };
            refine_kway(&g, 2, &mut asg, &cfg);
            assert!(edge_cut(&g, &asg) <= before);
        }
    }

    #[test]
    fn reused_workspace_matches_fresh_workspace() {
        let g = grid(12, 12, 2);
        let start: Vec<u32> = (0..144).map(|v| ((v % 12) % 3) as u32).collect();
        for threshold in [usize::MAX, 0] {
            let cfg = PartitionerConfig {
                parallel_threshold: threshold,
                ..PartitionerConfig::with_seed(6)
            };
            let mut ws = RefineWorkspace::new();
            // Dirty the workspace with an unrelated run.
            let mut dirty = start.clone();
            refine_kway_with(&g, 3, &mut dirty, &PartitionerConfig::with_seed(1), &mut ws);

            let mut a = start.clone();
            let mut b = start.clone();
            refine_kway_with(&g, 3, &mut a, &cfg, &mut ws);
            refine_kway_with(&g, 3, &mut b, &cfg, &mut RefineWorkspace::new());
            assert_eq!(a, b, "threshold {threshold}");

            let mut c = start.clone();
            let mut d = start.clone();
            balance_kway_with(&g, 3, &mut c, &cfg, &mut ws);
            balance_kway_with(&g, 3, &mut d, &cfg, &mut RefineWorkspace::new());
            assert_eq!(c, d, "balance, threshold {threshold}");
        }
    }

    #[test]
    fn balance_fixes_overloaded_part() {
        let g = grid(10, 10, 1);
        // 80/20 split: part 0 overloaded (cap = ceil(1.05 * 50) = 53).
        let mut asg: Vec<u32> = (0..100).map(|v| if v < 80 { 0 } else { 1 }).collect();
        let cfg = PartitionerConfig::with_seed(2);
        balance_kway(&g, 2, &mut asg, &cfg);
        let p = Partition::from_assignment(&g, 2, asg);
        assert!(p.imbalance(0) <= 1.06, "imbalance {}", p.imbalance(0));
    }

    #[test]
    fn balance_handles_second_constraint() {
        let g = grid(10, 10, 2);
        // All border (contact) vertices initially in part 0's half plus a
        // skewed assignment of the rest.
        let mut asg: Vec<u32> = (0..100u32).map(|v| u32::from(v >= 90)).collect();
        let cfg = PartitionerConfig { eps: vec![0.05, 0.2], ..PartitionerConfig::with_seed(6) };
        balance_kway(&g, 2, &mut asg, &cfg);
        let p = Partition::from_assignment(&g, 2, asg);
        assert!(p.imbalance(0) <= 1.06, "c0 imbalance {}", p.imbalance(0));
        assert!(p.imbalance(1) <= 1.21, "c1 imbalance {}", p.imbalance(1));
    }

    #[test]
    fn refinement_is_noop_on_perfect_partition() {
        let g = grid(8, 8, 1);
        // Left/right halves: optimal cut 8.
        let mut asg: Vec<u32> = (0..64).map(|v| u32::from(v % 8 >= 4)).collect();
        let before = edge_cut(&g, &asg);
        assert_eq!(before, 8);
        refine_kway(&g, 2, &mut asg, &PartitionerConfig::with_seed(1));
        assert_eq!(edge_cut(&g, &asg), 8);
    }
}
