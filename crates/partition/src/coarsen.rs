//! Coarsening: heavy-edge matching and contraction.
//!
//! Each coarsening level matches vertices with their heaviest-edge
//! unmatched neighbor (HEM) and contracts matched pairs. For
//! multi-constraint graphs the tiebreak among equally heavy edges prefers
//! the neighbor whose weight vector best *complements* the vertex's own
//! (Karypis–Kumar "balanced matching"), which keeps coarse vertex-weight
//! vectors homogeneous and makes the coarsest-level balance problem
//! tractable.
//!
//! Two matchers implement that policy:
//!
//! * [`heavy_edge_matching`] — the classic sequential sweep in seeded
//!   random order; cheapest for small graphs and recursion sub-problems.
//! * [`parallel_heavy_edge_matching`] — a propose-then-resolve scheme:
//!   every vertex computes its best neighbor in parallel (tiebroken by the
//!   seeded visit rank), mutual proposals are accepted, and the loop
//!   repeats on the remainder until no new pairs form. A later round
//!   recomputes only the proposals whose target was matched away — keys
//!   are static and candidate sets only shrink, so every other proposal
//!   is what a recomputation would give. Every round is a pure function of
//!   the previous round's `mate` snapshot and each vertex writes only its
//!   own slot, so the result is **byte-identical for a fixed seed at any
//!   thread count**.
//!
//! [`coarsen_with`] drives either matcher per level (chosen by the
//! caller's `parallel_threshold`; `coarsen.match` spans of the parallel
//! one carry `rounds` and `reproposed`), contracts through
//! [`cip_graph::contract_with`], moves each coarse graph into the
//! [`Hierarchy`] exactly once (no per-level clones), and reuses a
//! [`CoarsenWorkspace`] so the steady-state level loop performs no scratch
//! allocation.

use cip_base::par;
use cip_base::rng::Rng;
use cip_graph::{contract_with, ContractWorkspace, Graph};
use cip_telemetry::Recorder;

/// Default for [`CoarsenParams::parallel_threshold`] and
/// `PartitionerConfig::parallel_threshold`.
pub const DEFAULT_PARALLEL_THRESHOLD: usize = 4096;

/// Rounds cap for the parallel matcher's propose-then-resolve loop (it
/// also stops as soon as a round stops matching new vertices).
const MATCHING_ROUNDS: usize = 8;

/// One coarsening level: the coarse graph plus the fine-to-coarse map.
#[derive(Debug, Clone)]
pub struct Level {
    /// The coarse graph produced by this level.
    pub graph: Graph,
    /// `map[fine_vertex] = coarse_vertex` into `graph`.
    pub map: Vec<u32>,
}

/// A full coarsening hierarchy. `levels[0].graph` is one step coarser than
/// the input; `levels.last()` is the coarsest graph. Each level's graph is
/// owned by the hierarchy alone — the construction never clones a graph.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    /// Successive coarsening levels (possibly empty if the input was
    /// already small).
    pub levels: Vec<Level>,
}

impl Hierarchy {
    /// The coarsest graph, or `None` if no coarsening step was taken.
    pub fn coarsest(&self) -> Option<&Graph> {
        self.levels.last().map(|l| &l.graph)
    }

    /// Number of coarsening levels.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// True if no coarsening step was taken.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// The *fine* graph of level `lvl` — the graph `levels[lvl].map`
    /// projects onto: `finest` for level 0, the previous level's coarse
    /// graph otherwise. This is the uncoarsening-loop accessor.
    pub fn fine_graph<'a>(&'a self, lvl: usize, finest: &'a Graph) -> &'a Graph {
        if lvl == 0 {
            finest
        } else {
            &self.levels[lvl - 1].graph
        }
    }

    /// Projects a part assignment of level `lvl`'s coarse graph onto its
    /// fine graph, into a caller-owned buffer, so the uncoarsening loop
    /// can ping-pong two assignment buffers instead of allocating a fresh
    /// `Vec` per level.
    pub fn project_into(&self, lvl: usize, coarse_asg: &[u32], out: &mut Vec<u32>) {
        let map = &self.levels[lvl].map;
        out.clear();
        out.extend(map.iter().map(|&c| coarse_asg[c as usize]));
    }
}

/// Knobs for [`coarsen_with`], typically derived from a
/// `PartitionerConfig`.
#[derive(Debug, Clone, Copy)]
pub struct CoarsenParams {
    /// Stop once the graph has at most this many vertices.
    pub coarsen_to: usize,
    /// Seed for the per-level visit orders.
    pub seed: u64,
    /// Levels with at least this many vertices use the parallel matcher
    /// and ask for parallel contraction, which forks only where
    /// `cip_base::par` splits the level (`usize::MAX` forces sequential,
    /// `0` forces the parallel matcher).
    pub parallel_threshold: usize,
}

impl CoarsenParams {
    /// Params with the given target size and seed, defaults elsewhere.
    pub fn new(coarsen_to: usize, seed: u64) -> Self {
        Self { coarsen_to, seed, parallel_threshold: DEFAULT_PARALLEL_THRESHOLD }
    }
}

/// Reusable scratch for [`coarsen_with`]: matcher buffers plus the
/// contraction workspace. Allocated lazily on first use and reused across
/// levels (and across coarsening calls when the caller holds on to it).
#[derive(Debug, Default)]
pub struct CoarsenWorkspace {
    /// Seeded visit order (sequential matcher) / its inverse rank
    /// (parallel matcher priority).
    order: Vec<u32>,
    rank: Vec<u32>,
    /// `mate[v]`: matched partner, `v` itself for singletons, `u32::MAX`
    /// while unmatched.
    mate: Vec<u32>,
    /// Current proposals of the parallel matcher.
    proposal: Vec<u32>,
    /// The parallel matcher's still unmatched vertices.
    unmatched: Vec<u32>,
    /// Contraction scratch (group counts, members, per-worker slots).
    contract: ContractWorkspace,
}

impl CoarsenWorkspace {
    /// A workspace with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Computes a heavy-edge matching of `g` and returns the fine-to-coarse map
/// together with the number of coarse vertices.
///
/// Visit order is randomized (seeded) so repeated runs explore different
/// matchings; unmatched vertices map to singleton coarse vertices.
pub fn heavy_edge_matching(g: &Graph, seed: u64) -> (Vec<u32>, usize) {
    sequential_hem(g, seed, &mut CoarsenWorkspace::new())
}

fn sequential_hem(g: &Graph, seed: u64, ws: &mut CoarsenWorkspace) -> (Vec<u32>, usize) {
    let nv = g.nv();
    ws.order.clear();
    ws.order.extend(0..nv as u32);
    Rng::seed_from_u64(seed).shuffle(&mut ws.order);

    ws.mate.clear();
    ws.mate.resize(nv, u32::MAX);
    let mate = &mut ws.mate;
    for &v in &ws.order {
        if mate[v as usize] != u32::MAX {
            continue;
        }
        let mut best: Option<(i64, i64, u32)> = None;
        for (u, w) in g.neighbors(v) {
            if mate[u as usize] != u32::MAX {
                continue;
            }
            // Primary key: heaviest edge. Secondary key (maximized):
            // complementarity of the weight vectors — prefer merging a
            // contact-heavy vertex with a contact-light one so coarse
            // weight vectors stay homogeneous. We use the negative dot
            // product of the weight vectors as the score.
            let dot: i64 = g.vwgt(v).iter().zip(g.vwgt(u)).map(|(a, b)| a * b).sum();
            let key = (w, -dot, u);
            match best {
                Some((bw, bdot, _)) if (bw, bdot) >= (w, -dot) => {}
                _ => best = Some(key),
            }
        }
        if let Some((_, _, u)) = best {
            mate[v as usize] = u;
            mate[u as usize] = v;
        } else {
            mate[v as usize] = v; // matched with itself
        }
    }
    assign_coarse_ids(mate)
}

/// Deterministic parallel heavy-edge matching (propose-then-resolve).
///
/// Same matching policy as [`heavy_edge_matching`] — heaviest edge first,
/// then weight-vector complementarity — with conflicts resolved by the
/// seeded visit rank instead of sequential visit order. Proposals are
/// computed from an immutable `mate` snapshot and every vertex writes only
/// its own `mate` slot, so the result is identical at any thread count.
///
/// Returns the fine-to-coarse map and the number of coarse vertices.
pub fn parallel_heavy_edge_matching(g: &Graph, seed: u64, max_rounds: usize) -> (Vec<u32>, usize) {
    parallel_hem(g, seed, max_rounds, &mut CoarsenWorkspace::new()).0
}

/// What one run of the parallel matcher did.
#[derive(Debug, Clone, Copy)]
struct MatchRounds {
    /// Propose-then-resolve rounds run.
    rounds: usize,
    /// Proposals recomputed after the first round.
    reproposed: usize,
}

fn parallel_hem(
    g: &Graph,
    seed: u64,
    max_rounds: usize,
    ws: &mut CoarsenWorkspace,
) -> ((Vec<u32>, usize), MatchRounds) {
    let nv = g.nv();
    ws.order.clear();
    ws.order.extend(0..nv as u32);
    Rng::seed_from_u64(seed).shuffle(&mut ws.order);
    ws.rank.clear();
    ws.rank.resize(nv, 0);
    for (i, &v) in ws.order.iter().enumerate() {
        ws.rank[v as usize] = i as u32;
    }

    ws.mate.clear();
    ws.mate.resize(nv, u32::MAX);
    ws.proposal.clear();
    ws.proposal.resize(nv, u32::MAX);

    // Round 1 proposals: every vertex picks its best neighbor (all are
    // unmatched). Ties on (weight, complementarity) go to the neighbor with
    // the smallest seeded rank, which is also what makes the handshake
    // likely to close.
    let (mate, rank) = (&ws.mate, &ws.rank);
    par::parts(&mut ws.proposal[..], |at, proposals| {
        for (v, p) in (at..).zip(proposals) {
            *p = best_candidate(g, v as u32, mate, rank);
        }
    });
    ws.unmatched.clear();
    ws.unmatched.extend(0..nv as u32);

    let mut stats = MatchRounds { rounds: 0, reproposed: 0 };
    while stats.rounds < max_rounds.max(1) {
        if stats.rounds > 0 {
            // Re-propose against the new `mate`. Keys are static and a
            // candidate set only shrinks, so a proposal that is still
            // unmatched is still the best: only the vertices whose proposal
            // was matched away look again (a round-by-round recomputation
            // of every proposal gives the same table).
            for &v in &ws.unmatched {
                let p = ws.proposal[v as usize];
                if p != u32::MAX && ws.mate[p as usize] != u32::MAX {
                    ws.proposal[v as usize] = best_candidate(g, v, &ws.mate, &ws.rank);
                    stats.reproposed += 1;
                }
            }
        }
        stats.rounds += 1;

        // Resolve: accept exactly the mutual proposals. Every proposal of
        // an unmatched vertex names an unmatched one, and each vertex
        // writes only its own `mate` slot.
        let mut newly = 0;
        for &v in &ws.unmatched {
            let u = ws.proposal[v as usize];
            if u != u32::MAX && ws.proposal[u as usize] == v {
                ws.mate[v as usize] = u;
                newly += 1;
            }
        }
        if newly == 0 {
            break; // match rate stalled — the rest become singletons
        }
        let mate = &ws.mate;
        ws.unmatched.retain(|&v| mate[v as usize] == u32::MAX);
    }

    // Unmatched remainder -> singletons.
    for &v in &ws.unmatched {
        ws.mate[v as usize] = v;
    }
    (assign_coarse_ids(&ws.mate), stats)
}

/// The best unmatched neighbor of `v` by (edge weight, complementarity,
/// seeded rank), or `u32::MAX` if all neighbors are matched.
#[inline]
fn best_candidate(g: &Graph, v: u32, mate: &[u32], rank: &[u32]) -> u32 {
    let mut best: Option<(i64, i64, u32, u32)> = None;
    for (u, w) in g.neighbors(v) {
        if mate[u as usize] != u32::MAX {
            continue;
        }
        let dot: i64 = g.vwgt(v).iter().zip(g.vwgt(u)).map(|(a, b)| a * b).sum();
        // Maximize (w, -dot), then minimize rank — u32::MAX - rank turns
        // that into a single maximized key.
        let key = (w, -dot, u32::MAX - rank[u as usize], u);
        if best.is_none_or(|b| key > b) {
            best = Some(key);
        }
    }
    best.map_or(u32::MAX, |(_, _, _, u)| u)
}

/// Assigns dense coarse ids to a complete `mate` array (every entry
/// resolved), pairing each matched couple under one id.
fn assign_coarse_ids(mate: &[u32]) -> (Vec<u32>, usize) {
    let nv = mate.len();
    let mut map = vec![u32::MAX; nv];
    let mut cnv = 0usize;
    for v in 0..nv {
        if map[v] != u32::MAX {
            continue;
        }
        map[v] = cnv as u32;
        let m = mate[v] as usize;
        if m != v {
            map[m] = cnv as u32;
        }
        cnv += 1;
    }
    (map, cnv)
}

/// Coarsens `g` until it has at most `coarsen_to` vertices or shrinkage
/// stalls (a level removing < 5% of vertices stops the process).
///
/// Convenience wrapper over [`coarsen_with`] with default parallelism
/// knobs and a throwaway workspace.
pub fn coarsen(g: &Graph, coarsen_to: usize, seed: u64) -> Hierarchy {
    coarsen_with(g, &CoarsenParams::new(coarsen_to, seed), &mut CoarsenWorkspace::new())
}

/// [`coarsen`] with explicit parallelism knobs and workspace reuse.
///
/// Levels at or above `params.parallel_threshold` vertices run the
/// parallel matcher and parallel contraction; the rest run sequentially.
/// Both paths are deterministic per seed, so the hierarchy is a pure
/// function of `(g, params)` regardless of the thread count. Each coarse
/// graph is moved into the hierarchy exactly once and all scratch lives in
/// `ws`, so the steady-state level loop allocates only its outputs.
pub fn coarsen_with(g: &Graph, params: &CoarsenParams, ws: &mut CoarsenWorkspace) -> Hierarchy {
    coarsen_recorded(g, params, ws, &Recorder::disabled())
}

/// [`coarsen_with`] with telemetry: each level emits a `coarsen.level`
/// span (vertex/edge counts, chosen matcher) wrapping `coarsen.match` and
/// `coarsen.contract` child spans. The recorder does not influence the
/// result — the hierarchy stays a pure function of `(g, params)`.
pub fn coarsen_recorded(
    g: &Graph,
    params: &CoarsenParams,
    ws: &mut CoarsenWorkspace,
    rec: &Recorder,
) -> Hierarchy {
    let mut levels: Vec<Level> = Vec::new();
    let mut level_seed = params.seed;
    loop {
        let current = levels.last().map_or(g, |l| &l.graph);
        if current.nv() <= params.coarsen_to {
            break;
        }
        let parallel = current.nv() >= params.parallel_threshold;
        let mut level_span = rec
            .span("coarsen.level")
            .attr("level", levels.len())
            .attr("nv", current.nv())
            .attr("ne", current.ne())
            .attr("parallel", parallel);
        let (map, cnv) = {
            let mut match_span =
                rec.span("coarsen.match").attr("nv", current.nv()).attr("ne", current.ne());
            if parallel {
                let (matching, stats) = parallel_hem(current, level_seed, MATCHING_ROUNDS, ws);
                match_span.set_attr("rounds", stats.rounds);
                match_span.set_attr("reproposed", stats.reproposed);
                matching
            } else {
                sequential_hem(current, level_seed, ws)
            }
        };
        level_span.set_attr("coarse_nv", cnv);
        if cnv as f64 > current.nv() as f64 * 0.95 {
            break; // matching stalled (e.g. star graphs)
        }
        let coarse = {
            let _contract_span =
                rec.span("coarsen.contract").attr("nv", current.nv()).attr("coarse_nv", cnv);
            contract_with(current, &map, cnv, parallel, &mut ws.contract)
        };
        levels.push(Level { graph: coarse, map });
        level_seed = level_seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    }
    Hierarchy { levels }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cip_graph::GraphBuilder;

    fn grid(nx: usize, ny: usize) -> Graph {
        let mut b = GraphBuilder::new(nx * ny, 2);
        let id = |i: usize, j: usize| (j * nx + i) as u32;
        for j in 0..ny {
            for i in 0..nx {
                // Border nodes get a contact weight, like a mesh surface.
                let border = i == 0 || j == 0 || i == nx - 1 || j == ny - 1;
                b.set_vwgt(id(i, j), &[1, i64::from(border)]);
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

    fn check_valid_matching(g: &Graph, map: &[u32], cnv: usize) {
        // Each coarse id has 1 or 2 members.
        let mut counts = vec![0; cnv];
        for &c in map {
            counts[c as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == 1 || c == 2));
        // Matched pairs must be adjacent.
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); cnv];
        for (v, &c) in map.iter().enumerate() {
            members[c as usize].push(v as u32);
        }
        for m in members.iter().filter(|m| m.len() == 2) {
            assert!(g.adj(m[0]).contains(&m[1]), "matched vertices {m:?} are not adjacent");
        }
    }

    #[test]
    fn matching_is_a_valid_pairing() {
        let g = grid(10, 10);
        let (map, cnv) = heavy_edge_matching(&g, 7);
        assert!(cnv >= g.nv() / 2);
        assert!(cnv < g.nv());
        check_valid_matching(&g, &map, cnv);
    }

    #[test]
    fn parallel_matching_is_a_valid_pairing() {
        let g = grid(10, 10);
        let (map, cnv) = parallel_heavy_edge_matching(&g, 7, MATCHING_ROUNDS);
        assert!(cnv >= g.nv() / 2);
        assert!(cnv < g.nv(), "parallel matcher matched nothing");
        check_valid_matching(&g, &map, cnv);
    }

    #[test]
    fn parallel_matching_is_deterministic_and_effective() {
        let g = grid(24, 24);
        let (m1, c1) = parallel_heavy_edge_matching(&g, 3, MATCHING_ROUNDS);
        let (m2, c2) = parallel_heavy_edge_matching(&g, 3, MATCHING_ROUNDS);
        assert_eq!(m1, m2);
        assert_eq!(c1, c2);
        // The handshake loop should pair the vast majority of a grid.
        assert!((c1 as f64) < 0.62 * g.nv() as f64, "only {} coarse vertices from {}", c1, g.nv());
    }

    #[test]
    fn coarsening_preserves_total_weight() {
        let g = grid(16, 16);
        let h = coarsen(&g, 20, 3);
        assert!(!h.levels.is_empty());
        let coarsest = h.coarsest().unwrap();
        assert_eq!(coarsest.total_vwgt(), g.total_vwgt());
        assert!(coarsest.nv() <= g.nv() / 2);
    }

    #[test]
    fn coarsening_terminates_on_small_graph() {
        let g = grid(3, 3);
        let h = coarsen(&g, 100, 1);
        assert!(h.levels.is_empty());
        assert!(h.coarsest().is_none());
    }

    #[test]
    fn coarsening_is_deterministic_per_seed() {
        let g = grid(12, 12);
        let h1 = coarsen(&g, 30, 9);
        let h2 = coarsen(&g, 30, 9);
        assert_eq!(h1.levels.len(), h2.levels.len());
        for (a, b) in h1.levels.iter().zip(h2.levels.iter()) {
            assert_eq!(a.map, b.map);
        }
    }

    #[test]
    fn parallel_and_sequential_params_both_terminate_and_preserve_weight() {
        let g = grid(20, 20);
        let mut ws = CoarsenWorkspace::new();
        for threshold in [0usize, usize::MAX] {
            let params =
                CoarsenParams { parallel_threshold: threshold, ..CoarsenParams::new(25, 11) };
            let h = coarsen_with(&g, &params, &mut ws);
            assert!(!h.is_empty());
            assert_eq!(h.coarsest().unwrap().total_vwgt(), g.total_vwgt());
            // Projection chain must stay consistent level to level.
            for lvl in 0..h.len() {
                let fine = h.fine_graph(lvl, &g);
                assert_eq!(h.levels[lvl].map.len(), fine.nv());
            }
        }
    }

    #[test]
    fn workspace_reuse_matches_fresh_workspace() {
        let g = grid(18, 18);
        let params = CoarsenParams { parallel_threshold: 0, ..CoarsenParams::new(30, 5) };
        let mut ws = CoarsenWorkspace::new();
        // Dirty the workspace with a different run first.
        let _ = coarsen_with(&g, &CoarsenParams::new(40, 77), &mut ws);
        let reused = coarsen_with(&g, &params, &mut ws);
        let fresh = coarsen_with(&g, &params, &mut CoarsenWorkspace::new());
        assert_eq!(reused.len(), fresh.len());
        for (a, b) in reused.levels.iter().zip(fresh.levels.iter()) {
            assert_eq!(a.map, b.map);
            assert_eq!(a.graph.xadj(), b.graph.xadj());
            assert_eq!(a.graph.adjncy(), b.graph.adjncy());
            assert_eq!(a.graph.adjwgt(), b.graph.adjwgt());
            assert_eq!(a.graph.vwgt_raw(), b.graph.vwgt_raw());
        }
    }

    #[test]
    fn edgeless_graph_stalls_gracefully() {
        let g = Graph::edgeless(50, 1);
        let h = coarsen(&g, 10, 5);
        // No edges -> no matches -> stall detection stops immediately.
        assert!(h.levels.is_empty());
    }

    #[test]
    fn parallel_match_spans_carry_rounds_and_reproposals() {
        let g = grid(24, 24);
        let rec = Recorder::enabled();
        let params = CoarsenParams { parallel_threshold: 0, ..CoarsenParams::new(30, 5) };
        coarsen_recorded(&g, &params, &mut CoarsenWorkspace::new(), &rec);
        let trace = rec.chrome_trace().expect("enabled");
        assert!(trace.contains("\"rounds\":") && trace.contains("\"reproposed\":"), "{trace}");
        let (_, stats) = parallel_hem(&g, 5, MATCHING_ROUNDS, &mut CoarsenWorkspace::new());
        assert!(stats.rounds > 1 && stats.reproposed > 0, "{stats:?}");
        assert!(stats.reproposed < (stats.rounds - 1) * g.nv());
    }

    #[test]
    fn edgeless_graph_stalls_gracefully_in_parallel() {
        let g = Graph::edgeless(50, 1);
        let params = CoarsenParams { parallel_threshold: 0, ..CoarsenParams::new(10, 5) };
        let h = coarsen_with(&g, &params, &mut CoarsenWorkspace::new());
        assert!(h.levels.is_empty());
    }
}
