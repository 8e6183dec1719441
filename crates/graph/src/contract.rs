//! Vertex-group contraction.
//!
//! Contraction serves two roles in the system:
//!
//! * the coarsening phase of the multilevel partitioner collapses matched
//!   vertex pairs,
//! * the DT-friendly correction step of the paper (§4.2) collapses all the
//!   vertices of each decision-tree leaf into a single vertex of the
//!   region graph `G'`, so that k-way refinement moves whole axis-parallel
//!   regions between parts.
//!
//! The partitioner's coarsening loop calls [`contract_with`] once per level,
//! threading a [`ContractWorkspace`] through so the scratch arrays (group
//! counts, member lists, the stamp/slot table) are allocated once and
//! reused at every level. Above the caller's parallel threshold, where
//! `cip_base::par` will really split the level, the assembly runs as a
//! two-pass (count, then fill) CSR construction over runs of coarse
//! vertices; both paths emit
//! **bit-identical** graphs, so the choice is purely a performance knob and
//! never affects partitioning results.

use crate::csr::Graph;
use cip_base::par;

/// Per-worker scatter-accumulate scratch: `stamp[c]` records the coarse
/// vertex currently owning slot `slot[c]` so the arrays never need clearing
/// between coarse vertices (only between passes).
#[derive(Debug, Default)]
struct Scratch {
    stamp: Vec<u32>,
    slot: Vec<usize>,
}

impl Scratch {
    fn reset(&mut self, cnv: usize) {
        self.stamp.clear();
        self.stamp.resize(cnv, u32::MAX);
        self.slot.clear();
        self.slot.resize(cnv, 0);
    }
}

/// Reusable scratch buffers for [`contract_with`].
///
/// Holding one of these across a coarsening hierarchy makes the steady-state
/// level loop allocation-free (only the output graph's own CSR arrays are
/// freshly allocated, since the caller keeps them).
#[derive(Debug, Default)]
pub struct ContractWorkspace {
    /// Prefix sums of group sizes: group `c` occupies
    /// `members[counts[c]..counts[c + 1]]`.
    counts: Vec<usize>,
    /// Fine vertices sorted (stably) by coarse id.
    members: Vec<u32>,
    /// Counting-sort write cursors.
    cursor: Vec<usize>,
    /// Coarse adjacency sizes for the two-pass parallel assembly.
    degs: Vec<usize>,
    /// The sequential assembly's stamp/slot table.
    scratch: Scratch,
}

impl ContractWorkspace {
    /// A workspace with empty buffers (they grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Counting-sorts fine vertices by coarse id into `counts`/`members`.
    fn group(&mut self, map: &[u32], cnv: usize) {
        self.counts.clear();
        self.counts.resize(cnv + 1, 0);
        for &c in map {
            let c = c as usize;
            assert!(c < cnv, "coarse id {c} out of range");
            self.counts[c + 1] += 1;
        }
        for c in 0..cnv {
            self.counts[c + 1] += self.counts[c];
        }
        self.members.clear();
        self.members.resize(map.len(), 0);
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.counts[..cnv]);
        for (v, &c) in map.iter().enumerate() {
            let cur = &mut self.cursor[c as usize];
            self.members[*cur] = v as u32;
            *cur += 1;
        }
    }
}

/// Contracts `g` according to `map`, where `map[v]` is the coarse vertex id
/// of fine vertex `v` and coarse ids densely cover `0..cnv`.
///
/// Vertex-weight vectors of merged vertices are summed per constraint;
/// parallel edges between the same coarse pair are merged by summing their
/// weights; edges internal to a group disappear.
///
/// Convenience wrapper over [`contract_with`] with a throwaway workspace and
/// the sequential assembly path.
///
/// # Panics
/// Panics if `map.len() != g.nv()` or any entry is `>= cnv`.
pub fn contract(g: &Graph, map: &[u32], cnv: usize) -> Graph {
    contract_with(g, map, cnv, false, &mut ContractWorkspace::new())
}

/// [`contract`], with explicit control of parallelism and scratch reuse.
///
/// When `parallel` is true and `cip_base::par` would really cut the `cnv`
/// coarse vertices into several parts (`par::ways`), the per-coarse-vertex
/// adjacency assembly runs on it (two-pass CSR: count degrees, prefix-sum,
/// then fill disjoint output segments); otherwise the single pass runs,
/// which is cheaper on one thread. The output is bit-identical either way
/// and for any thread count: every coarse vertex's adjacency depends only
/// on the (deterministic) member order and CSR neighbor order, never on
/// scheduling.
pub fn contract_with(
    g: &Graph,
    map: &[u32],
    cnv: usize,
    parallel: bool,
    ws: &mut ContractWorkspace,
) -> Graph {
    assert_eq!(map.len(), g.nv(), "one coarse id per fine vertex");
    let ncon = g.ncon();
    ws.group(map, cnv);

    let ContractWorkspace { counts, members, degs, scratch, .. } = ws;
    let counts: &[usize] = counts;
    let members: &[u32] = members;

    // Coarse vertex weights: each coarse row sums its members' fine rows.
    let mut cvwgt = vec![0i64; cnv * ncon];
    for (c, row) in cvwgt.chunks_exact_mut(ncon).enumerate() {
        for &v in &members[counts[c]..counts[c + 1]] {
            for (acc, w) in row.iter_mut().zip(g.vwgt(v)) {
                *acc += w;
            }
        }
    }

    if !parallel || par::ways(cnv) < 2 {
        // Single-pass sequential assembly: scatter-accumulate each coarse
        // vertex's neighbor weights, growing the output arrays in place.
        scratch.reset(cnv);
        let mut cxadj = Vec::with_capacity(cnv + 1);
        let mut sink = GrowSink {
            adjncy: Vec::with_capacity(g.adjncy().len()),
            adjwgt: Vec::with_capacity(g.adjncy().len()),
        };
        cxadj.push(0usize);
        for c in 0..cnv {
            assemble(g, map, &members[counts[c]..counts[c + 1]], c, scratch, &mut sink);
            cxadj.push(sink.adjncy.len());
        }
        return Graph::from_csr_unchecked(ncon, cxadj, sink.adjncy, sink.adjwgt, cvwgt);
    }

    // Two-pass parallel assembly over runs of coarse vertices, each run
    // with a stamp table of its own.
    // Pass A: per-coarse-vertex degrees.
    degs.clear();
    degs.resize(cnv, 0);
    par::parts(&mut degs[..], |first, degs| {
        let mut sc = Scratch::default();
        sc.reset(cnv);
        for (c, d) in (first..).zip(degs) {
            let mut deg = 0usize;
            for &v in &members[counts[c]..counts[c + 1]] {
                for &u in g.adj(v) {
                    let cu = map[u as usize] as usize;
                    if cu != c && sc.stamp[cu] != c as u32 {
                        sc.stamp[cu] = c as u32;
                        deg += 1;
                    }
                }
            }
            *d = deg;
        }
    });

    // Prefix-sum into offsets.
    let mut cxadj = Vec::with_capacity(cnv + 1);
    cxadj.push(0usize);
    let mut total = 0usize;
    for &d in degs.iter() {
        total += d;
        cxadj.push(total);
    }

    // Pass B: every run fills its own disjoint segment of the output.
    let mut cadjncy = vec![0u32; total];
    let mut cadjwgt = vec![0i64; total];
    let out = Segments { cxadj: &cxadj, adjncy: &mut cadjncy, adjwgt: &mut cadjwgt };
    par::parts(out, |first, seg| {
        let mut sc = Scratch::default();
        sc.reset(cnv);
        let base = seg.cxadj[0];
        for (c, offsets) in (first..).zip(seg.cxadj.windows(2)) {
            let mut sink =
                SliceSink { adjncy: seg.adjncy, adjwgt: seg.adjwgt, len: offsets[0] - base };
            assemble(g, map, &members[counts[c]..counts[c + 1]], c, &mut sc, &mut sink);
            debug_assert_eq!(sink.len, offsets[1] - base);
        }
    });

    Graph::from_csr_unchecked(ncon, cxadj, cadjncy, cadjwgt, cvwgt)
}

/// A run of coarse vertices and the output segment their adjacencies
/// fill: `cxadj` holds the run's offsets and its end, `adjncy`/`adjwgt`
/// the entries `cxadj[0]..cxadj[len]`.
struct Segments<'a> {
    cxadj: &'a [usize],
    adjncy: &'a mut [u32],
    adjwgt: &'a mut [i64],
}

impl par::Split for Segments<'_> {
    fn items(&self) -> usize {
        self.cxadj.len() - 1
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        let cut = self.cxadj[mid] - self.cxadj[0];
        let (adjncy, adjncy_rest) = self.adjncy.split_at_mut(cut);
        let (adjwgt, adjwgt_rest) = self.adjwgt.split_at_mut(cut);
        (
            Segments { cxadj: &self.cxadj[..=mid], adjncy, adjwgt },
            Segments { cxadj: &self.cxadj[mid..], adjncy: adjncy_rest, adjwgt: adjwgt_rest },
        )
    }
}

/// Where [`assemble`] writes one coarse vertex's merged adjacency.
trait AdjSink {
    /// Records a first-seen coarse neighbor and returns its slot.
    fn push(&mut self, cu: usize, w: i64) -> usize;
    /// Folds a repeated coarse neighbor's weight into its slot.
    fn bump(&mut self, slot: usize, w: i64);
}

/// Growable sink for the sequential single-pass assembly.
struct GrowSink {
    adjncy: Vec<u32>,
    adjwgt: Vec<i64>,
}

impl AdjSink for GrowSink {
    fn push(&mut self, cu: usize, w: i64) -> usize {
        self.adjncy.push(cu as u32);
        self.adjwgt.push(w);
        self.adjncy.len() - 1
    }
    fn bump(&mut self, slot: usize, w: i64) {
        self.adjwgt[slot] += w;
    }
}

/// Fixed-size sink writing into a chunk's pre-sized output segment.
struct SliceSink<'a> {
    adjncy: &'a mut [u32],
    adjwgt: &'a mut [i64],
    len: usize,
}

impl AdjSink for SliceSink<'_> {
    fn push(&mut self, cu: usize, w: i64) -> usize {
        self.adjncy[self.len] = cu as u32;
        self.adjwgt[self.len] = w;
        self.len += 1;
        self.len - 1
    }
    fn bump(&mut self, slot: usize, w: i64) {
        self.adjwgt[slot] += w;
    }
}

/// Shared scatter-accumulate kernel for one coarse vertex `c`: walks the
/// members' fine adjacencies, merging parallel edges into `sink` and
/// dropping internal ones.
#[inline]
fn assemble(
    g: &Graph,
    map: &[u32],
    members: &[u32],
    c: usize,
    sc: &mut Scratch,
    sink: &mut impl AdjSink,
) {
    for &v in members {
        for (u, w) in g.neighbors(v) {
            let cu = map[u as usize] as usize;
            if cu == c {
                continue; // internal edge vanishes
            }
            if sc.stamp[cu] == c as u32 {
                sink.bump(sc.slot[cu], w);
            } else {
                sc.stamp[cu] = c as u32;
                sc.slot[cu] = sink.push(cu, w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    /// Square 0-1-2-3-0 with a diagonal 0-2.
    fn square_with_diag() -> Graph {
        let mut b = GraphBuilder::new(4, 2);
        for v in 0..4u32 {
            b.set_vwgt(v, &[1, v as i64]);
        }
        for (u, v, w) in [(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 0, 4), (0, 2, 5)] {
            b.add_edge(u, v, w);
        }
        b.build()
    }

    #[test]
    fn contract_pairs() {
        let g = square_with_diag();
        // Merge {0,1} -> 0 and {2,3} -> 1.
        let cg = contract(&g, &[0, 0, 1, 1], 2);
        assert_eq!(cg.nv(), 2);
        assert_eq!(cg.ne(), 1);
        // Cross edges: 1-2 (2), 3-0 (4), 0-2 (5) -> merged weight 11.
        assert_eq!(cg.neighbors(0).next(), Some((1, 11)));
        // Vertex weights summed per constraint.
        assert_eq!(cg.vwgt(0), &[2, 1]);
        assert_eq!(cg.vwgt(1), &[2, 5]);
    }

    #[test]
    fn identity_contraction_is_isomorphic() {
        let g = square_with_diag();
        let map: Vec<u32> = (0..4).collect();
        let cg = contract(&g, &map, 4);
        assert_eq!(cg.nv(), g.nv());
        assert_eq!(cg.ne(), g.ne());
        for v in 0..4u32 {
            assert_eq!(cg.vwgt(v), g.vwgt(v));
            let mut a: Vec<_> = cg.neighbors(v).collect();
            let mut b: Vec<_> = g.neighbors(v).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn contract_to_single_vertex() {
        let g = square_with_diag();
        let cg = contract(&g, &[0, 0, 0, 0], 1);
        assert_eq!(cg.nv(), 1);
        assert_eq!(cg.ne(), 0);
        assert_eq!(cg.vwgt(0), &[4, 6]);
    }

    #[test]
    fn total_vwgt_invariant_under_contraction() {
        let g = square_with_diag();
        let cg = contract(&g, &[1, 0, 1, 0], 2);
        assert_eq!(cg.total_vwgt(), g.total_vwgt());
    }

    /// Random-ish graph used to compare the two assembly paths.
    fn chorded_path(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n, 2);
        let mut state = 0xD00Fu64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for v in 0..n as u32 {
            b.set_vwgt(v, &[1, (v % 3) as i64]);
        }
        for v in 0..n as u32 - 1 {
            b.add_edge(v, v + 1, 1 + (next() % 5) as i64);
        }
        for _ in 0..2 * n {
            let u = (next() % n as u64) as u32;
            let v = (next() % n as u64) as u32;
            if u != v {
                b.add_edge(u, v, 1 + (next() % 7) as i64);
            }
        }
        b.build()
    }

    fn assert_same_graph(a: &Graph, b: &Graph) {
        assert_eq!(a.xadj(), b.xadj());
        assert_eq!(a.adjncy(), b.adjncy());
        assert_eq!(a.adjwgt(), b.adjwgt());
        assert_eq!(a.vwgt_raw(), b.vwgt_raw());
    }

    /// The two-pass assembly runs only where `par` splits the level: under
    /// `with_threads(1)` a parallel request takes the single pass, under 2
    /// and 4 the two passes over 2 and 4 runs — and all of them emit the
    /// single pass's graph.
    #[test]
    fn parallel_and_sequential_paths_are_bit_identical() {
        // cnv = 3 cuts into fewer runs than threads; 157 and 601 cut into
        // runs of uneven length, exercising segment splitting and
        // per-run scratch resets.
        for (n, cnv) in [(40usize, 3usize), (997, 157), (2500, 601)] {
            let g = chorded_path(n);
            // A blocked map with uneven group sizes exercises slot reuse.
            let map: Vec<u32> = (0..g.nv()).map(|v| (v % cnv) as u32).collect();
            let mut ws = ContractWorkspace::new();
            let seq = contract_with(&g, &map, cnv, false, &mut ws);
            for threads in [1, 2, 4] {
                let got = par::with_threads(threads, || {
                    assert_eq!(par::ways(cnv), threads.min(cnv));
                    contract_with(&g, &map, cnv, true, &mut ws)
                });
                assert_same_graph(&got, &seq);
            }
            // Unforced, a level this small never forks: the single pass.
            assert_same_graph(&contract_with(&g, &map, cnv, true, &mut ws), &seq);
        }
    }

    #[test]
    fn workspace_reuse_across_shrinking_levels() {
        // Reusing one workspace across successively smaller contractions
        // must not leak state between calls (stamps, stale counts).
        let g = chorded_path(400);
        let mut ws = ContractWorkspace::new();
        par::with_threads(2, || {
            let map1: Vec<u32> = (0..g.nv()).map(|v| (v / 2) as u32).collect();
            let c1 = contract_with(&g, &map1, g.nv().div_ceil(2), true, &mut ws);
            let map2: Vec<u32> = (0..c1.nv()).map(|v| (v / 2) as u32).collect();
            let c2 = contract_with(&c1, &map2, c1.nv().div_ceil(2), true, &mut ws);
            assert_same_graph(&c2, &contract(&c1, &map2, c1.nv().div_ceil(2)));
            assert_eq!(c2.total_vwgt(), g.total_vwgt());
        });
    }
}
