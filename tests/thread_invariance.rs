//! Thread-count invariance of the multilevel partitioner.
//!
//! The determinism contract (`DESIGN.md` "Threading model") says every
//! partitioner entry point is a pure function of `(graph, k, config)` —
//! how many threads a loop is cut across must never change a result. These
//! tests run the k-way driver and the coarsening hierarchy under
//! `par::with_threads` at 1, 2, 4 and 8 real threads (every loop cut that
//! many ways, whatever its length) and require identical output, with
//! `parallel_threshold` forced low so the parallel matcher and parallel
//! contraction actually run even on this modest grid.

mod common;

use cip::base::par::with_threads;
use cip::graph::edge_cut;
use cip::partition::{
    coarsen_with, partition_kway, refine_kway, CoarsenParams, CoarsenWorkspace, PartitionerConfig,
};

const THREADS: [usize; 4] = [1, 2, 4, 8];

#[test]
fn partition_kway_is_thread_count_invariant() {
    let g = common::grid(48, 48, 2);
    // Force the parallel coarsening path on every bisection sub-problem.
    let cfg = PartitionerConfig { parallel_threshold: 64, ..PartitionerConfig::with_seed(17) };
    for k in [4usize, 7] {
        let reference = with_threads(1, || partition_kway(&g, k, &cfg));
        for threads in THREADS {
            let asg = with_threads(threads, || partition_kway(&g, k, &cfg));
            assert_eq!(asg, reference, "k={k} differs at {threads} threads");
        }
    }
}

/// The parallel propose-then-resolve k-way refinement sweep in isolation:
/// identical assignments at any thread count, and the cut never increases.
#[test]
fn parallel_kway_refinement_is_thread_count_invariant() {
    let g = common::grid(48, 48, 2);
    // Diagonal stripes: balanced but terrible cut (every vertex boundary
    // with a strictly positive best gain), so the sweep has real work.
    for k in [2usize, 5] {
        let start: Vec<u32> = (0..g.nv()).map(|v| (((v % 48) + (v / 48)) % k) as u32).collect();
        // threshold 0 forces the propose-then-resolve path on every pass.
        let cfg = PartitionerConfig { parallel_threshold: 0, ..PartitionerConfig::with_seed(41) };
        let cut_before = edge_cut(&g, &start);
        let reference = with_threads(1, || {
            let mut asg = start.clone();
            refine_kway(&g, k, &mut asg, &cfg);
            asg
        });
        assert!(edge_cut(&g, &reference) < cut_before, "k={k}: refinement should help");
        for threads in THREADS {
            let asg = with_threads(threads, || {
                let mut asg = start.clone();
                refine_kway(&g, k, &mut asg, &cfg);
                asg
            });
            assert_eq!(asg, reference, "k={k} differs at {threads} threads");
        }
    }
}

/// The coarsening hierarchy itself — maps and coarse graphs — must be
/// bit-identical at 1 vs N threads for a fixed seed.
#[test]
fn coarsen_hierarchy_is_bit_identical_across_thread_counts() {
    let g = common::grid(48, 48, 2);
    let params = CoarsenParams { parallel_threshold: 0, ..CoarsenParams::new(40, 123) };
    let reference = with_threads(1, || coarsen_with(&g, &params, &mut CoarsenWorkspace::new()));
    assert!(!reference.is_empty(), "grid should coarsen");
    for threads in THREADS {
        let h = with_threads(threads, || coarsen_with(&g, &params, &mut CoarsenWorkspace::new()));
        assert_eq!(h.len(), reference.len(), "level count differs at {threads} threads");
        for (lvl, (a, b)) in h.levels.iter().zip(reference.levels.iter()).enumerate() {
            assert_eq!(a.map, b.map, "map differs at level {lvl}, {threads} threads");
            assert_eq!(a.graph.xadj(), b.graph.xadj(), "xadj differs at level {lvl}");
            assert_eq!(a.graph.adjncy(), b.graph.adjncy(), "adjncy differs at level {lvl}");
            assert_eq!(a.graph.adjwgt(), b.graph.adjwgt(), "adjwgt differs at level {lvl}");
            assert_eq!(a.graph.vwgt_raw(), b.graph.vwgt_raw(), "vwgt differs at level {lvl}");
        }
    }
}
