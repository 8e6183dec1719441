//! Cross-crate property tests: the invariants the whole system rests on,
//! swept over seeded random inputs.

mod common;

use cip::base::rng::{sweep, Rng};
use cip::dtree::{induce, DtreeConfig, StopRule};
use cip::geom::{Aabb, Point, RcbTree};
use cip::graph::{contract, edge_cut, GraphBuilder, Partition};
use cip::partition::{
    balance_kway, max_weight_assignment, partition_kway, refine_kway, PartitionerConfig,
};

/// `1..max_pts` integer-lattice points in `[-100, 100)²`, labelled `0..k`.
fn points_and_labels(rng: &mut Rng, max_pts: i64, k: u32) -> (Vec<Point<2>>, Vec<u32>) {
    let n = rng.range_i64(1..max_pts);
    let pts = (0..n).map(|_| Point::new([0; 2].map(|_| rng.range_i64(-100..100) as f64))).collect();
    let labels = (0..n).map(|_| rng.range_u32(k)).collect();
    (pts, labels)
}

/// Every point is located in a leaf; with the purity rule, a point at a
/// unique position must be located in a leaf of its own label.
#[test]
fn dtree_locates_unique_points_in_their_own_partition() {
    sweep(64, |rng| {
        let (pts, labels) = points_and_labels(rng, 60, 4);
        let tree = induce(&pts, &labels, 4, &DtreeConfig::search_tree());
        for (i, p) in pts.iter().enumerate() {
            // Skip positions shared by points of different labels —
            // no axis-parallel tree can separate identical coordinates.
            let clash = pts.iter().zip(labels.iter()).any(|(q, &l)| q == p && l != labels[i]);
            if !clash {
                assert_eq!(tree.locate(p), labels[i]);
            }
        }
    });
}

/// Box queries are a superset filter: every label owning a point inside
/// the query box is reported.
#[test]
fn dtree_box_query_never_misses() {
    sweep(64, |rng| {
        let (pts, labels) = points_and_labels(rng, 60, 4);
        let corner = [0; 2].map(|_| rng.range_i64(-100..100) as f64);
        let size = [0; 2].map(|_| rng.range_i64(1..80) as f64);
        let tree = induce(&pts, &labels, 4, &DtreeConfig::search_tree());
        let q =
            Aabb::new(Point::new(corner), Point::new([corner[0] + size[0], corner[1] + size[1]]));
        let mut out = Vec::new();
        tree.query_box(&q, &mut out);
        for (p, &l) in pts.iter().zip(labels.iter()) {
            if q.contains_point(p) {
                assert!(out.contains(&l));
            }
        }
    });
}

/// The max_p/max_i tree respects its leaf-size contract.
#[test]
fn dtree_maxp_bounds_pure_leaf_sizes() {
    sweep(64, |rng| {
        let (pts, labels) = points_and_labels(rng, 80, 3);
        let max_p = rng.range_i64(2..20) as usize;
        let cfg =
            DtreeConfig { stop: StopRule::MaxPMaxI { max_p, max_i: 1 }, ..DtreeConfig::default() };
        let tree = induce(&pts, &labels, 3, &cfg);
        let bounds = Aabb::from_points(&pts);
        for leaf in tree.leaf_regions(&bounds) {
            if leaf.pure && leaf.count as usize > max_p {
                // Oversized pure leaves are only allowed when the points are
                // geometrically inseparable (identical coordinates).
                let inside: Vec<&Point<2>> =
                    pts.iter().filter(|p| leaf.region.contains_point(p)).collect();
                let first = inside[0];
                assert!(
                    inside.iter().all(|p| *p == first),
                    "oversized pure leaf with separable points"
                );
            }
        }
    });
}

/// RCB produces a disjoint exact cover with every part non-empty (when
/// there are at least k distinct points).
#[test]
fn rcb_covers_and_balances() {
    sweep(64, |rng| {
        let points: Vec<Point<2>> = (0..rng.range_i64(20..200))
            .map(|_| Point::new([0; 2].map(|_| rng.range_i64(-1000..1000) as f64)))
            .collect();
        let k = rng.range_i64(2..8) as usize;
        let weights = vec![1.0; points.len()];
        let (tree, asg) = RcbTree::build(&points, &weights, k);
        // Assignment and locate agree.
        for (i, p) in points.iter().enumerate() {
            assert_eq!(tree.locate(p), asg[i]);
        }
        // All parts in range.
        assert!(asg.iter().all(|&p| (p as usize) < k));
        // Regions tile the bounding box.
        let bounds = Aabb::from_points(&points);
        let regions = tree.regions(&bounds);
        let vol: f64 = regions.iter().map(|(_, b)| b.volume().max(0.0)).sum();
        assert!((vol - bounds.volume()).abs() < 1e-6 * bounds.volume().max(1.0));
    });
}

/// Contraction preserves total vertex weight and the cut of any
/// projected partition.
#[test]
fn contraction_preserves_weight_and_cut() {
    sweep(64, |rng| {
        let mut b = GraphBuilder::new(12, 1);
        for v in 0..12u32 {
            b.set_vwgt(v, &[1 + (v as i64 % 3)]);
        }
        for _ in 0..rng.range_i64(1..40) {
            let (u, v, w) = (rng.range_u32(12), rng.range_u32(12), rng.range_i64(1..5));
            if u != v {
                b.add_edge(u, v, w);
            }
        }
        let g = b.build();
        // Densify group ids.
        let mut dense: Vec<u32> = (0..12).map(|_| rng.range_u32(5)).collect();
        let mut ids: Vec<u32> = dense.clone();
        ids.sort_unstable();
        ids.dedup();
        for d in dense.iter_mut() {
            *d = ids.iter().position(|&x| x == *d).unwrap() as u32;
        }
        let cnv = ids.len();
        let cg = contract(&g, &dense, cnv);
        assert_eq!(cg.total_vwgt(), g.total_vwgt());
        // Any coarse 2-coloring projects with equal cut.
        let coarse_asg: Vec<u32> = (0..cnv as u32).map(|c| c % 2).collect();
        let fine_asg: Vec<u32> = dense.iter().map(|&c| coarse_asg[c as usize]).collect();
        assert_eq!(edge_cut(&cg, &coarse_asg), edge_cut(&g, &fine_asg));
    });
}

/// k-way refinement never increases the edge-cut.
#[test]
fn refinement_never_increases_cut() {
    sweep(64, |rng| {
        let g = common::grid(10, 10, 1);
        let k = rng.range_i64(2..5) as usize;
        let mut asg: Vec<u32> = (0..g.nv()).map(|_| rng.range_u32(k as u32)).collect();
        let before = edge_cut(&g, &asg);
        let cfg = PartitionerConfig::with_seed(rng.next_u64() % 1000);
        refine_kway(&g, k, &mut asg, &cfg);
        assert!(edge_cut(&g, &asg) <= before);
        assert!(asg.iter().all(|&p| (p as usize) < k));
    });
}

/// Balancing brings every constraint within tolerance on graphs where
/// that is achievable (unit weights, k | n).
#[test]
fn balancing_restores_feasibility() {
    sweep(64, |rng| {
        let (n, k) = (12usize, 4usize);
        let g = common::grid(n, n, 1);
        // Pathological start: everything in part 0.
        let mut asg = vec![0u32; n * n];
        // Give other parts a seed vertex so they are adjacent-reachable.
        asg[..3].copy_from_slice(&[1, 2, 3]);
        let cfg = PartitionerConfig::with_seed(rng.next_u64() % 500);
        balance_kway(&g, k, &mut asg, &cfg);
        let p = Partition::from_assignment(&g, k, asg);
        assert!(p.imbalance(0) <= 1.06, "imbalance {}", p.imbalance(0));
    });
}

/// Hungarian assignment returns a permutation and dominates the
/// identity and reversal assignments.
#[test]
fn hungarian_dominates_trivial_assignments() {
    sweep(64, |rng| {
        let n = 5;
        let w: Vec<i64> = (0..n * n).map(|_| rng.range_i64(0..100)).collect();
        let a = max_weight_assignment(n, &w);
        let mut seen = vec![false; n];
        for &c in &a {
            assert!(!seen[c]);
            seen[c] = true;
        }
        let weight =
            |asg: &[usize]| -> i64 { asg.iter().enumerate().map(|(r, &c)| w[r * n + c]).sum() };
        let identity: Vec<usize> = (0..n).collect();
        let reverse: Vec<usize> = (0..n).rev().collect();
        assert!(weight(&a) >= weight(&identity));
        assert!(weight(&a) >= weight(&reverse));
    });
}

/// The full multilevel partitioner produces valid, reasonably balanced
/// partitions on random-sized grids.
#[test]
fn partitioner_output_is_valid() {
    sweep(64, |rng| {
        let [nx, ny] = [0; 2].map(|_| rng.range_i64(6..14) as usize);
        let k = rng.range_i64(2..6) as usize;
        let g = common::grid(nx, ny, 1);
        let asg = partition_kway(&g, k, &PartitionerConfig::default());
        assert_eq!(asg.len(), g.nv());
        assert!(asg.iter().all(|&p| (p as usize) < k));
        let p = Partition::from_assignment(&g, k, asg);
        for part in 0..k as u32 {
            assert!(p.part_size(part) > 0, "part {part} empty");
        }
        assert!(p.imbalance(0) <= 1.35, "imbalance {}", p.imbalance(0));
    });
}
