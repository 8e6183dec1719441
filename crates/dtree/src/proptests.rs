//! Property tests for tree induction: seeded sweeps over random labelled
//! point clouds (compiled only with `cfg(test)`).

#![cfg(test)]

use crate::{induce, DtreeConfig, Splitter, StopRule};
use cip_base::rng::{sweep, Rng};
use cip_geom::{Aabb, Point};

/// `1..max_pts` integer-lattice points in `[-50, 50)³`, labelled `0..k`.
fn points_labels_3d(rng: &mut Rng, max_pts: i64, k: u32) -> (Vec<Point<3>>, Vec<u32>) {
    let n = rng.range_i64(1..max_pts);
    let pts = (0..n).map(|_| Point::new([0; 3].map(|_| rng.range_i64(-50..50) as f64))).collect();
    let labels = (0..n).map(|_| rng.range_u32(k)).collect();
    (pts, labels)
}

/// The tight query is a subset of the region query, and both contain
/// every label owning a point in the query box.
#[test]
fn tight_query_is_sound_and_tighter() {
    sweep(48, |rng| {
        let (pts, labels) = points_labels_3d(rng, 60, 4);
        let corner = [0; 3].map(|_| rng.range_i64(-50..50) as f64);
        let w = rng.range_i64(1..40) as f64;
        let t = induce(&pts, &labels, 4, &DtreeConfig::search_tree());
        let q = Aabb::new(Point::new(corner), Point::new(corner.map(|c| c + w)));
        let mut region = Vec::new();
        let mut tight = Vec::new();
        t.query_box(&q, &mut region);
        t.query_box_tight(&q, &mut tight);
        // Tight ⊆ region.
        for p in &tight {
            assert!(region.contains(p));
        }
        // Both contain every true owner.
        for (p, &l) in pts.iter().zip(labels.iter()) {
            if q.contains_point(p) {
                assert!(tight.contains(&l), "tight query missed owner {l}");
                assert!(region.contains(&l));
            }
        }
    });
}

/// The margin-aware tie-break never breaks correctness: every point
/// still locates to its own label when uniquely positioned.
#[test]
fn margin_tiebreak_preserves_purity() {
    sweep(48, |rng| {
        let (pts, labels) = points_labels_3d(rng, 50, 3);
        let cfg = DtreeConfig {
            splitter: Splitter::MarginAware { alpha: 0.5 },
            ..DtreeConfig::search_tree()
        };
        let t = induce(&pts, &labels, 3, &cfg);
        for (i, p) in pts.iter().enumerate() {
            let clash = pts.iter().zip(labels.iter()).any(|(q, &l)| q == p && l != labels[i]);
            if !clash {
                assert_eq!(t.locate(p), labels[i]);
            }
        }
    });
}

/// The max_i rule never produces an impure leaf at or above max_i
/// points unless the points are geometrically inseparable.
#[test]
fn max_i_bounds_impure_leaf_sizes() {
    sweep(48, |rng| {
        let (pts, labels) = points_labels_3d(rng, 80, 3);
        let max_i = rng.range_i64(2..12) as usize;
        let cfg = DtreeConfig {
            stop: StopRule::MaxPMaxI { max_p: usize::MAX, max_i },
            ..DtreeConfig::default()
        };
        let t = induce(&pts, &labels, 3, &cfg);
        let bounds = Aabb::from_points(&pts);
        for leaf in t.leaf_regions(&bounds) {
            if !leaf.pure && leaf.count as usize >= max_i {
                // Only allowed when every point in the leaf shares one
                // position (nothing separates them).
                let inside: Vec<&Point<3>> =
                    pts.iter().filter(|p| leaf.region.contains_point(p)).collect();
                let first = inside[0];
                assert!(
                    inside.iter().all(|p| *p == first),
                    "oversized impure leaf with separable points"
                );
            }
        }
    });
}
