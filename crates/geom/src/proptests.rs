//! Property tests for the geometry kernel: seeded sweeps over random
//! boxes, points and planes (compiled only with `cfg(test)`).

#![cfg(test)]

use crate::{Aabb, AxisPlane, Point, RcbTree, Side};
use cip_base::rng::{sweep, Rng};

/// A point on the quarter lattice in `[-250, 250)²`.
fn point2(rng: &mut Rng) -> Point<2> {
    Point::new([0, 1].map(|_| rng.range_i64(-1000..1000) as f64 / 4.0))
}

/// A box anchored at a lattice point, up to 100 wide and high.
fn box2(rng: &mut Rng) -> Aabb<2> {
    let p = point2(rng);
    let [w, h] = [0, 1].map(|_| rng.range_i64(0..400) as f64 / 4.0);
    Aabb::new(p, Point::new([p[0] + w, p[1] + h]))
}

/// Union contains both operands; intersection is symmetric.
#[test]
fn union_contains_operands() {
    sweep(128, |rng| {
        let (a, b) = (box2(rng), box2(rng));
        let u = a.union(&b);
        assert!(u.contains_box(&a));
        assert!(u.contains_box(&b));
        assert_eq!(a.intersects(&b), b.intersects(&a));
    });
}

/// A point is in the union iff the box grown to it contains it.
#[test]
fn grow_makes_point_contained() {
    sweep(128, |rng| {
        let (b, p) = (box2(rng), point2(rng));
        let mut g = b;
        g.grow(&p);
        assert!(g.contains_point(&p));
        assert!(g.contains_box(&b));
    });
}

/// Inflate by a nonnegative margin preserves containment and grows
/// volume monotonically.
#[test]
fn inflate_monotone() {
    sweep(128, |rng| {
        let b = box2(rng);
        let big = b.inflate(rng.range_i64(0..100) as f64 / 8.0);
        assert!(big.contains_box(&b));
        assert!(big.volume() >= b.volume());
    });
}

/// split_box partitions the volume exactly and both halves are inside.
#[test]
fn split_box_partitions() {
    sweep(128, |rng| {
        let b = box2(rng);
        let dim = rng.range_u32(2) as usize;
        let t = rng.range_i64(0..1 << 20) as f64 / (1u32 << 20) as f64;
        let plane = AxisPlane::new(dim, b.min[dim] + t * b.extent(dim));
        let (l, r) = plane.split_box(&b);
        assert!((l.volume() + r.volume() - b.volume()).abs() < 1e-9 * b.volume().max(1.0));
        assert!(b.contains_box(&l) || l.volume() == 0.0);
        assert!(b.contains_box(&r) || r.volume() == 0.0);
    });
}

/// Point side tests are consistent with box side tests: a degenerate
/// box at a point sides the same way the point does.
#[test]
fn point_and_box_sides_agree() {
    sweep(128, |rng| {
        let p = point2(rng);
        let plane =
            AxisPlane::new(rng.range_u32(2) as usize, rng.range_i64(-1000..1000) as f64 / 4.0);
        let b = Aabb::from_point(p);
        match plane.point_side(&p) {
            Side::Left => assert_eq!(plane.box_side(&b), Side::Left),
            Side::Right => assert_eq!(plane.box_side(&b), Side::Right),
            Side::Both => unreachable!("points are never on both sides"),
        }
    });
}

/// RCB's regions query and point location agree for every input point,
/// and an updated tree remains consistent after points move.
#[test]
fn rcb_update_remains_consistent() {
    sweep(128, |rng| {
        let pts: Vec<Point<2>> = (0..rng.range_i64(10..80)).map(|_| point2(rng)).collect();
        let k = rng.range_i64(1..6) as usize;
        let dx = rng.range_i64(-100..100) as f64 / 4.0;
        let weights = vec![1.0; pts.len()];
        let (mut tree, asg) = RcbTree::build(&pts, &weights, k);
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(tree.locate(p), asg[i]);
        }
        let moved: Vec<Point<2>> = pts.iter().map(|p| Point::new([p[0] + dx, p[1]])).collect();
        let asg2 = tree.update(&moved, &weights);
        for (i, p) in moved.iter().enumerate() {
            assert_eq!(tree.locate(p), asg2[i]);
        }
        assert!(asg2.iter().all(|&p| (p as usize) < k));
    });
}
