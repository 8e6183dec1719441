//! Axis-parallel hyperplanes (the paper's "decision hyperplanes").

use crate::aabb::Aabb;
use crate::point::Point;

/// Which side of an [`AxisPlane`] an entity lies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Strictly on the `coord <= plane` side (the tree's *yes* branch).
    Left,
    /// Strictly on the `coord > plane` side (the tree's *no* branch).
    Right,
    /// Straddles the plane (boxes only).
    Both,
}

/// An axis-parallel hyperplane `x[dim] = coord`.
///
/// Following the paper's decision-tree convention, the *left* (yes) side is
/// the closed half-space `x[dim] <= coord` and the *right* (no) side is the
/// open half-space `x[dim] > coord`. Every point therefore lands on exactly
/// one side; only extended objects (boxes) can straddle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AxisPlane {
    /// The split dimension (0 = x, 1 = y, 2 = z).
    pub dim: usize,
    /// The split coordinate.
    pub coord: f64,
}

impl AxisPlane {
    /// Creates the hyperplane `x[dim] = coord`.
    #[inline]
    pub const fn new(dim: usize, coord: f64) -> Self {
        Self { dim, coord }
    }

    /// Side test for a point: `Left` iff `p[dim] <= coord`.
    #[inline]
    pub fn point_side<const D: usize>(&self, p: &Point<D>) -> Side {
        if p[self.dim] <= self.coord {
            Side::Left
        } else {
            Side::Right
        }
    }

    /// Side test for a box: `Both` when the box straddles the plane.
    ///
    /// A box whose maximum touches the plane exactly is fully `Left` (the
    /// left half-space is closed); a box whose minimum is strictly greater
    /// than the plane is fully `Right`.
    #[inline]
    pub fn box_side<const D: usize>(&self, b: &Aabb<D>) -> Side {
        if b.max[self.dim] <= self.coord {
            Side::Left
        } else if b.min[self.dim] > self.coord {
            Side::Right
        } else {
            Side::Both
        }
    }

    /// Splits `b` into its left and right sub-boxes along this plane.
    ///
    /// The sub-box on a side the box does not reach is empty-clamped to the
    /// plane (zero thickness), which is harmless for filter purposes.
    pub fn split_box<const D: usize>(&self, b: &Aabb<D>) -> (Aabb<D>, Aabb<D>) {
        let mut lmax = b.max;
        lmax[self.dim] = lmax[self.dim].min(self.coord);
        let mut rmin = b.min;
        rmin[self.dim] = rmin[self.dim].max(self.coord);
        (Aabb { min: b.min, max: lmax }, Aabb { min: rmin, max: b.max })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_sides_follow_closed_left_convention() {
        let pl = AxisPlane::new(0, 1.0);
        assert_eq!(pl.point_side(&Point::new([0.5, 9.0])), Side::Left);
        assert_eq!(pl.point_side(&Point::new([1.0, 9.0])), Side::Left);
        assert_eq!(pl.point_side(&Point::new([1.0 + 1e-12, 9.0])), Side::Right);
    }

    #[test]
    fn box_sides() {
        let pl = AxisPlane::new(1, 2.0);
        let left = Aabb::new(Point::new([0.0, 0.0]), Point::new([5.0, 2.0]));
        let right = Aabb::new(Point::new([0.0, 2.5]), Point::new([5.0, 3.0]));
        let both = Aabb::new(Point::new([0.0, 1.0]), Point::new([5.0, 3.0]));
        assert_eq!(pl.box_side(&left), Side::Left);
        assert_eq!(pl.box_side(&right), Side::Right);
        assert_eq!(pl.box_side(&both), Side::Both);
    }

    #[test]
    fn split_box_partitions_volume() {
        let pl = AxisPlane::new(0, 3.0);
        let b = Aabb::new(Point::new([0.0, 0.0]), Point::new([10.0, 1.0]));
        let (l, r) = pl.split_box(&b);
        assert_eq!(l.max[0], 3.0);
        assert_eq!(r.min[0], 3.0);
        assert!((l.volume() + r.volume() - b.volume()).abs() < 1e-12);
    }

    #[test]
    fn split_box_outside_plane_clamps() {
        let pl = AxisPlane::new(0, -5.0);
        let b = Aabb::new(Point::new([0.0, 0.0]), Point::new([1.0, 1.0]));
        let (l, r) = pl.split_box(&b);
        assert!(l.volume() == 0.0 || l.is_empty());
        assert!((r.volume() - b.volume()).abs() < 1e-12);
    }
}
