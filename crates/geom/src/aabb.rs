//! Axis-aligned bounding boxes.

use crate::point::Point;

/// An axis-aligned bounding box in `D` dimensions.
///
/// Boxes are closed on both ends: a point lying exactly on a face is
/// considered contained, and two boxes sharing only a face are considered
/// intersecting. This matters for contact search, where a surface element
/// lying exactly on a subdomain boundary must be shipped to both sides
/// (erring towards a false positive is safe; missing a contact is not).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb<const D: usize> {
    /// Minimum corner.
    pub min: Point<D>,
    /// Maximum corner.
    pub max: Point<D>,
}

impl<const D: usize> Aabb<D> {
    /// Creates a box from its two corners. Debug-asserts `min <= max`
    /// component-wise.
    #[inline]
    pub fn new(min: Point<D>, max: Point<D>) -> Self {
        debug_assert!((0..D).all(|d| min[d] <= max[d]), "inverted AABB");
        Self { min, max }
    }

    /// The "empty" box: +inf minima, -inf maxima. It is the identity for
    /// [`Aabb::union`] and intersects nothing.
    #[inline]
    pub fn empty() -> Self {
        Self { min: Point::new([f64::INFINITY; D]), max: Point::new([f64::NEG_INFINITY; D]) }
    }

    /// Whether this box is the empty box (no point is contained).
    #[inline]
    pub fn is_empty(&self) -> bool {
        (0..D).any(|d| self.min[d] > self.max[d])
    }

    /// A degenerate box containing a single point.
    #[inline]
    pub fn from_point(p: Point<D>) -> Self {
        Self { min: p, max: p }
    }

    /// The tight bounding box of a point set (empty box for an empty set).
    pub fn from_points(points: &[Point<D>]) -> Self {
        let mut b = Self::empty();
        for p in points {
            b.grow(p);
        }
        b
    }

    /// The tight bounding box of a subset of a point set, given by indices.
    pub fn from_indexed_points(points: &[Point<D>], indices: &[usize]) -> Self {
        let mut b = Self::empty();
        for &i in indices {
            b.grow(&points[i]);
        }
        b
    }

    /// Expands the box (in place) to contain `p`.
    #[inline]
    pub fn grow(&mut self, p: &Point<D>) {
        for d in 0..D {
            if p[d] < self.min[d] {
                self.min[d] = p[d];
            }
            if p[d] > self.max[d] {
                self.max[d] = p[d];
            }
        }
    }

    /// The smallest box containing both operands.
    #[inline]
    pub fn union(&self, other: &Self) -> Self {
        let mut min = self.min;
        let mut max = self.max;
        for d in 0..D {
            min[d] = min[d].min(other.min[d]);
            max[d] = max[d].max(other.max[d]);
        }
        Self { min, max }
    }

    /// Whether the two boxes share at least one point (closed-interval
    /// semantics; face contact counts).
    #[inline]
    pub fn intersects(&self, other: &Self) -> bool {
        (0..D).all(|d| self.min[d] <= other.max[d] && other.min[d] <= self.max[d])
    }

    /// Whether `p` lies inside or on the boundary of the box.
    #[inline]
    pub fn contains_point(&self, p: &Point<D>) -> bool {
        (0..D).all(|d| self.min[d] <= p[d] && p[d] <= self.max[d])
    }

    /// Whether `other` is fully inside this box (closed semantics).
    #[inline]
    pub fn contains_box(&self, other: &Self) -> bool {
        (0..D).all(|d| self.min[d] <= other.min[d] && other.max[d] <= self.max[d])
    }

    /// Expands every face outward by `margin` (a "capture distance" pad used
    /// by proximity-based contact search).
    #[inline]
    pub fn inflate(&self, margin: f64) -> Self {
        let mut min = self.min;
        let mut max = self.max;
        for d in 0..D {
            min[d] -= margin;
            max[d] += margin;
        }
        Self { min, max }
    }

    /// Extent (side length) along dimension `dim`.
    #[inline]
    pub fn extent(&self, dim: usize) -> f64 {
        self.max[dim] - self.min[dim]
    }

    /// Geometric center of the box.
    #[inline]
    pub fn center(&self) -> Point<D> {
        let mut c = self.min;
        for d in 0..D {
            c[d] = 0.5 * (self.min[d] + self.max[d]);
        }
        c
    }

    /// D-dimensional volume (area in 2D). Empty boxes report zero.
    pub fn volume(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        (0..D).map(|d| self.extent(d)).product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boxed(min: [f64; 2], max: [f64; 2]) -> Aabb<2> {
        Aabb::new(Point::new(min), Point::new(max))
    }

    #[test]
    fn empty_box_behaves_as_identity() {
        let e = Aabb::<2>::empty();
        assert!(e.is_empty());
        assert_eq!(e.volume(), 0.0);
        let b = boxed([0.0, 0.0], [1.0, 1.0]);
        assert_eq!(e.union(&b), b);
        assert!(!e.intersects(&b));
        assert!(!e.contains_point(&Point::new([0.5, 0.5])));
    }

    #[test]
    fn from_points_is_tight() {
        let pts = vec![Point::new([1.0, 5.0]), Point::new([-2.0, 3.0]), Point::new([4.0, -1.0])];
        let b = Aabb::from_points(&pts);
        assert_eq!(b.min, Point::new([-2.0, -1.0]));
        assert_eq!(b.max, Point::new([4.0, 5.0]));
        for p in &pts {
            assert!(b.contains_point(p));
        }
    }

    #[test]
    fn face_contact_counts_as_intersection() {
        let a = boxed([0.0, 0.0], [1.0, 1.0]);
        let b = boxed([1.0, 0.0], [2.0, 1.0]);
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        let c = boxed([1.0 + 1e-9, 0.0], [2.0, 1.0]);
        assert!(!a.intersects(&c));
    }

    #[test]
    fn containment() {
        let outer = boxed([0.0, 0.0], [10.0, 10.0]);
        let inner = boxed([2.0, 2.0], [3.0, 3.0]);
        assert!(outer.contains_box(&inner));
        assert!(!inner.contains_box(&outer));
        assert!(outer.contains_box(&outer), "closed semantics: self-containment");
    }

    #[test]
    fn inflate_grows_all_faces() {
        let b = boxed([0.0, 0.0], [1.0, 2.0]).inflate(0.5);
        assert_eq!(b.min, Point::new([-0.5, -0.5]));
        assert_eq!(b.max, Point::new([1.5, 2.5]));
    }

    #[test]
    fn volume_of_a_box() {
        let b = boxed([0.0, 0.0], [2.0, 5.0]);
        assert!((b.volume() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn center_of_unit_box() {
        let b = boxed([0.0, 0.0], [1.0, 1.0]);
        assert_eq!(b.center(), Point::new([0.5, 0.5]));
    }

    #[test]
    fn from_indexed_points_subsets() {
        let pts = vec![Point::new([0.0, 0.0]), Point::new([10.0, 10.0]), Point::new([1.0, 1.0])];
        let b = Aabb::from_indexed_points(&pts, &[0, 2]);
        assert_eq!(b.max, Point::new([1.0, 1.0]));
    }
}
