//! Fixed-dimension points.

/// A point in `D`-dimensional space.
///
/// `D` is 2 for the paper's illustrative examples (Figures 1 and 2) and 3
/// for the projectile/plate evaluation workload. The representation is a
/// plain coordinate array so points pack densely in `Vec<Point<D>>` and the
/// per-dimension sweeps of the decision-tree inducer are cache-friendly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point<const D: usize> {
    /// Cartesian coordinates.
    pub coords: [f64; D],
}

impl<const D: usize> Point<D> {
    /// Creates a point from its coordinate array.
    #[inline]
    pub const fn new(coords: [f64; D]) -> Self {
        Self { coords }
    }

    /// The origin (all coordinates zero).
    #[inline]
    pub const fn origin() -> Self {
        Self { coords: [0.0; D] }
    }

    /// Coordinate along dimension `dim`.
    #[inline]
    pub fn coord(&self, dim: usize) -> f64 {
        self.coords[dim]
    }

    /// Component-wise addition.
    #[inline]
    pub fn add(&self, other: &Self) -> Self {
        let mut coords = self.coords;
        for (c, o) in coords.iter_mut().zip(other.coords.iter()) {
            *c += o;
        }
        Self { coords }
    }

    /// Component-wise subtraction (`self - other`).
    #[inline]
    pub fn sub(&self, other: &Self) -> Self {
        let mut coords = self.coords;
        for (c, o) in coords.iter_mut().zip(other.coords.iter()) {
            *c -= o;
        }
        Self { coords }
    }

    /// Scales every coordinate by `s`.
    #[inline]
    pub fn scale(&self, s: f64) -> Self {
        let mut coords = self.coords;
        for c in coords.iter_mut() {
            *c *= s;
        }
        Self { coords }
    }

    /// Squared Euclidean distance to `other`.
    #[inline]
    pub fn dist2(&self, other: &Self) -> f64 {
        self.coords.iter().zip(other.coords.iter()).map(|(a, b)| (a - b) * (a - b)).sum()
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn dist(&self, other: &Self) -> f64 {
        self.dist2(other).sqrt()
    }

    /// Squared Euclidean norm.
    #[inline]
    pub fn norm2(&self) -> f64 {
        self.coords.iter().map(|c| c * c).sum()
    }

    /// The centroid of a non-empty point set.
    ///
    /// Returns `None` for an empty slice.
    pub fn centroid(points: &[Self]) -> Option<Self> {
        if points.is_empty() {
            return None;
        }
        let mut acc = Self::origin();
        for p in points {
            acc = acc.add(p);
        }
        Some(acc.scale(1.0 / points.len() as f64))
    }
}

impl<const D: usize> From<[f64; D]> for Point<D> {
    fn from(coords: [f64; D]) -> Self {
        Self { coords }
    }
}

impl<const D: usize> std::ops::Index<usize> for Point<D> {
    type Output = f64;
    #[inline]
    fn index(&self, dim: usize) -> &f64 {
        &self.coords[dim]
    }
}

impl<const D: usize> std::ops::IndexMut<usize> for Point<D> {
    #[inline]
    fn index_mut(&mut self, dim: usize) -> &mut f64 {
        &mut self.coords[dim]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sub_roundtrip() {
        let a = Point::new([1.0, 2.0, 3.0]);
        let b = Point::new([0.5, -1.0, 4.0]);
        let c = a.add(&b).sub(&b);
        for d in 0..3 {
            assert!((c[d] - a[d]).abs() < 1e-12);
        }
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = Point::new([1.0, 2.0]);
        let b = Point::new([4.0, 6.0]);
        assert_eq!(a.dist(&b), b.dist(&a));
        assert_eq!(a.dist(&a), 0.0);
        assert!((a.dist(&b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn centroid_of_square() {
        let pts = vec![
            Point::new([0.0, 0.0]),
            Point::new([2.0, 0.0]),
            Point::new([2.0, 2.0]),
            Point::new([0.0, 2.0]),
        ];
        let c = Point::centroid(&pts).unwrap();
        assert!((c[0] - 1.0).abs() < 1e-12);
        assert!((c[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn centroid_empty_is_none() {
        let pts: Vec<Point<2>> = vec![];
        assert!(Point::centroid(&pts).is_none());
    }

    #[test]
    fn scale_and_norm() {
        let a = Point::new([3.0, 4.0]);
        assert!((a.norm2() - 25.0).abs() < 1e-12);
        let b = a.scale(2.0);
        assert!((b.norm2() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn index_mut_changes_coord() {
        let mut p = Point::new([0.0, 0.0]);
        p[1] = 7.0;
        assert_eq!(p.coord(1), 7.0);
    }
}
