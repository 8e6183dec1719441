//! Recursive coordinate bisection (RCB).
//!
//! RCB is the geometric partitioner used by the ML+RCB baseline
//! (Plimpton et al. '98, Brown et al. '00): the contact points are
//! recursively bisected by axis-parallel cuts along the longest extent of
//! the current point set, producing `k` parts of (approximately) equal
//! weight whose regions are axis-parallel boxes.
//!
//! Two entry points mirror the baseline's behaviour across time steps:
//!
//! * [`RcbTree::build`] — partition from scratch;
//! * [`RcbTree::update`] — keep the cut *directions* and the tree shape of
//!   a previous decomposition but shift every cut *coordinate* so the
//!   (moved) points are balanced again. This is the incremental
//!   repartitioning-style update the paper describes ("these follow-up
//!   partitionings are computed by modifying the previous RCB
//!   partitioning"), and it is what makes the baseline's migration cost
//!   (UpdComm) small.

use crate::aabb::Aabb;
use crate::plane::{AxisPlane, Side};
use crate::point::Point;

/// Configuration for an RCB decomposition.
#[derive(Debug, Clone, Copy)]
pub struct RcbConfig {
    /// Number of parts to produce.
    pub k: usize,
}

impl RcbConfig {
    /// Convenience constructor.
    pub fn new(k: usize) -> Self {
        Self { k }
    }
}

/// A node of the RCB cut tree.
#[derive(Debug, Clone)]
enum RcbNode {
    /// An internal cut. Points with `coord <= plane.coord` descend left.
    Internal {
        plane: AxisPlane,
        left: u32,
        right: u32,
        /// Number of parts in the left subtree (determines the balance
        /// fraction when cuts are re-fit during [`RcbTree::update`]).
        parts_left: u32,
        /// Number of parts in the right subtree.
        parts_right: u32,
    },
    /// A leaf owning one part id.
    Leaf { part: u32 },
}

/// An RCB cut tree over a weighted point set.
///
/// The tree records every cut plane, so it can (a) locate a point's part in
/// `O(log k)`, (b) enumerate the axis-parallel region of each part, and
/// (c) be *updated in place* when the points move.
#[derive(Debug, Clone)]
pub struct RcbTree<const D: usize> {
    nodes: Vec<RcbNode>,
    root: u32,
    k: usize,
}

impl<const D: usize> RcbTree<D> {
    /// Builds a `k`-way RCB decomposition of `points` with the given
    /// per-point `weights`, returning the cut tree and the part assignment
    /// of every input point.
    ///
    /// ```
    /// use cip_geom::{Point, RcbTree};
    ///
    /// let points: Vec<Point<2>> =
    ///     (0..16).map(|i| Point::new([i as f64, 0.0])).collect();
    /// let weights = vec![1.0; 16];
    /// let (tree, assignment) = RcbTree::build(&points, &weights, 4);
    /// // Each quarter of the line becomes one part of 4 points.
    /// for part in 0..4u32 {
    ///     assert_eq!(assignment.iter().filter(|&&p| p == part).count(), 4);
    /// }
    /// // The tree answers point-location queries.
    /// assert_eq!(tree.locate(&points[0]), assignment[0]);
    /// ```
    ///
    /// # Panics
    /// Panics if `k == 0`, or if `weights.len() != points.len()`.
    pub fn build(points: &[Point<D>], weights: &[f64], k: usize) -> (Self, Vec<u32>) {
        assert!(k > 0, "RCB requires k >= 1");
        assert_eq!(points.len(), weights.len(), "one weight per point");
        let mut tree = Self { nodes: Vec::with_capacity(2 * k), root: 0, k };
        let mut assignment = vec![0u32; points.len()];
        let mut indices: Vec<usize> = (0..points.len()).collect();
        tree.root = tree.build_rec(points, weights, &mut indices, 0, k as u32, &mut assignment);
        (tree, assignment)
    }

    /// Number of parts this tree decomposes into.
    pub fn num_parts(&self) -> usize {
        self.k
    }

    /// Number of nodes (internal + leaf) in the cut tree.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    fn push(&mut self, node: RcbNode) -> u32 {
        let id = self.nodes.len() as u32;
        self.nodes.push(node);
        id
    }

    /// Recursively builds the subtree for parts `[part_lo, part_lo + nparts)`
    /// over the points indexed by `indices`, writing their assignments.
    fn build_rec(
        &mut self,
        points: &[Point<D>],
        weights: &[f64],
        indices: &mut [usize],
        part_lo: u32,
        nparts: u32,
        assignment: &mut [u32],
    ) -> u32 {
        if nparts == 1 {
            for &i in indices.iter() {
                assignment[i] = part_lo;
            }
            return self.push(RcbNode::Leaf { part: part_lo });
        }
        let parts_left = nparts / 2;
        let parts_right = nparts - parts_left;
        let frac = parts_left as f64 / nparts as f64;

        let plane = choose_cut(points, weights, indices, frac);
        let mid = partition_by_plane(points, indices, &plane);
        let (li, ri) = indices.split_at_mut(mid);
        let left = self.build_rec(points, weights, li, part_lo, parts_left, assignment);
        let right =
            self.build_rec(points, weights, ri, part_lo + parts_left, parts_right, assignment);
        self.push(RcbNode::Internal { plane, left, right, parts_left, parts_right })
    }

    /// Re-fits every cut coordinate to a new point configuration while
    /// keeping the tree shape, cut dimensions, and part ids fixed, and
    /// returns the new part assignment.
    ///
    /// The number of points may differ from the build-time count (contact
    /// sets grow and shrink as elements erode); balance is re-established
    /// with respect to the *current* weights.
    pub fn update(&mut self, points: &[Point<D>], weights: &[f64]) -> Vec<u32> {
        assert_eq!(points.len(), weights.len(), "one weight per point");
        let mut assignment = vec![0u32; points.len()];
        let mut indices: Vec<usize> = (0..points.len()).collect();
        let root = self.root;
        self.update_rec(root, points, weights, &mut indices, &mut assignment);
        assignment
    }

    fn update_rec(
        &mut self,
        node: u32,
        points: &[Point<D>],
        weights: &[f64],
        indices: &mut [usize],
        assignment: &mut [u32],
    ) {
        match self.nodes[node as usize] {
            RcbNode::Leaf { part } => {
                for &i in indices.iter() {
                    assignment[i] = part;
                }
            }
            RcbNode::Internal { plane, left, right, parts_left, parts_right } => {
                let frac = parts_left as f64 / (parts_left + parts_right) as f64;
                // Re-fit the cut along the *same* dimension; fall back to the
                // old coordinate if the points are degenerate along it.
                let new_plane = refit_cut(points, weights, indices, plane, frac);
                if let RcbNode::Internal { plane: p, .. } = &mut self.nodes[node as usize] {
                    *p = new_plane;
                }
                let mid = partition_by_plane(points, indices, &new_plane);
                let (li, ri) = indices.split_at_mut(mid);
                self.update_rec(left, points, weights, li, assignment);
                self.update_rec(right, points, weights, ri, assignment);
            }
        }
    }

    /// Locates the part owning the region that contains `p`.
    pub fn locate(&self, p: &Point<D>) -> u32 {
        let mut node = self.root;
        loop {
            match &self.nodes[node as usize] {
                RcbNode::Leaf { part } => return *part,
                RcbNode::Internal { plane, left, right, .. } => {
                    node = match plane.point_side(p) {
                        Side::Left => *left,
                        _ => *right,
                    };
                }
            }
        }
    }

    /// Collects the (sorted, deduplicated) set of parts whose *region*
    /// intersects the query box into `out`.
    ///
    /// This is the region-based global-search filter: unlike point bounding
    /// boxes it never under-approximates a part's territory.
    pub fn query_box(&self, b: &Aabb<D>, out: &mut Vec<u32>) {
        out.clear();
        self.query_rec(self.root, b, out);
        out.sort_unstable();
        out.dedup();
    }

    fn query_rec(&self, node: u32, b: &Aabb<D>, out: &mut Vec<u32>) {
        match &self.nodes[node as usize] {
            RcbNode::Leaf { part } => out.push(*part),
            RcbNode::Internal { plane, left, right, .. } => match plane.box_side(b) {
                Side::Left => self.query_rec(*left, b, out),
                Side::Right => self.query_rec(*right, b, out),
                Side::Both => {
                    self.query_rec(*left, b, out);
                    self.query_rec(*right, b, out);
                }
            },
        }
    }

    /// Enumerates each part's axis-parallel region, clipped to `bounds`.
    pub fn regions(&self, bounds: &Aabb<D>) -> Vec<(u32, Aabb<D>)> {
        let mut out = Vec::with_capacity(self.k);
        self.regions_rec(self.root, *bounds, &mut out);
        out.sort_unstable_by_key(|(p, _)| *p);
        out
    }

    fn regions_rec(&self, node: u32, region: Aabb<D>, out: &mut Vec<(u32, Aabb<D>)>) {
        match &self.nodes[node as usize] {
            RcbNode::Leaf { part } => out.push((*part, region)),
            RcbNode::Internal { plane, left, right, .. } => {
                let (l, r) = plane.split_box(&region);
                self.regions_rec(*left, l, out);
                self.regions_rec(*right, r, out);
            }
        }
    }
}

/// Reorders `indices` so that points on the plane's left side come first;
/// returns the split position.
fn partition_by_plane<const D: usize>(
    points: &[Point<D>],
    indices: &mut [usize],
    plane: &AxisPlane,
) -> usize {
    let mut lo = 0;
    let mut hi = indices.len();
    while lo < hi {
        if plane.point_side(&points[indices[lo]]) == Side::Left {
            lo += 1;
        } else {
            hi -= 1;
            indices.swap(lo, hi);
        }
    }
    lo
}

/// Chooses the best cut for `indices`: tries the longest extent first and
/// falls back to other dimensions if the point set is degenerate along it.
fn choose_cut<const D: usize>(
    points: &[Point<D>],
    weights: &[f64],
    indices: &mut [usize],
    frac: f64,
) -> AxisPlane {
    let bbox = Aabb::from_indexed_points(points, indices);
    let mut dims: Vec<usize> = (0..D).collect();
    dims.sort_by(|&a, &b| {
        bbox.extent(b).partial_cmp(&bbox.extent(a)).unwrap_or(std::cmp::Ordering::Equal)
    });
    for &dim in &dims {
        if let Some(coord) = fit_cut_coordinate(points, weights, indices, dim, frac) {
            return AxisPlane::new(dim, coord);
        }
    }
    // Fully degenerate point set (all points identical, or empty): any plane
    // that sends everything left keeps the recursion well-defined.
    let coord = indices.first().map_or(0.0, |&i| points[i][dims[0]]);
    AxisPlane::new(dims[0], coord)
}

/// Re-fits an existing cut's coordinate along its original dimension,
/// keeping the old coordinate when the points are degenerate along it.
fn refit_cut<const D: usize>(
    points: &[Point<D>],
    weights: &[f64],
    indices: &mut [usize],
    old: AxisPlane,
    frac: f64,
) -> AxisPlane {
    match fit_cut_coordinate(points, weights, indices, old.dim, frac) {
        Some(coord) => AxisPlane::new(old.dim, coord),
        None => old,
    }
}

/// Finds the cut coordinate along `dim` whose left-side weight best matches
/// `frac` of the total weight. Returns `None` when every point shares the
/// same coordinate along `dim` (no cut can separate anything).
///
/// The cut is always placed *on* a point coordinate (the closed-left
/// convention of [`AxisPlane`] then puts that point on the left), so ties
/// are handled consistently between assignment and later `locate` calls.
fn fit_cut_coordinate<const D: usize>(
    points: &[Point<D>],
    weights: &[f64],
    indices: &mut [usize],
    dim: usize,
    frac: f64,
) -> Option<f64> {
    if indices.len() < 2 {
        return None;
    }
    indices.sort_unstable_by(|&a, &b| {
        points[a][dim].partial_cmp(&points[b][dim]).unwrap_or(std::cmp::Ordering::Equal)
    });
    let first = points[indices[0]][dim];
    let last = points[*indices.last().unwrap()][dim];
    if first == last {
        return None;
    }
    let total: f64 = indices.iter().map(|&i| weights[i]).sum();
    let target = total * frac;

    // Sweep split positions that lie between distinct consecutive
    // coordinates; pick the one whose cumulative left weight is closest to
    // the target. The cut coordinate is the left point's coordinate.
    let mut best_coord = first;
    let mut best_err = f64::INFINITY;
    let mut acc = 0.0;
    for w in 0..indices.len() - 1 {
        acc += weights[indices[w]];
        let here = points[indices[w]][dim];
        let next = points[indices[w + 1]][dim];
        if here == next {
            continue; // cannot cut between equal coordinates
        }
        let err = (acc - target).abs();
        if err < best_err {
            best_err = err;
            best_coord = here;
        }
    }
    if best_err.is_infinite() {
        None
    } else {
        Some(best_coord)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid2d(nx: usize, ny: usize) -> Vec<Point<2>> {
        let mut pts = Vec::with_capacity(nx * ny);
        for j in 0..ny {
            for i in 0..nx {
                pts.push(Point::new([i as f64, j as f64]));
            }
        }
        pts
    }

    fn part_weights(assignment: &[u32], weights: &[f64], k: usize) -> Vec<f64> {
        let mut w = vec![0.0; k];
        for (i, &p) in assignment.iter().enumerate() {
            w[p as usize] += weights[i];
        }
        w
    }

    #[test]
    fn build_covers_all_parts_and_balances() {
        let pts = grid2d(20, 20);
        let wts = vec![1.0; pts.len()];
        for k in [2usize, 3, 4, 7, 8, 16] {
            let (tree, asg) = RcbTree::build(&pts, &wts, k);
            assert_eq!(tree.num_parts(), k);
            let pw = part_weights(&asg, &wts, k);
            let avg = pts.len() as f64 / k as f64;
            for (p, w) in pw.iter().enumerate() {
                assert!(*w > 0.0, "part {p} empty for k={k}");
                assert!(
                    *w <= avg * 1.5 + 1.0,
                    "part {p} weight {w} too far above average {avg} for k={k}"
                );
            }
        }
    }

    #[test]
    fn locate_agrees_with_assignment() {
        let pts = grid2d(15, 11);
        let wts = vec![1.0; pts.len()];
        let (tree, asg) = RcbTree::build(&pts, &wts, 6);
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(tree.locate(p), asg[i], "point {i} mislocated");
        }
    }

    #[test]
    fn k_equals_one_is_trivial() {
        let pts = grid2d(4, 4);
        let wts = vec![1.0; pts.len()];
        let (tree, asg) = RcbTree::build(&pts, &wts, 1);
        assert!(asg.iter().all(|&p| p == 0));
        assert_eq!(tree.num_nodes(), 1);
    }

    #[test]
    fn weighted_split_respects_weights() {
        // Two clusters: heavy singleton left, many light points right. A
        // 2-way split should put the heavy point alone.
        let mut pts = vec![Point::new([0.0, 0.0])];
        for i in 0..10 {
            pts.push(Point::new([10.0 + i as f64, 0.0]));
        }
        let mut wts = vec![10.0];
        wts.extend(std::iter::repeat_n(1.0, 10));
        let (_, asg) = RcbTree::build(&pts, &wts, 2);
        let pw = part_weights(&asg, &wts, 2);
        assert!((pw[0] - pw[1]).abs() <= 10.0);
        // The heavy point must be alone on its side.
        let heavy_part = asg[0];
        assert_eq!(asg.iter().filter(|&&p| p == heavy_part).count(), 1);
    }

    #[test]
    fn update_keeps_parts_and_rebalances() {
        let pts = grid2d(16, 16);
        let wts = vec![1.0; pts.len()];
        let (mut tree, asg0) = RcbTree::build(&pts, &wts, 8);
        // Shift all points; balance must be restored and most points should
        // stay in their part (pure translation => identical relative order).
        let moved: Vec<Point<2>> =
            pts.iter().map(|p| Point::new([p[0] + 3.0, p[1] - 1.0])).collect();
        let asg1 = tree.update(&moved, &wts);
        let pw = part_weights(&asg1, &wts, 8);
        let avg = pts.len() as f64 / 8.0;
        for w in &pw {
            assert!(*w >= avg * 0.5 && *w <= avg * 1.5);
        }
        let migrated = asg0.iter().zip(asg1.iter()).filter(|(a, b)| a != b).count();
        assert_eq!(migrated, 0, "pure translation should migrate nothing");
    }

    #[test]
    fn update_handles_shrinking_point_set() {
        let pts = grid2d(12, 12);
        let wts = vec![1.0; pts.len()];
        let (mut tree, _) = RcbTree::build(&pts, &wts, 4);
        let fewer: Vec<Point<2>> = pts[..60].to_vec();
        let fw = vec![1.0; 60];
        let asg = tree.update(&fewer, &fw);
        assert_eq!(asg.len(), 60);
        let pw = part_weights(&asg, &fw, 4);
        assert!(pw.iter().all(|&w| w > 0.0));
    }

    #[test]
    fn regions_tile_the_bounds() {
        let pts = grid2d(10, 10);
        let wts = vec![1.0; pts.len()];
        let (tree, asg) = RcbTree::build(&pts, &wts, 5);
        let bounds = Aabb::from_points(&pts);
        let regions = tree.regions(&bounds);
        assert_eq!(regions.len(), 5);
        let vol: f64 = regions.iter().map(|(_, b)| b.volume()).sum();
        assert!((vol - bounds.volume()).abs() < 1e-9, "regions must tile the domain");
        // Each point must be inside its own part's region.
        for (i, p) in pts.iter().enumerate() {
            let (_, reg) = regions.iter().find(|(q, _)| *q == asg[i]).unwrap();
            assert!(reg.contains_point(p));
        }
    }

    #[test]
    fn query_box_returns_superset_of_owning_parts() {
        let pts = grid2d(20, 20);
        let wts = vec![1.0; pts.len()];
        let (tree, asg) = RcbTree::build(&pts, &wts, 7);
        let query = Aabb::new(Point::new([3.5, 3.5]), Point::new([9.5, 12.5]));
        let mut hits = Vec::new();
        tree.query_box(&query, &mut hits);
        for (i, p) in pts.iter().enumerate() {
            if query.contains_point(p) {
                assert!(
                    hits.contains(&asg[i]),
                    "part {} owns an in-box point but was not reported",
                    asg[i]
                );
            }
        }
    }

    #[test]
    fn degenerate_identical_points_do_not_crash() {
        let pts = vec![Point::new([1.0, 1.0]); 9];
        let wts = vec![1.0; 9];
        let (tree, asg) = RcbTree::build(&pts, &wts, 3);
        assert_eq!(asg.len(), 9);
        assert_eq!(tree.num_parts(), 3);
    }
}
