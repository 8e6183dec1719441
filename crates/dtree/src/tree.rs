//! Decision-tree structure and queries.

use cip_geom::{Aabb, AxisPlane, Point, Side};

/// A node of the decision tree (flattened arena representation).
#[derive(Debug, Clone)]
pub enum DtNode<const D: usize> {
    /// An internal decision: points with `coord <= plane.coord` take the
    /// *yes* (left) branch.
    Internal {
        /// The decision hyperplane.
        plane: AxisPlane,
        /// Index of the yes-branch child.
        left: u32,
        /// Index of the no-branch child.
        right: u32,
    },
    /// A leaf region.
    Leaf {
        /// The partition whose points this leaf contains (majority label
        /// for impure leaves).
        part: u32,
        /// Number of points that fell into this leaf during induction.
        count: u32,
        /// Whether every point in the leaf belongs to `part`.
        pure: bool,
        /// The non-majority partitions that also have points in this leaf
        /// (empty for pure leaves). Impure leaves arise when points of
        /// different partitions share identical coordinates — e.g. two
        /// bodies in exact touching contact — or under the `max_i`
        /// stopping rule; reporting every resident partition keeps the
        /// global-search filter free of false negatives.
        others: Vec<u32>,
        /// Tight bounding box of the points that fell into this leaf
        /// (empty box for an empty leaf). The leaf's *region* — the box
        /// carved out by the ancestor hyperplanes — generally extends into
        /// empty space beyond this; [`DecisionTree::query_box_tight`]
        /// intersects queries against this box instead of the region,
        /// eliminating the empty-space false positives (§6 of the paper
        /// suggests exactly this kind of sharpening).
        bounds: Aabb<D>,
    },
}

/// Summary of one leaf, as returned by [`DecisionTree::leaf_regions`].
#[derive(Debug, Clone, Copy)]
pub struct LeafInfo<const D: usize> {
    /// Majority partition of the leaf.
    pub part: u32,
    /// Point count at induction time.
    pub count: u32,
    /// Whether the leaf was pure.
    pub pure: bool,
    /// The axis-parallel region the leaf covers (clipped to the query
    /// bounds).
    pub region: Aabb<D>,
}

/// A binary space-partitioning decision tree over `D`-dimensional points.
///
/// Built by [`crate::induce()`]; nodes are stored in an arena with the root
/// at index 0.
#[derive(Debug, Clone)]
pub struct DecisionTree<const D: usize> {
    nodes: Vec<DtNode<D>>,
}

impl<const D: usize> DecisionTree<D> {
    /// Assembles a tree from an arena whose root is node 0.
    pub(crate) fn from_nodes(nodes: Vec<DtNode<D>>) -> Self {
        debug_assert!(!nodes.is_empty());
        Self { nodes }
    }

    /// Total number of nodes (internal + leaf) — the paper's **NTNodes**
    /// metric, the cost of broadcasting the search structure.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n, DtNode::Leaf { .. })).count()
    }

    /// Maximum root-to-leaf depth (a single-leaf tree has depth 0).
    pub fn depth(&self) -> usize {
        fn rec<const D: usize>(nodes: &[DtNode<D>], at: u32) -> usize {
            match &nodes[at as usize] {
                DtNode::Leaf { .. } => 0,
                DtNode::Internal { left, right, .. } => {
                    1 + rec(nodes, *left).max(rec(nodes, *right))
                }
            }
        }
        rec(&self.nodes, 0)
    }

    /// Raw node arena (read-only).
    pub fn nodes(&self) -> &[DtNode<D>] {
        &self.nodes
    }

    /// Locates the leaf containing `p` and returns its partition label.
    pub fn locate(&self, p: &Point<D>) -> u32 {
        let mut at = 0u32;
        loop {
            match &self.nodes[at as usize] {
                DtNode::Leaf { part, .. } => return *part,
                DtNode::Internal { plane, left, right } => {
                    at = match plane.point_side(p) {
                        Side::Left => *left,
                        _ => *right,
                    };
                }
            }
        }
    }

    /// Collects into `out` the (sorted, deduplicated) partition labels of
    /// every leaf whose region intersects the box `b`.
    ///
    /// This is the paper's global-search filter: a surface element
    /// (approximated by its bounding box) must be shipped to exactly these
    /// subdomains. Traversal visits both children when the box straddles
    /// the decision hyperplane.
    pub fn query_box(&self, b: &Aabb<D>, out: &mut Vec<u32>) {
        out.clear();
        self.query_rec(0, b, false, out);
        out.sort_unstable();
        out.dedup();
    }

    /// Like [`DecisionTree::query_box`], but a leaf only answers when the
    /// query intersects the **tight bounding box of its points**, not its
    /// whole region. Strictly fewer false positives, still zero false
    /// negatives (every point of a leaf lies inside its tight box).
    pub fn query_box_tight(&self, b: &Aabb<D>, out: &mut Vec<u32>) {
        out.clear();
        self.query_rec(0, b, true, out);
        out.sort_unstable();
        out.dedup();
    }

    fn query_rec(&self, at: u32, b: &Aabb<D>, tight: bool, out: &mut Vec<u32>) {
        match &self.nodes[at as usize] {
            DtNode::Leaf { part, others, count, bounds, .. } => {
                if *count == 0 || (tight && !bounds.intersects(b)) {
                    return;
                }
                out.push(*part);
                out.extend_from_slice(others);
            }
            DtNode::Internal { plane, left, right } => match plane.box_side(b) {
                Side::Left => self.query_rec(*left, b, tight, out),
                Side::Right => self.query_rec(*right, b, tight, out),
                Side::Both => {
                    self.query_rec(*left, b, tight, out);
                    self.query_rec(*right, b, tight, out);
                }
            },
        }
    }

    /// Enumerates every leaf's region, clipped to `bounds` (the mesh
    /// bounding box). The regions tile `bounds` exactly.
    pub fn leaf_regions(&self, bounds: &Aabb<D>) -> Vec<LeafInfo<D>> {
        let mut out = Vec::with_capacity(self.num_leaves());
        self.regions_rec(0, *bounds, &mut out);
        out
    }

    fn regions_rec(&self, at: u32, region: Aabb<D>, out: &mut Vec<LeafInfo<D>>) {
        match &self.nodes[at as usize] {
            DtNode::Leaf { part, count, pure, .. } => {
                out.push(LeafInfo { part: *part, count: *count, pure: *pure, region })
            }
            DtNode::Internal { plane, left, right } => {
                let (l, r) = plane.split_box(&region);
                self.regions_rec(*left, l, out);
                self.regions_rec(*right, r, out);
            }
        }
    }

    /// Assigns every point its leaf's partition label (the majority-relabel
    /// step of the paper's DT-friendly correction, §4.2).
    pub fn relabel_points(&self, points: &[Point<D>]) -> Vec<u32> {
        points.iter().map(|p| self.locate(p)).collect()
    }

    /// Assigns every point its *leaf index* (used to contract graph
    /// vertices into the region graph `G'`).
    pub fn leaf_index_of_points(&self, points: &[Point<D>]) -> (Vec<u32>, usize) {
        // Map arena leaf ids to dense 0..num_leaves ids.
        let mut dense = vec![u32::MAX; self.nodes.len()];
        let mut next = 0u32;
        for (i, n) in self.nodes.iter().enumerate() {
            if matches!(n, DtNode::Leaf { .. }) {
                dense[i] = next;
                next += 1;
            }
        }
        let ids = points
            .iter()
            .map(|p| {
                let mut at = 0u32;
                loop {
                    match &self.nodes[at as usize] {
                        DtNode::Leaf { .. } => return dense[at as usize],
                        DtNode::Internal { plane, left, right } => {
                            at = match plane.point_side(p) {
                                Side::Left => *left,
                                _ => *right,
                            };
                        }
                    }
                }
            })
            .collect();
        (ids, next as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A leaf box covering everything the tests probe.
    const BIG: Aabb<2> =
        Aabb { min: Point { coords: [-100.0, -100.0] }, max: Point { coords: [100.0, 100.0] } };

    /// Hand-built tree: x <= 1 -> part 0; else (y <= 1 -> part 1, else 2).
    fn small_tree() -> DecisionTree<2> {
        DecisionTree::from_nodes(vec![
            DtNode::Internal { plane: AxisPlane::new(0, 1.0), left: 1, right: 2 },
            DtNode::Leaf { part: 0, count: 3, pure: true, others: vec![], bounds: BIG },
            DtNode::Internal { plane: AxisPlane::new(1, 1.0), left: 3, right: 4 },
            DtNode::Leaf { part: 1, count: 2, pure: true, others: vec![], bounds: BIG },
            DtNode::Leaf { part: 2, count: 4, pure: false, others: vec![], bounds: BIG },
        ])
    }

    #[test]
    fn counting_queries() {
        let t = small_tree();
        assert_eq!(t.num_nodes(), 5);
        assert_eq!(t.num_leaves(), 3);
        assert_eq!(t.depth(), 2);
    }

    #[test]
    fn locate_follows_planes() {
        let t = small_tree();
        assert_eq!(t.locate(&Point::new([0.5, 5.0])), 0);
        assert_eq!(t.locate(&Point::new([1.0, 5.0])), 0, "closed-left convention");
        assert_eq!(t.locate(&Point::new([2.0, 0.5])), 1);
        assert_eq!(t.locate(&Point::new([2.0, 3.0])), 2);
    }

    #[test]
    fn query_box_straddling_planes() {
        let t = small_tree();
        let mut out = Vec::new();
        // Box spanning all three regions.
        t.query_box(&Aabb::new(Point::new([0.0, 0.0]), Point::new([3.0, 3.0])), &mut out);
        assert_eq!(out, vec![0, 1, 2]);
        // Box strictly right of x=1 and below y=1.
        t.query_box(&Aabb::new(Point::new([1.5, 0.0]), Point::new([2.0, 0.5])), &mut out);
        assert_eq!(out, vec![1]);
        // Box exactly touching x=1 from the left.
        t.query_box(&Aabb::new(Point::new([0.0, 0.0]), Point::new([1.0, 0.5])), &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn leaf_regions_tile_bounds() {
        let t = small_tree();
        let bounds = Aabb::new(Point::new([0.0, 0.0]), Point::new([4.0, 4.0]));
        let regions = t.leaf_regions(&bounds);
        assert_eq!(regions.len(), 3);
        let vol: f64 = regions.iter().map(|l| l.region.volume()).sum();
        assert!((vol - bounds.volume()).abs() < 1e-12);
    }

    #[test]
    fn leaf_index_is_dense() {
        let t = small_tree();
        let pts = vec![
            Point::new([0.5, 0.5]), // leaf 0 (arena 1)
            Point::new([2.0, 0.5]), // leaf 1 (arena 3)
            Point::new([2.0, 2.0]), // leaf 2 (arena 4)
        ];
        let (ids, n) = t.leaf_index_of_points(&pts);
        assert_eq!(n, 3);
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn impure_leaf_reports_all_resident_parts() {
        // Same shape as small_tree but the impure leaf also hosts part 3.
        let t = DecisionTree::<2>::from_nodes(vec![
            DtNode::Internal { plane: AxisPlane::new(0, 1.0), left: 1, right: 2 },
            DtNode::Leaf { part: 0, count: 3, pure: true, others: vec![], bounds: BIG },
            DtNode::Leaf { part: 2, count: 4, pure: false, others: vec![3], bounds: BIG },
        ]);
        let mut out = Vec::new();
        t.query_box(&Aabb::new(Point::new([2.0, 0.0]), Point::new([3.0, 1.0])), &mut out);
        assert_eq!(out, vec![2, 3], "minority residents must be reported");
        // locate still returns the majority.
        assert_eq!(t.locate(&Point::new([2.0, 0.0])), 2);
    }

    #[test]
    fn relabel_points_matches_locate() {
        let t = small_tree();
        let pts = vec![Point::new([0.0, 0.0]), Point::new([3.0, 0.0]), Point::new([3.0, 3.0])];
        assert_eq!(t.relabel_points(&pts), vec![0, 1, 2]);
    }
}
