//! Global-search filters: per-subdomain geometric descriptors.

use cip_dtree::DecisionTree;
use cip_geom::{Aabb, RcbTree};

/// A per-subdomain geometric descriptor used to answer: *which subdomains
/// might own contact points inside this box?*
///
/// The quality of a filter is measured by how few false positives it
/// produces (reported parts that hold no nearby contact point); its
/// correctness contract is to never produce a false negative — every part
/// owning a contact point inside the query box must be reported.
pub trait GlobalFilter<const D: usize> {
    /// Collects the candidate parts for the query box into `out`,
    /// replacing its contents (sorted, deduplicated).
    fn candidate_parts(&self, query: &Aabb<D>, out: &mut Vec<u32>);

    /// Number of parts this filter describes.
    fn num_parts(&self) -> usize;
}

/// The classical filter: each subdomain is described by the bounding box of
/// its contact points. Cheap to build and broadcast (one box per part) but
/// prone to false positives whenever subdomain boxes overlap — which is
/// exactly what happens when the mesh partitioner ignores geometry.
#[derive(Debug, Clone)]
pub struct BboxFilter<const D: usize> {
    boxes: Vec<Aabb<D>>,
}

impl<const D: usize> BboxFilter<D> {
    /// Builds the filter from points and their part assignment.
    pub fn from_points(
        points: &[cip_geom::Point<D>],
        assignment: &[u32],
        num_parts: usize,
    ) -> Self {
        assert_eq!(points.len(), assignment.len());
        let mut boxes = vec![Aabb::empty(); num_parts];
        for (p, &part) in points.iter().zip(assignment.iter()) {
            boxes[part as usize].grow(p);
        }
        Self { boxes }
    }

    /// Builds the filter from per-part element boxes (part, box) pairs.
    pub fn from_boxes(boxes: &[(u32, Aabb<D>)], num_parts: usize) -> Self {
        let mut merged = vec![Aabb::empty(); num_parts];
        for &(part, b) in boxes {
            merged[part as usize] = merged[part as usize].union(&b);
        }
        Self { boxes: merged }
    }
}

impl<const D: usize> GlobalFilter<D> for BboxFilter<D> {
    fn candidate_parts(&self, query: &Aabb<D>, out: &mut Vec<u32>) {
        out.clear();
        for (part, b) in self.boxes.iter().enumerate() {
            if b.intersects(query) {
                out.push(part as u32);
            }
        }
    }

    fn num_parts(&self) -> usize {
        self.boxes.len()
    }
}

/// The paper's filter: the decision tree over contact points. A part's
/// territory is the union of the leaf boxes labeled with it, which
/// converges to the true subdomain shape as leaves shrink.
#[derive(Debug, Clone)]
pub struct DtreeFilter<'a, const D: usize> {
    tree: &'a DecisionTree<D>,
    num_parts: usize,
    tight: bool,
}

impl<'a, const D: usize> DtreeFilter<'a, D> {
    /// Wraps an induced search tree with the paper's leaf-*region*
    /// semantics: a leaf answers whenever the query box reaches its
    /// region.
    pub fn new(tree: &'a DecisionTree<D>, num_parts: usize) -> Self {
        Self { tree, num_parts, tight: false }
    }

    /// Wraps a search tree with *tight-leaf* semantics: a leaf answers
    /// only when the query intersects the bounding box of the points that
    /// fell into it. Strictly fewer false positives than [`Self::new`],
    /// still complete (see [`DecisionTree::query_box_tight`]).
    pub fn tight(tree: &'a DecisionTree<D>, num_parts: usize) -> Self {
        Self { tree, num_parts, tight: true }
    }
}

impl<const D: usize> GlobalFilter<D> for DtreeFilter<'_, D> {
    fn candidate_parts(&self, query: &Aabb<D>, out: &mut Vec<u32>) {
        if self.tight {
            self.tree.query_box_tight(query, out);
        } else {
            self.tree.query_box(query, out);
        }
    }

    fn num_parts(&self) -> usize {
        self.num_parts
    }
}

/// Region filter for an RCB decomposition: each part's territory is its
/// (axis-parallel) RCB region. Never under-approximates.
#[derive(Debug, Clone)]
pub struct RcbRegionFilter<'a, const D: usize> {
    tree: &'a RcbTree<D>,
}

impl<'a, const D: usize> RcbRegionFilter<'a, D> {
    /// Wraps an RCB cut tree.
    pub fn new(tree: &'a RcbTree<D>) -> Self {
        Self { tree }
    }
}

impl<const D: usize> GlobalFilter<D> for RcbRegionFilter<'_, D> {
    fn candidate_parts(&self, query: &Aabb<D>, out: &mut Vec<u32>) {
        self.tree.query_box(query, out);
    }

    fn num_parts(&self) -> usize {
        self.tree.num_parts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cip_dtree::{induce, DtreeConfig};
    use cip_geom::Point;

    fn two_cluster_points() -> (Vec<Point<2>>, Vec<u32>) {
        let mut pts = Vec::new();
        let mut asg = Vec::new();
        for i in 0..5 {
            pts.push(Point::new([i as f64, 0.0]));
            asg.push(0);
            pts.push(Point::new([i as f64 + 100.0, 0.0]));
            asg.push(1);
        }
        (pts, asg)
    }

    #[test]
    fn bbox_filter_reports_overlapping_parts() {
        let (pts, asg) = two_cluster_points();
        let f = BboxFilter::from_points(&pts, &asg, 2);
        let mut out = Vec::new();
        f.candidate_parts(&Aabb::new(Point::new([1.0, -1.0]), Point::new([2.0, 1.0])), &mut out);
        assert_eq!(out, vec![0]);
        f.candidate_parts(
            &Aabb::new(Point::new([-10.0, -1.0]), Point::new([200.0, 1.0])),
            &mut out,
        );
        assert_eq!(out, vec![0, 1]);
        f.candidate_parts(&Aabb::new(Point::new([50.0, -1.0]), Point::new([60.0, 1.0])), &mut out);
        assert!(out.is_empty(), "gap between clusters is nobody's territory");
    }

    #[test]
    fn bbox_filter_never_misses_owner() {
        let (pts, asg) = two_cluster_points();
        let f = BboxFilter::from_points(&pts, &asg, 2);
        let mut out = Vec::new();
        for (p, &part) in pts.iter().zip(asg.iter()) {
            f.candidate_parts(&Aabb::from_point(*p), &mut out);
            assert!(out.contains(&part));
        }
    }

    #[test]
    fn dtree_filter_is_tighter_than_bbox_on_interleaved_parts() {
        // Two parts interleaved along y but separated along x per stripe:
        // bounding boxes of both parts cover everything; the tree separates.
        let mut pts = Vec::new();
        let mut asg = Vec::new();
        for i in 0..8 {
            for j in 0..8 {
                pts.push(Point::new([i as f64, j as f64]));
                asg.push(u32::from(i >= 4) ^ (u32::from(j >= 4)));
            }
        }
        let tree = induce(&pts, &asg, 2, &DtreeConfig::search_tree());
        let df = DtreeFilter::new(&tree, 2);
        let bf = BboxFilter::from_points(&pts, &asg, 2);
        // Query a quadrant interior: single part under the tree, both under
        // bounding boxes.
        let q = Aabb::new(Point::new([0.5, 0.5]), Point::new([2.5, 2.5]));
        let mut dt_out = Vec::new();
        let mut bb_out = Vec::new();
        df.candidate_parts(&q, &mut dt_out);
        bf.candidate_parts(&q, &mut bb_out);
        assert_eq!(dt_out.len(), 1);
        assert_eq!(bb_out.len(), 2);
    }

    #[test]
    fn rcb_region_filter_covers_all_space() {
        let (pts, asg) = two_cluster_points();
        let _ = asg;
        let wts = vec![1.0; pts.len()];
        let (tree, _) = RcbTree::build(&pts, &wts, 2);
        let f = RcbRegionFilter::new(&tree);
        let mut out = Vec::new();
        // Even a box in the empty gap belongs to someone's region.
        f.candidate_parts(&Aabb::new(Point::new([50.0, -1.0]), Point::new([51.0, 1.0])), &mut out);
        assert!(!out.is_empty());
        assert_eq!(f.num_parts(), 2);
    }

    #[test]
    fn from_boxes_merges_per_part() {
        let boxes = vec![
            (0u32, Aabb::new(Point::new([0.0, 0.0]), Point::new([1.0, 1.0]))),
            (0u32, Aabb::new(Point::new([2.0, 0.0]), Point::new([3.0, 1.0]))),
            (1u32, Aabb::new(Point::new([10.0, 0.0]), Point::new([11.0, 1.0]))),
        ];
        let f = BboxFilter::from_boxes(&boxes, 2);
        let mut out = Vec::new();
        // The gap between part 0's two boxes lies inside their union.
        f.candidate_parts(&Aabb::new(Point::new([1.5, 0.5]), Point::new([1.6, 0.6])), &mut out);
        assert_eq!(out, vec![0]);
        f.candidate_parts(&Aabb::new(Point::new([3.5, 0.5]), Point::new([9.5, 0.6])), &mut out);
        assert!(out.is_empty());
    }
}
