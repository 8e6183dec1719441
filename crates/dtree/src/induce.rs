//! Tree induction with the paper's modified gini splitting index.
//!
//! Given points with partition labels, [`induce`] builds the decision tree
//! of §4.1.1:
//!
//! * candidate hyperplanes are the positions between successive distinct
//!   coordinates along each dimension (at most `D * |A|` per node);
//! * every candidate is scored with Equation 1,
//!   `sqrt(Σᵢ |A₁,ᵢ|²) + sqrt(Σᵢ |A₂,ᵢ|²)`, evaluated in `O(1)` per
//!   position by maintaining the two sums of squares incrementally as the
//!   sweep moves points from `A₂` to `A₁`;
//! * the points are sorted along each dimension **once** at the root; each
//!   split stably partitions the per-dimension orderings, exactly as the
//!   paper prescribes, so no re-sorting ever happens below the root;
//! * induction of independent subtrees runs in parallel (`par::join`), mirroring
//!   the ScalParC-style parallel formulation the paper cites.
//!
//! Two stopping rules are provided: [`StopRule::Purity`] builds the
//! contact-search descriptor tree (§4.1), and [`StopRule::MaxPMaxI`]
//! builds the full-vertex tree of the DT-friendly partitioning correction
//! (§4.2) — it keeps splitting *pure* regions larger than `max_p` (median
//! splits along the longest extent) and stops splitting *impure* regions
//! smaller than `max_i`.

use crate::tree::{DecisionTree, DtNode};
use cip_geom::{Aabb, AxisPlane, Point, Side};
use cip_telemetry::Recorder;

/// When to stop splitting a node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StopRule {
    /// Stop at pure nodes — the contact-search descriptor tree of §4.1.
    Purity,
    /// The §4.2 rule for DT-friendly partition correction: keep splitting
    /// pure nodes with more than `max_p` points; stop splitting impure
    /// nodes with fewer than `max_i` points.
    MaxPMaxI {
        /// Pure-node point threshold (`max_p` in the paper).
        max_p: usize,
        /// Impure-node point threshold (`max_i` in the paper).
        max_i: usize,
    },
}

/// The splitting-index used to score candidate hyperplanes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Splitter {
    /// The paper's modified gini index (Equation 1).
    Gini,
    /// §6 extension: add `alpha * gap / extent` to Equation 1, where `gap`
    /// is the empty distance around the candidate hyperplane — among
    /// near-equally pure candidates, prefer planes through sparsely
    /// populated space, which reduces false positives during contact
    /// search. Equation 1 is measured in points, so `alpha < 1` acts as a
    /// pure tie-break that never trades away a full point of purity.
    /// (A multiplicative variant was tried first and *hurt* NRemote by
    /// overriding purity; see EXPERIMENTS.md.)
    MarginAware {
        /// Strength of the margin preference (0 recovers plain gini).
        alpha: f64,
    },
}

/// Induction configuration.
#[derive(Debug, Clone, Copy)]
pub struct DtreeConfig {
    /// Stopping rule.
    pub stop: StopRule,
    /// Hyperplane scoring function.
    pub splitter: Splitter,
    /// Hard depth cap (safety net for adversarial inputs).
    pub max_depth: usize,
    /// Subtrees with at least this many points are induced in parallel.
    pub parallel_threshold: usize,
}

impl Default for DtreeConfig {
    fn default() -> Self {
        Self {
            stop: StopRule::Purity,
            splitter: Splitter::Gini,
            max_depth: 64,
            parallel_threshold: 4096,
        }
    }
}

impl DtreeConfig {
    /// Config for a purity-stopped contact-search tree.
    pub fn search_tree() -> Self {
        Self::default()
    }

    /// Config for the §4.2 DT-friendly correction tree.
    pub fn friendly_tree(max_p: usize, max_i: usize) -> Self {
        Self { stop: StopRule::MaxPMaxI { max_p, max_i }, ..Self::default() }
    }
}

/// Boxed tree used during induction; flattened into the arena afterwards.
enum BNode<const D: usize> {
    Internal { plane: AxisPlane, left: Box<BNode<D>>, right: Box<BNode<D>> },
    Leaf { part: u32, count: u32, pure: bool, others: Vec<u32>, bounds: Aabb<D> },
}

/// Per-node working set: the point indices sorted along each dimension,
/// plus the per-class counts.
struct NodeSet<const D: usize> {
    sorted: Vec<Vec<u32>>, // D arrays, same index set, each sorted by a dim
    counts: Vec<u32>,      // per-class counts (length k)
}

impl<const D: usize> NodeSet<D> {
    fn n(&self) -> usize {
        self.sorted[0].len()
    }

    fn majority(&self) -> u32 {
        self.counts.iter().enumerate().max_by_key(|&(_, c)| *c).map(|(i, _)| i as u32).unwrap_or(0)
    }

    /// Partitions with points in this set, other than the majority.
    fn minority_parts(&self) -> Vec<u32> {
        let maj = self.majority();
        self.counts
            .iter()
            .enumerate()
            .filter(|&(i, &c)| c > 0 && i as u32 != maj)
            .map(|(i, _)| i as u32)
            .collect()
    }

    fn is_pure(&self) -> bool {
        self.counts.iter().filter(|&&c| c > 0).count() <= 1
    }

    /// Tight bounding box of the set, read off the per-dimension
    /// orderings in O(D).
    fn bounds(&self, points: &[Point<D>]) -> Aabb<D> {
        let n = self.n();
        if n == 0 {
            return Aabb::empty();
        }
        let mut min = Point::origin();
        let mut max = Point::origin();
        for d in 0..D {
            min[d] = points[self.sorted[d][0] as usize][d];
            max[d] = points[self.sorted[d][n - 1] as usize][d];
        }
        Aabb::new(min, max)
    }
}

/// Induces a decision tree over `points` with partition `labels` in
/// `0..k`.
///
/// An empty point set yields a single-leaf tree labeled 0.
///
/// ```
/// use cip_dtree::{induce, DtreeConfig};
/// use cip_geom::Point;
///
/// // Two clusters of contact points, one per partition.
/// let points = vec![
///     Point::new([0.0, 0.0]),
///     Point::new([1.0, 0.0]),
///     Point::new([10.0, 0.0]),
///     Point::new([11.0, 0.0]),
/// ];
/// let labels = vec![0, 0, 1, 1];
/// let tree = induce(&points, &labels, 2, &DtreeConfig::search_tree());
///
/// // One decision hyperplane separates them: 3 nodes total.
/// assert_eq!(tree.num_nodes(), 3);
/// assert_eq!(tree.locate(&points[0]), 0);
/// assert_eq!(tree.locate(&points[3]), 1);
/// ```
///
/// # Panics
/// Panics if `labels.len() != points.len()` or any label is `>= k`.
pub fn induce<const D: usize>(
    points: &[Point<D>],
    labels: &[u32],
    k: usize,
    cfg: &DtreeConfig,
) -> DecisionTree<D> {
    induce_recorded(points, labels, k, cfg, &Recorder::disabled())
}

/// [`induce`] with a telemetry sink: emits a `dtree.induce` span and a
/// `dtree.split_evals` counter (one increment per candidate hyperplane
/// scored). [`DtreeConfig`] is `Copy`, so the recorder travels as a
/// separate argument instead of living in the config.
pub fn induce_recorded<const D: usize>(
    points: &[Point<D>],
    labels: &[u32],
    k: usize,
    cfg: &DtreeConfig,
    rec: &Recorder,
) -> DecisionTree<D> {
    assert_eq!(points.len(), labels.len(), "one label per point");
    assert!(labels.iter().all(|&l| (l as usize) < k), "label out of range");
    if points.is_empty() {
        return DecisionTree::from_nodes(vec![DtNode::Leaf {
            part: 0,
            count: 0,
            pure: true,
            others: Vec::new(),
            bounds: Aabb::empty(),
        }]);
    }

    let mut span = rec.span("dtree.induce").attr("n", points.len()).attr("k", k);

    // Root-level sort along each dimension — the only sorting ever done.
    let mut sorted: Vec<Vec<u32>> = Vec::with_capacity(D);
    for d in 0..D {
        let mut idx: Vec<u32> = (0..points.len() as u32).collect();
        idx.sort_unstable_by(|&a, &b| {
            points[a as usize][d]
                .partial_cmp(&points[b as usize][d])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        sorted.push(idx);
    }
    let mut counts = vec![0u32; k];
    for &l in labels {
        counts[l as usize] += 1;
    }

    let root = build(NodeSet::<D> { sorted, counts }, points, labels, k, cfg, 0, rec);

    // Flatten (preorder) into the arena.
    let mut nodes = Vec::new();
    flatten(&root, &mut nodes);
    span.set_attr("nodes", nodes.len());
    DecisionTree::from_nodes(nodes)
}

fn flatten<const D: usize>(b: &BNode<D>, out: &mut Vec<DtNode<D>>) -> u32 {
    let at = out.len() as u32;
    match b {
        BNode::Leaf { part, count, pure, others, bounds } => {
            out.push(DtNode::Leaf {
                part: *part,
                count: *count,
                pure: *pure,
                others: others.clone(),
                bounds: *bounds,
            });
        }
        BNode::Internal { plane, left, right } => {
            out.push(DtNode::Internal { plane: *plane, left: 0, right: 0 });
            let l = flatten(left, out);
            let r = flatten(right, out);
            if let DtNode::Internal { left: lf, right: rf, .. } = &mut out[at as usize] {
                *lf = l;
                *rf = r;
            }
        }
    }
    at
}

#[allow(clippy::too_many_arguments)]
fn build<const D: usize>(
    set: NodeSet<D>,
    points: &[Point<D>],
    labels: &[u32],
    k: usize,
    cfg: &DtreeConfig,
    depth: usize,
    rec: &Recorder,
) -> BNode<D> {
    let n = set.n();
    let pure = set.is_pure();

    let make_leaf = |set: &NodeSet<D>| BNode::Leaf {
        part: set.majority(),
        count: set.n() as u32,
        pure: set.is_pure(),
        others: set.minority_parts(),
        bounds: set.bounds(points),
    };

    if depth >= cfg.max_depth || n <= 1 {
        return make_leaf(&set);
    }
    let want_split = match cfg.stop {
        StopRule::Purity => !pure,
        StopRule::MaxPMaxI { max_p, max_i } => {
            if pure {
                n > max_p
            } else {
                n >= max_i
            }
        }
    };
    if !want_split {
        return make_leaf(&set);
    }

    // Choose the hyperplane: gini sweep for impure nodes, median split
    // (longest extent) for pure-but-too-large nodes.
    let plane = if pure {
        median_split(&set, points)
    } else {
        best_gini_split(&set, points, labels, k, cfg.splitter, rec)
            .or_else(|| median_split(&set, points))
    };
    let Some(plane) = plane else {
        return make_leaf(&set); // fully degenerate coordinates
    };

    let (left_set, right_set) = partition_set(&set, points, labels, k, &plane);
    if left_set.n() == 0 || right_set.n() == 0 {
        return make_leaf(&set); // numerically degenerate plane
    }
    drop(set);

    let fork = left_set.n() + right_set.n() >= cfg.parallel_threshold;
    let left = || build(left_set, points, labels, k, cfg, depth + 1, rec);
    let right = || build(right_set, points, labels, k, cfg, depth + 1, rec);
    let (l, r) = if fork { cip_base::par::join(left, right) } else { (left(), right()) };
    BNode::Internal { plane, left: Box::new(l), right: Box::new(r) }
}

/// Sweeps every dimension, scoring candidate planes with Equation 1 (plus
/// the optional margin factor) in O(1) per position.
fn best_gini_split<const D: usize>(
    set: &NodeSet<D>,
    points: &[Point<D>],
    labels: &[u32],
    k: usize,
    splitter: Splitter,
    rec: &Recorder,
) -> Option<AxisPlane> {
    let n = set.n();
    let mut best: Option<(f64, AxisPlane)> = None;
    let mut lcnt = vec![0i64; k];
    let mut evals = 0u64;

    #[allow(clippy::needless_range_loop)] // d indexes sorted AND point coords
    for d in 0..D {
        let order = &set.sorted[d];
        let lo = points[order[0] as usize][d];
        let hi = points[order[n - 1] as usize][d];
        if lo == hi {
            continue; // constant dimension
        }
        let extent = hi - lo;

        lcnt.iter_mut().for_each(|c| *c = 0);
        // Sums of squared class counts on each side.
        let mut suml2 = 0i64;
        let mut sumr2: i64 = set.counts.iter().map(|&c| (c as i64) * (c as i64)).sum();

        for i in 0..n - 1 {
            let idx = order[i] as usize;
            let c = labels[idx] as usize;
            // Move one point of class c from right to left:
            // l_c² grows by 2 l_c + 1, r_c² shrinks by 2 r_c - 1.
            let l = lcnt[c];
            let r = set.counts[c] as i64 - l;
            suml2 += 2 * l + 1;
            sumr2 -= 2 * r - 1;
            lcnt[c] = l + 1;

            let here = points[idx][d];
            let next = points[order[i + 1] as usize][d];
            if here == next {
                continue; // no plane can separate equal coordinates
            }
            let mut score = (suml2 as f64).sqrt() + (sumr2 as f64).sqrt();
            if let Splitter::MarginAware { alpha } = splitter {
                score += alpha * (next - here) / extent;
            }
            evals += 1;
            if best.as_ref().is_none_or(|(bs, _)| score > *bs) {
                best = Some((score, AxisPlane::new(d, here)));
            }
        }
    }
    // One counter update per node, not per candidate: keeps the disabled
    // path at a single branch per *call* rather than per position.
    rec.add("dtree.split_evals", evals);
    best.map(|(_, p)| p)
}

/// Median split along the longest extent with a valid separating position —
/// used for pure nodes that exceed `max_p` (where Equation 1 is constant).
fn median_split<const D: usize>(set: &NodeSet<D>, points: &[Point<D>]) -> Option<AxisPlane> {
    let n = set.n();
    // Dims ordered by extent, descending.
    let mut dims: Vec<(f64, usize)> = (0..D)
        .map(|d| {
            let order = &set.sorted[d];
            let lo = points[order[0] as usize][d];
            let hi = points[order[n - 1] as usize][d];
            (hi - lo, d)
        })
        .collect();
    dims.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));

    for &(extent, d) in &dims {
        if extent <= 0.0 {
            continue;
        }
        let order = &set.sorted[d];
        let mid = n / 2;
        // Nearest valid separating position to the median.
        let mut candidate: Option<usize> = None;
        for off in 0..n {
            let fwd = mid + off;
            if fwd + 1 < n && points[order[fwd] as usize][d] < points[order[fwd + 1] as usize][d] {
                candidate = Some(fwd);
                break;
            }
            if off > 0 && off <= mid {
                let back = mid - off;
                if points[order[back] as usize][d] < points[order[back + 1] as usize][d] {
                    candidate = Some(back);
                    break;
                }
            }
        }
        if let Some(i) = candidate {
            return Some(AxisPlane::new(d, points[order[i] as usize][d]));
        }
    }
    None
}

/// Stably partitions every per-dimension ordering by the plane, preserving
/// sortedness on both sides, and recomputes the class counts.
fn partition_set<const D: usize>(
    set: &NodeSet<D>,
    points: &[Point<D>],
    labels: &[u32],
    k: usize,
    plane: &AxisPlane,
) -> (NodeSet<D>, NodeSet<D>) {
    let mut lsorted = Vec::with_capacity(D);
    let mut rsorted = Vec::with_capacity(D);
    for d in 0..D {
        let mut l = Vec::new();
        let mut r = Vec::new();
        for &i in &set.sorted[d] {
            match plane.point_side(&points[i as usize]) {
                Side::Left => l.push(i),
                _ => r.push(i),
            }
        }
        lsorted.push(l);
        rsorted.push(r);
    }
    let mut lcounts = vec![0u32; k];
    for &i in &lsorted[0] {
        lcounts[labels[i as usize] as usize] += 1;
    }
    let rcounts: Vec<u32> = set.counts.iter().zip(lcounts.iter()).map(|(&t, &l)| t - l).collect();
    (NodeSet { sorted: lsorted, counts: lcounts }, NodeSet { sorted: rsorted, counts: rcounts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cip_geom::Aabb;

    /// Three horizontal bands of points labeled 0, 1, 2.
    fn banded_points() -> (Vec<Point<2>>, Vec<u32>) {
        let mut pts = Vec::new();
        let mut labels = Vec::new();
        for band in 0..3u32 {
            for i in 0..10 {
                pts.push(Point::new([i as f64, band as f64 * 10.0 + (i % 3) as f64]));
                labels.push(band);
            }
        }
        (pts, labels)
    }

    #[test]
    fn pure_tree_on_banded_data_is_tiny() {
        let (pts, labels) = banded_points();
        let t = induce(&pts, &labels, 3, &DtreeConfig::search_tree());
        // Two horizontal cuts suffice: 5 nodes.
        assert_eq!(t.num_leaves(), 3, "tree has {} nodes", t.num_nodes());
        assert_eq!(t.num_nodes(), 5);
        // Every point lands in a leaf of its own label.
        for (p, &l) in pts.iter().zip(labels.iter()) {
            assert_eq!(t.locate(p), l);
        }
    }

    #[test]
    fn all_leaves_pure_under_purity_rule() {
        // Checkerboard-ish labels: tree must still reach purity.
        let mut pts = Vec::new();
        let mut labels = Vec::new();
        for i in 0..8 {
            for j in 0..8 {
                pts.push(Point::new([i as f64, j as f64]));
                labels.push(((i / 2 + j / 2) % 2) as u32);
            }
        }
        let t = induce(&pts, &labels, 2, &DtreeConfig::search_tree());
        for (p, &l) in pts.iter().zip(labels.iter()) {
            assert_eq!(t.locate(p), l, "point {p:?}");
        }
        let regions = t.leaf_regions(&Aabb::from_points(&pts));
        assert!(regions.iter().all(|r| r.pure));
    }

    #[test]
    fn query_box_returns_superset_of_contained_labels() {
        let (pts, labels) = banded_points();
        let t = induce(&pts, &labels, 3, &DtreeConfig::search_tree());
        let q = Aabb::new(Point::new([2.0, 0.0]), Point::new([5.0, 12.0]));
        let mut hits = Vec::new();
        t.query_box(&q, &mut hits);
        for (p, &l) in pts.iter().zip(labels.iter()) {
            if q.contains_point(p) {
                assert!(hits.contains(&l), "label {l} owns an in-box point");
            }
        }
    }

    #[test]
    fn diagonal_boundary_blows_up_then_max_rules_shrink() {
        // Figure 2 scenario: diagonal 2-way split of a grid.
        let mut pts = Vec::new();
        let mut labels = Vec::new();
        let n = 16;
        for i in 0..n {
            for j in 0..n {
                pts.push(Point::new([i as f64, j as f64]));
                labels.push(u32::from(i + j >= n));
            }
        }
        let pure = induce(&pts, &labels, 2, &DtreeConfig::search_tree());
        // The diagonal forces many fine cells: strictly more leaves than a
        // straight boundary would need.
        assert!(pure.num_leaves() > 8, "diagonal should need many leaves");
        // The friendly rule with max_i collapses small impure cells.
        let friendly = induce(&pts, &labels, 2, &DtreeConfig::friendly_tree(256, 32));
        assert!(
            friendly.num_nodes() < pure.num_nodes(),
            "friendly {} vs pure {}",
            friendly.num_nodes(),
            pure.num_nodes()
        );
    }

    #[test]
    fn max_p_forces_splitting_of_large_pure_regions() {
        // One label everywhere: purity rule -> single leaf; max_p = 16
        // forces median splits into <= 16-point boxes.
        let mut pts = Vec::new();
        for i in 0..8 {
            for j in 0..8 {
                pts.push(Point::new([i as f64, j as f64]));
            }
        }
        let labels = vec![0u32; 64];
        let pure = induce(&pts, &labels, 1, &DtreeConfig::search_tree());
        assert_eq!(pure.num_nodes(), 1);
        let forced = induce(&pts, &labels, 1, &DtreeConfig::friendly_tree(16, 4));
        assert!(forced.num_leaves() >= 4);
        let regions = forced.leaf_regions(&Aabb::from_points(&pts));
        assert!(regions.iter().all(|r| r.count <= 16), "{regions:?}");
    }

    #[test]
    fn duplicate_coordinates_handled() {
        // Many points stacked on two x positions.
        let pts = vec![
            Point::new([0.0, 0.0]),
            Point::new([0.0, 0.0]),
            Point::new([1.0, 0.0]),
            Point::new([1.0, 0.0]),
        ];
        let labels = vec![0, 0, 1, 1];
        let t = induce(&pts, &labels, 2, &DtreeConfig::search_tree());
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.locate(&pts[0]), 0);
        assert_eq!(t.locate(&pts[2]), 1);
    }

    #[test]
    fn identical_points_with_mixed_labels_become_majority_leaf() {
        let pts = vec![Point::new([1.0, 1.0]); 5];
        let labels = vec![0, 1, 1, 1, 0];
        let t = induce(&pts, &labels, 2, &DtreeConfig::search_tree());
        assert_eq!(t.num_nodes(), 1);
        assert_eq!(t.locate(&pts[0]), 1, "majority label wins");
    }

    #[test]
    fn empty_input_yields_single_leaf() {
        let t = induce::<2>(&[], &[], 4, &DtreeConfig::search_tree());
        assert_eq!(t.num_nodes(), 1);
    }

    #[test]
    fn margin_aware_prefers_wide_gaps() {
        // Two clusters, classes separable at x=4.5 (gap 9) or x=0.5/8.5
        // (gap 1): both gini-optimal boundaries exist between classes, but
        // margin-aware must pick the wide gap.
        let pts = vec![
            Point::new([0.0, 0.0]),
            Point::new([1.0, 0.0]),
            Point::new([9.0, 0.0]),
            Point::new([10.0, 0.0]),
        ];
        let labels = vec![0, 0, 1, 1];
        let t = induce(
            &pts,
            &labels,
            2,
            &DtreeConfig { splitter: Splitter::MarginAware { alpha: 1.0 }, ..Default::default() },
        );
        // Root plane must be at x = 1 (the last left coordinate before the
        // wide gap).
        match &t.nodes()[0] {
            DtNode::Internal { plane, .. } => {
                assert_eq!(plane.dim, 0);
                assert_eq!(plane.coord, 1.0);
            }
            _ => panic!("expected internal root"),
        }
    }

    #[test]
    fn three_dimensional_induction() {
        let mut pts = Vec::new();
        let mut labels = Vec::new();
        for i in 0..4 {
            for j in 0..4 {
                for l in 0..4 {
                    pts.push(Point::new([i as f64, j as f64, l as f64]));
                    labels.push(u32::from(l >= 2));
                }
            }
        }
        let t = induce(&pts, &labels, 2, &DtreeConfig::search_tree());
        assert_eq!(t.num_nodes(), 3, "single z-cut suffices");
        for (p, &l) in pts.iter().zip(labels.iter()) {
            assert_eq!(t.locate(p), l);
        }
    }

    #[test]
    fn parallel_and_serial_agree() {
        let (pts, labels) = banded_points();
        let serial = induce(
            &pts,
            &labels,
            3,
            &DtreeConfig { parallel_threshold: usize::MAX, ..Default::default() },
        );
        let parallel =
            induce(&pts, &labels, 3, &DtreeConfig { parallel_threshold: 2, ..Default::default() });
        assert_eq!(serial.num_nodes(), parallel.num_nodes());
        for p in &pts {
            assert_eq!(serial.locate(p), parallel.locate(p));
        }
    }
}
