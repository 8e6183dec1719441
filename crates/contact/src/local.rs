//! Local search: proximity-based candidate contact pairs.
//!
//! The paper's scope is the *global* search phase; this module supplies the
//! orthogonal local step so the library is usable end-to-end: among a set
//! of surface elements (approximated by their bounding boxes, as in the
//! paper's evaluation), find the pairs from *different bodies* whose
//! inflated boxes intersect. The search is body-aware from the start: the
//! elements are first culled to the cross-body contact zone (`hull.rs`
//! holds the helper and the exactness argument), and only that zone — a
//! few percent of a surface in a penetration problem — goes through the
//! uniform-grid broad phase.

use crate::grid::UniformGrid;
use crate::hull::BodyHulls;
use cip_base::par;
use cip_geom::Aabb;

/// A candidate contact pair of surface elements (indices into the caller's
/// surface-element array, with `a < b`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ContactPair {
    /// First element index.
    pub a: u32,
    /// Second element index.
    pub b: u32,
}

/// What [`search_contact_zone`] found, and how much of the input it had to
/// look at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZoneSearch {
    /// The candidate pairs, sorted ascending.
    pub pairs: Vec<ContactPair>,
    /// Elements within the capture distance of another body's hull — the
    /// only ones that entered the grid.
    pub active: usize,
}

/// Finds all candidate contact pairs among `boxes`, pairing only elements
/// of different `body` ids (self-contact within one body is excluded, as
/// in penetration problems where a body's own faces stay connected), whose
/// boxes inflated by `tolerance` intersect.
///
/// Returns pairs sorted ascending. Deterministic.
pub fn find_contact_pairs<const D: usize>(
    boxes: &[Aabb<D>],
    body: &[u16],
    tolerance: f64,
) -> Vec<ContactPair> {
    search_contact_zone(boxes, body, tolerance).pairs
}

/// [`find_contact_pairs`], also reporting the size of the contact zone.
///
/// The pair `(a, b)`, `a < b`, is reported when the bodies differ, both
/// boxes are non-empty and `boxes[a].inflate(tolerance)` intersects
/// `boxes[b]`. Elements outside the contact zone cannot satisfy that (the
/// argument is in `hull.rs`), so the grid is built over the zone
/// alone and only the zone queries it.
pub fn search_contact_zone<const D: usize>(
    boxes: &[Aabb<D>],
    body: &[u16],
    tolerance: f64,
) -> ZoneSearch {
    assert_eq!(boxes.len(), body.len(), "one body id per element");
    // A negative tolerance shrinks the query inside its box; culling with
    // zero then keeps a superset of what it can reach.
    let reach = tolerance.max(0.0);
    let items = || body.iter().copied().zip(boxes.iter().copied());
    let all = BodyHulls::of(items(), reach);
    let hulls = all.facing(&all);
    if hulls.len() < 2 {
        return ZoneSearch { pairs: Vec::new(), active: 0 };
    }
    // Ascending caller indices, so `b > a` means the same in the zone.
    let active = hulls.zone(&hulls, items(), reach);
    let zone_boxes: Vec<Aabb<D>> = active.iter().map(|&e| boxes[e as usize]).collect();
    let zone_body: Vec<u16> = active.iter().map(|&e| body[e as usize]).collect();
    let grid = UniformGrid::build_auto(&zone_boxes);
    // One (stamp scratch, candidate buffer) per part, so the hot query
    // loop does not allocate per element.
    let mut pairs = par::flat_parts(0..active.len(), |_, zone| {
        let (mut scratch, mut out, mut pairs) = (grid.scratch(), Vec::new(), Vec::new());
        for a in zone {
            let q = zone_boxes[a].inflate(tolerance);
            let mine = zone_body[a];
            grid.query_where(&q, &mut scratch, &mut out, |b| {
                b as usize > a && zone_body[b as usize] != mine
            });
            pairs.extend(out.iter().map(|&b| ContactPair { a: active[a], b: active[b as usize] }));
        }
        pairs
    });
    pairs.sort_unstable();
    ZoneSearch { pairs, active: active.len() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cip_geom::Point;

    fn unit_box(x: f64, y: f64) -> Aabb<2> {
        Aabb::new(Point::new([x, y]), Point::new([x + 1.0, y + 1.0]))
    }

    #[test]
    fn touching_cross_body_boxes_pair_up() {
        let boxes = vec![unit_box(0.0, 0.0), unit_box(1.05, 0.0), unit_box(10.0, 0.0)];
        let body = vec![0, 1, 1];
        let pairs = find_contact_pairs(&boxes, &body, 0.1);
        assert_eq!(pairs, vec![ContactPair { a: 0, b: 1 }]);
    }

    #[test]
    fn same_body_never_pairs() {
        let boxes = vec![unit_box(0.0, 0.0), unit_box(0.5, 0.0)];
        let body = vec![3, 3];
        assert!(find_contact_pairs(&boxes, &body, 0.5).is_empty());
    }

    #[test]
    fn tolerance_controls_capture_distance() {
        let boxes = vec![unit_box(0.0, 0.0), unit_box(1.5, 0.0)];
        let body = vec![0, 1];
        assert!(find_contact_pairs(&boxes, &body, 0.1).is_empty());
        assert_eq!(find_contact_pairs(&boxes, &body, 0.6).len(), 1);
    }

    #[test]
    fn pairs_are_sorted_and_unique() {
        let boxes: Vec<Aabb<2>> = (0..6).map(|i| unit_box(i as f64 * 0.5, 0.0)).collect();
        let body = vec![0, 1, 0, 1, 0, 1];
        let pairs = find_contact_pairs(&boxes, &body, 0.01);
        let mut sorted = pairs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(pairs, sorted);
        assert!(pairs.iter().all(|p| p.a < p.b));
    }
}
