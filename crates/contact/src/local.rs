//! Local search: proximity-based candidate contact pairs.
//!
//! The paper's scope is the *global* search phase; this module supplies the
//! orthogonal local step so the library is usable end-to-end: among a set
//! of surface elements (approximated by their bounding boxes, as in the
//! paper's evaluation), find the pairs from *different bodies* whose
//! inflated boxes intersect. The search is body-aware from the start: the
//! elements are first culled to the cross-body contact zone (`hull.rs`
//! holds the helper and the exactness argument), and only that zone — a
//! few percent of a surface in a penetration problem — is swept: sorted by
//! the lower end of its interval on one axis, each element is tested
//! against the elements whose intervals start before its own ends.
//!
//! The sweep is exact for the same reason the cull is: its intervals are
//! widened by `reach = max(t, 0)` on both ends, and by monotone rounding a
//! reported pair has `fl(a.min − reach) ≤ fl(a.min − t) ≤ b.max ≤
//! fl(b.max + reach)` and `fl(b.min − reach) ≤ b.min ≤ fl(a.max + t) ≤
//! fl(a.max + reach)` on every axis, so the two widened intervals meet and
//! the scan from whichever sorts first reaches the other. The axis changes
//! how many candidates are tested, never which pairs are reported.

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
    /// only ones that entered the sweep.
    pub active: usize,
}

/// Finds all candidate contact pairs among `boxes`, pairing only elements
/// of different `body` ids (self-contact within one body is excluded, as
/// in penetration problems where a body's own faces stay connected), whose
/// boxes inflated by `tolerance` intersect.
///
/// The predicate is [`search_contact_zone`]'s, and holds as stated for a
/// negative `tolerance` too: the lower-index box shrinks, and may invert.
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
/// `boxes[b]`, for any `tolerance`, negative ones included. Elements
/// outside the contact zone cannot satisfy that (the argument is in
/// `hull.rs`), so only the zone is swept.
pub fn search_contact_zone<const D: usize>(
    boxes: &[Aabb<D>],
    body: &[u16],
    tolerance: f64,
) -> ZoneSearch {
    assert_eq!(boxes.len(), body.len(), "one body id per element");
    // A negative tolerance shrinks the query inside its box; culling and
    // sweeping with zero then keep a superset of what it can reach.
    let reach = tolerance.max(0.0);
    let items = || body.iter().copied().zip(boxes.iter().copied());
    let all = BodyHulls::of(items(), reach);
    let hulls = all.facing(&all);
    if hulls.len() < 2 {
        return ZoneSearch { pairs: Vec::new(), active: 0 };
    }
    let active = hulls.zone(&hulls, items(), reach);
    // Sweep along the axis the zone spreads most along: the fewer
    // intervals overlap there, the fewer candidates each row scans.
    let spread = active.iter().fold(Aabb::empty(), |h, &e| h.union(&boxes[e as usize]));
    let axis = (0..D).max_by(|&x, &y| spread.extent(x).total_cmp(&spread.extent(y))).unwrap_or(0);
    let mut rows: Vec<Row<D>> = active
        .iter()
        .map(|&e| {
            let bbox = boxes[e as usize];
            let (lo, hi) = (bbox.min[axis] - reach, bbox.max[axis] + reach);
            Row { lo, hi, e, body: body[e as usize], bbox }
        })
        .collect();
    rows.sort_unstable_by(|x, y| x.lo.total_cmp(&y.lo).then(x.e.cmp(&y.e)));
    let mut pairs = par::flat_parts(0..rows.len(), |_, part| {
        let mut pairs = Vec::new();
        for i in part {
            let r = &rows[i];
            for s in rows[i + 1..].iter().take_while(|s| s.lo <= r.hi) {
                if s.body == r.body {
                    continue;
                }
                let (a, b) = if r.e < s.e { (r, s) } else { (s, r) };
                if a.bbox.inflate(tolerance).intersects(&b.bbox) {
                    pairs.push(ContactPair { a: a.e, b: b.e });
                }
            }
        }
        pairs
    });
    pairs.sort_unstable();
    ZoneSearch { pairs, active: active.len() }
}

/// One active element in the sweep: its interval on the sweep axis,
/// widened by the reach, and what the pair test needs, kept together so
/// the forward scan reads one array.
struct Row<const D: usize> {
    lo: f64,
    hi: f64,
    /// The caller's index of the element.
    e: u32,
    body: u16,
    bbox: Aabb<D>,
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
