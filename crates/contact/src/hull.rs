//! Per-body hulls: the cull in front of the broad phase.
//!
//! Contact is only ever reported between *different* bodies, and in a
//! penetration problem the bodies touch in a small zone, so most of a
//! surface can be rejected against a handful of boxes before the sweep
//! runs: an element can only pair with an element of body `Y` if it comes
//! within the capture distance of `Y`'s hull (the AABB of `Y`'s non-empty
//! boxes). The cost is `O(n · B)` with `B` the number of bodies *present*
//! — the hulls live in a short list sorted by body id, never in a table
//! indexed by the raw `u16`.
//!
//! **Both sides are inflated.** The searches report `(a, b)` when
//! `a.inflate(t)` intersects `b`, i.e. per axis `fl(a.min − t) ≤ b.max`
//! and `b.min ≤ fl(a.max + t)`. The mirrored test on `b` —
//! `a.min ≤ fl(b.max + t)` and `fl(b.min − t) ≤ a.max` — can disagree with
//! it by an ulp (`0.4 ≤ fl(0.1 + 0.3)` holds, `fl(0.4 − 0.3) ≤ 0.1` does
//! not), so culling `b` against an un-inflated hull of `a`'s body could
//! drop the `b` of a pair the search reports. Testing the *inflated* box
//! against the *inflated* hull cannot: with `t ≥ 0`, `x ↦ fl(x ± t)` is
//! monotone and `fl(x − t) ≤ x ≤ fl(x + t)`, and a hull `H ⊇ b` has
//! `H.min ≤ b.min`, `b.max ≤ H.max`, hence for a reported pair
//!
//! - `a` is kept: `fl(a.min − t) ≤ b.max ≤ H_b.max ≤ fl(H_b.max + t)` and
//!   `fl(H_b.min − t) ≤ H_b.min ≤ b.min ≤ fl(a.max + t)`;
//! - `b` is kept: `fl(b.min − t) ≤ b.min ≤ fl(a.max + t) ≤ fl(H_a.max + t)`
//!   and `fl(H_a.min − t) ≤ fl(a.min − t) ≤ b.max ≤ fl(b.max + t)`;
//! - the two hulls face each other by the same chain with `a`, `b`
//!   replaced by their hulls, so neither body is skipped.
//!
//! Every pair the un-culled search reports therefore has both ends in the
//! culled set, and the culled search — the same test over fewer boxes —
//! reports exactly the same pairs.

use cip_geom::Aabb;

/// One hull per distinct body, each inflated by the capture distance.
#[derive(Debug, Clone)]
pub(crate) struct BodyHulls<const D: usize> {
    /// `(body, inflated hull)`, sorted by body id.
    hulls: Vec<(u16, Aabb<D>)>,
}

impl<const D: usize> BodyHulls<D> {
    /// The hulls of `items` — `(body, box)`, empty boxes skipped — inflated
    /// by `reach` (≥ 0).
    pub(crate) fn of(items: impl IntoIterator<Item = (u16, Aabb<D>)>, reach: f64) -> Self {
        let mut hulls: Vec<(u16, Aabb<D>)> = Vec::new();
        for (body, b) in items {
            if b.is_empty() {
                continue;
            }
            let i = match hulls.binary_search_by_key(&body, |h| h.0) {
                Ok(i) => i,
                Err(i) => {
                    hulls.insert(i, (body, Aabb::empty()));
                    i
                }
            };
            hulls[i].1 = hulls[i].1.union(&b);
        }
        for h in &mut hulls {
            h.1 = h.1.inflate(reach);
        }
        Self { hulls }
    }

    /// The hulls that meet the hull of a *different* body in `other`: the
    /// rest belong to bodies no search can pair, and are skipped wholesale.
    pub(crate) fn facing(&self, other: &Self) -> Self {
        let hulls = self.hulls.iter().filter(|(b, h)| other.reaches(*b, h)).copied().collect();
        Self { hulls }
    }

    /// Number of bodies with a hull.
    pub(crate) fn len(&self) -> usize {
        self.hulls.len()
    }

    /// The contact zone of `items` (`(body, box)`, hulled in `self`)
    /// against the bodies of `other`: the ascending indices of the
    /// non-empty boxes whose body still has a hull here and which, inflated
    /// by `reach`, meet the hull of a different body in `other`.
    pub(crate) fn zone(
        &self,
        other: &Self,
        items: impl IntoIterator<Item = (u16, Aabb<D>)>,
        reach: f64,
    ) -> Vec<u32> {
        items
            .into_iter()
            .enumerate()
            .filter(|(_, (body, b))| {
                !b.is_empty() && self.has(*body) && other.reaches(*body, &b.inflate(reach))
            })
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Whether `body` has a hull here.
    fn has(&self, body: u16) -> bool {
        self.hulls.binary_search_by_key(&body, |h| h.0).is_ok()
    }

    /// Whether `inflated` — a box of `body`, inflated by the same reach —
    /// meets the hull of some other body.
    fn reaches(&self, body: u16, inflated: &Aabb<D>) -> bool {
        self.hulls.iter().any(|(b, h)| *b != body && h.intersects(inflated))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cip_geom::Point;

    fn span(lo: f64, hi: f64) -> Aabb<1> {
        Aabb::new(Point::new([lo]), Point::new([hi]))
    }

    #[test]
    fn hulls_are_sorted_by_sparse_body_id_and_skip_empty_boxes() {
        let items = [
            (65535u16, span(4.0, 5.0)),
            (0, span(0.0, 1.0)),
            (7, Aabb::empty()),
            (65535, span(8.0, 9.0)),
            (0, span(-1.0, 0.5)),
        ];
        let h = BodyHulls::of(items, 0.5);
        assert_eq!(h.hulls, vec![(0, span(-1.5, 1.5)), (65535, span(3.5, 9.5))]);
        assert!(h.has(0) && h.has(65535) && !h.has(7));
    }

    #[test]
    fn facing_drops_bodies_out_of_reach_of_every_other_body() {
        let items = [(1u16, span(0.0, 1.0)), (2, span(1.5, 2.0)), (3, span(10.0, 11.0))];
        let all = BodyHulls::of(items, 0.25);
        let live = all.facing(&all);
        assert_eq!(live.len(), 2);
        assert!(live.has(1) && live.has(2) && !live.has(3));
        // A box never reaches its own body's hull.
        assert!(!live.reaches(1, &span(0.0, 1.0)));
        assert!(live.reaches(2, &span(0.0, 1.0)));
        // The zone: in reach of another body, of a body still live, not empty.
        let more =
            [(1u16, span(0.0, 0.5)), (1, span(0.9, 1.0)), (1, Aabb::empty()), (3, span(1.4, 1.6))];
        assert_eq!(live.zone(&live, items.into_iter().chain(more), 0.25), vec![0, 1, 4]);
    }
}
