//! The local searches against an independent oracle.
//!
//! Every "distributed == serial" check in the tree compares
//! `find_contact_pairs` with itself, so a pair the body-aware cull wrongly
//! dropped would vanish from both sides. Here the searches are held to
//! `common::brute_force_pairs`, which tries every combination and shares
//! no code with them: seeded sweeps in 2-D
//! and 3-D over 1–6 bodies with sparse ids, empty boxes, clouds that
//! overlap, touch or sit apart, and coordinates on the 0.1 lattice, where
//! `x + t` and `y − t` round differently — the case the cull's two-sided
//! inflation and the sweep's widened intervals exist for — with the gap
//! on every axis, and the sweep run both along it and across it.
//! Tolerances range from negative (the query box shrinks, and may invert)
//! to wider than the surface, `f64::INFINITY` included.

mod common;

use cip::contact::{find_contact_pairs, search_contact_zone, ContactPair};
use cip::geom::{Aabb, Point};
use cip_transport::splitmix64;
use common::brute_force_pairs;
use std::array::from_fn;

/// Sparse body ids, the ends of `u16` among them: a table indexed by the
/// raw id would show.
const BODY_IDS: [u16; 6] = [0, 7, 65535, 1, 300, 32768];

/// A seeded stream of small integers (the `splitmix64(seed, i)` idiom of
/// the fate streams).
struct Draws {
    seed: u64,
    i: u64,
}

impl Draws {
    fn below(&mut self, n: i64) -> i64 {
        self.i += 1;
        (splitmix64(self.seed, self.i) % n as u64) as i64
    }
}

/// `k / 10`: a coordinate on the 0.1 lattice.
fn tenth(k: i64) -> f64 {
    k as f64 / 10.0
}

/// A random surface: up to 90 boxes of 1–6 bodies, each body a cloud round
/// its own centre (the draw of `spread` decides whether the clouds, and so
/// the hulls, coincide, overlap or sit apart), one box in twelve empty,
/// and a lattice tolerance, negative ones (the query box shrinks, and may
/// invert) among them.
fn random_surface<const D: usize>(d: &mut Draws) -> (Vec<Aabb<D>>, Vec<u16>, f64) {
    let bodies = 1 + d.below(6) as usize;
    let spread = [1, 15, 40, 120][d.below(4) as usize];
    let centres: Vec<[i64; D]> = (0..bodies).map(|_| from_fn(|_| d.below(spread))).collect();
    let tolerance = [0.0, 0.1, 0.3, 0.4, 1.0, -0.1, -0.3][d.below(7) as usize];
    let n = d.below(90) as usize;
    let (mut boxes, mut body) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for _ in 0..n {
        let b = d.below(bodies as i64) as usize;
        body.push(BODY_IDS[b]);
        if d.below(12) == 0 {
            boxes.push(Aabb::empty());
            continue;
        }
        let lo: [i64; D] = from_fn(|ax| centres[b][ax] + d.below(30));
        let hi: [i64; D] = from_fn(|ax| lo[ax] + d.below(12));
        boxes.push(Aabb::new(Point::new(lo.map(tenth)), Point::new(hi.map(tenth))));
    }
    (boxes, body, tolerance)
}

/// Runs `cases` seeded surfaces through both searches; returns (pairs
/// found, surfaces the cull shrank, surfaces it kept whole).
fn sweep_pairs<const D: usize>(cases: u64) -> (usize, usize, usize) {
    let (mut found, mut shrunk, mut whole) = (0, 0, 0);
    for seed in 0..cases {
        let mut d = Draws { seed: seed ^ common::env_seed(), i: 0 };
        let (boxes, body, tolerance) = random_surface::<D>(&mut d);
        let zone = search_contact_zone(&boxes, &body, tolerance);
        let oracle = brute_force_pairs(&boxes, &body, tolerance);
        assert_eq!(zone.pairs, oracle, "{D}-D seed {seed}, tolerance {tolerance}");
        assert_eq!(find_contact_pairs(&boxes, &body, tolerance), oracle);
        let live = boxes.iter().filter(|b| !b.is_empty()).count();
        assert!(zone.active <= live, "an empty box is never active");
        found += oracle.len();
        shrunk += usize::from(zone.active < live);
        whole += usize::from(zone.active == live && live > 0);
    }
    (found, shrunk, whole)
}

#[test]
fn pair_search_equals_the_brute_force_oracle_on_seeded_surfaces() {
    for (found, shrunk, whole) in [sweep_pairs::<2>(400), sweep_pairs::<3>(400)] {
        // The sweep must reach both sides of the cull, and find contact.
        assert!(found > 1000, "only {found} pairs over the sweep");
        assert!(shrunk > 50 && whole > 20, "cull shrank {shrunk} surfaces, kept {whole} whole");
    }
}

/// Two unit boxes a lattice distance apart along `axis` (overlapping on
/// the others), `a` of body 0 ending at `a_edge`, `b` of body 65535
/// starting (`above`) or ending (below) at `b_edge`; plus one far box per
/// body, so that neither hull is just its box. With `far_axis == axis` the
/// far boxes sit far out along the gap and stay out of the contact zone,
/// which then spreads most along `axis`: the sweep runs along the gap.
/// Otherwise they are `a` and `b` moved out along `far_axis`, `a`'s copy
/// half as far, inside `b`'s hull but touching nothing: it joins the zone
/// whenever `a` does and stretches it along `far_axis`, so the sweep runs
/// across the gap. `b_first` swaps the index order — and with it which box
/// the search inflates.
fn facing_boxes<const D: usize>(
    axis: usize,
    far_axis: usize,
    a_edge: i64,
    b_edge: i64,
    above: bool,
    b_first: bool,
) -> (Vec<Aabb<D>>, Vec<u16>) {
    let placed = |lo: i64, hi: i64, out: i64| {
        let (mut min, mut max) = ([0.0; D], [1.0; D]);
        (min[axis], max[axis]) = (tenth(lo), tenth(hi));
        (min[far_axis], max[far_axis]) = (min[far_axis] + tenth(out), max[far_axis] + tenth(out));
        Aabb::new(Point::new(min), Point::new(max))
    };
    let (a, b) = if above {
        ((a_edge - 10, a_edge), (b_edge, b_edge + 10))
    } else {
        ((a_edge, a_edge + 10), (b_edge - 10, b_edge))
    };
    let (far_a, far_b) = if far_axis == axis {
        (placed(-900, -890, 0), placed(900, 910, 0))
    } else {
        (placed(a.0, a.1, 450), placed(b.0, b.1, 900))
    };
    let (a, b) = (placed(a.0, a.1, 0), placed(b.0, b.1, 0));
    if b_first {
        (vec![far_a, b, a, far_b], vec![0, 65535, 0, 65535])
    } else {
        (vec![far_a, a, b, far_b], vec![0, 0, 65535, 65535])
    }
}

/// [`facing_boxes`] on every (facing axis, far axis) in `D` dimensions,
/// held to the oracle; returns the pairs found (0 or 1 per layout).
fn facing_on_every_axis<const D: usize>(
    a_edge: i64,
    b_edge: i64,
    above: bool,
    b_first: bool,
    t: f64,
) -> Vec<usize> {
    let mut found = Vec::new();
    for axis in 0..D {
        for far_axis in 0..D {
            let (boxes, body) = facing_boxes::<D>(axis, far_axis, a_edge, b_edge, above, b_first);
            let oracle = brute_force_pairs(&boxes, &body, t);
            let zone = search_contact_zone(&boxes, &body, t);
            let at = format!("{D}-D axis {axis} far {far_axis}: a {a_edge} b {b_edge} t {t}");
            assert_eq!(zone.pairs, oracle, "{at}");
            if far_axis != axis && !oracle.is_empty() {
                assert_eq!(zone.active, 3, "{at}: the far copy of `a` stretches the zone");
            }
            found.push(oracle.len());
        }
    }
    found
}

#[test]
fn boxes_exactly_the_tolerance_apart_pair_as_the_oracle_says_however_the_sum_rounds() {
    let (mut hits, mut misses, mut lopsided) = (0, 0, 0);
    for kx in 1..40i64 {
        for kt in 1..40i64 {
            let (x, t) = (tenth(kx), tenth(kt));
            // `b` exactly `t` above `a` (a.max = x, b.min = x + t on the
            // lattice), then exactly `t` below (a.min = x, b.max = x − t).
            for above in [true, false] {
                let ky = if above { kx + kt } else { kx - kt };
                let y = tenth(ky);
                // Whether inflating `a` reaches `b`, and whether
                // inflating `b` reaches `a`: equal in exact arithmetic.
                let (fwd, back) =
                    if above { (y <= x + t, y - t <= x) } else { (x - t <= y, x <= y + t) };
                lopsided += usize::from(fwd != back);
                for b_first in [false, true] {
                    let expected = usize::from(if b_first { back } else { fwd });
                    let mut found = facing_on_every_axis::<2>(kx, ky, above, b_first, t);
                    found.extend(facing_on_every_axis::<3>(kx, ky, above, b_first, t));
                    assert!(found.iter().all(|&n| n == expected), "x {x} t {t} y {y}: {found:?}");
                    hits += expected;
                    misses += 1 - expected;
                }
            }
        }
    }
    // The lattice must actually produce the one-ulp disagreements, and
    // both outcomes.
    assert!(lopsided > 100, "only {lopsided} placements round apart");
    assert!(hits > 1000 && misses > 100, "{hits} pairs, {misses} near misses");
}

#[test]
fn a_wide_tolerance_pairs_every_cross_body_box_at_once() {
    // 20 unit boxes in a row, bodies alternating: at a tolerance wider
    // than the row every box of one body reaches every box of the other.
    let boxes: Vec<Aabb<2>> = (0..20)
        .map(|i| Aabb::new(Point::new([i as f64, 0.0]), Point::new([i as f64 + 1.0, 1.0])))
        .collect();
    let body: Vec<u16> = (0..20).map(|i| BODY_IDS[i % 2]).collect();
    for t in [100.0, 1e3, f64::INFINITY] {
        let zone = search_contact_zone(&boxes, &body, t);
        assert_eq!(zone.pairs, brute_force_pairs(&boxes, &body, t), "tolerance {t}");
        assert_eq!((zone.pairs.len(), zone.active), (100, 20), "tolerance {t}");
    }
}

/// The search's predicate for a negative tolerance, where the inflated
/// box inverts by an ulp (`fl(0.7 − 0.2) < fl(0.3 + 0.2)`): still a pair,
/// whichever box comes first.
#[test]
fn a_negative_tolerance_keeps_the_pairs_of_an_inverted_query() {
    let inner = Aabb::new(Point::new([0.3; 3]), Point::new([0.7; 3]));
    let outer = Aabb::new(Point::new([0.0; 3]), Point::new([1.0; 3]));
    assert!(inner.inflate(-0.2).is_empty(), "the query box inverts");
    for boxes in [[inner, outer], [outer, inner]] {
        let pairs = find_contact_pairs(&boxes, &[0, 1], -0.2);
        assert_eq!(pairs, brute_force_pairs(&boxes, &[0, 1], -0.2));
        assert_eq!(pairs, vec![ContactPair { a: 0, b: 1 }]);
    }
}

#[test]
fn one_body_or_nothing_but_empty_boxes_pairs_nothing() {
    let mut d = Draws { seed: 5, i: 0 };
    let (boxes, _, _) = random_surface::<3>(&mut d);
    let zone = search_contact_zone(&boxes, &vec![65535; boxes.len()], 1.0);
    assert_eq!((zone.pairs.len(), zone.active), (0, 0), "a single body has no contact zone");
    assert!(brute_force_pairs(&boxes, &vec![65535; boxes.len()], 1.0).is_empty());

    let body: Vec<u16> = (0..8).map(|i| BODY_IDS[i % 3]).collect();
    let zone = search_contact_zone(&[Aabb::<2>::empty(); 8], &body, 1.0);
    assert_eq!((zone.pairs.len(), zone.active), (0, 0));
    assert!(find_contact_pairs::<2>(&[], &[], 0.4).is_empty());
}

#[test]
fn interleaved_bodies_keep_every_element_active() {
    // Touching unit boxes along a line, bodies dealt round-robin: every
    // hull spans (almost) the whole line, so the cull keeps everything.
    for bodies in 2..=6usize {
        let boxes: Vec<Aabb<2>> = (0..60)
            .map(|i| {
                Aabb::new(Point::new([tenth(10 * i), 0.0]), Point::new([tenth(10 * i + 10), 1.0]))
            })
            .collect();
        let body: Vec<u16> = (0..60).map(|i| BODY_IDS[i % bodies]).collect();
        let zone = search_contact_zone(&boxes, &body, 0.0);
        assert_eq!(zone.active, 60, "{bodies} interleaved bodies");
        assert_eq!(zone.pairs, brute_force_pairs(&boxes, &body, 0.0));
        assert_eq!(zone.pairs.len(), 59, "each box touches its successor, of another body");
    }
}
