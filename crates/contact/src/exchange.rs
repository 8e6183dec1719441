//! Rank-exchange simulation: materialize the parallel global search.
//!
//! [`crate::global_search`] computes *where* each surface element must be
//! shipped; this module materializes the result as per-rank inboxes and
//! runs the per-rank local search exactly as the parallel algorithm would
//! — each rank searches its **owned** elements against owned + received
//! elements. This is how the test suite verifies the paper's central
//! correctness claim end-to-end: **the distributed search detects exactly
//! the same contact pairs as a serial search over the whole surface**, for
//! any complete filter.

use crate::filter::GlobalFilter;
use crate::local::{find_contact_pairs, ContactPair};
use crate::search::SurfaceElementInfo;
use cip_geom::Aabb;

/// The materialized exchange: for every rank, the elements it receives
/// from other ranks.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// `inbox[r]` = indices of elements shipped *to* rank `r` (sorted).
    pub inbox: Vec<Vec<u32>>,
}

impl Exchange {
    /// Total number of shipments (equals the NRemote metric).
    pub fn total_shipments(&self) -> u64 {
        self.inbox.iter().map(|v| v.len() as u64).sum()
    }
}

/// Ships every element to the remote ranks selected by `filter`, with the
/// element boxes inflated by the capture `tolerance` — an element must
/// reach every rank whose territory it could touch *within the capture
/// distance*, exactly as the local search will test.
pub fn build_exchange<const D: usize, F: GlobalFilter<D> + Sync>(
    elements: &[SurfaceElementInfo<D>],
    filter: &F,
    tolerance: f64,
) -> Exchange {
    // Bucket straight into the inboxes, in element order, through one
    // candidate buffer: no per-element plan is materialized.
    let mut inbox = vec![Vec::new(); filter.num_parts()];
    let mut parts = Vec::new();
    for (e, el) in elements.iter().enumerate() {
        filter.candidate_parts(&el.bbox.inflate(tolerance), &mut parts);
        for &r in parts.iter().filter(|&&r| r != el.owner) {
            inbox[r as usize].push(e as u32);
        }
    }
    Exchange { inbox }
}

/// Runs the full distributed contact-detection step and returns the union
/// of every rank's locally detected cross-body pairs (as *global* element
/// index pairs, deduplicated and sorted).
///
/// Each rank `r` searches its owned elements plus its inbox. For any
/// **space-covering** descriptor (RCB regions, decision-tree leaf
/// regions) or for per-part element-box descriptors, every serial pair is
/// guaranteed to be seen by at least one rank: the point where the two
/// inflated boxes meet lies in some rank's territory, and both elements
/// are shipped there (or owned there).
pub fn distributed_contact_pairs<const D: usize, F: GlobalFilter<D> + Sync>(
    elements: &[SurfaceElementInfo<D>],
    bodies: &[u16],
    filter: &F,
    tolerance: f64,
) -> Vec<ContactPair> {
    assert_eq!(elements.len(), bodies.len());
    let exchange = build_exchange(elements, filter, tolerance);
    let k = filter.num_parts();
    // Bucket the elements by owner (counting sort): rank `r` owns
    // `owned[start[r]..start[r + 1]]`, ascending. An owner outside the
    // filter's parts is searched by no rank.
    let ranked = || {
        elements
            .iter()
            .enumerate()
            .filter(|(_, el)| (el.owner as usize) < k)
            .map(|(e, el)| (e, el.owner as usize))
    };
    let mut start = vec![0usize; k + 1];
    for (_, owner) in ranked() {
        start[owner + 1] += 1;
    }
    for r in 0..k {
        start[r + 1] += start[r];
    }
    let mut owned = vec![0u32; start[k]];
    let mut cursor = start[..k].to_vec();
    for (e, owner) in ranked() {
        owned[cursor[owner]] = e as u32;
        cursor[owner] += 1;
    }
    let mut all: Vec<ContactPair> = Vec::new();
    for r in 0..k {
        // Local element set: owned + received, with their global ids.
        let mut local_ids: Vec<u32> = owned[start[r]..start[r + 1]].to_vec();
        local_ids.extend_from_slice(&exchange.inbox[r]);

        let boxes: Vec<Aabb<D>> = local_ids.iter().map(|&e| elements[e as usize].bbox).collect();
        let body: Vec<u16> = local_ids.iter().map(|&e| bodies[e as usize]).collect();
        for p in find_contact_pairs(&boxes, &body, tolerance) {
            let (ga, gb) = (local_ids[p.a as usize], local_ids[p.b as usize]);
            let pair =
                if ga < gb { ContactPair { a: ga, b: gb } } else { ContactPair { a: gb, b: ga } };
            all.push(pair);
        }
    }
    all.sort_unstable();
    all.dedup();
    all
}

/// The serial reference: search the whole surface on one rank.
pub fn serial_contact_pairs<const D: usize>(
    elements: &[SurfaceElementInfo<D>],
    bodies: &[u16],
    tolerance: f64,
) -> Vec<ContactPair> {
    let boxes: Vec<Aabb<D>> = elements.iter().map(|e| e.bbox).collect();
    find_contact_pairs(&boxes, bodies, tolerance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::BboxFilter;
    use cip_geom::Point;

    /// Two rows of unit boxes facing each other across a small gap, split
    /// among `k` ranks along x.
    fn facing_rows(k: usize, n: usize) -> (Vec<SurfaceElementInfo<2>>, Vec<u16>) {
        let mut elements = Vec::new();
        let mut bodies = Vec::new();
        for i in 0..n {
            let x = i as f64;
            let owner = (i * k / n) as u32;
            elements.push(SurfaceElementInfo {
                bbox: Aabb::new(Point::new([x, 0.0]), Point::new([x + 1.0, 1.0])),
                owner,
            });
            bodies.push(0);
            elements.push(SurfaceElementInfo {
                bbox: Aabb::new(Point::new([x, 1.2]), Point::new([x + 1.0, 2.2])),
                owner,
            });
            bodies.push(1);
        }
        (elements, bodies)
    }

    fn box_filter(elements: &[SurfaceElementInfo<2>], k: usize) -> BboxFilter<2> {
        let boxes: Vec<(u32, cip_geom::Aabb<2>)> =
            elements.iter().map(|e| (e.owner, e.bbox)).collect();
        BboxFilter::from_boxes(&boxes, k)
    }

    #[test]
    fn distributed_equals_serial_detection() {
        let (elements, bodies) = facing_rows(4, 16);
        let filter = box_filter(&elements, 4);
        let serial = serial_contact_pairs(&elements, &bodies, 0.3);
        let distributed = distributed_contact_pairs(&elements, &bodies, &filter, 0.3);
        assert!(!serial.is_empty(), "facing rows must contact");
        assert_eq!(distributed, serial);
    }

    #[test]
    fn distributed_equals_serial_with_rcb_regions() {
        use cip_geom::RcbTree;
        let (elements, bodies) = facing_rows(4, 16);
        // Region filter over the element centers, ownership = RCB part.
        let pts: Vec<Point<2>> = elements.iter().map(|e| e.bbox.center()).collect();
        let weights = vec![1.0; pts.len()];
        let (tree, labels) = RcbTree::build(&pts, &weights, 4);
        let relabeled: Vec<SurfaceElementInfo<2>> = elements
            .iter()
            .zip(labels.iter())
            .map(|(e, &p)| SurfaceElementInfo { bbox: e.bbox, owner: p })
            .collect();
        let filter = crate::filter::RcbRegionFilter::new(&tree);
        let serial = serial_contact_pairs(&relabeled, &bodies, 0.3);
        let distributed = distributed_contact_pairs(&relabeled, &bodies, &filter, 0.3);
        assert_eq!(distributed, serial);
    }

    #[test]
    fn exchange_totals_match_n_remote_at_zero_tolerance() {
        let (elements, _) = facing_rows(3, 9);
        let filter = box_filter(&elements, 3);
        let ex = build_exchange(&elements, &filter, 0.0);
        assert_eq!(ex.total_shipments(), crate::search::n_remote(&elements, &filter));
    }

    #[test]
    fn single_rank_needs_no_exchange() {
        let (elements, bodies) = facing_rows(1, 6);
        let filter = box_filter(&elements, 1);
        let ex = build_exchange(&elements, &filter, 0.3);
        assert_eq!(ex.total_shipments(), 0);
        let serial = serial_contact_pairs(&elements, &bodies, 0.3);
        let distributed = distributed_contact_pairs(&elements, &bodies, &filter, 0.3);
        assert_eq!(distributed, serial);
    }
}
