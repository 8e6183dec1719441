//! Per-rank communication traffic.
//!
//! The paper reports *total* communication counts (FEComm, M2MComm,
//! NRemote). On a real machine the step time is set by the **bottleneck
//! rank**, so a production decomposition tool must also expose the
//! per-rank traffic matrix. This module computes, for each of the three
//! communication kinds, who sends how much to whom:
//!
//! * [`halo_traffic`] — the FE phase's halo exchange (one unit per nodal
//!   value shipped to a distinct remote part; totals match
//!   [`cip_graph::comm_volume_of_rows`]),
//! * [`shipment_traffic`] — the global-search element shipments (totals
//!   match [`cip_contact::n_remote`]),
//! * [`m2m_traffic`] — the ML+RCB mesh-to-mesh transfer (totals match the
//!   M2MComm metric).

use cip_contact::{GlobalFilter, SurfaceElementInfo};

/// A per-rank traffic summary: the full part-to-part matrix plus row/col
/// sums.
#[derive(Debug, Clone)]
pub struct RankTraffic {
    /// Number of ranks (parts).
    pub k: usize,
    /// Row-major `k x k` matrix; `matrix[s * k + r]` = units sent from
    /// rank `s` to rank `r`. The diagonal is always zero.
    pub matrix: Vec<u64>,
}

impl RankTraffic {
    fn zeros(k: usize) -> Self {
        Self { k, matrix: vec![0; k * k] }
    }

    #[inline]
    fn add(&mut self, from: u32, to: u32, units: u64) {
        debug_assert_ne!(from, to);
        self.matrix[from as usize * self.k + to as usize] += units;
    }

    /// Units sent by rank `s`.
    pub fn send_volume(&self, s: u32) -> u64 {
        self.matrix[s as usize * self.k..(s as usize + 1) * self.k].iter().sum()
    }

    /// Units received by rank `r`.
    pub fn recv_volume(&self, r: u32) -> u64 {
        (0..self.k).map(|s| self.matrix[s * self.k + r as usize]).sum()
    }

    /// Total units over all rank pairs.
    pub fn total(&self) -> u64 {
        self.matrix.iter().sum()
    }

    /// The busiest rank's send+recv volume — the bottleneck that actually
    /// bounds the step time.
    pub fn max_rank_volume(&self) -> u64 {
        (0..self.k as u32).map(|r| self.send_volume(r) + self.recv_volume(r)).max().unwrap_or(0)
    }

    /// Ratio of the bottleneck rank's volume to the average rank volume
    /// (1.0 = perfectly even traffic).
    pub fn traffic_imbalance(&self) -> f64 {
        let total: u64 =
            (0..self.k as u32).map(|r| self.send_volume(r) + self.recv_volume(r)).sum();
        if total == 0 {
            return 1.0;
        }
        let avg = total as f64 / self.k as f64;
        self.max_rank_volume() as f64 / avg
    }

    /// Number of rank pairs that exchange at least one unit (message
    /// count proxy).
    pub fn active_pairs(&self) -> usize {
        self.matrix.iter().filter(|&&v| v > 0).count()
    }
}

/// FE-phase halo exchange: for every vertex `v` and every *distinct*
/// remote part `p` among its neighbors, one unit flows `P[v] -> p`. The
/// adjacency is bare CSR rows (a `Graph`'s `xadj`/`adjncy`, or a nodal
/// topology's); no weight is read.
///
/// `traffic.total()` equals [`cip_graph::comm_volume_of_rows`].
pub fn halo_traffic(xadj: &[usize], adjncy: &[u32], assignment: &[u32], k: usize) -> RankTraffic {
    debug_assert_eq!(xadj.len(), assignment.len() + 1);
    let mut t = RankTraffic::zeros(k);
    let mut seen: Vec<u32> = Vec::with_capacity(16);
    for (v, &pv) in assignment.iter().enumerate() {
        seen.clear();
        for &u in &adjncy[xadj[v]..xadj[v + 1]] {
            let pu = assignment[u as usize];
            if pu != pv && !seen.contains(&pu) {
                seen.push(pu);
                t.add(pv, pu, 1);
            }
        }
    }
    t
}

/// Global-search shipments: each surface element flows from its owner to
/// every other candidate part of its bounding box.
///
/// `traffic.total()` equals [`cip_contact::n_remote`] for the same filter.
pub fn shipment_traffic<const D: usize, F: GlobalFilter<D>>(
    elements: &[SurfaceElementInfo<D>],
    filter: &F,
    k: usize,
) -> RankTraffic {
    let mut t = RankTraffic::zeros(k);
    let mut out = Vec::new();
    for el in elements {
        filter.candidate_parts(&el.bbox, &mut out);
        for &p in out.iter() {
            if p != el.owner {
                t.add(el.owner, p, 1);
            }
        }
    }
    t
}

/// ML+RCB mesh-to-mesh transfer: each contact point whose FE part differs
/// from its (relabeled) contact part flows FE -> contact before search,
/// and back afterwards (the caller decides whether to count both legs).
pub fn m2m_traffic(fe_labels: &[u32], contact_labels: &[u32], k: usize) -> RankTraffic {
    debug_assert_eq!(fe_labels.len(), contact_labels.len());
    let mut t = RankTraffic::zeros(k);
    for (&f, &c) in fe_labels.iter().zip(contact_labels.iter()) {
        if f != c {
            t.add(f, c, 1);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use cip_contact::BboxFilter;
    use cip_geom::{Aabb, Point};
    use cip_graph::{total_comm_volume, Graph, GraphBuilder};

    fn path(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n, 1);
        for v in 0..n as u32 {
            b.set_vwgt(v, &[1]);
        }
        for v in 0..n as u32 - 1 {
            b.add_edge(v, v + 1, 1);
        }
        b.build()
    }

    #[test]
    fn halo_traffic_total_matches_comm_volume() {
        let g = path(9);
        let asg = vec![0, 0, 0, 1, 1, 1, 2, 2, 2];
        let t = halo_traffic(g.xadj(), g.adjncy(), &asg, 3);
        assert_eq!(t.total(), total_comm_volume(&g, &asg));
        // Boundary structure of a path split in thirds: vertex 2 sends to
        // part 1, vertex 3 sends to part 0, etc.
        assert_eq!(t.matrix[1], 1);
        assert_eq!(t.matrix[3], 1);
        assert_eq!(t.matrix[5], 1);
        assert_eq!(t.matrix[7], 1);
        assert_eq!(t.matrix[2], 0, "non-adjacent parts exchange nothing");
    }

    #[test]
    fn rank_summaries() {
        let mut t = RankTraffic::zeros(3);
        t.add(0, 1, 5);
        t.add(1, 2, 7);
        t.add(2, 0, 1);
        assert_eq!(t.total(), 13);
        assert_eq!(t.send_volume(1), 7);
        assert_eq!(t.recv_volume(1), 5);
        assert_eq!(t.max_rank_volume(), 12); // rank 1: 7 out + 5 in
        assert_eq!(t.active_pairs(), 3);
        assert!(t.traffic_imbalance() > 1.0);
    }

    #[test]
    fn shipment_traffic_total_matches_n_remote() {
        let pts = vec![Point::new([0.0, 0.0]), Point::new([5.0, 0.0]), Point::new([10.0, 0.0])];
        let labels = vec![0u32, 1, 2];
        let filter = BboxFilter::from_points(&pts, &labels, 3);
        let elements: Vec<SurfaceElementInfo<2>> = (0..3)
            .map(|i| SurfaceElementInfo {
                bbox: Aabb::from_point(pts[i]).inflate(6.0),
                owner: labels[i],
            })
            .collect();
        let t = shipment_traffic(&elements, &filter, 3);
        assert_eq!(t.total(), cip_contact::n_remote(&elements, &filter));
        assert!(t.total() > 0);
    }

    #[test]
    fn m2m_traffic_counts_disagreements() {
        let fe = vec![0u32, 0, 1, 1];
        let contact = vec![0u32, 1, 1, 0];
        let t = m2m_traffic(&fe, &contact, 2);
        assert_eq!(t.total(), 2);
        assert_eq!(t.matrix[1], 1);
        assert_eq!(t.matrix[2], 1);
    }

    #[test]
    fn empty_traffic_is_balanced() {
        let t = RankTraffic::zeros(4);
        assert_eq!(t.total(), 0);
        assert_eq!(t.traffic_imbalance(), 1.0);
        assert_eq!(t.max_rank_volume(), 0);
    }
}
