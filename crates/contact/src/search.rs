//! Parallel global search and the NRemote metric.
//!
//! Every processor holds the surface elements of its subdomain. Before
//! local search can run, each element must be shipped to every *other*
//! subdomain whose geometric descriptor intersects the element's bounding
//! box (§4 of the paper). [`global_search`] computes that shipment plan for
//! any [`GlobalFilter`], and [`n_remote`] its total size — the paper's
//! **NRemote** communication metric (one count per element-to-remote-part
//! shipment).

use crate::filter::GlobalFilter;
use cip_base::par;
use cip_geom::Aabb;

/// One surface element as seen by the global search: its bounding box and
/// the part that owns it (the part of its subdomain in the decomposition
/// being evaluated).
#[derive(Debug, Clone, Copy)]
pub struct SurfaceElementInfo<const D: usize> {
    /// Bounding box of the element (the paper approximates every surface
    /// element by its bounding box during search).
    pub bbox: Aabb<D>,
    /// Owning part.
    pub owner: u32,
}

/// Computes the shipment plan: for every element, the sorted list of
/// *remote* parts (owner excluded) whose descriptor intersects it.
pub fn global_search<const D: usize, F: GlobalFilter<D> + Sync>(
    elements: &[SurfaceElementInfo<D>],
    filter: &F,
) -> Vec<Vec<u32>> {
    // One candidate buffer per part; an element that ships nowhere (most
    // of them) costs no allocation.
    par::flat_parts(elements, |_, elements| {
        let mut out = Vec::new();
        let remote = |el: &SurfaceElementInfo<D>| {
            filter.candidate_parts(&el.bbox, &mut out);
            out.iter().copied().filter(|&p| p != el.owner).collect()
        };
        elements.iter().map(remote).collect()
    })
}

/// The total number of element shipments — the paper's **NRemote**:
/// `Σ_elements |candidate_parts \ {owner}|`.
pub fn n_remote<const D: usize, F: GlobalFilter<D> + Sync>(
    elements: &[SurfaceElementInfo<D>],
    filter: &F,
) -> u64 {
    par::parts(elements, |_, elements| {
        let mut out = Vec::new();
        let remote = |el: &SurfaceElementInfo<D>| {
            filter.candidate_parts(&el.bbox, &mut out);
            out.iter().filter(|&&p| p != el.owner).count() as u64
        };
        elements.iter().map(remote).sum::<u64>()
    })
    .into_iter()
    .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::BboxFilter;
    use cip_geom::Point;

    /// Two parts with overlapping bounding boxes: part 0 owns x in [0, 10],
    /// part 1 owns x in [8, 20] (overlap zone [8, 10]).
    fn overlapping_filter() -> BboxFilter<2> {
        let pts = vec![
            Point::new([0.0, 0.0]),
            Point::new([10.0, 1.0]),
            Point::new([8.0, 0.0]),
            Point::new([20.0, 1.0]),
        ];
        let asg = vec![0, 0, 1, 1];
        BboxFilter::from_points(&pts, &asg, 2)
    }

    fn elem(x: f64, owner: u32) -> SurfaceElementInfo<2> {
        SurfaceElementInfo {
            bbox: Aabb::new(Point::new([x, 0.0]), Point::new([x + 0.5, 0.5])),
            owner,
        }
    }

    #[test]
    fn elements_in_overlap_zone_are_shipped() {
        let f = overlapping_filter();
        let elements = vec![
            elem(1.0, 0),  // interior of part 0 only
            elem(9.0, 0),  // overlap zone: shipped to part 1
            elem(15.0, 1), // interior of part 1 only
            elem(8.5, 1),  // overlap zone: shipped to part 0
        ];
        let plan = global_search(&elements, &f);
        assert!(plan[0].is_empty());
        assert_eq!(plan[1], vec![1]);
        assert!(plan[2].is_empty());
        assert_eq!(plan[3], vec![0]);
        assert_eq!(n_remote(&elements, &f), 2);
    }

    #[test]
    fn owner_never_counted() {
        let f = overlapping_filter();
        let elements = vec![elem(9.0, 0)];
        let plan = global_search(&elements, &f);
        assert!(!plan[0].contains(&0));
    }

    #[test]
    fn n_remote_zero_for_disjoint_parts() {
        let pts = vec![Point::new([0.0, 0.0]), Point::new([100.0, 0.0])];
        let asg = vec![0, 1];
        let f = BboxFilter::from_points(&pts, &asg, 2);
        let elements = vec![elem(0.0, 0), elem(100.0, 1)];
        assert_eq!(n_remote(&elements, &f), 0);
    }
}
