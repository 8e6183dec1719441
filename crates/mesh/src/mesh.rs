//! Multi-body meshes with element erosion.

use crate::element::Element;
use cip_geom::{Aabb, Point};

/// A (possibly multi-body) finite-element mesh in `D` dimensions.
///
/// Contact/impact codes delete ("erode") elements as material fails; the
/// mesh therefore carries a live-mask over its elements rather than
/// physically removing them, so node and element ids stay stable across the
/// whole simulation — exactly what the partition-update strategies of §4.3
/// need in order to compare successive decompositions.
#[derive(Debug, Clone)]
pub struct Mesh<const D: usize> {
    /// Node coordinates (current configuration).
    pub points: Vec<Point<D>>,
    /// Elements (never removed; see `alive`).
    pub elements: Vec<Element>,
    /// Body id of each element (projectile vs plates, etc.).
    pub body: Vec<u16>,
    /// Erosion mask: `alive[e]` is false once element `e` has been deleted.
    pub alive: Vec<bool>,
}

impl<const D: usize> Mesh<D> {
    /// Creates a single-body mesh with all elements alive.
    pub fn new(points: Vec<Point<D>>, elements: Vec<Element>) -> Self {
        let n = elements.len();
        Self { points, elements, body: vec![0; n], alive: vec![true; n] }
    }

    /// Creates a multi-body mesh with all elements alive.
    ///
    /// # Panics
    /// Panics if `body.len() != elements.len()`.
    pub fn with_bodies(points: Vec<Point<D>>, elements: Vec<Element>, body: Vec<u16>) -> Self {
        assert_eq!(body.len(), elements.len(), "one body id per element");
        let n = elements.len();
        Self { points, elements, body, alive: vec![true; n] }
    }

    /// Number of nodes (live or not).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.points.len()
    }

    /// Number of elements (live or not).
    #[inline]
    pub fn num_elements(&self) -> usize {
        self.elements.len()
    }

    /// Number of live elements.
    pub fn num_live_elements(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Iterates over `(element_id, &Element)` for live elements only.
    pub fn live_elements(&self) -> impl Iterator<Item = (u32, &Element)> + '_ {
        self.elements
            .iter()
            .enumerate()
            .filter(|&(e, _)| self.alive[e])
            .map(|(e, el)| (e as u32, el))
    }

    /// Erodes (deletes) element `e`. Idempotent.
    pub fn erode(&mut self, e: u32) {
        self.alive[e as usize] = false;
    }

    /// Marks the nodes referenced by at least one live element.
    pub fn live_node_mask(&self) -> Vec<bool> {
        let mut mask = vec![false; self.points.len()];
        for (_, el) in self.live_elements() {
            for &n in el.nodes() {
                mask[n as usize] = true;
            }
        }
        mask
    }

    /// Centroid of element `e` (average of its node coordinates).
    pub fn element_centroid(&self, e: u32) -> Point<D> {
        self.elements[e as usize].centroid(&self.points)
    }

    /// Bounding box of the whole mesh (live nodes only).
    pub fn bounds(&self) -> Aabb<D> {
        let mask = self.live_node_mask();
        let mut b = Aabb::empty();
        for (n, p) in self.points.iter().enumerate() {
            if mask[n] {
                b.grow(p);
            }
        }
        b
    }

    /// Appends another mesh (disjoint node/element ids), returning the node
    /// and element id offsets the other mesh's ids were shifted by.
    pub fn append(&mut self, other: &Mesh<D>) -> (u32, u32) {
        let node_off = self.points.len() as u32;
        let elem_off = self.elements.len() as u32;
        self.points.extend_from_slice(&other.points);
        for el in &other.elements {
            let shifted: Vec<u32> = el.nodes().iter().map(|&n| n + node_off).collect();
            self.elements.push(Element::new(el.kind, &shifted));
        }
        self.body.extend_from_slice(&other.body);
        self.alive.extend_from_slice(&other.alive);
        (node_off, elem_off)
    }

    /// Basic sanity checks: node ids in range, parallel arrays consistent.
    pub fn validate(&self) -> Result<(), String> {
        if self.body.len() != self.elements.len() || self.alive.len() != self.elements.len() {
            return Err("parallel element arrays have inconsistent lengths".into());
        }
        for (e, el) in self.elements.iter().enumerate() {
            for &n in el.nodes() {
                if n as usize >= self.points.len() {
                    return Err(format!("element {e} references missing node {n}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Element;

    /// Two unit quads side by side: nodes 0..6, elements (0,1,4,3), (1,2,5,4).
    fn two_quads() -> Mesh<2> {
        let points = vec![
            Point::new([0.0, 0.0]),
            Point::new([1.0, 0.0]),
            Point::new([2.0, 0.0]),
            Point::new([0.0, 1.0]),
            Point::new([1.0, 1.0]),
            Point::new([2.0, 1.0]),
        ];
        let elements = vec![Element::quad4([0, 1, 4, 3]), Element::quad4([1, 2, 5, 4])];
        Mesh::new(points, elements)
    }

    #[test]
    fn counts_and_validation() {
        let m = two_quads();
        assert_eq!(m.num_nodes(), 6);
        assert_eq!(m.num_elements(), 2);
        assert_eq!(m.num_live_elements(), 2);
        m.validate().unwrap();
    }

    #[test]
    fn erosion_updates_live_sets() {
        let mut m = two_quads();
        m.erode(0);
        assert_eq!(m.num_live_elements(), 1);
        let mask = m.live_node_mask();
        // Nodes 0 and 3 belong only to the eroded element.
        assert!(!mask[0]);
        assert!(!mask[3]);
        assert!(mask[1] && mask[2] && mask[4] && mask[5]);
        m.erode(0); // idempotent
        assert_eq!(m.num_live_elements(), 1);
    }

    #[test]
    fn centroid_of_a_quad() {
        let m = two_quads();
        let c = m.element_centroid(0);
        assert!((c[0] - 0.5).abs() < 1e-12 && (c[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bounds_ignore_eroded_only_nodes() {
        let mut m = two_quads();
        m.erode(1);
        let b = m.bounds();
        assert_eq!(b.max[0], 1.0, "node 2 (x=2) only touches the eroded element");
    }

    #[test]
    fn append_shifts_ids() {
        let mut a = two_quads();
        let b = two_quads();
        let (noff, eoff) = a.append(&b);
        assert_eq!(noff, 6);
        assert_eq!(eoff, 2);
        assert_eq!(a.num_nodes(), 12);
        assert_eq!(a.num_elements(), 4);
        assert_eq!(a.elements[2].nodes(), &[6, 7, 10, 9]);
        a.validate().unwrap();
    }

    #[test]
    fn validate_catches_bad_node_reference() {
        let m = Mesh::<2>::new(vec![Point::new([0.0, 0.0])], vec![Element::tri3([0, 1, 2])]);
        assert!(m.validate().is_err());
    }
}
