//! Property tests for the mesh layer: seeded sweeps over random erosion
//! states (compiled only with `cfg(test)`).

#![cfg(test)]

use crate::generators;
use crate::graphs::{nodal_graph, NodalGraphOptions};
use crate::io::{read_text, write_text};
use crate::mesh::Mesh;
use crate::surface::{extract_surface, FacetIndex};
use cip_base::rng::{sweep, Rng};
use cip_geom::Point;

/// A unit-cell hex box at the origin with each element eroded on a coin flip.
fn eroded_box(rng: &mut Rng, dims: [usize; 3]) -> Mesh<3> {
    let mut m = generators::hex_box(dims, Point::new([0.0; 3]), [1.0; 3], 0);
    erode_at_random(rng, &mut m);
    m
}

fn erode_at_random(rng: &mut Rng, m: &mut Mesh<3>) {
    for e in 0..m.num_elements() as u32 {
        if rng.range_u32(2) == 1 {
            m.erode(e);
        }
    }
}

/// Face-counting identity: for any erosion pattern of a hex box,
/// `6 * live = boundary + 2 * interior` facets.
#[test]
fn surface_counting_identity() {
    sweep(32, |rng| {
        let dims = [1..5, 1..5, 1..4].map(|range| rng.range_i64(range) as usize);
        let m = eroded_box(rng, dims);
        let live = m.num_live_elements();
        let surface = extract_surface(&m);
        // An interior facet is shared by exactly two live elements.
        let mut interior = 0;
        FacetIndex::build(&m).for_each_live_facet(&m.alive, |owners| {
            assert!(owners.len() <= 2, "a facet with {} live owners", owners.len());
            interior += usize::from(owners.len() == 2);
        });
        assert_eq!(6 * live, surface.num_faces() + 2 * interior);
    });
}

/// Every surface face's owning element is live, and every contact node
/// belongs to some surface face.
#[test]
fn surface_faces_reference_live_elements() {
    sweep(32, |rng| {
        let m = eroded_box(rng, [3, 3, 3]);
        let s = extract_surface(&m);
        for sf in &s.faces {
            assert!(m.alive[sf.element as usize]);
        }
        let mask = s.contact_node_mask(m.num_nodes());
        for &n in &s.contact_nodes {
            assert!(mask[n as usize]);
        }
        // Mask cardinality matches.
        assert_eq!(mask.iter().filter(|&&b| b).count(), s.num_contact_nodes());
    });
}

/// The nodal graph of any erosion state is a valid CSR graph whose
/// vertices are exactly the live nodes, and constraint-1 totals equal
/// the contact-node count.
#[test]
fn nodal_graph_invariants() {
    sweep(32, |rng| {
        let m = eroded_box(rng, [2, 3, 4]);
        let s = extract_surface(&m);
        let mask = s.contact_node_mask(m.num_nodes());
        let ng = nodal_graph(&m, &mask, NodalGraphOptions::default());
        ng.graph.validate().unwrap();
        let live = m.live_node_mask();
        assert_eq!(ng.graph.nv(), live.iter().filter(|&&b| b).count());
        let totals = ng.graph.total_vwgt();
        assert_eq!(totals[0] as usize, ng.graph.nv());
        // Contact nodes are live, so the second constraint counts them all.
        assert_eq!(totals[1] as usize, s.num_contact_nodes());
    });
}

/// Text I/O round-trips any erosion state bit-for-bit.
#[test]
fn text_io_roundtrips_random_erosion() {
    sweep(32, |rng| {
        let mut m =
            generators::hex_box([3, 2, 2], Point::new([-1.0, 0.5, 2.0]), [0.5, 1.0, 2.0], 4);
        erode_at_random(rng, &mut m);
        let back: Mesh<3> = read_text(&write_text(&m)).unwrap();
        assert_eq!(back.points, m.points);
        assert_eq!(back.alive, m.alive);
        assert_eq!(back.body, m.body);
    });
}
