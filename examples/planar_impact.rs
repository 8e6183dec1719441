//! 2D planar impact: every algorithm in this library is generic over the
//! spatial dimension, so the full MCML+DT machinery runs on plane-strain
//! problems too (the paper's own illustrations — Figures 1 and 2 — are
//! 2D). This example builds a 2D projectile/plate mesh by hand, erodes a
//! channel, and runs partitioning, the DT-friendly correction, search-tree
//! induction, and both global-search filters natively in 2D.
//!
//! Run with: `cargo run --release --example planar_impact`

use cip::contact::{n_remote, BboxFilter, DtreeFilter};
use cip::core::{decompose, gather, surface_elements, McmlDtConfig};
use cip::dtree::{induce, DtreeConfig};
use cip::geom::{Aabb, Point};
use cip::graph::{GraphBuilder, Partition};
use cip::mesh::{extract_surface, generators, Mesh};
use cip::partition::{partition_kway, PartitionerConfig};

/// Builds the 2D scene: a horizontal plate strip and a vertical rod above
/// it, with a channel already eroded halfway through the plate.
fn build_scene() -> Mesh<2> {
    let mut mesh = generators::quad_grid([60, 6], Point::new([-30.0, -6.0]), [1.0, 1.0], 0);
    let rod = generators::quad_grid([4, 20], Point::new([-2.0, -3.0]), [1.0, 1.0], 1);
    mesh.append(&rod);
    // Erode the plate cells inside the rod's footprint down to half depth
    // (the rod has punched halfway through).
    for e in 0..mesh.num_elements() as u32 {
        if mesh.body[e as usize] != 0 {
            continue;
        }
        let c = mesh.element_centroid(e);
        if c[0].abs() <= 2.5 && c[1] >= -3.5 {
            mesh.erode(e);
        }
    }
    mesh
}

fn main() {
    let k = 6;
    let mesh = build_scene();
    let surface = extract_surface(&mesh);
    println!(
        "2D scene: {} nodes, {} elements ({} eroded), {} surface edges, {} contact nodes",
        mesh.num_nodes(),
        mesh.num_elements(),
        mesh.num_elements() - mesh.num_live_elements(),
        surface.num_faces(),
        surface.num_contact_nodes()
    );

    // Two-constraint nodal graph, built directly (the mesh crate's
    // nodal_graph works for any D).
    let mask = surface.contact_node_mask(mesh.num_nodes());
    let ng = cip::mesh::graphs::nodal_graph(
        &mesh,
        &mask,
        cip::mesh::graphs::NodalGraphOptions::default(),
    );
    // MCML+DT, the DT-friendly correction natively in 2D.
    let cfg = McmlDtConfig::paper(k);
    let dec = decompose(&ng, &mesh.points, &cfg);
    let stats = dec.stats.expect("the paper's configuration corrects");
    let part = Partition::from_assignment(&ng.graph, k, dec.asg);
    println!(
        "partition: imbalance {:.3}/{:.3}, {} axis-parallel regions after correction",
        part.imbalance(0),
        part.imbalance(1),
        stats.regions
    );

    // 2D search tree over the contact nodes.
    let contact_pts = gather(&surface.contact_nodes, &mesh.points);
    let labels = gather(&surface.contact_nodes, &dec.node_parts);
    let tree = induce(&contact_pts, &labels, k, &DtreeConfig::search_tree());
    println!("2D search tree: {} nodes, depth {}", tree.num_nodes(), tree.depth());

    // Compare the two global-search filters on the surface edges.
    let elements = surface_elements(&surface.faces, &mesh.points, &dec.node_parts);
    let dt_ship = n_remote(&elements, &DtreeFilter::new(&tree, k));
    let bb_ship = n_remote(&elements, &BboxFilter::from_points(&contact_pts, &labels, k));
    println!(
        "global search shipments: decision tree {dt_ship}, bounding boxes {bb_ship} \
         ({} surface edges)",
        elements.len()
    );

    // Sanity: demonstrate a pure-2D property the paper's Figure 1 states.
    let bounds = Aabb::from_points(&contact_pts);
    assert!(
        tree.leaf_regions(&bounds).iter().all(|l| l.pure || l.count == 0),
        "2D purity-stopped tree must have pure leaves"
    );
    println!("all 2D leaves pure ✓");

    // The contrived graph-free path also works: partition raw contact
    // points with a hand-built proximity graph (showcasing the API on
    // point clouds without a mesh).
    let mut b = GraphBuilder::new(contact_pts.len(), 1);
    for v in 0..contact_pts.len() as u32 {
        b.set_vwgt(v, &[1]);
    }
    for i in 0..contact_pts.len() {
        for j in i + 1..contact_pts.len() {
            if contact_pts[i].dist2(&contact_pts[j]) <= 1.01 {
                b.add_edge(i as u32, j as u32, 1);
            }
        }
    }
    let pg = b.build();
    let pasg = partition_kway(&pg, 4, &PartitionerConfig::with_seed(7));
    let pp = Partition::from_assignment(&pg, 4, pasg);
    println!(
        "bonus: contact-point proximity graph partitioned 4-way, imbalance {:.3}",
        pp.imbalance(0)
    );
}
