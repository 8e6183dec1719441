//! End-to-end verification of the paper's central correctness claim on
//! real simulation data: the *distributed* contact detection (ship
//! elements per the global-search filter, search locally per rank) finds
//! exactly the same contact pairs as a serial search over the whole
//! surface — and that serial search equals a brute-force oracle that
//! shares no code with it.

mod common;

use cip::contact::{
    distributed_contact_pairs, serial_contact_pairs, DtreeFilter, RcbRegionFilter,
    SurfaceElementInfo,
};
use cip::core::SnapshotView;
use cip::dtree::{induce, DtreeConfig};
use cip::geom::RcbTree;
use cip::partition::{partition_kway, PartitionerConfig};
use cip::sim::SimConfig;
use cip::trace::scenario_config;
use common::brute_force_pairs;

/// Surface elements + bodies of one snapshot under a node partition.
fn snapshot_elements(
    view: &SnapshotView,
    node_parts: &[u32],
) -> (Vec<SurfaceElementInfo<3>>, Vec<u16>) {
    (view.surface_elements(node_parts), view.face_bodies())
}

#[test]
fn distributed_detection_equals_serial_with_dtree_filter() {
    let sim = cip::sim::run(&SimConfig::tiny());
    let k = 4;
    let view0 = SnapshotView::build(&sim, 0, 5);
    let asg = partition_kway(&view0.graph2.graph, k, &PartitionerConfig::default());
    let node_parts = view0.graph2.assignment_on_nodes(&asg);

    for i in [2, sim.len() / 2, sim.len() - 1] {
        let view = SnapshotView::build(&sim, i, 5);
        let labels = view.contact.labels_from_node_parts(&node_parts);
        let tree = induce(&view.contact.positions, &labels, k, &DtreeConfig::search_tree());
        let filter = DtreeFilter::new(&tree, k);

        let (elements, bodies) = snapshot_elements(&view, &node_parts);
        let tolerance = 0.4;
        let serial = serial_contact_pairs(&elements, &bodies, tolerance);
        let distributed = distributed_contact_pairs(&elements, &bodies, &filter, tolerance);
        assert_eq!(
            distributed, serial,
            "snapshot {i}: distributed search must find exactly the serial pairs"
        );
    }
}

#[test]
fn distributed_detection_equals_serial_with_rcb_filter() {
    let sim = cip::sim::run(&SimConfig::tiny());
    let k = 5;
    let i = sim.len() / 2;
    let view = SnapshotView::build(&sim, i, 5);

    // ML+RCB-style: contact decomposition by RCB, region filter.
    let weights = vec![1.0; view.contact.len()];
    let (tree, rcb_labels) = RcbTree::build(&view.contact.positions, &weights, k);
    let mut rcb_node_parts = vec![u32::MAX; view.mesh.num_nodes()];
    for (ci, &n) in view.contact.nodes.iter().enumerate() {
        rcb_node_parts[n as usize] = rcb_labels[ci];
    }
    let (elements, bodies) = snapshot_elements(&view, &rcb_node_parts);
    let filter = RcbRegionFilter::new(&tree);
    let tolerance = 0.4;
    let serial = serial_contact_pairs(&elements, &bodies, tolerance);
    let distributed = distributed_contact_pairs(&elements, &bodies, &filter, tolerance);
    assert_eq!(distributed, serial);
}

#[test]
fn real_contacts_appear_mid_penetration() {
    // Sanity for the tests above: the workload actually produces
    // cross-body contact pairs once the projectile reaches the plates.
    let sim = cip::sim::run(&SimConfig::tiny());
    let view = SnapshotView::build(&sim, sim.len() / 2, 5);
    let node_parts = vec![0u32; view.mesh.num_nodes()];
    let (elements, bodies) = snapshot_elements(&view, &node_parts);
    let serial = serial_contact_pairs(&elements, &bodies, 0.4);
    assert!(!serial.is_empty(), "projectile inside the plate must produce contact pairs");
}

#[test]
fn serial_search_equals_brute_force_on_head_on_snapshots() {
    // The two checks above compare the library's search with itself; this
    // one anchors it: before contact, mid-approach and at the end of the
    // registered `head_on` run, the serial pairs are exactly the ones an
    // all-pairs scan finds.
    let sim = cip::sim::run(&scenario_config("head_on").expect("registry scenario"));
    let mut found = 0;
    for i in [0, 50, 99] {
        let view = SnapshotView::build(&sim, i, 5);
        let node_parts = vec![0u32; view.mesh.num_nodes()];
        let (elements, bodies) = snapshot_elements(&view, &node_parts);
        let boxes: Vec<_> = elements.iter().map(|e| e.bbox).collect();
        let serial = serial_contact_pairs(&elements, &bodies, 0.4);
        assert_eq!(serial, brute_force_pairs(&boxes, &bodies, 0.4), "snapshot {i}");
        found += serial.len();
    }
    assert!(found > 0, "head_on must reach contact by its last snapshot");
}
