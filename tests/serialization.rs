//! Serialization round-trips: simulation snapshots, meshes, graphs, and
//! search structures must survive a JSON round-trip bit-for-bit, because
//! the experiment harness persists them and a production code would
//! checkpoint them.

use cip::core::SnapshotView;
use cip::dtree::{induce, DtreeConfig};
use cip::geom::{Aabb, Point, RcbTree};
use cip::graph::GraphBuilder;
use cip::mesh::generators;
use cip::sim::SimConfig;

#[test]
fn point_and_aabb_roundtrip() {
    let p = Point::new([1.5, -2.25, 3.125]);
    let json = serde_json::to_string(&p).unwrap();
    let q: Point<3> = serde_json::from_str(&json).unwrap();
    assert_eq!(p, q);

    let b = Aabb::new(Point::new([0.0, 1.0]), Point::new([2.0, 3.0]));
    let json = serde_json::to_string(&b).unwrap();
    let c: Aabb<2> = serde_json::from_str(&json).unwrap();
    assert_eq!(b, c);
}

#[test]
fn graph_roundtrip_preserves_structure() {
    let mut b = GraphBuilder::new(5, 2);
    for v in 0..5u32 {
        b.set_vwgt(v, &[1, i64::from(v % 2 == 0)]);
    }
    b.add_edge(0, 1, 3).add_edge(1, 2, 1).add_edge(3, 4, 7);
    let g = b.build();
    let json = serde_json::to_string(&g).unwrap();
    let h: cip::graph::Graph = serde_json::from_str(&json).unwrap();
    h.validate().unwrap();
    assert_eq!(h.nv(), g.nv());
    assert_eq!(h.ne(), g.ne());
    assert_eq!(h.total_vwgt(), g.total_vwgt());
    for v in 0..5u32 {
        assert_eq!(g.neighbors(v).collect::<Vec<_>>(), h.neighbors(v).collect::<Vec<_>>());
    }
}

#[test]
fn mesh_roundtrip_preserves_erosion_state() {
    let mut m = generators::hex_box([2, 2, 2], Point::new([0.0; 3]), [1.0; 3], 3);
    m.erode(5);
    let json = serde_json::to_string(&m).unwrap();
    let n: cip::mesh::Mesh<3> = serde_json::from_str(&json).unwrap();
    n.validate().unwrap();
    assert_eq!(n.num_live_elements(), m.num_live_elements());
    assert!(!n.alive[5]);
    assert_eq!(n.body, m.body);
    assert_eq!(n.points.len(), m.points.len());
}

#[test]
fn decision_tree_roundtrip_answers_identically() {
    let pts: Vec<Point<2>> =
        (0..40).map(|i| Point::new([(i % 8) as f64, (i / 8) as f64])).collect();
    let labels: Vec<u32> = (0..40).map(|i| (i as u32) % 3).collect();
    let tree = induce(&pts, &labels, 3, &DtreeConfig::search_tree());
    let json = serde_json::to_string(&tree).unwrap();
    let back: cip::dtree::DecisionTree<2> = serde_json::from_str(&json).unwrap();
    assert_eq!(back.num_nodes(), tree.num_nodes());
    let mut a = Vec::new();
    let mut b = Vec::new();
    for p in &pts {
        assert_eq!(tree.locate(p), back.locate(p));
        let q = Aabb::from_point(*p).inflate(1.0);
        tree.query_box(&q, &mut a);
        back.query_box(&q, &mut b);
        assert_eq!(a, b);
    }
}

#[test]
fn rcb_tree_roundtrip_locates_identically() {
    let pts: Vec<Point<2>> =
        (0..60).map(|i| Point::new([(i % 10) as f64, (i / 10) as f64])).collect();
    let weights = vec![1.0; pts.len()];
    let (tree, asg) = RcbTree::build(&pts, &weights, 6);
    let json = serde_json::to_string(&tree).unwrap();
    let back: RcbTree<2> = serde_json::from_str(&json).unwrap();
    for (i, p) in pts.iter().enumerate() {
        assert_eq!(back.locate(p), asg[i]);
    }
}

#[test]
fn snapshot_sequence_roundtrip() {
    let mut cfg = SimConfig::tiny();
    cfg.snapshots = 3;
    let sim = cip::sim::run(&cfg);
    let json = serde_json::to_string(&sim).unwrap();
    let back: cip::sim::SimResult = serde_json::from_str(&json).unwrap();
    assert_eq!(back.len(), sim.len());
    for (a, b) in sim.snapshots.iter().zip(back.snapshots.iter()) {
        assert_eq!(a.step, b.step);
        assert_eq!(a.alive, b.alive);
        assert_eq!(a.contact.num_faces(), b.contact.num_faces());
        assert_eq!(a.points.len(), b.points.len());
    }
    back.mesh_at(0).validate().unwrap();
    // The epoch cache is not serialized: the copy rebuilds it on demand.
    for i in 0..sim.len() {
        assert_eq!(back.epoch_of(i), sim.epoch_of(i));
        let (a, b) = (SnapshotView::build(&sim, i, 5), SnapshotView::build(&back, i, 5));
        assert_eq!(a.graph2.graph.adjncy(), b.graph2.graph.adjncy());
        assert_eq!(a.graph2.graph.adjwgt(), b.graph2.graph.adjwgt());
        assert_eq!(a.graph2.node_of_vertex, b.graph2.node_of_vertex);
        assert_eq!(a.contact.nodes, b.contact.nodes);
    }
}

#[test]
fn sim_config_roundtrip() {
    let cfg = SimConfig::medium();
    let json = serde_json::to_string(&cfg).unwrap();
    let back: SimConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(back.plate_cells, cfg.plate_cells);
    assert_eq!(back.speed, cfg.speed);
    assert_eq!(back.impact_offset, cfg.impact_offset);
}
