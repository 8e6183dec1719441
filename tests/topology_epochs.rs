//! Topology epochs against independent oracles: the nodal graph derived
//! from a `NodalTopology` must equal the edge-list construction it
//! replaced bit for bit, the topology an `EdgeIndex` derives for a live
//! mask must equal the per-mask sort it replaced, a `SnapshotView` served
//! from a run's epoch cache must equal one built cold, the boundary
//! rescanned from a `FacetIndex` must equal the sort-the-live-facets
//! extraction it replaced, and the erosion of `cip_sim::run` must equal
//! the every-centroid-every-step scan it replaced.

use cip::base::rng::{sweep, Rng};
use cip::core::SnapshotView;
use cip::geom::Point;
use cip::graph::GraphBuilder;
use cip::mesh::graphs::{nodal_graph, NodalGraphOptions};
use cip::mesh::{
    extract_surface, generators, EdgeIndex, Element, FacetIndex, Mesh, NodalGraph, Surface,
    SurfaceFace,
};
use cip::sim::dynamics::contact_surface;
use cip::sim::geometry::BODY_PROJECTILE;
use cip::sim::{SimConfig, SimResult};
use cip::telemetry::Recorder;
use std::sync::Barrier;

/// The construction `nodal_graph` used before topologies existed, kept as
/// the oracle: collect every element edge, sort, deduplicate, and let
/// `GraphBuilder` sort and merge the list again.
fn edge_list_nodal_graph<const D: usize>(
    mesh: &Mesh<D>,
    contact_mask: &[bool],
    opts: NodalGraphOptions,
) -> NodalGraph {
    let live = mesh.live_node_mask();
    let mut node_of_vertex = Vec::new();
    let mut vertex_of_node = vec![u32::MAX; mesh.num_nodes()];
    for n in 0..mesh.num_nodes() {
        if live[n] {
            vertex_of_node[n] = node_of_vertex.len() as u32;
            node_of_vertex.push(n as u32);
        }
    }
    let mut b = GraphBuilder::new(node_of_vertex.len(), opts.ncon);
    for (gv, &n) in node_of_vertex.iter().enumerate() {
        if opts.ncon == 2 {
            b.set_vwgt(gv as u32, &[1, i64::from(contact_mask[n as usize])]);
        } else {
            b.set_vwgt(gv as u32, &[1]);
        }
    }
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for (_, el) in mesh.live_elements() {
        for (a, c) in el.edges() {
            edges.push(if a < c { (a, c) } else { (c, a) });
        }
    }
    edges.sort_unstable();
    edges.dedup();
    for (a, c) in edges {
        let w = if contact_mask[a as usize] && contact_mask[c as usize] {
            opts.contact_edge_weight
        } else {
            opts.normal_edge_weight
        };
        b.add_edge(vertex_of_node[a as usize], vertex_of_node[c as usize], w);
    }
    NodalGraph { graph: b.build(), node_of_vertex, vertex_of_node }
}

/// The extraction `extract_surface` was before facet indexes existed,
/// kept as the oracle: collect the facets of the *live* elements, sort
/// them, keep the runs of length one, then sort and deduplicate their
/// node ids.
fn sorted_live_facets_surface<const D: usize>(mesh: &Mesh<D>) -> Surface {
    let mut recs: Vec<([u32; 4], u32, u8)> = Vec::new();
    for (e, el) in mesh.live_elements() {
        for f in 0..el.kind.num_faces() {
            recs.push((el.face(f).key(), e, f as u8));
        }
    }
    recs.sort_unstable_by_key(|a| a.0);
    let mut faces = Vec::new();
    let mut i = 0;
    while i < recs.len() {
        let mut j = i + 1;
        while j < recs.len() && recs[j].0 == recs[i].0 {
            j += 1;
        }
        if j - i == 1 {
            let (_, e, f) = recs[i];
            faces.push(SurfaceFace {
                face: mesh.elements[e as usize].face(f as usize),
                element: e,
                body: mesh.body[e as usize],
            });
        }
        i = j;
    }
    let contact_nodes = sorted_face_nodes(&faces);
    Surface { faces, contact_nodes }
}

/// The contact nodes of `faces` by sort + dedup — how every surface
/// listed them before the mark-and-sweep.
fn sorted_face_nodes(faces: &[SurfaceFace]) -> Vec<u32> {
    let mut nodes: Vec<u32> = faces.iter().flat_map(|sf| sf.face.nodes().iter().copied()).collect();
    nodes.sort_unstable();
    nodes.dedup();
    nodes
}

fn assert_same_graph(got: &NodalGraph, want: &NodalGraph) {
    assert_eq!(got.node_of_vertex, want.node_of_vertex);
    assert_eq!(got.vertex_of_node, want.vertex_of_node);
    assert_eq!(got.graph.ncon(), want.graph.ncon());
    assert_eq!(got.graph.xadj(), want.graph.xadj());
    assert_eq!(got.graph.adjncy(), want.graph.adjncy());
    assert_eq!(got.graph.adjwgt(), want.graph.adjwgt());
    assert_eq!(got.graph.vwgt_raw(), want.graph.vwgt_raw());
}

const OPTION_SETS: [NodalGraphOptions; 2] = [
    NodalGraphOptions { ncon: 2, contact_edge_weight: 5, normal_edge_weight: 1 },
    NodalGraphOptions { ncon: 1, contact_edge_weight: 1, normal_edge_weight: 1 },
];

/// Splits every hexahedron into the six tetrahedra around its 0–6
/// diagonal (node ids, bodies and the live mask carry over).
fn tetrahedralized(hexes: &Mesh<3>) -> Mesh<3> {
    const AROUND_DIAGONAL: [[usize; 2]; 6] = [[1, 2], [2, 3], [3, 7], [7, 4], [4, 5], [5, 1]];
    let mut elements = Vec::new();
    let mut body = Vec::new();
    let mut alive = Vec::new();
    for (e, hex) in hexes.elements.iter().enumerate() {
        let n = hex.nodes();
        for [a, c] in AROUND_DIAGONAL {
            elements.push(Element::tet4([n[0], n[a], n[c], n[6]]));
            body.push(hexes.body[e]);
            alive.push(hexes.alive[e]);
        }
    }
    Mesh { points: hexes.points.clone(), elements, body, alive }
}

/// A hex box or its tetrahedralization, randomly eroded, with a random
/// contact mask over its nodes.
fn eroded_mesh_and_mask(rng: &mut Rng) -> (Mesh<3>, Vec<bool>) {
    let dims = [1..5, 1..4, 1..4].map(|range| rng.range_i64(range) as usize);
    let mut flip = || rng.range_u32(2) == 1;
    let hexes = generators::hex_box(dims, Point::new([0.0; 3]), [1.0; 3], 0);
    let mut mesh = if flip() { tetrahedralized(&hexes) } else { hexes };
    for e in 0..mesh.num_elements() as u32 {
        if flip() {
            mesh.erode(e);
        }
    }
    let mask = (0..mesh.num_nodes()).map(|_| flip()).collect();
    (mesh, mask)
}

/// `nodal_graph` through `NodalTopology` equals the edge-list
/// construction: offsets, neighbours (rows ascending), both weight
/// arrays and both node maps, under the boundary's contact mask and
/// under an arbitrary one.
#[test]
fn nodal_graph_equals_the_edge_list_construction() {
    sweep(96, |rng| {
        let (mesh, random_mask) = eroded_mesh_and_mask(rng);
        let surface_mask = extract_surface(&mesh).contact_node_mask(mesh.num_nodes());
        for mask in [&surface_mask, &random_mask] {
            for opts in OPTION_SETS {
                let got = nodal_graph(&mesh, mask, opts);
                got.graph.validate().unwrap();
                assert_same_graph(&got, &edge_list_nodal_graph(&mesh, mask, opts));
            }
        }
    });
}

/// The per-mask construction `NodalTopology::build` was before edge
/// indexes existed, kept as the oracle: number the live elements' nodes,
/// collect every live element edge into both endpoints' rows, then sort
/// and deduplicate each row. Returns `(node_of_vertex, xadj, adjncy)`.
fn sorted_rows_topology(
    num_nodes: usize,
    elements: &[Element],
    alive: &[bool],
) -> (Vec<u32>, Vec<usize>, Vec<u32>) {
    let live = || elements.iter().zip(alive).filter(|&(_, &a)| a).map(|(el, _)| el);
    let mut vertex_of_node = vec![u32::MAX; num_nodes];
    for el in live() {
        for &n in el.nodes() {
            vertex_of_node[n as usize] = 0;
        }
    }
    let mut node_of_vertex = Vec::new();
    for (n, slot) in vertex_of_node.iter_mut().enumerate() {
        if *slot == 0 {
            *slot = node_of_vertex.len() as u32;
            node_of_vertex.push(n as u32);
        }
    }
    let mut rows = vec![Vec::new(); node_of_vertex.len()];
    for (a, c) in live().flat_map(|el| el.edges()).filter(|&(a, c)| a != c) {
        let (a, c) = (vertex_of_node[a as usize], vertex_of_node[c as usize]);
        rows[a as usize].push(c);
        rows[c as usize].push(a);
    }
    let mut xadj = vec![0];
    let mut adjncy = Vec::new();
    for mut row in rows {
        row.sort_unstable();
        row.dedup();
        adjncy.extend(row);
        xadj.push(adjncy.len());
    }
    (node_of_vertex, xadj, adjncy)
}

/// One edge index serves every live mask of its mesh: nothing eroded,
/// three random masks of random density, then nothing alive, then a
/// single survivor — all equal the oracle.
fn assert_topologies_match_oracle<const D: usize>(rng: &mut Rng, mesh: &Mesh<D>) {
    let n = mesh.num_elements();
    let mut masks = vec![vec![true; n]];
    for _ in 0..3 {
        let keep = rng.range_u32(5);
        masks.push((0..n).map(|_| rng.range_u32(4) < keep).collect());
    }
    masks.push(vec![false; n]);
    let mut lone = vec![false; n];
    lone[rng.range_u32(n as u32) as usize] = true;
    masks.push(lone);
    let index = EdgeIndex::build(mesh.num_nodes(), &mesh.elements);
    for alive in masks {
        let got = index.topology(&mesh.elements, &alive);
        let (node_of_vertex, xadj, adjncy) =
            sorted_rows_topology(mesh.num_nodes(), &mesh.elements, &alive);
        assert_eq!(got.node_of_vertex(), node_of_vertex);
        assert_eq!(got.xadj(), xadj);
        assert_eq!(got.adjncy(), adjncy);
    }
}

/// Hex and tet boxes (possibly one element), quad grids, and a three-body
/// mesh.
#[test]
fn indexed_topology_equals_the_per_mask_row_sort() {
    sweep(48, |rng| {
        let dims = [1..5, 1..4, 1..4].map(|range| rng.range_i64(range) as usize);
        let hexes = generators::hex_box(dims, Point::new([0.0; 3]), [1.0; 3], 0);
        assert_topologies_match_oracle(rng, &tetrahedralized(&hexes));
        assert_topologies_match_oracle(rng, &hexes);

        let dims = [1..6, 1..6].map(|range| rng.range_i64(range) as usize);
        let quads = generators::quad_grid(dims, Point::new([0.0; 2]), [1.0; 2], 3);
        assert_topologies_match_oracle(rng, &quads);

        let mut bodies = generators::hex_box([2, 2, 1], Point::new([0.0; 3]), [1.0; 3], 1);
        bodies.append(&generators::hex_box([2, 2, 1], Point::new([0.0, 0.0, 1.0]), [1.0; 3], 2));
        bodies.append(&generators::hex_box([1, 1, 3], Point::new([5.0, 0.0, 0.0]), [1.0; 3], 7));
        assert_topologies_match_oracle(rng, &bodies);
    });
    let single = generators::hex_box([1, 1, 1], Point::new([0.0; 3]), [1.0; 3], 0);
    let index = EdgeIndex::build(single.num_nodes(), &single.elements);
    let topology = index.topology(&single.elements, &[true]);
    assert_eq!((topology.node_of_vertex().len(), topology.adjncy().len()), (8, 24));
    assert!(index.topology(&single.elements, &[false]).node_of_vertex().is_empty());
}

/// The erosion loop `cip_sim::run` ran before it listed the bore, kept as
/// the oracle: test every element's rest centroid against the footprint
/// and the tip at every step. Returns the live mask at each snapshot.
fn scanned_erosion(cfg: &SimConfig, base: &Mesh<3>) -> Vec<Vec<bool>> {
    let erosion_hw = cfg.proj_half_width() + 0.25 * cfg.cell;
    let centroids: Vec<Point<3>> =
        (0..base.num_elements() as u32).map(|e| base.element_centroid(e)).collect();
    let mut alive = base.alive.clone();
    let mut masks = Vec::new();
    for step in 1..=cfg.steps {
        let tip_z = cfg.standoff - cfg.speed * step as f64;
        for (e, c) in centroids.iter().enumerate() {
            if alive[e]
                && base.body[e] != BODY_PROJECTILE
                && (c[0] - cfg.impact_offset[0]).abs() <= erosion_hw
                && (c[1] - cfg.impact_offset[1]).abs() <= erosion_hw
                && c[2] >= tip_z
            {
                alive[e] = false;
            }
        }
        let snapshots_here =
            (0..cfg.snapshots).filter(|s| ((s + 1) * cfg.steps) / cfg.snapshots == step).count();
        masks.extend(std::iter::repeat_n(alive.clone(), snapshots_here));
    }
    masks
}

/// Every snapshot of every registered scenario and of `medium()` carries
/// the live mask of the scanned erosion, and the contact surface clipped
/// from that mask's boundary.
#[test]
fn bore_list_erosion_equals_the_every_centroid_scan() {
    let mut medium = SimConfig::medium();
    medium.snapshots = 25;
    let configs = cip::sim::scenarios::list().iter().map(|d| (d.name, d.config()));
    for (name, cfg) in configs.chain([("medium", medium)]) {
        let sim = cip::sim::run(&cfg);
        let masks = scanned_erosion(&cfg, &sim.base);
        assert_eq!(masks.len(), sim.len(), "{name}");
        let facets = FacetIndex::build(&sim.base);
        for (i, (snap, alive)) in sim.snapshots.iter().zip(&masks).enumerate() {
            assert_eq!(&snap.alive, alive, "{name} snapshot {i}");
            let clipped = contact_surface(&cfg, &facets.boundary(alive), &snap.points);
            assert_eq!(snap.contact, clipped, "{name} snapshot {i}");
        }
        assert!(masks.last().unwrap().iter().any(|&a| !a), "{name}: nothing eroded");
    }
}

/// One facet index serves every live mask of its mesh: the extraction and
/// three rescans under fresh random masks — then nothing alive, then a
/// single survivor — all equal the oracle.
fn assert_boundaries_match_oracle<const D: usize>(rng: &mut Rng, mut mesh: Mesh<D>) {
    assert_eq!(extract_surface(&mesh), sorted_live_facets_surface(&mesh));
    let n = mesh.num_elements();
    let mut masks: Vec<Vec<bool>> =
        (0..3).map(|_| (0..n).map(|_| rng.range_u32(2) == 1).collect()).collect();
    masks.push(vec![false; n]);
    let mut lone = vec![false; n];
    lone[rng.range_u32(n as u32) as usize] = true;
    masks.push(lone);
    let pristine = mesh.clone();
    let index = FacetIndex::build(&pristine);
    for alive in masks {
        mesh.alive = alive;
        assert_eq!(index.boundary(&mesh.alive), sorted_live_facets_surface(&mesh));
    }
}

/// Hex and tet boxes (eroded, possibly one element), quad grids, and a
/// three-body mesh whose bodies must come through on every face.
#[test]
fn rescanned_boundary_equals_the_sorted_live_facets_extraction() {
    sweep(48, |rng| {
        let (mesh, _) = eroded_mesh_and_mask(rng);
        assert_boundaries_match_oracle(rng, mesh);

        let dims = [1..6, 1..6].map(|range| rng.range_i64(range) as usize);
        let quads = generators::quad_grid(dims, Point::new([0.0; 2]), [1.0; 2], 3);
        assert_boundaries_match_oracle(rng, quads);

        // Two boxes stacked node-disjoint plus a third beside them, each
        // its own body — like the plates and the projectile.
        let mut bodies = generators::hex_box([2, 2, 1], Point::new([0.0; 3]), [1.0; 3], 1);
        bodies.append(&generators::hex_box([2, 2, 1], Point::new([0.0, 0.0, 1.0]), [1.0; 3], 2));
        bodies.append(&generators::hex_box([1, 1, 3], Point::new([5.0, 0.0, 0.0]), [1.0; 3], 7));
        assert_boundaries_match_oracle(rng, bodies);
    });
    let single = generators::hex_box([1, 1, 1], Point::new([0.0; 3]), [1.0; 3], 0);
    assert_eq!(extract_surface(&single).num_faces(), 6);
    assert_eq!(extract_surface(&single), sorted_live_facets_surface(&single));
}

/// Every snapshot of every registered scenario lists the contact nodes a
/// sort + dedup of its faces' nodes would, and carries the faces the
/// oracle extraction and a fresh clip produce.
#[test]
fn contact_nodes_equal_the_sort_and_dedup_on_every_scenario() {
    for descriptor in cip::sim::scenarios::list() {
        let cfg = descriptor.config();
        let sim = cip::sim::run(&cfg);
        let mut boundary: Option<Surface> = None;
        for (i, snap) in sim.snapshots.iter().enumerate() {
            assert_eq!(
                snap.contact.contact_nodes,
                sorted_face_nodes(&snap.contact.faces),
                "{} snapshot {i}",
                descriptor.name
            );
            // The oracle boundary, re-extracted where the live mask moved.
            if i == 0 || sim.epoch_of(i) != sim.epoch_of(i - 1) {
                boundary = Some(sorted_live_facets_surface(&sim.mesh_at(i)));
            }
            let clipped = contact_surface(&cfg, boundary.as_ref().unwrap(), &snap.points);
            assert_eq!(snap.contact, clipped, "{} snapshot {i}", descriptor.name);
        }
    }
}

/// Everything of `got` equals a view assembled without the epoch cache:
/// graphs from the edge-list oracle, the rest from the snapshot itself.
fn assert_view_matches_oracle(sim: &SimResult, i: usize, got: &SnapshotView) {
    let snap = &sim.snapshots[i];
    let mesh = sim.mesh_at(i);
    let mask = snap.contact.contact_node_mask(mesh.num_nodes());
    assert_same_graph(&got.graph2, &edge_list_nodal_graph(&mesh, &mask, OPTION_SETS[0]));
    assert_same_graph(&got.graph1, &edge_list_nodal_graph(&mesh, &mask, OPTION_SETS[1]));
    assert_eq!(got.mesh.points, snap.points);
    assert_eq!(got.mesh.alive, snap.alive);
    assert_eq!(got.contact.nodes, snap.contact.contact_nodes);
    for (&n, p) in got.contact.nodes.iter().zip(&got.contact.positions) {
        assert_eq!(*p, snap.points[n as usize]);
    }
    assert_eq!(got.faces, snap.contact.faces);
    // The face pass boxes every face around its nodes at this snapshot.
    let elements = got.surface_elements(&vec![0; mesh.num_nodes()]);
    assert_eq!(elements.len(), snap.contact.faces.len());
    for (e, sf) in elements.iter().zip(&snap.contact.faces) {
        for &n in sf.face.nodes() {
            assert!(e.bbox.contains_point(&snap.points[n as usize]));
        }
    }
}

fn assert_same_view(a: &SnapshotView, b: &SnapshotView) {
    assert_same_graph(&a.graph2, &b.graph2);
    assert_same_graph(&a.graph1, &b.graph1);
    assert_eq!(a.mesh.points, b.mesh.points);
    assert_eq!(a.mesh.alive, b.mesh.alive);
    assert_eq!((&a.contact.nodes, &a.contact.positions), (&b.contact.nodes, &b.contact.positions));
    assert_eq!(a.faces, b.faces);
}

/// `tiny`, and a `head_on` cut to 12 snapshots.
fn runs() -> Vec<(SimConfig, SimResult)> {
    let mut head_on = cip::sim::head_on();
    head_on.snapshots = 12;
    [SimConfig::tiny(), head_on].into_iter().map(|cfg| (cfg.clone(), cip::sim::run(&cfg))).collect()
}

#[test]
fn epochs_are_the_maximal_runs_of_one_live_mask() {
    for (_, sim) in runs() {
        assert_eq!(sim.epoch_of(0), 0);
        assert_eq!(sim.epoch_of(sim.len() - 1) + 1, sim.num_epochs());
        for i in 1..sim.len() {
            let same_mask = sim.snapshots[i].alive == sim.snapshots[i - 1].alive;
            assert_eq!(sim.epoch_of(i) - sim.epoch_of(i - 1), usize::from(!same_mask));
        }
        // Both paths of the cache are reachable on these runs.
        assert!(sim.num_epochs() >= 2, "no erosion event");
        assert!(sim.num_epochs() < sim.len(), "no epoch spans two snapshots");
    }
}

#[test]
fn cached_views_equal_cold_rebuilds_on_every_snapshot() {
    for (_, sim) in runs() {
        let rec = Recorder::enabled();
        for i in 0..sim.len() {
            let cached = SnapshotView::build_recorded(&sim, i, 5, &rec);
            assert_view_matches_oracle(&sim, i, &cached);
            // A run that has never served a view: every lookup misses.
            let cold_sim = SimResult::new(sim.base.clone(), sim.snapshots.clone());
            assert_same_view(&cached, &SnapshotView::build(&cold_sim, i, 5));
        }
        assert_eq!(rec.counter_value("mesh.topology.builds"), sim.num_epochs() as u64);
        assert_eq!(rec.counter_value("mesh.topology.hits"), (sim.len() - sim.num_epochs()) as u64);
    }
}

#[test]
fn stored_contact_surfaces_equal_a_fresh_extraction_and_clip() {
    for (cfg, sim) in runs() {
        for (i, snap) in sim.snapshots.iter().enumerate() {
            let fresh = contact_surface(&cfg, &extract_surface(&sim.mesh_at(i)), &snap.points);
            assert_eq!(snap.contact, fresh, "snapshot {i}");
        }
    }
}

#[test]
fn two_threads_building_views_at_once_share_one_topology_per_epoch() {
    for (_, sim) in runs() {
        let rec = Recorder::enabled();
        let start = Barrier::new(2);
        std::thread::scope(|scope| {
            // Opposite orders: the threads meet in the middle, and each
            // finds epochs the other has already built.
            let forward = scope.spawn(|| {
                start.wait();
                (0..sim.len()).map(|i| SnapshotView::build_recorded(&sim, i, 5, &rec)).collect()
            });
            let backward = scope.spawn(|| {
                start.wait();
                let mut views: Vec<SnapshotView> = (0..sim.len())
                    .rev()
                    .map(|i| SnapshotView::build_recorded(&sim, i, 5, &rec))
                    .collect();
                views.reverse();
                views
            });
            let forward: Vec<SnapshotView> = forward.join().expect("forward builder");
            let backward = backward.join().expect("backward builder");
            for (i, (a, b)) in forward.iter().zip(&backward).enumerate() {
                assert_view_matches_oracle(&sim, i, a);
                assert_same_view(a, b);
            }
        });
        let builds = rec.counter_value("mesh.topology.builds");
        assert_eq!(builds, sim.num_epochs() as u64, "an epoch was built twice or never");
        assert_eq!(builds + rec.counter_value("mesh.topology.hits"), 2 * sim.len() as u64);
    }
}
