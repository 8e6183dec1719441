//! Mesh-processing costs: boundary-surface extraction and nodal-graph
//! construction. Both are paid once per topology epoch (`nodal_graph_2con`
//! is the miss: topology build + weights); within an epoch a snapshot pays
//! only `topology_hit_2con`, the weights over a topology already built.

use cip_geom::Point;
use cip_mesh::graphs::{nodal_graph, NodalGraphOptions};
use cip_mesh::{extract_surface, generators, NodalTopology};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_mesh_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("mesh_build");
    group.sample_size(10);
    for &side in &[16usize, 32] {
        let mesh = generators::hex_box([side, side, 4], Point::new([0.0; 3]), [1.0; 3], 0);
        let elems = mesh.num_elements();
        group.bench_with_input(BenchmarkId::new("extract_surface", elems), &mesh, |b, m| {
            b.iter(|| black_box(extract_surface(m)));
        });
        let surface = extract_surface(&mesh);
        let mask = surface.contact_node_mask(mesh.num_nodes());
        group.bench_with_input(BenchmarkId::new("nodal_graph_2con", elems), &mesh, |b, m| {
            b.iter(|| black_box(nodal_graph(m, &mask, NodalGraphOptions::default())));
        });
        let topology = NodalTopology::build(mesh.num_nodes(), &mesh.elements, &mesh.alive);
        group.bench_with_input(BenchmarkId::new("topology_hit_2con", elems), &topology, |b, t| {
            b.iter(|| black_box(t.graph(&mask, NodalGraphOptions::default())));
        });
        group.bench_with_input(BenchmarkId::new("dual_graph", elems), &mesh, |b, m| {
            b.iter(|| black_box(cip_mesh::dual_graph(m)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_mesh_build);
criterion_main!(benches);
