//! Cost of one executed parallel step (threads + channels) vs the number
//! of ranks — the end-to-end overhead of the runtime harness itself.

use cip_contact::DtreeFilter;
use cip_core::{dt_friendly_correct, DtFriendlyConfig, SnapshotView};
use cip_dtree::{induce, DtreeConfig};
use cip_partition::{partition_kway, PartitionerConfig};
use cip_runtime::{build_decomposition, connect_ranks, execute_steps, ExecOptions, StepInput};
use cip_sim::SimConfig;
use cip_telemetry::Recorder;
use cip_transport::InProcess;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_step(c: &mut Criterion) {
    let mut cfg = SimConfig::tiny();
    cfg.snapshots = 8;
    let sim = cip_sim::run(&cfg);
    let i = sim.len() / 2;

    let mut group = c.benchmark_group("runtime_step");
    group.sample_size(10);
    for &k in &[2usize, 4, 8] {
        let view0 = SnapshotView::build(&sim, 0, 5);
        let mut asg = partition_kway(&view0.graph2.graph, k, &PartitionerConfig::default());
        let positions: Vec<_> =
            view0.graph2.node_of_vertex.iter().map(|&n| view0.mesh.points[n as usize]).collect();
        dt_friendly_correct(
            &view0.graph2.graph,
            &positions,
            k,
            &mut asg,
            &DtFriendlyConfig::default(),
        );
        let node_parts = view0.graph2.assignment_on_nodes(&asg);

        let view = SnapshotView::build(&sim, i, 5);
        let asg_now: Vec<u32> =
            view.graph2.node_of_vertex.iter().map(|&n| node_parts[n as usize]).collect();
        let elements = view.surface_elements(&node_parts);
        let bodies = view.face_bodies();
        let owners: Vec<u32> = elements.iter().map(|e| e.owner).collect();
        let decomposition = build_decomposition(
            &view.graph2.graph,
            &view.graph2.node_of_vertex,
            &asg_now,
            &owners,
            k,
        );
        let labels = view.contact.labels_from_node_parts(&node_parts);
        let tree = induce(&view.contact.positions, &labels, k, &DtreeConfig::search_tree());

        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            let filter = DtreeFilter::new(&tree, k);
            let step = [StepInput {
                decomposition: &decomposition,
                positions: &view.mesh.points,
                elements: &elements,
                bodies: &bodies,
                filter: &filter,
                tolerance: 0.4,
                recorder: Recorder::disabled(),
            }];
            let opts = ExecOptions::default();
            let mut seats = connect_ranks(&InProcess, k, &opts, &Recorder::disabled())
                .expect("in-process mesh");
            let mut epoch = 0;
            b.iter(|| {
                epoch += 1;
                black_box(execute_steps(&step, &[], &opts, None, &mut seats, epoch))
                    .expect("step executes")
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_step);
criterion_main!(benches);
