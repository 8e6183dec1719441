//! The telemetry overhead contract (DESIGN.md §6): compiled-in,
//! default-off instrumentation must be free when disabled.
//!
//! Three kinds of rows per instrumented operation:
//!
//! * `<op>/disabled` — the shipped default: every span/counter call hits
//!   the `None` branch of the disabled [`Recorder`] and returns.
//! * `<op>/enabled` — a live recorder collecting every event, to bound
//!   the cost of actually tracing.
//! * `noop_recorder/span_event` — the per-event disabled cost in
//!   isolation.
//!
//! The guard: an operation emits O(levels) ~ tens of events, the
//! disabled per-event cost is nanoseconds (also asserted by a unit test
//! in `cip-telemetry`), so the `disabled` rows must sit within noise —
//! well under 2% — of what an uninstrumented build would measure.
//! Compare `disabled` against `enabled` to see the headroom directly.
//!
//! The same contract covers the fault-injection hooks (DESIGN.md §6b):
//! `execute_step/fault_off` runs with the default
//! [`cip_runtime::FaultInjector::none`] (one `None` branch per send),
//! and `execute_step/fault_armed_quiet` runs with an armed all-zero-rate
//! plan (full chaos bookkeeping, zero injected faults). `fault_off` must
//! sit within noise — well under 2% — of `disabled`.

use cip_contact::DtreeFilter;
use cip_core::{dt_friendly_correct, DtFriendlyConfig, SnapshotView};
use cip_dtree::{induce, DtreeConfig};
use cip_partition::rb::multilevel_bisect;
use cip_partition::{partition_kway, PartitionerConfig};
use cip_runtime::{
    build_decomposition, connect_ranks, execute_steps, ExecOptions, FaultInjector, FaultPlan,
    StepInput,
};
use cip_sim::SimConfig;
use cip_telemetry::Recorder;
use cip_transport::InProcess;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn grid(nx: usize, ny: usize) -> cip_graph::Graph {
    let mut b = cip_graph::GraphBuilder::new(nx * ny, 1);
    let id = |i: usize, j: usize| (j * nx + i) as u32;
    for j in 0..ny {
        for i in 0..nx {
            b.set_vwgt(id(i, j), &[1]);
            if i + 1 < nx {
                b.add_edge(id(i, j), id(i + 1, j), 1);
            }
            if j + 1 < ny {
                b.add_edge(id(i, j), id(i, j + 1), 1);
            }
        }
    }
    b.build()
}

fn bench_bisect(c: &mut Criterion) {
    let g = grid(96, 96);
    let mut group = c.benchmark_group("multilevel_bisect");
    for (label, recorder) in [("disabled", Recorder::disabled()), ("enabled", Recorder::enabled())]
    {
        let cfg = PartitionerConfig { recorder, ..PartitionerConfig::with_seed(11) };
        group.bench_function(label, |b| {
            b.iter(|| black_box(multilevel_bisect(&g, 0.5, &cfg, &[0.05])))
        });
    }
    group.finish();
}

fn bench_step(c: &mut Criterion) {
    let k = 4;
    let mut scfg = SimConfig::tiny();
    scfg.snapshots = 4;
    let sim = cip_sim::run(&scfg);

    let view0 = SnapshotView::build(&sim, 0, 5);
    let mut asg = partition_kway(&view0.graph2.graph, k, &PartitionerConfig::default());
    let positions: Vec<_> =
        view0.graph2.node_of_vertex.iter().map(|&n| view0.mesh.points[n as usize]).collect();
    dt_friendly_correct(&view0.graph2.graph, &positions, k, &mut asg, &DtFriendlyConfig::default());
    let node_parts = view0.graph2.assignment_on_nodes(&asg);

    let view = SnapshotView::build(&sim, sim.len() / 2, 5);
    let asg_now: Vec<u32> =
        view.graph2.node_of_vertex.iter().map(|&n| node_parts[n as usize]).collect();
    let elements = view.surface_elements(&node_parts);
    let bodies = view.face_bodies();
    let owners: Vec<u32> = elements.iter().map(|e| e.owner).collect();
    let decomposition =
        build_decomposition(&view.graph2.graph, &view.graph2.node_of_vertex, &asg_now, &owners, k);
    let labels = view.contact.labels_from_node_parts(&node_parts);
    let tree = induce(&view.contact.positions, &labels, k, &DtreeConfig::search_tree());
    let filter = DtreeFilter::new(&tree, k);

    let step = |recorder: Recorder| {
        [StepInput {
            decomposition: &decomposition,
            positions: &view.mesh.points,
            elements: &elements,
            bodies: &bodies,
            filter: &filter,
            tolerance: 0.4,
            recorder,
        }]
    };
    let opts = ExecOptions::default();
    // One mesh for every row; each iteration is a batch with its own epoch.
    let mut seats =
        connect_ranks(&InProcess, k, &opts, &Recorder::disabled()).expect("in-process mesh");
    let mut epoch = 0;
    let mut group = c.benchmark_group("execute_step");
    group.sample_size(10);
    for (label, recorder) in [("disabled", Recorder::disabled()), ("enabled", Recorder::enabled())]
    {
        let step = step(recorder);
        group.bench_function(label, |b| {
            b.iter(|| {
                epoch += 1;
                black_box(execute_steps(&step, &[], &opts, None, &mut seats, epoch))
                    .expect("step executes")
            })
        });
    }
    let armed = [
        ("fault_off", FaultInjector::none()),
        ("fault_armed_quiet", FaultInjector::with_plan(FaultPlan::quiet(7))),
    ];
    for (label, fault) in armed {
        let step = step(Recorder::disabled());
        let faults = [fault];
        group.bench_function(label, |b| {
            b.iter(|| {
                epoch += 1;
                black_box(execute_steps(&step, &faults, &opts, None, &mut seats, epoch))
                    .expect("step executes")
            })
        });
    }
    group.finish();
}

fn bench_noop_event(c: &mut Criterion) {
    let rec = Recorder::disabled();
    c.bench_function("noop_recorder/span_event", |b| {
        b.iter(|| {
            let _span = black_box(&rec).span("bench.noop").attr("x", 1u64);
        })
    });
}

criterion_group!(benches, bench_bisect, bench_step, bench_noop_event);
criterion_main!(benches);
