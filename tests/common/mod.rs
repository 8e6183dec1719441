//! Shared fixtures of the executor suites: staged snapshots to feed the
//! executor directly, the executed totals of a traced run as one
//! comparable value, and an independent serial prediction of them.
#![allow(dead_code)]

use cip::contact::{serial_contact_pairs, DtreeFilter, GlobalFilter, SurfaceElementInfo};
use cip::core::{dt_friendly_correct, DtFriendlyConfig, SnapshotView};
use cip::dtree::{induce, refresh, DecisionTree, DtreeConfig};
use cip::graph::total_comm_volume;
use cip::partition::{diffusion_repartition, partition_kway, PartitionerConfig};
use cip::runtime::{build_decomposition, build_migration, Decomposition, StepInput};
use cip::sim::SimConfig;
use cip::trace::{scenario_config, ChaosOptions, TraceOptions, TraceReport};

/// CI seed sweep: `CHAOS_SEED` perturbs every chaos seed of a suite.
pub fn env_seed() -> u64 {
    std::env::var("CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0)
}

/// The message-fault mix of the traced chaos cases (no kill, short
/// loss-detection budget).
pub fn message_chaos(seed: u64) -> ChaosOptions {
    ChaosOptions {
        seed: seed ^ env_seed(),
        drop_permille: 150,
        dup_permille: 80,
        delay_permille: 80,
        reorder_permille: 80,
        kill: None,
        timeout_ms: 300,
        retries: 2,
    }
}

/// One staged snapshot; [`StepInput`]s borrow from it.
pub struct Staged {
    pub view: SnapshotView,
    /// The node assignment on the snapshot's graph vertices.
    pub asg: Vec<u32>,
    pub elements: Vec<SurfaceElementInfo<3>>,
    pub bodies: Vec<u16>,
    pub decomposition: Decomposition,
    pub tree: DecisionTree<3>,
}

/// Stages `snapshots` of the tiny scenario for `k` ranks under the
/// MCML+DT decomposition of snapshot 0 — the traced driver's prep, with a
/// freshly induced search tree per snapshot.
pub fn stage(k: usize, snapshots: &[usize]) -> Vec<Staged> {
    let sim = cip::sim::run(&SimConfig::tiny());
    let view0 = SnapshotView::build(&sim, 0, 5);
    let mut asg = partition_kway(&view0.graph2.graph, k, &PartitionerConfig::default());
    let positions: Vec<_> =
        view0.graph2.node_of_vertex.iter().map(|&n| view0.mesh.points[n as usize]).collect();
    dt_friendly_correct(&view0.graph2.graph, &positions, k, &mut asg, &DtFriendlyConfig::default());
    let node_parts = view0.graph2.assignment_on_nodes(&asg);
    snapshots
        .iter()
        .map(|&snapshot| {
            let view = SnapshotView::build(&sim, snapshot, 5);
            let asg: Vec<u32> =
                view.graph2.node_of_vertex.iter().map(|&n| node_parts[n as usize]).collect();
            let elements = view.surface_elements(&node_parts);
            let bodies = view.face_bodies();
            let owners: Vec<u32> = elements.iter().map(|e| e.owner).collect();
            let decomposition = build_decomposition(
                &view.graph2.graph,
                &view.graph2.node_of_vertex,
                &asg,
                &owners,
                k,
            );
            let labels = view.contact.labels_from_node_parts(&node_parts);
            let tree = induce(&view.contact.positions, &labels, k, &DtreeConfig::search_tree());
            Staged { view, asg, elements, bodies, decomposition, tree }
        })
        .collect()
}

/// Runs `run` over the [`StepInput`]s of the staged snapshots.
pub fn with_inputs<R>(
    staged: &[Staged],
    tolerance: f64,
    run: impl FnOnce(&[StepInput<'_, DtreeFilter<'_, 3>>]) -> R,
) -> R {
    let filters: Vec<DtreeFilter<'_, 3>> =
        staged.iter().map(|s| DtreeFilter::new(&s.tree, s.decomposition.k)).collect();
    let inputs: Vec<StepInput<'_, DtreeFilter<'_, 3>>> = staged
        .iter()
        .zip(&filters)
        .map(|(s, filter)| StepInput {
            decomposition: &s.decomposition,
            positions: &s.view.mesh.points,
            elements: &s.elements,
            bodies: &s.bodies,
            filter,
            tolerance,
            recorder: cip::telemetry::Recorder::disabled(),
        })
        .collect();
    run(&inputs)
}

/// `(steps, halo, shipments, migrated, contact_pairs, repartitions)`.
pub type Totals = (usize, u64, u64, u64, u64, usize);

/// Every executed total a traced run accumulates.
pub fn totals(r: &TraceReport) -> Totals {
    (r.steps, r.halo, r.shipments, r.migrated, r.contact_pairs, r.repartitions)
}

/// What a clean (fault-free) run of `opts` must execute, predicted
/// without threads, messages, batches or a planner: one loop over the
/// snapshots that counts FEComm with `total_comm_volume`, NRemote by
/// asking the search tree for every element's candidate parts, the
/// contact pairs with the serial search, and the migrated nodes from the
/// diffusion repartition at every period boundary. Only the inputs are
/// shared with the traced driver: the scenario, the seeded initial
/// decomposition, and the induce-then-refresh tree chain.
pub fn serial_reference(opts: &TraceOptions) -> Totals {
    let k = opts.k;
    let mut scfg = scenario_config(&opts.scenario).expect("registry scenario");
    if let Some(n) = opts.snapshots {
        scfg.snapshots = n;
    }
    let sim = cip::sim::run(&scfg);
    let pcfg = PartitionerConfig::with_seed(opts.seed);
    let dcfg = DtreeConfig::search_tree();

    let view0 = SnapshotView::build(&sim, 0, 5);
    let mut asg = partition_kway(&view0.graph2.graph, k, &pcfg);
    let positions: Vec<_> =
        view0.graph2.node_of_vertex.iter().map(|&n| view0.mesh.points[n as usize]).collect();
    dt_friendly_correct(&view0.graph2.graph, &positions, k, &mut asg, &DtFriendlyConfig::default());
    let mut node_parts = view0.graph2.assignment_on_nodes(&asg);

    let (mut halo, mut shipments, mut migrated, mut pairs, mut repartitions) = (0, 0, 0, 0, 0);
    let mut tree: Option<DecisionTree<3>> = None;
    for i in 0..sim.len() {
        let view = SnapshotView::build(&sim, i, 5);
        let on_graph = |parts: &[u32]| -> Vec<u32> {
            view.graph2.node_of_vertex.iter().map(|&n| parts[n as usize]).collect()
        };
        let boundary = opts.repartition_period.is_some_and(|p| p > 0 && i > 0 && i % p == 0);
        if boundary && k >= 2 {
            let fresh = diffusion_repartition(&view.graph2.graph, k, &on_graph(&node_parts), &pcfg);
            let moved = view.graph2.assignment_on_nodes(&fresh);
            migrated += build_migration(&node_parts, &moved, k).total_moved();
            repartitions += 1;
            for (n, &p) in moved.iter().enumerate() {
                if p != u32::MAX {
                    node_parts[n] = p;
                }
            }
            tree = None;
        }

        halo += total_comm_volume(&view.graph2.graph, &on_graph(&node_parts));

        let labels = view.contact.labels_from_node_parts(&node_parts);
        let next = match &tree {
            None => induce(&view.contact.positions, &labels, k, &dcfg),
            Some(prev) => refresh(prev, &view.contact.positions, &labels, k, &dcfg).0,
        };
        let elements = view.surface_elements(&node_parts);
        let filter = DtreeFilter::new(&next, k);
        let mut candidates = Vec::new();
        for el in &elements {
            filter.candidate_parts(&el.bbox.inflate(0.4), &mut candidates);
            shipments += candidates.iter().filter(|&&p| p != el.owner).count() as u64;
        }
        tree = Some(next);

        pairs += serial_contact_pairs(&elements, &view.face_bodies(), 0.4).len() as u64;
    }
    (sim.len(), halo, shipments, migrated, pairs, repartitions)
}
