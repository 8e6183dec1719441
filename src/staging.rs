//! Step staging: the executor inputs of a batch of snapshots, each
//! quantity computed at the rate its inputs change (DESIGN.md §5
//! "topology epochs", §6b).
//!
//! * per topology epoch × tree chain — the halo send lists, a function of
//!   the epoch's nodal adjacency and the chain's (constant) assignment;
//! * per snapshot — the contact points and their labels, the search tree
//!   refreshed from the previous snapshot's, and `cip_core`'s face pass
//!   for every contact face's box, owner and body.
//!
//! Nothing here materialises a mesh or a weighted graph: node positions
//! are borrowed from the run's snapshots, and the adjacency is read from
//! the epoch's `NodalTopology` rows. `scripts/verify.sh` holds the
//! non-test part of this file to that.

use cip_contact::{DtreeFilter, SurfaceElementInfo};
use cip_core::{face_bodies, gather, surface_elements};
use cip_dtree::{induce_recorded, refresh_recorded, DecisionTree, DtreeConfig};
use cip_runtime::{Decomposition, HaloPlan, StepInput};
use cip_sim::SimResult;
use cip_telemetry::Recorder;

/// Contact capture tolerance of every traced step.
const TOLERANCE: f64 = 0.4;

/// What staging carries from batch to batch inside one tree chain — the
/// stretch of snapshots between two changes of the assignment
/// (repartition boundary, rank-loss recovery). Whoever stages a chain —
/// the session's driver, a worker process — keeps one across its batches
/// and starts a fresh one with `Chain::default()` where the assignment
/// changes.
#[derive(Default)]
pub(crate) struct Chain {
    /// The search tree of the last snapshot staged and executed (`None`
    /// where the chain starts: the next tree is induced from scratch).
    pub(crate) tree: Option<DecisionTree<3>>,
    /// The halo plan of the latest topology epoch staged, with that
    /// epoch. Snapshots are staged in time order and epochs only grow, so
    /// an older epoch's plan is never asked for again.
    halo: Option<(usize, HaloPlan)>,
}

/// Owned inputs of one staged step; [`StepInput`]s borrow from it and
/// from the run's snapshot.
pub(crate) struct StagedStep {
    snapshot: usize,
    elements: Vec<SurfaceElementInfo<3>>,
    bodies: Vec<u16>,
    decomposition: Decomposition,
    pub(crate) tree: DecisionTree<3>,
}

/// Stages the steps `batch` of a trace under the assignment
/// `node_parts`: per snapshot, the decomposition and the search tree —
/// refreshed from the previous snapshot's tree, or induced from scratch
/// where the chain starts. `chain.tree` is the tree of snapshot
/// `batch.start - 1` (`None`: the chain starts at `batch.start`);
/// `node_parts` is constant within a chain, so consecutive batches staged
/// through one chain arrive at the trees and halo plans of a single pass
/// over the whole chain, bit for bit.
pub(crate) fn stage_batch(
    sim: &SimResult,
    node_parts: &[u32],
    live_k: usize,
    chain: &mut Chain,
    batch: std::ops::Range<usize>,
    rec: &Recorder,
) -> Vec<StagedStep> {
    let dcfg = DtreeConfig::search_tree();
    let mut steps: Vec<StagedStep> = Vec::with_capacity(batch.len());
    for j in batch {
        let _step_span = rec.span("trace.step").attr("step", j);
        let snap = &sim.snapshots[j];
        let nodes = &snap.contact.contact_nodes;
        let (positions, labels) = (gather(nodes, &snap.points), gather(nodes, node_parts));
        let tree = match steps.last().map(|s| &s.tree).or(chain.tree.as_ref()) {
            None => induce_recorded(&positions, &labels, live_k, &dcfg, rec),
            Some(prev) => refresh_recorded(prev, &positions, &labels, live_k, &dcfg, rec).0,
        };

        let epoch = sim.epoch_of(j);
        let halo = match &mut chain.halo {
            Some((built_for, plan)) if *built_for == epoch => {
                rec.add("stage.halo_plan.hits", 1);
                &*plan
            }
            slot => {
                let _span = rec.span("stage.halo_plan").attr("epoch", epoch);
                rec.add("stage.halo_plan.builds", 1);
                let topology = sim.topology(j, rec);
                let assignment = gather(topology.node_of_vertex(), node_parts);
                let plan = HaloPlan::build(
                    topology.xadj(),
                    topology.adjncy(),
                    topology.node_of_vertex(),
                    &assignment,
                    live_k,
                );
                &slot.insert((epoch, plan)).1
            }
        };

        let faces = &snap.contact.faces;
        let _frame_span = rec.span("stage.frame").attr("faces", faces.len());
        let (elements, bodies) =
            (surface_elements(faces, &snap.points, node_parts), face_bodies(faces));
        let decomposition = halo.decomposition(elements.iter().map(|e| e.owner));
        steps.push(StagedStep { snapshot: j, elements, bodies, decomposition, tree });
    }
    steps
}

/// Runs `run` over the [`StepInput`]s of a batch staged from `sim`, all
/// reporting to `rec`.
pub(crate) fn with_staged_inputs<R>(
    sim: &SimResult,
    staged: &[StagedStep],
    rec: &Recorder,
    run: impl FnOnce(&[StepInput<'_, DtreeFilter<'_, 3>>]) -> R,
) -> R {
    let filters: Vec<DtreeFilter<'_, 3>> =
        staged.iter().map(|s| DtreeFilter::new(&s.tree, s.decomposition.k)).collect();
    let inputs: Vec<StepInput<'_, DtreeFilter<'_, 3>>> = staged
        .iter()
        .zip(&filters)
        .map(|(s, filter)| StepInput {
            decomposition: &s.decomposition,
            positions: &sim.snapshots[s.snapshot].points,
            elements: &s.elements,
            bodies: &s.bodies,
            filter,
            tolerance: TOLERANCE,
            recorder: rec.clone(),
        })
        .collect();
    run(&inputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cip_core::{face_owner, SnapshotView};
    use cip_runtime::build_decomposition;
    use cip_sim::scenarios;

    /// Snapshots per scenario: enough to cross erosion events, few
    /// enough to build a full view of every one.
    const SNAPSHOTS: usize = 9;

    /// A label in `0..k` for every node: stripes along `axis` of the rest
    /// mesh. Independent of the partitioner, valid for any snapshot.
    fn striped(sim: &SimResult, k: usize, axis: usize) -> Vec<u32> {
        let coords = || sim.base.points.iter().map(|p| p[axis]);
        let lo = coords().fold(f64::INFINITY, f64::min);
        let width = coords().fold(f64::NEG_INFINITY, f64::max) - lo;
        coords().map(|x| (((x - lo) / width * k as f64) as usize).min(k - 1) as u32).collect()
    }

    /// What staging must produce for snapshot `j`, derived the long way
    /// round: a full `SnapshotView`, a face pass of its own over the
    /// view's copied mesh, and `build_decomposition` over its weighted
    /// graph. `prev` is the oracle's own tree chain.
    fn oracle_step(
        sim: &SimResult,
        j: usize,
        node_parts: &[u32],
        k: usize,
        prev: Option<&DecisionTree<3>>,
    ) -> (Vec<SurfaceElementInfo<3>>, Vec<u16>, Decomposition, DecisionTree<3>) {
        let view = SnapshotView::build(sim, j, 5);
        let labels = view.contact.labels_from_node_parts(node_parts);
        let dcfg = DtreeConfig::search_tree();
        let rec = Recorder::disabled();
        let tree = match prev {
            None => induce_recorded(&view.contact.positions, &labels, k, &dcfg, &rec),
            Some(p) => refresh_recorded(p, &view.contact.positions, &labels, k, &dcfg, &rec).0,
        };
        let assignment: Vec<u32> =
            view.graph2.node_of_vertex.iter().map(|&n| node_parts[n as usize]).collect();
        // Not `cip_core::surface_elements`: box each face here, so the
        // staged face pass is checked against a second implementation.
        let mut elements = Vec::with_capacity(view.faces.len());
        let mut bodies = Vec::with_capacity(view.faces.len());
        for sf in &view.faces {
            let mut bbox = cip_geom::Aabb::empty();
            for &n in sf.face.nodes() {
                bbox.grow(&view.mesh.points[n as usize]);
            }
            elements
                .push(SurfaceElementInfo { bbox, owner: face_owner(sf.face.nodes(), node_parts) });
            bodies.push(sf.body);
        }
        let owners: Vec<u32> = elements.iter().map(|e| e.owner).collect();
        let decomposition = build_decomposition(
            &view.graph2.graph,
            &view.graph2.node_of_vertex,
            &assignment,
            &owners,
            k,
        );
        (elements, bodies, decomposition, tree)
    }

    fn assert_step_matches(
        sim: &SimResult,
        got: &StagedStep,
        want: &(Vec<SurfaceElementInfo<3>>, Vec<u16>, Decomposition, DecisionTree<3>),
        what: &str,
    ) {
        let (elements, bodies, decomposition, tree) = want;
        assert_eq!(got.elements.len(), elements.len(), "{what}");
        for (a, b) in got.elements.iter().zip(elements) {
            assert_eq!((a.bbox, a.owner), (b.bbox, b.owner), "{what}");
        }
        assert_eq!(&got.bodies, bodies, "{what}");
        assert_eq!(got.decomposition.k, decomposition.k, "{what}");
        for (a, b) in got.decomposition.ranks.iter().zip(&decomposition.ranks) {
            assert_eq!(a.send_halo, b.send_halo, "{what}: send lists");
            assert_eq!(a.owned_surface, b.owned_surface, "{what}: owned surface");
        }
        assert_eq!(format!("{:?}", got.tree), format!("{tree:?}"), "{what}: tree");
        // The positions a step input borrows are the snapshot's own.
        with_staged_inputs(sim, std::slice::from_ref(got), &Recorder::disabled(), |inputs| {
            assert!(std::ptr::eq(inputs[0].positions, &sim.snapshots[got.snapshot].points[..]));
        });
    }

    #[test]
    fn staged_steps_equal_the_view_and_decomposition_oracle() {
        for descriptor in scenarios::list() {
            let mut cfg = descriptor.config();
            cfg.snapshots = SNAPSHOTS;
            let sim = cip_sim::run(&cfg);
            assert!(sim.num_epochs() >= 2, "{}: no epoch change to stage across", descriptor.name);
            for k in [2usize, 4, 7] {
                for reassign_at in [None, Some(SNAPSHOTS / 2)] {
                    let what = format!("{} k={k} reassign={reassign_at:?}", descriptor.name);
                    let rec = Recorder::enabled();
                    let mut node_parts = striped(&sim, k, 0);
                    let mut chain = Chain::default();
                    let mut oracle_tree: Option<DecisionTree<3>> = None;
                    // Batches of 2, cut at the reassignment like the
                    // driver cuts them at a boundary.
                    let mut i = 0;
                    while i < sim.len() {
                        if reassign_at == Some(i) {
                            node_parts = striped(&sim, k, 1);
                            chain = Chain::default();
                            oracle_tree = None;
                        }
                        let mut end = (i + 2).min(sim.len());
                        if let Some(at) = reassign_at.filter(|&at| at > i) {
                            end = end.min(at);
                        }
                        let mut staged =
                            stage_batch(&sim, &node_parts, k, &mut chain, i..end, &rec);
                        assert_eq!(staged.len(), end - i, "{what}");
                        for (off, got) in staged.iter().enumerate() {
                            let j = i + off;
                            let want = oracle_step(&sim, j, &node_parts, k, oracle_tree.as_ref());
                            assert_step_matches(&sim, got, &want, &format!("{what} step {j}"));
                            oracle_tree = Some(want.3);
                        }
                        chain.tree = staged.pop().map(|s| s.tree);
                        i = end;
                    }
                    // One halo plan per (chain, epoch) pair staged.
                    let chain_of = |j: usize| usize::from(reassign_at.is_some_and(|at| j >= at));
                    let mut pairs: Vec<(usize, usize)> =
                        (0..sim.len()).map(|j| (chain_of(j), sim.epoch_of(j))).collect();
                    pairs.dedup();
                    assert_eq!(
                        rec.counter_value("stage.halo_plan.builds"),
                        pairs.len() as u64,
                        "{what}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "only 3 ranks are live")]
    fn a_label_of_a_dead_rank_fails_by_name_not_by_index() {
        let mut cfg = cip_sim::SimConfig::tiny();
        cfg.snapshots = 2;
        let sim = cip_sim::run(&cfg);
        // An interior node still labelled with a rank that is gone: what
        // a missed `compact_parts_after_loss` would hand the step path.
        // (On a contact node the tree induction refuses it first.)
        let mut stale = striped(&sim, 3, 0);
        let contact = sim.snapshots[0].contact.contact_node_mask(stale.len());
        let interior = sim.topology(0, &Recorder::disabled()).node_of_vertex().iter();
        let interior = interior.copied().find(|&n| !contact[n as usize]).expect("interior node");
        stale[interior as usize] = 3;
        stage_batch(&sim, &stale, 3, &mut Chain::default(), 0..1, &Recorder::disabled());
    }

    /// The one staging mode: batches [0, 3), [3, 8), [8, 10) of `head_on`
    /// at k = 4 staged through one carried `Chain` give the trees, halo
    /// plans and decompositions of a from-scratch, snapshot-by-snapshot
    /// replay of the whole chain, written here as the fixture.
    #[test]
    fn a_carried_chain_stages_what_a_snapshot_by_snapshot_replay_derives() {
        let mut cfg = scenarios::head_on();
        cfg.snapshots = 10;
        let sim = cip_sim::run(&cfg);
        let k = 4;
        let node_parts = striped(&sim, k, 0);
        let (rec, dcfg) = (Recorder::disabled(), DtreeConfig::search_tree());
        let mut chain = Chain::default();
        let mut replayed: Option<DecisionTree<3>> = None;
        for batch in [0..3, 3..8, 8..10] {
            let mut staged = stage_batch(&sim, &node_parts, k, &mut chain, batch.clone(), &rec);
            assert_eq!(staged.len(), batch.len());
            let mut last_plan = None;
            for (j, got) in batch.clone().zip(&staged) {
                let snap = &sim.snapshots[j];
                let nodes = &snap.contact.contact_nodes;
                let (positions, labels) = (gather(nodes, &snap.points), gather(nodes, &node_parts));
                let tree = match &replayed {
                    None => induce_recorded(&positions, &labels, k, &dcfg, &rec),
                    Some(prev) => refresh_recorded(prev, &positions, &labels, k, &dcfg, &rec).0,
                };
                let topology = sim.topology(j, &rec);
                let plan = HaloPlan::build(
                    topology.xadj(),
                    topology.adjncy(),
                    topology.node_of_vertex(),
                    &gather(topology.node_of_vertex(), &node_parts),
                    k,
                );
                let elements = surface_elements(&snap.contact.faces, &snap.points, &node_parts);
                let want = plan.decomposition(elements.iter().map(|e| e.owner));
                assert_eq!(format!("{:?}", got.tree), format!("{tree:?}"), "snapshot {j}: tree");
                assert_eq!(got.decomposition.k, want.k, "snapshot {j}");
                for (a, b) in got.decomposition.ranks.iter().zip(&want.ranks) {
                    assert_eq!(a.send_halo, b.send_halo, "snapshot {j}: send lists");
                    assert_eq!(a.owned_surface, b.owned_surface, "snapshot {j}: owned surface");
                }
                replayed = Some(tree);
                last_plan = Some(plan);
            }
            // The halo plan the chain carries on is its last snapshot's.
            let carried = chain.halo.as_ref().map(|(_, plan)| format!("{plan:?}"));
            assert_eq!(carried, last_plan.map(|plan| format!("{plan:?}")), "batch {batch:?}");
            chain.tree = staged.pop().map(|s| s.tree);
        }
    }
}
