//! The MCML+DT pipeline (§4).
//!
//! One decomposition serves both computation phases: the nodal graph
//! carries two vertex weights (FE work, contact work) and boosted
//! contact-contact edge weights, a multilevel multi-constraint partitioner
//! balances both phases at once, the DT-friendly correction straightens
//! subdomain boundaries, and a purity-stopped decision tree over the
//! contact points is (re-)induced every snapshot as the global-search
//! filter. Because the FE and contact decompositions are one and the same,
//! the mesh-to-mesh transfer cost of ML+RCB (M2MComm) simply does not
//! exist here.

use crate::common::{contact_graph, gather, label_imbalance, surface_elements, FeCost};
use crate::dt_friendly::{dt_friendly_correct, DtFriendlyConfig, DtFriendlyStats};
use crate::metrics::SnapshotMetrics;
use cip_contact::{n_remote, DtreeFilter};
use cip_dtree::{induce, DtreeConfig};
use cip_geom::Point;
use cip_mesh::graphs::{NodalGraph, NodalGraphOptions};
use cip_partition::{diffusion_repartition, partition_kway, repartition, PartitionerConfig};
use cip_sim::SimResult;
use cip_telemetry::Recorder;
use std::ops::Range;

/// Which repartitioning algorithm non-fixed update policies use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepartitionMethod {
    /// Partition from scratch, then Hungarian-relabel for maximum overlap.
    ScratchRemap,
    /// Local diffusion from the previous assignment (less migration when
    /// the imbalance is mild — the Schloegel-style updater §4.3 cites).
    Diffusion,
}

/// How the decomposition is maintained over the snapshot sequence (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdatePolicy {
    /// Keep the step-0 partition; only re-induce the search tree each
    /// snapshot. This is the policy used for the paper's Table 1.
    Fixed,
    /// Repartition (multi-constraint, overlap-maximizing) every `period`
    /// snapshots; re-induce the tree every snapshot — the paper's
    /// suggested hybrid. `period: 1` repartitions at every snapshot.
    Hybrid {
        /// Snapshots between repartitionings.
        period: usize,
    },
}

/// MCML+DT configuration.
#[derive(Debug, Clone)]
pub struct McmlDtConfig {
    /// Number of parts (processors).
    pub k: usize,
    /// Edge weight between pairs of contact nodes (paper: 5).
    pub contact_edge_weight: i64,
    /// DT-friendly correction (§4.2); `None` disables it (ablation).
    pub dt_friendly: Option<DtFriendlyConfig>,
    /// Multilevel partitioner settings.
    pub partitioner: PartitionerConfig,
    /// Search-tree induction settings (purity stop; optionally the
    /// margin-aware splitter of §6).
    pub tree: DtreeConfig,
    /// Update policy over the sequence.
    pub update: UpdatePolicy,
    /// Use tight-leaf query semantics for the global-search filter
    /// (an extension in the spirit of §6 — fewer false positives; the
    /// paper's own semantics, used by default, answer per leaf *region*).
    pub tight_filter: bool,
    /// Repartitioning algorithm for the `Hybrid` policy.
    pub repartition_method: RepartitionMethod,
}

impl McmlDtConfig {
    /// The paper's Table-1 configuration for `k` parts: unit vertex
    /// weights, contact-edge weight 5, DT-friendly correction on, fixed
    /// partition with per-snapshot tree re-induction.
    pub fn paper(k: usize) -> Self {
        Self {
            k,
            contact_edge_weight: 5,
            dt_friendly: Some(DtFriendlyConfig::default()),
            partitioner: PartitionerConfig::default(),
            tree: DtreeConfig::search_tree(),
            update: UpdatePolicy::Fixed,
            tight_filter: false,
            repartition_method: RepartitionMethod::ScratchRemap,
        }
    }

    /// The nodal graph this configuration partitions: two constraints,
    /// contact-contact edges weighted `contact_edge_weight`.
    pub fn graph_options(&self) -> NodalGraphOptions {
        NodalGraphOptions { contact_edge_weight: self.contact_edge_weight, ..Default::default() }
    }
}

/// An MCML+DT decomposition of one nodal graph.
#[derive(Debug, Clone)]
pub struct Decomposed {
    /// Part of every graph vertex.
    pub asg: Vec<u32>,
    /// Part of every mesh node (`u32::MAX` for nodes outside the graph).
    pub node_parts: Vec<u32>,
    /// What the DT-friendly correction did (`None` when it is off).
    pub stats: Option<DtFriendlyStats>,
}

/// The MCML+DT decomposition of `graph` into `cfg.k` parts (§4.2): the
/// multi-constraint partition, DT-friendly corrected if `cfg` says so.
/// `points[n]` is node `n`'s position.
pub fn decompose<const D: usize>(
    graph: &NodalGraph,
    points: &[Point<D>],
    cfg: &McmlDtConfig,
) -> Decomposed {
    let mut asg = partition_kway(&graph.graph, cfg.k, &cfg.partitioner);
    let stats = correct(graph, points, cfg.k, &mut asg, cfg);
    let node_parts = graph.assignment_on_nodes(&asg);
    Decomposed { asg, node_parts, stats }
}

/// The §4.3 repartition of `graph` from `node_parts` over `k` live parts
/// by `cfg.repartition_method`, DT-friendly corrected if `cfg` says so:
/// the new part of each graph node (`u32::MAX` elsewhere), for
/// [`merge_live`].
pub fn repartition_step<const D: usize>(
    graph: &NodalGraph,
    points: &[Point<D>],
    node_parts: &[u32],
    k: usize,
    cfg: &McmlDtConfig,
) -> Vec<u32> {
    let (g, pc) = (&graph.graph, &cfg.partitioner);
    let old = gather(&graph.node_of_vertex, node_parts);
    let mut fresh = match cfg.repartition_method {
        RepartitionMethod::ScratchRemap => repartition(g, k, &old, pc),
        RepartitionMethod::Diffusion => diffusion_repartition(g, k, &old, pc),
    };
    correct(graph, points, k, &mut fresh, cfg);
    graph.assignment_on_nodes(&fresh)
}

/// Applies a repartition's `new` parts to `node_parts`: nodes outside the
/// repartitioned graph (eroded for good) keep their last part.
pub fn merge_live(node_parts: &mut [u32], new: &[u32]) {
    for (part, &p) in node_parts.iter_mut().zip(new).filter(|&(_, &p)| p != u32::MAX) {
        *part = p;
    }
}

/// The DT-friendly correction of `graph`'s vertex assignment, if asked.
fn correct<const D: usize>(
    graph: &NodalGraph,
    points: &[Point<D>],
    k: usize,
    asg: &mut [u32],
    cfg: &McmlDtConfig,
) -> Option<DtFriendlyStats> {
    let fc = cfg.dt_friendly.as_ref()?;
    let positions = gather(&graph.node_of_vertex, points);
    Some(dt_friendly_correct(&graph.graph, &positions, k, asg, fc))
}

/// Runs MCML+DT over the whole snapshot sequence, returning per-snapshot
/// metrics and the DT-friendly stats of the initial partitioning (if the
/// correction was enabled).
pub fn evaluate_mcml_dt(
    sim: &SimResult,
    cfg: &McmlDtConfig,
) -> (Vec<SnapshotMetrics>, Option<DtFriendlyStats>) {
    assert!(!sim.is_empty(), "simulation produced no snapshots");
    let rec = &cfg.partitioner.recorder;

    // ---- Initial decomposition on snapshot 0. -------------------------
    // Node-indexed partition (dead nodes: u32::MAX — they can never come
    // back to life, erosion is monotone).
    let Decomposed { mut node_parts, stats, .. } =
        decompose(&contact_graph(sim, 0, cfg.graph_options(), rec), &sim.snapshots[0].points, cfg);

    // ---- Sweep the sequence. ------------------------------------------
    // Under the fixed policy the snapshots are independent given the
    // step-0 partition, so they evaluate in parallel; the repartitioning
    // policies carry state from snapshot to snapshot and stay sequential.
    let metrics_at = |i: usize, node_parts: &[u32]| {
        dt_snapshot_metrics(sim, i, node_parts, cfg.k, &cfg.tree, cfg.tight_filter, rec)
    };
    if cfg.update == UpdatePolicy::Fixed {
        let out = fork_map(0..sim.len(), &|i| metrics_at(i, &node_parts));
        return (out, stats);
    }

    let mut out = Vec::with_capacity(sim.len());
    for i in 0..sim.len() {
        let repartition_now = match cfg.update {
            UpdatePolicy::Fixed => false,
            UpdatePolicy::Hybrid { period } => i > 0 && period > 0 && i % period == 0,
        };
        // UpdComm: contact points migrated by the repartitioning, the only
        // reader of the snapshot's graph.
        let upd_comm = if repartition_now {
            let snap = &sim.snapshots[i];
            let graph = contact_graph(sim, i, cfg.graph_options(), rec);
            let new = repartition_step(&graph, &snap.points, &node_parts, cfg.k, cfg);
            let moved = migrated_contact_points(&snap.contact.contact_nodes, &node_parts, &new);
            merge_live(&mut node_parts, &new);
            moved
        } else {
            0
        };
        let metrics = metrics_at(i, &node_parts);
        out.push(SnapshotMetrics { upd_comm, ..metrics });
    }
    (out, stats)
}

/// `f` over `range`, in order, by recursive halving on `par::join`: a
/// snapshot is milliseconds of work, so every item is worth a fork (the
/// grain of `par::parts` counts items, and would run these inline).
fn fork_map<T: Send>(range: Range<usize>, f: &(impl Fn(usize) -> T + Sync)) -> Vec<T> {
    if range.len() <= 1 {
        return range.map(f).collect();
    }
    let mid = range.start + range.len() / 2;
    let (mut head, tail) =
        cip_base::par::join(|| fork_map(range.start..mid, f), || fork_map(mid..range.end, f));
    head.extend(tail);
    head
}

/// Contact points whose part changes between two node assignments (the
/// UpdComm unit).
fn migrated_contact_points(contact: &[u32], old: &[u32], new: &[u32]) -> u64 {
    contact
        .iter()
        .filter(|&&n| old[n as usize] != u32::MAX && old[n as usize] != new[n as usize])
        .count() as u64
}

/// One snapshot's metrics under the node partition `node_parts` over `k`
/// parts, searched through a decision tree over its contact points
/// induced under `dcfg` and queried leaf-tight when `tight`: FEComm, cut
/// and FE balance from the epoch's topology, the rest from the snapshot
/// itself. Nothing migrates here (`upd_comm` is 0).
pub(crate) fn dt_snapshot_metrics(
    sim: &SimResult,
    i: usize,
    node_parts: &[u32],
    k: usize,
    dcfg: &DtreeConfig,
    tight: bool,
    rec: &Recorder,
) -> SnapshotMetrics {
    let snap = &sim.snapshots[i];
    let fe = FeCost::of(sim.topology(i, rec), node_parts, k);

    // Search tree over the contact points.
    let contact = &snap.contact.contact_nodes;
    let labels = gather(contact, node_parts);
    let tree = induce(&gather(contact, &snap.points), &labels, k, dcfg);

    // Global search with the decision-tree filter.
    let elements = surface_elements(&snap.contact.faces, &snap.points, node_parts);
    let filter = if tight { DtreeFilter::tight(&tree, k) } else { DtreeFilter::new(&tree, k) };
    let shipped = n_remote(&elements, &filter);

    SnapshotMetrics {
        step: snap.step,
        fe_comm: fe.fe_comm,
        nt_nodes: tree.num_nodes() as u64,
        n_remote: shipped,
        m2m_comm: 0,
        upd_comm: 0,
        edge_cut: fe.edge_cut,
        imbalance_fe: fe.imbalance_fe,
        imbalance_contact: label_imbalance(&labels, k),
        contact_points: labels.len() as u64,
        surface_elements: elements.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cip_sim::SimConfig;

    fn tiny_sim() -> SimResult {
        cip_sim::run(&SimConfig::tiny())
    }

    #[test]
    fn fixed_policy_produces_metrics_for_every_snapshot() {
        let sim = tiny_sim();
        let cfg = McmlDtConfig::paper(4);
        let (metrics, stats) = evaluate_mcml_dt(&sim, &cfg);
        assert_eq!(metrics.len(), sim.len());
        assert!(stats.is_some());
        for m in &metrics {
            assert!(m.fe_comm > 0, "step {} has no FE communication", m.step);
            assert!(m.nt_nodes >= 1);
            assert_eq!(m.m2m_comm, 0, "MCML+DT has no mesh-to-mesh transfer");
            assert_eq!(m.upd_comm, 0, "fixed policy never migrates");
            assert!(m.imbalance_fe >= 1.0);
        }
    }

    #[test]
    fn balance_holds_on_first_snapshot() {
        let sim = tiny_sim();
        let cfg = McmlDtConfig::paper(4);
        let (metrics, _) = evaluate_mcml_dt(&sim, &cfg);
        // The partition is computed on snapshot 0, so snapshot 0 must be
        // well balanced on the FE constraint.
        assert!(metrics[0].imbalance_fe <= 1.15, "FE imbalance {}", metrics[0].imbalance_fe);
        assert!(
            metrics[0].imbalance_contact <= 1.8,
            "contact imbalance {}",
            metrics[0].imbalance_contact
        );
    }

    #[test]
    fn per_step_policy_reports_migration_and_restores_balance() {
        let sim = tiny_sim();
        let cfg =
            McmlDtConfig { update: UpdatePolicy::Hybrid { period: 1 }, ..McmlDtConfig::paper(4) };
        let (metrics, _) = evaluate_mcml_dt(&sim, &cfg);
        // Late snapshots stay balanced because we repartition.
        let last = metrics.last().unwrap();
        assert!(last.imbalance_fe <= 1.25, "late imbalance {}", last.imbalance_fe);
    }

    #[test]
    fn hybrid_policy_repartitions_periodically() {
        let sim = tiny_sim();
        let cfg =
            McmlDtConfig { update: UpdatePolicy::Hybrid { period: 5 }, ..McmlDtConfig::paper(3) };
        let (metrics, _) = evaluate_mcml_dt(&sim, &cfg);
        assert_eq!(metrics.len(), sim.len());
        // Non-repartition snapshots report zero migration.
        for (i, m) in metrics.iter().enumerate() {
            if i == 0 || i % 5 != 0 {
                assert_eq!(m.upd_comm, 0, "snapshot {i}");
            }
        }
    }

    #[test]
    fn disabling_dt_friendly_increases_tree_size() {
        let sim = tiny_sim();
        let with = McmlDtConfig::paper(4);
        let without = McmlDtConfig { dt_friendly: None, ..McmlDtConfig::paper(4) };
        let (m_with, s_with) = evaluate_mcml_dt(&sim, &with);
        let (m_without, s_without) = evaluate_mcml_dt(&sim, &without);
        assert!(s_with.is_some());
        assert!(s_without.is_none());
        let avg = |ms: &[SnapshotMetrics]| {
            ms.iter().map(|m| m.nt_nodes as f64).sum::<f64>() / ms.len() as f64
        };
        // The friendly correction should not make trees (much) bigger; on
        // most geometries it makes them smaller. Allow equality + slack.
        assert!(
            avg(&m_with) <= avg(&m_without) * 1.3 + 4.0,
            "with: {}, without: {}",
            avg(&m_with),
            avg(&m_without)
        );
    }
}
