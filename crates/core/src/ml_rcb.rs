//! The ML+RCB baseline (§3; Plimpton et al. '98, Brown et al. '00).
//!
//! Two *decoupled* decompositions:
//!
//! * the **FE phase** uses a static single-constraint multilevel partition
//!   of the nodal graph (best possible FE balance and cut);
//! * the **contact phase** uses recursive coordinate bisection over the
//!   contact points, updated incrementally each snapshot by shifting the
//!   existing cuts (UpdComm counts the points that migrate).
//!
//! The price of decoupling: each step, the updated nodal data of every
//! contact point whose two decompositions disagree must be shipped to the
//! contact processor and back (M2MComm, counted once here and twice in the
//! §5.2 totals). The paper optimizes this mapping with a maximal-weight
//! matching between the two labelings; we use the exact Hungarian
//! optimum. Global search uses the classical per-subdomain bounding-box
//! filter.

use crate::common::{contact_graph, gather, label_imbalance, surface_elements, FeCost};
use crate::metrics::SnapshotMetrics;
use cip_contact::{n_remote, BboxFilter, RcbRegionFilter};
use cip_geom::RcbTree;
use cip_mesh::graphs::NodalGraphOptions;
use cip_partition::{max_weight_assignment, partition_kway, PartitionerConfig};
use cip_sim::SimResult;

/// ML+RCB configuration.
#[derive(Debug, Clone)]
pub struct MlRcbConfig {
    /// Number of parts (processors).
    pub k: usize,
    /// Multilevel partitioner settings (FE phase).
    pub partitioner: PartitionerConfig,
    /// Rebuild the RCB decomposition from scratch every snapshot instead
    /// of updating it incrementally (ablation; the baseline as published
    /// updates incrementally to keep UpdComm small).
    pub rebuild_rcb: bool,
    /// Use the RCB *regions* as the global-search descriptor instead of
    /// the per-part contact-point bounding boxes (ablation: regions cover
    /// all space — no under-approximation, but more false positives in
    /// empty space).
    pub region_filter: bool,
}

impl MlRcbConfig {
    /// The paper's baseline configuration for `k` parts.
    pub fn paper(k: usize) -> Self {
        Self {
            k,
            partitioner: PartitionerConfig { eps: vec![0.05], ..Default::default() },
            rebuild_rcb: false,
            region_filter: false,
        }
    }
}

/// Runs ML+RCB over the whole snapshot sequence.
pub fn evaluate_ml_rcb(sim: &SimResult, cfg: &MlRcbConfig) -> Vec<SnapshotMetrics> {
    assert!(!sim.is_empty(), "simulation produced no snapshots");
    let k = cfg.k;
    let rec = &cfg.partitioner.recorder;

    // ---- Static FE partition on snapshot 0 (single constraint). -------
    let graph0 = contact_graph(sim, 0, NodalGraphOptions::single_constraint(), rec);
    let fe_asg = partition_kway(&graph0.graph, k, &cfg.partitioner);
    let fe_node_parts = graph0.assignment_on_nodes(&fe_asg);

    // ---- Sweep. ---------------------------------------------------------
    let mut out = Vec::with_capacity(sim.len());
    let mut rcb: Option<RcbTree<3>> = None;
    // Previous snapshot's RCB part per mesh node (u32::MAX = was not a
    // contact node).
    let mut prev_rcb_parts: Vec<u32> = vec![u32::MAX; sim.base.num_nodes()];

    for i in 0..sim.len() {
        let snap = &sim.snapshots[i];
        let contact = &snap.contact.contact_nodes;
        let positions = gather(contact, &snap.points);

        // FE phase metrics under the static partition.
        let fe = FeCost::of(sim.topology(i, rec), &fe_node_parts, k);

        // Contact decomposition: RCB over the contact points.
        let weights = vec![1.0f64; contact.len()];
        let rcb_labels = match (&mut rcb, cfg.rebuild_rcb) {
            (Some(tree), false) => tree.update(&positions, &weights),
            _ => {
                let (tree, labels) = RcbTree::build(&positions, &weights, k);
                rcb = Some(tree);
                labels
            }
        };

        // UpdComm: contact points present in both snapshots whose RCB part
        // changed.
        let mut upd_comm = 0u64;
        for (ci, &n) in contact.iter().enumerate() {
            let old = prev_rcb_parts[n as usize];
            if i > 0 && old != u32::MAX && old != rcb_labels[ci] {
                upd_comm += 1;
            }
        }
        prev_rcb_parts.iter_mut().for_each(|p| *p = u32::MAX);
        for (ci, &n) in contact.iter().enumerate() {
            prev_rcb_parts[n as usize] = rcb_labels[ci];
        }

        // M2MComm: optimal (Hungarian) relabeling of RCB parts onto FE
        // parts, then count the disagreeing contact points.
        let fe_labels = gather(contact, &fe_node_parts);
        let mut overlap = vec![0i64; k * k];
        for (ci, &rp) in rcb_labels.iter().enumerate() {
            overlap[rp as usize * k + fe_labels[ci] as usize] += 1;
        }
        let sigma = max_weight_assignment(k, &overlap);
        let matched: i64 = sigma.iter().enumerate().map(|(rp, &fp)| overlap[rp * k + fp]).sum();
        let m2m_comm = contact.len() as u64 - matched as u64;

        // NRemote: each RCB subdomain is described either by the bounding
        // box of its contact points (the published baseline) or by its RCB
        // region (ablation); surface elements are owned by their
        // (majority-node) RCB part.
        let mut rcb_node_parts = vec![u32::MAX; sim.base.num_nodes()];
        for (ci, &n) in contact.iter().enumerate() {
            rcb_node_parts[n as usize] = rcb_labels[ci];
        }
        let elements = surface_elements(&snap.contact.faces, &snap.points, &rcb_node_parts);
        let shipped = if cfg.region_filter {
            let tree = rcb.as_ref().expect("RCB tree exists after first snapshot");
            n_remote(&elements, &RcbRegionFilter::new(tree))
        } else {
            let filter = BboxFilter::from_points(&positions, &rcb_labels, k);
            n_remote(&elements, &filter)
        };

        out.push(SnapshotMetrics {
            step: snap.step,
            fe_comm: fe.fe_comm,
            nt_nodes: 0,
            n_remote: shipped,
            m2m_comm,
            upd_comm,
            edge_cut: fe.edge_cut,
            imbalance_fe: fe.imbalance_fe,
            // Contact-phase balance: point counts per RCB part.
            imbalance_contact: label_imbalance(&rcb_labels, k),
            contact_points: contact.len() as u64,
            surface_elements: elements.len() as u64,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cip_sim::SimConfig;

    fn tiny_sim() -> SimResult {
        cip_sim::run(&SimConfig::tiny())
    }

    #[test]
    fn baseline_produces_metrics_for_every_snapshot() {
        let sim = tiny_sim();
        let metrics = evaluate_ml_rcb(&sim, &MlRcbConfig::paper(4));
        assert_eq!(metrics.len(), sim.len());
        for m in &metrics {
            assert!(m.fe_comm > 0);
            assert_eq!(m.nt_nodes, 0, "ML+RCB builds no decision tree");
            assert!(m.imbalance_contact >= 1.0);
        }
    }

    #[test]
    fn m2m_comm_is_nonzero_for_decoupled_decompositions() {
        // The FE partition ignores geometry and the RCB partition ignores
        // the mesh; on any nontrivial problem some contact points must
        // disagree.
        let sim = tiny_sim();
        let metrics = evaluate_ml_rcb(&sim, &MlRcbConfig::paper(4));
        let total_m2m: u64 = metrics.iter().map(|m| m.m2m_comm).sum();
        assert!(total_m2m > 0, "decoupled decompositions should disagree somewhere");
    }

    #[test]
    fn first_snapshot_has_no_update_migration() {
        let sim = tiny_sim();
        let metrics = evaluate_ml_rcb(&sim, &MlRcbConfig::paper(4));
        assert_eq!(metrics[0].upd_comm, 0);
    }

    #[test]
    fn incremental_update_migrates_less_than_rebuild() {
        let sim = tiny_sim();
        let inc = evaluate_ml_rcb(&sim, &MlRcbConfig::paper(4));
        let reb =
            evaluate_ml_rcb(&sim, &MlRcbConfig { rebuild_rcb: true, ..MlRcbConfig::paper(4) });
        let sum = |ms: &[SnapshotMetrics]| ms.iter().map(|m| m.upd_comm).sum::<u64>();
        // Rebuilding from scratch reshuffles labels arbitrarily; the
        // incremental update must not migrate more.
        assert!(sum(&inc) <= sum(&reb), "inc {} vs rebuild {}", sum(&inc), sum(&reb));
    }

    #[test]
    fn region_filter_ships_at_least_as_much_as_point_bboxes() {
        // RCB regions cover all space, so they can only add candidates
        // relative to the (tight) point bounding boxes... except where a
        // part's point bbox overhangs its region due to points exactly on
        // a cut plane — allow a small slack.
        let sim = tiny_sim();
        let boxes = evaluate_ml_rcb(&sim, &MlRcbConfig::paper(4));
        let regions =
            evaluate_ml_rcb(&sim, &MlRcbConfig { region_filter: true, ..MlRcbConfig::paper(4) });
        let sum = |ms: &[SnapshotMetrics]| ms.iter().map(|m| m.n_remote).sum::<u64>();
        assert!(
            sum(&regions) as f64 >= 0.9 * sum(&boxes) as f64,
            "regions {} vs boxes {}",
            sum(&regions),
            sum(&boxes)
        );
        // Everything else identical (same decompositions).
        for (a, b) in boxes.iter().zip(regions.iter()) {
            assert_eq!(a.fe_comm, b.fe_comm);
            assert_eq!(a.m2m_comm, b.m2m_comm);
        }
    }

    #[test]
    fn fe_partition_is_balanced_at_start() {
        let sim = tiny_sim();
        let metrics = evaluate_ml_rcb(&sim, &MlRcbConfig::paper(4));
        assert!(metrics[0].imbalance_fe <= 1.1, "imbalance {}", metrics[0].imbalance_fe);
    }

    #[test]
    fn contact_balance_maintained_by_rcb() {
        let sim = tiny_sim();
        let metrics = evaluate_ml_rcb(&sim, &MlRcbConfig::paper(4));
        // RCB rebalances every snapshot; allow slack for small point sets.
        for m in &metrics {
            assert!(
                m.imbalance_contact <= 1.6,
                "step {}: contact imbalance {}",
                m.step,
                m.imbalance_contact
            );
        }
    }
}
