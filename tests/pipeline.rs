//! End-to-end integration tests: both pipelines over a full synthetic
//! simulation, checking the cross-crate invariants the paper's comparison
//! rests on.

use cip::core::{
    average_metrics, evaluate_mcml_dt, evaluate_ml_rcb, McmlDtConfig, MlRcbConfig, UpdatePolicy,
};
use cip::partition::PartitionerConfig;
use cip::sim::SimConfig;

fn sim() -> cip::sim::SimResult {
    cip::sim::run(&SimConfig::tiny())
}

#[test]
fn both_pipelines_cover_every_snapshot_with_positive_communication() {
    let s = sim();
    let k = 4;
    let (mc, _) = evaluate_mcml_dt(&s, &McmlDtConfig::paper(k));
    let ml = evaluate_ml_rcb(&s, &MlRcbConfig::paper(k));
    assert_eq!(mc.len(), s.len());
    assert_eq!(ml.len(), s.len());
    for (a, b) in mc.iter().zip(ml.iter()) {
        assert_eq!(a.step, b.step, "pipelines must evaluate the same snapshots");
        assert_eq!(a.contact_points, b.contact_points);
        assert_eq!(a.surface_elements, b.surface_elements);
        assert!(a.fe_comm > 0 && b.fe_comm > 0);
    }
}

#[test]
fn mcml_dt_has_no_m2m_and_ml_rcb_builds_no_tree() {
    let s = sim();
    let (mc, _) = evaluate_mcml_dt(&s, &McmlDtConfig::paper(4));
    let ml = evaluate_ml_rcb(&s, &MlRcbConfig::paper(4));
    assert!(mc.iter().all(|m| m.m2m_comm == 0));
    assert!(ml.iter().all(|m| m.nt_nodes == 0));
    // The baseline must pay a mesh-to-mesh cost somewhere in the sequence.
    assert!(ml.iter().map(|m| m.m2m_comm).sum::<u64>() > 0);
}

#[test]
fn table1_shape_ml_rcb_wins_fe_comm_but_pays_m2m() {
    // The paper's central comparison: the single-constraint baseline gets
    // a lower FEComm (one constraint is easier than two), but once the
    // M2M transfer is counted twice, MCML+DT's total is competitive.
    let s = sim();
    let k = 4;
    let (mc, _) = evaluate_mcml_dt(&s, &McmlDtConfig::paper(k));
    let ml = evaluate_ml_rcb(&s, &MlRcbConfig::paper(k));
    let a = average_metrics(&mc);
    let b = average_metrics(&ml);
    assert!(
        b.fe_comm <= a.fe_comm * 1.05,
        "single-constraint FEComm ({}) should not exceed two-constraint ({})",
        b.fe_comm,
        a.fe_comm
    );
    assert!(
        b.non_search_comm() > b.fe_comm,
        "the baseline's total must include a nonzero M2M term"
    );
}

#[test]
fn sequence_metrics_follow_the_penetration() {
    // As craters open, the contact set grows; NTNodes and NRemote should
    // not collapse to zero mid-sequence.
    let s = sim();
    let (mc, _) = evaluate_mcml_dt(&s, &McmlDtConfig::paper(4));
    let peak_contacts = mc.iter().map(|m| m.contact_points).max().unwrap();
    assert!(peak_contacts > mc[0].contact_points, "contact set must grow");
    assert!(mc.iter().all(|m| m.nt_nodes >= 1));
}

#[test]
fn update_policies_are_consistent_on_snapshot_zero() {
    let s = sim();
    let fixed = McmlDtConfig::paper(3);
    let per_step =
        McmlDtConfig { update: UpdatePolicy::Hybrid { period: 1 }, ..McmlDtConfig::paper(3) };
    let (m_fixed, _) = evaluate_mcml_dt(&s, &fixed);
    let (m_step, _) = evaluate_mcml_dt(&s, &per_step);
    // Snapshot 0 is identical under every policy (no update happened yet).
    assert_eq!(m_fixed[0].fe_comm, m_step[0].fe_comm);
    assert_eq!(m_fixed[0].nt_nodes, m_step[0].nt_nodes);
    assert_eq!(m_fixed[0].n_remote, m_step[0].n_remote);
}

#[test]
fn pipelines_are_deterministic() {
    let s = sim();
    let cfg =
        McmlDtConfig { partitioner: PartitionerConfig::with_seed(7), ..McmlDtConfig::paper(4) };
    let (a, _) = evaluate_mcml_dt(&s, &cfg);
    let (b, _) = evaluate_mcml_dt(&s, &cfg);
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.fe_comm, y.fe_comm);
        assert_eq!(x.nt_nodes, y.nt_nodes);
        assert_eq!(x.n_remote, y.n_remote);
    }
}

#[test]
fn different_k_scale_communication_up() {
    let s = sim();
    let (k2, _) = evaluate_mcml_dt(&s, &McmlDtConfig::paper(2));
    let (k8, _) = evaluate_mcml_dt(&s, &McmlDtConfig::paper(8));
    let a2 = average_metrics(&k2);
    let a8 = average_metrics(&k8);
    assert!(a8.fe_comm > a2.fe_comm, "more parts -> more halo exchange");
    assert!(a8.nt_nodes >= a2.nt_nodes, "more parts -> bigger search tree");
}
