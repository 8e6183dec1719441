//! Automatic selection of the §4.3 hybrid update period.
//!
//! The paper argues that "a hybrid approach may be the optimal choice":
//! repartition occasionally, re-induce the tree every step. *How often* to
//! repartition depends on how fast the contact set drifts and how much a
//! migration costs relative to the per-step communication. This module
//! makes that trade-off explicit with a simple linear cost model over the
//! measured metrics and selects the period that minimizes the modeled
//! total cost over a (prefix of a) snapshot sequence.

use crate::mcml_dt::{evaluate_mcml_dt, McmlDtConfig, UpdatePolicy};
use crate::metrics::SnapshotMetrics;
use cip_sim::SimResult;

/// Linear per-step cost model over the measured metrics.
///
/// The coefficients are relative data sizes: a halo unit is one nodal
/// state vector, a shipment is one surface element (a few nodal vectors),
/// a migrated contact point carries its full history (heavier), and a
/// repartition pays a fixed orchestration overhead.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Cost per FEComm (halo) unit.
    pub halo: f64,
    /// Cost per shipped surface element (NRemote unit).
    pub shipment: f64,
    /// Cost per migrated contact point (UpdComm unit).
    pub migration: f64,
    /// Fixed cost charged on every snapshot that repartitions.
    pub repartition_overhead: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self { halo: 1.0, shipment: 2.0, migration: 4.0, repartition_overhead: 50.0 }
    }
}

impl CostModel {
    /// Modeled communication cost of one snapshot.
    pub fn step_cost(&self, m: &SnapshotMetrics) -> f64 {
        let mut c = self.halo * m.fe_comm as f64
            + self.shipment * m.n_remote as f64
            + self.migration * m.upd_comm as f64
            + 2.0 * self.halo * m.m2m_comm as f64;
        if m.upd_comm > 0 {
            c += self.repartition_overhead;
        }
        c
    }

    /// Modeled total cost of a metric sequence.
    pub fn total_cost(&self, seq: &[SnapshotMetrics]) -> f64 {
        seq.iter().map(|m| self.step_cost(m)).sum()
    }
}

/// The outcome of a period search.
#[derive(Debug, Clone)]
pub struct PolicyChoice {
    /// The selected update policy (period 0 encodes `Fixed`).
    pub period: usize,
    /// Modeled cost of every candidate, `(period, cost)`, in the order
    /// evaluated.
    pub costs: Vec<(usize, f64)>,
}

/// Evaluates the fixed policy plus each candidate hybrid period on the
/// sequence and returns the cheapest under `model`.
///
/// Period `0` stands for the fixed policy (never repartition); other
/// candidates must be `>= 1`.
pub fn select_hybrid_period(
    sim: &SimResult,
    base: &McmlDtConfig,
    candidate_periods: &[usize],
    model: &CostModel,
) -> PolicyChoice {
    let mut costs = Vec::new();
    let mut best: Option<(f64, usize)> = None;
    let mut consider = |period: usize, cost: f64, costs: &mut Vec<(usize, f64)>| {
        costs.push((period, cost));
        if best.is_none_or(|(bc, _)| cost < bc) {
            best = Some((cost, period));
        }
    };

    // Fixed policy baseline.
    let fixed_cfg = McmlDtConfig { update: UpdatePolicy::Fixed, ..base.clone() };
    let (fixed_metrics, _) = evaluate_mcml_dt(sim, &fixed_cfg);
    consider(0, model.total_cost(&fixed_metrics), &mut costs);

    for &period in candidate_periods {
        assert!(period >= 1, "hybrid periods must be >= 1 (use 0 only for Fixed)");
        let cfg = McmlDtConfig { update: UpdatePolicy::Hybrid { period }, ..base.clone() };
        let (metrics, _) = evaluate_mcml_dt(sim, &cfg);
        consider(period, model.total_cost(&metrics), &mut costs);
    }

    PolicyChoice { period: best.expect("at least the fixed policy was evaluated").1, costs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cip_sim::SimConfig;

    #[test]
    fn step_cost_weights_components() {
        let model =
            CostModel { halo: 1.0, shipment: 2.0, migration: 4.0, repartition_overhead: 10.0 };
        let m = SnapshotMetrics {
            fe_comm: 100,
            n_remote: 10,
            upd_comm: 5,
            m2m_comm: 3,
            ..Default::default()
        };
        // 100 + 20 + 20 + 6 + overhead 10
        assert!((model.step_cost(&m) - 156.0).abs() < 1e-9);
        let quiet = SnapshotMetrics { fe_comm: 100, ..Default::default() };
        assert!((model.step_cost(&quiet) - 100.0).abs() < 1e-9, "no overhead when idle");
    }

    #[test]
    fn selection_returns_a_candidate_and_is_minimal() {
        let sim = cip_sim::run(&SimConfig::tiny());
        let base = McmlDtConfig::paper(3);
        let choice = select_hybrid_period(&sim, &base, &[3, 6], &CostModel::default());
        assert_eq!(choice.costs.len(), 3);
        let best_cost = choice.costs.iter().find(|(p, _)| *p == choice.period).unwrap().1;
        for (_, c) in &choice.costs {
            assert!(best_cost <= *c + 1e-9);
        }
    }

    #[test]
    fn expensive_migration_prefers_fixed_policy() {
        let sim = cip_sim::run(&SimConfig::tiny());
        let base = McmlDtConfig::paper(3);
        let model = CostModel { migration: 1e9, repartition_overhead: 1e9, ..CostModel::default() };
        let choice = select_hybrid_period(&sim, &base, &[2], &model);
        assert_eq!(choice.period, 0, "prohibitive migration must select Fixed");
    }

    #[test]
    fn total_cost_is_sum_of_steps() {
        let model = CostModel::default();
        let seq = vec![
            SnapshotMetrics { fe_comm: 10, ..Default::default() },
            SnapshotMetrics { fe_comm: 20, ..Default::default() },
        ];
        assert!((model.total_cost(&seq) - 30.0).abs() < 1e-9);
    }
}
