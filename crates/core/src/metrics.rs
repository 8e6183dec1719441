//! The §5.1 evaluation metrics and their aggregation.

/// Metrics of one snapshot under one algorithm.
///
/// Fields that do not apply to an algorithm are zero (e.g. `m2m_comm` for
/// MCML+DT, `nt_nodes` for ML+RCB), matching the paper's Table 1 layout.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SnapshotMetrics {
    /// Simulation step of the snapshot.
    pub step: usize,
    /// **FEComm**: total communication volume of the mesh partition — the
    /// halo-exchange cost of the finite-element phase.
    pub fe_comm: u64,
    /// **NTNodes**: decision-tree size (MCML+DT only) — the cost of
    /// setting up / broadcasting the contact-search structure.
    pub nt_nodes: u64,
    /// **NRemote**: surface elements shipped to remote parts during global
    /// search.
    pub n_remote: u64,
    /// **M2MComm**: contact points whose contact-phase part differs from
    /// their FE-phase part (ML+RCB only; incurred twice per step).
    pub m2m_comm: u64,
    /// **UpdComm**: contact points migrated by the contact-decomposition
    /// update between consecutive snapshots (ML+RCB) or by repartitioning
    /// (MCML+DT non-fixed policies).
    pub upd_comm: u64,
    /// Edge-cut of the FE partition (diagnostic).
    pub edge_cut: u64,
    /// Load imbalance of the FE constraint (diagnostic).
    pub imbalance_fe: f64,
    /// Load imbalance of the contact constraint / contact decomposition
    /// (diagnostic).
    pub imbalance_contact: f64,
    /// Number of contact points in this snapshot (diagnostic).
    pub contact_points: u64,
    /// Number of surface elements in this snapshot (diagnostic).
    pub surface_elements: u64,
}

/// Averages of the metrics over a snapshot sequence — one row of Table 1.
#[derive(Debug, Clone, Copy, Default)]
pub struct MetricsRow {
    /// Average FEComm.
    pub fe_comm: f64,
    /// Average NTNodes.
    pub nt_nodes: f64,
    /// Average NRemote.
    pub n_remote: f64,
    /// Average M2MComm.
    pub m2m_comm: f64,
    /// Average UpdComm.
    pub upd_comm: f64,
    /// Average edge-cut.
    pub edge_cut: f64,
    /// Average FE imbalance.
    pub imbalance_fe: f64,
    /// Average contact imbalance.
    pub imbalance_contact: f64,
    /// Average contact-point count.
    pub contact_points: f64,
    /// Average surface-element count.
    pub surface_elements: f64,
}

impl MetricsRow {
    /// The total per-step communication excluding contact search, with
    /// M2MComm counted **twice** (information flows to the contact
    /// decomposition and back), as in the paper's §5.2 comparison.
    pub fn non_search_comm(&self) -> f64 {
        self.fe_comm + 2.0 * self.m2m_comm
    }
}

cip_telemetry::json_struct!(MetricsRow {
    fe_comm,
    nt_nodes,
    n_remote,
    m2m_comm,
    upd_comm,
    edge_cut,
    imbalance_fe,
    imbalance_contact,
    contact_points,
    surface_elements,
});

cip_telemetry::json_struct!(SnapshotMetrics {
    step,
    fe_comm,
    nt_nodes,
    n_remote,
    m2m_comm,
    upd_comm,
    edge_cut,
    imbalance_fe,
    imbalance_contact,
    contact_points,
    surface_elements,
});

/// Schema tag stamped on every results document written under `results/`
/// (by the bench bins and `cip-trace` alike).
pub const RESULTS_SCHEMA: &str = "cip-results-v1";

/// Wraps a JSON payload in the shared results envelope:
/// `{"schema": "cip-results-v1", "kind": <kind>, "payload": <payload>}`.
///
/// `payload_json` must already be valid JSON (e.g. from
/// [`ToJson::to_json`](cip_telemetry::json::ToJson::to_json)).
pub fn results_document(kind: &str, payload_json: &str) -> String {
    let mut doc = format!("{{\"schema\":\"{RESULTS_SCHEMA}\",\"kind\":");
    cip_telemetry::json::write_str(&mut doc, kind);
    doc.push_str(",\"payload\":");
    doc.push_str(payload_json);
    doc.push('}');
    doc
}

/// Averages a metrics sequence into a Table-1 row.
pub fn average_metrics(seq: &[SnapshotMetrics]) -> MetricsRow {
    if seq.is_empty() {
        return MetricsRow::default();
    }
    let n = seq.len() as f64;
    let mut row = MetricsRow::default();
    for m in seq {
        row.fe_comm += m.fe_comm as f64;
        row.nt_nodes += m.nt_nodes as f64;
        row.n_remote += m.n_remote as f64;
        row.m2m_comm += m.m2m_comm as f64;
        row.upd_comm += m.upd_comm as f64;
        row.edge_cut += m.edge_cut as f64;
        row.imbalance_fe += m.imbalance_fe;
        row.imbalance_contact += m.imbalance_contact;
        row.contact_points += m.contact_points as f64;
        row.surface_elements += m.surface_elements as f64;
    }
    row.fe_comm /= n;
    row.nt_nodes /= n;
    row.n_remote /= n;
    row.m2m_comm /= n;
    row.upd_comm /= n;
    row.edge_cut /= n;
    row.imbalance_fe /= n;
    row.imbalance_contact /= n;
    row.contact_points /= n;
    row.surface_elements /= n;
    row
}

#[cfg(test)]
mod tests {
    use super::*;
    use cip_telemetry::json::ToJson;

    #[test]
    fn averaging_is_arithmetic_mean() {
        let seq = vec![
            SnapshotMetrics { fe_comm: 10, n_remote: 4, m2m_comm: 2, ..Default::default() },
            SnapshotMetrics { fe_comm: 20, n_remote: 8, m2m_comm: 4, ..Default::default() },
        ];
        let row = average_metrics(&seq);
        assert_eq!(row.fe_comm, 15.0);
        assert_eq!(row.n_remote, 6.0);
        assert_eq!(row.m2m_comm, 3.0);
        assert_eq!(row.non_search_comm(), 15.0 + 6.0);
    }

    #[test]
    fn empty_sequence_is_zero() {
        let row = average_metrics(&[]);
        assert_eq!(row.fe_comm, 0.0);
        assert_eq!(row.non_search_comm(), 0.0);
    }

    #[test]
    fn non_search_comm_counts_m2m_twice() {
        let row = MetricsRow { fe_comm: 100.0, m2m_comm: 30.0, ..Default::default() };
        assert_eq!(row.non_search_comm(), 160.0);
    }

    #[test]
    fn json_exports_are_valid_and_carry_fields() {
        let snap = SnapshotMetrics {
            step: 7,
            fe_comm: 123,
            n_remote: 4,
            imbalance_fe: 1.05,
            ..Default::default()
        };
        let j = snap.to_json();
        cip_telemetry::json::validate(&j).expect("snapshot JSON must parse");
        assert!(j.contains("\"step\":7"));
        assert!(j.contains("\"fe_comm\":123"));
        assert!(j.contains("\"imbalance_fe\":1.05"));

        let row = MetricsRow { fe_comm: 10.5, upd_comm: 3.0, ..Default::default() };
        let j = row.to_json();
        cip_telemetry::json::validate(&j).expect("row JSON must parse");
        assert!(j.contains("\"fe_comm\":10.5"));
        assert!(j.contains("\"upd_comm\":3.0"));
    }

    #[test]
    fn results_document_wraps_payload() {
        let doc = results_document("table\"1", &MetricsRow::default().to_json());
        cip_telemetry::json::validate(&doc).expect("envelope must parse");
        assert!(doc.starts_with(&format!("{{\"schema\":\"{RESULTS_SCHEMA}\"")));
        assert!(doc.contains("\"kind\":\"table\\\"1\""));
    }
}
