//! MCML+DT — multi-constraint mesh partitioning for contact/impact
//! computations.
//!
//! This crate is the paper's contribution assembled from the substrate
//! crates:
//!
//! * [`common`] — the per-snapshot primitives every number is computed
//!   from, one implementation each ([`contact_graph`], the face pass
//!   [`surface_elements`], [`FeCost`]), and the [`SnapshotView`] fixture;
//! * [`dt_friendly`] — the §4.2 decision-tree-friendly partition
//!   correction: induce a `max_p`/`max_i`-stopped tree over *all* mesh
//!   nodes, relabel each leaf to its majority part, contract the leaves
//!   into the region graph `G'`, and run multi-constraint k-way
//!   refinement on `G'` so the final subdomain boundaries are piecewise
//!   axes-parallel;
//! * [`mcml_dt`] — the MCML+DT decomposition ([`decompose`],
//!   [`repartition_step`]) and the pipeline over a snapshot sequence:
//!   search-tree induction per snapshot under the three §4.3 update
//!   policies (fixed partition, periodic or per-step repartitioning);
//! * [`ml_rcb`] — the ML+RCB baseline (Plimpton et al.): single-constraint
//!   mesh partition for the FE phase, incremental RCB over the contact
//!   points for the search phase, Hungarian-optimized mesh-to-mesh
//!   mapping, bounding-box global-search filter;
//! * [`metrics`] — the six evaluation metrics of §5.1 (FEComm, NTNodes,
//!   NRemote, M2MComm, UpdComm, plus balance diagnostics) and the
//!   aggregation used by Table 1;
//! * [`comm`] — per-rank traffic matrices for each communication kind
//!   (the paper reports totals; the bottleneck rank is what bounds the
//!   step time on a real machine);
//! * [`policy`] — automatic selection of the §4.3 hybrid repartitioning
//!   period under an explicit communication cost model;
//! * [`known_contact`] — the a-priori-known-contact method the paper's §3
//!   surveys (virtual edges between predicted contact pairs), for
//!   comparison on predictable vs unpredictable contact.

pub mod comm;
pub mod common;
pub mod dt_friendly;
pub mod known_contact;
pub mod mcml_dt;
pub mod metrics;
pub mod ml_rcb;
pub mod policy;
pub mod report;

/// The weighting [`contact_graph`] builds a snapshot's graph under.
pub use cip_mesh::graphs::NodalGraphOptions;
pub use comm::{halo_traffic, m2m_traffic, shipment_traffic, RankTraffic};
pub use common::{
    contact_graph, face_bodies, face_owner, gather, surface_elements, ContactPoints, FeCost,
    SnapshotView,
};
pub use dt_friendly::{dt_friendly_correct, recommended_max_pi, DtFriendlyConfig, DtFriendlyStats};
pub use known_contact::{evaluate_known_contact, KnownContactConfig};
pub use mcml_dt::{
    decompose, evaluate_mcml_dt, merge_live, repartition_step, Decomposed, McmlDtConfig,
    RepartitionMethod, UpdatePolicy,
};
pub use metrics::{average_metrics, results_document, MetricsRow, SnapshotMetrics, RESULTS_SCHEMA};
pub use ml_rcb::{evaluate_ml_rcb, MlRcbConfig};
pub use policy::{select_hybrid_period, CostModel, PolicyChoice};
pub use report::{quality_report, QualityReport};
