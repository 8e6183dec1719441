//! Multilevel multi-constraint graph partitioning.
//!
//! A from-scratch implementation of the METIS-family algorithms the paper
//! builds on (Karypis & Kumar, *Multilevel algorithms for multi-constraint
//! graph partitioning*, SC'98):
//!
//! * [`mod@coarsen`] — heavy-edge matching and graph contraction,
//! * [`bisect`] — multi-constraint greedy graph growing for the initial
//!   bisection of the coarsest graph, plus a balance-repair pass,
//! * [`fm`] — 2-way Fiduccia–Mattheyses refinement with multi-constraint
//!   feasibility and hill-climbing with rollback,
//! * [`rb`] — multilevel *recursive bisection* driver producing `k`-way
//!   partitions for arbitrary `k`,
//! * [`kway`] — greedy multi-constraint `k`-way refinement and balancing
//!   (also used standalone for the paper's DT-friendly correction step,
//!   where it moves whole axis-parallel regions of the contracted graph
//!   `G'` between parts),
//! * [`repart`] — scratch-remap repartitioning: partition from scratch,
//!   then relabel parts via maximum-weight matching so the new partition
//!   overlaps the old one as much as possible,
//! * [`diffusion`] — local-diffusion repartitioning (the Schloegel-style
//!   alternative the paper's §4.3 cites): migrate weight out of
//!   overloaded parts starting from the previous assignment — far less
//!   migration than scratch-remap when the imbalance is mild,
//! * [`hungarian`] — exact O(k³) maximum-weight assignment (used both for
//!   repartition remapping and by the ML+RCB baseline's mesh-to-mesh
//!   communication metric).
//!
//! The entry points are [`partition_kway`] (static partitioning),
//! [`refine_kway`]/[`balance_kway`] (refinement of an existing assignment)
//! and [`repartition`] (adaptive repartitioning). Every entry point
//! allocates its own scratch and keeps nothing between calls; the `_with`
//! forms take a caller's workspace so that the passes of one call share
//! it.

pub mod bisect;
pub mod coarsen;
pub mod config;
pub mod diffusion;
pub mod fm;
pub mod hungarian;
pub mod kway;
mod proptests;
pub mod rb;
pub mod repart;

pub use coarsen::{
    coarsen, coarsen_recorded, coarsen_with, heavy_edge_matching, parallel_heavy_edge_matching,
    CoarsenParams, CoarsenWorkspace, Hierarchy,
};
pub use config::PartitionerConfig;
pub use diffusion::diffusion_repartition;
pub use fm::fm_refine_with;
pub use hungarian::max_weight_assignment;
pub use kway::{balance_kway, balance_kway_with, refine_kway, refine_kway_with, RefineWorkspace};
pub use rb::partition_kway;
pub use repart::{compact_parts_after_loss, remap_to_maximize_overlap, repartition};
