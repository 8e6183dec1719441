//! CSR graphs with multi-constraint vertex weights.
//!
//! This crate is the graph substrate for the multilevel partitioner and for
//! the paper's evaluation metrics:
//!
//! * [`Graph`] — a compressed-sparse-row undirected graph whose vertices
//!   carry a *vector* of `ncon` weights (the multi-constraint formulation of
//!   Karypis & Kumar) and whose edges carry scalar weights,
//! * [`builder::GraphBuilder`] — incremental construction with duplicate-edge
//!   merging,
//! * [`Partition`] — a `k`-way assignment with cached per-part weight sums
//!   and per-constraint load-imbalance queries,
//! * [`metrics`] — edge-cut and Hendrickson's *total communication volume*
//!   (the paper's FEComm metric),
//! * [`contract()`] / [`subgraph`] — the coarsening and recursive-bisection
//!   primitives (vertex-group contraction, induced subgraphs),
//! * [`components`] — per-part fragment counts
//!   (subdomain-connectivity diagnostics).

pub mod builder;
pub mod components;
pub mod contract;
pub mod csr;
pub mod metrics;
pub mod partition;
pub mod subgraph;

pub use builder::GraphBuilder;
pub use components::part_fragments;
pub use contract::{contract, contract_with, ContractWorkspace};
pub use csr::Graph;
pub use metrics::{comm_volume_of_rows, cut_edges_of_rows, edge_cut, total_comm_volume};
pub use partition::{load_imbalance, Partition};
pub use subgraph::{induced_subgraph, Subgraph};
