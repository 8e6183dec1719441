//! C4.5-style decision-tree induction over partitioned point sets.
//!
//! This crate implements §4.1 of the paper: given a `k`-way partitioning of
//! a set of 2D/3D points, build a small binary tree of axis-parallel
//! *decision hyperplanes* whose leaves contain points from a single
//! partition. The tree then serves as the **geometric descriptor** of every
//! subdomain during the global contact-search phase — each subdomain's
//! territory is the union of the leaf boxes labeled with it, which
//! approximates the subdomain's actual shape far more tightly than a
//! bounding box and thus eliminates most false-positive element shipments.
//!
//! * [`induce()`] — tree induction with the paper's modified gini splitting
//!   index (Equation 1), the incremental `O(1)`-per-position sweep over
//!   pre-sorted dimensions the paper describes, and the two stopping rules:
//!   purity (for search trees) and `max_p`/`max_i` (for the DT-friendly
//!   partition-correction tree of §4.2),
//! * [`tree`] — the tree structure and its queries: point location, box
//!   traversal (the global-search filter), and leaf-region enumeration,
//! * a **margin-aware** splitting-index variant implementing the paper's
//!   §6 suggestion that hyperplanes passing through sparsely populated
//!   space should be preferred.
//!
//! Induction is parallel (`par::join`) across independent subtrees. Between
//! adjacent time steps, [`refresh()`] maintains an existing tree
//! incrementally — only the subtrees whose leaves went impure are
//! re-induced — which is the efficient form of the paper's §4.3
//! "re-induce the tree every step" update policy.

pub mod export;
pub mod induce;
mod proptests;
pub mod refresh;
pub mod tree;

pub use induce::{induce, induce_recorded, DtreeConfig, Splitter, StopRule};
pub use refresh::{refresh, refresh_recorded, RefreshStats};
pub use tree::{DecisionTree, LeafInfo};
