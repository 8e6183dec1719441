//! `cip-ladder`: the repository's benchmark.
//!
//! Seven workloads, four end-to-end metrics every workload reports, and a
//! table of per-layer metrics a traced run fills in; see `README.md` next
//! to this crate for the tables and how to run, compare and trace.
//!
//! The harness measures every layer from outside, by timing calls into the
//! layers' public functions, and depends on workspace path crates and `std`
//! only.

pub mod cli;
pub mod compare;
pub mod harness;
pub mod json;
pub mod rng;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod sysinfo;
pub mod workloads;
