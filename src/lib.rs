//! Facade crate: re-exports the full contact/impact partitioning stack.
//!
//! See the README for a quickstart and `DESIGN.md` for the architecture.

pub use cip_base as base;
pub use cip_contact as contact;
pub use cip_core as core;
pub use cip_dtree as dtree;
pub use cip_geom as geom;
pub use cip_graph as graph;
pub use cip_mesh as mesh;
pub use cip_partition as partition;
pub use cip_runtime as runtime;
pub use cip_server as server;
pub use cip_sim as sim;
pub use cip_telemetry as telemetry;
pub use cip_transport as transport;

pub mod service;
mod staging;
pub mod trace;
pub mod worker;
