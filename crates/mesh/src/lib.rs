//! Finite-element mesh layer.
//!
//! This crate provides the mesh substrate of the contact/impact stack:
//!
//! * [`element`] — linear element types (Tri3/Quad4 in 2D, Tet4/Hex8 in 3D)
//!   with canonical face and edge enumerations,
//! * [`mesh`] — a multi-body mesh with node coordinates, an element-erosion
//!   mask (penetration deletes elements), and geometric queries,
//! * [`surface`] — boundary-surface extraction: the faces that belong to
//!   exactly one live element, which are the paper's *surface (contact)
//!   elements*, and their nodes, the *contact nodes*,
//! * [`graphs`] — nodal-graph construction (§2 of the paper), including
//!   the two-constraint vertex weights and boosted contact-edge weights
//!   of §4.2,
//! * [`generators`] — structured quad/hex box meshes used by the synthetic
//!   workload and the test suite,
//! * [`quality`] — element volume / aspect-ratio measures and mesh quality
//!   reports (erosion codes monitor these as cells distort),
//! * [`io`] — a small line-oriented text format for moving meshes in and
//!   out of the library.

pub mod element;
pub mod generators;
pub mod graphs;
pub mod io;
pub mod mesh;
mod proptests;
pub mod quality;
pub mod surface;

pub use element::{Element, ElementKind, Face};
pub use graphs::{nodal_graph, EdgeIndex, NodalGraph, NodalTopology};
pub use io::{read_text, write_text, MeshIoError};
pub use mesh::Mesh;
pub use quality::{aspect_ratio, quality_report, QualityReport};
pub use surface::{extract_surface, FacetIndex, Surface, SurfaceFace};
