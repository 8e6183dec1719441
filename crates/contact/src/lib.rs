//! Global and local contact search.
//!
//! Parallel contact detection (§2, §4 of the paper) proceeds in two steps:
//!
//! 1. **global search** — decide, for every surface element, which *other
//!    subdomains* might hold elements it could touch, and ship it to those
//!    processors. The decision uses a per-subdomain *geometric descriptor*
//!    as a filter. This crate provides the two descriptors the paper
//!    compares — subdomain **bounding boxes** (the classical filter used
//!    with ML+RCB) and the paper's **decision-tree** leaf regions — plus
//!    RCB regions, behind one [`filter::GlobalFilter`] trait. The number of
//!    elements shipped is the paper's **NRemote** metric.
//! 2. **local search** — on each processor, find the actually-contacting
//!    candidate pairs among owned + received elements. The paper treats
//!    local search as orthogonal; [`local`] supplies a proximity-based
//!    implementation (per-body hull cull, then a sort-and-sweep along one
//!    axis + bounding-box tolerance test) so the library is usable
//!    end-to-end and so tests can verify the *filter completeness*
//!    property: no true contact pair is ever missed by either filter. The
//!    sweep is exact: its intervals, widened by `max(t, 0)` on both ends,
//!    meet for every pair the tolerance test accepts, so it reports the
//!    `O(n²)` search's pairs, bit for bit, whatever the axis.
//!    [`exchange`] materializes the parallel step (per-rank inboxes +
//!    per-rank local search) and proves the distributed detection equals
//!    the serial one.

pub mod exchange;
pub mod filter;
mod hull;
pub mod local;
pub mod search;

pub use exchange::{build_exchange, distributed_contact_pairs, serial_contact_pairs, Exchange};
pub use filter::{BboxFilter, DtreeFilter, GlobalFilter, RcbRegionFilter};
pub use local::{find_contact_pairs, search_contact_zone, ContactPair, ZoneSearch};
pub use search::{global_search, n_remote, SurfaceElementInfo};
