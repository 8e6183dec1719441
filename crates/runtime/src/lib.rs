//! Shared-memory parallel execution of contact/impact time steps.
//!
//! The paper's algorithms target a distributed-memory machine; its
//! evaluation counts the *communication volumes* a real run would incur.
//! This crate closes the loop: it actually **executes** a contact/impact
//! time step across `k` logical ranks — one thread per rank, explicit
//! messages over bounded channels, no shared mutable state — and
//! *measures* the traffic, so the tests can assert that
//!
//! * ghost node positions are bit-identical to their owners' after the
//!   halo exchange,
//! * the measured halo traffic equals `cip_core::halo_traffic`'s
//!   prediction (the FEComm metric), message for message,
//! * the measured element shipments equal the NRemote prediction,
//! * the distributed contact detection finds exactly the serial pairs.
//!
//! In other words: the numbers in Table 1 are not just plausible
//! analytics — they are the exact message counts of an executable
//! parallel step.
//!
//! * [`plan`] — builds the per-rank decomposition plan (halo send
//!   lists, shared by the steps of one adjacency and assignment; surface
//!   ownership per step) from a node partition,
//! * [`exec`] — the executor's messages, traffic log, step input/output
//!   and options,
//! * [`pipeline`] — the step executor itself: one dependency-driven rank
//!   loop ([`execute_rank_steps`]) that overlaps halo sends, shipments,
//!   and contact searches across ranks *and* adjacent steps inside a
//!   bounded lookahead window, and the driver ([`execute_steps`]) that
//!   runs and folds it,
//! * [`remote`] — the session-lifetime mesh a batch runs over
//!   ([`connect_ranks`]) and the epoch fence that keeps one batch's late
//!   frames out of the next ([`SteppedMailbox`]),
//! * [`fault`] — deterministic, seeded fault injection (message drop /
//!   duplication / delay / reorder, mid-step rank kills): an optional plan
//!   per step that decides fates and kills, over the one repair protocol
//!   every step runs,
//! * [`migrate`] — migration plans between successive decompositions
//!   (the executable counterpart of the UpdComm metric; the driver plans
//!   each repartition beside a running batch, DESIGN.md §6b).
//!
//! Failures surface as typed [`RuntimeError`]s instead of panics, so a
//! driver can recover — repartition over the surviving ranks, migrate,
//! and re-execute (see `cip::trace::run_traced` and DESIGN.md §6b).

use std::fmt;

pub mod exec;
pub mod fault;
pub mod migrate;
pub mod pipeline;
pub mod plan;
pub mod remote;
pub mod wire;

pub use exec::{
    ExecOptions, Msg, PhaseTraffic, RankResult, ShippedElement, StepInput, StepOutput, TrafficLog,
    SHIP_CHUNK,
};
pub use fault::{Fate, FaultPlan, FaultRates, KillSpec};
pub use migrate::{build_migration, MigrationPlan};
pub use pipeline::{
    collect_batch, execute_rank_steps, execute_steps, BatchError, RankBatchOutcome,
};
pub use plan::{build_decomposition, Decomposition, HaloPlan, HaloSends, RankPlan};
pub use remote::{connect_ranks, SteppedMailbox};

pub use cip_transport::CancelToken;

/// A failed step execution — every former panic site on the executor hot
/// path, made recoverable.
#[derive(Debug)]
pub enum RuntimeError {
    /// A rank thread panicked (`rank` is the lowest-numbered offender).
    RankPanicked {
        /// The panicking rank.
        rank: u32,
    },
    /// One or more ranks died mid-step. The step produced nothing the
    /// driver keeps: it repartitions over the `k - dead.len()` survivors
    /// and re-executes the step.
    RankLost {
        /// The dead ranks, ascending.
        dead: Vec<u32>,
    },
    /// The transport layer failed before or during the step: mesh
    /// construction, socket I/O, or a fatal wire-format violation.
    /// Frame-local corruption never surfaces here — readers drop the
    /// frame, and the receiving rank re-requests the lost payload
    /// (`Resend`) from the sender's history, on every step.
    Transport(cip_transport::TransportError),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::RankPanicked { rank } => write!(f, "rank {rank} panicked during the step"),
            Self::RankLost { dead } => {
                write!(f, "{} rank(s) lost mid-step ({dead:?})", dead.len())
            }
            Self::Transport(e) => write!(f, "transport failed: {e}"),
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Transport(e) => Some(e),
            _ => None,
        }
    }
}

impl From<cip_transport::TransportError> for RuntimeError {
    fn from(e: cip_transport::TransportError) -> Self {
        Self::Transport(e)
    }
}

/// A rejected configuration value — what a validating builder
/// (`TraceOptions::builder` in the `cip` facade) returns instead of
/// clamping silently or panicking later.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The option that was rejected (builder-method name).
    pub field: &'static str,
    /// Why the value is invalid.
    pub reason: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid config: {}: {}", self.field, self.reason)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_error_display_names_the_culprits() {
        let e = RuntimeError::RankPanicked { rank: 3 };
        assert!(e.to_string().contains("rank 3"));
        let e = RuntimeError::RankLost { dead: vec![1, 2] };
        let s = e.to_string();
        assert!(s.contains("[1, 2]"), "{s}");
        let _dyn: &dyn std::error::Error = &e;
    }
}
