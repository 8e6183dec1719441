//! Partitioner configuration.

use crate::coarsen::DEFAULT_PARALLEL_THRESHOLD;
use cip_telemetry::Recorder;

/// Tuning knobs for the multilevel partitioner.
///
/// The defaults follow METIS conventions: 5% imbalance tolerance on the
/// primary constraint, a somewhat looser 15% on secondary constraints
/// (the contact constraint is sparse and lumpy — a handful of surface
/// nodes per element — so exact balance is neither achievable nor needed)
/// and coarsening down to a few hundred vertices. The effort bounds —
/// initial-bisection tries, FM and k-way pass counts, matcher and sweep
/// round caps, the FM transient-violation bound — are fixed constants
/// beside the code they bound.
#[derive(Debug, Clone)]
pub struct PartitionerConfig {
    /// Allowed imbalance per constraint: constraint `j` must satisfy
    /// `LoadImbalance(P, j) <= 1 + eps(j)`. If the vector is shorter than
    /// `ncon`, the last entry is broadcast.
    pub eps: Vec<f64>,
    /// RNG seed (the partitioner is fully deterministic given the seed).
    pub seed: u64,
    /// Stop coarsening once the graph has at most this many vertices.
    pub coarsen_to: usize,
    /// Coarsening levels with at least this many vertices use the
    /// parallel (propose-then-resolve) matcher, and k-way refinement on
    /// graphs this large the parallel sweep; smaller graphs and recursion
    /// sub-problems stay on the cheaper sequential algorithms. Contraction
    /// does not fork here: it forks where `cip_base::par` would split the
    /// level (two `GRAIN`s of coarse vertices). Both sides are
    /// deterministic per seed at any thread count.
    pub parallel_threshold: usize,
    /// Telemetry sink. Disabled by default; when enabled, the partitioner
    /// emits per-level coarsen/match/contract/initial/refine spans (see
    /// DESIGN.md §6). A disabled recorder costs one branch per event.
    pub recorder: Recorder,
}

impl Default for PartitionerConfig {
    fn default() -> Self {
        Self {
            eps: vec![0.05, 0.15],
            seed: 1,
            coarsen_to: 160,
            parallel_threshold: DEFAULT_PARALLEL_THRESHOLD,
            recorder: Recorder::disabled(),
        }
    }
}

impl PartitionerConfig {
    /// A config with the given seed and defaults elsewhere.
    pub fn with_seed(seed: u64) -> Self {
        Self { seed, ..Self::default() }
    }

    /// The imbalance tolerance for constraint `j` (broadcasting the last
    /// entry when `eps` is shorter than the constraint count).
    pub fn eps_for(&self, j: usize) -> f64 {
        *self.eps.get(j).unwrap_or_else(|| self.eps.last().expect("eps must be non-empty"))
    }

    /// Derives a child seed for an independent sub-problem (recursive
    /// bisection sides, initial-partition retries) without correlating
    /// their random streams.
    pub fn child_seed(&self, salt: u64) -> u64 {
        child_seed(self.seed, salt)
    }
}

/// [`PartitionerConfig::child_seed`] as a free function, for call sites
/// that carry a per-recursion seed override instead of cloning the whole
/// config (see `rb_recurse`).
pub fn child_seed(seed: u64, salt: u64) -> u64 {
    cip_base::rng::splitmix64(seed, salt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eps_broadcasts_last_entry() {
        let cfg = PartitionerConfig { eps: vec![0.05, 0.2], ..Default::default() };
        assert_eq!(cfg.eps_for(0), 0.05);
        assert_eq!(cfg.eps_for(1), 0.2);
        assert_eq!(cfg.eps_for(5), 0.2);
    }

    #[test]
    fn child_seeds_differ() {
        let cfg = PartitionerConfig::with_seed(42);
        let a = cfg.child_seed(1);
        let b = cfg.child_seed(2);
        assert_ne!(a, b);
        assert_ne!(a, 42);
        // Deterministic.
        assert_eq!(a, cfg.child_seed(1));
    }
}
