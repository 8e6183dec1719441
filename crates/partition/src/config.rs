//! Partitioner configuration.

use crate::coarsen::{DEFAULT_MATCHING_ROUNDS, DEFAULT_PARALLEL_THRESHOLD};
use crate::fm::DEFAULT_TRANSIENT_VIOLATION;
use cip_telemetry::Recorder;

/// Tuning knobs for the multilevel partitioner.
///
/// The defaults follow METIS conventions: 5% imbalance tolerance on the
/// primary constraint, a somewhat looser 15% on secondary constraints
/// (the contact constraint is sparse and lumpy — a handful of surface
/// nodes per element — so exact balance is neither achievable nor needed),
/// coarsening down to a few hundred vertices, a small portfolio of random
/// initial bisections, and a few FM passes per uncoarsening level.
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
    /// Number of random greedy-growing attempts for the initial bisection.
    pub init_tries: usize,
    /// Maximum FM passes per uncoarsening level.
    pub fm_passes: usize,
    /// Maximum greedy k-way refinement passes on the full graph.
    pub kway_passes: usize,
    /// Coarsening levels with at least this many vertices use the
    /// parallel (propose-then-resolve) matcher, and k-way refinement on
    /// graphs this large the parallel sweep; smaller graphs and recursion
    /// sub-problems stay on the cheaper sequential algorithms. Contraction
    /// does not fork here: it forks where `cip_base::par` would split the
    /// level (two `GRAIN`s of coarse vertices). Both sides are
    /// deterministic per seed at any thread count.
    pub parallel_threshold: usize,
    /// Rounds cap for the parallel matcher's propose-then-resolve loop
    /// (it also stops as soon as a round stops matching new vertices).
    pub matching_rounds: usize,
    /// Rounds cap per k-way refinement pass for the parallel
    /// (propose-then-resolve) sweep used on graphs at or above
    /// `parallel_threshold` vertices (the sweep also stops as soon as a
    /// round commits no move).
    pub refine_rounds: usize,
    /// Largest *transient* balance violation an FM hill-climb may cross
    /// mid-pass (the best-prefix rollback never commits to a state less
    /// feasible than the start, so this only widens the search).
    pub transient_violation: f64,
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
            init_tries: 6,
            fm_passes: 4,
            kway_passes: 6,
            parallel_threshold: DEFAULT_PARALLEL_THRESHOLD,
            matching_rounds: DEFAULT_MATCHING_ROUNDS,
            refine_rounds: 8,
            transient_violation: DEFAULT_TRANSIENT_VIOLATION,
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
