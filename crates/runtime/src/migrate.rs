//! Data migration between decompositions.
//!
//! When the partition changes (§4.3 repartitioning, or ML+RCB's per-step
//! RCB update), every node whose owner changed must ship its state to the
//! new owner. This module builds that migration plan; the tests validate
//! it against `cip_partition::repart::migration_count`.

/// A migration plan: per (from, to) rank pair, the nodes that move.
#[derive(Debug, Clone)]
pub struct MigrationPlan {
    /// Number of ranks.
    pub k: usize,
    /// `moves[from * k + to]` = global node ids moving from -> to.
    pub moves: Vec<Vec<u32>>,
}

impl MigrationPlan {
    /// True when no node migrates — the common steady-state case, which
    /// lets callers skip the shipping phase entirely.
    pub fn is_empty(&self) -> bool {
        self.moves.iter().all(|v| v.is_empty())
    }

    /// Applies the plan to an assignment: every planned move re-labels its
    /// node with the destination rank. Applying the plan built from
    /// `(old, new)` onto `old` reproduces `new` on every node both
    /// assignments cover.
    pub fn apply(&self, asg: &mut [u32]) {
        for (pair, nodes) in self.moves.iter().enumerate() {
            let to = (pair % self.k) as u32;
            for &n in nodes {
                asg[n as usize] = to;
            }
        }
    }

    /// Total nodes migrated (the UpdComm-style metric).
    pub fn total_moved(&self) -> u64 {
        self.moves.iter().map(|v| v.len() as u64).sum()
    }
}

/// Builds the migration plan between two node-indexed assignments
/// (`u32::MAX` entries — dead or unassigned nodes — never migrate).
pub fn build_migration(old: &[u32], new: &[u32], k: usize) -> MigrationPlan {
    assert_eq!(old.len(), new.len(), "assignments must cover the same nodes");
    let mut moves = vec![Vec::new(); k * k];
    for (n, (&o, &w)) in old.iter().zip(new.iter()).enumerate() {
        if o == u32::MAX || w == u32::MAX || o == w {
            continue;
        }
        // After a rank loss the live rank count shrinks; a stale label
        // must fail loudly here, not as an opaque slice-index panic.
        assert!(
            (o as usize) < k && (w as usize) < k,
            "node {n}: migration {o} -> {w} is outside the {k} live ranks"
        );
        moves[o as usize * k + w as usize].push(n as u32);
    }
    MigrationPlan { k, moves }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_migrates_nothing() {
        let asg = vec![0u32, 1, 2, 1];
        let plan = build_migration(&asg, &asg, 3);
        assert_eq!(plan.total_moved(), 0);
    }

    #[test]
    fn moves_are_recorded_per_pair() {
        let old = vec![0u32, 0, 1, 1, u32::MAX];
        let new = vec![0u32, 1, 1, 0, 0];
        let plan = build_migration(&old, &new, 2);
        assert_eq!(plan.moves[1], vec![1]);
        assert_eq!(plan.moves[2], vec![3]);
        assert_eq!(plan.total_moved(), 2);
        // Node 4 was unassigned before: not a migration.
        assert!(plan.moves[0].is_empty() && plan.moves[3].is_empty());
    }

    #[test]
    fn matches_partition_migration_count() {
        let old: Vec<u32> = (0..100).map(|v| v % 4).collect();
        let new: Vec<u32> = (0..100).map(|v| (v + 1) % 4).collect();
        let plan = build_migration(&old, &new, 4);
        assert_eq!(plan.total_moved(), cip_partition::repart::migration_count(&old, &new) as u64);
    }

    #[test]
    fn apply_round_trips_old_to_new() {
        // Pseudo-random but deterministic assignments over 6 ranks.
        let old: Vec<u32> = (0..500u32).map(|v| (v * 7 + 3) % 6).collect();
        let new: Vec<u32> = (0..500u32).map(|v| (v * 13 + 1) % 6).collect();
        let plan = build_migration(&old, &new, 6);
        let mut applied = old.clone();
        plan.apply(&mut applied);
        assert_eq!(applied, new, "applying the plan must reproduce the target assignment");
    }

    #[test]
    fn apply_skips_unassigned_nodes() {
        let old = vec![0u32, u32::MAX, 1, 2];
        let new = vec![1u32, 0, u32::MAX, 2];
        let plan = build_migration(&old, &new, 3);
        let mut applied = old.clone();
        plan.apply(&mut applied);
        // Only node 0 had a real move; MAX-labeled endpoints stay put.
        assert_eq!(applied, vec![1, u32::MAX, 1, 2]);
    }

    #[test]
    fn empty_migration_fast_path() {
        let asg: Vec<u32> = (0..64u32).map(|v| v % 4).collect();
        let plan = build_migration(&asg, &asg, 4);
        assert!(plan.is_empty());
        let mut applied = asg.clone();
        plan.apply(&mut applied);
        assert_eq!(applied, asg, "applying an empty plan is a no-op");
    }

    #[test]
    fn agrees_with_updcomm_prediction_per_rank() {
        // The UpdComm prediction (cip_partition::repart::migration_count)
        // counts relabeled nodes; the executable plan must agree in total
        // and per-rank: each rank sends exactly the nodes it lost.
        let old: Vec<u32> = (0..200u32).map(|v| (v / 50) % 4).collect();
        let mut new = old.clone();
        for n in (0..200).step_by(9) {
            new[n] = (old[n] + 1) % 4;
        }
        let plan = build_migration(&old, &new, 4);
        assert_eq!(plan.total_moved(), cip_partition::repart::migration_count(&old, &new) as u64);
        for r in 0..4u32 {
            let sent: u64 = (0..4).map(|t| plan.moves[r as usize * 4 + t].len() as u64).sum();
            let lost =
                old.iter().zip(new.iter()).filter(|&(&o, &w)| o == r && w != r).count() as u64;
            assert_eq!(sent, lost, "rank {r} send volume");
        }
    }
}
