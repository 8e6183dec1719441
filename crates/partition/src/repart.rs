//! Scratch-remap repartitioning.
//!
//! The multi-constraint *repartitioning* primitive of §4.3 (and of the
//! ML+RCB baseline's FE phase): compute a fresh partition, then relabel its
//! parts with a maximum-weight matching against the previous partition so
//! that as many vertices as possible keep their part — which is exactly the
//! "maximize overlap" secondary objective of the graph-repartitioning
//! problem (§2).

use crate::config::PartitionerConfig;
use crate::hungarian::max_weight_assignment;
use crate::rb::partition_kway;
use cip_graph::Graph;

/// Relabels `fresh`'s parts to maximize (weighted) overlap with `old`.
///
/// `old` entries equal to `u32::MAX` mark vertices with no previous
/// assignment (e.g. newly exposed nodes); they contribute nothing to the
/// overlap matrix. Overlap is weighted by constraint-0 vertex weight, the
/// same weight the migration cost is paid in.
pub fn remap_to_maximize_overlap(g: &Graph, old: &[u32], fresh: &[u32], k: usize) -> Vec<u32> {
    assert_eq!(old.len(), g.nv());
    assert_eq!(fresh.len(), g.nv());
    let mut overlap = vec![0i64; k * k];
    for v in 0..g.nv() {
        let o = old[v];
        if o == u32::MAX {
            continue;
        }
        debug_assert!((o as usize) < k, "old part id out of range");
        overlap[fresh[v] as usize * k + o as usize] += g.vwgt(v as u32)[0];
    }
    let sigma = max_weight_assignment(k, &overlap); // fresh part -> old label
    fresh.iter().map(|&p| sigma[p as usize] as u32).collect()
}

/// Repartitions `g` into `k` parts, maximizing overlap with `old`.
pub fn repartition(g: &Graph, k: usize, old: &[u32], cfg: &PartitionerConfig) -> Vec<u32> {
    let fresh = partition_kway(g, k, cfg);
    remap_to_maximize_overlap(g, old, &fresh, k)
}

/// The number of vertices whose part changed between two assignments
/// (ignoring `u32::MAX` entries in either) — the migration count.
pub fn migration_count(old: &[u32], new: &[u32]) -> usize {
    old.iter().zip(new.iter()).filter(|(&o, &n)| o != u32::MAX && n != u32::MAX && o != n).count()
}

/// Compacts a `k`-part assignment after losing the ranks in `dead`:
/// vertices of a dead part become unassigned (`u32::MAX`, for the
/// diffusion repartitioner to adopt), and the surviving labels are made
/// contiguous in `0..k - dead.len()` by moving the *highest* surviving
/// labels into the freed slots (swap-style, so at most `dead.len()` parts
/// are relabeled and no surviving vertex migrates because of the
/// renumbering itself). Returns the new part count.
pub fn compact_parts_after_loss(parts: &mut [u32], k: usize, dead: &[u32]) -> usize {
    assert!(dead.len() <= k, "cannot lose more ranks than exist");
    let mut is_dead = vec![false; k];
    for &d in dead {
        assert!((d as usize) < k, "dead rank {d} out of range for k={k}");
        is_dead[d as usize] = true;
    }
    // Orphan the dead parts' vertices first.
    for p in parts.iter_mut() {
        if *p != u32::MAX && is_dead[*p as usize] {
            *p = u32::MAX;
        }
    }
    // Fill freed low slots from the top: for each dead slot below the new
    // part count, relabel the highest surviving part into it.
    let new_k = k - dead.len();
    let mut relabel: Vec<u32> = (0..k as u32).collect();
    let mut top = k;
    for slot in 0..new_k {
        if !is_dead[slot] {
            continue;
        }
        // Find the highest surviving label above new_k.
        top -= 1;
        while is_dead[top] {
            top -= 1;
        }
        relabel[top] = slot as u32;
    }
    for p in parts.iter_mut() {
        if *p != u32::MAX {
            *p = relabel[*p as usize];
        }
    }
    new_k
}

#[cfg(test)]
mod tests {
    use super::*;
    use cip_graph::GraphBuilder;

    fn grid(nx: usize, ny: usize) -> Graph {
        let mut b = GraphBuilder::new(nx * ny, 1);
        let id = |i: usize, j: usize| (j * nx + i) as u32;
        for j in 0..ny {
            for i in 0..nx {
                b.set_vwgt(id(i, j), &[1]);
                if i + 1 < nx {
                    b.add_edge(id(i, j), id(i + 1, j), 1);
                }
                if j + 1 < ny {
                    b.add_edge(id(i, j), id(i, j + 1), 1);
                }
            }
        }
        b.build()
    }

    #[test]
    fn remap_recovers_label_permutation() {
        let g = grid(8, 8);
        let old: Vec<u32> = (0..64).map(|v| u32::from(v % 8 >= 4)).collect();
        // fresh = old with labels swapped.
        let fresh: Vec<u32> = old.iter().map(|&p| 1 - p).collect();
        let remapped = remap_to_maximize_overlap(&g, &old, &fresh, 2);
        assert_eq!(remapped, old);
        assert_eq!(migration_count(&old, &remapped), 0);
    }

    #[test]
    fn remap_ignores_unassigned_vertices() {
        let g = grid(4, 4);
        let mut old: Vec<u32> = (0..16).map(|v| u32::from(v >= 8)).collect();
        old[0] = u32::MAX;
        let fresh: Vec<u32> = (0..16).map(|v| u32::from(v < 8)).collect();
        let remapped = remap_to_maximize_overlap(&g, &old, &fresh, 2);
        // Labels flipped back to match old.
        assert_eq!(remapped[15], 1);
        assert_eq!(remapped[1], 0);
    }

    #[test]
    fn repartition_overlaps_previous_partition() {
        let g = grid(12, 12);
        let cfg = PartitionerConfig::with_seed(17);
        let old = partition_kway(&g, 4, &cfg);
        // Repartition with a different seed: raw labels would be arbitrary,
        // but remapping must recover most of the overlap.
        let cfg2 = PartitionerConfig::with_seed(18);
        let new = repartition(&g, 4, &old, &cfg2);
        let moved = migration_count(&old, &new);
        assert!(moved < g.nv() / 2, "scratch-remap moved {moved}/{} vertices", g.nv());
    }

    #[test]
    fn migration_count_basics() {
        assert_eq!(migration_count(&[0, 1, 2], &[0, 1, 2]), 0);
        assert_eq!(migration_count(&[0, 1, 2], &[2, 1, 0]), 2);
        assert_eq!(migration_count(&[u32::MAX, 1], &[0, 0]), 1);
    }

    #[test]
    fn compact_orphans_dead_part_and_keeps_labels_contiguous() {
        // Losing the top part: survivors keep their labels untouched.
        let mut parts = vec![0, 1, 2, 3, 2, 1, 0, 3];
        let new_k = compact_parts_after_loss(&mut parts, 4, &[3]);
        assert_eq!(new_k, 3);
        let m = u32::MAX;
        assert_eq!(parts, vec![0, 1, 2, m, 2, 1, 0, m]);

        // Losing a middle part: only the top label moves (into the hole).
        let mut parts = vec![0, 1, 2, 3, 2, 1, 0, 3];
        let new_k = compact_parts_after_loss(&mut parts, 4, &[1]);
        assert_eq!(new_k, 3);
        assert_eq!(parts, vec![0, m, 2, 1, 2, m, 0, 1]);

        // Multiple losses, already-unassigned entries pass through.
        let mut parts = vec![m, 0, 1, 2, 3, 0];
        let new_k = compact_parts_after_loss(&mut parts, 4, &[0, 3]);
        assert_eq!(new_k, 2);
        assert_eq!(parts, vec![m, m, 1, 0, m, m]);
        assert!(parts.iter().all(|&p| p == m || (p as usize) < new_k));
    }
}
