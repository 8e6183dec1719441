//! Per-rank decomposition plans.
//!
//! Given the adjacency of the nodal graph and a node partition, derive
//! what each rank exchanges and owns:
//!
//! * **halo send lists** ([`HaloPlan`]) — for each neighbor rank, the
//!   owned nodes it needs (every node with a neighbor on that rank), so
//!   the total number of (node, destination) sends equals exactly the
//!   paper's FEComm metric. They depend on the adjacency and the
//!   assignment alone, so one plan serves every step that shares both;
//! * **owned surface elements** — contact faces whose majority node lives
//!   on the rank (the same ownership rule the metrics use), new at every
//!   step.
//!
//! The nodes a rank ghosts are not stored: they are the union of the
//! lists addressed to it.

use cip_graph::Graph;
use std::sync::Arc;

/// The halo sends of one rank: `(neighbor_rank, owned nodes to send)`,
/// sorted by rank, every node list ascending. Shared, not copied, by the
/// steps that use it.
pub type HaloSends = Arc<[(u32, Vec<u32>)]>;

/// What one rank exchanges and owns.
#[derive(Debug, Clone)]
pub struct RankPlan {
    /// Halo sends of this rank.
    pub send_halo: HaloSends,
    /// Indices (into the caller's surface-element array) of elements this
    /// rank owns.
    pub owned_surface: Vec<u32>,
}

impl RankPlan {
    /// Total number of (node, destination) halo sends from this rank.
    pub fn halo_send_count(&self) -> usize {
        self.send_halo.iter().map(|(_, v)| v.len()).sum()
    }
}

/// The full decomposition plan.
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// Number of ranks.
    pub k: usize,
    /// Per-rank plans.
    pub ranks: Vec<RankPlan>,
}

impl Decomposition {
    /// Total halo volume (must equal the FEComm metric).
    pub fn total_halo_volume(&self) -> u64 {
        self.ranks.iter().map(|r| r.halo_send_count() as u64).sum()
    }
}

/// The halo send lists of every rank under one (adjacency, assignment)
/// pair — the part of a [`Decomposition`] that outlives a step.
#[derive(Debug, Clone)]
pub struct HaloPlan {
    /// `sends[r]` = the halo sends of rank `r`.
    sends: Vec<HaloSends>,
}

impl HaloPlan {
    /// Builds the send lists from CSR adjacency rows (the neighbours of
    /// vertex `v` are `adjncy[xadj[v]..xadj[v + 1]]`; a [`Graph`]'s or a
    /// `cip_mesh::NodalTopology`'s — edge weights are never read):
    /// every *distinct* remote part among a vertex's neighbours receives
    /// one copy of it.
    ///
    /// * `node_of_vertex` — graph vertex -> global mesh node id,
    /// * `assignment` — graph vertex -> rank.
    pub fn build(
        xadj: &[usize],
        adjncy: &[u32],
        node_of_vertex: &[u32],
        assignment: &[u32],
        k: usize,
    ) -> Self {
        let nv = node_of_vertex.len();
        assert_eq!(assignment.len(), nv);
        assert_eq!(xadj.len(), nv + 1);
        // After a rank loss the live rank count shrinks; a stale label
        // must fail loudly here, not as an opaque slice-index panic.
        for (v, &r) in assignment.iter().enumerate() {
            assert!(
                (r as usize) < k,
                "vertex {v} assigned to rank {r}, but only {k} ranks are live"
            );
        }
        let mut seen: Vec<u32> = Vec::with_capacity(16);
        // lists[owner][needer] -> nodes
        let mut lists: Vec<Vec<Vec<u32>>> = vec![vec![Vec::new(); k]; k];
        for v in 0..nv {
            let pv = assignment[v];
            seen.clear();
            for &u in &adjncy[xadj[v]..xadj[v + 1]] {
                let pu = assignment[u as usize];
                if pu != pv && !seen.contains(&pu) {
                    seen.push(pu);
                    lists[pv as usize][pu as usize].push(node_of_vertex[v]);
                }
            }
        }
        let sends = lists
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .enumerate()
                    .filter(|(_, nodes)| !nodes.is_empty())
                    .map(|(needer, mut nodes)| {
                        nodes.sort_unstable();
                        (needer as u32, nodes)
                    })
                    .collect()
            })
            .collect();
        Self { sends }
    }

    /// Number of ranks.
    pub fn k(&self) -> usize {
        self.sends.len()
    }

    /// The decomposition of one step: these send lists (shared) plus the
    /// surface elements each rank owns, `surface_owner` giving the owner
    /// rank of surface element 0, 1, ….
    pub fn decomposition(&self, surface_owner: impl IntoIterator<Item = u32>) -> Decomposition {
        let k = self.k();
        let mut ranks: Vec<RankPlan> = self
            .sends
            .iter()
            .map(|sends| RankPlan { send_halo: Arc::clone(sends), owned_surface: Vec::new() })
            .collect();
        for (e, owner) in surface_owner.into_iter().enumerate() {
            assert!((owner as usize) < k, "surface element {e} owned by dead rank {owner}");
            ranks[owner as usize].owned_surface.push(e as u32);
        }
        Decomposition { k, ranks }
    }
}

/// Builds the decomposition plan.
///
/// * `graph` — the nodal graph (vertices = live mesh nodes),
/// * `node_of_vertex` — graph vertex -> global mesh node id,
/// * `assignment` — graph vertex -> rank,
/// * `surface_owner` — owner rank of each surface element.
pub fn build_decomposition(
    graph: &Graph,
    node_of_vertex: &[u32],
    assignment: &[u32],
    surface_owner: &[u32],
    k: usize,
) -> Decomposition {
    HaloPlan::build(graph.xadj(), graph.adjncy(), node_of_vertex, assignment, k)
        .decomposition(surface_owner.iter().copied())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cip_graph::{total_comm_volume, GraphBuilder};

    /// Path 0-1-2-3-4-5 split in thirds.
    fn setup() -> (Graph, Vec<u32>, Vec<u32>) {
        let mut b = GraphBuilder::new(6, 1);
        for v in 0..6u32 {
            b.set_vwgt(v, &[1]);
        }
        for v in 0..5u32 {
            b.add_edge(v, v + 1, 1);
        }
        let g = b.build();
        let node_of_vertex: Vec<u32> = (0..6).collect();
        let asg = vec![0, 0, 1, 1, 2, 2];
        (g, node_of_vertex, asg)
    }

    /// The nodes rank `r` ghosts: the union of the lists addressed to it.
    fn ghosts_of(d: &Decomposition, r: u32) -> Vec<u32> {
        let mut ghosts: Vec<u32> = d
            .ranks
            .iter()
            .flat_map(|plan| plan.send_halo.iter())
            .filter(|(to, _)| *to == r)
            .flat_map(|(_, nodes)| nodes.iter().copied())
            .collect();
        ghosts.sort_unstable();
        ghosts
    }

    #[test]
    fn send_lists_and_the_ghosts_they_imply() {
        let (g, nov, asg) = setup();
        let d = build_decomposition(&g, &nov, &asg, &[], 3);
        // Rank 0 sends node 1 to rank 1 only; rank 1 serves both sides.
        assert_eq!(*d.ranks[0].send_halo, [(1, vec![1])]);
        assert_eq!(*d.ranks[1].send_halo, [(0, vec![2]), (2, vec![3])]);
        // Rank 1 needs node 1 (from rank 0) and node 4 (from rank 2).
        assert_eq!(ghosts_of(&d, 1), vec![1, 4]);
    }

    #[test]
    fn halo_volume_equals_fe_comm() {
        let (g, nov, asg) = setup();
        let d = build_decomposition(&g, &nov, &asg, &[], 3);
        assert_eq!(d.total_halo_volume(), total_comm_volume(&g, &asg));
    }

    #[test]
    fn ghosts_are_exactly_the_remote_neighbors() {
        let (g, nov, asg) = setup();
        let d = build_decomposition(&g, &nov, &asg, &[], 3);
        for r in 0..3u32 {
            let expected: Vec<u32> = (0..6u32)
                .filter(|&n| asg[n as usize] != r)
                .filter(|&n| g.adj(n).iter().any(|&u| asg[u as usize] == r))
                .collect();
            assert_eq!(ghosts_of(&d, r), expected, "rank {r}");
        }
    }

    #[test]
    fn surface_elements_distributed_by_owner() {
        let (g, nov, asg) = setup();
        let d = build_decomposition(&g, &nov, &asg, &[2, 0, 1, 1], 3);
        assert_eq!(d.ranks[0].owned_surface, vec![1]);
        assert_eq!(d.ranks[1].owned_surface, vec![2, 3]);
        assert_eq!(d.ranks[2].owned_surface, vec![0]);
    }

    #[test]
    fn steps_of_one_plan_share_their_send_lists() {
        let (g, nov, asg) = setup();
        let halo = HaloPlan::build(g.xadj(), g.adjncy(), &nov, &asg, 3);
        let (a, b) = (halo.decomposition([0, 1]), halo.decomposition([2]));
        for r in 0..3 {
            assert!(Arc::ptr_eq(&a.ranks[r].send_halo, &b.ranks[r].send_halo));
        }
        assert_eq!(a.ranks[1].owned_surface, vec![1]);
        assert_eq!(b.ranks[2].owned_surface, vec![0]);
    }

    #[test]
    fn single_rank_has_no_exchange() {
        let (g, nov, _) = setup();
        let d = build_decomposition(&g, &nov, &[0; 6], &[], 1);
        assert_eq!(d.total_halo_volume(), 0);
        assert!(d.ranks[0].send_halo.is_empty());
    }

    #[test]
    #[should_panic(expected = "only 2 ranks are live")]
    fn a_label_past_the_live_ranks_fails_by_name() {
        let (g, nov, asg) = setup();
        build_decomposition(&g, &nov, &asg, &[], 2);
    }
}
