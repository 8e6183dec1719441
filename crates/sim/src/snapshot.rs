//! Snapshot sequence representation.

use cip_geom::Point;
use cip_mesh::{EdgeIndex, Mesh, NodalTopology, Surface};
use cip_telemetry::Recorder;
use std::sync::{Arc, OnceLock};

/// One emitted snapshot of the simulation state.
///
/// The element list is invariant over the whole simulation (erosion only
/// flips the live mask), so snapshots store just what changes: node
/// positions, the live mask, and the extracted contact surface.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Time step this snapshot was taken at.
    pub step: usize,
    /// Node positions at this step (same node ids as the base mesh).
    pub points: Vec<Point<3>>,
    /// Element live mask at this step.
    pub alive: Vec<bool>,
    /// The *contact surface*: boundary faces of live elements inside the
    /// interaction region, plus their nodes — exactly the "surface
    /// elements" / "contact nodes" the paper's algorithms operate on.
    pub contact: Surface,
}

/// A complete simulation run: the base mesh plus the snapshot sequence.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// The mesh at rest (element connectivity and body ids never change).
    pub base: Mesh<3>,
    /// Emitted snapshots, in time order.
    pub snapshots: Vec<Snapshot>,
    /// Per-epoch cache, derived from `snapshots` on first use (so a
    /// deserialised run rebuilds it on demand).
    epochs: OnceLock<Epochs>,
}

/// The topology epochs of a run: maximal stretches of consecutive
/// snapshots with an identical live mask. Everything that depends on the
/// mask alone is computed once per epoch, from what depends on the base
/// mesh alone, computed once per run.
#[derive(Debug, Clone)]
struct Epochs {
    /// `of_snapshot[i]` = epoch of snapshot `i`.
    of_snapshot: Vec<usize>,
    /// The base mesh's edge index, built with the first topology.
    edges: OnceLock<Arc<EdgeIndex>>,
    /// The nodal topology of each epoch, built by whoever asks first
    /// (behind an `Arc` so clones of the run share what is already built).
    topology: Vec<OnceLock<Arc<NodalTopology>>>,
}

impl SimResult {
    /// A run over `base` with the given snapshots (not to be edited once
    /// [`SimResult::topology`] has been called).
    pub fn new(base: Mesh<3>, snapshots: Vec<Snapshot>) -> Self {
        Self { base, snapshots, epochs: OnceLock::new() }
    }

    fn epochs(&self) -> &Epochs {
        self.epochs.get_or_init(|| {
            let mut of_snapshot = Vec::with_capacity(self.snapshots.len());
            let mut epoch = 0;
            for (i, snap) in self.snapshots.iter().enumerate() {
                if i > 0 && snap.alive != self.snapshots[i - 1].alive {
                    epoch += 1;
                }
                of_snapshot.push(epoch);
            }
            let count = of_snapshot.last().map_or(0, |&last| last + 1);
            Epochs {
                of_snapshot,
                edges: OnceLock::new(),
                topology: (0..count).map(|_| OnceLock::new()).collect(),
            }
        })
    }

    /// The topology epoch of snapshot `i`: snapshots of one epoch share
    /// their live mask, consecutive epochs differ by an erosion event.
    pub fn epoch_of(&self, i: usize) -> usize {
        self.epochs().of_snapshot[i]
    }

    /// Number of topology epochs of the run.
    pub fn num_epochs(&self) -> usize {
        self.epochs().topology.len()
    }

    /// The nodal topology of snapshot `i`, built on the first request for
    /// its epoch and shared by every later one, from any thread. `rec`
    /// counts `mesh.topology.builds` / `mesh.topology.hits` and times the
    /// build under the `mesh.topology.build` span; the first build also
    /// indexes the base mesh's edges, under a `mesh.edge_index.build` child
    /// span.
    pub fn topology(&self, i: usize, rec: &Recorder) -> &NodalTopology {
        let epochs = self.epochs();
        let mut built = false;
        let topology = epochs.topology[epochs.of_snapshot[i]].get_or_init(|| {
            let _span = rec.span("mesh.topology.build").attr("snapshot", i);
            built = true;
            let edges = epochs.edges.get_or_init(|| {
                let _span = rec.span("mesh.edge_index.build");
                Arc::new(EdgeIndex::build(self.base.num_nodes(), &self.base.elements))
            });
            Arc::new(edges.topology(&self.base.elements, &self.snapshots[i].alive))
        });
        rec.add(if built { "mesh.topology.builds" } else { "mesh.topology.hits" }, 1);
        topology
    }

    /// Bytes the base mesh and the snapshots hold on the heap — what a
    /// cache that keeps the run charges for it. The topology caches,
    /// built on demand, are not counted.
    pub fn heap_bytes(&self) -> u64 {
        use std::mem::size_of_val;
        let base = &self.base;
        let mesh = size_of_val(&base.points[..])
            + size_of_val(&base.elements[..])
            + size_of_val(&base.body[..])
            + size_of_val(&base.alive[..]);
        let snapshots: usize = self
            .snapshots
            .iter()
            .map(|s| {
                size_of_val(&s.points[..])
                    + size_of_val(&s.alive[..])
                    + size_of_val(&s.contact.faces[..])
                    + size_of_val(&s.contact.contact_nodes[..])
            })
            .sum();
        (mesh + snapshots) as u64
    }

    /// Number of snapshots.
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// Whether the run produced no snapshots.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// Materializes the full mesh state of snapshot `i`: a deep copy of
    /// the base mesh's connectivity and body ids with the snapshot's
    /// positions and live mask — for analysis and tests, not for a step
    /// path.
    pub fn mesh_at(&self, i: usize) -> Mesh<3> {
        let snap = &self.snapshots[i];
        Mesh {
            points: snap.points.clone(),
            elements: self.base.elements.clone(),
            body: self.base.body.clone(),
            alive: snap.alive.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::SimConfig;

    #[test]
    fn snapshots_of_one_epoch_share_one_topology() {
        let sim = crate::run(&SimConfig::tiny());
        let rec = Recorder::enabled();
        for i in 0..sim.len() {
            let first = (0..=i).find(|&j| sim.epoch_of(j) == sim.epoch_of(i)).unwrap();
            assert!(std::ptr::eq(sim.topology(i, &rec), sim.topology(first, &rec)));
            assert_eq!(sim.snapshots[i].alive, sim.snapshots[first].alive);
        }
        let epochs = sim.num_epochs() as u64;
        assert_eq!(epochs as usize, sim.epoch_of(sim.len() - 1) + 1);
        assert_eq!(rec.counter_value("mesh.topology.builds"), epochs);
        // A clone shares what is built and builds nothing again.
        let clone = sim.clone();
        assert!(std::ptr::eq(clone.topology(0, &rec), sim.topology(0, &rec)));
        assert_eq!(rec.counter_value("mesh.topology.builds"), epochs);
        // The edges were indexed once, inside the first build.
        let summary = rec.summary().expect("enabled");
        assert_eq!(summary.span("mesh.edge_index.build").map(|s| s.count), Some(1));
    }

    #[test]
    fn an_empty_run_has_no_epochs() {
        let sim = SimResult::new(SimConfig::tiny().build_mesh(), Vec::new());
        assert!(sim.is_empty());
        assert_eq!(sim.num_epochs(), 0);
    }
}
