//! Multi-step workload for the step-executor benchmark.
//!
//! `benches/exec_pipeline.rs` needs an owned batch of step inputs whose
//! per-rank load is deliberately *skewed*, because sending ahead only
//! pays off when some ranks finish their step early and would otherwise
//! sit idle waiting for the straggler. The scenario is a 1D chain of
//! surface boxes drifting a little each step, with rank 0 owning a
//! configurable fraction of the chain and the remaining ranks splitting
//! the rest evenly.

use cip_contact::{BboxFilter, SurfaceElementInfo};
use cip_geom::{Aabb, Point};
use cip_graph::GraphBuilder;
use cip_runtime::{build_decomposition, Decomposition, StepInput};
use cip_telemetry::Recorder;

/// Owned data for an `n_steps`-step batch (the [`StepInput`]s borrow it).
pub struct BatchScenario {
    /// The fixed decomposition every step of the batch runs under.
    pub decomposition: Decomposition,
    /// Per-step node positions.
    pub positions: Vec<Vec<Point<3>>>,
    /// Per-step surface elements (one box per node, drifting).
    pub elements: Vec<Vec<SurfaceElementInfo<3>>>,
    /// Body id per element (two interleaved bodies → plenty of pairs).
    pub bodies: Vec<u16>,
    /// Per-step broad-phase filters.
    pub filters: Vec<BboxFilter<3>>,
}

/// Builds an `n`-node chain split across `k` ranks for `n_steps` steps,
/// with rank 0 owning `skew` of the nodes (0.0 < `skew` < 1.0; pass
/// `1.0 / k as f64` for an even split) and the other ranks splitting the
/// remainder evenly.
pub fn skewed_chain(n: usize, k: usize, n_steps: usize, skew: f64) -> BatchScenario {
    let mut b = GraphBuilder::new(n, 1);
    for v in 0..n as u32 {
        b.set_vwgt(v, &[1]);
    }
    for v in 0..n as u32 - 1 {
        b.add_edge(v, v + 1, 1);
    }
    let g = b.build();

    let head = ((n as f64 * skew) as usize).clamp(1, n - (k - 1).max(1));
    let rest = n - head;
    let asg: Vec<u32> = (0..n)
        .map(|v| {
            if v < head || k == 1 {
                0
            } else {
                (1 + (v - head) * (k - 1) / rest.max(1)).min(k - 1) as u32
            }
        })
        .collect();
    let owners = asg.clone();
    let nov: Vec<u32> = (0..n as u32).collect();
    let decomposition = build_decomposition(&g, &nov, &asg, &owners, k);

    let bodies: Vec<u16> = (0..n).map(|i| (i % 2) as u16).collect();
    let mut positions = Vec::new();
    let mut elements = Vec::new();
    let mut filters = Vec::new();
    for s in 0..n_steps {
        let drift = s as f64 * 0.07;
        let pos: Vec<Point<3>> = (0..n).map(|i| Point::new([i as f64 + drift, 0.0, 0.0])).collect();
        let els: Vec<SurfaceElementInfo<3>> = (0..n)
            .map(|i| SurfaceElementInfo {
                bbox: Aabb::new(
                    Point::new([i as f64 + drift, 0.0, 0.0]),
                    Point::new([i as f64 + drift + 1.0, 1.0, 1.0]),
                ),
                owner: asg[i],
            })
            .collect();
        let boxes: Vec<(u32, Aabb<3>)> = els.iter().map(|e| (e.owner, e.bbox)).collect();
        filters.push(BboxFilter::from_boxes(&boxes, k));
        positions.push(pos);
        elements.push(els);
    }
    BatchScenario { decomposition, positions, elements, bodies, filters }
}

/// Step inputs borrowing `sc`, all sharing one recorder.
pub fn batch_inputs<'a>(
    sc: &'a BatchScenario,
    rec: &Recorder,
) -> Vec<StepInput<'a, BboxFilter<3>>> {
    (0..sc.positions.len())
        .map(|s| StepInput {
            decomposition: &sc.decomposition,
            positions: &sc.positions[s],
            elements: &sc.elements[s],
            bodies: &sc.bodies,
            filter: &sc.filters[s],
            tolerance: 0.2,
            recorder: rec.clone(),
        })
        .collect()
}
