//! Regenerates **Figure 3**: the stages of the projectile/two-plate
//! simulation. The paper shows four rendered snapshots; we print the
//! per-stage mesh statistics (live elements, contact faces, contact
//! nodes, projectile tip position) plus an ASCII side view of selected
//! snapshots, which conveys the same penetration narrative.
//!
//! Usage: `cargo run --release -p cip-bench --bin figure3 [--scale ...]`

use cip_bench::HarnessArgs;
use cip_core::gather;
use cip_geom::Aabb;
use cip_sim::SimResult;
use cip_telemetry::{json_struct, Recorder};

struct StageRow {
    snapshot: usize,
    step: usize,
    live_elements: usize,
    eroded_elements: usize,
    contact_faces: usize,
    contact_nodes: usize,
    tip_z: f64,
}

json_struct!(StageRow {
    snapshot,
    step,
    live_elements,
    eroded_elements,
    contact_faces,
    contact_nodes,
    tip_z
});

/// ASCII side view (x-z slice near y=0) of one snapshot.
fn side_view(sim: &SimResult, i: usize) -> Vec<String> {
    let snap = &sim.snapshots[i];
    let live_nodes = sim.topology(i, &Recorder::disabled()).node_of_vertex();
    let b = Aabb::from_points(&gather(live_nodes, &snap.points));
    let (w, h) = (48usize, 20usize);
    let mut canvas = vec![vec![' '; w]; h];
    let elements = sim.base.elements.iter().zip(&sim.base.body).zip(&snap.alive);
    for ((el, &body), _) in elements.filter(|&(_, &alive)| alive) {
        let c = el.centroid(&snap.points);
        if c[1].abs() > 2.5 {
            continue; // slice near y = 0
        }
        let col = (((c[0] - b.min[0]) / (b.max[0] - b.min[0]).max(1e-9)) * (w - 1) as f64) as usize;
        let row = (((c[2] - b.min[2]) / (b.max[2] - b.min[2]).max(1e-9)) * (h - 1) as f64) as usize;
        let glyph = match body {
            2 => '#', // projectile
            0 => '=', // top plate
            _ => '-', // bottom plate
        };
        canvas[h - 1 - row][col.min(w - 1)] = glyph;
    }
    canvas.into_iter().map(|r| r.into_iter().collect()).collect()
}

fn main() {
    let args = HarnessArgs::parse(&[]);
    let sim = args.run_sim();

    println!("Figure 3 — stages of the simulation\n");
    println!(
        "{:>8} {:>6} {:>10} {:>8} {:>9} {:>9} {:>8}",
        "snapshot", "step", "live elem", "eroded", "surfaces", "nodes", "tip z"
    );

    let mut rows = Vec::new();
    let total = sim.base.num_elements();
    // Projectile tip: the minimum z over projectile nodes.
    let proj_nodes: Vec<u32> = sim
        .base
        .elements
        .iter()
        .zip(sim.base.body.iter())
        .filter(|(_, &b)| b == 2)
        .flat_map(|(el, _)| el.nodes().iter().copied())
        .collect();

    for (i, snap) in sim.snapshots.iter().enumerate() {
        let live = snap.alive.iter().filter(|&&a| a).count();
        let tip =
            proj_nodes.iter().map(|&n| snap.points[n as usize][2]).fold(f64::INFINITY, f64::min);
        let row = StageRow {
            snapshot: i,
            step: snap.step,
            live_elements: live,
            eroded_elements: total - live,
            contact_faces: snap.contact.num_faces(),
            contact_nodes: snap.contact.num_contact_nodes(),
            tip_z: tip,
        };
        if i % (sim.len() / 10).max(1) == 0 || i + 1 == sim.len() {
            println!(
                "{:>8} {:>6} {:>10} {:>8} {:>9} {:>9} {:>8.2}",
                row.snapshot,
                row.step,
                row.live_elements,
                row.eroded_elements,
                row.contact_faces,
                row.contact_nodes,
                row.tip_z
            );
        }
        rows.push(row);
    }

    // Four stages, like the paper's four panels.
    for stage in [0usize, sim.len() / 3, 2 * sim.len() / 3, sim.len() - 1] {
        println!("\nstage at snapshot {stage} (x-z slice, '#' projectile, '='/'-' plates):");
        for line in side_view(&sim, stage) {
            println!("  {line}");
        }
    }

    cip_bench::write_json("figure3", &rows);
}
