//! Problem geometry and configuration.

use cip_geom::Point;
use cip_mesh::{generators, Mesh};

/// Body ids used by the simulation.
pub const BODY_PLATE_TOP: u16 = 0;
/// The lower plate.
pub const BODY_PLATE_BOTTOM: u16 = 1;
/// The projectile.
pub const BODY_PROJECTILE: u16 = 2;

/// Configuration of the projectile/two-plate problem.
///
/// All lengths are in cell units of the plate mesh. The coordinate system
/// is: plates horizontal (normal to z), centered on the z axis; the
/// projectile starts above the top plate and travels in -z.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Plate discretization: cells in x, y, z (thickness).
    pub plate_cells: [usize; 3],
    /// Edge length of a plate cell.
    pub cell: f64,
    /// Clear gap between the two plates.
    pub plate_gap: f64,
    /// Projectile discretization (square cross-section rod): cells in
    /// x, y, z.
    pub proj_cells: [usize; 3],
    /// Initial clearance between projectile tip and the top plate.
    pub standoff: f64,
    /// Projectile advance per time step.
    pub speed: f64,
    /// Number of time steps to simulate.
    pub steps: usize,
    /// Number of snapshots to emit (evenly spaced over the steps).
    pub snapshots: usize,
    /// Half-width of the interaction region, as a multiple of the
    /// projectile half-width (clamped to the plate interior — the outer
    /// lateral rims are never contact surface); boundary faces inside it
    /// are the *contact surface* handed to the partitioner. Large values
    /// mark the entire plate surfaces as slide surfaces, as EPIC-style
    /// penetration setups do.
    pub interaction_factor: f64,
    /// Amplitude of the crater deformation field (fraction of a cell).
    pub deform_amp: f64,
    /// Horizontal (x, y) offset of the projectile axis from the plate
    /// center — an off-center impact breaks the problem's symmetry, which
    /// stresses the incremental-RCB and tree-update paths harder.
    pub impact_offset: [f64; 2],
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::small()
    }
}

impl SimConfig {
    /// Test-sized problem (11,785 nodes, 8,352 elements): runs the full
    /// 100-snapshot pipeline in seconds.
    pub fn small() -> Self {
        Self {
            plate_cells: [36, 36, 3],
            cell: 1.0,
            plate_gap: 4.0,
            proj_cells: [6, 6, 16],
            standoff: 1.0,
            speed: 0.0, // derived in `normalized`
            steps: 360,
            snapshots: 100,
            interaction_factor: 5.0,
            deform_amp: 0.35,
            impact_offset: [0.0, 0.0],
        }
        .normalized()
    }

    /// Tiny problem for unit tests (a few hundred nodes, 10 snapshots).
    pub fn tiny() -> Self {
        Self {
            plate_cells: [10, 10, 2],
            cell: 1.0,
            plate_gap: 3.0,
            proj_cells: [2, 2, 6],
            standoff: 1.0,
            speed: 0.0,
            steps: 60,
            snapshots: 10,
            interaction_factor: 3.0,
            deform_amp: 0.35,
            impact_offset: [0.0, 0.0],
        }
        .normalized()
    }

    /// Benchmark-sized problem (44,275 nodes, 34,304 elements) — big
    /// enough for the Table-1 comparison shapes to be stable, small enough
    /// to run in minutes.
    pub fn medium() -> Self {
        Self {
            plate_cells: [64, 64, 4],
            cell: 1.0,
            plate_gap: 5.0,
            proj_cells: [8, 8, 24],
            standoff: 1.0,
            speed: 0.0,
            steps: 500,
            snapshots: 100,
            interaction_factor: 6.0,
            deform_amp: 0.35,
            impact_offset: [0.0, 0.0],
        }
        .normalized()
    }

    /// Paper-scale problem (116,659 nodes and 95,160 elements in the hex
    /// discretization; the paper's tetrahedral mesh has more elements per
    /// node, so element counts are not directly comparable).
    pub fn paper_scale() -> Self {
        Self { plate_cells: [96, 96, 5], proj_cells: [10, 10, 30], ..Self::medium() }.normalized()
    }

    /// If `speed` was left at 0, derive it so the projectile traverses both
    /// plates (plus gap and standoff) over the configured steps.
    pub fn normalized(mut self) -> Self {
        if self.speed <= 0.0 {
            let travel = self.standoff
                + 2.0 * self.plate_cells[2] as f64 * self.cell
                + self.plate_gap
                + 2.0 * self.cell;
            self.speed = travel / self.steps as f64;
        }
        self
    }

    /// Projectile half-width (x/y), in length units.
    pub fn proj_half_width(&self) -> f64 {
        0.5 * self.proj_cells[0] as f64 * self.cell
    }

    /// Builds the initial three-body mesh. The returned mesh is the rest
    /// configuration at step 0.
    pub fn build_mesh(&self) -> Mesh<3> {
        let [px, py, pz] = self.plate_cells;
        let c = self.cell;
        let plate_w = px as f64 * c;
        let plate_d = py as f64 * c;
        let thickness = pz as f64 * c;

        // Top plate occupies z in [-thickness, 0], centered in x/y.
        let mut mesh = generators::hex_box(
            [px, py, pz],
            Point::new([-plate_w / 2.0, -plate_d / 2.0, -thickness]),
            [c, c, c],
            BODY_PLATE_TOP,
        );
        // Bottom plate below the gap.
        let bottom = generators::hex_box(
            [px, py, pz],
            Point::new([-plate_w / 2.0, -plate_d / 2.0, -2.0 * thickness - self.plate_gap]),
            [c, c, c],
            BODY_PLATE_BOTTOM,
        );
        mesh.append(&bottom);
        // Projectile: square rod, tip at z = standoff, axis at the
        // (possibly offset) impact point.
        let [qx, qy, qz] = self.proj_cells;
        let proj = generators::hex_box(
            [qx, qy, qz],
            Point::new([
                self.impact_offset[0] - (qx as f64) * c / 2.0,
                self.impact_offset[1] - (qy as f64) * c / 2.0,
                self.standoff,
            ]),
            [c, c, c],
            BODY_PROJECTILE,
        );
        mesh.append(&proj);
        mesh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_mesh_has_three_bodies() {
        let cfg = SimConfig::small();
        let mesh = cfg.build_mesh();
        mesh.validate().unwrap();
        let bodies: std::collections::HashSet<u16> = mesh.body.iter().copied().collect();
        assert_eq!(bodies.len(), 3);
    }

    #[test]
    fn projectile_starts_above_top_plate() {
        let cfg = SimConfig::tiny();
        let mesh = cfg.build_mesh();
        let proj_min_z = mesh
            .elements
            .iter()
            .zip(mesh.body.iter())
            .filter(|(_, &b)| b == BODY_PROJECTILE)
            .flat_map(|(el, _)| el.nodes().iter())
            .map(|&n| mesh.points[n as usize][2])
            .fold(f64::INFINITY, f64::min);
        assert!(proj_min_z >= cfg.standoff - 1e-9);
        // Plates are entirely at z <= 0.
        let plate_max_z = mesh
            .elements
            .iter()
            .zip(mesh.body.iter())
            .filter(|(_, &b)| b != BODY_PROJECTILE)
            .flat_map(|(el, _)| el.nodes().iter())
            .map(|&n| mesh.points[n as usize][2])
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(plate_max_z <= 1e-9);
    }

    #[test]
    fn normalized_speed_covers_travel() {
        let cfg = SimConfig::tiny();
        let travel = cfg.speed * cfg.steps as f64;
        // Must at least traverse both plates and the gap.
        let needed = cfg.standoff + 2.0 * cfg.plate_cells[2] as f64 * cfg.cell + cfg.plate_gap;
        assert!(travel >= needed);
    }

    #[test]
    fn paper_scale_is_larger_than_medium() {
        let m = SimConfig::medium().build_mesh();
        let p = SimConfig::paper_scale().build_mesh();
        assert!(p.num_nodes() > m.num_nodes());
        assert!(p.num_nodes() > 100_000, "paper scale has {} nodes", p.num_nodes());
    }
}
