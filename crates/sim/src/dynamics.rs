//! Kinematic penetration dynamics.
//!
//! Per time step:
//!
//! 1. the projectile translates rigidly by `speed` in -z;
//! 2. plate elements whose centroid lies inside the projectile's footprint
//!    and above the current tip are **eroded** (the projectile bores a
//!    square channel, first through the top plate, then the bottom one —
//!    the footprint's elements are listed once per run in descending
//!    centroid z, so a step erodes a prefix of that list);
//! 3. plate nodes near the channel are displaced by a smooth analytic
//!    field (radial push-out plus downward dishing) evaluated from the
//!    rest configuration, so positions never accumulate drift;
//! 4. at snapshot steps, the boundary surface of the live mesh (one scan
//!    of the base mesh's facet index per erosion event) is clipped to the
//!    interaction region, yielding the contact surface.
//!
//! The physics is deliberately kinematic: the paper's metrics are
//! decomposition properties (communication counts), which depend on the
//! *geometry and evolution* of the contact set, not on stresses.

use crate::geometry::{SimConfig, BODY_PROJECTILE};
use crate::snapshot::{SimResult, Snapshot};
use cip_geom::{Aabb, Point};
use cip_mesh::{FacetIndex, Surface};

/// Runs the simulation defined by `cfg`, producing `cfg.snapshots`
/// snapshots.
pub fn run(cfg: &SimConfig) -> SimResult {
    let base = cfg.build_mesh();

    let mut is_proj_node = vec![false; base.num_nodes()];
    for (e, el) in base.elements.iter().enumerate() {
        if base.body[e] == BODY_PROJECTILE {
            for &n in el.nodes() {
                is_proj_node[n as usize] = true;
            }
        }
    }

    let hw = cfg.proj_half_width();
    let erosion_hw = hw + 0.25 * cfg.cell; // slight over-bore, as in erosion codes

    // Only live plate elements whose rest centroid lies in the (static)
    // bore footprint can ever erode, and one erodes once the tip is at or
    // below its centroid. Listed once, highest centroid first: the tip only
    // descends, so every step erodes a prefix of what is left of the list.
    let mut bore: Vec<(f64, usize)> = (0..base.num_elements())
        .filter(|&e| base.alive[e] && base.body[e] != BODY_PROJECTILE)
        .map(|e| (base.element_centroid(e as u32), e))
        .filter(|(c, _)| {
            (c[0] - cfg.impact_offset[0]).abs() <= erosion_hw
                && (c[1] - cfg.impact_offset[1]).abs() <= erosion_hw
        })
        .map(|(c, e)| (c[2], e))
        .collect();
    bore.sort_by(|a, b| b.0.total_cmp(&a.0));
    let mut bored = 0;

    // Only the live mask evolves (the boundary surface does not depend on
    // positions), so the facets are sorted once, here.
    let facets = FacetIndex::build(&base);
    let mut alive = base.alive.clone();
    // Boundary surface of the current topology epoch: rescanned at the
    // epoch's first snapshot, dropped when an element erodes.
    let mut boundary: Option<Surface> = None;

    let snapshot_steps: Vec<usize> =
        (0..cfg.snapshots).map(|s| ((s + 1) * cfg.steps) / cfg.snapshots).collect();

    let mut snapshots = Vec::with_capacity(cfg.snapshots);
    let mut next_snap = 0usize;

    for step in 1..=cfg.steps {
        let drop = cfg.speed * step as f64;
        let tip_z = cfg.standoff - drop;

        // Erode the bore elements the tip has reached.
        while let Some(&(_, e)) = bore.get(bored).filter(|&&(z, _)| z >= tip_z) {
            alive[e] = false;
            boundary = None;
            bored += 1;
        }

        while next_snap < snapshot_steps.len() && snapshot_steps[next_snap] == step {
            let points = deformed_points(cfg, &base.points, &is_proj_node, drop, tip_z, hw);
            let boundary = boundary.get_or_insert_with(|| facets.boundary(&alive));
            let contact = contact_surface(cfg, boundary, &points);
            snapshots.push(Snapshot { step, points, alive: alive.clone(), contact });
            next_snap += 1;
        }
    }

    SimResult::new(base, snapshots)
}

/// Evaluates the deformed node positions at a given projectile drop.
fn deformed_points(
    cfg: &SimConfig,
    rest: &[Point<3>],
    is_proj_node: &[bool],
    drop: f64,
    tip_z: f64,
    hw: f64,
) -> Vec<Point<3>> {
    let range = 3.0 * cfg.cell; // deformation halo width
    let amp = cfg.deform_amp * cfg.cell;
    rest.iter()
        .enumerate()
        .map(|(n, p)| {
            if is_proj_node[n] {
                // Rigid projectile translation.
                let mut q = *p;
                q[2] -= drop;
                return q;
            }
            // Chebyshev distance from the channel wall in the xy plane.
            let r = (p[0] - cfg.impact_offset[0]).abs().max((p[1] - cfg.impact_offset[1]).abs());
            let wall_dist = r - hw;
            if wall_dist < 0.0 || wall_dist > range {
                return *p;
            }
            // Depth factor: material near or above the tip is pushed; far
            // below the tip the plate is still undisturbed.
            let depth = ((p[2] - tip_z) / (2.0 * cfg.cell) + 1.0).clamp(0.0, 1.0);
            let falloff = 1.0 - wall_dist / range;
            let push = amp * falloff * depth;
            let mut q = *p;
            // Radial push-out from the impact axis.
            let scale = if r > 1e-12 { push / r } else { 0.0 };
            q[0] += (p[0] - cfg.impact_offset[0]) * scale;
            q[1] += (p[1] - cfg.impact_offset[1]) * scale;
            // Downward dishing.
            q[2] -= 0.5 * push;
            q
        })
        .collect()
}

/// Clips a boundary surface to the contact surface at the node positions
/// `points`: the faces of `boundary` whose centroid lies inside the
/// interaction region (a vertical prism around the projectile channel,
/// `interaction_factor` times the projectile half-width, covering every
/// z), plus the projectile's own surface.
///
/// The boundary surface changes only when an element erodes; the clip
/// follows the moving nodes and is re-applied at every snapshot.
pub fn contact_surface(cfg: &SimConfig, boundary: &Surface, points: &[Point<3>]) -> Surface {
    let hw = cfg.proj_half_width();
    // The interaction prism never extends onto the plates' outer lateral
    // rims (those faces cannot contact anything), mirroring how contact
    // codes mark slide surfaces.
    let plate_half = 0.5 * cfg.plate_cells[0] as f64 * cfg.cell;
    let margin = (cfg.interaction_factor * hw).min(plate_half - 0.5 * cfg.cell);
    let [ox, oy] = cfg.impact_offset;
    // Clamp the (offset) region inside the plates so the rims stay out.
    let lo_x = (ox - margin).max(-plate_half + 0.5 * cfg.cell);
    let hi_x = (ox + margin).min(plate_half - 0.5 * cfg.cell);
    let lo_y = (oy - margin).max(-plate_half + 0.5 * cfg.cell);
    let hi_y = (oy + margin).min(plate_half - 0.5 * cfg.cell);
    let region = Aabb::new(
        Point::new([lo_x, lo_y, f64::NEG_INFINITY]),
        Point::new([hi_x, hi_y, f64::INFINITY]),
    );
    let faces = boundary
        .faces
        .iter()
        .filter(|sf| {
            let nodes = sf.face.nodes();
            let mut c = Point::origin();
            for &n in nodes {
                c = c.add(&points[n as usize]);
            }
            let c = c.scale(1.0 / nodes.len() as f64);
            region.contains_point(&c)
        })
        .copied()
        .collect();
    Surface::from_faces(faces, points.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{BODY_PLATE_BOTTOM, BODY_PLATE_TOP};

    #[test]
    fn run_produces_requested_snapshots() {
        let cfg = SimConfig::tiny();
        let result = run(&cfg);
        assert_eq!(result.len(), cfg.snapshots);
        // Steps strictly increase.
        for w in result.snapshots.windows(2) {
            assert!(w[0].step < w[1].step);
        }
    }

    #[test]
    fn projectile_descends_monotonically() {
        let cfg = SimConfig::tiny();
        let result = run(&cfg);
        let proj_node = result
            .base
            .elements
            .iter()
            .zip(result.base.body.iter())
            .find(|(_, &b)| b == BODY_PROJECTILE)
            .map(|(el, _)| el.nodes()[0])
            .unwrap();
        let mut last = f64::INFINITY;
        for s in &result.snapshots {
            let z = s.points[proj_node as usize][2];
            assert!(z < last);
            last = z;
        }
    }

    #[test]
    fn erosion_progresses_through_both_plates() {
        let cfg = SimConfig::tiny();
        let result = run(&cfg);
        let first = &result.snapshots[0];
        let last = result.snapshots.last().unwrap();
        let dead = |snap: &Snapshot, body: u16| {
            result
                .base
                .body
                .iter()
                .enumerate()
                .filter(|&(e, &b)| b == body && !snap.alive[e])
                .count()
        };
        // By the end, both plates must have lost elements.
        assert!(dead(last, BODY_PLATE_TOP) > 0, "top plate never penetrated");
        assert!(dead(last, BODY_PLATE_BOTTOM) > 0, "bottom plate never penetrated");
        // Erosion is monotone: the last snapshot has at least as many dead
        // elements as the first.
        assert!(dead(last, BODY_PLATE_TOP) >= dead(first, BODY_PLATE_TOP));
        // The projectile is never eroded.
        for (e, &b) in result.base.body.iter().enumerate() {
            if b == BODY_PROJECTILE {
                assert!(last.alive[e]);
            }
        }
    }

    #[test]
    fn contact_surface_grows_as_craters_open() {
        let cfg = SimConfig::tiny();
        let result = run(&cfg);
        let early = result.snapshots.first().unwrap().contact.num_faces();
        let peak = result.snapshots.iter().map(|s| s.contact.num_faces()).max().unwrap();
        assert!(peak > early, "crater walls must add contact faces (early {early}, peak {peak})");
        // Every snapshot has a non-empty contact set.
        for s in &result.snapshots {
            assert!(s.contact.num_faces() > 0);
            assert!(s.contact.num_contact_nodes() > 0);
        }
    }

    #[test]
    fn deformation_is_bounded_and_leaves_far_field_at_rest() {
        let cfg = SimConfig::tiny();
        let result = run(&cfg);
        let rest = result.base.points.clone();
        let hw = cfg.proj_half_width();
        let bound = cfg.deform_amp * cfg.cell + 1e-9;
        for s in &result.snapshots {
            for (n, p) in s.points.iter().enumerate() {
                if result.base.points[n][2] > 0.5 {
                    continue; // projectile node (starts above plates)
                }
                let disp = p.sub(&rest[n]);
                assert!(disp.norm2().sqrt() <= 1.5 * bound, "node {n} moved too far");
                let r = rest[n][0].abs().max(rest[n][1].abs());
                if r > hw + 3.0 * cfg.cell + 1e-9 {
                    assert_eq!(disp.norm2(), 0.0, "far-field node {n} moved");
                }
            }
        }
    }

    #[test]
    fn offset_impact_erodes_off_center() {
        let mut cfg = SimConfig::tiny();
        cfg.impact_offset = [2.0, 1.0];
        let result = run(&cfg);
        let last = result.snapshots.last().unwrap();
        // Dead plate elements must cluster around the offset axis.
        let mut cx = 0.0;
        let mut cy = 0.0;
        let mut count = 0.0;
        for (e, &alive) in last.alive.iter().enumerate() {
            if !alive {
                let c = result.base.element_centroid(e as u32);
                cx += c[0];
                cy += c[1];
                count += 1.0;
            }
        }
        assert!(count > 0.0, "offset impact must still erode");
        assert!((cx / count - 2.0).abs() < 1.0, "crater x center {}", cx / count);
        assert!((cy / count - 1.0).abs() < 1.0, "crater y center {}", cy / count);
        // The whole pipeline still works on the asymmetric sequence.
        for s in &result.snapshots {
            assert!(s.contact.num_faces() > 0);
        }
    }

    #[test]
    fn meshes_at_snapshots_validate() {
        let cfg = SimConfig::tiny();
        let result = run(&cfg);
        for i in [0, result.len() / 2, result.len() - 1] {
            result.mesh_at(i).validate().unwrap();
        }
    }

    #[test]
    fn deformation_never_inverts_elements() {
        let cfg = SimConfig::tiny();
        let result = run(&cfg);
        for i in [0, result.len() / 2, result.len() - 1] {
            let mesh = result.mesh_at(i);
            let report = cip_mesh::quality_report(&mesh);
            assert_eq!(report.inverted, 0, "snapshot {i} has inverted elements");
            assert!(report.min_measure > 0.0);
            assert!(report.max_aspect < 5.0, "snapshot {i} aspect {}", report.max_aspect);
        }
    }
}
