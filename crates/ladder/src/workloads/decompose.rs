//! `decompose_medium`: one full MCML+DT decomposition per operation.

use super::{judge_decomposition, mcml_dt, medium_sim_config, probe_layers, CONTACT_EDGE_WEIGHT};
use crate::harness::Ctx;
use crate::rng::fork;
use cip_core::SnapshotView;

/// Partitioner seeds per cycle; quality counts are means over these.
const SEEDS_PER_CYCLE: u64 = 8;

/// Runs the workload.
pub fn run(ctx: &mut Ctx) {
    let k = if ctx.smoke { 4 } else { 25 };
    let cfg = medium_sim_config(ctx.smoke);
    let warmup_seed = fork(ctx.seed, u64::MAX);
    let sim = ctx.setup(|ctx| {
        let sim = ctx.time("sim.run", || cip_sim::run(&cfg));
        ctx.tracer.begin("setup.warmup");
        let view = SnapshotView::build(&sim, 0, CONTACT_EDGE_WEIGHT);
        mcml_dt(ctx, &view, k, warmup_seed);
        ctx.tracer.end();
        sim
    });
    ctx.param("k", k);
    ctx.param("mesh_nodes", sim.base.num_nodes());
    ctx.param("contact_points", sim.snapshots[0].contact.num_contact_nodes());
    ctx.param("sim_snapshots", sim.len());
    ctx.param("seeds_per_cycle", SEEDS_PER_CYCLE);

    while ctx.next_cycle() {
        for i in 0..SEEDS_PER_CYCLE {
            let pseed = fork(ctx.seed, i);
            let (view, dec) = ctx.op(|ctx| {
                let view = ctx
                    .time("mesh.view_build", || SnapshotView::build(&sim, 0, CONTACT_EDGE_WEIGHT));
                let dec = mcml_dt(ctx, &view, k, pseed);
                (view, dec)
            });
            let judge_balance = !ctx.smoke; // a few hundred nodes cannot balance to 5 %
            judge_decomposition(ctx, &view, k, &dec, judge_balance);
            if i == 0 {
                probe_layers(ctx, &sim, &view, &dec, k, pseed);
            }
        }
    }
}
