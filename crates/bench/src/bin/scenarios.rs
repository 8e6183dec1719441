//! Robustness check: does the paper's headline conclusion — ML+RCB needs
//! more total per-step communication once the mesh-to-mesh transfer is
//! counted — survive across workload geometries, or is it an artifact of
//! the head-on strike? Runs the Table-1 comparison on four scenarios.
//!
//! Usage: `cargo run --release -p cip-bench --bin scenarios [--k 25] [--snapshots N]`

use cip_bench::{run_table1_entry, write_json, HarnessArgs};
use cip_telemetry::json_struct;

struct ScenarioRow {
    scenario: String,
    k: usize,
    mcml_fe_comm: f64,
    mcml_n_remote: f64,
    ml_fe_comm: f64,
    ml_m2m: f64,
    ml_n_remote: f64,
    comm_overhead_pct: f64,
    n_remote_overhead_pct: f64,
}

json_struct!(ScenarioRow {
    scenario,
    k,
    mcml_fe_comm,
    mcml_n_remote,
    ml_fe_comm,
    ml_m2m,
    ml_n_remote,
    comm_overhead_pct,
    n_remote_overhead_pct
});

fn main() {
    let args = HarnessArgs::parse(&[25]);
    let k = args.ks[0];
    let snapshots = args.snapshots.unwrap_or(40);

    println!("scenario robustness at k = {k} ({snapshots} snapshots each)\n");
    println!(
        "{:<16} {:>9} {:>9} {:>9} {:>9} {:>9} {:>11} {:>12}",
        "scenario", "MC:FE", "MC:ship", "ML:FE", "ML:m2m", "ML:ship", "comm ovhd", "ship ovhd"
    );

    let mut rows = Vec::new();
    for (name, mut cfg) in [
        ("head_on", cip_sim::head_on()),
        ("offset_strike", cip_sim::offset_strike()),
        ("thick_plates", cip_sim::thick_plates()),
        ("blunt_impactor", cip_sim::blunt_impactor()),
    ] {
        cfg.snapshots = snapshots;
        let sim = cip_sim::run(&cfg);
        let e = run_table1_entry(&sim, k);
        let row = ScenarioRow {
            scenario: name.to_string(),
            k,
            mcml_fe_comm: e.mcml_dt.fe_comm,
            mcml_n_remote: e.mcml_dt.n_remote,
            ml_fe_comm: e.ml_rcb.fe_comm,
            ml_m2m: e.ml_rcb.m2m_comm,
            ml_n_remote: e.ml_rcb.n_remote,
            comm_overhead_pct: 100.0 * e.non_search_overhead(),
            n_remote_overhead_pct: 100.0 * e.n_remote_overhead(),
        };
        println!(
            "{:<16} {:>9.0} {:>9.0} {:>9.0} {:>9.0} {:>9.0} {:>+10.0}% {:>+11.1}%",
            row.scenario,
            row.mcml_fe_comm,
            row.mcml_n_remote,
            row.ml_fe_comm,
            row.ml_m2m,
            row.ml_n_remote,
            row.comm_overhead_pct,
            row.n_remote_overhead_pct
        );
        rows.push(row);
    }

    let all_positive = rows.iter().all(|r| r.comm_overhead_pct > 0.0);
    println!(
        "\nheadline (ML+RCB pays more total communication): {}",
        if all_positive { "holds on every scenario" } else { "VIOLATED on some scenario" }
    );
    write_json("scenarios", &rows);
}
