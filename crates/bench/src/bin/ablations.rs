//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **DT-friendly correction on/off** (§4.2) — effect on NTNodes and
//!    NRemote;
//! 2. **margin-aware splitting index** (§6 future work) vs plain gini —
//!    effect on NRemote;
//! 3. **contact-edge weight** (1 vs the paper's 5) — effect on NRemote and
//!    FEComm;
//! 4. **update policies** (§4.3): fixed partition vs hybrid vs per-step
//!    repartitioning — balance drift vs migration cost.
//!
//! Usage: `cargo run --release -p cip-bench --bin ablations [--scale ...] [--k 25]`

use cip_bench::HarnessArgs;
use cip_core::{
    average_metrics, evaluate_known_contact, evaluate_mcml_dt, DtFriendlyConfig,
    KnownContactConfig, McmlDtConfig, MetricsRow, UpdatePolicy,
};
use cip_dtree::{DtreeConfig, Splitter};
use cip_telemetry::json_struct;

struct AblationRow {
    name: String,
    row: MetricsRow,
}

json_struct!(AblationRow { name, row });

fn print_row(name: &str, r: &MetricsRow) {
    println!(
        "{:<34} {:>9.0} {:>9.0} {:>9.0} {:>9.0} {:>8.3} {:>8.3}",
        name, r.fe_comm, r.nt_nodes, r.n_remote, r.upd_comm, r.imbalance_fe, r.imbalance_contact
    );
}

fn main() {
    let args = HarnessArgs::parse(&[25]);
    let k = args.ks[0];
    let sim = args.run_sim();

    println!("\nAblations at k = {k} (averages over {} snapshots)", sim.len());
    println!(
        "{:<34} {:>9} {:>9} {:>9} {:>9} {:>8} {:>8}",
        "variant", "FEComm", "NTNodes", "NRemote", "UpdComm", "imb FE", "imb C"
    );

    let mut results = Vec::new();
    let mut run = |name: &str, cfg: &McmlDtConfig| {
        let (m, _) = evaluate_mcml_dt(&sim, cfg);
        let row = average_metrics(&m);
        print_row(name, &row);
        results.push(AblationRow { name: name.to_string(), row });
    };

    // 1. DT-friendly on/off.
    run("paper config (friendly, gini)", &McmlDtConfig::paper(k));
    run("no DT-friendly correction", &McmlDtConfig { dt_friendly: None, ..McmlDtConfig::paper(k) });

    // 2. Tight-leaf filter (DESIGN extension in the spirit of §6).
    run("tight-leaf filter", &McmlDtConfig { tight_filter: true, ..McmlDtConfig::paper(k) });

    // 3. Margin-aware splitter (§6, additive tie-break form).
    run(
        "margin-aware splitter (a=0.5)",
        &McmlDtConfig {
            tree: DtreeConfig {
                splitter: Splitter::MarginAware { alpha: 0.5 },
                ..DtreeConfig::search_tree()
            },
            ..McmlDtConfig::paper(k)
        },
    );
    run(
        "margin-aware splitter (a=2.0)",
        &McmlDtConfig {
            tree: DtreeConfig {
                splitter: Splitter::MarginAware { alpha: 2.0 },
                ..DtreeConfig::search_tree()
            },
            ..McmlDtConfig::paper(k)
        },
    );

    // 4. Contact-edge weight.
    run(
        "contact edge weight 1",
        &McmlDtConfig { contact_edge_weight: 1, ..McmlDtConfig::paper(k) },
    );
    run(
        "contact edge weight 20",
        &McmlDtConfig { contact_edge_weight: 20, ..McmlDtConfig::paper(k) },
    );

    // 5. Update policies.
    run(
        "hybrid repartition (period 10)",
        &McmlDtConfig {
            update: UpdatePolicy::Hybrid { period: 10 },
            dt_friendly: Some(DtFriendlyConfig::default()),
            ..McmlDtConfig::paper(k)
        },
    );
    run(
        "per-step repartition",
        &McmlDtConfig { update: UpdatePolicy::Hybrid { period: 1 }, ..McmlDtConfig::paper(k) },
    );

    // 6. The §3 known-contact method (predictable-contact baseline).
    {
        let m = evaluate_known_contact(&sim, &KnownContactConfig::new(k));
        let row = average_metrics(&m);
        print_row("known-contact (virtual edges)", &row);
        results.push(AblationRow { name: "known-contact (virtual edges)".into(), row });
    }

    println!("\nReading guide:");
    println!("  - dropping the DT-friendly step should inflate NTNodes (staircase boundaries);");
    println!("  - the tight-leaf filter and margin-aware splitting should trim NRemote");
    println!("    (fewer false positives) at similar tree size;");
    println!("  - contact edge weight 1 cuts more contact-contact edges -> higher NRemote;");
    println!("  - repartitioning policies keep late-time balance at the cost of UpdComm;");
    println!("  - the known-contact method trades FEComm for co-located contact pairs —");
    println!("    competitive only when the prediction holds (see §3).");
    cip_bench::write_json("ablations", &results);
}
