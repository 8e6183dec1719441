//! A `--smoke` pass of every workload (the `tiny` scenario, a 10×10×2-plate
//! mesh), untraced and traced: every check passes, and what is printed is
//! exactly what `BENCHMARK.json` lists.

use cip_ladder::harness::{run_workload, RunArgs};
use cip_ladder::json::Json;
use cip_ladder::spec::{self, MetricSpec};

fn smoke(workload: &str, trace: bool) -> Json {
    let args =
        RunArgs { workload: workload.to_string(), seed: 7, seconds: 0.0, trace, smoke: true };
    let report = run_workload(&args).expect("known workload");
    assert_eq!(report.checks.failed, 0, "{workload}: {:?}", report.checks.messages);
    assert!(report.checks.attempted >= 1);
    // The contract line parses back and holds exactly the four keys.
    let line = report.contract_line();
    assert!(!line.contains('\n'));
    let doc = Json::parse(&line).expect("contract line is JSON");
    let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    // The full document round-trips too.
    assert_eq!(Json::parse(&report.document().pretty()).unwrap(), report.document());
    doc
}

/// Printed metrics are the listed metrics, both ways, with the listed units.
fn assert_metrics_match(doc: &Json, listed: &[MetricSpec], what: &str) {
    let printed = doc.get("metrics").and_then(Json::as_obj).unwrap();
    let names: Vec<&str> = printed.iter().map(|(k, _)| k.as_str()).collect();
    let expected: Vec<&str> = listed.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(names, expected, "{what}");
    for ((name, value), spec) in printed.iter().zip(listed) {
        assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        assert_eq!(
            value.get("unit").and_then(Json::as_str),
            Some(spec.unit.as_str()),
            "{what}: {name}"
        );
        let v = value.get("value").and_then(Json::as_f64).unwrap();
        // (`server.overhead_ms` is a difference of two medians: it may dip below 0.)
        assert!(v.is_finite(), "{what}: {name} = {v}");
    }
}

#[test]
fn every_workload_passes_its_checks_and_prints_every_end_to_end_metric() {
    for w in &spec::get().workloads {
        let doc = smoke(&w.name, false);
        assert_metrics_match(&doc, &spec::get().end_to_end, &w.name);
        for (name, value) in doc.get("metrics").and_then(Json::as_obj).unwrap() {
            let v = value.get("value").and_then(Json::as_f64).unwrap();
            assert!(v > 0.0, "{}: end-to-end metric {name} must never be 0", w.name);
        }
    }
}

#[test]
fn traced_runs_print_every_per_layer_metric_and_account_for_the_wall_clock() {
    let docs: Vec<(&str, Json)> =
        spec::get().workloads.iter().map(|w| (w.name.as_str(), smoke(&w.name, true))).collect();
    let value = |workload: &str, name: &str| {
        let (_, doc) = docs.iter().find(|(w, _)| *w == workload).unwrap();
        doc.get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
    };
    for (workload, doc) in &docs {
        assert_metrics_match(doc, &spec::get().per_layer, workload);
        assert!(value(workload, "harness.trace_overhead_ratio").unwrap() > 0.0, "{workload}");
        assert_eq!(value(workload, "harness.fail_ratio"), Some(0.0), "{workload}");
    }
    // Each layer is measured where the workload table says it works, and
    // reads 0 where it does nothing.
    assert!(value("decompose_medium", "partition.kway_ms").unwrap() > 0.0);
    assert!(value("decompose_medium", "partition.coarsen_ms").unwrap() > 0.0);
    assert_eq!(value("decompose_medium", "server.cache_hits"), Some(0.0));
    assert_eq!(value("serve_hit", "partition.kway_ms"), Some(0.0));
    assert!(value("serve_hit", "server.cache_hits").unwrap() > 0.0);
    assert!(value("trace_tcp", "transport.wire_tax").unwrap() > 0.0);
    assert_eq!(value("trace_inproc", "transport.wire_tax"), Some(0.0));
}

#[test]
fn the_seed_decides_the_inputs_and_the_counts() {
    let counts = |seed: u64| {
        let args = RunArgs {
            workload: "decompose_medium".into(),
            seed,
            seconds: 0.0,
            trace: false,
            smoke: true,
        };
        let report = run_workload(&args).unwrap();
        let get = |name: &str| report.metrics.iter().find(|m| m.spec.name == name).unwrap().value;
        (get("fe_comm"), get("n_remote"))
    };
    assert_eq!(counts(3), counts(3), "same seed, same counts");
    assert_ne!(counts(3), counts(4), "another seed, other partitioner seeds");
    assert!(run_workload(&RunArgs {
        workload: "no_such_workload".into(),
        seed: 1,
        seconds: 0.0,
        trace: false,
        smoke: true
    })
    .is_err());
}
