//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics, run length. `BENCHMARK.json` at
//! the repository root is the one place they are written down; it is
//! compiled in and parsed on first use. Later changes name their claims as
//! *metric on workload* from that file.

use crate::json::Json;
use std::sync::OnceLock;

const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Lower => "lower",
            Self::Higher => "higher",
        }
    }
}

/// One metric.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    /// Name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

/// One workload and why it exists.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Name, as passed to `--workload`.
    pub name: String,
    /// Why it was chosen (one line).
    pub why: String,
}

/// `BENCHMARK.json`, parsed.
#[derive(Debug)]
pub struct Spec {
    /// How long one run measures, in seconds.
    pub run_seconds: f64,
    /// Every workload, in the order `run` executes them.
    pub workloads: Vec<WorkloadSpec>,
    /// End-to-end metrics: every workload reports every one of them.
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics (layer = module name). A workload reports 0 for a
    /// layer it does not exercise. A run's samples of a timing (`ms`, `us`)
    /// are reduced to their median; counts and ratios to the mean over the
    /// one cycle they are taken from.
    pub per_layer: Vec<MetricSpec>,
}

fn parse(text: &str) -> Option<Spec> {
    let doc = Json::parse(text).ok()?;
    let text_of = |j: &Json, key: &str| Some(j.get(key)?.as_str()?.to_string());
    let metrics = |key: &str| {
        doc.get(key)?
            .as_arr()?
            .iter()
            .map(|m| {
                let better = match m.get("better")?.as_str()? {
                    "lower" => Better::Lower,
                    "higher" => Better::Higher,
                    _ => return None,
                };
                Some(MetricSpec {
                    name: text_of(m, "name")?,
                    unit: text_of(m, "unit")?,
                    better,
                    bound: m.get("bound").and_then(Json::as_f64),
                })
            })
            .collect::<Option<Vec<_>>>()
    };
    let workloads = doc
        .get("workloads")?
        .as_arr()?
        .iter()
        .map(|w| Some(WorkloadSpec { name: text_of(w, "name")?, why: text_of(w, "why")? }));
    Some(Spec {
        run_seconds: doc.get("run_seconds")?.as_f64()?,
        workloads: workloads.collect::<Option<_>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// The tables of `BENCHMARK.json`.
pub fn get() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| parse(BENCHMARK_JSON).expect("BENCHMARK.json holds the contract's keys"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn benchmark_json_meets_the_contract() {
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
        let spec = get();
        let mut seen = std::collections::BTreeSet::new();
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(name_ok(&m.name), "bad metric name {}", m.name);
            assert!(unit_ok(&m.unit), "bad unit {} of {}", m.unit, m.name);
            assert!(seen.insert(&m.name), "{} is used twice", m.name);
        }
        for w in &spec.workloads {
            assert!(name_ok(&w.name), "bad workload name {}", w.name);
            assert!(seen.insert(&w.name), "{} is used twice", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "why of {}", w.name);
            assert!(crate::workloads::lookup(&w.name).is_some(), "{} has no code", w.name);
        }
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        let setup = spec.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(spec.end_to_end.iter().all(|m| setup.bound >= m.bound), "setup_s: largest bound");
        assert!((1.0..=60.0).contains(&spec.run_seconds) && spec.run_seconds.fract() == 0.0);

        let doc = Json::parse(BENCHMARK_JSON).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        let command = doc.get("command").and_then(Json::as_arr).unwrap();
        assert!(command.len() <= 32 && command.iter().all(|c| c.as_str().unwrap().len() <= 200));
    }
}
