//! Comparing two `run` documents with the bounds they carry.
//!
//! A metric *regressed* when B's value is worse than A's by more than the
//! metric's bound. Where a side's own repeats spread wider than the bound
//! the difference cannot be told from noise, and the verdict is
//! *unresolved*, not "unchanged".

use crate::json::Json;
use crate::stats::quartile_spread;

/// What the comparison concluded for one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Better by more than the bound.
    Improved,
    /// Worse by more than the bound.
    Regression,
    /// Run-to-run spread exceeds the bound.
    Unresolved,
}

/// One compared (workload, metric) pair.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name (`correctness` for the failed-check ratio).
    pub metric: String,
    /// A's value.
    pub a: f64,
    /// B's value.
    pub b: f64,
    /// By how much B is worse, as a share of A (negative = better).
    pub worse_by: f64,
    /// The bound applied.
    pub bound: f64,
    /// Whether the metric is a count (must repeat exactly on one build).
    pub is_count: bool,
    /// The conclusion.
    pub verdict: Verdict,
}

fn num(j: &Json, key: &str) -> Option<f64> {
    j.get(key).and_then(Json::as_f64)
}

fn spread_of(metric: &Json) -> Option<f64> {
    let samples: Vec<f64> =
        metric.get("samples")?.as_arr()?.iter().filter_map(Json::as_f64).collect();
    quartile_spread(&samples)
}

fn fail_ratio(workload: &Json) -> f64 {
    num(workload, "failed").unwrap_or(0.0) / num(workload, "attempted").unwrap_or(1.0).max(1.0)
}

/// Compares every bounded metric of every workload both documents hold.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let workloads = |doc: &Json| {
        doc.get("workloads")
            .and_then(Json::as_obj)
            .map(<[_]>::to_vec)
            .ok_or("no 'workloads' object")
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    // Stand-in dependencies run the partitioner single-threaded, over another
    // generator and another channel: not the same program.
    let deps = |doc: &Json| doc.get("environment")?.get("deps")?.as_str().map(str::to_string);
    let (da, db) = (deps(a), deps(b));
    if da != db {
        let name = |d: Option<String>| d.unwrap_or_else(|| "unstated".to_string());
        return Err(format!(
            "A was measured with {} dependencies, B with {}: not comparable",
            name(da),
            name(db)
        ));
    }
    let mut rows = Vec::new();
    for (name, a_wl) in &wa {
        let Some((_, b_wl)) = wb.iter().find(|(n, _)| n == name) else { continue };
        // Failures may not rise at all.
        let (fa, fb) = (fail_ratio(a_wl), fail_ratio(b_wl));
        rows.push(Row {
            workload: name.clone(),
            metric: "correctness".to_string(),
            a: fa,
            b: fb,
            worse_by: fb - fa,
            bound: 0.0,
            is_count: true,
            verdict: if fb > fa { Verdict::Regression } else { Verdict::Ok },
        });
        let metrics = a_wl.get("metrics").and_then(Json::as_obj).unwrap_or(&[]);
        for (metric, a_m) in metrics {
            let Some(b_m) = b_wl.get("metrics").and_then(|m| m.get(metric)) else { continue };
            let (Some(av), Some(bv), Some(bound)) =
                (num(a_m, "value"), num(b_m, "value"), num(a_m, "bound"))
            else {
                continue;
            };
            let lower = a_m.get("better").and_then(Json::as_str) != Some("higher");
            let worse_by = if av == 0.0 {
                0.0
            } else if lower {
                (bv - av) / av.abs()
            } else {
                (av - bv) / av.abs()
            };
            let spread = spread_of(a_m).into_iter().chain(spread_of(b_m)).fold(0.0, f64::max);
            let verdict = if spread > bound {
                Verdict::Unresolved
            } else if worse_by > bound {
                Verdict::Regression
            } else if worse_by < -bound {
                Verdict::Improved
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload: name.clone(),
                metric: metric.clone(),
                a: av,
                b: bv,
                worse_by,
                bound,
                is_count: a_m.get("unit").and_then(Json::as_str) == Some("count"),
                verdict,
            });
        }
    }
    if rows.is_empty() {
        return Err("the documents share no workload".to_string());
    }
    Ok(rows)
}

/// Whether any row regressed.
pub fn regressed(rows: &[Row]) -> bool {
    rows.iter().any(|r| r.verdict == Verdict::Regression)
}

/// A/A agreement of two runs of one build: every metric within its bound
/// in *both* directions, counts identical, no failures. Returns what
/// disagrees.
pub fn disagreements(rows: &[Row]) -> Vec<String> {
    rows.iter()
        .filter(|r| if r.is_count { r.a != r.b } else { r.worse_by.abs() > r.bound })
        .map(|r| format!("{} on {}: {} vs {}", r.metric, r.workload, r.a, r.b))
        .collect()
}

/// The rows as an aligned text table.
pub fn render(rows: &[Row]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    writeln!(
        out,
        "{:<20} {:<14} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    )
    .expect("writing to a String");
    for r in rows {
        writeln!(
            out,
            "{:<20} {:<14} {:>14.4} {:>14.4} {:>8.2}% {:>5.0}%  {:?}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.bound * 100.0,
            r.verdict
        )
        .expect("writing to a String");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(op_ms: &[f64], per_s: f64, fe_comm: f64, failed: u64) -> Json {
        let metric = |samples: &[f64], unit: &str, better: &str, bound: f64| {
            Json::obj([
                ("value", Json::from(crate::stats::median(samples))),
                ("unit", unit.into()),
                ("better", better.into()),
                ("bound", bound.into()),
                ("samples", Json::Arr(samples.iter().map(|&v| v.into()).collect())),
            ])
        };
        let wl = Json::obj([
            ("attempted", Json::from(100u64)),
            ("failed", failed.into()),
            (
                "metrics",
                Json::obj([
                    ("op_best_ms", metric(op_ms, "ms", "lower", 0.10)),
                    ("jobs_per_s", metric(&[per_s], "1/s", "higher", 0.10)),
                    ("fe_comm", metric(&[fe_comm], "count", "lower", 0.03)),
                ]),
            ),
        ]);
        Json::obj([("workloads", Json::obj([("decompose_medium", wl)]))])
    }

    fn verdict_of(rows: &[Row], metric: &str) -> Verdict {
        rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn flags_an_11_percent_regression_and_passes_a_5_percent_one() {
        let base = doc(&[100.0], 50.0, 1000.0, 0);
        let rows = compare(&base, &doc(&[111.0], 50.0, 1000.0, 0)).unwrap();
        assert_eq!(verdict_of(&rows, "op_best_ms"), Verdict::Regression);
        assert!(regressed(&rows));

        let rows = compare(&base, &doc(&[105.0], 50.0, 1000.0, 0)).unwrap();
        assert_eq!(verdict_of(&rows, "op_best_ms"), Verdict::Ok);
        assert!(!regressed(&rows));
        assert!(disagreements(&rows).is_empty());
    }

    #[test]
    fn direction_counts_and_failures() {
        let base = doc(&[100.0], 50.0, 1000.0, 0);
        // Higher-is-better: a drop is the regression, a rise the gain.
        assert_eq!(
            verdict_of(&compare(&base, &doc(&[100.0], 44.0, 1000.0, 0)).unwrap(), "jobs_per_s"),
            Verdict::Regression
        );
        assert_eq!(
            verdict_of(&compare(&base, &doc(&[100.0], 56.0, 1000.0, 0)).unwrap(), "jobs_per_s"),
            Verdict::Improved
        );
        // A count within its 3 % bound passes `compare` but is an A/A
        // disagreement: one build must repeat it exactly.
        let rows = compare(&base, &doc(&[100.0], 50.0, 1010.0, 0)).unwrap();
        assert_eq!(verdict_of(&rows, "fe_comm"), Verdict::Ok);
        assert_eq!(disagreements(&rows).len(), 1);
        // Any new failure is a regression.
        let rows = compare(&base, &doc(&[100.0], 50.0, 1000.0, 1)).unwrap();
        assert_eq!(verdict_of(&rows, "correctness"), Verdict::Regression);
    }

    #[test]
    fn refuses_to_mix_stand_in_and_real_dependencies() {
        let with_deps = |deps: &str| {
            let Json::Obj(mut fields) = doc(&[100.0], 50.0, 1000.0, 0) else { unreachable!() };
            fields.push(("environment".into(), Json::obj([("deps", Json::from(deps))])));
            Json::Obj(fields)
        };
        assert!(compare(&with_deps("stand-in"), &with_deps("stand-in")).is_ok());
        let err = compare(&with_deps("stand-in"), &with_deps("real")).unwrap_err();
        assert!(err.contains("not comparable"), "{err}");
        assert!(compare(&with_deps("real"), &doc(&[100.0], 50.0, 1000.0, 0)).is_err());
    }

    #[test]
    fn wide_a_a_spread_is_unresolved_not_a_verdict() {
        let noisy = doc(&[80.0, 100.0, 120.0, 140.0], 50.0, 1000.0, 0);
        let rows = compare(&noisy, &doc(&[150.0], 50.0, 1000.0, 0)).unwrap();
        assert_eq!(verdict_of(&rows, "op_best_ms"), Verdict::Unresolved);
        assert!(!regressed(&rows));
        assert!(render(&rows).contains("Unresolved"));
        assert!(compare(&noisy, &Json::obj([("workloads", Json::obj::<&str>([]))])).is_err());
    }
}
