//! Command line: `bench` (one workload, the benchmark contract's
//! interface), `run` (every workload, one document), `compare`,
//! `selfcheck`.

use crate::compare;
use crate::harness::{run_workload, RunArgs};
use crate::json::Json;
use crate::spec::{self, MetricSpec};
use crate::stats::median;
use crate::sysinfo;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str = "\
cip-ladder — the repository's benchmark

  bench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
      One workload in this process. The last line of stdout is the result:
      {\"correct\":..,\"attempted\":..,\"failed\":..,\"metrics\":{..}}
      (end-to-end metrics with --trace 0, per-layer metrics with --trace 1).
  run [--workload NAME] [--seed N] [--trace] [--smoke]
      Every workload (or one), each in its own process, three times for
      BENCHMARK.json's run_seconds; prints one JSON document with every
      metric by name, unit, direction and bound. With --trace each workload
      is repeated traced for the per-layer table.
  compare A.json B.json
      Applies the bounds in A to B; exits 1 on a regression. Refuses two
      documents made with different dependency sets (environment.deps).
  selfcheck [--seed N] [--smoke]
      Runs the full set twice on this build; exits 1 unless every end-to-end
      metric agrees within its bound and every count is identical.
";

/// How often `run` repeats each workload untraced. At least two, so that
/// every `run` document carries the run-to-run spread `compare` needs to
/// tell a difference from noise.
const RUN_REPEATS: usize = 3;

/// Where run documents and chrome traces are written (git-ignored).
fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// `--key value` pairs and bare `--flag`s, in order.
struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    fn parse(
        args: &[String],
        valued: &[&str],
        bare: &[&str],
    ) -> Result<(Self, Vec<String>), String> {
        let mut flags = Vec::new();
        let mut positional = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(key) if valued.contains(&key) => {
                    let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                    flags.push((key.to_string(), Some(value.clone())));
                }
                Some(key) if bare.contains(&key) => flags.push((key.to_string(), None)),
                Some(key) => return Err(format!("unknown option --{key}")),
                None => positional.push(arg.clone()),
            }
        }
        Ok((Self(flags), positional))
    }

    fn has(&self, key: &str) -> bool {
        self.0.iter().any(|(k, _)| k == key)
    }

    fn value(&self, key: &str) -> Option<&str> {
        self.0.iter().rev().find(|(k, _)| k == key).and_then(|(_, v)| v.as_deref())
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            None => Ok(default),
            Some(text) => {
                text.parse().map_err(|_| format!("--{key}: '{text}' is not a valid number"))
            }
        }
    }
}

fn write_out(name: &str, doc: &Json) {
    let dir = out_dir();
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(name), doc.pretty()));
    if let Err(e) = written {
        eprintln!("cip-ladder: could not write {}: {e}", dir.join(name).display());
    }
}

fn doc_name(workload: &str, seed: u64, trace: bool) -> String {
    format!("{workload}-seed{seed}-trace{}.json", u8::from(trace))
}

fn bench(args: &[String]) -> Result<ExitCode, String> {
    let (flags, rest) = Flags::parse(args, &["workload", "seed", "seconds", "trace"], &["smoke"])?;
    if !rest.is_empty() {
        return Err(format!("unexpected argument '{}'", rest[0]));
    }
    let trace = match flags.value("trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not '{other}'")),
    };
    let run = RunArgs {
        workload: flags.value("workload").ok_or("--workload is required")?.to_string(),
        seed: flags.number("seed", 1)?,
        seconds: flags.number("seconds", spec::get().run_seconds)?,
        trace,
        smoke: flags.has("smoke"),
    };
    if !(run.seconds >= 0.0 && run.seconds <= 3600.0) {
        return Err(format!("--seconds {} is out of range", run.seconds));
    }
    let report = run_workload(&run)?;
    write_out(&doc_name(&run.workload, run.seed, run.trace), &report.document());
    if let Some(trace) = &report.chrome_trace {
        write_out(&format!("{}-seed{}.chrome.json", run.workload, run.seed), trace);
        eprint!("{}", report.table_text());
    }
    for failure in &report.checks.messages {
        eprintln!("cip-ladder: FAILED CHECK: {failure}");
    }
    for known in &report.checks.known_messages {
        eprintln!("cip-ladder: known defect: {known}");
    }
    println!("{}", report.contract_line());
    Ok(ExitCode::SUCCESS)
}

/// Runs one workload in a child process and reads back its document.
fn bench_child(run: &RunArgs) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["bench", "--workload", &run.workload])
        .args(["--seed", &run.seed.to_string()])
        .args(["--seconds", &run.seconds.to_string()])
        .args(["--trace", if run.trace { "1" } else { "0" }]);
    if run.smoke {
        cmd.arg("--smoke");
    }
    // The child's stdout is its contract line; keep ours for the document.
    let out = cmd.stderr(std::process::Stdio::inherit()).output();
    let out = out.map_err(|e| format!("cannot start the {} child: {e}", run.workload))?;
    if !out.status.success() {
        return Err(format!("the {} child exited with {}", run.workload, out.status));
    }
    let path = out_dir().join(doc_name(&run.workload, run.seed, run.trace));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text)
}

/// Folds the `metrics` of several runs of one workload into one object:
/// the median as `value`, every run's value under `samples`.
fn fold_metrics(specs: &[MetricSpec], runs: &[Json]) -> Json {
    Json::obj(specs.iter().map(|m| {
        let samples: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.get("metrics")?.get(&m.name)?.get("value")?.as_f64())
            .collect();
        let mut fields = vec![
            ("value", Json::from(median(&samples))),
            ("unit", m.unit.as_str().into()),
            ("better", m.better.as_str().into()),
        ];
        if let Some(b) = m.bound {
            fields.push(("bound", b.into()));
        }
        fields.push(("samples", Json::Arr(samples.into_iter().map(Json::from).collect())));
        (m.name.as_str(), Json::obj(fields))
    }))
}

/// Runs the workloads (`repeat` times each, for `run_seconds`; one cycle
/// each under `--smoke`) and builds the `run` document.
fn run_set(
    only: Option<&str>,
    seed: u64,
    trace: bool,
    repeat: usize,
    smoke: bool,
) -> Result<Json, String> {
    let spec = spec::get();
    if let Some(name) = only.filter(|o| !spec.workloads.iter().any(|w| w.name == *o)) {
        return Err(format!("unknown workload '{name}'"));
    }
    let seconds = if smoke { 0.0 } else { spec.run_seconds };
    let mut workloads = Vec::new();
    for w in spec.workloads.iter().filter(|w| only.is_none_or(|o| o == w.name)) {
        let args = |trace| RunArgs { workload: w.name.clone(), seed, seconds, trace, smoke };
        eprintln!(
            "cip-ladder: {} ({} x {seconds} s{})",
            w.name,
            repeat,
            if trace { ", then traced" } else { "" }
        );
        let runs: Vec<Json> =
            (0..repeat).map(|_| bench_child(&args(false))).collect::<Result<_, _>>()?;
        let sum = |key: &str| runs.iter().filter_map(|r| r.get(key)?.as_f64()).sum::<f64>();
        let mut fields = vec![
            ("why", Json::from(w.why.as_str())),
            ("correct", Json::from(sum("failed") == 0.0)),
            ("attempted", sum("attempted").into()),
            ("failed", sum("failed").into()),
            ("known_failing", sum("known_failing").into()),
            ("metrics", fold_metrics(&spec.end_to_end, &runs)),
            ("params", runs.last().and_then(|r| r.get("params")).cloned().unwrap_or(Json::Null)),
        ];
        if trace {
            let traced = bench_child(&args(true))?;
            fields.push(("layers", fold_metrics(&spec.per_layer, std::slice::from_ref(&traced))));
            fields.push(("span_table", traced.get("span_table").cloned().unwrap_or(Json::Null)));
            fields.push(("traced_failed", traced.get("failed").cloned().unwrap_or(Json::Null)));
        }
        workloads.push((w.name.as_str(), Json::obj(fields)));
    }
    Ok(Json::obj([
        ("schema", Json::from("cip-ladder/1")),
        ("seed", seed.into()),
        ("seconds", seconds.into()),
        ("repeat", repeat.into()),
        ("traced", trace.into()),
        ("smoke", smoke.into()),
        ("environment", sysinfo::environment()),
        ("workloads", Json::obj(workloads)),
    ]))
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let (flags, rest) = Flags::parse(args, &["workload", "seed"], &["trace", "smoke"])?;
    if !rest.is_empty() {
        return Err(format!("unexpected argument '{}'", rest[0]));
    }
    let seed = flags.number("seed", 1)?;
    let doc = run_set(
        flags.value("workload"),
        seed,
        flags.has("trace"),
        RUN_REPEATS,
        flags.has("smoke"),
    )?;
    write_out(&format!("run-seed{seed}.json"), &doc);
    print!("{}", doc.pretty());
    let failed = |w: &(String, Json)| w.1.get("correct") != Some(&Json::Bool(true));
    let any_failed =
        doc.get("workloads").and_then(Json::as_obj).is_some_and(|w| w.iter().any(failed));
    Ok(if any_failed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

fn read_doc(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn compare_cmd(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes exactly two files".to_string());
    };
    let rows = compare::compare(&read_doc(a)?, &read_doc(b)?)?;
    print!("{}", compare::render(&rows));
    Ok(if compare::regressed(&rows) { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

fn selfcheck(args: &[String]) -> Result<ExitCode, String> {
    let (flags, rest) = Flags::parse(args, &["seed"], &["smoke"])?;
    if !rest.is_empty() {
        return Err(format!("unexpected argument '{}'", rest[0]));
    }
    let seed = flags.number("seed", 1)?;
    let set = || run_set(None, seed, false, 1, flags.has("smoke"));
    let (first, second) = (set()?, set()?);
    write_out("selfcheck-first.json", &first);
    write_out("selfcheck-second.json", &second);
    let rows = compare::compare(&first, &second)?;
    print!("{}", compare::render(&rows));
    let mut problems = compare::disagreements(&rows);
    for doc in [&first, &second] {
        for (name, w) in doc.get("workloads").and_then(Json::as_obj).unwrap_or(&[]) {
            if w.get("correct") != Some(&Json::Bool(true)) {
                problems.push(format!("{name}: failed checks"));
            }
        }
    }
    for p in &problems {
        println!("DISAGREE  {p}");
    }
    println!(
        "selfcheck: {}",
        if problems.is_empty() { "two runs of this build agree" } else { "FAILED" }
    );
    Ok(if problems.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Entry point; `args` excludes the program name.
pub fn main(args: Vec<String>) -> ExitCode {
    let outcome = match args.split_first() {
        Some((cmd, rest)) => match cmd.as_str() {
            "bench" => bench(rest),
            "run" => run(rest),
            "compare" => compare_cmd(rest),
            "selfcheck" => selfcheck(rest),
            "help" | "--help" | "-h" => {
                print!("{USAGE}");
                Ok(ExitCode::SUCCESS)
            }
            other => Err(format!("unknown command '{other}'\n\n{USAGE}")),
        },
        None => Err(USAGE.to_string()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("cip-ladder: {e}");
        ExitCode::from(2)
    })
}
