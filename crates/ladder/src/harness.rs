//! The measuring loop every workload shares.
//!
//! A run is: set up several times (median → `setup_s`), then repeat whole
//! *cycles* of operations until `--seconds` have passed. A cycle is a fixed
//! list of inputs, so every cycle does the same work: timings gain a sample
//! with every cycle (`op_best_ms` is the fastest cycle's mean operation
//! latency), while counts are taken from one cycle and therefore repeat
//! exactly from run to run.
//!
//! With `--trace 1` cycles alternate between untraced and traced; the traced
//! ones record spans around every layer call and feed the per-layer
//! metrics, and the ratio between the two kinds is the tracing overhead.

use crate::json::Json;
use crate::spans::{TableRow, Tracer};
use crate::spec::{self, MetricSpec};
use crate::stats::{highest_valid_tail, mean, median, percentile};
use crate::sysinfo;
use crate::workloads;
use std::collections::BTreeMap;
use std::time::Instant;

/// A run sets up at least this many times; `setup_s` is the median.
pub const MIN_SETUP_REPS: usize = 3;
/// Cheap set-ups repeat (up to this many times) until they have taken
/// [`SETUP_BUDGET_S`] together, so their median is as steady as a dear one's.
pub const MAX_SETUP_REPS: usize = 9;
/// See [`MAX_SETUP_REPS`].
pub const SETUP_BUDGET_S: f64 = 2.5;

/// What one invocation runs.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds to measure for (whole cycles; at least one).
    pub seconds: f64,
    /// Traced run: report per-layer metrics.
    pub trace: bool,
    /// Tiny inputs, for tests.
    pub smoke: bool,
}

/// Correctness bookkeeping: every check is an attempt.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// The first few failures, for the report.
    pub messages: Vec<String>,
    /// Failures of checks the program is known not to hold on every seed
    /// ([`Checks::known_defect`]): counted and listed, not part of `failed`.
    pub known_failing: u64,
    /// The first few of those.
    pub known_messages: Vec<String>,
}

impl Checks {
    /// Records one check; `what` is only rendered on failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(what());
            }
        }
    }

    /// Records a check against a reported defect of the program: one that
    /// fails on a few seeds today. The benchmark may only hold workloads on
    /// which no operation fails, so such a failure is counted and listed on
    /// its own instead of making the run incorrect.
    pub fn known_defect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.known_failing += 1;
            if self.known_messages.len() < 8 {
                self.known_messages.push(what());
            }
        }
    }

    /// Folds another thread's checks in.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.messages.extend(other.messages);
        self.messages.truncate(8);
        self.known_failing += other.known_failing;
        self.known_messages.extend(other.known_messages);
        self.known_messages.truncate(8);
    }
}

/// Everything a workload needs while it runs.
pub struct Ctx {
    /// The run seed.
    pub seed: u64,
    /// Tiny inputs.
    pub smoke: bool,
    /// Traced run (`--trace 1`).
    pub layers: bool,
    seconds: f64,
    started: Option<Instant>,
    cycle: usize,
    /// Span recorder; enabled during traced cycles (and their set-up).
    pub tracer: Tracer,
    /// Correctness checks.
    pub checks: Checks,
    setup_s: Vec<f64>,
    // Indexed by cycle kind: [untraced, traced].
    op_ms: [Vec<f64>; 2],
    cycle_ms: [Vec<f64>; 2],
    cycle_ops: u64,
    cycle_window_s: f64,
    window_s: f64,
    traced_wall_s: f64,
    ops: u64,
    samples: BTreeMap<String, Vec<f64>>,
    /// Inputs and sizes actually used, for the report.
    pub params: Vec<(String, Json)>,
}

impl Ctx {
    fn new(args: &RunArgs) -> Self {
        Self {
            seed: args.seed,
            smoke: args.smoke,
            layers: args.trace,
            seconds: args.seconds,
            started: None,
            cycle: 0,
            tracer: Tracer::new(Instant::now(), 0, args.trace),
            checks: Checks::default(),
            setup_s: Vec::new(),
            op_ms: [Vec::new(), Vec::new()],
            cycle_ms: [Vec::new(), Vec::new()],
            cycle_ops: 0,
            cycle_window_s: 0.0,
            window_s: 0.0,
            traced_wall_s: 0.0,
            ops: 0,
            samples: BTreeMap::new(),
            params: Vec::new(),
        }
    }

    /// Runs `setup` several times ([`MIN_SETUP_REPS`], [`MAX_SETUP_REPS`]),
    /// timing each, and keeps the last state. Earlier states are dropped
    /// outside the timed region.
    pub fn setup<S>(&mut self, mut setup: impl FnMut(&mut Ctx) -> S) -> S {
        let mut state = None;
        let mut total = 0.0;
        let max_reps = if self.smoke { MIN_SETUP_REPS } else { MAX_SETUP_REPS };
        while self.setup_s.len() < MIN_SETUP_REPS
            || (self.setup_s.len() < max_reps && total < SETUP_BUDGET_S)
        {
            drop(state.take());
            self.tracer.next_op();
            self.tracer.begin("setup");
            let t = Instant::now();
            let s = setup(self);
            let took = t.elapsed().as_secs_f64();
            self.tracer.end();
            self.setup_s.push(took);
            self.add_traced_wall(took);
            total += took;
            state = Some(s);
        }
        state.expect("at least MIN_SETUP_REPS set-ups ran")
    }

    /// Whether another cycle should run; call at every cycle boundary.
    /// Starts the clock on the first call. A traced run does at least one
    /// cycle of each kind.
    pub fn next_cycle(&mut self) -> bool {
        self.close_cycle();
        let started = *self.started.get_or_insert_with(Instant::now);
        let done = self.cycle;
        let min_cycles = if self.layers { 2 } else { 1 };
        if done >= min_cycles && started.elapsed().as_secs_f64() >= self.seconds {
            return false;
        }
        self.cycle += 1;
        self.tracer.enabled = self.layers && done % 2 == 1;
        true
    }

    /// Turns the finished cycle's operations and wall-clock into one
    /// sample of the cycle's mean operation latency.
    fn close_cycle(&mut self) {
        if self.cycle_ops > 0 {
            let mean_ms = self.cycle_window_s * 1e3 / self.cycle_ops as f64;
            self.cycle_ms[usize::from(self.tracer.enabled)].push(mean_ms);
        }
        (self.cycle_ops, self.cycle_window_s) = (0, 0.0);
    }

    /// Whether counts are recorded in this cycle: the first cycle of an
    /// untraced run, the first traced cycle of a traced run.
    pub fn counting(&self) -> bool {
        self.cycle == if self.layers { 2 } else { 1 }
    }

    /// Times one operation: `f` is the operation, the returned value is
    /// whatever it hands to the checks that follow (outside the window).
    pub fn op<R>(&mut self, f: impl FnOnce(&mut Ctx) -> R) -> R {
        self.op_units(|ctx| (f(ctx), 1))
    }

    /// Times one window that completes several operations (a traced
    /// session executes many steps): `f` also returns how many, and each
    /// counts with the window's mean latency.
    pub fn op_units<R>(&mut self, f: impl FnOnce(&mut Ctx) -> (R, u64)) -> R {
        self.tracer.next_op();
        self.tracer.begin("op");
        let t = Instant::now();
        let (r, units) = f(self);
        let s = t.elapsed().as_secs_f64();
        self.tracer.end();
        self.record_ops(&[s * 1e3 / units.max(1) as f64], units, s);
        r
    }

    /// Records operation windows, also ones timed on client threads. Each
    /// window completed `units` operations and contributes their mean
    /// latency; `wall_s` is the wall-clock all the windows took together
    /// (less than their sum when they ran side by side).
    pub fn record_ops(&mut self, mean_latencies_ms: &[f64], units: u64, wall_s: f64) {
        self.op_ms[usize::from(self.tracer.enabled)].extend_from_slice(mean_latencies_ms);
        let ops = mean_latencies_ms.len() as u64 * units;
        self.ops += ops;
        self.cycle_ops += ops;
        self.window_s += wall_s;
        self.cycle_window_s += wall_s;
        self.add_traced_wall(mean_latencies_ms.iter().sum::<f64>() * units as f64 / 1e3);
    }

    /// Runs `f` outside any operation. In traced cycles its spans hang off
    /// a `probe` root and its time counts as traced wall-clock.
    pub fn aside<R>(&mut self, f: impl FnOnce(&mut Ctx) -> R) -> R {
        self.tracer.next_op();
        self.tracer.begin("probe");
        let t = Instant::now();
        let r = f(self);
        let took = t.elapsed().as_secs_f64();
        self.tracer.end();
        self.add_traced_wall(took);
        r
    }

    /// In traced cycles only: measures a layer on its own ([`Self::aside`]).
    pub fn probe(&mut self, f: impl FnOnce(&mut Ctx)) {
        if self.tracer.enabled {
            self.aside(f);
        }
    }

    /// Wall-clock of the traced windows, measured apart from the spans so
    /// the span table can be checked against it.
    fn add_traced_wall(&mut self, seconds: f64) {
        if self.tracer.enabled {
            self.traced_wall_s += seconds;
        }
    }

    /// Calls into a layer: a span named `name`, and in traced cycles a
    /// sample of the metric `{name}_ms`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let (r, ms) = self.tracer.span(name, f);
        if self.tracer.enabled {
            self.sample(&format!("{name}_ms"), ms);
        }
        r
    }

    /// Adds a sample of a timing metric (traced cycles only).
    pub fn sample(&mut self, name: &str, value: f64) {
        if self.tracer.enabled {
            self.samples.entry(name.to_string()).or_default().push(value);
        }
    }

    /// Adds a sample of a count metric (the counting cycle only).
    pub fn count(&mut self, name: &str, value: f64) {
        if self.counting() {
            self.samples.entry(name.to_string()).or_default().push(value);
        }
    }

    /// Sets a metric the workload derived itself.
    pub fn set(&mut self, name: &str, value: f64) {
        self.samples.insert(name.to_string(), vec![value]);
    }

    /// The samples recorded so far for `name`.
    pub fn samples_of(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Records an input or size for the report.
    pub fn param(&mut self, key: &str, value: impl Into<Json>) {
        if !self.params.iter().any(|(k, _)| k == key) {
            self.params.push((key.to_string(), value.into()));
        }
    }
}

/// One metric of a finished run.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Its specification.
    pub spec: &'static MetricSpec,
    /// Its value.
    pub value: f64,
}

/// A finished run.
#[derive(Debug)]
pub struct Report {
    /// What was asked for.
    pub args: RunArgs,
    /// Checks made / failed, and the first failures.
    pub checks: Checks,
    /// End-to-end metrics (untraced runs) or per-layer metrics (traced).
    pub metrics: Vec<Measured>,
    /// Per-layer span table (traced runs).
    pub table: Vec<TableRow>,
    /// Sample counts behind the timings, sizes, environment.
    pub params: Vec<(String, Json)>,
    /// Chrome trace of the recorded spans (traced runs).
    pub chrome_trace: Option<Json>,
}

/// Timings reduce to their median, counts and ratios to their mean.
fn reduce(spec: &MetricSpec, samples: &[f64]) -> f64 {
    if matches!(spec.unit.as_str(), "ms" | "us") {
        median(samples)
    } else {
        mean(samples)
    }
}

/// Runs one workload to completion.
pub fn run_workload(args: &RunArgs) -> Result<Report, String> {
    let spec = spec::get();
    let run = workloads::lookup(&args.workload).ok_or_else(|| {
        let names: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        format!("unknown workload '{}' (known: {})", args.workload, names.join(", "))
    })?;
    let mut ctx = Ctx::new(args);
    run(&mut ctx);
    ctx.close_cycle();

    let [untraced, traced] = &std::mem::take(&mut ctx.op_ms);
    ctx.checks.check(ctx.ops > 0, || "the workload ran no operation".to_string());
    let known = |name: &str| spec.end_to_end.iter().chain(&spec.per_layer).any(|m| m.name == name);
    for name in ctx.samples.keys() {
        ctx.checks.check(known(name), || format!("sample for unlisted metric '{name}'"));
    }

    let mut params = std::mem::take(&mut ctx.params);
    params.push(("op_samples".into(), (untraced.len() + traced.len()).into()));
    params.push(("setup_samples".into(), ctx.setup_s.len().into()));
    params.push(("cycles".into(), ctx.cycle.into()));
    params.push(("timed_window_s".into(), ctx.window_s.into()));
    params.push(("op_p50_ms".into(), median(untraced).into()));
    params.push(("ops_per_s".into(), (ctx.ops as f64 / ctx.window_s).into()));
    if let Some(p) = highest_valid_tail(untraced.len()) {
        let tail = percentile(untraced, p).expect("a valid tail has samples");
        params.push((format!("op_p{p}_ms"), tail.into()));
    }

    let mut table = Vec::new();
    let mut chrome_trace = None;
    let metrics: Vec<Measured> = if args.trace {
        // Span bookkeeping: what the operation windows hold that no layer
        // span accounts for, and what tracing itself cost.
        table = ctx.tracer.table();
        let unattributed: f64 = table.iter().filter(|r| r.root).map(|r| r.self_ms).sum();
        ctx.set("harness.unattributed_ms", unattributed);
        let accounted: f64 = table.iter().map(|r| r.self_ms).sum();
        let wall_ms = ctx.traced_wall_s * 1e3;
        ctx.checks.check((accounted - wall_ms).abs() <= 0.05 * wall_ms, || {
            format!("span self times sum to {accounted:.1} ms but the traced windows took {wall_ms:.1} ms")
        });
        params.push(("traced_wall_ms".into(), wall_ms.into()));
        if median(untraced) > 0.0 {
            ctx.set("harness.trace_overhead_ratio", median(traced) / median(untraced));
        }
        ctx.set("harness.op_p50_ms", median(untraced));
        ctx.set("harness.ops_per_s", ctx.ops as f64 / ctx.window_s);
        ctx.set("harness.peak_rss_mb", sysinfo::peak_rss_mb());
        let ratio = ctx.checks.failed as f64 / ctx.checks.attempted as f64;
        ctx.set("harness.fail_ratio", ratio);
        chrome_trace = Some(ctx.tracer.chrome_trace(50_000));
        params.push(("spans".into(), ctx.tracer.spans().len().into()));
        spec.per_layer
            .iter()
            .map(|spec| Measured { spec, value: reduce(spec, ctx.samples_of(&spec.name)) })
            .collect()
    } else {
        let value = |name: &str| match name {
            "setup_s" => median(&ctx.setup_s),
            // Every cycle does the same work, and interference on a
            // shared box only ever slows one down: the fastest cycle is
            // the steadiest estimate of what the code costs.
            "op_best_ms" => ctx.cycle_ms[0].iter().copied().fold(f64::INFINITY, f64::min),
            other => mean(ctx.samples_of(other)),
        };
        spec.end_to_end.iter().map(|spec| Measured { spec, value: value(&spec.name) }).collect()
    };
    for m in metrics.iter().filter(|m| m.spec.bound.is_some()) {
        ctx.checks.check(m.value.is_finite() && m.value > 0.0, || {
            format!("end-to-end metric {} is {} (must be a positive number)", m.spec.name, m.value)
        });
    }
    Ok(Report { args: args.clone(), checks: ctx.checks, metrics, table, params, chrome_trace })
}

impl Report {
    /// The one-line result the benchmark contract asks for.
    pub fn contract_line(&self) -> String {
        let metrics = self.metrics.iter().map(|m| {
            let unit = m.spec.unit.as_str();
            (
                m.spec.name.as_str(),
                Json::obj([("value", Json::from(m.value)), ("unit", unit.into())]),
            )
        });
        Json::obj([
            ("correct", Json::from(self.checks.failed == 0)),
            ("attempted", self.checks.attempted.into()),
            ("failed", self.checks.failed.into()),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }

    /// The full document: every metric with unit, direction and bound, the
    /// parameters used, the span table.
    pub fn document(&self) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            let mut fields = vec![
                ("value", Json::from(m.value)),
                ("unit", m.spec.unit.as_str().into()),
                ("better", m.spec.better.as_str().into()),
            ];
            if let Some(b) = m.spec.bound {
                fields.push(("bound", b.into()));
            }
            (m.spec.name.as_str(), Json::obj(fields))
        });
        let table = self.table.iter().map(|r| {
            Json::obj([
                ("span", Json::from(r.name)),
                ("count", r.count.into()),
                ("total_ms", r.total_ms.into()),
                ("self_ms", r.self_ms.into()),
            ])
        });
        let texts = |m: &[String]| Json::Arr(m.iter().map(|m| m.as_str().into()).collect());
        Json::obj([
            ("workload", Json::from(self.args.workload.as_str())),
            ("seed", self.args.seed.into()),
            ("seconds", self.args.seconds.into()),
            ("traced", self.args.trace.into()),
            ("smoke", self.args.smoke.into()),
            ("deps", sysinfo::deps().into()),
            ("correct", (self.checks.failed == 0).into()),
            ("attempted", self.checks.attempted.into()),
            ("failed", self.checks.failed.into()),
            ("failures", texts(&self.checks.messages)),
            ("known_failing", self.checks.known_failing.into()),
            ("known_failures", texts(&self.checks.known_messages)),
            ("metrics", Json::obj(metrics)),
            ("params", Json::Obj(self.params.clone())),
            ("span_table", Json::Arr(table.collect())),
        ])
    }

    /// The per-layer table as text: self time per span name, with the
    /// `unattributed_ms` row and the total they add up to.
    pub fn table_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let wall: f64 = self.table.iter().filter(|r| r.root).map(|r| r.total_ms).sum();
        writeln!(out, "{:<28} {:>8} {:>12} {:>12}", "span", "count", "total_ms", "self_ms")
            .expect("writing to a String");
        for r in self.table.iter().filter(|r| !r.root) {
            writeln!(out, "{:<28} {:>8} {:>12.3} {:>12.3}", r.name, r.count, r.total_ms, r.self_ms)
                .expect("writing to a String");
        }
        let unattributed: f64 = self.table.iter().filter(|r| r.root).map(|r| r.self_ms).sum();
        writeln!(out, "{:<28} {:>8} {:>12} {:>12.3}", "unattributed_ms", "", "", unattributed)
            .expect("writing to a String");
        writeln!(out, "{:<28} {:>8} {:>12.3}", "timed wall (all windows)", "", wall)
            .expect("writing to a String");
        out
    }
}
