//! Traced end-to-end execution — the engine behind the `cip-trace`
//! binary.
//!
//! Runs a simulation scenario through the full MCML+DT pipeline — §4.2
//! partitioning with DT-friendly correction, §4.1 search-tree induction
//! (incrementally refreshed between steps), the threaded rank executor,
//! and optional §4.3 diffusion repartitioning with executed migration —
//! with an **enabled** [`Recorder`] threaded through every layer. The
//! result is a chrome://tracing timeline (one lane per logical rank, the
//! driver on its own lane above them) and a flat summary whose traffic
//! counters equal the executed [`cip_runtime::TrafficLog`] exactly.

use crate::service::TraceTotals;
use crate::staging::{stage_batch, with_staged_inputs, Chain};
use crate::worker::{PoolConfig, RunSpec, WorkerPool};
use cip_core::{
    contact_graph, decompose, merge_live, repartition_step, McmlDtConfig, RepartitionMethod,
};
use cip_partition::{compact_parts_after_loss, PartitionerConfig};
use cip_runtime::{
    build_migration, collect_batch, connect_ranks, execute_steps, BatchError, CancelToken,
    ConfigError, ExecOptions, FaultPlan, FaultRates, KillSpec, MigrationPlan, Msg, RuntimeError,
};
use cip_sim::{scenarios, SimConfig, SimResult};
use cip_telemetry::{export::Summary, Recorder};
use cip_transport::tcp::Tcp;
use cip_transport::{ChannelMailbox, InProcess, TransportError};
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A failed traced run — every way [`run_traced`] / [`Session`] can go
/// wrong, as a typed error instead of a formatted string, so callers
/// (the CLI, the job server, tests) can match on the cause.
#[derive(Debug)]
pub enum TraceError {
    /// The scenario name is not in the registry
    /// ([`cip_sim::scenarios::list`]).
    UnknownScenario {
        /// The rejected name.
        name: String,
    },
    /// A trace/executor option failed builder validation.
    Config(ConfigError),
    /// Step execution failed beyond recovery (transport breakdown; rank
    /// deaths are recovered internally and never surface here).
    Runtime(RuntimeError),
    /// The worker pool could not be brought up or driven (spawn,
    /// handshake, control socket).
    Worker {
        /// What failed.
        what: String,
    },
    /// [`TraceReport::verify_totals`] found a telemetry counter that
    /// disagrees with the executed total.
    TotalsMismatch {
        /// The counter name.
        counter: &'static str,
        /// The counter's value.
        got: u64,
        /// The executed total it must equal.
        expected: u64,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownScenario { name } => {
                write!(f, "unknown scenario '{name}' (known: {})", scenarios::known_names())
            }
            Self::Config(e) => write!(f, "{e}"),
            Self::Runtime(e) => write!(f, "execution failed: {e}"),
            Self::Worker { what } => write!(f, "worker pool: {what}"),
            Self::TotalsMismatch { counter, got, expected } => {
                write!(f, "counter {counter} = {got}, executed total = {expected}")
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Config(e) => Some(e),
            Self::Runtime(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for TraceError {
    fn from(e: ConfigError) -> Self {
        Self::Config(e)
    }
}

impl From<RuntimeError> for TraceError {
    fn from(e: RuntimeError) -> Self {
        Self::Runtime(e)
    }
}

impl From<TransportError> for TraceError {
    fn from(e: TransportError) -> Self {
        Self::Runtime(RuntimeError::Transport(e))
    }
}

/// Chaos-mode settings for a traced run: deterministic message faults,
/// an optional scripted rank kill, and the executor's loss-detection
/// budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosOptions {
    /// Base seed; each step derives an independent fate stream.
    pub seed: u64,
    /// How often each message fault fires.
    pub rates: FaultRates,
    /// Kill `(step, rank)`: that rank dies before its first send of that
    /// step, and the driver recovers over the survivors.
    pub kill: Option<(usize, u32)>,
    /// Executor drain timeout in milliseconds.
    pub timeout_ms: u64,
    /// Executor repair rounds before declaring a peer dead.
    pub retries: u32,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        Self { seed: 1, rates: FaultRates::CHAOS, kill: None, timeout_ms: 2000, retries: 3 }
    }
}

/// Which message transport carries the rank-to-rank traffic.
///
/// All three execute the identical protocol and produce bit-identical
/// `TrafficLog` totals; they differ only in where the ranks live and
/// what the bytes travel through (DESIGN.md §6c).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum TransportKind {
    /// Rank threads exchanging in-memory messages — the default and
    /// the oracle every other backend is measured against.
    #[default]
    InProcess,
    /// Rank threads in this process, but every message serialized
    /// through a real loopback TCP socket (wire-format coverage with
    /// full per-frame telemetry).
    TcpThreads {
        /// Mesh listener bind address (`127.0.0.1:0` = OS ports).
        bind: String,
    },
    /// One `cip-worker` OS process per rank, meshed over TCP; the
    /// driver assigns batches over per-worker control sockets.
    Workers {
        /// Control listener bind address.
        bind: String,
        /// Worker executable override (`None` = `$CIP_WORKER_BIN`,
        /// then a `cip-worker` sibling of the current executable).
        worker_bin: Option<PathBuf>,
    },
}

/// What to run and how.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceOptions {
    /// Scenario name (see [`scenario_config`] for the accepted names).
    pub scenario: String,
    /// Number of logical ranks.
    pub k: usize,
    /// Snapshot-count override (`None` = the scenario's default).
    pub snapshots: Option<usize>,
    /// Partitioner seed.
    pub seed: u64,
    /// Diffusion-repartition period (`None` = fixed decomposition).
    pub repartition_period: Option<usize>,
    /// Fault injection (`None` = clean run).
    pub chaos: Option<ChaosOptions>,
    /// How many steps a rank's sends may run ahead of its completed
    /// drains inside a batch (≥ 1, default 2; see
    /// [`ExecOptions::lookahead`]). The executed totals do not depend
    /// on it.
    pub lookahead: usize,
    /// Longest stretch of steps one batch may cover (≥ 1; repartition
    /// boundaries cut batches shorter). The executed totals do not
    /// depend on it.
    pub max_batch: usize,
    /// Where the ranks live and what carries their messages.
    pub transport: TransportKind,
}

impl Default for TraceOptions {
    fn default() -> Self {
        Self {
            scenario: "head_on".to_string(),
            k: 4,
            snapshots: None,
            seed: 1,
            repartition_period: Some(10),
            chaos: None,
            lookahead: ExecOptions::default().lookahead,
            max_batch: 8,
            transport: TransportKind::InProcess,
        }
    }
}

impl TraceOptions {
    /// A validating builder over the defaults — the one construction
    /// path the CLI and the job server share, so every flag is checked
    /// by the same rules.
    pub fn builder() -> TraceOptionsBuilder {
        TraceOptionsBuilder { opts: Self::default() }
    }

    /// Checks every option against the rules [`TraceOptionsBuilder::build`]
    /// enforces — for options constructed literally (struct syntax) or
    /// deserialized from a job payload. [`Session::build`] calls this, so
    /// no invalid configuration reaches execution by any path.
    pub fn validate(&self) -> Result<(), TraceError> {
        let snapshots = SimSpec::resolve(&self.scenario, self.snapshots)?.config.snapshots;
        let reject = |field: &'static str, reason: &str| {
            Err(TraceError::Config(ConfigError { field, reason: reason.to_string() }))
        };
        // Ceilings on what one request may ask for. Each of these sizes
        // an allocation or a thread count, and a job payload can carry
        // any `u64`: the refusal has to be this typed error, because an
        // allocation failure aborts the process where no `catch_unwind`
        // can catch it.
        const MAX_RANKS: usize = 1024;
        const MAX_SNAPSHOTS: usize = 100_000;
        const MAX_LOOKAHEAD: usize = 1024;
        const MAX_BATCH: usize = 1 << 16;
        for (field, value, max) in [
            ("k", self.k, MAX_RANKS),
            ("snapshots", self.snapshots.unwrap_or(1), MAX_SNAPSHOTS),
            ("max_batch", self.max_batch, MAX_BATCH),
            ("lookahead", self.lookahead, MAX_LOOKAHEAD),
        ] {
            if !(1..=max).contains(&value) {
                return reject(field, &format!("must be between 1 and {max}, got {value}"));
            }
        }
        // A surviving rank waits up to `timeout_ms × (retries + 1)` on a
        // stalled peer without polling any cancel token, so these bound
        // how long a job can hold a server worker past its deadline.
        const MAX_CHAOS_TIMEOUT_MS: u64 = 60_000;
        const MAX_CHAOS_RETRIES: u32 = 32;
        if let Some(c) = &self.chaos {
            if c.timeout_ms == 0 {
                return reject("chaos", "drain timeout must be non-zero");
            }
            if c.timeout_ms > MAX_CHAOS_TIMEOUT_MS {
                let got = c.timeout_ms;
                return reject(
                    "chaos",
                    &format!("drain timeout exceeds {MAX_CHAOS_TIMEOUT_MS} ms, got {got}"),
                );
            }
            if c.retries > MAX_CHAOS_RETRIES {
                let got = c.retries;
                return reject(
                    "chaos",
                    &format!("more than {MAX_CHAOS_RETRIES} repair rounds, got {got}"),
                );
            }
            if c.rates.in_order().iter().any(|&permille| permille > 1000) {
                return reject("chaos", "a fault rate exceeds 1000 permille");
            }
            // A kill that cannot fire, or that leaves no survivor, is
            // refused rather than ignored.
            if let Some((step, rank)) = c.kill {
                if self.k < 2 {
                    return reject("chaos", "a rank kill needs k >= 2 to leave a survivor");
                }
                if rank as usize >= self.k || step >= snapshots {
                    let k = self.k;
                    return reject(
                        "chaos",
                        &format!("kill {step}:{rank} names no rank < {k} at a step < {snapshots}"),
                    );
                }
            }
        }
        Ok(())
    }
}

/// Validating builder for [`TraceOptions`] — see [`TraceOptions::builder`].
#[derive(Debug, Clone)]
pub struct TraceOptionsBuilder {
    opts: TraceOptions,
}

impl TraceOptionsBuilder {
    /// Scenario name (checked against the registry at [`Self::build`]).
    pub fn scenario(mut self, name: impl Into<String>) -> Self {
        self.opts.scenario = name.into();
        self
    }

    /// Number of logical ranks (≥ 1).
    pub fn k(mut self, k: usize) -> Self {
        self.opts.k = k;
        self
    }

    /// Snapshot-count override (≥ 1).
    pub fn snapshots(mut self, n: usize) -> Self {
        self.opts.snapshots = Some(n);
        self
    }

    /// Partitioner seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.opts.seed = seed;
        self
    }

    /// Diffusion-repartition period (`None` = fixed decomposition).
    pub fn repartition_period(mut self, period: Option<usize>) -> Self {
        self.opts.repartition_period = period;
        self
    }

    /// Fault injection (`None` = clean run).
    pub fn chaos(mut self, chaos: Option<ChaosOptions>) -> Self {
        self.opts.chaos = chaos;
        self
    }

    /// Send-ahead window of the rank loop (≥ 1).
    pub fn lookahead(mut self, lookahead: usize) -> Self {
        self.opts.lookahead = lookahead;
        self
    }

    /// Longest stretch of steps one batch may cover (≥ 1).
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.opts.max_batch = max_batch;
        self
    }

    /// Where the ranks live and what carries their messages.
    pub fn transport(mut self, transport: TransportKind) -> Self {
        self.opts.transport = transport;
        self
    }

    /// Validates every option and returns the finished [`TraceOptions`].
    pub fn build(self) -> Result<TraceOptions, TraceError> {
        self.opts.validate()?;
        Ok(self.opts)
    }
}

/// Resolves a scenario name through the registry
/// ([`cip_sim::scenarios::get`]). An unknown name is a
/// [`TraceError::UnknownScenario`] listing the valid alternatives.
pub fn scenario_config(name: &str) -> Result<SimConfig, TraceError> {
    scenarios::get(name)
        .map(|d| d.config())
        .ok_or_else(|| TraceError::UnknownScenario { name: name.to_string() })
}

/// The simulation a run needs: the scenario's configuration with the
/// snapshot override applied, and the key a cache keeps the finished
/// run under — the scenario name and the resolved snapshot count, which
/// together fix every input of `cip_sim::run`. Both come from
/// [`SimSpec::resolve`], so they cannot drift apart.
#[derive(Debug, Clone)]
pub struct SimSpec {
    /// What `cip_sim::run` is given.
    pub config: SimConfig,
    /// Names the run: equal keys mean bit-identical runs.
    pub key: Vec<u8>,
}

impl SimSpec {
    /// Resolves `scenario` through the registry and applies `snapshots`.
    pub fn resolve(scenario: &str, snapshots: Option<usize>) -> Result<Self, TraceError> {
        let mut config = scenario_config(scenario)?;
        if let Some(s) = snapshots {
            config.snapshots = s;
        }
        let mut key = scenario.as_bytes().to_vec();
        key.push(0);
        key.extend_from_slice(&(config.snapshots as u64).to_le_bytes());
        Ok(Self { config, key })
    }

    /// Runs the simulation.
    pub fn run(&self) -> SimResult {
        cip_sim::run(&self.config)
    }
}

/// A completed traced run: the recorder (still holding every event) plus
/// the executed totals the telemetry must agree with.
#[derive(Debug)]
pub struct TraceReport {
    /// The recorder that observed the run.
    pub recorder: Recorder,
    /// Ranks used.
    pub k: usize,
    /// Steps executed.
    pub steps: usize,
    /// Total executed halo traffic (sum of per-step
    /// [`cip_runtime::TrafficLog::total_halo`]).
    pub halo: u64,
    /// Total executed element shipments.
    pub shipments: u64,
    /// Total nodes migrated by repartitioning.
    pub migrated: u64,
    /// Total contact pairs detected.
    pub contact_pairs: u64,
    /// Repartitions performed.
    pub repartitions: usize,
    /// Ranks lost to faults over the run (each one recovered by
    /// repartitioning over the survivors).
    pub rank_losses: usize,
}

impl TraceReport {
    /// The chrome://tracing JSON of the run.
    pub fn chrome_trace(&self) -> String {
        self.recorder.chrome_trace().expect("trace recorder is always enabled")
    }

    /// The aggregated span/counter/histogram summary.
    pub fn summary(&self) -> Summary {
        self.recorder.summary().expect("trace recorder is always enabled")
    }

    /// The full `summary.json` document: executed totals next to the
    /// telemetry summary, wrapped in the shared results envelope
    /// ([`cip_core::RESULTS_SCHEMA`]).
    pub fn summary_json(&self) -> String {
        let payload = format!(
            "{{\"totals\":{},\"telemetry\":{}}}",
            TraceTotals::from_report(self).to_json(),
            self.summary().to_json()
        );
        cip_core::results_document("trace-summary", &payload)
    }

    /// Verifies the acceptance invariant: the summary's traffic counters
    /// equal the executed totals exactly. Returns a
    /// [`TraceError::TotalsMismatch`] naming the first mismatch.
    pub fn verify_totals(&self) -> Result<(), TraceError> {
        let checks = [
            ("traffic.halo_units", self.halo),
            ("traffic.shipment_units", self.shipments),
            ("traffic.migrated_units", self.migrated),
        ];
        for (name, expect) in checks {
            let got = self.recorder.counter_value(name);
            if got != expect {
                return Err(TraceError::TotalsMismatch { counter: name, got, expected: expect });
            }
        }
        Ok(())
    }
}

/// Cancellation and budget for one [`Session::advance`] call.
///
/// The default control never cancels and never exhausts — `advance`
/// runs to completion, which is exactly what [`run_traced`] does.
#[derive(Debug, Clone, Default)]
pub struct RunControl {
    /// Checked at every batch boundary; when tripped, `advance` winds
    /// down cleanly and returns [`Advance::Cancelled`]. Committed steps
    /// stay committed — the session can still report what it executed.
    pub cancel: CancelToken,
    /// Step budget for this `advance` call.
    pub budget: RunBudget,
}

/// A step budget for one [`Session::advance`] call — the quantum a
/// caller slices a session into. `None` is unlimited; the bound is
/// checked at batch boundaries, so a budget never tears a batch.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunBudget {
    /// Commit at most this many steps in this call.
    pub max_steps: Option<usize>,
}

impl RunBudget {
    /// A budget of at most `n` committed steps.
    pub fn steps(n: usize) -> Self {
        Self { max_steps: Some(n) }
    }
}

/// Why [`Session::advance`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Advance {
    /// Every step has been executed; [`Session::into_report`] is ready.
    Finished,
    /// The step budget ran out at a batch boundary; call `advance` again
    /// to continue.
    BudgetExhausted,
    /// The cancel token tripped; the session stops scheduling batches.
    Cancelled,
}

/// A resumable traced run: `build → advance … → into_report`.
///
/// [`Session::build`] resolves the scenario, runs the simulation, and
/// computes the initial MCML+DT decomposition (spawning the worker pool
/// in multi-process mode; rank-thread modes connect their mesh at the
/// first batch and keep it for the session, reconnecting only over the
/// survivors of a rank loss). [`Session::advance`] then executes batches of
/// steps until it finishes — or until the [`RunControl`]'s cancel token
/// trips or its budget runs out, both checked at batch boundaries so
/// in-flight batches always commit or recover whole. A budget-exhausted
/// session resumes exactly where it stopped on the next `advance`.
/// [`run_traced`] is the one-shot wrapper; the job server drives
/// sessions directly so it can cancel and time-slice them.
pub struct Session {
    opts: TraceOptions,
    sim: Arc<SimResult>,
    rec: Recorder,
    /// How boundaries and recoveries repartition (see [`Session::build`]).
    cfg: McmlDtConfig,
    node_parts: Vec<u32>,
    pool: Option<WorkerPool>,
    seats: Vec<ChannelMailbox<Msg>>,
    route: Vec<u32>,
    epoch: u32,
    chain_start: usize,
    chain: Chain,
    live_k: usize,
    report: TraceReport,
    spent: Vec<bool>,
    boundaries_done: usize,
    next_plan: Option<(usize, (Vec<u32>, MigrationPlan))>,
    pending_migrate: Option<MigrationPlan>,
    next_step: usize,
}

impl Session {
    /// Builds a session: runs the scenario's simulation and the MCML+DT
    /// decomposition of snapshot 0 (and, in multi-process mode, spawns the
    /// worker pool).
    pub fn build(opts: &TraceOptions) -> Result<Self, TraceError> {
        Self::build_with(opts, |spec| (Arc::new(spec.run()), false))
    }

    /// [`Session::build`] over a simulation that `sim` supplies for the
    /// resolved [`SimSpec`], with a flag saying whether it reused a run
    /// rather than computing one. The job server's runner hands in its
    /// memo here, so jobs on one scenario share one run and the mesh
    /// topology cached inside it.
    pub fn build_with(
        opts: &TraceOptions,
        sim: impl FnOnce(&SimSpec) -> (Arc<SimResult>, bool),
    ) -> Result<Self, TraceError> {
        opts.validate()?;
        let spec = SimSpec::resolve(&opts.scenario, opts.snapshots)?;
        let k = opts.k;

        let rec = Recorder::enabled();
        // Ranks own lanes 0..k; the driver thread sits above them, and
        // the boundary planner beside each batch above the driver.
        rec.set_lane(k as u32);
        rec.name_lane(k as u32, "driver");
        rec.name_lane((k + 1) as u32, "planner");

        let sim = {
            let mut span = rec.span("sim.run").attr("snapshots", spec.config.snapshots);
            let (sim, reused) = sim(&spec);
            span.set_attr("reused", reused);
            span.set_attr("epochs", sim.num_epochs());
            sim
        };

        let mut pcfg = PartitionerConfig::with_seed(opts.seed);
        pcfg.recorder = rec.clone();

        // The paper's MCML+DT decomposition of snapshot 0; every boundary
        // and recovery after it diffuses, without the DT-friendly
        // correction.
        let mut cfg = McmlDtConfig { partitioner: pcfg, ..McmlDtConfig::paper(k) };
        let node_parts = {
            let _span = rec.span("session.partition").attr("k", k);
            let graph = contact_graph(&sim, 0, cfg.graph_options(), &rec);
            decompose(&graph, &sim.snapshots[0].points, &cfg).node_parts
        };
        cfg.repartition_method = RepartitionMethod::Diffusion;
        cfg.dt_friendly = None;

        // Multi-process mode: spawn the worker pool once; it outlives
        // every batch, repartition, and recovery (dead workers are
        // retired).
        let pool: Option<WorkerPool> = match &opts.transport {
            TransportKind::Workers { bind, worker_bin } => Some(WorkerPool::spawn(&PoolConfig {
                k,
                scenario: opts.scenario.clone(),
                snapshots: spec.config.snapshots,
                bind: bind.clone(),
                worker_bin: worker_bin.clone(),
            })?),
            _ => None,
        };

        let steps = sim.len();
        Ok(Self {
            opts: opts.clone(),
            sim,
            rec: rec.clone(),
            cfg,
            node_parts,
            pool,
            // Rank-thread modes: the mesh the rank threads run over,
            // connected by the first batch and again only after a failed
            // one (whose survivors are fewer).
            seats: Vec::new(),
            // `epoch` grows by every *attempted* batch, so a frame still
            // in flight when a batch ends or aborts can never alias into
            // a live step of a later one on the same mesh. Pool
            // bookkeeping: `route[live]` = worker id playing live rank
            // `live`, and `chain_start` is the snapshot where the
            // current search-tree chain was induced, which tells workers
            // whether a batch starts a chain or continues the one they
            // carry (the assignment is constant within a chain — it only
            // changes where the chain resets). `chain` is what staging
            // carries along it: the last tree and the halo plan.
            route: (0..k as u32).collect(),
            epoch: 0,
            chain_start: 0,
            chain: Chain::default(),
            live_k: k,
            report: TraceReport {
                recorder: rec,
                k,
                steps: 0,
                halo: 0,
                shipments: 0,
                migrated: 0,
                contact_pairs: 0,
                repartitions: 0,
                rank_losses: 0,
            },
            // Faults apply to the first attempt of a step only — the
            // recovery re-execution runs clean (the injected fate stream
            // of a step is considered "spent" once its failure has been
            // handled).
            spent: vec![false; steps],
            // Repartition boundaries fire once per period region even
            // when a failed batch resumes exactly at a boundary step:
            // the monotone region counter makes re-firing impossible by
            // construction.
            boundaries_done: 0,
            // Repartition state (DESIGN.md §6b): the next boundary's
            // plan, made beside a committed batch and keyed by that
            // boundary (a recovery drops it with the assignment it was
            // computed from), and a plan accepted at the last boundary
            // whose node migration still has to ride the next batch's
            // Migrate prologue.
            next_plan: None,
            pending_migrate: None,
            next_step: 0,
        })
    }

    /// Steps committed so far.
    pub fn executed(&self) -> usize {
        self.next_step
    }

    /// Whether every step has been committed.
    pub fn is_finished(&self) -> bool {
        self.next_step >= self.sim.len()
    }

    /// Finishes the session: the report of everything committed so far.
    /// `steps` is the *executed* count — equal to the scenario length
    /// for a finished session, smaller for a cancelled one.
    pub fn into_report(mut self) -> TraceReport {
        self.report.steps = self.next_step;
        self.report
    }

    /// Executes batches until the run finishes, the control's budget
    /// runs out, or its cancel token trips — all checked at batch
    /// boundaries, so batches always commit (or recover) whole.
    pub fn advance(&mut self, ctrl: &RunControl) -> Result<Advance, TraceError> {
        let start_step = self.next_step;
        let rec = self.rec.clone();
        let k = self.opts.k;
        let max_batch = self.opts.max_batch.max(1);
        while self.next_step < self.sim.len() {
            // Checkpoint: cancellation and budget, between batches only.
            if ctrl.cancel.is_cancelled() {
                rec.add("session.cancelled", 1);
                return Ok(Advance::Cancelled);
            }
            if let Some(max) = ctrl.budget.max_steps {
                if self.next_step - start_step >= max {
                    return Ok(Advance::BudgetExhausted);
                }
            }
            let i = self.next_step;
            // §4.3 hybrid policy: periodic diffusion repartition +
            // executed migration. Boundaries end every batch; the plan
            // was made beside an earlier batch of the region and the
            // driver only flips `node_parts` here — the migration itself
            // rides the next batch as a prologue.
            let period = self.opts.repartition_period.filter(|&p| p > 0);
            if let Some(period) = period {
                let region = i / period;
                if i > 0
                    && i.is_multiple_of(period)
                    && region > self.boundaries_done
                    && self.live_k >= 2
                {
                    self.boundaries_done = region;
                    let stored = self.next_plan.take().filter(|(at, _)| *at == i);
                    let (new_node_parts, plan) = match stored {
                        Some((_, plan)) => plan,
                        // Nothing stored: plan here, the same call a
                        // recovery makes. The whole plan is a stall.
                        None => {
                            let _stall = rec.span("repartition.stall").attr("boundary", i as u64);
                            plan_boundary(&self.sim, i, self.live_k, &self.node_parts, &self.cfg)
                        }
                    };
                    self.commit_repartition(&new_node_parts, &plan);
                    if !plan.is_empty() {
                        self.pending_migrate = Some(plan);
                    }
                    // The decomposition changed: the old tree and halo
                    // plan no longer match the labels, so start a chain.
                    self.chain = Chain::default();
                    self.chain_start = i;
                }
            }

            // Batch every step up to the next repartition boundary
            // (capped at `max_batch` so the per-batch state stays
            // small) and hand the whole stretch to the executor.
            let mut end = (i + max_batch).min(self.sim.len());
            let mut plan_at = None;
            if let Some(period) = period {
                let boundary = (i / period + 1) * period;
                end = end.min(boundary);
                // Plan the region's closing boundary beside the first
                // batch that starts with no plan stored — the region's
                // first, or the first after a recovery dropped the plan.
                // The simulation snapshots are precomputed, so the
                // planner reads exactly the inputs the boundary will
                // read — the plan is bit-identical to the synchronous one
                // by construction (DESIGN.md §6b, snapshot-staleness rule).
                if self.next_plan.is_none() && self.live_k >= 2 && boundary < self.sim.len() {
                    plan_at = Some(boundary);
                }
            }

            let faults: Vec<Option<FaultPlan>> = (i..end)
                .map(|j| {
                    if self.spent[j] {
                        None
                    } else {
                        step_fault(&self.opts.chaos, j, self.live_k)
                    }
                })
                .collect();
            let exec_opts = exec_options(&self.opts);

            // A serial survivor (live_k == 1) exchanges no messages, so
            // the pool adds nothing — run it in-process like the other
            // modes.
            let pooled = self.live_k >= 2 && self.pool.is_some();
            if !pooled && self.seats.len() != self.live_k {
                self.seats = match &self.opts.transport {
                    TransportKind::TcpThreads { bind } => {
                        let tcp = Tcp { bind: bind.clone() };
                        connect_ranks(&tcp, self.live_k, &exec_opts, &rec)
                    }
                    _ => connect_ranks(&InProcess, self.live_k, &exec_opts, &rec),
                }?;
            }
            let (sim, node_parts, cfg, live_k) =
                (&*self.sim, &self.node_parts, &self.cfg, self.live_k);
            let ((result, carried_tree), planned) = std::thread::scope(|scope| {
                // The planner borrows what the batch only reads, on a
                // thread that lives as long as the batch.
                let planner = plan_at.map(|boundary| {
                    let handle = scope.spawn(move || {
                        let rec = &cfg.partitioner.recorder;
                        rec.set_lane((k + 1) as u32);
                        let _compute = rec.span("replan.compute").attr("boundary", boundary as u64);
                        let t0 = Instant::now();
                        let plan = plan_boundary(sim, boundary, live_k, node_parts, cfg);
                        (plan, t0.elapsed())
                    });
                    (boundary, handle)
                });
                let ran = match self.pool.as_mut().filter(|_| pooled) {
                    Some(pool) => {
                        // The workers stage the step inputs themselves
                        // (each carries its own tree chain), so the
                        // driver only ships its mutable state and folds the
                        // reported outcomes — the same fold the in-process
                        // executor applies to its joined threads.
                        let spec = RunSpec {
                            start: i as u32,
                            end: end as u32,
                            chain_start: self.chain_start as u32,
                            live_k: live_k as u32,
                            rank: 0, // set per worker by `execute_batch`
                            epoch: self.epoch,
                            node_parts: node_parts.clone(),
                            route: self.route.clone(),
                            plans: faults,
                            migrate: self.pending_migrate.as_ref().map(|p| p.moves.clone()),
                            timeout_ms: exec_opts.timeout.as_millis() as u64,
                            retries: exec_opts.retries,
                            lookahead: exec_opts.lookahead as u32,
                        };
                        let outcomes = pool.execute_batch(spec, &rec);
                        let recorders = vec![rec.clone(); end - i];
                        (collect_batch(live_k, &recorders, outcomes), None)
                    }
                    None => {
                        // Staging is executor-independent, so the whole
                        // batch is prepared before any rank thread starts.
                        let mut staged =
                            stage_batch(sim, node_parts, live_k, &mut self.chain, i..end, &rec);
                        let migrate = self.pending_migrate.as_ref();
                        let (seats, epoch) = (&mut self.seats, self.epoch);
                        let result = with_staged_inputs(sim, &staged, &rec, |inputs| {
                            execute_steps(inputs, &faults, &exec_opts, migrate, seats, epoch)
                        });
                        (result, staged.pop().map(|s| s.tree))
                    }
                };
                // Join after the batch: any wait here is the plan's stall.
                let planned = planner.map(|(boundary, handle)| {
                    let mut span = rec.span("repartition.stall").attr("boundary", boundary as u64);
                    let waited = Instant::now();
                    let (plan, compute) =
                        handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                    let stall = waited.elapsed();
                    let hidden = compute.saturating_sub(stall);
                    span.set_attr("stall_us", stall.as_micros() as u64);
                    span.set_attr("hidden_us", hidden.as_micros() as u64);
                    rec.add("repartition.overlap.hidden_ms", hidden.as_millis() as u64);
                    (boundary, plan)
                });
                (ran, planned)
            });
            self.epoch += (end - i) as u32;

            match result {
                Ok(outs) => {
                    for (off, out) in outs.iter().enumerate() {
                        commit_step(&mut self.report, i + off, out);
                    }
                    // The Migrate prologue (if any) executed with the
                    // batch.
                    self.pending_migrate = None;
                    self.chain.tree = carried_tree;
                    self.next_step = end;
                    if planned.is_some() {
                        rec.add("repartition.overlap.planned", 1);
                        self.next_plan = planned;
                    }
                }
                Err(BatchError { completed, failed_step, error }) => {
                    // The plan made beside this batch, or stored before
                    // it, was computed from the assignment the recovery
                    // is about to change: drop it. The next boundary is
                    // planned again over the survivors.
                    if planned.or(self.next_plan.take()).is_some() {
                        rec.add("repartition.plan.discarded", 1);
                    }
                    for (off, out) in completed.iter().enumerate() {
                        commit_step(&mut self.report, i + off, out);
                    }
                    let failed = i + failed_step;
                    let dead = match error {
                        RuntimeError::RankLost { dead, .. } => dead,
                        RuntimeError::RankPanicked { rank } => vec![rank],
                        // Not a rank death: the transport itself is
                        // broken (mesh construction, fatal socket
                        // failure) — there is nothing to recover over.
                        RuntimeError::Transport(e) => {
                            return Err(RuntimeError::Transport(e).into());
                        }
                    };
                    let mut span = rec.span("recovery.repartition").attr("step", failed);
                    span.set_attr("dead", dead.len());
                    self.report.rank_losses += dead.len();
                    self.pending_migrate = None;
                    // The survivors get a mesh of their own size.
                    self.seats.clear();
                    // Retire the dead ranks' worker processes and route
                    // the surviving live ranks onto the surviving
                    // workers, in the same order
                    // `compact_parts_after_loss` relabels.
                    if let Some(p) = self.pool.as_mut() {
                        let dead_workers: Vec<u32> = dead
                            .iter()
                            .filter_map(|&d| self.route.get(d as usize).copied())
                            .collect();
                        p.retire(&dead_workers);
                        self.route = self
                            .route
                            .iter()
                            .enumerate()
                            .filter(|&(live, _)| !dead.contains(&(live as u32)))
                            .map(|(_, &w)| w)
                            .collect();
                    }
                    if dead.len() + 2 <= self.live_k {
                        self.live_k =
                            compact_parts_after_loss(&mut self.node_parts, self.live_k, &dead);
                        let (new_node_parts, plan) = plan_boundary(
                            &self.sim,
                            failed,
                            self.live_k,
                            &self.node_parts,
                            &self.cfg,
                        );
                        self.commit_repartition(&new_node_parts, &plan);
                    } else {
                        // Fewer than two survivors: collapse to a single
                        // rank — the executor degenerates to the serial
                        // contact search with no messages. Every live
                        // node, the dead ranks' included, goes to rank 0.
                        self.live_k = 1;
                        for p in self.node_parts.iter_mut() {
                            if *p != u32::MAX {
                                *p = 0;
                            }
                        }
                        rec.add("recovery.serial_fallback", 1);
                    }
                    self.chain = Chain::default();
                    self.chain_start = failed;
                    self.spent[failed] = true;
                    self.next_step = failed;
                }
            }
        }
        Ok(Advance::Finished)
    }

    /// Applies a repartition planned from the current assignment: charges
    /// its migration to telemetry — the `migrate.plan` span and the
    /// `traffic.migrated_units` counter, once, when the plan is applied,
    /// so [`TraceReport::verify_totals`] stays an exact equality — and to
    /// the report, and moves the live nodes.
    fn commit_repartition(&mut self, new_node_parts: &[u32], plan: &MigrationPlan) {
        let nodes = self.node_parts.len();
        let mut span = self.rec.span("migrate.plan").attr("nodes", nodes).attr("k", plan.k);
        span.set_attr("moved", plan.total_moved());
        self.rec.add("traffic.migrated_units", plan.total_moved());
        self.report.migrated += plan.total_moved();
        self.report.repartitions += 1;
        merge_live(&mut self.node_parts, new_node_parts);
    }
}

/// Runs `opts` end to end with telemetry enabled — the one-shot wrapper
/// over [`Session`]: build, advance to completion (no cancellation, no
/// budget), report.
///
/// Returns `Err` for an invalid configuration, an unknown scenario
/// name, or a transport that could not be brought up (worker spawn,
/// mesh construction).
pub fn run_traced(opts: &TraceOptions) -> Result<TraceReport, TraceError> {
    let mut session = Session::build(opts)?;
    let advance = session.advance(&RunControl::default())?;
    debug_assert_eq!(advance, Advance::Finished, "default control cannot stop early");
    Ok(session.into_report())
}

/// Computes the repartition of snapshot `at` from the current
/// assignment over the `live_k` ranks — a boundary's or a recovery's:
/// the new node assignment and the migration plan to it. The plan is
/// deliberately **unrecorded** — a plan made beside a batch may be
/// dropped before it is applied, and a dropped plan must not pollute the
/// traffic counters. [`Session::commit_repartition`] charges telemetry on
/// acceptance. (The topology lookup does report: a topology built for a
/// discarded plan still serves the following steps.)
fn plan_boundary(
    sim: &SimResult,
    at: usize,
    live_k: usize,
    node_parts: &[u32],
    cfg: &McmlDtConfig,
) -> (Vec<u32>, MigrationPlan) {
    let graph = contact_graph(sim, at, cfg.graph_options(), &cfg.partitioner.recorder);
    let new_node_parts =
        repartition_step(&graph, &sim.snapshots[at].points, node_parts, live_k, cfg);
    let plan = build_migration(node_parts, &new_node_parts, live_k);
    (new_node_parts, plan)
}

/// Folds one committed step's output into the report.
fn commit_step(report: &mut TraceReport, step: usize, out: &cip_runtime::StepOutput) {
    assert_eq!(out.ghost_mismatches, 0, "step {step}: halo exchange delivered stale ghosts");
    report.halo += out.traffic.total_halo();
    report.shipments += out.traffic.total_shipments();
    report.contact_pairs += out.contact_pairs.len() as u64;
}

/// The per-step fault plan of a chaos run (`None` outside chaos mode;
/// a kill only names a rank that still exists).
fn step_fault(chaos: &Option<ChaosOptions>, step: usize, live_k: usize) -> Option<FaultPlan> {
    let c = chaos.as_ref()?;
    let mut plan = FaultPlan { seed: c.seed, rates: c.rates, kill: None }.for_step(step as u64);
    if let Some((kill_step, rank)) = c.kill {
        if kill_step == step && (rank as usize) < live_k {
            plan.kill = Some(KillSpec { rank, after_sends: 0 });
        }
    }
    Some(plan)
}

/// Executor options for one batch: chaos runs get the configured
/// loss-detection budget, clean runs the defaults. Per-step fault plans
/// travel separately through the executor's `faults` slice.
fn exec_options(opts: &TraceOptions) -> ExecOptions {
    let base = ExecOptions { lookahead: opts.lookahead, ..ExecOptions::default() };
    match &opts.chaos {
        None => base,
        Some(c) => {
            ExecOptions { timeout: Duration::from_millis(c.timeout_ms), retries: c.retries, ..base }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cip_telemetry::json;

    fn tiny_report() -> TraceReport {
        run_traced(&TraceOptions {
            scenario: "tiny".to_string(),
            k: 2,
            snapshots: Some(4),
            seed: 7,
            repartition_period: Some(2),
            chaos: None,
            ..TraceOptions::default()
        })
        .expect("tiny scenario runs")
    }

    #[test]
    fn unknown_scenario_is_an_error() {
        let err =
            run_traced(&TraceOptions { scenario: "bogus".to_string(), ..TraceOptions::default() });
        assert!(matches!(err, Err(TraceError::UnknownScenario { ref name }) if name == "bogus"));
        let msg = err.unwrap_err().to_string();
        assert!(msg.contains("bogus") && msg.contains("head_on"), "{msg}");
        assert!(scenario_config("head_on").is_ok());
        assert!(scenario_config("bogus").is_err());
    }

    #[test]
    fn builder_validates_and_rejects_bad_options() {
        let opts = TraceOptions::builder()
            .scenario("tiny")
            .k(2)
            .snapshots(3)
            .seed(7)
            .lookahead(1)
            .build()
            .expect("valid options build");
        assert_eq!(opts.scenario, "tiny");
        assert_eq!(opts.k, 2);
        assert_eq!(opts.snapshots, Some(3));

        let err = TraceOptions::builder().scenario("nope").build();
        assert!(matches!(err, Err(TraceError::UnknownScenario { .. })));
        let err = TraceOptions::builder().k(0).build();
        assert!(matches!(err, Err(TraceError::Config(ref c)) if c.field == "k"));
        let err = TraceOptions::builder().max_batch(0).build();
        assert!(matches!(err, Err(TraceError::Config(ref c)) if c.field == "max_batch"));
        let err = TraceOptions::builder().snapshots(0).build();
        assert!(matches!(err, Err(TraceError::Config(ref c)) if c.field == "snapshots"));
        let err = TraceOptions::builder().lookahead(0).build();
        assert!(matches!(err, Err(TraceError::Config(ref c)) if c.field == "lookahead"));
        let err = TraceOptions::builder()
            .chaos(Some(ChaosOptions { timeout_ms: 0, ..ChaosOptions::default() }))
            .build();
        assert!(matches!(err, Err(TraceError::Config(ref c)) if c.field == "chaos"));
        // Session::build enforces the same rules on literal structs.
        let err = Session::build(&TraceOptions { max_batch: 0, ..TraceOptions::default() });
        assert!(matches!(err, Err(TraceError::Config(ref c)) if c.field == "max_batch"));
        // The error type is a real std error with a source chain.
        let e = TraceOptions::builder().k(0).build().unwrap_err();
        let dyn_err: &dyn std::error::Error = &e;
        assert!(dyn_err.source().is_some());
    }

    #[test]
    fn session_resumes_across_step_budgets_bit_identically() {
        let opts = TraceOptions::builder()
            .scenario("tiny")
            .k(2)
            .snapshots(4)
            .seed(7)
            .repartition_period(Some(2))
            // One step per batch so the 1-step budget bites every round
            // (budgets never tear a batch, they stop at its boundary).
            .max_batch(1)
            .build()
            .expect("valid options");
        let oneshot = run_traced(&opts).expect("one-shot run");

        let mut session = Session::build(&opts).expect("session builds");
        let budgeted = RunControl { budget: RunBudget::steps(1), ..RunControl::default() };
        let mut rounds = 0;
        loop {
            rounds += 1;
            match session.advance(&budgeted).expect("advance") {
                Advance::Finished => break,
                Advance::BudgetExhausted => continue,
                Advance::Cancelled => panic!("nothing cancelled this session"),
            }
        }
        assert!(rounds >= 4, "a 1-step budget over 4 snapshots takes >= 4 rounds, got {rounds}");
        assert!(session.is_finished());
        let resumed = session.into_report();
        assert_eq!(resumed.steps, oneshot.steps);
        assert_eq!(resumed.halo, oneshot.halo);
        assert_eq!(resumed.shipments, oneshot.shipments);
        assert_eq!(resumed.contact_pairs, oneshot.contact_pairs);
        assert_eq!(resumed.migrated, oneshot.migrated);
        assert_eq!(resumed.repartitions, oneshot.repartitions);
        // The boundary-2 plan made beside batch [0, 1) outlives that
        // `advance` call and is the one the boundary uses.
        assert_eq!(resumed.recorder.counter_value("repartition.overlap.planned"), 1);
        assert_eq!(resumed.recorder.counter_value("repartition.plan.discarded"), 0);
        assert_eq!(resumed.repartitions, 1);
        resumed.verify_totals().expect("budgeted counters stay exact");
    }

    #[test]
    fn cancelled_session_stops_at_a_batch_boundary() {
        let opts = TraceOptions::builder()
            .scenario("tiny")
            .k(2)
            .snapshots(4)
            .seed(7)
            .max_batch(1)
            .build()
            .expect("valid options");
        let mut session = Session::build(&opts).expect("session builds");
        let ctrl = RunControl::default();
        ctrl.cancel.cancel();
        assert_eq!(session.advance(&ctrl).expect("advance"), Advance::Cancelled);
        assert_eq!(session.executed(), 0, "pre-tripped token cancels before the first batch");
        assert!(!session.is_finished());
        // A fresh control resumes the same session to completion.
        assert_eq!(session.advance(&RunControl::default()).expect("advance"), Advance::Finished);
        let report = session.into_report();
        assert_eq!(report.steps, 4);
        report.verify_totals().expect("resumed-after-cancel counters stay exact");
    }

    #[test]
    fn summary_totals_match_traffic_log() {
        let report = tiny_report();
        report.verify_totals().expect("summary counters must equal executed totals");
        assert!(report.repartitions >= 1, "period 2 over 4 snapshots must repartition");
    }

    #[test]
    fn chrome_trace_is_valid_json_with_rank_lanes() {
        let report = tiny_report();
        let trace = report.chrome_trace();
        json::validate(&trace).expect("chrome trace must be valid JSON");
        // One thread-name row per rank, plus the phase spans on them.
        for rank in 0..report.k {
            assert!(trace.contains(&format!("\"rank {rank}\"")), "missing lane for rank {rank}");
        }
        assert!(trace.contains("\"driver\""), "missing the driver lane label");
        // There is no drain phase to span: a rank searches a step as
        // soon as its own inputs for it have arrived.
        for name in ["exec.halo", "exec.ship", "exec.search", "dtree.induce", "trace.step"] {
            assert!(trace.contains(&format!("\"name\":\"{name}\"")), "missing span {name}");
        }
    }

    #[test]
    fn summary_json_is_valid_and_self_describing() {
        let report = tiny_report();
        let doc = report.summary_json();
        json::validate(&doc).expect("summary.json must be valid JSON");
        assert!(doc.contains(&format!("\"schema\":\"{}\"", cip_core::RESULTS_SCHEMA)));
        assert!(doc.contains("\"totals\":"));
        assert!(doc.contains("traffic.halo_units"));
    }

    #[test]
    fn refresh_is_exercised_between_steps() {
        let report = run_traced(&TraceOptions {
            scenario: "tiny".to_string(),
            k: 2,
            snapshots: Some(3),
            seed: 1,
            repartition_period: None,
            chaos: None,
            ..TraceOptions::default()
        })
        .expect("tiny scenario runs");
        let summary = report.summary();
        // 1 fresh induction + 2 incremental refreshes (refresh may nest
        // further inductions for impure leaves, so only a lower bound on
        // induce counts holds).
        assert_eq!(summary.span("dtree.refresh").map(|s| s.count), Some(2));
        assert!(summary.span("dtree.induce").map(|s| s.count).unwrap_or(0) >= 1);
    }

    #[test]
    fn topology_is_built_once_per_epoch_touched() {
        let opts = TraceOptions {
            scenario: "head_on".to_string(),
            k: 2,
            snapshots: Some(12),
            seed: 1,
            repartition_period: Some(4),
            chaos: None,
            ..TraceOptions::default()
        };
        let report = run_traced(&opts).expect("head_on runs");
        // Every snapshot is staged, so every epoch of the run is touched.
        let mut scfg = scenario_config(&opts.scenario).expect("registered");
        scfg.snapshots = 12;
        let sim = cip_sim::run(&scfg);
        let epochs = sim.num_epochs();
        assert!((2..sim.len()).contains(&epochs), "{epochs} epochs cannot show a cold cache");
        let rec = &report.recorder;
        let builds = rec.counter_value("mesh.topology.builds");
        assert_eq!(builds, epochs as u64);
        // A topology is looked up once for the initial decomposition, once
        // per boundary plan — whichever thread computed it — and once per
        // halo plan: staging asks for one per (chain, epoch) pair, not per
        // step. Chains start at 0, 4 and 8.
        assert_eq!(report.repartitions, 2);
        let pairs: std::collections::BTreeSet<(usize, usize)> =
            (0..sim.len()).map(|j| (j / 4, sim.epoch_of(j))).collect();
        assert!(pairs.len() < report.steps, "{} plans cannot show sharing", pairs.len());
        let plans = rec.counter_value("stage.halo_plan.builds");
        assert_eq!(plans, pairs.len() as u64);
        assert_eq!(plans + rec.counter_value("stage.halo_plan.hits"), report.steps as u64);
        assert_eq!(report.summary().span("stage.halo_plan").map(|s| s.count), Some(plans));
        let lookups = 1 + report.repartitions as u64 + plans;
        assert_eq!(builds + rec.counter_value("mesh.topology.hits"), lookups);
        assert_eq!(report.summary().span("mesh.topology.build").map(|s| s.count), Some(builds));
        assert!(report.summary_json().contains("mesh.topology.hits"));
    }

    #[test]
    fn clean_session_connects_once_and_ships_in_bulk() {
        for transport in
            [TransportKind::InProcess, TransportKind::TcpThreads { bind: "127.0.0.1:0".into() }]
        {
            let opts = TraceOptions { transport, ..TraceOptions::default() };
            let report = run_traced(&opts).expect("head_on runs");
            assert_eq!((report.steps, report.rank_losses), (100, 0));
            report.verify_totals().expect("counters equal executed traffic");
            let rec = &report.recorder;
            // 20 batches (period 10, max_batch 8), one mesh.
            assert_eq!(rec.counter_value("transport.mesh.connects"), 1, "{:?}", opts.transport);
            // Per step and ordered rank pair: at most one halo payload,
            // one shipment payload, and the `Done` trailer.
            let pairs = (opts.k * (opts.k - 1)) as u64;
            let msgs = rec.counter_value("exec.msgs_sent");
            assert!(msgs <= 100 * (2 * pairs + pairs), "{msgs} messages in 100 steps");
            assert!(report.shipments > 100 * pairs, "head_on must ship in bulk to show it");
            let shipped = report.summary().histogram("exec.ship_msg_elements").map(|h| h.count);
            assert!(shipped.is_some_and(|n| n <= 100 * pairs), "{shipped:?} shipment messages");
        }
    }

    #[test]
    fn clean_head_on_searches_only_the_contact_zone() {
        let report = run_traced(&TraceOptions::default()).expect("head_on runs");
        // The cull changes what the search looks at, never what it finds.
        assert_eq!(
            (report.steps, report.contact_pairs, report.halo, report.shipments),
            (100, 110_416, 86_980, 188_938)
        );
        // Every `exec.search` span says how many elements the rank held
        // and how many lay in the cross-body contact zone.
        let trace = report.recorder.chrome_trace().expect("trace recorder is always enabled");
        let attr = |line: &str, key: &str| -> u64 {
            let at = line.find(key).unwrap_or_else(|| panic!("no {key} in {line}")) + key.len();
            let digits: String = line[at..].chars().take_while(char::is_ascii_digit).collect();
            digits.parse().expect("integer attribute")
        };
        let (mut spans, mut local, mut active) = (0u64, 0u64, 0u64);
        for line in trace.lines().filter(|l| l.contains("\"name\":\"exec.search\"")) {
            spans += 1;
            local += attr(line, "\"local\":");
            active += attr(line, "\"active\":");
            assert_eq!(
                attr(line, "\"local\":"),
                attr(line, "\"owned\":") + attr(line, "\"received\":")
            );
        }
        assert_eq!(spans, 100 * TraceOptions::default().k as u64);
        assert!(4 * active <= local, "{active} of {local} local elements searched");
        assert!(active > 0, "head_on reaches contact");
        let hist = report.summary().histogram("exec.search_active").map(|h| (h.count, h.sum));
        assert_eq!(hist, Some((spans, active)));
    }

    #[test]
    fn killed_rank_is_recovered_and_pairs_match_the_clean_run() {
        let clean = run_traced(&TraceOptions {
            scenario: "tiny".to_string(),
            k: 3,
            snapshots: Some(4),
            seed: 7,
            repartition_period: None,
            chaos: None,
            ..TraceOptions::default()
        })
        .expect("tiny scenario runs");
        let chaotic = run_traced(&TraceOptions {
            scenario: "tiny".to_string(),
            k: 3,
            snapshots: Some(4),
            seed: 7,
            repartition_period: None,
            chaos: Some(ChaosOptions {
                seed: 21,
                kill: Some((1, 1)),
                timeout_ms: 300,
                retries: 2,
                ..ChaosOptions::default()
            }),
            ..TraceOptions::default()
        })
        .expect("chaos run recovers");
        // The distributed search equals the serial oracle at any k, so the
        // recovered run finds exactly the clean run's pairs.
        assert_eq!(chaotic.contact_pairs, clean.contact_pairs);
        assert_eq!(chaotic.rank_losses, 1);
        assert!(chaotic.repartitions >= 1, "recovery must repartition the survivors");
        chaotic.verify_totals().expect("counters stay exact across a recovery");
        // The fault and recovery are observable in the summary: the
        // survivors' mesh is the one reconnect.
        let rec = &chaotic.recorder;
        assert_eq!(rec.counter_value("transport.mesh.connects"), 2);
        assert_eq!(rec.counter_value("fault.killed_ranks"), 1);
        assert_eq!(rec.counter_value("recovery.rank_dead"), 1);
        let summary = chaotic.summary();
        assert!(summary.span("recovery.repartition").map(|s| s.count).unwrap_or(0) >= 1);
        assert!(chaotic.summary_json().contains("fault.killed_ranks"));
    }

    #[test]
    fn message_chaos_run_matches_the_clean_run() {
        let clean = run_traced(&TraceOptions {
            scenario: "tiny".to_string(),
            k: 2,
            snapshots: Some(3),
            seed: 3,
            repartition_period: None,
            chaos: None,
            ..TraceOptions::default()
        })
        .expect("tiny scenario runs");
        let chaotic = run_traced(&TraceOptions {
            scenario: "tiny".to_string(),
            k: 2,
            snapshots: Some(3),
            seed: 3,
            repartition_period: None,
            chaos: Some(ChaosOptions {
                seed: 1337,
                rates: FaultRates {
                    drop_permille: 150,
                    dup_permille: 80,
                    delay_permille: 80,
                    reorder_permille: 80,
                },
                timeout_ms: 300,
                retries: 2,
                ..ChaosOptions::default()
            }),
            ..TraceOptions::default()
        })
        .expect("message faults are repaired in place");
        assert_eq!(chaotic.contact_pairs, clean.contact_pairs);
        assert_eq!(chaotic.halo, clean.halo, "first-transmission traffic is fault-invariant");
        assert_eq!(chaotic.rank_losses, 0);
        chaotic.verify_totals().expect("counters stay exact under message chaos");
    }
}
