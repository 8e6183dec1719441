//! Multi-process execution: the worker pool behind
//! `cip-trace --transport tcp` and the per-rank entry point behind the
//! `cip-worker` binary.
//!
//! One OS process per rank. The driver ([`WorkerPool`]) spawns `k`
//! workers, each of which binds a mesh listener, dials the driver's
//! control socket, and announces itself with [`Ctrl::Hello`]. The
//! driver gossips the collected mesh addresses back
//! ([`Ctrl::Peers`]), the workers assemble the rank-to-rank TCP mesh
//! among themselves ([`cip_transport::tcp::connect_mesh`]), and from
//! then on the control sockets carry only batch assignments
//! ([`Ctrl::Run`]) and their outcomes ([`Ctrl::Done`]). Both ends read
//! their control socket through a `BufReader` of
//! [`cip_transport::frame::READ_BUF`] bytes.
//!
//! A worker holds the full simulation (rebuilt deterministically from
//! the scenario name), so a [`RunSpec`] only needs the driver's mutable
//! state: the node assignment, the live-rank routing table, the
//! epoch base for [`SteppedMailbox`], and where the current search-tree
//! chain was induced. The node assignment changes exactly where the
//! tree chain resets (repartition and recovery), so a worker carries its
//! chain from batch to batch exactly as the driver does — a fresh one
//! where a batch starts one (`chain_start == start`), else the one its
//! last completed batch left — and its step inputs equal the in-process
//! driver's, and so do the totals. A batch that continues a chain the
//! worker does not carry is refused as a control-protocol violation.
//!
//! Failure model: a worker whose fault plan kills its rank reports
//! [`RankBatchOutcome::Dead`] and then exits — the logical death is a
//! real process death. A worker that dies *without* reporting (crash,
//! `kill -9`) is detected by the driver as control-channel EOF and
//! folded in as `Dead` at step 0 of the batch, which surfaces as
//! [`cip_runtime::RuntimeError::RankLost`] and drives the same
//! recovery path.

use crate::staging::{stage_batch, with_staged_inputs, Chain};
use crate::trace::{SimSpec, TraceError};
use cip_runtime::{
    execute_rank_steps, ExecOptions, FaultPlan, MigrationPlan, Msg, RankBatchOutcome, RankResult,
    SteppedMailbox,
};
use cip_sim::SimResult;
use cip_telemetry::Recorder;
use cip_transport::frame::{read_frame, write_frame, ReadError, READ_BUF};
use cip_transport::tcp::{bind_mesh, connect_mesh, mesh_mailbox};
use cip_transport::{
    codec_enum, codec_struct, ChannelMailbox, Mailbox, MailboxConfig, TransportStats,
};
use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Control protocol
// ---------------------------------------------------------------------

/// One batch assignment: everything a worker cannot derive from the
/// scenario itself. See the module docs for why this is sufficient.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// First snapshot index of the batch.
    pub start: u32,
    /// One past the last snapshot index.
    pub end: u32,
    /// Snapshot where the live search-tree chain was induced
    /// (`chain_start <= start`); `chain_start == start` starts a chain,
    /// anything else continues the one the worker carries.
    pub chain_start: u32,
    /// Live rank count of this batch.
    pub live_k: u32,
    /// The live rank this worker plays.
    pub rank: u32,
    /// Epoch base for [`SteppedMailbox`]; strictly increasing across
    /// attempts so stale frames of aborted batches are dropped.
    pub epoch: u32,
    /// Node-to-part assignment (`u32::MAX` = unassigned), constant
    /// within a tree chain.
    pub node_parts: Vec<u32>,
    /// `route[live]` = original worker id playing live rank `live`.
    pub route: Vec<u32>,
    /// Per-step fault plans (`None` = clean step); same length as the
    /// batch.
    pub plans: Vec<Option<FaultPlan>>,
    /// Repartition migration riding this batch's step 0: the accepted
    /// [`MigrationPlan`]'s `moves` matrix (`live_k * live_k` rows,
    /// `moves[from * live_k + to]`), or `None` for no migration
    /// (DESIGN.md §6b).
    pub migrate: Option<Vec<Vec<u32>>>,
    /// Executor drain timeout, milliseconds.
    pub timeout_ms: u64,
    /// Executor repair rounds before declaring peers dead.
    pub retries: u32,
    /// Send-ahead window of the rank loop
    /// ([`ExecOptions::lookahead`]).
    pub lookahead: u32,
}

/// Messages on a worker's control socket, framed exactly like mesh
/// traffic ([`cip_transport::frame`]) so the corruption guarantees are
/// shared. Control corruption is fatal (there is no NACK layer here);
/// the driver treats it as a dead worker.
#[derive(Debug, Clone, PartialEq)]
pub enum Ctrl {
    /// Worker -> driver: "rank `from` is up, my mesh listener is at
    /// `mesh_addr`".
    Hello {
        /// The worker's original rank id (travels in the frame header).
        from: u32,
        /// The worker's bound mesh listener address.
        mesh_addr: String,
    },
    /// Driver -> workers: every worker's mesh address, indexed by rank.
    Peers {
        /// `mesh_addrs[r]` = rank `r`'s listener.
        mesh_addrs: Vec<String>,
    },
    /// Driver -> worker: execute one batch.
    Run(RunSpec),
    /// Worker -> driver: the batch outcome plus cumulative transport
    /// counters (the driver folds the per-batch delta into telemetry).
    Done {
        /// How the rank ended the batch.
        outcome: RankBatchOutcome,
        /// Cumulative mesh-socket counters of this worker.
        stats: TransportStats,
    },
    /// Driver -> worker: shut down cleanly.
    Exit,
}

// Wire order, not declaration order: the scalars lead, the sequences
// follow.
codec_struct!(RunSpec {
    start,
    end,
    chain_start,
    live_k,
    rank,
    epoch,
    timeout_ms,
    retries,
    lookahead,
    node_parts,
    route,
    plans,
    migrate
});

codec_enum!(framed Ctrl {
    1 => Hello { [from] mesh_addr },
    2 => Peers { mesh_addrs },
    3 => Run(spec),
    4 => Done { outcome, stats },
    5 => Exit,
});

// ---------------------------------------------------------------------
// Driver side: the worker pool
// ---------------------------------------------------------------------

/// How to spawn a worker pool.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Worker (= initial rank) count.
    pub k: usize,
    /// Scenario name every worker rebuilds (see
    /// [`crate::trace::scenario_config`]).
    pub scenario: String,
    /// Snapshot count (the driver's, post-override — workers must
    /// simulate the identical trajectory).
    pub snapshots: usize,
    /// Control-listener bind address (`127.0.0.1:0` = loopback,
    /// OS-assigned port).
    pub bind: String,
    /// Worker executable; `None` resolves `CIP_WORKER_BIN`, then a
    /// `cip-worker` sibling of the current executable.
    pub worker_bin: Option<PathBuf>,
}

/// One live worker process and its control socket, read through a
/// buffer.
struct Worker {
    child: Child,
    ctrl: BufReader<TcpStream>,
}

/// `k` worker processes plus the driver-side control plumbing. Dropping
/// the pool shuts every worker down.
pub struct WorkerPool {
    workers: Vec<Option<Worker>>,
    last_stats: Vec<TransportStats>,
}

/// Whether a worker-reported outcome is one the rank loop could have
/// produced for a `steps`-step batch over `live_k` ranks. A frame can be
/// CRC-valid and still come from a skewed or buggy worker, and
/// [`cip_runtime::collect_batch`] indexes by these sizes: per-destination
/// vectors hold `live_k` entries, a completed rank reports every step, a
/// dead or stalled one strictly fewer, and the peers a stalled rank
/// blames exist.
fn outcome_fits(outcome: &RankBatchOutcome, live_k: usize, steps: usize) -> bool {
    let fits = |r: &RankResult| r.halo_sent.len() == live_k && r.shipments_sent.len() == live_k;
    match outcome {
        RankBatchOutcome::Completed(done) => done.len() == steps && done.iter().all(fits),
        RankBatchOutcome::Dead { done } => done.len() < steps && done.iter().all(fits),
        RankBatchOutcome::Lost { done, dead } => {
            done.len() < steps
                && done.iter().all(fits)
                && !dead.is_empty()
                && dead.iter().all(|&d| (d as usize) < live_k)
        }
    }
}

/// Shorthand for the worker-protocol error variant.
fn werr(what: String) -> TraceError {
    TraceError::Worker { what }
}

fn resolve_worker_bin(explicit: Option<&Path>) -> PathBuf {
    if let Some(p) = explicit {
        return p.to_path_buf();
    }
    if let Ok(p) = std::env::var("CIP_WORKER_BIN") {
        return p.into();
    }
    match std::env::current_exe() {
        Ok(exe) => exe.with_file_name("cip-worker"),
        Err(_) => PathBuf::from("cip-worker"),
    }
}

impl WorkerPool {
    /// Spawn `cfg.k` worker processes and run the hello/peers
    /// handshake until the mesh is ready for batches.
    pub fn spawn(cfg: &PoolConfig) -> Result<Self, TraceError> {
        let listener = TcpListener::bind(&cfg.bind)
            .map_err(|e| werr(format!("bind control listener on {}: {e}", cfg.bind)))?;
        let addr =
            listener.local_addr().map_err(|e| werr(format!("control listener address: {e}")))?;
        let bin = resolve_worker_bin(cfg.worker_bin.as_deref());
        let mut children: Vec<Option<Child>> = Vec::with_capacity(cfg.k);
        for r in 0..cfg.k {
            let child = Command::new(&bin)
                .arg("--connect")
                .arg(addr.to_string())
                .arg("--rank")
                .arg(r.to_string())
                .arg("--ranks")
                .arg(cfg.k.to_string())
                .arg("--scenario")
                .arg(&cfg.scenario)
                .arg("--snapshots")
                .arg(cfg.snapshots.to_string())
                .stdin(Stdio::null())
                .spawn()
                .map_err(|e| werr(format!("spawn worker '{}': {e}", bin.display())))?;
            children.push(Some(child));
        }

        // Non-blocking accept with a deadline: a worker that crashes
        // before dialing (bad binary, failed dynamic link) must fail
        // the spawn, not hang it.
        listener
            .set_nonblocking(true)
            .map_err(|e| werr(format!("control listener non-blocking: {e}")))?;
        let handshake_deadline = Instant::now() + Duration::from_secs(120);
        let mut workers: Vec<Option<Worker>> = (0..cfg.k).map(|_| None).collect();
        let mut mesh_addrs = vec![String::new(); cfg.k];
        let mut payload = Vec::new();
        for _ in 0..cfg.k {
            let (s, _) = loop {
                match listener.accept() {
                    Ok(pair) => break pair,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        if Instant::now() >= handshake_deadline {
                            return Err(werr(
                                "worker handshake timed out (did a worker die before connecting?)"
                                    .to_string(),
                            ));
                        }
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    Err(e) => return Err(werr(format!("accept worker: {e}"))),
                }
            };
            s.set_nonblocking(false).ok();
            s.set_nodelay(true).ok();
            s.set_read_timeout(Some(Duration::from_secs(120))).ok();
            let mut s = BufReader::with_capacity(READ_BUF, s);
            let msg = match read_frame::<Ctrl>(&mut s, &mut payload) {
                Ok((m, _, _)) => m,
                Err(e) => return Err(werr(format!("worker hello failed: {e:?}"))),
            };
            let Ctrl::Hello { from: rank, mesh_addr } = msg else {
                return Err(werr("worker spoke out of turn during the handshake".to_string()));
            };
            let r = rank as usize;
            if r >= cfg.k || workers[r].is_some() {
                return Err(werr(format!("unexpected hello from rank {rank}")));
            }
            let Some(child) = children[r].take() else {
                return Err(werr(format!("duplicate hello from rank {rank}")));
            };
            mesh_addrs[r] = mesh_addr;
            workers[r] = Some(Worker { child, ctrl: s });
        }

        let peers = Ctrl::Peers { mesh_addrs };
        let mut buf = Vec::new();
        for w in workers.iter_mut().flatten() {
            write_frame(w.ctrl.get_mut(), &peers, 0, &mut buf)
                .map_err(|e| werr(format!("send peer list: {e}")))?;
        }
        Ok(Self { workers, last_stats: vec![TransportStats::default(); cfg.k] })
    }

    /// Run one batch across the live workers named by `spec.route`
    /// (`route[live]` = worker id), sending each `spec` with `rank` set
    /// to the live rank it plays. Returns one outcome per live rank,
    /// ready for [`cip_runtime::collect_batch`]; a worker that cannot
    /// report (dead process, broken control channel) or reports an
    /// outcome that does not fit the batch (`outcome_fits`) comes back
    /// as [`RankBatchOutcome::Dead`] at step 0. Per-batch transport byte
    /// deltas are folded into `rec`'s `transport.*` counters.
    pub fn execute_batch(&mut self, spec: RunSpec, rec: &Recorder) -> Vec<RankBatchOutcome> {
        // A worker is never slower than its own executor's give-up
        // budget plus the batch prep; anything beyond that is a dead
        // process, not a slow one.
        let (live_k, steps) = (spec.live_k as usize, (spec.end - spec.start) as usize);
        let deadline = Duration::from_millis(
            60_000
                + steps.max(1) as u64 * spec.timeout_ms.max(1_000) * (u64::from(spec.retries) + 2),
        );
        let route = spec.route.clone();
        let mut run = Ctrl::Run(spec);
        let mut buf = Vec::new();
        for (live, &wid) in route.iter().enumerate().take(live_k) {
            if let Ctrl::Run(spec) = &mut run {
                spec.rank = live as u32;
            }
            let wid = wid as usize;
            let ok = match self.workers.get_mut(wid).and_then(|w| w.as_mut()) {
                Some(w) => write_frame(w.ctrl.get_mut(), &run, 0, &mut buf).is_ok(),
                None => false,
            };
            if !ok {
                self.kill(wid);
            }
        }

        let mut payload = Vec::new();
        let mut outcomes = Vec::with_capacity(live_k);
        for &wid in route.iter().take(live_k) {
            let wid = wid as usize;
            let outcome = match self.workers.get_mut(wid).and_then(|w| w.as_mut()) {
                None => RankBatchOutcome::Dead { done: Vec::new() },
                Some(w) => {
                    w.ctrl.get_ref().set_read_timeout(Some(deadline)).ok();
                    match read_frame::<Ctrl>(&mut w.ctrl, &mut payload) {
                        Ok((Ctrl::Done { outcome, stats }, _, _))
                            if outcome_fits(&outcome, live_k, steps) =>
                        {
                            let prev = self.last_stats[wid];
                            rec.add(
                                "transport.bytes_sent",
                                stats.bytes_sent.saturating_sub(prev.bytes_sent),
                            );
                            rec.add(
                                "transport.bytes_recv",
                                stats.bytes_recv.saturating_sub(prev.bytes_recv),
                            );
                            self.last_stats[wid] = stats;
                            outcome
                        }
                        // EOF, timeout, corruption, a non-Done frame,
                        // or an outcome of the wrong shape: the worker
                        // is unusable — fold it in as dead and let
                        // recovery handle it.
                        _ => {
                            self.kill(wid);
                            RankBatchOutcome::Dead { done: Vec::new() }
                        }
                    }
                }
            };
            outcomes.push(outcome);
        }
        outcomes
    }

    /// Shut down the given workers (by original worker id) — used when
    /// recovery removes their ranks from the computation.
    pub fn retire(&mut self, worker_ids: &[u32]) {
        for &wid in worker_ids {
            self.kill(wid as usize);
        }
    }

    /// Live worker count (diagnostics).
    pub fn live(&self) -> usize {
        self.workers.iter().flatten().count()
    }

    fn kill(&mut self, wid: usize) {
        let Some(slot) = self.workers.get_mut(wid) else { return };
        let Some(mut w) = slot.take() else { return };
        let mut buf = Vec::new();
        let _ = write_frame(w.ctrl.get_mut(), &Ctrl::Exit, 0, &mut buf);
        let _ = w.ctrl.get_ref().shutdown(Shutdown::Both);
        let _ = w.child.kill();
        let _ = w.child.wait();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for wid in 0..self.workers.len() {
            self.kill(wid);
        }
    }
}

// ---------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------

/// Parsed `cip-worker` arguments.
#[derive(Debug, Clone)]
pub struct WorkerArgs {
    /// Driver control address to dial.
    pub connect: String,
    /// This worker's original rank.
    pub rank: usize,
    /// Total worker count (mesh size).
    pub ranks: usize,
    /// Scenario to rebuild.
    pub scenario: String,
    /// Snapshot-count override.
    pub snapshots: Option<usize>,
}

/// The `cip-worker` main loop: handshake, then execute [`Ctrl::Run`]
/// batches until [`Ctrl::Exit`] or driver EOF. Returns `Ok` on clean
/// shutdown — including after this rank was killed by its fault plan,
/// in which case the outcome has already been reported and the caller
/// should simply exit (the process death *is* the simulated death).
pub fn run_worker(args: &WorkerArgs) -> Result<(), TraceError> {
    // Handshake before the (potentially slow) simulation rebuild, so a
    // worker that dies during setup is an ordinary mid-protocol EOF for
    // the driver rather than a never-connected hole in the handshake.
    let lst = bind_mesh("127.0.0.1:0").map_err(|e| werr(format!("bind mesh listener: {e}")))?;
    let ctrl = TcpStream::connect(&args.connect)
        .map_err(|e| werr(format!("dial driver at {}: {e}", args.connect)))?;
    ctrl.set_nodelay(true).ok();
    let mut ctrl = BufReader::with_capacity(READ_BUF, ctrl);
    let mut buf = Vec::new();
    let hello = Ctrl::Hello { from: args.rank as u32, mesh_addr: lst.addr.to_string() };
    write_frame(ctrl.get_mut(), &hello, 0, &mut buf)
        .map_err(|e| werr(format!("send hello: {e}")))?;

    let sim = SimSpec::resolve(&args.scenario, args.snapshots)?.run();

    let mut payload = Vec::new();
    let msg = match read_frame::<Ctrl>(&mut ctrl, &mut payload) {
        Ok((m, _, _)) => m,
        Err(e) => return Err(werr(format!("read peer list: {e:?}"))),
    };
    let Ctrl::Peers { mesh_addrs } = msg else {
        return Err(werr("expected the peer list after hello".to_string()));
    };
    let addrs: Vec<SocketAddr> = mesh_addrs
        .iter()
        .map(|a| a.parse().map_err(|e| werr(format!("bad mesh address '{a}': {e}"))))
        .collect::<Result<_, _>>()?;
    let node = connect_mesh(args.rank, args.ranks, lst, &addrs)
        .map_err(|e| werr(format!("connect mesh: {e}")))?;
    let mut seat = mesh_mailbox::<Msg>(node, &MailboxConfig::default())
        .map_err(|e| werr(format!("mesh mailbox: {e}")))?;

    // The tree chain this worker carries from batch to batch, and the
    // snapshots it covers so far (see `run_batch`).
    let (mut chain, mut chain_at) = (Chain::default(), 0..0);
    loop {
        let msg = match read_frame::<Ctrl>(&mut ctrl, &mut payload) {
            Ok((m, _, _)) => m,
            Err(ReadError::Eof) => break, // driver gone: clean exit
            Err(e) => return Err(werr(format!("control channel failed: {e:?}"))),
        };
        match msg {
            Ctrl::Run(spec) => {
                if abrupt_death_requested(args.rank) {
                    // Chaos hook: vanish without reporting — no Done,
                    // no clean shutdown — exactly like an external
                    // `kill -9` mid-protocol. The driver must
                    // synthesize the death from control-channel EOF.
                    std::process::exit(137);
                }
                let outcome = run_batch(&sim, &spec, &mut seat, &mut chain, &mut chain_at)?;
                let died = matches!(outcome, RankBatchOutcome::Dead { .. });
                let done = Ctrl::Done { outcome, stats: seat.stats() };
                write_frame(ctrl.get_mut(), &done, 0, &mut buf)
                    .map_err(|e| werr(format!("report outcome: {e}")))?;
                if died {
                    // The logical kill becomes a real process death —
                    // in-flight mesh frames from this zombie are stale
                    // epochs by the time survivors re-run the step.
                    break;
                }
            }
            Ctrl::Exit => break,
            other => return Err(werr(format!("unexpected control message: {other:?}"))),
        }
    }
    Ok(())
}

/// Chaos hook: `CIP_WORKER_DIE=N` makes the worker spawned as original
/// rank `N` exit abruptly when its first batch assignment arrives,
/// without reporting an outcome. This exercises the driver's
/// EOF-synthesis path (`Dead` at step 0 → `RankLost` → recovery) the
/// same way an out-of-band `kill -9` would, but deterministically.
fn abrupt_death_requested(original_rank: usize) -> bool {
    std::env::var("CIP_WORKER_DIE").ok().as_deref() == Some(original_rank.to_string().as_str())
}

/// Execute one batch assignment: stage the step inputs exactly as the
/// in-process driver does and run this rank's executor loop over the
/// epoch-tagged mesh.
///
/// The worker carries its tree chain like the driver: `chain` holds the
/// tree and halo plan of the chain that covers snapshots `chain_at`. A
/// batch with `chain_start == start` starts a fresh chain; any other
/// batch must continue the carried one (`chain_at == chain_start..start`)
/// — staging it from another tree would be silently wrong, so it is
/// refused as a control-protocol violation, and the driver folds the
/// worker in as dead. Only a `Completed` batch extends the chain.
fn run_batch(
    sim: &SimResult,
    spec: &RunSpec,
    seat: &mut ChannelMailbox<Msg>,
    chain: &mut Chain,
    chain_at: &mut Range<usize>,
) -> Result<RankBatchOutcome, TraceError> {
    let (start, end) = (spec.start as usize, spec.end as usize);
    if spec.chain_start == spec.start {
        *chain = Chain::default();
        *chain_at = start..start;
    } else if *chain_at != (spec.chain_start as usize..start) {
        return Err(werr(format!(
            "batch {start}..{end} continues the tree chain from snapshot {}, \
             but this worker carries snapshots {chain_at:?}",
            spec.chain_start
        )));
    }
    let live_k = spec.live_k as usize;
    let rec = Recorder::disabled();
    let mut staged = stage_batch(sim, &spec.node_parts, live_k, chain, start..end, &rec);
    let opts = ExecOptions {
        timeout: Duration::from_millis(spec.timeout_ms),
        retries: spec.retries,
        lookahead: spec.lookahead as usize,
    };

    // Rebuild the migration plan from the shipped moves matrix; a size
    // mismatch (hostile or corrupt control data) degrades to no migration
    // rather than an out-of-bounds index in the rank loop.
    let migrate = spec
        .migrate
        .as_ref()
        .filter(|moves| moves.len() == live_k * live_k)
        .map(|moves| MigrationPlan { k: live_k, moves: moves.clone() });

    let mut mb = SteppedMailbox::new(seat, spec.epoch, &spec.route);
    let outcome = with_staged_inputs(sim, &staged, &rec, |inputs| {
        execute_rank_steps(
            spec.rank as usize,
            live_k,
            inputs,
            &spec.plans,
            &opts,
            migrate.as_ref(),
            &mut mb,
        )
    });
    if matches!(outcome, RankBatchOutcome::Completed(_)) {
        chain.tree = staged.pop().map(|s| s.tree);
        chain_at.end = end;
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cip_transport::frame::{decode_frame, encode_frame};

    fn sample_result(n: usize) -> RankResult {
        RankResult {
            pairs: vec![(1, 9); n],
            halo_sent: vec![3, 0, 7],
            shipments_sent: vec![0, 2, 0],
            halo_msgs: 5,
            ship_msgs: 1,
            done_msgs: 2,
            ghost_mismatches: 0,
        }
    }

    #[test]
    fn outcomes_that_do_not_fit_the_batch_are_refused() {
        // CRC-valid `Done` frames whose outcome does not fit a 2-step
        // batch over 3 ranks: each would index out of bounds inside
        // `collect_batch`. They decode, are refused, and the worker is
        // folded in as dead at step 0 — a typed `RankLost`, no panic.
        let (live_k, steps) = (3usize, 2usize);
        let short = RankResult { halo_sent: vec![3], ..sample_result(1) };
        let narrow = RankResult { shipments_sent: Vec::new(), ..sample_result(1) };
        let full = || vec![sample_result(1); steps];
        let hostile = [
            RankBatchOutcome::Completed(vec![sample_result(1), short.clone()]),
            RankBatchOutcome::Completed(vec![narrow, sample_result(1)]),
            RankBatchOutcome::Completed(vec![sample_result(1)]),
            RankBatchOutcome::Completed(vec![sample_result(1); steps + 1]),
            RankBatchOutcome::Dead { done: full() },
            RankBatchOutcome::Lost { done: full(), dead: vec![1] },
            RankBatchOutcome::Lost { done: vec![short], dead: vec![1] },
            RankBatchOutcome::Lost { done: Vec::new(), dead: vec![live_k as u32] },
            RankBatchOutcome::Lost { done: Vec::new(), dead: Vec::new() },
        ];
        for outcome in hostile {
            let done = Ctrl::Done { outcome, stats: TransportStats::default() };
            let mut buf = Vec::new();
            encode_frame(&done, 0, &mut buf);
            let (back, _, _) = decode_frame::<Ctrl>(&buf).expect("the frame itself is valid");
            let Ctrl::Done { outcome, .. } = back else { panic!("decoded a different variant") };
            assert!(!outcome_fits(&outcome, live_k, steps), "accepted {outcome:?}");
            let folded = vec![
                RankBatchOutcome::Completed(full()),
                RankBatchOutcome::Dead { done: Vec::new() },
                RankBatchOutcome::Completed(full()),
            ];
            let recorders = vec![Recorder::disabled(); steps];
            let err = cip_runtime::collect_batch(live_k, &recorders, folded)
                .expect_err("a refused worker is a lost rank");
            assert_eq!(err.failed_step, 0);
            assert!(
                matches!(err.error, cip_runtime::RuntimeError::RankLost { ref dead, .. } if dead == &[1])
            );
        }
        // What the rank loop really reports fits.
        for outcome in [
            RankBatchOutcome::Completed(full()),
            RankBatchOutcome::Dead { done: vec![sample_result(0)] },
            RankBatchOutcome::Dead { done: Vec::new() },
            RankBatchOutcome::Lost { done: vec![sample_result(2)], dead: vec![0, 2] },
        ] {
            assert!(outcome_fits(&outcome, live_k, steps), "refused {outcome:?}");
        }
    }

    #[test]
    fn a_batch_that_does_not_continue_the_carried_chain_is_refused() {
        let sim = SimSpec::resolve("tiny", Some(5)).expect("registry scenario").run();
        let mut seats =
            cip_runtime::connect_ranks(&cip_transport::InProcess, 1, &Recorder::disabled())
                .expect("a one-rank mesh");
        let seat = &mut seats[0];
        let spec = |start: u32, end: u32, chain_start: u32, epoch: u32| RunSpec {
            start,
            end,
            chain_start,
            live_k: 1,
            rank: 0,
            epoch,
            node_parts: vec![0; sim.base.num_nodes()],
            route: vec![0],
            plans: vec![None; (end - start) as usize],
            migrate: None,
            timeout_ms: 2000,
            retries: 1,
            lookahead: 1,
        };
        let (mut chain, mut chain_at) = (Chain::default(), 0..0);
        let first = run_batch(&sim, &spec(0, 2, 0, 0), seat, &mut chain, &mut chain_at);
        assert!(matches!(first, Ok(RankBatchOutcome::Completed(_))), "{first:?}");
        assert_eq!(chain_at, 0..2);
        let tree = chain.tree.as_ref().map(|t| t as *const _);
        assert!(tree.is_some(), "a completed batch carries its last tree");

        // This worker carries 0..2; a batch at 3 that claims a chain from
        // 1 would be staged from the wrong tree.
        let refused = run_batch(&sim, &spec(3, 5, 1, 1), seat, &mut chain, &mut chain_at);
        assert!(matches!(refused, Err(TraceError::Worker { .. })), "{refused:?}");
        assert_eq!(chain_at, 0..2, "a refused batch stages nothing");
        assert_eq!(chain.tree.as_ref().map(|t| t as *const _), tree);

        // The same batch starting its own chain runs.
        let fresh = run_batch(&sim, &spec(3, 5, 3, 2), seat, &mut chain, &mut chain_at);
        assert!(
            matches!(fresh, Ok(RankBatchOutcome::Completed(ref r)) if r.len() == 2),
            "{fresh:?}"
        );
        assert_eq!(chain_at, 3..5);
    }

    #[test]
    fn worker_bin_resolution_prefers_explicit_path() {
        let p = resolve_worker_bin(Some(Path::new("/tmp/custom-worker")));
        assert_eq!(p, PathBuf::from("/tmp/custom-worker"));
        // Without an explicit path we fall back to the environment or a
        // sibling — either way the file name is `cip-worker` unless the
        // env var overrides it.
        if std::env::var("CIP_WORKER_BIN").is_err() {
            let p = resolve_worker_bin(None);
            assert_eq!(p.file_name().and_then(|s| s.to_str()), Some("cip-worker"));
        }
    }
}
