//! The step executor: one rank loop, one driver (DESIGN.md §6b).
//!
//! [`execute_steps`] runs a batch of steps (one migration-free stretch of
//! a trace; a single step is a one-element batch) across `k` rank
//! threads, each running [`execute_rank_steps`] over its seat of a mesh
//! the caller connected once ([`crate::connect_ranks`]). Every per-rank
//! phase is keyed by `(step, rank, phase)` and data dependencies, not
//! barriers, order the work:
//!
//! * a rank starts its step-`s` contact search as soon as *its own*
//!   inbound halos and shipments for `s` have drained (locally decidable
//!   from the per-peer `Done{from, step, sent}` trailers);
//! * a rank's step `s + 1` halo/shipment sends may begin while stragglers
//!   are still finishing step `s`, bounded by [`ExecOptions::lookahead`]
//!   (at lookahead 1 a rank finishes step `s` before it sends `s + 1`);
//! * repartition boundaries end the batch; the migration of the accepted
//!   plan rides the next batch as a [`Msg::Migrate`] prologue instead of
//!   a stop-the-world stage of its own.
//!
//! The scheduler is a pair of cursors (`next_send`, `completed`) over
//! per-step state tables allocated once at batch start: the ready set is
//! implicit ("send while inside the lookahead window; search while the
//! lowest incomplete step is drained"), so the steady-state loop
//! allocates nothing beyond the message payloads themselves. One inbox
//! per rank is partitioned by the `step` tag every message carries.
//!
//! Delivery and repair are one protocol for every step: a step completes
//! when each peer's `Done` has announced `sent` and that many distinct
//! payloads have arrived; a gap the `Done` reveals is re-requested from
//! the sender's per-step history, and one completion round per batch
//! keeps every rank serving resends until no peer needs one. A step's
//! optional [`FaultPlan`] only decides fates and kills. Fates are
//! evaluated per `(from, to, step, seq)`, so a step's injected faults do
//! not depend on the lookahead or on how the trace was cut into batches.
//! A kill turns the rank into a *zombie* that still drains and searches
//! the steps before its death (so every step the batch commits aggregates
//! all `k` ranks) and serves resend requests for those steps. Idle time —
//! a rank actually blocking on an empty inbox — is charged to `exec.idle`
//! spans, and `exec.overlap.steps_in_flight` records the send/completion
//! cursor spread after every step sent.

use crate::exec::{
    aggregate, mark_new, missing_seqs, recv_or_idle, search_rank, ExecOptions, Msg, RankResult,
    ShippedElement, StepInput, StepOutput, StepSend, SHIP_CHUNK,
};
use crate::fault::FaultPlan;
use crate::migrate::MigrationPlan;
use crate::remote::SteppedMailbox;
use crate::RuntimeError;
use cip_contact::GlobalFilter;
use cip_geom::{Aabb, Point};
use cip_telemetry::Recorder;
use cip_transport::{Mailbox, RecvTimeoutError, TransportError};
use std::fmt;

/// A failed batch execution: the steps committed before the failure, the
/// index of the step that failed, and why it failed.
#[derive(Debug)]
pub struct BatchError {
    /// Outputs of the steps that fully committed before the failure
    /// (every rank drained and searched them).
    pub completed: Vec<StepOutput>,
    /// Batch-local index of the step that failed
    /// (`== completed.len()`).
    pub failed_step: usize,
    /// Why that step failed.
    pub error: RuntimeError,
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "batch failed at step {} after {} committed step(s): {}",
            self.failed_step,
            self.completed.len(),
            self.error
        )
    }
}

impl std::error::Error for BatchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Per-step receive-side state of one rank (all peers).
struct StepRecv {
    /// Announced first-transmission count per peer (`None` until its
    /// `Done` arrives).
    exp: Vec<Option<u64>>,
    /// Distinct payloads received per peer.
    got: Vec<u64>,
    /// Per-peer dedup bitmap.
    seen: Vec<Vec<bool>>,
    /// Elements shipped to this rank for this step.
    received: Vec<(u32, Aabb<3>, u16)>,
    /// Halo values that disagreed with the oracle position.
    ghost_mismatches: usize,
}

impl StepRecv {
    fn new(k: usize, r: usize) -> Self {
        let mut exp = vec![None; k];
        exp[r] = Some(0);
        Self {
            exp,
            got: vec![0; k],
            seen: vec![Vec::new(); k],
            received: Vec::new(),
            ghost_mismatches: 0,
        }
    }

    /// Whether payload `seq` from `from` is news: a duplicate or an
    /// already-repaired resend is counted and dropped.
    fn admit(&mut self, from: usize, seq: u64, rec: &Recorder) -> bool {
        let fresh = mark_new(&mut self.seen[from], seq);
        if fresh {
            self.got[from] += 1;
        } else {
            rec.add("recovery.dup_dropped", 1);
        }
        fresh
    }

    /// Whether peer `p`'s data for this step has fully arrived: its
    /// `Done` has announced `sent` and that many distinct payloads came.
    fn peer_complete(&self, p: usize) -> bool {
        matches!(self.exp[p], Some(e) if self.got[p] >= e)
    }

    /// Whether every peer's data for this step has fully arrived.
    fn data_complete(&self, k: usize) -> bool {
        (0..k).all(|p| self.peer_complete(p))
    }

    /// Peers whose data for this step is still unaccounted for.
    fn unaccounted(&self, k: usize) -> Vec<u32> {
        (0..k).filter(|&p| !self.peer_complete(p)).map(|p| p as u32).collect()
    }
}

/// Receive-side state of the batch-prologue migrate stage (DESIGN.md
/// §6b): which peers still owe this rank a [`Msg::Migrate`], and the
/// node list each must carry under the accepted plan. Receivers know
/// both statically from the plan, so the stage needs no `Done` trailer
/// and no sequence space — one message per non-empty plan row.
struct MigrateRecv {
    /// Expected node list per peer; `None` once received (or never owed).
    expect: Vec<Option<Vec<u32>>>,
    /// Peers whose stage has not arrived yet.
    pending: usize,
    /// Received stages that disagreed with the plan row (must be 0;
    /// folded into step 0's `ghost_mismatches` so the driver's commit
    /// assertion catches any splice bug loudly).
    mismatches: usize,
    /// Node ids received across all stages.
    nodes_received: u64,
}

impl MigrateRecv {
    /// No migrate stage in this batch: nothing expected, strays ignored.
    fn idle() -> Self {
        Self { expect: Vec::new(), pending: 0, mismatches: 0, nodes_received: 0 }
    }

    /// Arms rank `r`'s expectations: one stage per peer whose plan row
    /// toward `r` is non-empty.
    fn arm(plan: &MigrationPlan, r: usize, k: usize) -> Self {
        let mut expect: Vec<Option<Vec<u32>>> = vec![None; k];
        let mut pending = 0usize;
        for (src, slot) in expect.iter_mut().enumerate() {
            if src == r {
                continue;
            }
            let row = &plan.moves[src * k + r];
            if !row.is_empty() {
                *slot = Some(row.clone());
                pending += 1;
            }
        }
        Self { expect, pending, mismatches: 0, nodes_received: 0 }
    }

    /// Folds one received stage in. Duplicates and unexpected senders
    /// are dropped — the plan is authoritative about who owes what.
    fn accept(&mut self, from: usize, nodes: &[u32]) {
        let Some(want) = self.expect.get_mut(from).and_then(Option::take) else { return };
        self.pending -= 1;
        self.nodes_received += nodes.len() as u64;
        if want.as_slice() != nodes {
            self.mismatches += 1;
        }
    }

    /// Peers whose stage never arrived.
    fn unaccounted(&self) -> Vec<u32> {
        self.expect.iter().enumerate().filter(|(_, e)| e.is_some()).map(|(p, _)| p as u32).collect()
    }
}

/// How one rank ended a batch. Public so a remote worker process can
/// report its rank's outcome back to the driver, which folds all `k` of
/// them with [`collect_batch`] — exactly what [`execute_steps`] does with
/// its joined threads.
#[derive(Debug, Clone, PartialEq)]
pub enum RankBatchOutcome {
    /// Every step drained and searched, and the batch completion round
    /// closed.
    Completed(Vec<RankResult>),
    /// Killed by the fault plan while sending step `done.len()`; the
    /// zombie still finished the steps before its death.
    Dead {
        /// Full results for the steps completed before the kill.
        done: Vec<RankResult>,
    },
    /// Gave up on `dead` peers after exhausting the repair budget at
    /// step `done.len()`, which the driver re-executes.
    Lost {
        /// Full results for the steps completed before the stall.
        done: Vec<RankResult>,
        /// The peers declared dead.
        dead: Vec<u32>,
    },
}

/// Streams one step's halo values, element shipments (bucketed per
/// destination: one [`Msg::Elements`] per peer with anything to ship),
/// and `Done` trailers, every message tagged `step: s` and sequence
/// numbers restarting per step, so injected fates depend on the step
/// alone. Every payload goes through `st`, the step's send record.
/// Returns `false` if the fault plan killed the rank mid-step (trailers
/// are all-or-nothing: a dead rank announces nothing).
fn send_step<F: GlobalFilter<3> + Sync, MB: Mailbox<Msg>>(
    me: u32,
    r: usize,
    s: usize,
    input: &StepInput<'_, F>,
    st: &mut StepSend<'_>,
    mb: &mut MB,
) -> bool {
    let rec = &input.recorder;
    let plan = &input.decomposition.ranks[r];
    let fault = st.plan;
    let dies = |sends| fault.is_some_and(|f| f.kills(me, sends));
    let mut payload_sends = 0u64;

    {
        let _span = rec.span("exec.halo").attr("rank", me).attr("step", s);
        for (dest, nodes) in plan.send_halo.iter() {
            if dies(payload_sends) {
                rec.add("fault.killed_ranks", 1);
                return false;
            }
            let dest = *dest as usize;
            let values: Vec<_> =
                nodes.iter().map(|&n| (n, input.positions[n as usize].coords)).collect();
            st.halo_sent[dest] += values.len() as u64;
            st.halo_msgs += 1;
            rec.record("exec.halo_msg_nodes", values.len() as u64);
            let msg = Msg::Halo { from: me, step: s as u32, seq: st.next_seq(dest), values };
            payload_sends += 1;
            st.send(mb, rec, me, dest, msg);
        }
    }

    {
        let mut span = rec
            .span("exec.ship")
            .attr("rank", me)
            .attr("step", s)
            .attr("owned", plan.owned_surface.len());
        let k = input.decomposition.k;
        let mut buckets: Vec<Vec<ShippedElement>> = vec![Vec::new(); k];
        let mut candidates = Vec::new();
        for &e in &plan.owned_surface {
            let el = &input.elements[e as usize];
            debug_assert_eq!(el.owner, me);
            input.filter.candidate_parts(&el.bbox.inflate(input.tolerance), &mut candidates);
            for &dest in candidates.iter().filter(|&&dest| dest != me) {
                buckets[dest as usize].push(ShippedElement {
                    id: e,
                    bbox: [el.bbox.min.coords, el.bbox.max.coords],
                    body: input.bodies[e as usize],
                });
            }
        }
        for (dest, bucket) in buckets.iter().enumerate() {
            for items in bucket.chunks(SHIP_CHUNK) {
                if dies(payload_sends) {
                    rec.add("fault.killed_ranks", 1);
                    return false;
                }
                st.shipments_sent[dest] += items.len() as u64;
                st.ship_msgs += 1;
                rec.record("exec.ship_msg_elements", items.len() as u64);
                let msg = Msg::Elements {
                    from: me,
                    step: s as u32,
                    seq: st.next_seq(dest),
                    items: items.to_vec(),
                };
                payload_sends += 1;
                st.send(mb, rec, me, dest, msg);
            }
        }
        if dies(payload_sends) {
            rec.add("fault.killed_ranks", 1);
            return false;
        }
        // Per destination: the held reorder slot, the trailer, then
        // whatever the plan delayed past it.
        for dest in (0..k).filter(|&dest| dest != r) {
            if let Some(m) = st.held[dest].take() {
                mb.send(dest, m);
            }
            mb.send(dest, Msg::Done { from: me, step: s as u32, sent: st.next_seq(dest) });
            st.done_msgs += 1;
            for m in st.delayed[dest].drain(..) {
                mb.send(dest, m);
            }
        }
        span.set_attr("shipped", st.shipments_sent.iter().sum::<u64>());
    }
    true
}

/// One rank's receive side of a batch: everything an inbound message is
/// routed into.
struct Inbound<'a> {
    /// Per-step send records (the resend service replays their history).
    send: Vec<StepSend<'a>>,
    /// Per-step receive tables.
    recv: Vec<StepRecv>,
    /// Whose `Complete` has arrived (self included).
    completed_peers: Vec<bool>,
    /// The migrate prologue's expectations.
    mig: MigrateRecv,
}

impl Inbound<'_> {
    /// Peers that have not completed the batch.
    fn uncompleted(&self) -> Vec<u32> {
        (0..self.completed_peers.len() as u32)
            .filter(|&p| !self.completed_peers[p as usize])
            .collect()
    }

    /// Routes one inbound message into the per-step state tables; one
    /// from a rank outside the batch (a skewed peer, a stale frame) is
    /// dropped. Resend requests are only served for steps below
    /// `serve_below` (a zombie must not replay the step it died in: a
    /// dead rank announced nothing for it).
    fn dispatch<F: GlobalFilter<3> + Sync, MB: Mailbox<Msg>>(
        &mut self,
        msg: Msg,
        me: u32,
        steps: &[StepInput<'_, F>],
        mb: &mut MB,
        serve_below: usize,
    ) {
        let Self { send, recv, completed_peers, mig } = self;
        if msg.sender() as usize >= completed_peers.len() {
            return;
        }
        let n = steps.len();
        match msg {
            Msg::Halo { from, step, seq, values } => {
                let s = step as usize;
                if s >= n {
                    return;
                }
                let rs = &mut recv[s];
                if rs.admit(from as usize, seq, &steps[s].recorder) {
                    for (node, pos) in values {
                        if steps[s].positions[node as usize].coords != pos {
                            rs.ghost_mismatches += 1;
                        }
                    }
                }
            }
            Msg::Elements { from, step, seq, items } => {
                let s = step as usize;
                if s >= n {
                    return;
                }
                let rs = &mut recv[s];
                if rs.admit(from as usize, seq, &steps[s].recorder) {
                    // `Aabb::new` debug-asserts min <= max; a corrupt frame
                    // must yield a value, not a panic, so build it raw.
                    rs.received.extend(items.into_iter().map(|it| {
                        let [min, max] = it.bbox.map(|coords| Point { coords });
                        (it.id, Aabb { min, max }, it.body)
                    }));
                }
            }
            Msg::Done { from, step, sent } => {
                let s = step as usize;
                if s >= n {
                    return;
                }
                let f = from as usize;
                let rs = &mut recv[s];
                rs.exp[f] = Some(sent);
                if rs.got[f] < sent {
                    steps[s].recorder.add("recovery.resend_requests", 1);
                    let seqs = missing_seqs(&rs.seen[f], sent);
                    mb.send(f, Msg::Resend { from: me, step, seqs });
                }
            }
            Msg::Resend { from, step, seqs } => {
                let s = step as usize;
                if s >= serve_below {
                    return;
                }
                let f = from as usize;
                for q in seqs {
                    if let Some(m) = send[s].history[f].get(q as usize).cloned() {
                        steps[s].recorder.add("recovery.resent", 1);
                        mb.send(f, m);
                    }
                }
            }
            Msg::Complete { from } => {
                completed_peers[from as usize] = true;
            }
            Msg::Migrate { from, nodes, .. } => {
                mig.accept(from as usize, &nodes);
            }
        }
    }
}

/// One rank's whole batch over any [`Mailbox`]: the event loop over the
/// two cursors. [`execute_steps`] runs one per rank thread; a remote
/// worker process calls it directly for its rank, with the driver
/// folding the reported [`RankBatchOutcome`]s via [`collect_batch`].
/// `faults` is empty (no injection) or one plan per step; `migrate`
/// is the repartition stage spliced in front of the batch, if the driver
/// accepted one.
pub fn execute_rank_steps<F: GlobalFilter<3> + Sync, MB: Mailbox<Msg>>(
    r: usize,
    k: usize,
    steps: &[StepInput<'_, F>],
    faults: &[Option<FaultPlan>],
    opts: &ExecOptions,
    migrate: Option<&MigrationPlan>,
    mb: &mut MB,
) -> RankBatchOutcome {
    let me = r as u32;
    let n = steps.len();
    if n == 0 {
        return RankBatchOutcome::Completed(Vec::new());
    }
    let lookahead = opts.lookahead.max(1);
    // Any `faults` length but one plan per step arms nothing.
    let plans = if faults.len() == n { faults } else { &[] };
    let rec0 = steps[0].recorder.clone();
    rec0.set_lane(me);
    let mut inb = Inbound {
        send: (0..n).map(|s| StepSend::new(plans.get(s).and_then(Option::as_ref), k)).collect(),
        recv: (0..n).map(|_| StepRecv::new(k, r)).collect(),
        completed_peers: (0..k).map(|p| p == r).collect(),
        mig: MigrateRecv::idle(),
    };
    let mut results: Vec<RankResult> = Vec::with_capacity(n);
    let mut completed = 0usize;
    let mut next_send = 0usize;
    let mut killed: Option<usize> = None;
    let mut retries_left = opts.retries;

    // ---- Migrate prologue (DESIGN.md §6b). ----------------------------
    // An accepted repartition plan is spliced in front of the batch: the
    // rank streams the node ids it surrenders under the already-flipped
    // decomposition, then drains until every stage *it* is owed has
    // arrived — and goes straight into its step-0 sends while stragglers
    // are still migrating; there is no global join. The stage is
    // control-plane: it bypasses fault injection and the payload
    // sequence space, so it leaves every step's fate stream untouched.
    if let Some(plan) = migrate.filter(|plan| plan.k == k) {
        let mut span = rec0.span("exec.migrate").attr("rank", me);
        let mut sent = 0u64;
        for dest in 0..k {
            let row = &plan.moves[r * k + dest];
            if dest == r || row.is_empty() {
                continue;
            }
            sent += row.len() as u64;
            mb.send(dest, Msg::Migrate { from: me, step: 0, nodes: row.clone() });
        }
        rec0.add("exec.migrate.nodes_sent", sent);
        inb.mig = MigrateRecv::arm(plan, r, k);
        let mut patience = opts.retries;
        while inb.mig.pending > 0 {
            match recv_or_idle(&rec0, mb, opts.timeout) {
                Ok(msg) => inb.dispatch(msg, me, steps, mb, n),
                Err(RecvTimeoutError::Timeout) if patience > 0 => {
                    patience -= 1;
                    rec0.add("recovery.retries", 1);
                }
                Err(_) => {
                    let dead = inb.mig.unaccounted();
                    span.set_attr("stalled_peers", dead.len());
                    return RankBatchOutcome::Lost { done: results, dead };
                }
            }
        }
        rec0.add("exec.migrate.nodes_received", inb.mig.nodes_received);
        span.set_attr("mismatches", inb.mig.mismatches);
        // A stage that disagreed with the plan poisons step 0 the same way
        // a wrong ghost value would — the driver's commit assertion fires.
        inb.recv[0].ghost_mismatches += inb.mig.mismatches;
    }

    loop {
        // ---- Send while inside the lookahead window. ------------------
        while killed.is_none() && next_send < n && next_send < completed + lookahead {
            let s = next_send;
            if !send_step(me, r, s, &steps[s], &mut inb.send[s], mb) {
                killed = Some(s);
                break;
            }
            next_send += 1;
            steps[s]
                .recorder
                .record("exec.overlap.steps_in_flight", (next_send - completed) as u64);
        }

        // ---- Search every step whose inputs have fully arrived. -------
        // A step also needs this rank's *own* sends out before it can
        // complete (`completed < next_send`): peers running ahead — or
        // k = 1, where no inbound is ever pending — must not let the
        // completion cursor overtake the send cursor, or the step would
        // be recorded with its outbound traffic still unsent.
        let cap = killed.unwrap_or(n);
        let mut progressed = false;
        while completed < cap && completed < next_send && inb.recv[completed].data_complete(k) {
            let s = completed;
            let input = &steps[s];
            let rs = &inb.recv[s];
            input.recorder.record("exec.recv_elements", rs.received.len() as u64);
            let plan = &input.decomposition.ranks[r];
            let local = plan.owned_surface.len() + rs.received.len();
            let pairs = {
                let mut span = input
                    .recorder
                    .span("exec.search")
                    .attr("rank", me)
                    .attr("step", s)
                    .attr("owned", plan.owned_surface.len())
                    .attr("received", rs.received.len())
                    .attr("local", local);
                let (pairs, active) = search_rank(plan, input, &rs.received);
                span.set_attr("active", active);
                input.recorder.record("exec.search_active", active as u64);
                pairs
            };
            results.push(inb.send[s].result(pairs, rs.ghost_mismatches));
            completed += 1;
            progressed = true;
            retries_left = opts.retries;
            input.recorder.record("exec.overlap.steps_in_flight", (next_send - completed) as u64);
        }
        if progressed {
            // Completing a step widens the send window; re-check it
            // before blocking on the inbox.
            continue;
        }

        // ---- Batch finished: run the completion round. ----------------
        // Keep serving resends until every peer has all it expects.
        if killed.is_none() && completed == n {
            for dest in 0..k {
                if dest != r {
                    mb.send(dest, Msg::Complete { from: me });
                }
            }
            while !inb.completed_peers.iter().all(|&c| c) {
                match recv_or_idle(&rec0, mb, opts.timeout) {
                    Ok(msg) => inb.dispatch(msg, me, steps, mb, n),
                    Err(RecvTimeoutError::Timeout) if retries_left > 0 => {
                        retries_left -= 1;
                        rec0.add("recovery.retries", 1);
                    }
                    Err(_) => {
                        // Data-satisfied but the completion round stalled:
                        // the uncompleted peers are the ones in trouble,
                        // and the last step cannot commit.
                        results.pop();
                        return RankBatchOutcome::Lost { done: results, dead: inb.uncompleted() };
                    }
                }
            }
            return RankBatchOutcome::Completed(results);
        }

        // ---- Zombie: killed and every earlier step is finished. -------
        if killed == Some(completed) {
            // Survivors may still need this rank's history to repair the
            // steps that will commit; serve them until they finish (or
            // declare us dead and hang up).
            let mut patience = opts.retries + 1;
            loop {
                match recv_or_idle(&rec0, mb, opts.timeout) {
                    Ok(msg) => inb.dispatch(msg, me, steps, mb, completed),
                    Err(RecvTimeoutError::Timeout) if patience > 0 => patience -= 1,
                    Err(_) => return RankBatchOutcome::Dead { done: results },
                }
            }
        }

        // ---- Block on the inbox. --------------------------------------
        match recv_or_idle(&rec0, mb, opts.timeout) {
            Ok(msg) => inb.dispatch(msg, me, steps, mb, killed.unwrap_or(n)),
            Err(RecvTimeoutError::Timeout) if retries_left > 0 => {
                retries_left -= 1;
                rec0.add("recovery.retries", 1);
                // Repair round: re-request every known gap of every step
                // still in flight.
                for (s, input) in steps.iter().enumerate().take(next_send).skip(completed) {
                    let rs = &inb.recv[s];
                    for p in (0..k).filter(|&p| p != r) {
                        if let Some(e) = rs.exp[p].filter(|&e| rs.got[p] < e) {
                            input.recorder.add("recovery.resend_requests", 1);
                            let seqs = missing_seqs(&rs.seen[p], e);
                            mb.send(p, Msg::Resend { from: me, step: s as u32, seqs });
                        }
                    }
                }
            }
            // The mesh closed or the repair budget is spent.
            Err(_) if killed.is_some() => return RankBatchOutcome::Dead { done: results },
            Err(_) => return lose_step(k, &inb, completed, results),
        }
    }
}

/// Builds the `Lost` outcome for a rank stalled at step `completed`: it
/// blames the peers unaccounted for in that step or, failing that (the
/// completion round handles `completed == n`), the peers that never
/// completed the batch.
fn lose_step(
    k: usize,
    inb: &Inbound,
    completed: usize,
    results: Vec<RankResult>,
) -> RankBatchOutcome {
    let mut dead = match inb.recv.get(completed) {
        Some(rs) => rs.unaccounted(k),
        None => Vec::new(),
    };
    if dead.is_empty() {
        dead = inb.uncompleted();
    }
    RankBatchOutcome::Lost { done: results, dead }
}

/// Executes a batch of steps, one thread per seat of the connected mesh
/// `seats` (index = rank; every step's decomposition must have exactly
/// `seats.len()` ranks) — the one driver entry; a single step is a
/// one-element slice.
///
/// The mesh outlives the batch: each rank runs over a
/// [`SteppedMailbox`] view of its seat tagged with `epoch`, which the
/// caller must advance by at least `steps.len()` before the next batch
/// on the same seats, whether this one committed or not (see
/// [`crate::remote`]). After an `Err` the seats may still hold a dead
/// rank's frames and a live rank's unread ones; reconnect rather than
/// reuse them.
///
/// `faults` is empty (no injection) or one plan per step (`None` = a
/// clean step); any other length arms nothing. Every step, clean or
/// not, re-sends a payload lost in transport. `migrate`
/// is an accepted repartition plan to execute as the batch's prologue:
/// the driver has already flipped `node_parts` to the new decomposition
/// when it hands the plan over, so the stage is *executed traffic*, not a
/// state change (see the prologue in [`execute_rank_steps`]).
///
/// Errors carry the committed prefix: [`BatchError::completed`] holds
/// the outputs of every step all ranks finished before the failure, and
/// [`BatchError::error`] says why step [`BatchError::failed_step`]
/// failed — [`RuntimeError::RankLost`] naming the dead when ranks died
/// (the caller is expected to repartition over the survivors and
/// re-execute), [`RuntimeError::RankPanicked`], or
/// [`RuntimeError::Transport`] for a batch that does not fit the mesh.
pub fn execute_steps<F: GlobalFilter<3> + Sync, MB: Mailbox<Msg>>(
    steps: &[StepInput<'_, F>],
    faults: &[Option<FaultPlan>],
    opts: &ExecOptions,
    migrate: Option<&MigrationPlan>,
    seats: &mut [MB],
    epoch: u32,
) -> Result<Vec<StepOutput>, BatchError> {
    debug_assert!(
        faults.is_empty() || faults.len() == steps.len(),
        "faults must be empty or one plan per step"
    );
    let fail = |error| BatchError { completed: Vec::new(), failed_step: 0, error };
    let k = seats.len();
    if steps.iter().any(|s| s.decomposition.k != k) {
        let detail = format!("a step of the batch does not span the mesh's {k} ranks");
        return Err(fail(TransportError::Handshake { detail }.into()));
    }
    let route: Vec<u32> = (0..k as u32).collect();
    let route = route.as_slice();
    let joined: Vec<std::thread::Result<RankBatchOutcome>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(k);
        for (r, seat) in seats.iter_mut().enumerate() {
            handles.push(scope.spawn(move || {
                let mut mb = SteppedMailbox::new(seat, epoch, route);
                execute_rank_steps(r, k, steps, faults, opts, migrate, &mut mb)
            }));
        }
        // Join manually so a panicking rank is attributed, not re-thrown.
        handles.into_iter().map(|h| h.join()).collect()
    });

    let mut outcomes = Vec::with_capacity(k);
    for (r, res) in joined.into_iter().enumerate() {
        match res {
            // A panicked rank's results are unrecoverable, so nothing in
            // the batch can be trusted to have all k contributions.
            Err(_) => return Err(fail(RuntimeError::RankPanicked { rank: r as u32 })),
            Ok(o) => outcomes.push(o),
        }
    }
    let recorders: Vec<Recorder> = steps.iter().map(|s| s.recorder.clone()).collect();
    collect_batch(k, &recorders, outcomes)
}

/// Folds the `k` per-rank outcomes of one batch into committed step
/// outputs (or the typed failure) — what [`execute_steps`] does with its
/// joined threads, public so the multi-process driver can fold the
/// outcomes its workers report over the control channel.
/// `recorders` holds one recorder per step of the batch (they may all be
/// clones of the same one); committed steps get their traffic counters,
/// the failed step its `recovery.rank_dead` count.
pub fn collect_batch(
    k: usize,
    recorders: &[Recorder],
    outcomes: Vec<RankBatchOutcome>,
) -> Result<Vec<StepOutput>, BatchError> {
    let n = recorders.len();
    let mut killed: Vec<u32> = Vec::new();
    let mut declared: Vec<u32> = Vec::new();
    let mut done: Vec<std::vec::IntoIter<RankResult>> = Vec::with_capacity(k);
    let mut commit = n;
    for (r, outcome) in outcomes.into_iter().enumerate() {
        let res = match outcome {
            RankBatchOutcome::Completed(res) => res,
            RankBatchOutcome::Dead { done } => {
                killed.push(r as u32);
                done
            }
            RankBatchOutcome::Lost { done, dead } => {
                declared.extend(dead);
                done
            }
        };
        commit = commit.min(res.len());
        done.push(res.into_iter());
    }

    // Commit the prefix every rank finished: these steps aggregate all k
    // ranks. Summary counters mirror the TrafficLog exactly (added once
    // at aggregation so `summary.json` totals can never drift from the
    // log), and only committed steps count: the driver re-executes a
    // lost step.
    let mut outputs = Vec::with_capacity(commit);
    for rec in recorders.iter().take(commit) {
        // Every rank holds at least `commit` results: one from each.
        let out = aggregate(k, done.iter_mut().filter_map(|it| it.next()));
        rec.add("traffic.halo_units", out.traffic.phases.halo_units);
        rec.add("traffic.shipment_units", out.traffic.total_shipments());
        let p = &out.traffic.phases;
        rec.add("exec.msgs_sent", p.halo_msgs + p.ship_msgs + p.done_msgs);
        outputs.push(out);
    }
    if killed.is_empty() && declared.is_empty() {
        return Ok(outputs);
    }

    // Ranks the plan actually killed are authoritative; survivors' timeout
    // verdicts (which can falsely accuse a merely slow peer) only stand in
    // when no rank observed its own death.
    let mut dead = killed;
    if dead.is_empty() {
        declared.sort_unstable();
        declared.dedup();
        dead = declared;
    }
    dead.sort_unstable();
    dead.dedup();
    recorders[commit].add("recovery.rank_dead", dead.len() as u64);
    Err(BatchError {
        completed: outputs,
        failed_step: commit,
        error: RuntimeError::RankLost { dead },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultRates, KillSpec};
    use crate::plan::{build_decomposition, Decomposition};
    use crate::remote::connect_ranks;
    use cip_contact::{BboxFilter, SurfaceElementInfo};
    use cip_geom::{Aabb, Point};
    use cip_graph::GraphBuilder;
    use cip_telemetry::Recorder;
    use cip_transport::tcp::Tcp;
    use cip_transport::{InProcess, Transport, TryRecvError};
    use std::time::Duration;

    /// Owned data for an `n_steps`-step batch over a 1D chain of nodes
    /// split across `k` ranks, with the surface boxes drifting a little
    /// each step so every step's traffic differs.
    struct Scenario {
        decomposition: Decomposition,
        positions: Vec<Vec<Point<3>>>,
        elements: Vec<Vec<SurfaceElementInfo<3>>>,
        bodies: Vec<u16>,
        filters: Vec<BboxFilter<3>>,
    }

    fn chain_scenario(k: usize, n_steps: usize) -> Scenario {
        let n = 16usize;
        let mut b = GraphBuilder::new(n, 1);
        for v in 0..n as u32 {
            b.set_vwgt(v, &[1]);
        }
        for v in 0..n as u32 - 1 {
            b.add_edge(v, v + 1, 1);
        }
        let g = b.build();
        let asg: Vec<u32> = (0..n).map(|v| (v * k / n) as u32).collect();
        let owners = asg.clone();
        let nov: Vec<u32> = (0..n as u32).collect();
        let d = build_decomposition(&g, &nov, &asg, &owners, k);

        let bodies: Vec<u16> = (0..n).map(|i| (i % 2) as u16).collect();
        let mut positions = Vec::new();
        let mut elements = Vec::new();
        let mut filters = Vec::new();
        for s in 0..n_steps {
            let drift = s as f64 * 0.07;
            let pos: Vec<Point<3>> =
                (0..n).map(|i| Point::new([i as f64 + drift, 0.0, 0.0])).collect();
            let els: Vec<SurfaceElementInfo<3>> = (0..n)
                .map(|i| SurfaceElementInfo {
                    bbox: Aabb::new(
                        Point::new([i as f64 + drift, 0.0, 0.0]),
                        Point::new([i as f64 + drift + 1.0, 1.0, 1.0]),
                    ),
                    owner: asg[i],
                })
                .collect();
            let boxes: Vec<(u32, Aabb<3>)> = els.iter().map(|e| (e.owner, e.bbox)).collect();
            filters.push(BboxFilter::from_boxes(&boxes, k));
            positions.push(pos);
            elements.push(els);
        }
        Scenario { decomposition: d, positions, elements, bodies, filters }
    }

    fn inputs<'a>(sc: &'a Scenario, rec: &Recorder) -> Vec<StepInput<'a, BboxFilter<3>>> {
        (0..sc.positions.len())
            .map(|s| StepInput {
                decomposition: &sc.decomposition,
                positions: &sc.positions[s],
                elements: &sc.elements[s],
                bodies: &sc.bodies,
                filter: &sc.filters[s],
                tolerance: 0.2,
                recorder: rec.clone(),
            })
            .collect()
    }

    fn opts_with(lookahead: usize) -> ExecOptions {
        ExecOptions {
            timeout: Duration::from_millis(500),
            retries: 2,
            lookahead,
            ..ExecOptions::default()
        }
    }

    /// One batch over a mesh of its own.
    fn run_spliced(
        steps: &[StepInput<'_, BboxFilter<3>>],
        faults: &[Option<FaultPlan>],
        opts: &ExecOptions,
        migrate: Option<&MigrationPlan>,
    ) -> Result<Vec<StepOutput>, BatchError> {
        let k = steps.first().map_or(0, |s| s.decomposition.k);
        let mut seats =
            connect_ranks(&InProcess, k, opts, &Recorder::disabled()).expect("mesh connects");
        execute_steps(steps, faults, opts, migrate, &mut seats, 0)
    }

    fn run(
        steps: &[StepInput<'_, BboxFilter<3>>],
        faults: &[Option<FaultPlan>],
        opts: &ExecOptions,
    ) -> Result<Vec<StepOutput>, BatchError> {
        run_spliced(steps, faults, opts, None)
    }

    #[test]
    fn batch_matches_ground_truth_at_every_lookahead() {
        for k in [1usize, 2, 4] {
            let sc = chain_scenario(k, 5);
            let rec = Recorder::disabled();
            let steps = inputs(&sc, &rec);
            for lookahead in [1usize, 2, 3] {
                let outs = run(&steps, &[], &opts_with(lookahead)).expect("batch executes");
                assert_eq!(outs.len(), 5);
                for (s, out) in outs.iter().enumerate() {
                    let serial =
                        cip_contact::serial_contact_pairs(&sc.elements[s], &sc.bodies, 0.2);
                    assert_eq!(out.contact_pairs, serial, "k={k} lookahead={lookahead} step={s}");
                    assert_eq!(out.traffic.total_halo(), sc.decomposition.total_halo_volume());
                    assert_eq!(out.traffic.phases.done_msgs, (k * (k - 1)) as u64);
                    assert_eq!(out.ghost_mismatches, 0);
                }
                // One batch of five and five batches of one are the same run.
                for (s, out) in outs.iter().enumerate() {
                    let single = run(&steps[s..=s], &[], &opts_with(lookahead))
                        .expect("one-step batch executes");
                    assert_eq!(single.as_slice(), std::slice::from_ref(out));
                }
            }
        }
    }

    /// A seat that silently loses the next `lose` `Msg::Elements` its
    /// rank sends, resends included: what the rank loop sees when the
    /// transport drops a frame as corrupt.
    struct LosesShipments<MB> {
        seat: MB,
        lose: usize,
        lost: usize,
    }

    impl<MB: Mailbox<Msg>> Mailbox<Msg> for LosesShipments<MB> {
        fn send(&mut self, to: usize, msg: Msg) {
            if self.lost < self.lose && matches!(msg, Msg::Elements { .. }) {
                self.lost += 1;
                return;
            }
            self.seat.send(to, msg);
        }

        fn try_recv(&mut self) -> Result<Msg, TryRecvError> {
            self.seat.try_recv()
        }

        fn recv_timeout(&mut self, timeout: Duration) -> Result<Msg, RecvTimeoutError> {
            self.seat.recv_timeout(timeout)
        }
    }

    /// Runs a clean `steps` batch over a fresh `transport` mesh whose rank
    /// 0 loses its next `lose` shipments; returns the outcome and the
    /// batch's `recovery.resent` count.
    fn run_losing<T: Transport>(
        transport: &T,
        sc: &Scenario,
        lose: usize,
        opts: &ExecOptions,
    ) -> (Result<Vec<StepOutput>, BatchError>, u64) {
        let rec = Recorder::enabled();
        let steps = inputs(sc, &rec);
        let k = sc.decomposition.k;
        let mut seats: Vec<_> = connect_ranks(transport, k, opts, &Recorder::disabled())
            .expect("mesh connects")
            .into_iter()
            .enumerate()
            .map(|(r, seat)| LosesShipments { seat, lose: if r == 0 { lose } else { 0 }, lost: 0 })
            .collect();
        // No plan arms a step: the `Done` count alone reveals the gap.
        let out = execute_steps(&steps, &[], opts, None, &mut seats, 0);
        assert!(seats[0].lost > 0, "rank 0 shipped something to lose");
        (out, rec.counter_value("recovery.resent"))
    }

    #[test]
    fn a_clean_step_that_loses_a_payload_resends_it() {
        fn check<T: Transport>(transport: &T, k: usize) {
            let sc = chain_scenario(k, 2);
            let opts = opts_with(2);
            let clean = run(&inputs(&sc, &Recorder::disabled()), &[], &opts).expect("clean batch");
            let (out, resent) = run_losing(transport, &sc, 1, &opts);
            assert_eq!(out.expect("the lost shipment is re-sent"), clean, "k={k}");
            assert_eq!(resent, 1, "k={k}");
        }
        for k in [2usize, 3, 4] {
            check(&InProcess, k);
            check(&Tcp::loopback(), k);
        }
    }

    #[test]
    fn a_payload_lost_beyond_repair_fails_the_step_uncommitted() {
        fn check<T: Transport>(transport: &T) {
            let sc = chain_scenario(2, 2);
            let opts = ExecOptions {
                timeout: Duration::from_millis(50),
                retries: 1,
                ..ExecOptions::default()
            };
            let err = run_losing(transport, &sc, usize::MAX, &opts)
                .0
                .expect_err("a shipment that never arrives must fail the step");
            assert!(err.completed.is_empty());
            assert_eq!(err.failed_step, 0);
            match err.error {
                RuntimeError::RankLost { dead } => assert!(dead.contains(&0), "{dead:?}"),
                other => panic!("expected RankLost, got {other}"),
            }
        }
        check(&InProcess);
        check(&Tcp::loopback());
    }

    #[test]
    fn messages_from_a_rank_outside_the_batch_are_dropped() {
        let sc = chain_scenario(2, 2);
        let steps = inputs(&sc, &Recorder::disabled());
        let opts = opts_with(2);
        let clean = run(&steps, &[], &opts).expect("clean batch executes");
        let mut seats =
            connect_ranks(&InProcess, 2, &opts, &Recorder::disabled()).expect("mesh connects");
        // Raw frames from a rank 9 of some other mesh (a skewed worker, or
        // a stale `Complete`, which the epoch fence does not tag).
        for to in 0..2 {
            seats[1 - to].send(to, Msg::Complete { from: 9 });
            seats[1 - to].send(to, Msg::Done { from: 9, step: 0, sent: 1 });
            seats[1 - to].send(to, Msg::Resend { from: 9, step: 0, seqs: vec![0] });
        }
        let out = execute_steps(&steps, &[], &opts, None, &mut seats, 0)
            .expect("the batch ignores a rank it does not have");
        assert_eq!(out, clean);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let steps: Vec<StepInput<'_, BboxFilter<3>>> = Vec::new();
        assert!(run(&steps, &[], &ExecOptions::default()).expect("empty batch").is_empty());
    }

    #[test]
    fn chaos_batch_repairs_faults_to_the_clean_output() {
        let sc = chain_scenario(2, 4);
        let rec = Recorder::disabled();
        let steps = inputs(&sc, &rec);
        let clean = run(&steps, &[], &opts_with(1)).expect("clean batch executes");
        for seed in [7u64, 21, 1337] {
            let base = FaultPlan {
                rates: FaultRates {
                    drop_permille: 200,
                    dup_permille: 100,
                    delay_permille: 100,
                    reorder_permille: 100,
                },
                ..FaultPlan::quiet(seed)
            };
            let faults: Vec<Option<FaultPlan>> = (0..4).map(|s| Some(base.for_step(s))).collect();
            for lookahead in [1usize, 2] {
                // Traffic counts first transmissions only, so a repaired
                // batch equals the clean one field for field.
                let noisy =
                    run(&steps, &faults, &opts_with(lookahead)).expect("chaos batch repairs");
                assert_eq!(noisy, clean, "seed {seed} lookahead {lookahead}");
            }
        }
    }

    #[test]
    fn kill_mid_batch_commits_the_prefix_and_reports_rank_lost() {
        let sc = chain_scenario(2, 4);
        let rec = Recorder::enabled();
        let steps = inputs(&sc, &rec);
        // Rank 1 dies during step 2's sends; steps 0 and 1 must commit.
        let faults: Vec<Option<FaultPlan>> = (0..4)
            .map(|s| {
                if s == 2 {
                    Some(FaultPlan {
                        kill: Some(KillSpec { rank: 1, after_sends: 0 }),
                        ..FaultPlan::quiet(5)
                    })
                } else {
                    None
                }
            })
            .collect();
        let opts = ExecOptions {
            timeout: Duration::from_millis(100),
            retries: 1,
            ..ExecOptions::default()
        };
        let err = run(&steps, &faults, &opts).expect_err("a killed rank must fail the batch");
        assert_eq!(err.failed_step, 2);
        assert_eq!(err.completed.len(), 2);
        match &err.error {
            RuntimeError::RankLost { dead } => assert_eq!(dead, &vec![1]),
            other => panic!("expected RankLost, got {other}"),
        }
        // The committed steps match a clean run of the same prefix.
        let quiet = inputs(&sc, &Recorder::disabled());
        let clean = run(&quiet[..2], &[], &opts_with(1)).expect("clean prefix executes");
        assert_eq!(err.completed, clean);
        assert_eq!(rec.counter_value("fault.killed_ranks"), 1);
        assert_eq!(rec.counter_value("recovery.rank_dead"), 1);
    }

    #[test]
    fn overlap_gauge_and_idle_spans_are_recorded() {
        let sc = chain_scenario(2, 4);
        let rec = Recorder::enabled();
        let steps = inputs(&sc, &rec);
        let out = run(&steps, &[], &opts_with(2)).expect("batch executes");
        assert_eq!(out.len(), 4);
        let summary = rec.summary().expect("recorder is enabled");
        let gauge =
            summary.histogram("exec.overlap.steps_in_flight").expect("overlap gauge recorded");
        assert!(gauge.count >= 8, "one sample per send and per completion");
        // Counters mirror the per-step traffic logs.
        let halo: u64 = out.iter().map(|o| o.traffic.total_halo()).sum();
        assert_eq!(rec.counter_value("traffic.halo_units"), halo);
    }

    #[test]
    fn migrate_prologue_is_traffic_neutral_and_counted() {
        let sc = chain_scenario(2, 3);
        let quiet = Recorder::disabled();
        let steps = inputs(&sc, &quiet);
        let plain = run(&steps, &[], &opts_with(2)).expect("plain batch executes");
        // Rank 0 surrenders nodes 3 and 4, rank 1 surrenders node 7: the
        // stage is executed, counted — and invisible in the TrafficLog.
        let plan = MigrationPlan { k: 2, moves: vec![vec![], vec![3, 4], vec![7], vec![]] };
        let rec = Recorder::enabled();
        let steps = inputs(&sc, &rec);
        let spliced =
            run_spliced(&steps, &[], &opts_with(2), Some(&plan)).expect("spliced batch executes");
        assert_eq!(spliced, plain, "the migrate stage must not perturb step outputs");
        assert_eq!(rec.counter_value("exec.migrate.nodes_sent"), 3);
        assert_eq!(rec.counter_value("exec.migrate.nodes_received"), 3);
        let summary = rec.summary().expect("recorder is enabled");
        let span = summary.span("exec.migrate").expect("migrate span recorded");
        assert_eq!(span.count, 2, "one migrate span per rank");
    }

    #[test]
    fn migrate_prologue_rides_chaos_batches_unchanged() {
        let sc = chain_scenario(4, 3);
        let fault = |seed: u64| {
            Some(FaultPlan {
                rates: FaultRates {
                    drop_permille: 150,
                    dup_permille: 80,
                    delay_permille: 80,
                    reorder_permille: 80,
                },
                ..FaultPlan::quiet(seed)
            })
        };
        let faults: Vec<Option<FaultPlan>> = (0..3).map(|s| fault(11 + s)).collect();
        let quiet = Recorder::disabled();
        let steps = inputs(&sc, &quiet);
        let plain = run(&steps, &faults, &opts_with(2)).expect("chaotic batch converges");
        // The stage bypasses injection entirely, so the fate stream — and
        // with it every repaired payload — is unchanged.
        let plan = MigrationPlan {
            k: 4,
            moves: (0..16).map(|i| if i == 1 { vec![2, 3] } else { vec![] }).collect(),
        };
        let spliced = run_spliced(&steps, &faults, &opts_with(2), Some(&plan))
            .expect("chaotic spliced batch converges");
        assert_eq!(spliced, plain);
    }

    #[test]
    fn a_batch_that_does_not_fit_the_mesh_is_refused_typed() {
        let sc = chain_scenario(4, 1);
        let steps = inputs(&sc, &Recorder::disabled());
        let opts = opts_with(1);
        let mut seats =
            connect_ranks(&InProcess, 2, &opts, &Recorder::disabled()).expect("mesh connects");
        let err = execute_steps(&steps, &[], &opts, None, &mut seats, 0)
            .expect_err("a k=4 step cannot run on a 2-seat mesh");
        assert!(matches!(err.error, RuntimeError::Transport(_)), "{err}");
        assert!(err.completed.is_empty());
    }

    #[test]
    fn late_frames_of_a_batch_are_fenced_out_of_the_next_on_a_reused_mesh() {
        let sc = chain_scenario(2, 4);
        let rec = Recorder::enabled();
        let steps = inputs(&sc, &rec);
        let opts = opts_with(2);
        let clean = run(&steps, &[], &opts).expect("clean batch executes");

        // Batch n: two chaotic steps at epoch 0. Its repairs may still be
        // in flight when it returns — that is the point.
        let mut seats = connect_ranks(&InProcess, 2, &opts, &rec).expect("mesh connects");
        let plan = FaultPlan {
            rates: FaultRates {
                drop_permille: 200,
                dup_permille: 200,
                delay_permille: 100,
                reorder_permille: 100,
            },
            ..FaultPlan::quiet(7)
        };
        let faults: Vec<Option<FaultPlan>> = (0..2).map(|s| Some(plan.for_step(s))).collect();
        let first = execute_steps(&steps[..2], &faults, &opts, None, &mut seats, 0)
            .expect("chaos batch repairs");
        assert_eq!(first, clean[..2]);

        // And, so the test does not lean on timing: a resend of batch n
        // answered late (an element that would pair with everything) and
        // a duplicate trailer, delivered raw with their epoch-0 tags.
        let everything = [[-1e9; 3], [1e9; 3]];
        let ghost = ShippedElement { id: 0, bbox: everything, body: 9 };
        for step in 0..2 {
            let late = Msg::Elements { from: 0, step, seq: 0, items: vec![ghost] };
            seats[0].send(1, late);
            seats[0].send(1, Msg::Done { from: 0, step, sent: 0 });
        }

        // Batch n + 1 on the same seats, two epochs on: clean, and equal
        // to the run that never saw a reused mesh.
        let second = execute_steps(&steps[2..], &[], &opts, None, &mut seats, 2)
            .expect("clean batch executes on the reused mesh");
        assert_eq!(second, clean[2..]);
        assert_eq!(rec.counter_value("transport.mesh.connects"), 1);
    }
}
