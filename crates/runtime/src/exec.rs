//! The step executor's vocabulary: the messages ranks exchange, the
//! traffic they are measured by, the step input/output types, the
//! execution options, and the send/receive primitives the rank loop in
//! [`crate::pipeline`] is built from.
//!
//! One OS thread per rank, one inbox per rank, no shared mutable state:
//! ranks exchange halo values and surface elements as explicit messages
//! — one bulk payload per peer per step for each, the exchange the
//! paper's FEComm and NRemote volumes price — then run their local
//! contact search. Because the shipments carry everything the receiver
//! needs (bounding box, owner, body), the halo and shipment phases need
//! no barrier — each rank streams a step's sends and searches that step
//! as soon as every peer's `Done` trailer for it has arrived.
//!
//! The protocol is fault tolerant (DESIGN.md §6b), and every step runs
//! all of it. Every payload message carries a per-`(from, to, step)`
//! sequence number and every `Done` marker carries the count of payloads
//! the sender first-transmitted to that receiver, so a draining rank
//! *detects* loss and duplication instead of miscounting, and repairs a
//! loss with a `Resend` request served from the sender's per-step
//! history — whether a [`crate::FaultPlan`] dropped the payload or the
//! transport lost it (a frame dropped as corrupt). The send side here
//! knows nothing of fault plans: it sends every payload once and records
//! it, and the rank's seat (`crate::fault`) decides its fate on the wire.
//! Draining is bounded by
//! [`ExecOptions::timeout`] with [`ExecOptions::retries`] repair rounds;
//! peers still unaccounted for after that are declared dead and the
//! batch fails with [`crate::RuntimeError::RankLost`] naming them, so the
//! driver can repartition over the survivors and re-execute the step.

use crate::plan::{Decomposition, RankPlan};
use cip_contact::{search_contact_zone, ContactPair, GlobalFilter, SurfaceElementInfo};
use cip_geom::{Aabb, Point};
use cip_telemetry::Recorder;
use cip_transport::{Mailbox, RecvTimeoutError};
use std::time::Duration;

/// Inter-rank message.
///
/// Every variant carries the batch-local `step` it belongs to, so a
/// receiver can partition one inbox by step. Sequence numbers are per
/// `(from, to, step)`. The type is public because it crosses
/// process boundaries (its layout is declared in [`crate::wire`]), which
/// is also why positions and boxes are plain coordinate arrays.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Halo exchange: updated positions of nodes the receiver ghosts.
    Halo {
        /// Sending rank.
        from: u32,
        /// Batch-local step the payload belongs to.
        step: u32,
        /// Position in the sender's payload stream to this receiver.
        seq: u64,
        /// `(global node id, position coordinates)` pairs.
        values: Vec<(u32, [f64; 3])>,
    },
    /// The surface elements one rank ships to one peer for contact
    /// search: one message per `(from, to, step)`, split only past
    /// [`SHIP_CHUNK`] elements.
    Elements {
        /// Sending rank (the elements' owner).
        from: u32,
        /// Batch-local step the payload belongs to.
        step: u32,
        /// Position in the sender's payload stream to this receiver.
        seq: u64,
        /// The shipped elements, in the owner's surface order.
        items: Vec<ShippedElement>,
    },
    /// The sender has finished all sends for this step; `sent` is the
    /// number of payload messages it first-transmitted to this receiver,
    /// so the receiver can detect gaps.
    Done {
        /// Sending rank.
        from: u32,
        /// Batch-local step the trailer closes.
        step: u32,
        /// First-transmission payload count for this `(from, to)` pair.
        sent: u64,
    },
    /// Repair request: "re-send me these sequence numbers of yours".
    Resend {
        /// Requesting rank (the destination of the resends).
        from: u32,
        /// Batch-local step whose history to replay from.
        step: u32,
        /// Missing sequence numbers.
        seqs: Vec<u64>,
    },
    /// Completion round: the sender has received everything it expects
    /// and will need no further resends (one round closes every batch).
    Complete {
        /// Sending rank.
        from: u32,
        /// The batch's last step, so the epoch fence drops a `Complete`
        /// of an earlier batch like any other stale frame.
        step: u32,
    },
    /// Repartition hand-off (DESIGN.md §6b): the nodes this rank
    /// surrenders to the receiver under an accepted
    /// [`crate::MigrationPlan`]. A payload of the batch's step 0, sent
    /// after its halos and shipments: it takes the next `seq`, a fate, a
    /// history slot and a place in `Done.sent` like them, but is never
    /// counted as traffic.
    Migrate {
        /// Sending rank (the old owner).
        from: u32,
        /// Batch-local step the payload belongs to (always 0).
        step: u32,
        /// Position in the sender's payload stream to this receiver.
        seq: u64,
        /// Global node ids handed to the receiver, in plan order.
        nodes: Vec<u32>,
    },
}

impl Msg {
    /// The sending rank (for `Resend`, the requesting one).
    pub(crate) fn sender(&self) -> u32 {
        match self {
            Msg::Halo { from, .. }
            | Msg::Elements { from, .. }
            | Msg::Done { from, .. }
            | Msg::Resend { from, .. }
            | Msg::Complete { from, .. }
            | Msg::Migrate { from, .. } => *from,
        }
    }

    /// The batch-local step the message belongs to.
    pub(crate) fn step_mut(&mut self) -> &mut u32 {
        match self {
            Msg::Halo { step, .. }
            | Msg::Elements { step, .. }
            | Msg::Done { step, .. }
            | Msg::Resend { step, .. }
            | Msg::Complete { step, .. }
            | Msg::Migrate { step, .. } => step,
        }
    }
}

/// One surface element inside a [`Msg::Elements`] shipment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShippedElement {
    /// Global element index.
    pub id: u32,
    /// Bounding box at the current configuration: minimum corner, then
    /// maximum corner.
    pub bbox: [[f64; 3]; 2],
    /// Body id (local search only pairs different bodies).
    pub body: u16,
}

/// Most elements one [`Msg::Elements`] carries (54 wire bytes each, so a
/// full message is ~216 KiB — far below `cip_transport::MAX_PAYLOAD`).
/// A rank pair shipping more in one step sends several messages.
pub const SHIP_CHUNK: usize = 4096;

/// Message counts per communication phase of one executed step.
///
/// `halo_units` counts the node values *inside* halo messages (the same
/// units as [`TrafficLog::total_halo`]); everything else counts messages.
/// Under fault injection the counts cover **first transmissions only** —
/// dropped messages still count (they are logical traffic, repaired by
/// resends), duplicates and resends do not.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseTraffic {
    /// Halo messages sent (one per `(src, dst)` pair with a non-empty
    /// send-halo list).
    pub halo_msgs: u64,
    /// Node values carried inside halo messages.
    pub halo_units: u64,
    /// Element-shipment messages (one per `(src, dst)` pair with anything
    /// to ship, more only past [`SHIP_CHUNK`] elements).
    pub ship_msgs: u64,
    /// End-of-step `Done` markers (always `k * (k - 1)`).
    pub done_msgs: u64,
}

/// Measured traffic of one executed step (row-major `k x k` matrices,
/// `[from * k + to]`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficLog {
    /// Number of ranks.
    pub k: usize,
    /// Halo sends per rank pair (node values).
    pub halo: Vec<u64>,
    /// Element shipments per rank pair.
    pub shipments: Vec<u64>,
    /// Per-phase message breakdown. Invariant (asserted in the exec
    /// tests): `phases.halo_units == total_halo()`.
    pub phases: PhaseTraffic,
}

impl TrafficLog {
    /// Total halo volume (the executed FEComm).
    pub fn total_halo(&self) -> u64 {
        self.halo.iter().sum()
    }

    /// Total shipments (the executed NRemote).
    pub fn total_shipments(&self) -> u64 {
        self.shipments.iter().sum()
    }
}

/// Input of one step.
pub struct StepInput<'a, F: GlobalFilter<3> + Sync> {
    /// The decomposition plan.
    pub decomposition: &'a Decomposition,
    /// New node positions for this step (the physics oracle; indexed by
    /// global node id).
    pub positions: &'a [Point<3>],
    /// All surface elements (bounding boxes at `positions`), indexed by
    /// the ids the plan's `owned_surface` refers to.
    pub elements: &'a [SurfaceElementInfo<3>],
    /// Body id per surface element.
    pub bodies: &'a [u16],
    /// The broadcast global-search filter (every rank holds a reference,
    /// mirroring the tree broadcast in the paper).
    pub filter: &'a F,
    /// Contact capture tolerance.
    pub tolerance: f64,
    /// Telemetry sink. Disabled by default-constructed recorders; when
    /// enabled, every rank thread binds chrome-trace lane `rank` and emits
    /// `exec.halo` / `exec.ship` / `exec.search` / `exec.idle` spans plus
    /// per-message histograms (see DESIGN.md §6).
    pub recorder: Recorder,
}

/// Result of one executed step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepOutput {
    /// Cross-body candidate pairs, global element ids, sorted, deduped.
    pub contact_pairs: Vec<ContactPair>,
    /// Measured traffic.
    pub traffic: TrafficLog,
    /// Ghost values whose received position did not match the owner's
    /// (must be 0; anything else is a halo-exchange bug).
    pub ghost_mismatches: usize,
}

/// Execution policy of the step executor: drain timeout, repair budget,
/// lookahead window (fault plans travel per step, lane capacity with the
/// mesh's `cip_transport::MailboxConfig`).
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// How long a draining rank waits for any message before starting a
    /// repair round (and, once `retries` rounds are spent, declaring the
    /// unaccounted peers dead).
    pub timeout: Duration,
    /// Repair rounds before silent peers are declared dead.
    pub retries: u32,
    /// How many steps a rank's sends may run ahead of its completed
    /// drains (floored at 1; 1–2 is the useful range). At 1 a rank
    /// finishes step `s` before it sends step `s + 1`.
    pub lookahead: usize,
}

impl Default for ExecOptions {
    fn default() -> Self {
        Self { timeout: Duration::from_secs(5), retries: 3, lookahead: 2 }
    }
}

/// One step's send side on one rank: every payload it first-transmitted,
/// per destination (histories are retained until the batch's completion
/// round, so a lost payload of any step can still be re-sent), and the
/// step's traffic counts.
pub(crate) struct StepSend {
    /// Every first-transmitted payload, indexed `[dest][seq]` — the
    /// resend service replays from here. A destination's length is its
    /// next `seq` and, once the step's sends are out, the `sent` count of
    /// its `Done`.
    pub(crate) history: Vec<Vec<Msg>>,
    /// The step's send-side counts (no pairs or mismatches yet).
    pub(crate) counts: RankResult,
}

impl StepSend {
    pub(crate) fn new(k: usize) -> Self {
        let counts = RankResult {
            halo_sent: vec![0; k],
            shipments_sent: vec![0; k],
            ..RankResult::default()
        };
        Self { history: vec![Vec::new(); k], counts }
    }

    /// The `seq` of the next payload to `dest`.
    pub(crate) fn next_seq(&self, dest: usize) -> u64 {
        self.history[dest].len() as u64
    }

    /// First-transmits one payload, recording it in the history so a
    /// `Resend` can always repair it.
    pub(crate) fn send<MB: Mailbox<Msg>>(&mut self, mb: &mut MB, dest: usize, msg: Msg) {
        self.history[dest].push(msg.clone());
        mb.send(dest, msg);
    }

    /// This step's send-side counts plus what the rank found and
    /// received, as the rank's result for the step.
    pub(crate) fn result(&self, pairs: Vec<(u32, u32)>, ghost_mismatches: usize) -> RankResult {
        RankResult { pairs, ghost_mismatches, ..self.counts.clone() }
    }
}

/// Grows-and-marks `seq` in a per-peer dedup bitmap; returns `false` if
/// it was already seen (a duplicate or an already-repaired resend).
pub(crate) fn mark_new(seen: &mut Vec<bool>, seq: u64) -> bool {
    let i = seq as usize;
    if seen.len() <= i {
        seen.resize(i + 1, false);
    }
    if seen[i] {
        false
    } else {
        seen[i] = true;
        true
    }
}

/// Sequence numbers in `0..sent` not yet marked in `seen`.
pub(crate) fn missing_seqs(seen: &[bool], sent: u64) -> Vec<u64> {
    (0..sent).filter(|&s| !seen.get(s as usize).copied().unwrap_or(false)).collect()
}

/// Receives one message, charging any actual blocking wait to an
/// `exec.idle` span. A non-empty inbox costs one `try_recv` and no span,
/// so the gauge measures true straggler-induced idleness, not polling.
pub(crate) fn recv_or_idle<MB: Mailbox<Msg>>(
    rec: &Recorder,
    mb: &mut MB,
    timeout: Duration,
) -> Result<Msg, RecvTimeoutError> {
    use cip_transport::TryRecvError;
    match mb.try_recv() {
        Ok(m) => Ok(m),
        Err(TryRecvError::Closed) => Err(RecvTimeoutError::Closed),
        Err(TryRecvError::Empty) => {
            let _idle = rec.span("exec.idle");
            mb.recv_timeout(timeout)
        }
    }
}

/// What one rank thread produced (for one step). Public so a remote
/// worker process can ship it back to the driver for aggregation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankResult {
    /// Locally found contact pairs as `(a, b)` global element ids with
    /// `a < b`, sorted and deduped.
    pub pairs: Vec<(u32, u32)>,
    /// Halo node values sent, per destination.
    pub halo_sent: Vec<u64>,
    /// Elements shipped, per destination.
    pub shipments_sent: Vec<u64>,
    /// Halo messages sent.
    pub halo_msgs: u64,
    /// Element-shipment messages sent.
    pub ship_msgs: u64,
    /// `Done` trailers sent.
    pub done_msgs: u64,
    /// Received ghost values that disagreed with the oracle (must be 0).
    pub ghost_mismatches: usize,
}

/// One rank's local contact search over its owned surface plus the
/// elements shipped to it: the pairs mapped back to sorted, deduped global
/// ids, and how many of the local elements lay in the contact zone.
pub(crate) fn search_rank<F: GlobalFilter<3> + Sync>(
    plan: &RankPlan,
    input: &StepInput<'_, F>,
    received: &[(u32, Aabb<3>, u16)],
) -> (Vec<(u32, u32)>, usize) {
    let mut local_ids: Vec<u32> = plan.owned_surface.clone();
    let mut boxes: Vec<Aabb<3>> =
        plan.owned_surface.iter().map(|&e| input.elements[e as usize].bbox).collect();
    let mut bodies: Vec<u16> =
        plan.owned_surface.iter().map(|&e| input.bodies[e as usize]).collect();
    for &(id, bbox, body) in received {
        local_ids.push(id);
        boxes.push(bbox);
        bodies.push(body);
    }
    let zone = search_contact_zone(&boxes, &bodies, input.tolerance);
    let mut pairs: Vec<(u32, u32)> = zone
        .pairs
        .into_iter()
        .map(|p| {
            let (a, b) = (local_ids[p.a as usize], local_ids[p.b as usize]);
            (a.min(b), a.max(b))
        })
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    (pairs, zone.active)
}

/// Folds one step's `k` per-rank results, in rank order, into one
/// [`StepOutput`].
pub(crate) fn aggregate(k: usize, results: impl Iterator<Item = RankResult>) -> StepOutput {
    let mut traffic = TrafficLog {
        k,
        halo: vec![0; k * k],
        shipments: vec![0; k * k],
        phases: PhaseTraffic::default(),
    };
    let mut contact_pairs = Vec::new();
    let mut ghost_mismatches = 0;
    for (r, res) in results.enumerate() {
        for dest in 0..k {
            traffic.halo[r * k + dest] += res.halo_sent[dest];
            traffic.shipments[r * k + dest] += res.shipments_sent[dest];
        }
        traffic.phases.halo_msgs += res.halo_msgs;
        traffic.phases.ship_msgs += res.ship_msgs;
        traffic.phases.done_msgs += res.done_msgs;
        contact_pairs.extend(res.pairs.into_iter().map(|(a, b)| ContactPair { a, b }));
        ghost_mismatches += res.ghost_mismatches;
    }
    traffic.phases.halo_units = traffic.total_halo();
    contact_pairs.sort_unstable();
    contact_pairs.dedup();
    StepOutput { contact_pairs, traffic, ghost_mismatches }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultRates, KillSpec};
    use crate::pipeline::execute_steps;
    use crate::plan::build_decomposition;
    use crate::remote::connect_ranks;
    use crate::RuntimeError;
    use cip_contact::BboxFilter;
    use cip_graph::GraphBuilder;
    use cip_transport::InProcess;

    /// A 1D chain of nodes split between two ranks, with two rows of
    /// surface boxes facing each other.
    fn two_rank_setup() -> (Decomposition, Vec<Point<3>>, Vec<SurfaceElementInfo<3>>, Vec<u16>) {
        let n = 8;
        let mut b = GraphBuilder::new(n, 1);
        for v in 0..n as u32 {
            b.set_vwgt(v, &[1]);
        }
        for v in 0..n as u32 - 1 {
            b.add_edge(v, v + 1, 1);
        }
        let g = b.build();
        let asg: Vec<u32> = (0..n as u32).map(|v| u32::from(v >= 4)).collect();
        let positions: Vec<Point<3>> = (0..n).map(|i| Point::new([i as f64, 0.0, 0.0])).collect();

        // Surface elements: one per node, two bodies stacked in z.
        let mut elements = Vec::new();
        let mut bodies = Vec::new();
        for (i, &owner) in asg.iter().enumerate() {
            let x = i as f64;
            elements.push(SurfaceElementInfo {
                bbox: Aabb::new(Point::new([x, 0.0, 0.0]), Point::new([x + 1.0, 1.0, 1.0])),
                owner,
            });
            bodies.push((i % 2) as u16);
        }
        let owners: Vec<u32> = elements.iter().map(|e| e.owner).collect();
        let nov: Vec<u32> = (0..n as u32).collect();
        let d = build_decomposition(&g, &nov, &asg, &owners, 2);
        (d, positions, elements, bodies)
    }

    fn chaos_opts() -> ExecOptions {
        ExecOptions { timeout: Duration::from_millis(200), retries: 2, ..ExecOptions::default() }
    }

    /// One step through the batch executor: a one-element slice.
    fn execute_one(
        input: StepInput<'_, BboxFilter<3>>,
        fault: Option<FaultPlan>,
        opts: &ExecOptions,
    ) -> Result<StepOutput, RuntimeError> {
        let k = input.decomposition.k;
        let mut seats = connect_ranks(&InProcess, k, &input.recorder).expect("mesh connects");
        execute_steps(&[input], &[fault], opts, None, &mut seats, 0)
            .map(|mut outs| outs.remove(0))
            .map_err(|e| e.error)
    }

    fn execute_clean(input: StepInput<'_, BboxFilter<3>>) -> StepOutput {
        execute_one(input, None, &ExecOptions::default()).expect("step executes")
    }

    #[test]
    fn executed_step_matches_serial_search() {
        let (d, positions, elements, bodies) = two_rank_setup();
        let boxes: Vec<(u32, Aabb<3>)> = elements.iter().map(|e| (e.owner, e.bbox)).collect();
        let filter = BboxFilter::from_boxes(&boxes, 2);
        let out = execute_clean(StepInput {
            decomposition: &d,
            positions: &positions,
            elements: &elements,
            bodies: &bodies,
            filter: &filter,
            tolerance: 0.2,
            recorder: Recorder::disabled(),
        });
        assert_eq!(out.ghost_mismatches, 0);
        let serial = cip_contact::serial_contact_pairs(&elements, &bodies, 0.2);
        assert_eq!(out.contact_pairs, serial);
        assert!(!serial.is_empty());
    }

    #[test]
    fn measured_halo_matches_plan() {
        let (d, positions, elements, bodies) = two_rank_setup();
        let boxes: Vec<(u32, Aabb<3>)> = elements.iter().map(|e| (e.owner, e.bbox)).collect();
        let filter = BboxFilter::from_boxes(&boxes, 2);
        let out = execute_clean(StepInput {
            decomposition: &d,
            positions: &positions,
            elements: &elements,
            bodies: &bodies,
            filter: &filter,
            tolerance: 0.2,
            recorder: Recorder::disabled(),
        });
        assert_eq!(out.traffic.total_halo(), d.total_halo_volume());
        // The chain boundary: rank 0 sends node 3, rank 1 sends node 4.
        assert_eq!(out.traffic.halo[1], 1);
        assert_eq!(out.traffic.halo[2], 1);
    }

    #[test]
    fn phase_breakdown_sums_to_totals() {
        let (d, positions, elements, bodies) = two_rank_setup();
        let boxes: Vec<(u32, Aabb<3>)> = elements.iter().map(|e| (e.owner, e.bbox)).collect();
        let filter = BboxFilter::from_boxes(&boxes, 2);
        let out = execute_clean(StepInput {
            decomposition: &d,
            positions: &positions,
            elements: &elements,
            bodies: &bodies,
            filter: &filter,
            tolerance: 0.2,
            recorder: Recorder::disabled(),
        });
        let t = &out.traffic;
        // Per-phase units must agree with the pairwise matrices exactly.
        assert_eq!(t.phases.halo_units, t.total_halo());
        assert_eq!(t.phases.done_msgs, (t.k * (t.k - 1)) as u64);
        assert!(t.phases.halo_msgs <= (t.k * (t.k - 1)) as u64);
        // Shipments travel in bulk: one message per pair with anything to
        // ship, however many elements it carries.
        let shipping_pairs = t.shipments.iter().filter(|&&n| n > 0).count() as u64;
        assert_eq!(t.phases.ship_msgs, shipping_pairs);
        assert!(shipping_pairs > 0);
    }

    #[test]
    fn enabled_recorder_counters_match_traffic_log() {
        let (d, positions, elements, bodies) = two_rank_setup();
        let boxes: Vec<(u32, Aabb<3>)> = elements.iter().map(|e| (e.owner, e.bbox)).collect();
        let filter = BboxFilter::from_boxes(&boxes, 2);
        let rec = Recorder::enabled();
        let out = execute_clean(StepInput {
            decomposition: &d,
            positions: &positions,
            elements: &elements,
            bodies: &bodies,
            filter: &filter,
            tolerance: 0.2,
            recorder: rec.clone(),
        });
        assert_eq!(rec.counter_value("traffic.halo_units"), out.traffic.total_halo());
        assert_eq!(rec.counter_value("traffic.shipment_units"), out.traffic.total_shipments());
        // Every per-rank phase span landed in the trace.
        let summary = rec.summary().expect("recorder is enabled");
        for name in ["exec.halo", "exec.ship", "exec.search"] {
            let s = summary.span(name).unwrap_or_else(|| panic!("missing span {name}"));
            assert_eq!(s.count, 2, "{name} once per rank");
        }
    }

    #[test]
    fn single_rank_executes_without_messages() {
        let (_, positions, elements, bodies) = two_rank_setup();
        let n = positions.len();
        let mut b = GraphBuilder::new(n, 1);
        for v in 0..n as u32 {
            b.set_vwgt(v, &[1]);
        }
        for v in 0..n as u32 - 1 {
            b.add_edge(v, v + 1, 1);
        }
        let g = b.build();
        let nov: Vec<u32> = (0..n as u32).collect();
        let elements1: Vec<SurfaceElementInfo<3>> =
            elements.iter().map(|e| SurfaceElementInfo { bbox: e.bbox, owner: 0 }).collect();
        let owners = vec![0u32; elements1.len()];
        let d = build_decomposition(&g, &nov, &vec![0; n], &owners, 1);
        let boxes: Vec<(u32, Aabb<3>)> = elements1.iter().map(|e| (e.owner, e.bbox)).collect();
        let filter = BboxFilter::from_boxes(&boxes, 1);
        let out = execute_clean(StepInput {
            decomposition: &d,
            positions: &positions,
            elements: &elements1,
            bodies: &bodies,
            filter: &filter,
            tolerance: 0.2,
            recorder: Recorder::disabled(),
        });
        assert_eq!(out.traffic.total_halo(), 0);
        assert_eq!(out.traffic.total_shipments(), 0);
        assert_eq!(out.traffic.phases, PhaseTraffic::default());
        let serial = cip_contact::serial_contact_pairs(&elements1, &bodies, 0.2);
        assert_eq!(out.contact_pairs, serial);
    }

    #[test]
    fn quiet_armed_plan_is_bit_identical_to_disabled() {
        let (d, positions, elements, bodies) = two_rank_setup();
        let boxes: Vec<(u32, Aabb<3>)> = elements.iter().map(|e| (e.owner, e.bbox)).collect();
        let filter = BboxFilter::from_boxes(&boxes, 2);
        let mk = |fault: Option<FaultPlan>, opts: &ExecOptions| {
            execute_one(
                StepInput {
                    decomposition: &d,
                    positions: &positions,
                    elements: &elements,
                    bodies: &bodies,
                    filter: &filter,
                    tolerance: 0.2,
                    recorder: Recorder::disabled(),
                },
                fault,
                opts,
            )
            .expect("step executes")
        };
        let plain = mk(None, &ExecOptions::default());
        let armed = mk(Some(FaultPlan::quiet(42)), &chaos_opts());
        assert_eq!(plain, armed, "arming a quiet plan must not change the output");
    }

    #[test]
    fn message_faults_are_repaired_and_invariants_hold() {
        let (d, positions, elements, bodies) = two_rank_setup();
        let boxes: Vec<(u32, Aabb<3>)> = elements.iter().map(|e| (e.owner, e.bbox)).collect();
        let filter = BboxFilter::from_boxes(&boxes, 2);
        let serial = cip_contact::serial_contact_pairs(&elements, &bodies, 0.2);
        for seed in 0..20u64 {
            let plan = FaultPlan {
                rates: FaultRates {
                    drop_permille: 250,
                    dup_permille: 120,
                    delay_permille: 120,
                    reorder_permille: 120,
                },
                ..FaultPlan::quiet(seed)
            };
            let out = execute_one(
                StepInput {
                    decomposition: &d,
                    positions: &positions,
                    elements: &elements,
                    bodies: &bodies,
                    filter: &filter,
                    tolerance: 0.2,
                    recorder: Recorder::disabled(),
                },
                Some(plan),
                &chaos_opts(),
            )
            .expect("message-level faults must be repaired");
            assert_eq!(out.contact_pairs, serial, "seed {seed}");
            assert_eq!(out.ghost_mismatches, 0, "seed {seed}");
            assert_eq!(out.traffic.total_halo(), d.total_halo_volume(), "seed {seed}");
            assert_eq!(out.traffic.phases.done_msgs, 2, "seed {seed}");
        }
    }

    #[test]
    fn killed_rank_reports_rank_lost_naming_the_dead() {
        let (d, positions, elements, bodies) = two_rank_setup();
        let boxes: Vec<(u32, Aabb<3>)> = elements.iter().map(|e| (e.owner, e.bbox)).collect();
        let filter = BboxFilter::from_boxes(&boxes, 2);
        let rec = Recorder::enabled();
        let plan =
            FaultPlan { kill: Some(KillSpec { rank: 1, after_sends: 0 }), ..FaultPlan::quiet(5) };
        let err = execute_one(
            StepInput {
                decomposition: &d,
                positions: &positions,
                elements: &elements,
                bodies: &bodies,
                filter: &filter,
                tolerance: 0.2,
                recorder: rec.clone(),
            },
            Some(plan),
            &ExecOptions {
                timeout: Duration::from_millis(100),
                retries: 1,
                ..ExecOptions::default()
            },
        )
        .expect_err("a killed rank must surface as an error");
        match err {
            RuntimeError::RankLost { dead } => assert_eq!(dead, vec![1]),
            other => panic!("expected RankLost, got {other}"),
        }
        assert_eq!(rec.counter_value("fault.killed_ranks"), 1);
        assert_eq!(rec.counter_value("recovery.rank_dead"), 1);
        // The failed step must not pollute the traffic counters the
        // driver reconciles against successful steps.
        assert_eq!(rec.counter_value("traffic.halo_units"), 0);
    }
}
