//! Shared fixtures of the integration suites: staged snapshots to feed
//! the executor directly, the executed totals of a traced run as one
//! comparable value, an independent serial prediction of them, and the
//! contract every wire decoder in the tree is held to.
#![allow(dead_code)]

use cip::contact::{
    serial_contact_pairs, ContactPair, DtreeFilter, GlobalFilter, SurfaceElementInfo,
};
use cip::core::{
    contact_graph, decompose, face_bodies, gather, merge_live, repartition_step, surface_elements,
    FeCost, McmlDtConfig, RepartitionMethod,
};
use cip::dtree::{induce, refresh, DecisionTree, DtreeConfig};
use cip::geom::Aabb;
use cip::graph::{Graph, GraphBuilder};
use cip::partition::PartitionerConfig;
use cip::runtime::{
    build_migration, connect_ranks, execute_steps, BatchError, Decomposition, ExecOptions,
    FaultPlan, FaultRates, HaloPlan, StepInput, StepOutput,
};
use cip::sim::{SimConfig, SimResult};
use cip::telemetry::Recorder;
use cip::trace::{scenario_config, ChaosOptions, TraceOptions, TraceReport};
use cip_transport::frame::{decode_frame, encode_frame};
use cip_transport::{
    splitmix64, Transport, Wire, WireError, HEADER_LEN, MAX_PAYLOAD, WIRE_VERSION,
};
use std::sync::Arc;

/// The `nx × ny` grid graph with unit edges and unit FE weight; with
/// `ncon == 2`, contact weight 1 on the border (the paper's surface-node
/// pattern) as the second constraint.
pub fn grid(nx: usize, ny: usize, ncon: usize) -> Graph {
    let mut b = GraphBuilder::new(nx * ny, ncon);
    let id = |i: usize, j: usize| (j * nx + i) as u32;
    for j in 0..ny {
        for i in 0..nx {
            let border = i == 0 || j == 0 || i == nx - 1 || j == ny - 1;
            b.set_vwgt(id(i, j), &[1, i64::from(border)][..ncon]);
            if i + 1 < nx {
                b.add_edge(id(i, j), id(i + 1, j), 1);
            }
            if j + 1 < ny {
                b.add_edge(id(i, j), id(i, j + 1), 1);
            }
        }
    }
    b.build()
}

/// CI seed sweep: `CHAOS_SEED` perturbs every chaos seed of a suite.
pub fn env_seed() -> u64 {
    std::env::var("CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0)
}

/// The message-fault mix of the traced chaos cases (no kill, short
/// loss-detection budget).
pub fn message_chaos(seed: u64) -> ChaosOptions {
    ChaosOptions {
        seed: seed ^ env_seed(),
        rates: FaultRates {
            drop_permille: 150,
            dup_permille: 80,
            delay_permille: 80,
            reorder_permille: 80,
        },
        kill: None,
        timeout_ms: 300,
        retries: 2,
    }
}

/// One staged snapshot; [`StepInput`]s borrow from it.
pub struct Staged {
    /// The run the snapshot belongs to.
    pub sim: Arc<SimResult>,
    pub snapshot: usize,
    /// The node assignment on the vertices of the snapshot's topology.
    pub asg: Vec<u32>,
    pub elements: Vec<SurfaceElementInfo<3>>,
    pub bodies: Vec<u16>,
    pub decomposition: Decomposition,
    pub tree: DecisionTree<3>,
}

/// Stages `snapshots` of the tiny scenario for `k` ranks under the
/// MCML+DT decomposition of snapshot 0 — the traced driver's prep, with a
/// freshly induced search tree per snapshot.
pub fn stage(k: usize, snapshots: &[usize]) -> Vec<Staged> {
    let sim = Arc::new(cip::sim::run(&SimConfig::tiny()));
    let rec = Recorder::disabled();
    let cfg = McmlDtConfig::paper(k);
    let graph0 = contact_graph(&sim, 0, cfg.graph_options(), &rec);
    let node_parts = decompose(&graph0, &sim.snapshots[0].points, &cfg).node_parts;
    snapshots
        .iter()
        .map(|&snapshot| {
            let snap = &sim.snapshots[snapshot];
            let topology = sim.topology(snapshot, &rec);
            let asg = gather(topology.node_of_vertex(), &node_parts);
            let elements = surface_elements(&snap.contact.faces, &snap.points, &node_parts);
            let bodies = face_bodies(&snap.contact.faces);
            let decomposition = HaloPlan::build(
                topology.xadj(),
                topology.adjncy(),
                topology.node_of_vertex(),
                &asg,
                k,
            )
            .decomposition(elements.iter().map(|e| e.owner));
            let nodes = &snap.contact.contact_nodes;
            let (positions, labels) = (gather(nodes, &snap.points), gather(nodes, &node_parts));
            let tree = induce(&positions, &labels, k, &DtreeConfig::search_tree());
            Staged { sim: Arc::clone(&sim), snapshot, asg, elements, bodies, decomposition, tree }
        })
        .collect()
}

/// Runs `run` over the [`StepInput`]s of the staged snapshots.
pub fn with_inputs<R>(
    staged: &[Staged],
    tolerance: f64,
    run: impl FnOnce(&[StepInput<'_, DtreeFilter<'_, 3>>]) -> R,
) -> R {
    let filters: Vec<DtreeFilter<'_, 3>> =
        staged.iter().map(|s| DtreeFilter::new(&s.tree, s.decomposition.k)).collect();
    let inputs: Vec<StepInput<'_, DtreeFilter<'_, 3>>> = staged
        .iter()
        .zip(&filters)
        .map(|(s, filter)| StepInput {
            decomposition: &s.decomposition,
            positions: &s.sim.snapshots[s.snapshot].points,
            elements: &s.elements,
            bodies: &s.bodies,
            filter,
            tolerance,
            recorder: cip::telemetry::Recorder::disabled(),
        })
        .collect();
    run(&inputs)
}

/// Executes the staged snapshots as one batch over a mesh of its own,
/// connected over `transport`; a mesh that cannot come up is the batch's
/// typed failure at step 0.
pub fn run_batch<T: Transport>(
    staged: &[Staged],
    tolerance: f64,
    faults: &[Option<FaultPlan>],
    opts: &ExecOptions,
    transport: &T,
) -> Result<Vec<StepOutput>, BatchError> {
    let k = staged[0].decomposition.k;
    let mut seats = connect_ranks(transport, k, opts, &cip::telemetry::Recorder::disabled())
        .map_err(|e| BatchError { completed: Vec::new(), failed_step: 0, error: e.into() })?;
    with_inputs(staged, tolerance, |inputs| {
        execute_steps(inputs, faults, opts, None, &mut seats, 0)
    })
}

/// `(steps, halo, shipments, migrated, contact_pairs, repartitions)`.
pub type Totals = (usize, u64, u64, u64, u64, usize);

/// Every executed total a traced run accumulates.
pub fn totals(r: &TraceReport) -> Totals {
    (r.steps, r.halo, r.shipments, r.migrated, r.contact_pairs, r.repartitions)
}

/// What a clean (fault-free) run of `opts` must execute, predicted
/// without threads, messages, batches or a planner: one loop over the
/// snapshots that counts FEComm on the topology rows (`FeCost`), NRemote
/// by asking the search tree for every element's candidate parts, the
/// contact pairs with the serial search, and the migrated nodes from the
/// diffusion repartition at every period boundary. It shares with the
/// traced driver the scenario, the induce-then-refresh tree chain and
/// `cip_core`'s per-snapshot primitives (`contact_graph`, `decompose`,
/// `repartition_step`, `merge_live`, `surface_elements`, `FeCost`), so a
/// bug in one of those shows on both sides; `tests/metrics_oracle.rs` is
/// what checks them against independent recomputations.
pub fn serial_reference(opts: &TraceOptions) -> Totals {
    let k = opts.k;
    let mut scfg = scenario_config(&opts.scenario).expect("registry scenario");
    if let Some(n) = opts.snapshots {
        scfg.snapshots = n;
    }
    let sim = cip::sim::run(&scfg);
    let rec = Recorder::disabled();
    let dcfg = DtreeConfig::search_tree();

    // The paper's decomposition of snapshot 0, then plain diffusion at
    // every boundary.
    let cfg = McmlDtConfig {
        partitioner: PartitionerConfig::with_seed(opts.seed),
        ..McmlDtConfig::paper(k)
    };
    let graph0 = contact_graph(&sim, 0, cfg.graph_options(), &rec);
    let mut node_parts = decompose(&graph0, &sim.snapshots[0].points, &cfg).node_parts;
    let cfg =
        McmlDtConfig { repartition_method: RepartitionMethod::Diffusion, dt_friendly: None, ..cfg };

    let (mut halo, mut shipments, mut migrated, mut pairs, mut repartitions) = (0, 0, 0, 0, 0);
    let mut tree: Option<DecisionTree<3>> = None;
    for (i, snap) in sim.snapshots.iter().enumerate() {
        let boundary = opts.repartition_period.is_some_and(|p| p > 0 && i > 0 && i % p == 0);
        if boundary && k >= 2 {
            let graph = contact_graph(&sim, i, cfg.graph_options(), &rec);
            let moved = repartition_step(&graph, &snap.points, &node_parts, k, &cfg);
            migrated += build_migration(&node_parts, &moved, k).total_moved();
            repartitions += 1;
            merge_live(&mut node_parts, &moved);
            tree = None;
        }

        halo += FeCost::of(sim.topology(i, &rec), &node_parts, k).fe_comm;

        let nodes = &snap.contact.contact_nodes;
        let (positions, labels) = (gather(nodes, &snap.points), gather(nodes, &node_parts));
        let next = match &tree {
            None => induce(&positions, &labels, k, &dcfg),
            Some(prev) => refresh(prev, &positions, &labels, k, &dcfg).0,
        };
        let elements = surface_elements(&snap.contact.faces, &snap.points, &node_parts);
        let filter = DtreeFilter::new(&next, k);
        let mut candidates = Vec::new();
        for el in &elements {
            filter.candidate_parts(&el.bbox.inflate(0.4), &mut candidates);
            shipments += candidates.iter().filter(|&&p| p != el.owner).count() as u64;
        }
        tree = Some(next);

        pairs +=
            serial_contact_pairs(&elements, &face_bodies(&snap.contact.faces), 0.4).len() as u64;
    }
    (sim.len(), halo, shipments, migrated, pairs, repartitions)
}

/// The contact-pair oracle: every `a < b` of different bodies, both boxes
/// non-empty, with `boxes[a]` inflated by `tolerance` meeting `boxes[b]` —
/// by trying all of them. Shares nothing with the library's search (no
/// hulls, no grid), so "the search equals this" is not the search compared
/// with itself.
pub fn brute_force_pairs<const D: usize>(
    boxes: &[Aabb<D>],
    body: &[u16],
    tolerance: f64,
) -> Vec<ContactPair> {
    let mut pairs = Vec::new();
    for a in 0..boxes.len() {
        if boxes[a].is_empty() {
            continue;
        }
        let q = boxes[a].inflate(tolerance);
        for b in a + 1..boxes.len() {
            if body[a] != body[b] && !boxes[b].is_empty() && q.intersects(&boxes[b]) {
                pairs.push(ContactPair { a: a as u32, b: b as u32 });
            }
        }
    }
    pairs
}

/// Re-derives a frame's checksum after tampering, so the targeted
/// validation (not the CRC) is what has to reject it.
pub fn re_crc(frame: &mut [u8]) {
    let crc = cip_transport::wire::crc32(&[&frame[..26], &frame[HEADER_LEN..]]);
    frame[26..30].copy_from_slice(&crc.to_le_bytes());
}

/// What every decoder owes its input, checked through `reencode`
/// (decode, then encode what came out) on one sample's `bytes`:
/// a byte-exact round trip (injective, so NaN payloads count); every
/// strict prefix rejected; a `1 << 30` count at each of `counts` (the
/// offsets of the sample's sequence counts) rejected as `Malformed`, i.e.
/// before anything is allocated or read for it; and seeded tampering
/// from offset `body` on never panics and is accepted only if canonical
/// (`encode(decode(b)) == b`, what the content-hash cache relies on).
/// `seal` re-validates the envelope after tampering.
pub fn decoder_contract(
    bytes: &[u8],
    counts: &[usize],
    body: usize,
    seal: impl Fn(&mut [u8]),
    reencode: impl Fn(&[u8]) -> Result<Vec<u8>, WireError>,
) {
    assert_eq!(reencode(bytes).as_deref(), Ok(bytes), "round trip changed the bytes");
    for cut in 0..bytes.len() {
        assert!(reencode(&bytes[..cut]).is_err(), "prefix {cut}/{} decoded", bytes.len());
    }
    for &at in counts {
        let mut b = bytes.to_vec();
        b[at..at + 4].copy_from_slice(&(1u32 << 30).to_le_bytes());
        seal(&mut b);
        let got = reencode(&b);
        assert!(matches!(got, Err(WireError::Malformed { .. })), "count at {at}: {got:?}");
    }
    let seed = env_seed() ^ bytes.len() as u64;
    let trials = if body < bytes.len() { 256 } else { 0 };
    for trial in 0..trials {
        let mut b = bytes.to_vec();
        for j in 0..=trial % 3 {
            let draw = splitmix64(seed, trial * 4 + j);
            b[body + (draw >> 8) as usize % (bytes.len() - body)] = draw as u8;
        }
        seal(&mut b);
        if let Ok(back) = reencode(&b) {
            assert_eq!(back, b, "a non-canonical encoding was accepted");
        }
    }
}

/// [`decoder_contract`] for every framed sample (a message and the
/// payload offsets of its counts), plus what the frame adds: every
/// single-bit flip rejected; an unknown tag, a bad version and an
/// oversized length rejected typed even under a recomputed CRC; and
/// seeded random payloads under every tag never panic and are accepted
/// only if canonical.
pub fn wire_contract<M: Wire + std::fmt::Debug>(samples: &[(M, Vec<usize>)]) {
    let frame = |msg: &M, to: u32| {
        let mut buf = Vec::new();
        encode_frame(msg, to, &mut buf);
        buf
    };
    let reencode = |b: &[u8]| {
        let (msg, to, used) = decode_frame::<M>(b)?;
        assert_eq!(used, b.len(), "a frame consumes itself exactly");
        Ok(frame(&msg, to))
    };
    for (i, (msg, counts)) in samples.iter().enumerate() {
        let bytes = frame(msg, i as u32);
        let counts: Vec<usize> = counts.iter().map(|c| c + HEADER_LEN).collect();
        decoder_contract(&bytes, &counts, HEADER_LEN, re_crc, reencode);
        for bit in 0..bytes.len() * 8 {
            let mut b = bytes.clone();
            b[bit / 8] ^= 1 << (bit % 8);
            assert!(decode_frame::<M>(&b).is_err(), "{msg:?}: flipped bit {bit} went undetected");
        }
    }
    let tampered = |at: usize, patch: &[u8]| {
        let mut b = frame(&samples[0].0, 0);
        b[at..at + patch.len()].copy_from_slice(patch);
        re_crc(&mut b);
        decode_frame::<M>(&b).map(drop)
    };
    assert_eq!(
        tampered(0, &[WIRE_VERSION + 1]),
        Err(WireError::BadVersion { got: WIRE_VERSION + 1 })
    );
    assert_eq!(tampered(1, &[0xEE]), Err(WireError::BadTag { got: 0xEE }));
    let over = MAX_PAYLOAD + 1;
    assert_eq!(tampered(22, &(over as u32).to_le_bytes()), Err(WireError::Oversized { len: over }));
    for trial in 0..4096u64 {
        let draw = splitmix64(env_seed() ^ 0xF8A3E, trial);
        let len = (draw >> 16) as usize % 48;
        let mut b = vec![0u8; HEADER_LEN + len];
        (b[0], b[1], b[22]) = (WIRE_VERSION, draw as u8 % 16, len as u8);
        for (j, byte) in b[HEADER_LEN..].iter_mut().enumerate() {
            // Mostly small values, so tags, flags and counts are often plausible.
            let r = splitmix64(draw, j as u64);
            *byte = if r.is_multiple_of(4) { (r >> 8) as u8 } else { (r >> 8) as u8 % 3 };
        }
        re_crc(&mut b);
        if let Ok(back) = reencode(&b) {
            assert_eq!(back, b, "a non-canonical payload was accepted");
        }
    }
}
