//! The generator contract: `cip_base::rng` is the generator every committed
//! benchmark count was measured with, so its streams are pinned here to
//! values dumped from `crates/ladder/offline/rand` (`SmallRng`,
//! `gen_range(0..n)`, `SliceRandom::shuffle`) at the commit before that
//! stand-in stopped being linked. An edit to a constant, to the range
//! rejection rule or to the shuffle direction changes every partition and
//! fails here first.

use cip::base::rng::{splitmix64, Rng};
use cip::partition::PartitionerConfig;

/// 64 `next_u64` draws per seed, 4 draws (16 hex digits each) per line.
const GOLDEN_STREAMS: [(u64, [&str; 16]); 4] = [
    (
        0x0,
        [
            "53175d61490b23df61da6f3dc380d5075c0fdf91ec9a7bfc02eebf8c3bbe5e1a",
            "7eca04ebaf4a5eea0543c37757f08d9adb7490c75ab5026ed87343e6464bc959",
            "4b7da0a02389f0ff1300fc58c0424c165084843206c1996810ea073de9aa4dfc",
            "1aae554343960cc11804139f10fae72010d790e7b8ac10fa667d2bffdd1496f7",
            "a04620d3d0fc04a81d50881230af9cc353be287ded35f698673235793f7908e1",
            "46e91feb4535fbdc216c1524cbac57c00a53eb08063a44df45f965b948778197",
            "6f2fa9d01ba0388760c57eba69ed4e1522c65ce977dd39cba5d1ce0c5a7c6abf",
            "e8e26337cde132680b4a575fdb6f8160400feb0bae786424633e0b621080bf50",
            "5a456e5a144e059bdc75548b5cd2e8cddf9d76f766648113342bf8b7aec0de41",
            "831593e6b50ae92829e12b2a1872d7dbb6362d8b640aec492e78698eb5bba4a9",
            "9064494b8287afb94c04974c6c1b47675863b8685408be730e8ca571066bc302",
            "088959d638956a372e9392dfd5c30e8636da000d696e9d9e2a839b60548c1044",
            "3ebbaffcc5f270ca6da02738c0f92ee5962fd83157fe1682856dcc088cece014",
            "ca8717351ab24cbd231527552d01818406793b14839607ecc54f89a7e193e5c1",
            "bacc209dd739707c7dc7053580f1ff204ee696659cc1be91a3cb5d7769921646",
            "9c002aaa8a687dedc0c3a216563d9ae2035b6d98ee8a1b1968d89ab6ea60f57d",
        ],
    ),
    (
        0x1,
        [
            "cfc5d07f6f03c29bbf424132963fe08d19a37d5757aaf520bf08119f05cd56d6",
            "2f47184b86186fa497299fcae7202345fca3c79508f4150785fea5c90363f221",
            "18bae5b30d334bd0226113c9f026ec16eb9e0ef9dccfe64957efaedd9f6cffb3",
            "128ae2d5697640d665033a4eee50504916e9453ed54a88ba28065aa8f428a8bb",
            "8ea047165f041da2791032d9a4f72ef3f53882542839ed9ea46adeb140800f4a",
            "439401c53ed0d70bcb3fb2f0cfd1060a28a2232958e06eeb69d8ec3a36a7ffa4",
            "3cd9741a15d0a26b9a4ebf2d376dba702f27c4c8cc76f56afb68dacb355a2892",
            "9c77729184aa08f8bae7a269e5248e3697f3078dc02e78afa646c7e95f6ed1df",
            "81df0abdf578c6769ecd7c9da746b5fdf44a5948aaf0b53652b44e313e400271",
            "1bb5f30cc31948fdbbf833184be068eae70e2ead13b404f4b115c91c2095ae67",
            "78672edc8b5acacc7fbb09eab8d1b4d7631f1cdf5e4e66edceb9764e32a5c00e",
            "91e7fea40602fe82986364e157c36241a03a545afe1dcc873316b8517edb39ec",
            "1588ceb81a6679370f1fd6f5d7e6580cbebadfa444a5245191a83dd36f6f1f3d",
            "4faf0f08137610fe27be8394119090136f4de38408d73bc77d5227eccb8e066a",
            "3859a14d6b88486942cb0b2b0c27cb5365278361202136df1524403382bbb7c2",
            "2cab33c6c2ce2ee9763a9a9b5976a28fd811a286f40412735ca3764bbdf7fb18",
        ],
    ),
    (
        0x7,
        [
            "0e2c1a002aae913d2c0fc8ddfa4e9e14b7b311b3b0d458726d5d9f6a6318013c",
            "f6b263f2f579037677385b627c22c489b951f9b3621ea38054705b5adc01e528",
            "fb797f4d139c03dd12c2b9fdd9c111ed1d3ee9ebb95712392c061aa41969ae7e",
            "bbdbdf062e10c4091cf3305d746a1ca77ea068f1c1c8824f18e718927f54e75b",
            "29ae2b86cc1365e52f36ae4712c2aabe1c2503d28c43d52bca3959f6a3c6b39c",
            "acf56b1fbeddbdf46aa99e6b5e55f254cae4e13a01e2096387e6d626f22341b2",
            "d7c7fc5d5daafb0e017b70beb6f81a0c016319a0b87a78191edc5ff1a2b08acd",
            "62812fd26c706e7f492d307ed802cc43cd9910de6a7d1f8015442e144b8d2440",
            "81f1131db7642c03d5427ada7d5fce8c574fb3dd612fb6b19e0fbee184e17741",
            "40c43f939208be41964ea26ab80f31b4d6640864a2a783bfbd7f97da35f7c249",
            "f951023b538364f79e15b99abb8093460f7d79ada09c69bf663d6da979f32084",
            "2495f392bb18ce7994bd1e281e494cb94f036a72d2679a9b16b50822fde2e074",
            "4c28581ef0353a09d90a9b189cdc5cfb0e025347771518d6881b8bcd35bf0782",
            "383ac068c50c1336f1d5689477ac928b90ed3284d75b8dfbd12e725accfb87e4",
            "2e3fcd9a801d79ee49f83c0ef784e449f6d804ef2b57a3ef6015050b86496c79",
            "2bb0604156e5cb6eb7d777e88440f754136b88f0bd68d7cfe11e46a8cab0f9e3",
        ],
    ),
    (
        0x6228bdf846879210,
        [
            "b42cb9290efb4f582f9ef4abf136c8a8464b35b7a4f076e2b9f920c1759ef98c",
            "6cb33bd79317e7a57e502f4e7c448f09fb45d685c5cd5351683034f28d42abae",
            "df7d3a983e4707ac011dfce41a2e16e9261ad909f1c385eb5d9e003541c13031",
            "68a923c78750521301602677aa2e37248436c395622508f789b36c5c4f663989",
            "8d173bc0730d5dd505e1930859d0e27f32ea8b10265228004c2fad2dd20e64ac",
            "58de832f42974287d53b28da9e120cc1030bc64d575741694abfd7c8729858e7",
            "662dbe8c9c795d5a09712d1773c3160ded5189aa5170357e77d216ae68999123",
            "ee9b6e06f2935bf132b1edbb81c1d6a117af27524760a0c643a9a218875aa9cf",
            "3e7f6e66e32888c99d109ab8ae83a27f3a847b17165351de7cc155a9506f5ce7",
            "7f6f57ebac913876cade8bdbe1df31b93f005a5380006964f606b6cf4459c46f",
            "494e62d2351a124e98d03d5f4a18b2c361ffd37b1a00ec612f77b38962b8fc13",
            "579a3778900f3855ef275c7987f0fd9218726dda0494e365b2f02cb0a57be32c",
            "e389eb2e94e0a06144c31ea2dec06f8d779c30bb793cf097cf0a32fa3517fc88",
            "0aa9fbf67f3f3755a40b940e6c36196bdd8404073688f6a398b726c8d7ae3563",
            "e409b819a7da41fa53255a99966ad30bc423e19641a83ae450095ca54f75bae8",
            "8cb9081f162d55b34ccad4116b02192fc44f28dc414358071452e928ec36cba1",
        ],
    ),
];

/// 32 `range_u32(bound)` draws from seed 7.
const GOLDEN_RANGES: [(u32, [u32; 32]); 3] = [
    (
        3,
        [
            0, 0, 2, 1, 1, 2, 0, 0, 0, 2, 0, 1, 0, 0, 0, 0, 2, 2, 1, 2, 1, 2, 0, 0, 0, 1, 2, 0, 1,
            2, 1, 2,
        ],
    ),
    (
        17,
        [
            12, 7, 16, 12, 1, 12, 8, 3, 13, 11, 7, 13, 9, 14, 0, 0, 2, 1, 14, 10, 4, 14, 10, 1, 2,
            5, 1, 5, 14, 9, 16, 3,
        ],
    ),
    (
        u32::MAX,
        [
            237771263, 739231964, 3081966002, 1834852201, 4138886129, 2000182113, 3109157298,
            1416649561, 4219043660, 314751484, 490662378, 738597539, 3151748869, 485699676,
            2124441840, 417798289, 699280261, 792112710, 472187857, 3392756213, 2901764894,
            1789501034, 3403997497, 2280052261, 3620207708, 24867005, 23271839, 517758960,
            1652633553, 1227698301, 3449360605, 356789779,
        ],
    ),
];

/// `0..100` shuffled from seed 1.
#[rustfmt::skip]
const GOLDEN_SHUFFLE: [u32; 100] = [
    43, 76, 20, 52, 36, 97, 45, 44, 0, 63, 3, 19, 27, 2, 84, 7, 17, 89, 98, 47, 34, 87, 16, 86,
    71, 59, 55, 68, 70, 38, 82, 1, 11, 31, 53, 60, 33, 74, 65, 57, 64, 75, 23, 77, 48, 26, 6,
    46, 62, 61, 29, 95, 22, 12, 30, 93, 99, 41, 67, 72, 28, 66, 5, 25, 91, 94, 10, 21, 78, 4,
    40, 79, 83, 54, 92, 24, 73, 39, 51, 58, 49, 80, 15, 90, 35, 13, 69, 56, 85, 42, 50, 14, 8,
    37, 32, 88, 9, 96, 18, 81,
];

#[test]
fn streams_replay_the_generator_the_benchmark_measured() {
    assert_eq!(
        GOLDEN_STREAMS[3].0,
        splitmix64(1, 0x4EF1E),
        "the k-way refinement seed of config seed 1"
    );
    for (seed, golden) in GOLDEN_STREAMS {
        let mut rng = Rng::seed_from_u64(seed);
        let stream: String = (0..64).map(|_| format!("{:016x}", rng.next_u64())).collect();
        assert_eq!(stream, golden.concat(), "seed {seed:#x}");
    }
}

#[test]
fn ranges_and_shuffle_replay_too() {
    for (bound, golden) in GOLDEN_RANGES {
        let mut rng = Rng::seed_from_u64(7);
        let draws: Vec<u32> = (0..32).map(|_| rng.range_u32(bound)).collect();
        assert_eq!(draws, golden, "0..{bound}");
    }
    let mut items: Vec<u32> = (0..100).collect();
    Rng::seed_from_u64(1).shuffle(&mut items);
    assert_eq!(items, GOLDEN_SHUFFLE);
}

/// FNV-1a over an assignment's part ids.
fn fnv1a(assignment: &[u32]) -> u64 {
    assignment
        .iter()
        .flat_map(|p| p.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// The two-constraint nodal graph of the first of `snapshots` snapshots.
fn first_snapshot_graph(mut cfg: cip::sim::SimConfig, snapshots: usize) -> cip::graph::Graph {
    cfg.snapshots = snapshots;
    let sim = cip::sim::run(&cfg);
    let mask = sim.snapshots[0].contact.contact_node_mask(sim.base.num_nodes());
    let topology = sim.topology(0, &cip::telemetry::Recorder::disabled());
    topology.graph(&mask, cip::mesh::graphs::NodalGraphOptions::default()).graph
}

/// `partition_kway` of the benchmark's meshes — `head_on` at k = 4, as the
/// traced and served jobs cut it, and `SimConfig::medium()` at k = 25, as
/// `decompose_medium` does — for config seeds 1–8, hashed. Every committed
/// `fe_comm` / `n_remote` count was measured on these partitions, so a
/// speed-up of the coarsening (which must not change a partition) is
/// checked here against them.
#[test]
fn partitions_of_the_benchmark_meshes_replay_too() {
    const GOLDEN: [(&str, usize, [u64; 8]); 2] = [
        (
            "head_on",
            4,
            [
                17273540569066936902,
                15311192499085418183,
                3774743902806661718,
                18336642219263238244,
                4699289188861494228,
                16852644645025586405,
                4920978668805047956,
                12337288765140077206,
            ],
        ),
        (
            "medium",
            25,
            [
                18132724090046698129,
                17914008057951821460,
                660658311916657323,
                8019692194746662667,
                14286413640297054781,
                15787550575470982631,
                1663750180552634640,
                13557992530742340850,
            ],
        ),
    ];
    for (name, k, golden) in GOLDEN {
        let g = match name {
            "head_on" => first_snapshot_graph(cip::sim::head_on(), 10),
            _ => first_snapshot_graph(cip::sim::SimConfig::medium(), 40),
        };
        let hashes = (1..=8u64).map(|seed| {
            fnv1a(&cip::partition::partition_kway(&g, k, &PartitionerConfig::with_seed(seed)))
        });
        assert_eq!(hashes.collect::<Vec<_>>(), golden, "{name} at k = {k}");
    }
}

/// The paths that read the partitioner's fixed pass counts and bounds
/// through `refine_kway` / `balance_kway` rather than `partition_kway`
/// alone, on `head_on` (100 snapshots) at k = 4 for config seeds 1–8,
/// hashed: the MCML+DT decomposition of snapshot 0 with the DT-friendly
/// correction on (`node_parts`, as the traced session computes it), and
/// the diffusion and scratch-remap repartitions of that partition onto
/// snapshot 10's graph (the traced session's first boundary at period 10).
#[test]
fn decompositions_and_repartitions_replay_too() {
    use cip::core::{contact_graph, decompose, gather, McmlDtConfig};
    use cip::partition::{diffusion_repartition, repartition};
    // [node_parts, diffusion, scratch-remap] per seed. Nothing has eroded
    // by snapshot 10, so its graph is the one the `head_on` row above
    // partitions, and scratch-remap (which relabels nothing here) repeats
    // that row's hashes.
    const GOLDEN: [[u64; 3]; 8] = [
        [7503802729196138822, 7503802729196138822, 17273540569066936902],
        [7466348006016903045, 7086974984319891269, 15311192499085418183],
        [7295830176958271350, 7295830176958271350, 3774743902806661718],
        [11426179851089869478, 7765983608972868358, 18336642219263238244],
        [15214192812719604134, 10651115257365757654, 4699289188861494228],
        [4788315400177252646, 4788315400177252646, 16852644645025586405],
        [9313015899042948934, 9313015899042948934, 4920978668805047956],
        [10845059448368602918, 10845059448368602918, 12337288765140077206],
    ];
    let sim = cip::sim::run(&cip::sim::head_on());
    let rec = cip::telemetry::Recorder::disabled();
    let k = 4;
    let got: Vec<[u64; 3]> = (1..=8u64)
        .map(|seed| {
            let cfg = McmlDtConfig {
                partitioner: PartitionerConfig::with_seed(seed),
                ..McmlDtConfig::paper(k)
            };
            let graph0 = contact_graph(&sim, 0, cfg.graph_options(), &rec);
            let node_parts = decompose(&graph0, &sim.snapshots[0].points, &cfg).node_parts;
            let graph10 = contact_graph(&sim, 10, cfg.graph_options(), &rec);
            let old = gather(&graph10.node_of_vertex, &node_parts);
            let pc = &cfg.partitioner;
            [
                fnv1a(&node_parts),
                fnv1a(&diffusion_repartition(&graph10.graph, k, &old, pc)),
                fnv1a(&repartition(&graph10.graph, k, &old, pc)),
            ]
        })
        .collect();
    assert_eq!(got, GOLDEN);
}
