#!/usr/bin/env bash
# Tier-1 verification gate: build, tests, lints, formatting.
# Run from anywhere; operates on the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --locked"
cargo build --release --locked

echo "==> cargo test -q --workspace --locked"
cargo test -q --workspace --locked

echo "==> cargo clippy --workspace --all-targets --locked -- -D warnings"
cargo clippy --workspace --all-targets --locked -- -D warnings

echo "==> cargo doc --workspace --no-deps --locked"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --locked --quiet

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> no external crates"
# The workspace depends on itself and std (DESIGN.md §5c): every resolved
# package is a path crate, the committed lockfile names no registry, and
# nothing imports one of the seven crates cip-base and the ToJson trait
# replaced (crates/ladder/offline holds their old stand-ins, linked by
# nothing).
metadata=$(cargo metadata --offline --locked --format-version 1)
if grep -q '"source":"' <<<"$metadata"; then
  echo "verify: FAIL — cargo metadata resolves a package from outside the tree"
  exit 1
fi
if grep -n '^source = ' Cargo.lock; then
  echo "verify: FAIL — Cargo.lock names an external source"
  exit 1
fi
if grep -rnE --include='*.rs' \
    '^(use|extern crate) +(rand|rayon|serde|serde_json|crossbeam|proptest|criterion)\b' \
    src crates tests examples | grep -v '^crates/ladder/offline/'; then
  echo "verify: FAIL — an external crate is imported again"
  exit 1
fi

echo "==> no panics on the runtime step hot path"
# The executor must fail with typed RuntimeError values, never panic:
# scan the non-test portion (everything before #[cfg(test)]) of the
# step executor (the rank loop and driver in pipeline.rs, the send and
# receive primitives in exec.rs), the whole transport crate (corrupt
# frames and dead sockets are typed errors, DESIGN.md §6c), and the
# worker-pool driver.
for hot_path in crates/runtime/src/exec.rs crates/runtime/src/pipeline.rs \
    crates/transport/src/*.rs src/worker.rs \
    crates/server/src/*.rs src/service.rs src/bin/cip-serve.rs; do
  if sed '/#\[cfg(test)\]/q' "$hot_path" \
      | grep -nE '\.unwrap\(\)|\.expect\(|panic!'; then
    echo "verify: FAIL — unwrap/expect/panic on the runtime step hot path ($hot_path)"
    exit 1
  fi
done

echo "==> no stringly-typed errors on public cip entry points"
# Fallible cip APIs carry typed errors (TraceError, ServerError, ...):
# Result<_, String> is banned from the facade crate and the job server.
if grep -rnE 'Result<[^>]*,[[:space:]]*String[[:space:]]*>' src crates/server/src; then
  echo "verify: FAIL — Result<_, String> on a public cip entry point"
  exit 1
fi

echo "==> one codec, one fate stream"
# Every wire layout is a field list handed to the Codec macros (DESIGN.md
# §6c), and every seeded fault source draws from cip_transport::fate.
# Non-test code (everything before #[cfg(test)]) must not grow a second
# copy of either: no hand-sized "count x N > remaining()" guard outside
# the codec itself, and the SplitMix64 increment in exactly one place —
# cip_base::rng::splitmix64, which seeds the generator, is what
# cip_transport::fate re-exports and is what cip-partition's child_seed
# calls (cip-ladder is the benchmark and keeps its own).
non_test() { # FILE... -> their non-test lines, prefixed "FILE:"
  for src in "$@"; do sed '/#\[cfg(test)\]/q' "$src" | sed "s|^|$src:|"; done
}
mapfile -t srcs < <(find src crates -name '*.rs' -not -name proptests.rs \
  -not -path 'crates/ladder/*')
if non_test "${srcs[@]}" | grep -v '^crates/transport/src/\(wire\|frame\)\.rs:' | grep 'remaining()'; then
  echo "verify: FAIL — payload-length arithmetic outside the codec"
  exit 1
fi
splitmix_sites=$(non_test "${srcs[@]}" | grep -ciE '0x9E37_?79B9_?7F4A_?7C15' || true)
if [ "$splitmix_sites" -ne 1 ]; then
  echo "verify: FAIL — $splitmix_sites SplitMix64 copies in non-test code (want 1: cip_base::rng)"
  exit 1
fi

echo "==> one mesh per session, one shipment per peer"
# The executor runs over mailboxes its caller connected once
# (cip_runtime::connect_ranks; DESIGN.md §6b): non-test pipeline.rs never
# builds a mesh and is not generic over a transport. And surface elements
# ship in bulk: the one-element message variant stays gone (the wire
# contract's comments may still name it as history).
if non_test crates/runtime/src/pipeline.rs \
    | grep -E '\.connect(::<[^>]*>)?\(|[A-Za-z]: *Transport\b|(\+|impl|dyn) +Transport\b'; then
  echo "verify: FAIL — the step executor builds or is generic over a mesh transport"
  exit 1
fi
if grep -rn --include='*.rs' 'Msg::Element {' src crates tests examples \
    | grep -v '^tests/wire_contract\.rs:[0-9]*: *//'; then
  echo "verify: FAIL — a per-element shipment message is back"
  exit 1
fi

echo "==> one broad phase"
# The local search culls to the cross-body contact zone and sweeps it along
# one axis (DESIGN.md §5, cip-contact): neither the uniform grid that sweep
# replaced nor the incremental grid cache before it may come back as a
# second path.
if [ -e crates/contact/src/grid.rs ]; then
  echo "verify: FAIL — crates/contact/src/grid.rs is back"
  exit 1
fi
if grep -rn --include='*.rs' -E \
    '\b(UniformGrid|GridScratch|for_each_cell|SearchCache|find_contact_pairs_cached|GridUpdate)\b' \
    src crates tests examples | grep -v '^crates/ladder/'; then
  echo "verify: FAIL — a grid broad phase or its incremental cache is back"
  exit 1
fi

echo "==> a step and an epoch cost what changed"
# Staging computes each quantity at the rate its inputs change (DESIGN.md
# §5 "topology epochs"): the step path reads node positions from the run's
# snapshots and adjacency rows from the epoch's topology, so non-test
# src/staging.rs never materialises a view, a mesh or a weighted graph,
# and never derives a decomposition from one. Upstream of it the simulation
# sorts the base mesh's facets once (FacetIndex) and rescans per erosion
# event, so non-test dynamics.rs never re-extracts a surface.
if non_test src/staging.rs | grep -E 'SnapshotView|mesh_at\(|\.graph\(|build_decomposition\('; then
  echo "verify: FAIL — step staging materialises a view, a mesh or a graph again"
  exit 1
fi
if non_test crates/sim/src/dynamics.rs | grep 'extract_surface('; then
  echo "verify: FAIL — the simulation re-sorts the live facets per erosion event again"
  exit 1
fi
# The same for the edges and the erosion: a topology is the base mesh's
# EdgeIndex (sorted once per run) minus the dead elements' support, one scan
# with no row sort, and nothing builds one another way; the step loop of
# cip_sim::run erodes a prefix of the bore list sorted once per run, and
# never rescans every element's centroid.
topology_fn=$(sed -n '/pub fn topology(/,/^    }$/p' crates/mesh/src/graphs.rs)
if [ -z "$topology_fn" ] || grep -n 'sort' <<<"$topology_fn"; then
  echo "verify: FAIL — EdgeIndex::topology is gone or sorts rows per epoch again"
  exit 1
fi
if grep -rn --include='*.rs' 'NodalTopology::build' src crates; then
  echo "verify: FAIL — a topology is built outside EdgeIndex"
  exit 1
fi
step_loop=$(sed -n '/for step in 1\.\.=cfg\.steps/,/^    }$/p' crates/sim/src/dynamics.rs)
if [ -z "$step_loop" ] || grep -nE 'centroid|num_elements|\.elements' <<<"$step_loop"; then
  echo "verify: FAIL — the simulation's step loop is gone or scans every element again"
  exit 1
fi

echo "==> one path from snapshot to number"
# Every per-snapshot number — the evaluators', the traced session's, the
# paper-reproduction bins' and the examples' — is computed from cip-core's
# primitives over the snapshot itself and its epoch's topology (DESIGN.md
# §5 "topology epochs"). SnapshotView stays a fixture for the oracle tests
# and the benchmark (crates/ladder), so none of that non-test code names it
# or materialises a mesh.
mapfile -t one_path < <(find src crates/bench/src examples -name '*.rs')
if non_test crates/core/src/{mcml_dt,ml_rcb,known_contact}.rs "${one_path[@]}" \
    | grep -E 'SnapshotView|mesh_at\('; then
  echo "verify: FAIL — a pipeline prices a snapshot through a view or a mesh copy again"
  exit 1
fi

echo "==> one thread per role in the job server"
# The job server runs an accept loop, one handler per connection and a
# fixed worker pool, and nothing else (DESIGN.md §6e): a worker recovers
# its own panicked job, a Result waiter enforces its job's deadline, and
# the counters are one ServerStats under the state lock. No polling thread
# that respawns workers or watches deadlines, and no second counter block.
if non_test crates/server/src/lib.rs | grep -E 'AtomicU64|supervisor|spawn_worker'; then
  echo "verify: FAIL — the job server grew a supervisor thread or a second counter block"
  exit 1
fi

echo "==> a rank writes its own frames"
# On a TCP mesh the sending rank encodes and writes each frame itself and
# one reader thread per peer fills its inbox (DESIGN.md §6c): non-test
# tcp.rs spawns exactly that reader and no writer thread, and the frame
# CRC advances eight bytes per round over eight 256-entry tables.
spawns=$(non_test crates/transport/src/tcp.rs | grep -c 'thread::spawn' || true)
if [ "$spawns" -ne 1 ] || non_test crates/transport/src/tcp.rs | grep 'writer_loop'; then
  echo "verify: FAIL — the TCP backend hands frames to a writer thread again"
  exit 1
fi
# (No `grep -q` after a pipe: under pipefail, its early exit can kill the
# writer with SIGPIPE and fail a check that matched.)
if ! non_test crates/transport/src/wire.rs | grep '\[\[u32; 256\]; 8\]' >/dev/null; then
  echo "verify: FAIL — the frame CRC is no longer slicing-by-8"
  exit 1
fi

echo "==> one partitioner driver, no scratch between calls"
# cip-partition has one k-way driver, multilevel recursive bisection
# (DESIGN.md §5d), and no entry point keeps scratch from one call to the
# next: the second driver, the cross-call workspace bundle and the job
# server's per-worker workspace stay gone, and PartitionerConfig keeps its
# five fields (effort bounds are private constants beside their code).
if grep -rnE 'kway_ml|partition_kway_multilevel|PartitionWorkspace|partition_kway_with' \
    src crates tests examples DESIGN.md README.md | grep -v '^crates/ladder/'; then
  echo "verify: FAIL — a second k-way driver or a cross-call partitioner workspace is back"
  exit 1
fi
if grep -rn 'type Workspace' crates/server/src; then
  echo "verify: FAIL — the job server hands its runner a per-worker workspace again"
  exit 1
fi
config_fields=$(non_test crates/partition/src/config.rs \
  | sed -n '/pub struct PartitionerConfig {/,/^[^ ]*:}/p' | grep -c ':    pub ' || true)
if [ "$config_fields" -ne 5 ]; then
  echo "verify: FAIL — PartitionerConfig declares $config_fields pub fields (want 5)"
  exit 1
fi

echo "==> a scenario once per server"
# Served jobs take their simulation from the job server's memo (DESIGN.md
# §6d): non-test service.rs builds its session over the memo, never with a
# fresh Session::build, and the memo rides the result cache's budgets
# rather than new knobs, so ServerConfig keeps its nine fields and
# TraceJobRunner stays the unit struct its callers construct.
if non_test src/service.rs | grep -E 'Session::build\('; then
  echo "verify: FAIL — the job runner runs a fresh simulation per job again"
  exit 1
fi
server_fields=$(non_test crates/server/src/lib.rs \
  | sed -n '/pub struct ServerConfig {/,/^[^ ]*:}/p' | grep -c ':    pub ' || true)
if [ "$server_fields" -ne 9 ]; then
  echo "verify: FAIL — ServerConfig declares $server_fields pub fields (want 9)"
  exit 1
fi
if ! non_test src/service.rs | grep 'pub struct TraceJobRunner;' >/dev/null; then
  echo "verify: FAIL — TraceJobRunner is no longer a unit struct"
  exit 1
fi

echo "==> one recipe each"
# A rank loss is recovered one way, the executed one (DESIGN.md §6b:
# Session compacts the survivors and diffusion-repartitions over them): the
# analytic evaluator's scripted copy stays gone, and McmlDtConfig keeps its
# eight fields. And one flag reader serves every binary: cip_base::cli alone
# walks the process arguments and owns the usage-error contract.
if grep -rnwE 'RankLoss|rank_loss|repartition_survivors|without_rank' \
    src crates tests examples DESIGN.md README.md | grep -v '^crates/ladder/'; then
  echo "verify: FAIL — a second, scripted rank-loss recovery is back"
  exit 1
fi
if grep -rn --include='*.rs' 'env::args' src crates tests examples \
    | grep -v '^crates/ladder/' | grep -v '^crates/base/src/cli\.rs:'; then
  echo "verify: FAIL — a binary walks its arguments outside cip_base::cli"
  exit 1
fi
mcml_fields=$(non_test crates/core/src/mcml_dt.rs \
  | sed -n '/pub struct McmlDtConfig {/,/^[^ ]*:}/p' | grep -c ':    pub ' || true)
if [ "$mcml_fields" -ne 8 ]; then
  echo "verify: FAIL — McmlDtConfig declares $mcml_fields pub fields (want 8)"
  exit 1
fi

echo "==> one round trip per job"
# Client::run_job is one JobMsg::Run exchange (DESIGN.md §6d): its body
# sends Run and never falls back to Submit + Result. Every framed control
# socket — the job server's connections, the client's, and both ends of
# the cip-worker control channel — reads through a BufReader, and the
# wire contract pins the Run frame.
run_job=$(non_test crates/server/src/client.rs | sed -n '/pub fn run_job(/,/^[^:]*:    }$/p')
if ! grep 'JobMsg::Run' <<<"$run_job" >/dev/null || grep -E 'self\.(submit|result)\(' <<<"$run_job"; then
  echo "verify: FAIL — Client::run_job is not one Run exchange"
  exit 1
fi
for framed in crates/server/src/lib.rs crates/server/src/client.rs src/worker.rs; do
  if ! non_test "$framed" | grep 'BufReader' >/dev/null; then
    echo "verify: FAIL — $framed reads its frames unbuffered"
    exit 1
  fi
done
if ! grep 'JobMsg::Run' tests/wire_contract.rs >/dev/null; then
  echo "verify: FAIL — the wire contract does not sample JobMsg::Run"
  exit 1
fi

echo "==> one way to run a job"
# JobMsg::Run is the only way to run a job (DESIGN.md §6d): the
# asynchronous verbs, their job states and the Client methods that sent
# them stay gone, and their wire tags stay retired (§6c).
if grep -rnE --include='*.rs' \
    'JobState|JobMsg::(Submit|Accepted|Status|StatusIs|Cancel|Result)\b' \
    src crates tests examples | grep -v '^crates/ladder/'; then
  echo "verify: FAIL — a retired job verb or JobState is back"
  exit 1
fi
if non_test crates/server/src/client.rs | grep -E 'fn (submit|status|cancel|result)\b'; then
  echo "verify: FAIL — Client grew an asynchronous job method again"
  exit 1
fi

echo "==> a lost step is re-run, not salvaged"
# A rank loss reports only who died (DESIGN.md §6b): the driver re-runs
# the step over the survivors, so no partial step output is searched,
# sent or folded — the loss outcome, its wire layout and RuntimeError
# carry no `partial` field. And the server alone owns a job's deadline
# (§6e): JobContext hands the runner its cancel token, not a deadline
# to budget by.
if non_test crates/runtime/src/{lib,pipeline,wire}.rs | grep -E '\bpartial\b[[:space:]]*[:,}]'; then
  echo "verify: FAIL — a rank loss salvages a partial step output again"
  exit 1
fi
if non_test crates/server/src/lib.rs | sed -n '/pub struct JobContext {/,/^[^ ]*:}/p' \
    | grep -E 'pub deadline\b'; then
  echo "verify: FAIL — JobContext hands the runner a deadline again"
  exit 1
fi

echo "==> one boundary planner"
# The next boundary's plan is a plain value in Session, made on a scoped
# thread beside one batch (DESIGN.md §6b): the detached planner module,
# its versioned keys and a spawned thread in the driver stay gone.
if [ -e crates/runtime/src/replan.rs ]; then
  echo "verify: FAIL — crates/runtime/src/replan.rs is back"
  exit 1
fi
if grep -rnwE --include='*.rs' 'Replanner|plan_version' src crates tests examples \
    | grep -v '^crates/ladder/'; then
  echo "verify: FAIL — a detached boundary planner or its plan version is back"
  exit 1
fi
if non_test src/trace.rs | grep 'thread::spawn'; then
  echo "verify: FAIL — the traced driver spawns a detached thread again"
  exit 1
fi

echo "==> one fault path"
# A step's faults are one Option<FaultPlan> from the driver to the rank
# loop, and every step completes by its Done counts (DESIGN.md §6b): the
# injector wrapper, the clean-step completion rule and the driver's copy
# of RunSpec stay gone.
if grep -rnwE --include='*.rs' 'FaultInjector|done_from|done_count|BatchSpec' \
    src crates tests examples | grep -v '^crates/ladder/'; then
  echo "verify: FAIL — a second fault path or completion rule is back"
  exit 1
fi

echo "==> one delivery path"
# Every step keeps its send history, answers Resend and closes its batch
# with the Complete round (DESIGN.md §6b): a fault plan only decides fates
# and kills, so the armed-only send record and the clean path's separate
# sequence counter stay gone.
if grep -rnwE --include='*.rs' 'ChaosState|sent_to' src crates tests examples \
    | grep -v '^crates/ladder/'; then
  echo "verify: FAIL — a second delivery path is back"
  exit 1
fi

echo "==> one rank loop"
# Everything a step waits on is received at one blocking site of the rank
# loop with one retry budget (DESIGN.md §6b): payloads, the migration that
# rides step 0, Done trailers, the completion round and a zombie's resend
# service. The Migrate prologue's receive table stays gone, and non-test
# pipeline.rs calls recv_or_idle exactly once.
if grep -rnw --include='*.rs' 'MigrateRecv' src crates tests examples \
    | grep -v '^crates/ladder/'; then
  echo "verify: FAIL — the Migrate prologue is back"
  exit 1
fi
recv_sites=$(non_test crates/runtime/src/pipeline.rs | grep -c 'recv_or_idle(' || true)
if [ "$recv_sites" -ne 1 ]; then
  echo "verify: FAIL — $recv_sites blocking receives in the rank loop (want 1)"
  exit 1
fi

echo "==> chaos is a seat"
# A frame's fate is decided in one place, the runtime's Chaos seat in
# crates/runtime/src/fault.rs (DESIGN.md §6b): the rank loop and its send
# and receive primitives name no Fate, and ExecOptions keeps its three
# policy fields (lane capacity is the mesh's MailboxConfig).
if non_test crates/runtime/src/exec.rs crates/runtime/src/pipeline.rs | grep -F 'Fate::'; then
  echo "verify: FAIL — the rank loop decides a frame's fate again"
  exit 1
fi
exec_fields=$(non_test crates/runtime/src/exec.rs \
  | sed -n '/pub struct ExecOptions {/,/^[^ ]*:}/p' | grep -c ':    pub ' || true)
if [ "$exec_fields" -ne 3 ]; then
  echo "verify: FAIL — ExecOptions declares $exec_fields pub fields (want 3)"
  exit 1
fi

echo "verify: OK"
