#!/usr/bin/env bash
# Benchmark snapshot: builds and runs the `bench_snapshot` harness, which
# times the hot partitioner paths (k-way refinement sequential/parallel,
# the multilevel drivers, 2-way FM, grid broad phase) and writes
# results/BENCH_partition.json in the cip-results-v1 envelope. CI uploads
# the file as an artifact so successive runs can be diffed. (Executor and
# end-to-end numbers come from the repo's benchmark instead:
# `bash crates/ladder/bench.sh bench --workload trace_inproc ...`.)
#
# Usage: scripts/bench_snapshot.sh [--side N] [--reps R]
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release -p cip-bench --bin bench_snapshot"
cargo build --release -p cip-bench --bin bench_snapshot

echo "==> bench_snapshot $*"
./target/release/bench_snapshot "$@"

echo "bench snapshot: OK (results/BENCH_partition.json)"
