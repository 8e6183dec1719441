#!/usr/bin/env bash
# Builds cip-ladder (release) and runs it with the arguments given, from the
# repository root:  bash crates/ladder/bench.sh bench --workload NAME ...
#
# The workspace's real external dependencies (rayon, rand, crossbeam, ...)
# are what the benchmark is meant to measure, and they are used whenever
# they resolve without a network. Where they do not (a sandbox without a
# registry), the stand-ins under crates/ladder/offline are patched in, and
# the binary records `deps = stand-in` in every document it writes.
set -u

target="${CARGO_TARGET_DIR:-target}"
build=(cargo build --release --offline --quiet -p cip-ladder)

if cargo metadata --offline --format-version 1 >/dev/null 2>&1; then
    "${build[@]}" || exit 1
else
    echo "cip-ladder: the real dependencies do not resolve offline; building with the stand-ins" >&2
    # The stand-in build writes a Cargo.lock naming the stand-ins. It is not
    # the workspace's lockfile: put back whatever was there before.
    mkdir -p "$target"
    saved="$target/cip-ladder-saved-Cargo.lock"
    rm -f "$saved"
    [ -e Cargo.lock ] && cp Cargo.lock "$saved"
    "${build[@]}" --config crates/ladder/offline/config.toml
    built=$?
    if [ -e "$saved" ]; then mv "$saved" Cargo.lock; else rm -f Cargo.lock; fi
    [ "$built" -eq 0 ] || exit 1
fi

exec "$target/release/cip-ladder" "$@"
