#!/usr/bin/env bash
# Parent-vs-change benchmark pairs: builds cip-ladder from PARENT_REV and from
# the working tree, each into its own target directory, runs PAIRS alternating
# `cip-ladder bench` pairs per workload (odd pairs start with the parent), and
# prints each metric's median, quartiles and wins per workload.
#
#   scripts/ab.sh PARENT_REV PAIRS WORKLOAD...
#
# Environment: SEED (1), SECS (10, seconds per run), TRACE (0 or 1),
# AB_DIR (scratch directory, default ${TMPDIR:-/tmp}/cip-ab: the parent's
# sources and target directory live there), AB_OUT (file the raw run lines
# are appended to, default $AB_DIR/runs.txt, in the results/ladder/PR-n.txt
# line format). The working tree builds into ${CARGO_TARGET_DIR:-target}.
set -euo pipefail

if [ $# -lt 3 ]; then
  sed -n '2,13p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
fi
parent_rev=$1
pairs=$2
shift 2
seed=${SEED:-1}
secs=${SECS:-10}
trace=${TRACE:-0}

root=$(cd "$(dirname "$0")/.." && pwd)
work=${AB_DIR:-${TMPDIR:-/tmp}/cip-ab}
mkdir -p "$work"
work=$(cd "$work" && pwd)
out=${AB_OUT:-$work/runs.txt}
case $out in /*) ;; *) out="$PWD/$out" ;; esac

# One bench document (the last line cip-ladder prints) -> one run line.
read -r -d '' run_line <<'PY' || true
import json, sys
doc = json.loads(sys.stdin.read())
metrics = " ".join(f"{k}={v['value']:g}" for k, v in doc["metrics"].items())
print(f"{sys.argv[1]} | failed={doc['failed']} attempted={doc['attempted']} | {metrics}")
PY

# Run lines -> per workload and metric: each side's median and quartiles,
# the change's wins (pairs where it is better in the direction
# BENCHMARK.json gives) and the median's relative move.
read -r -d '' summary <<'PY' || true
import json, statistics, sys
spec = json.load(open(sys.argv[1]))
better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
runs = {}
for line in sys.stdin:
    head, counts, metrics = (part.strip() for part in line.split("|"))
    words = head.split()
    sides = runs.setdefault((words[0], words[1]), {"parent": [], "change": []})
    failed = int(counts.split()[0].split("=")[1])
    sides[words[-1]].append((failed, dict(kv.split("=") for kv in metrics.split())))

def cell(xs):
    if len(xs) == 1:
        return xs[0], f"{xs[0]:.6g}"
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return med, f"{med:.6g} [{q1:.6g}, {q3:.6g}]"

for (workload, seed), sides in runs.items():
    failed = {side: sum(f for f, _ in rows) for side, rows in sides.items()}
    print(f"{workload} {seed}: {len(sides['change'])} pairs, failed parent "
          f"{failed['parent']} change {failed['change']}")
    print(f"  {'metric':<36}{'parent median [q1, q3]':<34}{'change median [q1, q3]':<34}"
          f"{'wins':>6}{'move':>9}")
    for name in sides["parent"][0][1]:
        p = [float(m[name]) for _, m in sides["parent"]]
        c = [float(m[name]) for _, m in sides["change"]]
        if not any(p + c):
            continue  # a per-layer metric this workload does not measure
        (pm, parent), (cm, change) = cell(p), cell(c)
        sign = -1 if better.get(name, "lower") == "lower" else 1
        wins = f"{sum(sign * (b - a) > 0 for a, b in zip(p, c))}/{len(c)}"
        move = f"{100 * (cm - pm) / pm:+.1f}%" if pm else "-"
        print(f"  {name:<36}{parent:<34}{change:<34}{wins:>6}{move:>9}")
PY

# The parent from git, not a worktree: a plain copy of the tree at the rev.
rm -rf "$work/parent"
mkdir -p "$work/parent"
git -C "$root" archive "$parent_rev" | tar -x -C "$work/parent"

# Workspace members hash identically in both trees, so one shared target
# directory would keep whichever side's objects are newer: never share.
parent_target=$work/parent-target
change_target=${CARGO_TARGET_DIR:-$root/target}
case $change_target in /*) ;; *) change_target="$root/$change_target" ;; esac
echo "ab: building $parent_rev and the working tree" >&2
(cd "$work/parent" && CARGO_TARGET_DIR=$parent_target \
  cargo build --release --offline --locked --quiet -p cip-ladder)
(cd "$root" && CARGO_TARGET_DIR=$change_target \
  cargo build --release --offline --locked --quiet -p cip-ladder)

# run SIDE WORKLOAD: one bench run from the side's own checkout; its line is
# appended to $out and echoed to stderr.
run() {
  local side=$1 workload=$2 dir=$root bin=$change_target/release/cip-ladder
  if [ "$side" = parent ]; then
    dir=$work/parent bin=$parent_target/release/cip-ladder
  fi
  (cd "$dir" && "$bin" bench --workload "$workload" --seed "$seed" --seconds "$secs" \
    --trace "$trace" 2>/dev/null | tail -n 1) \
    | python3 -c "$run_line" "$workload seed=$seed secs=$secs trace=$trace $side" \
    | tee -a "$out" >&2
}

touch "$out"
first=$(($(wc -l <"$out") + 1))
for workload in "$@"; do
  for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
      run parent "$workload"
      run change "$workload"
    else
      run change "$workload"
      run parent "$workload"
    fi
  done
done
tail -n +"$first" "$out" | python3 -c "$summary" "$root/BENCHMARK.json"
