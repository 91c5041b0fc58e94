#!/usr/bin/env bash
# A/B the benchmark: perfbench built at <rev> against perfbench built from
# the working tree, run as alternating pairs (the side that runs first
# alternates) so drift on a shared host hits both sides alike.
#
#   scripts/perf_ab.sh <rev> [workload] [pairs] [seed]
#
# workload is a perfbench workload (default cell-pr32); pairs defaults
# to 10 and seed to 42 (pass another to check a gain on an unseen seed).
# Each run is `perfbench --workload W --seed S --seconds 20 --trace 0`.
# Prints, for wall_s, setup_s and peak_rss_mb: each side's median and
# quartiles, the median change, and how many pairs the working tree won
# (ties count for neither side). A gain holds when the working tree wins
# at least 9 in 10 pairs and the median moves by more than the base
# side's interquartile range.
#
# After the pairs each side also runs once with `--trace 1 --seconds 2`,
# and the script prints workloads.gen_s, system.build_s and system.run_s
# side by side, so a set-up change shows which layer moved. These are
# single runs: read them as a split of where the time went, not as
# evidence of a gain.
#
# <rev> is exported with `git archive` into a temporary directory; the
# working tree's perfbench/Cargo.lock is restored after its build.
set -euo pipefail

rev="${1:?usage: scripts/perf_ab.sh <rev> [workload] [pairs] [seed]}"
workload="${2:-cell-pr32}"
pairs="${3:-10}"
seed="${4:-42}"
seconds=20

root="$(cd "$(dirname "$0")/.." && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

echo "building perfbench at $rev" >&2
mkdir "$work/base"
git -C "$root" archive "$rev" | tar -x -C "$work/base"
CARGO_TARGET_DIR="$work/base-target" cargo build -q --release --offline \
  --manifest-path "$work/base/perfbench/Cargo.toml"

echo "building perfbench from the working tree" >&2
cp "$root/perfbench/Cargo.lock" "$work/Cargo.lock.saved"
CARGO_TARGET_DIR="$work/head-target" cargo build -q --release --offline \
  --manifest-path "$root/perfbench/Cargo.toml"
cp "$work/Cargo.lock.saved" "$root/perfbench/Cargo.lock"

run() {
  # run <side> <pair>: one perfbench run; keeps its last (JSON) line.
  "$work/$1-target/release/perfbench" --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0 | tail -n 1 > "$work/$1.$2.json"
  echo "pair $2 $1 done" >&2
}

for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) -eq 1 ]; then
    run base "$i"
    run head "$i"
  else
    run head "$i"
    run base "$i"
  fi
done

python3 - "$work" "$pairs" "$workload" "$rev" "$seed" <<'PY'
import json
import statistics
import sys

work, pairs, workload, rev, seed = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4], sys.argv[5]


def load(side, i):
    with open(f"{work}/{side}.{i}.json") as f:
        return json.load(f)


runs = {s: [load(s, i) for i in range(1, pairs + 1)] for s in ("base", "head")}
failed = {s: sum(r["failed"] for r in runs[s]) for s in runs}
print(f"workload {workload}, seed {seed}, {pairs} pairs, base {rev} vs working tree")
print(f"failed operations: base {failed['base']}, head {failed['head']}")


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


for name in ("wall_s", "setup_s", "peak_rss_mb"):
    base = [r["metrics"][name]["value"] for r in runs["base"]]
    head = [r["metrics"][name]["value"] for r in runs["head"]]
    b1, b2, b3 = quartiles(base)
    h1, h2, h3 = quartiles(head)
    wins = sum(h < b for b, h in zip(base, head))
    losses = sum(h > b for b, h in zip(base, head))
    change = (h2 / b2 - 1.0) * 100.0 if b2 else float("nan")
    holds = wins * 10 >= 9 * pairs and (b2 - h2) > (b3 - b1)
    print(
        f"{name:12} base median {b2:.4f} (q1 {b1:.4f}, q3 {b3:.4f})  "
        f"head median {h2:.4f} (q1 {h1:.4f}, q3 {h3:.4f})  "
        f"change {change:+.1f}%  head wins {wins}/{pairs} (loses {losses})  "
        f"gain holds: {'yes' if holds else 'no'}"
    )
PY

for side in base head; do
  "$work/$side-target/release/perfbench" --workload "$workload" --seed "$seed" \
    --seconds 2 --trace 1 | tail -n 1 > "$work/$side.layers.json"
  echo "layers $side done" >&2
done
python3 - "$work" <<'PY'
import json
import sys

work = sys.argv[1]
runs = {}
for side in ("base", "head"):
    with open(f"{work}/{side}.layers.json") as f:
        runs[side] = json.load(f)["metrics"]
print("layer split, one --trace 1 --seconds 2 run per side:")
for name in ("workloads.gen_s", "system.build_s", "system.run_s"):
    b = runs["base"][name]["value"]
    h = runs["head"][name]["value"]
    change = (h / b - 1.0) * 100.0 if b else float("nan")
    print(f"{name:16} base {b:.6f}  head {h:.6f}  change {change:+.1f}%")
PY
