#!/usr/bin/env bash
# Check that a change is output-neutral: mgpu-sim built at <rev> against
# mgpu-sim built from the working tree, run on a fixed list of configs.
#
#   scripts/identity_ab.sh <rev>
#
# For each config both binaries run with `--metrics-json`; their stdout
# (and exit status) must be byte-identical, and so must their metrics
# apart from the `mem.*` footprint counters, which a layout change moves
# by design. Each `mem.*` change is printed instead. The configs cover
# all nine schemes, 2 to 32 GPUs, 2 MiB pages, the three migration
# policies, DNN traces, two lane threads, and `test` and `small` scale.
# Exits 1 naming every config that differs, 0 when all agree.
#
# <rev> is exported with `git archive` into a temporary directory (set
# TMPDIR to keep it elsewhere); the working tree builds into its usual
# target directory.
set -euo pipefail

rev="${1:?usage: scripts/identity_ab.sh <rev>}"

root="$(cd "$(dirname "$0")/.." && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

echo "building mgpu-sim at $rev" >&2
mkdir "$work/base"
git -C "$root" archive "$rev" | tar -x -C "$work/base"
CARGO_TARGET_DIR="$work/base-target" cargo build -q --release --offline \
  --manifest-path "$work/base/Cargo.toml" -p mgpu-system --bin mgpu-sim
base_bin="$work/base-target/release/mgpu-sim"

echo "building mgpu-sim from the working tree" >&2
head_target="${CARGO_TARGET_DIR:-$root/target}"
CARGO_TARGET_DIR="$head_target" cargo build -q --release --offline \
  --manifest-path "$root/Cargo.toml" -p mgpu-system --bin mgpu-sim
head_bin="$head_target/release/mgpu-sim"

configs=()
for scheme in baseline idyll only-lazy only-in-pte idyll-inmem zerolat \
  replication transfw idyll+transfw; do
  configs+=("--app KM --gpus 4 --scale test --scheme $scheme")
done
configs+=(
  "--app PR --gpus 2 --scale test --scheme idyll"
  "--app PR --gpus 8 --scale test --scheme replication"
  "--app MT --gpus 16 --scale test --scheme idyll+transfw"
  "--app PR --gpus 32 --scale test --scheme baseline"
  "--app PR --gpus 8 --scale test --scheme idyll --threads 2"
  "--app ST --gpus 4 --scale test --scheme idyll --large-pages"
  "--app MM --gpus 4 --scale test --scheme baseline --large-pages"
  "--app SC --gpus 4 --scale test --scheme baseline --policy first-touch"
  "--app SC --gpus 4 --scale test --scheme idyll --policy on-touch"
  "--app IM --gpus 4 --scale test --scheme only-lazy --policy counter"
  "--app VGG16 --gpus 4 --scale test --scheme idyll"
  "--app ResNet18 --gpus 8 --scale test --scheme transfw"
  "--app KM --gpus 4 --scale small --scheme idyll"
  "--app PR --gpus 4 --scale small --scheme only-lazy"
  "--app MT --gpus 32 --scale small --scheme baseline"
  "--app PR --gpus 32 --scale small --scheme baseline --threads 2"
  "--app BS --gpus 4 --scale small --scheme idyll --large-pages"
  "--app C2D --gpus 4 --scale small --scheme replication --policy on-touch"
)

run() {
  # run <side> <binary> <config index> <args...>: stdout, exit status and
  # metrics into $work/<side>/<index>/.
  local side="$1" bin="$2" i="$3"
  shift 3
  local dir="$work/runs/$side/$i"
  mkdir -p "$dir"
  local status=0
  (cd "$dir" && "$bin" "$@" --metrics-json metrics.json > stdout.txt 2> stderr.txt) ||
    status=$?
  echo "exit $status" >> "$dir/stdout.txt"
}

differ=()
for i in "${!configs[@]}"; do
  cfg="${configs[$i]}"
  # shellcheck disable=SC2086 # a config is a list of flags
  run base "$base_bin" "$i" $cfg
  # shellcheck disable=SC2086
  run head "$head_bin" "$i" $cfg
  if python3 - "$work/runs/base/$i" "$work/runs/head/$i" "$cfg" <<'PY'
import json
import os
import sys

base, head, cfg = sys.argv[1], sys.argv[2], sys.argv[3]


def read(side, name):
    with open(os.path.join(side, name)) as f:
        return f.read()


def metrics(side):
    path = os.path.join(side, "metrics.json")
    if not os.path.exists(path):
        return {}, {}
    with open(path) as f:
        m = json.load(f)
    mem = {k: v for k, v in m.items() if k.startswith("mem.")}
    rest = {k: v for k, v in m.items() if not k.startswith("mem.")}
    return mem, rest


same = True
if read(base, "stdout.txt") != read(head, "stdout.txt"):
    print(f"DIFFERS  {cfg}: stdout")
    same = False
(base_mem, base_rest), (head_mem, head_rest) = metrics(base), metrics(head)
if base_rest != head_rest:
    keys = sorted(k for k in base_rest.keys() | head_rest.keys()
                  if base_rest.get(k) != head_rest.get(k))
    print(f"DIFFERS  {cfg}: metrics {', '.join(keys[:8])}")
    same = False
if same:
    print(f"same     {cfg}")
for k in sorted(base_mem.keys() | head_mem.keys()):
    b, h = base_mem.get(k), head_mem.get(k)
    if b != h:
        delta = h - b if isinstance(b, int) and isinstance(h, int) else "n/a"
        print(f"           {k}: {b} -> {h} ({delta:+})" if delta != "n/a"
              else f"           {k}: {b} -> {h}")
sys.exit(0 if same else 1)
PY
  then :; else differ+=("$cfg"); fi
done

if [ "${#differ[@]}" -ne 0 ]; then
  echo "${#differ[@]} of ${#configs[@]} configs differ from $rev:" >&2
  printf '  %s\n' "${differ[@]}" >&2
  exit 1
fi
echo "all ${#configs[@]} configs match $rev outside mem.*" >&2
