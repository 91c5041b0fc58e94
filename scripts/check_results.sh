#!/usr/bin/env bash
# Figure freshness gate: re-runs all_figures at the committed scale
# (small) in a scratch directory and diffs every table against
# crates/bench/results/. grid_metrics.json holds wall-clock data and is
# not compared. Takes about a minute on two cores.
#
#   scripts/check_results.sh   # exit 0 when the committed tables are current
#
# After a change that moves the figures on purpose, regenerate them with
# `cd crates/bench && IDYLL_SCALE=small cargo run --release --bin all_figures`
# and rebuild EXPERIMENTS.md with scripts/build_experiments_md.py.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

cd "$work"
IDYLL_SCALE=small cargo run -q --release --manifest-path "$root/Cargo.toml" \
  -p idyll-bench --bin all_figures > stdout.txt
diff -u -r --exclude=grid_metrics.json "$root/crates/bench/results" results
