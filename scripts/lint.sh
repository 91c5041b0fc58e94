#!/usr/bin/env bash
# Workspace lint — the same invocation CI runs: simlint's fifteen
# determinism/modeling rules (strict, with --check-allows), then pinned
# clippy.
#
#   scripts/lint.sh                    # simlint (strict) + pinned clippy
#   scripts/lint.sh --sarif out.sarif  # …also write a SARIF 2.1.0 log (non-blocking)
#   scripts/lint.sh --effects out.json # …also dump the effect-inference summaries
#   scripts/lint.sh --write-baseline   # grandfather current findings (use sparingly)
#
# Exit codes: 0 clean, 1 findings outside the baseline (or stale baseline
# entries / stale inline allows — strict mode), 2 usage/IO error.
set -euo pipefail

cd "$(dirname "$0")/.."

# The maintenance flag --write-baseline bypasses the check run.
for arg in "$@"; do
  case "$arg" in
    --write-baseline)
      exec cargo run -q -p simlint -- "$arg"
      ;;
  esac
done

# --sarif <file>: write the SARIF log for CI code-scanning upload before the
# blocking gate, so annotations exist even when the strict run fails. The
# SARIF pass never blocks; the --check --strict run below is the gate.
sarif_out=""
effects_out=""
pass_args=()
while [ $# -gt 0 ]; do
  case "$1" in
    --sarif)
      sarif_out="${2:?--sarif needs a file}"
      shift 2
      ;;
    --effects)
      effects_out="${2:?--effects needs a file}"
      shift 2
      ;;
    *)
      pass_args+=("$1")
      shift
      ;;
  esac
done

if [ -n "$sarif_out" ]; then
  cargo run -q -p simlint -- --check --strict --format sarif \
    ${pass_args[0]+"${pass_args[@]}"} > "$sarif_out" || true
fi

# --effects <file>: dump the interprocedural effect summaries (byte-stable
# JSON, DESIGN.md §9) as a CI artifact next to the SARIF log. Like the
# SARIF pass this never blocks; it exists so a reviewer can diff summaries
# across commits without re-running the scan.
if [ -n "$effects_out" ]; then
  cargo run -q -p simlint -- --effects > "$effects_out" || true
fi

cargo run -q -p simlint -- --check --strict --check-allows \
  ${pass_args[0]+"${pass_args[@]}"}

# Pinned clippy gate. The cast/length pedantic lints are allowed here, in one
# place, instead of as scattered `#[allow]` attributes: simlint's lossy-cast
# rule already polices truncating casts in the model crates with per-site
# reasons, and the remaining sites (f64 statistics over counts far below
# 2^52) are deliberate.
cargo clippy -q --workspace --all-targets -- -D warnings \
  -A clippy::too_many_lines \
  -A clippy::cast_possible_truncation \
  -A clippy::cast_precision_loss
