#!/usr/bin/env bash
# Workspace lint — the same invocation CI runs: simlint's three lane-lock
# rules, then pinned clippy (1.95.0), whose `clippy.toml` and
# `[workspace.lints.clippy]` carry the determinism and event-loop rules
# for the model crates (DESIGN.md §5). scripts/lint_canary.sh checks that
# those lints are armed.
#
#   scripts/lint.sh
#
# Exit codes: 0 clean, non-zero on any simlint finding or clippy warning.
set -euo pipefail

cd "$(dirname "$0")/.."

cargo run -q -p simlint

# No `-A` flags here: a command-line allow overrides the Cargo `[lints]`
# tables and would silently switch the moved rules off.
cargo clippy -q --workspace --all-targets -- -D warnings
