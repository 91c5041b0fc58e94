#!/usr/bin/env bash
# Workspace lint — the same invocation CI runs: pinned clippy (1.95.0),
# whose `clippy.toml`, `[workspace.lints.clippy]` and
# `[workspace.lints.rust]` carry the determinism, event-loop and
# lane-isolation rules for the model crates (DESIGN.md §5).
# scripts/lint_canary.sh checks that those lints are armed.
#
#   scripts/lint.sh
#
# Exit codes: 0 clean, non-zero on any clippy warning.
set -euo pipefail

cd "$(dirname "$0")/.."

# No `-A` flags here: a command-line allow overrides the Cargo `[lints]`
# tables and would silently switch the rules off.
cargo clippy -q --workspace --all-targets -- -D warnings
