#!/usr/bin/env bash
# Lint canary: proves that the compiler and clippy lints holding the
# model crates' determinism, event-loop and lane-isolation rules are
# armed. It plants one bad line per rule in a throwaway `git archive` copy
# of HEAD, runs the same clippy command as scripts/lint.sh, and fails
# unless that command fails with every expected diagnostic. All planted lines live in
# `mgpu-system` (the handler-side ones under `src/system/`), because a
# lint error in a crate stops clippy from checking the crates above it.
# Allocation on the event path is held by tests/alloc_per_event.rs, not
# by a lint, so it has no canary here.
#
#   scripts/lint_canary.sh   # exit 0 when every planted line is caught
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

git -C "$root" archive HEAD | tar -x -C "$work"
cd "$work/crates/mgpu-system/src"

# Rules every model crate is held to.
cat > canary.rs <<'EOF'
//! Lint canary (planted by scripts/lint_canary.sh; never committed).
pub fn default_hasher_map() -> usize {
    std::collections::HashMap::<u8, u8>::new().len()
}
pub fn ambient_rng() -> std::hash::RandomState {
    std::hash::RandomState::new()
}
pub fn wall_clock() -> std::time::Instant {
    std::time::Instant::now()
}
pub fn lossy_cast(x: u64) -> u32 {
    x as u32
}
pub fn unordered_iter(m: &sim_engine::collections::DetHashMap<u8, u8>) -> usize {
    m.iter_unordered().count()
}
pub fn file_io() -> std::io::Result<()> {
    std::fs::write("canary", "x")
}
pub fn stdio() -> std::io::Stdout {
    std::io::stdout()
}
#[allow(clippy::len_zero)]
pub fn allow_without_reason(v: &[u8]) -> bool {
    v.len() == 0
}
#[expect(clippy::indexing_slicing, reason = "canary: nothing here indexes")]
pub fn stale_expect() {}
EOF
sed -i '0,/^pub mod /s//pub mod canary;\npub mod /' lib.rs

# Rules the event handlers are held to.
cat > system/canary.rs <<'EOF'
//! Lint canary (planted by scripts/lint_canary.sh; never committed).
pub fn unwrap_used(v: Option<u8>) -> u8 {
    v.unwrap()
}
pub fn expect_used(v: Option<u8>) -> u8 {
    v.expect("canary")
}
pub fn panic() {
    panic!("canary")
}
pub fn unreachable() {
    unreachable!("canary")
}
pub fn todo() {
    todo!()
}
pub fn unimplemented() {
    unimplemented!()
}
pub fn indexing_slicing(v: &[u8], i: usize) -> u8 {
    v[i + 1]
}
pub fn print_stdout() {
    println!("canary");
}
pub fn print_stderr() {
    eprintln!("canary");
}
pub fn dbg_macro(x: u8) -> u8 {
    dbg!(x)
}
// Lane isolation: lanes own their state, so no lock, cell or `static mut`
// may share it.
impl super::GpuLane {
    pub fn lane_lock(&mut self, lanes: &[std::sync::Mutex<super::GpuLane>]) -> usize {
        lanes.len()
    }
}
pub struct SharedCell {
    pub hits: std::cell::RefCell<u64>,
}
pub static ONCE: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
static mut EVENTS: u64 = 0;
pub fn static_mut() -> u64 {
    unsafe { EVENTS }
}
EOF
sed -i '0,/^mod /s//pub mod canary;\nmod /' system/mod.rs
# An event nobody sends, and both dispatchers folding variants into `_`.
sed -i -e 's/^    DirRecord { vpn: Vpn, gpu: usize },$/&\n    Canary,/' \
  -e 's/^\( *\)| Ev::RemoteProbeReply { .. } => Phase::Other,$/&\n\1| Ev::Canary => Phase::Other,/' \
  system/mod.rs
perl -0pi -e 's/Ev::FaultAtHost \{ \.\. \}\n(\s*\| Ev::\w+( \{ \.\. \})?\n)*\s*\| Ev::DirRecord \{ \.\. \} =>/_ =>/' system/engine.rs
perl -0pi -e 's/Ev::WarpReady \{ \.\. \}\n(\s*\| Ev::\w+( \{ \.\. \})?\n)*\s*\| Ev::RemoteProbeReply \{ \.\. \} =>/_ =>/' system/engine.rs

cd "$work"
if cargo clippy -q --workspace --all-targets -- -D warnings 2> clippy.txt; then
  echo "lint_canary: clippy accepted a tree with planted violations" >&2
  exit 1
fi

# `lint: message` pairs; the message is what the lint prints.
expected=(
  "disallowed_types (default hasher): use of a disallowed type \`std::collections::HashMap\`"
  "disallowed_types (ambient RNG): use of a disallowed type \`std::hash::RandomState\`"
  "disallowed_methods (wall clock): use of a disallowed method \`std::time::Instant::now\`"
  "cast_possible_truncation: casting \`u64\` to \`u32\` may truncate"
  "disallowed_methods (unordered iteration): use of a disallowed method \`sim_engine::collections::DetHashMap::iter_unordered\`"
  "disallowed_methods (file IO): use of a disallowed method \`std::fs::write\`"
  "disallowed_methods (stdio): use of a disallowed method \`std::io::stdout\`"
  "allow_attributes_without_reason: \`allow\` attribute without specifying a reason"
  "unfulfilled_lint_expectations: this lint expectation is unfulfilled"
  "unwrap_used: used \`unwrap()\` on an \`Option\` value"
  "expect_used: used \`expect()\` on an \`Option\` value"
  "panic: \`panic\` should not be present in production code"
  "unreachable: usage of the \`unreachable!\` macro"
  "todo: \`todo\` should not be present in production code"
  "unimplemented: \`unimplemented\` should not be present in production code"
  "indexing_slicing: indexing may panic"
  "print_stdout: use of \`println!\`"
  "print_stderr: use of \`eprintln!\`"
  "dbg_macro: the \`dbg!\` macro is intended as a debugging tool"
  "disallowed_types (lane lock): use of a disallowed type \`std::sync::Mutex\`"
  "disallowed_types (cell field): use of a disallowed type \`std::cell::RefCell\`"
  "disallowed_types (lazy static): use of a disallowed type \`std::sync::OnceLock\`"
  "unsafe_code (static mut): usage of an \`unsafe\` block"
  "dead_code (unsent event): variant \`Canary\` is never constructed"
)
missing=0
for entry in "${expected[@]}"; do
  if ! grep -qF -- "${entry#*: }" clippy.txt; then
    echo "lint_canary: not caught: ${entry}" >&2
    missing=1
  fi
done
wildcards="$(grep -cF 'wildcard match will also match any future added variants' clippy.txt || true)"
if [ "$wildcards" -ne 2 ]; then
  echo "lint_canary: not caught: wildcard_enum_match_arm in both Ev dispatchers (saw $wildcards)" >&2
  missing=1
fi
if [ "$missing" -ne 0 ]; then
  echo "--- clippy output ---" >&2
  cat clippy.txt >&2
  exit 1
fi
echo "lint_canary: all $((${#expected[@]} + 1)) planted rules caught"
