//! End-to-end CLI tests: exit codes and diagnostics against the fixture
//! workspaces under `tests/fixtures/`.

use std::path::PathBuf;
use std::process::{Command, Output};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_simlint"))
        .args(args)
        .output()
        .expect("simlint binary runs")
}

#[test]
fn bad_workspace_fails_with_findings() {
    let ws = fixture("bad_ws");
    let out = run(&["--root", ws.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "violations must exit non-zero");
    let stdout = String::from_utf8(out.stdout).unwrap();
    // Diagnostics carry clickable file:line anchors.
    assert!(
        stdout.contains("crates/mgpu-system/src/lib.rs:12: error[unordered-iter]"),
        "{stdout}"
    );
    // A reason-less escape both waives its rule and fails the run.
    assert!(
        stdout.contains("crates/mgpu-system/src/lib.rs:18: error[bare-allow]"),
        "{stdout}"
    );
    assert!(
        !stdout.contains("src/lib.rs:19: error[unordered-iter]"),
        "bare allow must still waive: {stdout}"
    );
    // The token rules fire in the hot-path fixture module.
    assert!(
        stdout.contains("crates/mgpu-system/src/system/handlers.rs:5: error[hot-path-panic]"),
        "{stdout}"
    );
    assert!(
        stdout.contains("arithmetic slice index"),
        "indexing must be flagged: {stdout}"
    );
    assert!(stdout.contains("simlint: 6 error(s)"), "{stdout}");
}
#[test]
fn clean_workspace_exits_zero_via_escapes() {
    let ws = fixture("clean_ws");
    let out = run(&["--root", ws.to_str().unwrap()]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("0 error(s)"), "{stdout}");
}

#[test]
fn cross_domain_reach_in_lane_impl_fails() {
    let ws = fixture("crossdomain_bad_ws");
    let out = run(&["--root", ws.to_str().unwrap()]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    // `lanes` in the signature (line 6) and `lock_lane`/`lanes` in the body.
    assert!(
        stdout.contains("crates/mgpu-system/src/system/lane.rs:6: error[cross-domain-mutation]"),
        "{stdout}"
    );
    assert!(
        stdout.contains("`lock_lane` inside `impl GpuLane`"),
        "{stdout}"
    );
    assert!(stdout.contains("outbox"), "{stdout}");
}

#[test]
fn cross_domain_rule_spares_host_code_and_honors_allows() {
    // Outbox-routed lane code, a reasoned allow on the audited reach, and
    // the identical reach inside `impl HostState` all lint clean.
    let ws = fixture("crossdomain_good_ws");
    let out = run(&["--root", ws.to_str().unwrap()]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("0 error(s)"), "{stdout}");
}

#[test]
fn unknown_flag_is_a_usage_error() {
    // `--root` and `--help` are the whole CLI; the old output modes and
    // baseline flags are unknown now.
    for flag in [
        "--frobnicate",
        "--check",
        "--strict",
        "--check-allows",
        "--effects",
        "--format",
        "--list-rules",
        "--write-baseline",
        "--baseline",
    ] {
        let out = run(&[flag]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
    }
    assert_eq!(run(&["--help"]).status.code(), Some(0));
}

#[test]
fn lane_race_fires_through_the_call_graph() {
    // Nothing inside the impl body is suspicious; the reach is two calls
    // deep, so only the call-graph rule can see it.
    let ws = fixture("lanerace_bad_ws");
    let out = run(&["--root", ws.to_str().unwrap()]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("error[lane-race]"), "{stdout}");
    assert!(
        stdout.contains("reachable from GPU-lane handler `GpuLane::on_inval_done`"),
        "witness root must be named: {stdout}"
    );
    assert!(
        stdout.contains("`lock_lane` in `steal_sibling`"),
        "{stdout}"
    );
    assert!(
        stdout.contains("interior-mutability cell `Mutex`"),
        "{stdout}"
    );
}

#[test]
fn lane_race_spares_outbox_and_unreachable_host_code() {
    // The outbox-routed helper and barrier-phase code (not reachable from
    // any handler) both lint clean.
    let ws = fixture("lanerace_good_ws");
    let out = run(&["--root", ws.to_str().unwrap()]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("0 error(s)"), "{stdout}");
}

#[test]
fn hot_path_effects_fire_through_the_call_graph() {
    // Nothing inside the lane impl or the dispatch arm is suspicious; the
    // allocation, the print and the expect all ride two calls deep into a
    // different crate, so only the effect summaries can see them — and the
    // witness chain must name both the root and the effectful callee.
    let ws = fixture("hotalloc_bad_ws");
    let out = run(&["--root", ws.to_str().unwrap()]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(
        stdout.contains(
            "error[hot-path-alloc]: `format!` allocates in `describe` \
             (reachable from GPU-lane handler `GpuLane::on_warp_ready`)"
        ),
        "{stdout}"
    );
    assert!(
        stdout.contains(
            "error[io-in-sim-loop]: `println!` performs IO in `stamp_fault` \
             (reachable from event dispatch in `dispatch`)"
        ),
        "{stdout}"
    );
    assert!(
        stdout.contains(
            "error[hot-path-panic]: `.expect()` in `stamp_fault` \
             (reachable from event dispatch in `dispatch`)"
        ),
        "interprocedural panic must name the dispatch root: {stdout}"
    );
}

#[test]
fn hot_path_effects_spare_gated_and_unreachable_sites() {
    // The observability-gated allocation, the buffered dispatch helper and
    // the unreachable post-run reporter all lint clean.
    let ws = fixture("hotalloc_good_ws");
    let out = run(&["--root", ws.to_str().unwrap()]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("0 error(s)"), "{stdout}");
}

#[test]
fn stale_allow_fails_the_run() {
    // The dead hot-path-panic escape fails the run; the live unordered-iter
    // escape keeps suppressing its finding and stays silent.
    let ws = fixture("staleallow_ws");
    let out = run(&["--root", ws.to_str().unwrap()]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(
        stdout.contains(
            "crates/mgpu-system/src/lib.rs:19: error[stale-allow]: allow(hot-path-panic) no \
             longer suppresses any finding; remove the escape"
        ),
        "{stdout}"
    );
    assert!(!stdout.contains("allow(unordered-iter)"), "{stdout}");
    assert!(!stdout.contains("error[unordered-iter]"), "{stdout}");
}
#[test]
fn shared_mutability_flags_global_state() {
    let ws = fixture("sharedmut_bad_ws");
    let out = run(&["--root", ws.to_str().unwrap()]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("error[shared-mutability]"), "{stdout}");
    assert!(stdout.contains("`static mut SCRATCH`"), "{stdout}");
    assert!(
        stdout.contains("static `DECODE_CACHE` wraps an interior-mutability cell"),
        "{stdout}"
    );
    assert!(
        stdout.contains("`lazy_static` introduces a lazily initialized global"),
        "{stdout}"
    );
    assert!(
        stdout.contains("interior-mutability cell `RefCell`"),
        "{stdout}"
    );
}

#[test]
fn shared_mutability_spares_constants_and_sanctioned_sync_layer() {
    // Plain consts/immutable statics, and cells under the SYNC_SANCTIONED
    // path prefix, are all fine.
    let ws = fixture("sharedmut_good_ws");
    let out = run(&["--root", ws.to_str().unwrap()]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("0 error(s)"), "{stdout}");
}

#[test]
fn dead_event_flags_schema_drift_both_ways() {
    let ws = fixture("deadevent_bad_ws");
    let out = run(&["--root", ws.to_str().unwrap()]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(
        stdout.contains("`Ev::InvalAck` is constructed but no dispatch arm matches it"),
        "{stdout}"
    );
    assert!(
        stdout.contains("`Ev::Ghost` has dispatch arms but is never constructed"),
        "{stdout}"
    );
    assert!(!stdout.contains("`Ev::WarpReady`"), "{stdout}");
}

#[test]
fn dead_event_spares_covered_variants() {
    // Plain arms, or-patterns and `if let` all count as dispatch.
    let ws = fixture("deadevent_good_ws");
    let out = run(&["--root", ws.to_str().unwrap()]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("0 error(s)"), "{stdout}");
}
