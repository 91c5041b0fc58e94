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
fn cross_domain_rule_spares_outbox_and_host_code() {
    // Outbox-routed lane code and the identical reach inside
    // `impl HostState` both lint clean.
    let ws = fixture("crossdomain_good_ws");
    let out = run(&["--root", ws.to_str().unwrap()]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("0 error(s)"), "{stdout}");
}

#[test]
fn unknown_flag_is_a_usage_error() {
    // `--root` and `--help` are the whole CLI; the old output modes and
    // baseline flags are unknown.
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
