//! `mgpu-sim` rejects out-of-range or unknown arguments with an error line
//! and exit code 1, and a `--trace-filter` with no `--trace` to write with
//! exit code 2; never with a panic. A DNN `--app` follows `--scale`.

#![expect(
    clippy::expect_used,
    reason = "test helpers outside `#[test]` fns; a failed setup fails the test"
)]

use std::process::{Command, Output};

fn mgpu_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mgpu-sim"))
        .args(args)
        .output()
        .expect("spawn mgpu-sim")
}

#[test]
fn gpu_count_outside_1_to_64_is_an_error_not_a_panic() {
    for gpus in ["0", "65"] {
        let out = mgpu_sim(&["--gpus", gpus, "--scale", "test"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--gpus {gpus}: {stderr}");
        assert!(!stderr.contains("panicked"), "--gpus {gpus}: {stderr}");
        assert!(
            stderr.starts_with("error: --gpus:") && stderr.contains("1..=64"),
            "--gpus {gpus}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "--gpus {gpus} printed a report");
    }
}

#[test]
fn one_gpu_runs_to_a_report() {
    let out = mgpu_sim(&["--gpus", "1", "--scale", "test"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("execution cycles"), "{stdout}");
    assert!(stdout.contains("0 stale translations"), "{stdout}");
}

#[test]
fn unknown_trace_category_is_an_error_listing_the_valid_ones() {
    let out = mgpu_sim(&["--scale", "test", "--trace-filter", "walks"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with("error: --trace-filter: unknown trace category `walks`"),
        "{stderr}"
    );
    for valid in sim_engine::trace::CATEGORIES {
        assert!(stderr.contains(valid), "{valid} missing: {stderr}");
    }
    assert!(out.stdout.is_empty(), "an unknown category still ran");
}

#[test]
fn trace_filter_without_trace_is_a_usage_error() {
    let out = mgpu_sim(&["--scale", "test", "--trace-filter", "walk,tlb"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.starts_with("error: --trace-filter needs --trace"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "a filter with no trace still ran");
}

#[test]
fn help_lists_every_scheme_and_trace_category() {
    let out = mgpu_sim(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let help = String::from_utf8_lossy(&out.stdout);
    // Undo the help text's line wrapping.
    let flat = help.split_whitespace().collect::<Vec<_>>().join(" ");
    let schemes = mgpu_system::config::Scheme::ALL
        .map(mgpu_system::config::Scheme::name)
        .join(" | ");
    let categories = sim_engine::trace::CATEGORIES.join(", ");
    let apps = [
        workloads::AppId::ALL.map(workloads::AppId::name).as_slice(),
        &workloads::DnnModel::ALL.map(workloads::DnnModel::name),
    ]
    .concat()
    .join(" | ");
    assert!(flat.contains(&apps), "--help omits `{apps}`:\n{help}");
    assert!(flat.contains(&schemes), "--help omits `{schemes}`:\n{help}");
    assert!(
        flat.contains(&categories),
        "--help omits `{categories}`:\n{help}"
    );
}

#[test]
fn dnn_apps_follow_the_scale() {
    // At `test` scale a DNN app runs Figure 24's test-scale trace.
    let out = mgpu_sim(&["--app", "VGG16", "--scale", "test", "--scheme", "idyll"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("accesses                : 1920\n"),
        "{stdout}"
    );
}

#[test]
fn unknown_scheme_is_an_error() {
    let out = mgpu_sim(&["--scale", "test", "--scheme", "zero-latency-invalidation"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with("error: unknown scheme `zero-latency-invalidation`"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "an unknown scheme still ran");
}
