//! `mgpu-sim` rejects out-of-range or unknown arguments with an error line
//! and exit code 1, never a panic.

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
fn help_lists_every_scheme_and_trace_category() {
    let out = mgpu_sim(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let help = String::from_utf8_lossy(&out.stdout);
    // Undo the help text's line wrapping.
    let flat = help.split_whitespace().collect::<Vec<_>>().join(" ");
    let schemes = mgpu_system::config::SCHEMES.join(" | ");
    let categories = sim_engine::trace::CATEGORIES.join(", ");
    assert!(flat.contains(&schemes), "--help omits `{schemes}`:\n{help}");
    assert!(
        flat.contains(&categories),
        "--help omits `{categories}`:\n{help}"
    );
}
