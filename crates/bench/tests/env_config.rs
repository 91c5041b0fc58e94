//! A malformed `IDYLL_*` value stops `all_figures` before it simulates or
//! writes anything, instead of falling back to a default.

use std::path::PathBuf;
use std::process::Command;

/// Runs `all_figures --only table2` with one variable set, in a fresh
/// directory; returns the exit code, stderr and whether `results/` exists.
fn run_with(var: &str, value: &str) -> (Option<i32>, String, bool) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("env_config_{var}_{value}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_all_figures"))
        .args(["--only", "table2"])
        .current_dir(&dir)
        .env_remove("IDYLL_SCALE")
        .env_remove("IDYLL_THREADS")
        .env_remove("IDYLL_SIM_THREADS")
        .env_remove("IDYLL_SEED")
        .env(var, value)
        .output()
        .expect("run all_figures");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code(), stderr, dir.join("results").exists())
}

#[test]
fn malformed_values_exit_2_and_name_the_variable() {
    let cases = [
        ("IDYLL_SCALE", "ful", "test, small, full"),
        ("IDYLL_THREADS", "two", "non-negative integer"),
        ("IDYLL_SIM_THREADS", "-1", "non-negative integer"),
        ("IDYLL_SEED", "0x2a", "unsigned 64-bit integer"),
    ];
    for (var, value, accepted) in cases {
        let (code, stderr, wrote) = run_with(var, value);
        assert_eq!(code, Some(2), "{var}={value}: {stderr}");
        assert!(
            stderr.contains(var) && stderr.contains(accepted),
            "{var}={value}: {stderr}"
        );
        assert!(!wrote, "{var}={value} must not write results/");
    }
}

#[test]
fn valid_values_are_accepted() {
    let (code, stderr, wrote) = run_with("IDYLL_SCALE", "test");
    assert_eq!(code, Some(0), "{stderr}");
    assert!(wrote);
}
