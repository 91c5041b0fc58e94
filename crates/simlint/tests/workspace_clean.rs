//! The tier-1-adjacent gate: the real workspace must lint clean, with no
//! grandfathered findings.

use std::path::PathBuf;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

#[test]
fn real_workspace_lints_clean() {
    let report = simlint::lint_workspace(&repo_root()).expect("scan succeeds");
    assert!(
        report.files_scanned > 40,
        "suspiciously few files scanned ({}) — scanner misconfigured?",
        report.files_scanned
    );
    let findings: Vec<String> = report.diagnostics.iter().map(ToString::to_string).collect();
    assert!(
        findings.is_empty(),
        "workspace has lint errors:\n{}",
        findings.join("\n")
    );
}
