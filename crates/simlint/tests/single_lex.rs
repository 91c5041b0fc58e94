//! The single-lex performance contract: a full workspace scan lexes each
//! source file exactly once — the token stream is built per file and
//! shared by every rule family, including the workspace graph rules — and
//! completes well inside the 15-second CI scan budget.
//!
//! This lives in its own integration-test binary so the process-wide
//! [`simlint::lexer::LEX_CALLS`] counter sees no traffic from other tests.

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::Instant;

#[test]
fn full_scan_lexes_each_file_exactly_once_and_stays_fast() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root")
        .to_path_buf();
    assert!(root.join("crates").is_dir(), "not a workspace: {root:?}");

    let before = simlint::lexer::LEX_CALLS.load(Ordering::Relaxed);
    let started = Instant::now();
    let report = simlint::lint_workspace(&root).expect("workspace scan");
    let elapsed = started.elapsed();
    let lexed = simlint::lexer::LEX_CALLS.load(Ordering::Relaxed) - before;

    assert!(report.files_scanned > 0, "scan saw no files");
    assert_eq!(
        lexed, report.files_scanned,
        "every rule family must share one lex per file ({} lexes for {} files)",
        lexed, report.files_scanned
    );
    assert!(
        elapsed.as_secs() < 15,
        "full scan must stay under 15s, took {elapsed:?}"
    );
}
