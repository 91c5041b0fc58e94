//! CLI for the workspace lane-isolation lint.
//!
//! ```text
//! cargo run -p simlint                    # lint the workspace (CI entrypoint)
//! cargo run -p simlint -- --root <dir>    # lint another tree, e.g. a test fixture
//! ```
//!
//! Every finding fails the run. Exit codes: `0` clean, `1` findings, `2` usage or I/O error.

use std::path::PathBuf;

const USAGE: &str = "usage: simlint [--root <dir>]";

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(d) => root = Some(PathBuf::from(d)),
                None => return usage_error("--root needs a directory"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return 0;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }

    let Some(root) = root.or_else(find_root) else {
        eprintln!(
            "simlint: no workspace root found (looked for a `crates/` directory); pass --root"
        );
        return 2;
    };
    let report = match simlint::lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("simlint: scan failed: {e}");
            return 2;
        }
    };
    for d in &report.diagnostics {
        println!("{d}");
    }
    println!(
        "simlint: {} error(s) across {} file(s) in {} crate(s)",
        report.diagnostics.len(),
        report.files_scanned,
        report.crates_scanned
    );
    i32::from(!report.diagnostics.is_empty())
}

fn usage_error(msg: &str) -> i32 {
    eprintln!("simlint: {msg}\n{USAGE}");
    2
}

/// Walks up from the current directory to the first one that has a `crates/`
/// subdirectory (the workspace root, however deep the invocation).
fn find_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("crates").is_dir() && dir.join("Cargo.toml").is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_root_locates_this_workspace() {
        // cargo test runs with cwd = crate dir; the workspace root is two up.
        let root = find_root().expect("workspace root");
        assert!(root.join("crates").join("simlint").is_dir());
    }
}
