//! CLI for the workspace determinism lint.
//!
//! ```text
//! cargo run -p simlint -- --check              # lint the workspace (CI entrypoint)
//! cargo run -p simlint -- --check --strict     # …and fail on stale baseline entries
//! cargo run -p simlint -- --check-allows       # …and report inline allows that suppress nothing
//! cargo run -p simlint -- --effects            # dump per-function effect summaries as JSON
//! cargo run -p simlint -- --format json        # machine-readable diagnostics
//! cargo run -p simlint -- --format sarif       # SARIF 2.1.0 for CI code-scanning upload
//! cargo run -p simlint -- --list-rules         # print the rule registry
//! cargo run -p simlint -- --write-baseline     # grandfather current findings
//! ```
//!
//! `--write-baseline` is reason-preserving: reasons already recorded in the
//! existing baseline are carried over, entries whose `(rule, path)` no
//! longer fires (deleted or migrated files) are pruned, and the output is
//! sorted byte-stably by `(rule, path)`.
//!
//! Exit codes: `0` clean, `1` findings outside the baseline (or, under
//! `--strict`, stale baseline entries and stale inline allows), `2` usage
//! or I/O error.
//!
//! `--check-allows` surfaces inline `simlint: allow(...)` escapes that no
//! longer suppress any finding — a warning by default, an error under
//! `--strict` — so escapes get pruned as rules sharpen instead of rotting.

use std::path::PathBuf;

use simlint::{Baseline, Diagnostic, Rule, ScanReport, Severity};

const USAGE: &str = "usage: simlint [--check] [--strict] [--check-allows] [--effects] \
                     [--format text|json|sarif] [--list-rules] \
                     [--write-baseline] [--root <dir>] [--baseline <file>]";

/// Output renderer for the scan report.
#[derive(Clone, Copy, PartialEq, Eq)]
enum OutFormat {
    Text,
    Json,
    Sarif,
}

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let mut root: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut write_baseline = false;
    let mut list_rules = false;
    let mut strict = false;
    let mut check_allows = false;
    let mut effects = false;
    let mut format = OutFormat::Text;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => {}
            "--strict" => strict = true,
            "--check-allows" => check_allows = true,
            "--effects" => effects = true,
            "--list-rules" => list_rules = true,
            "--write-baseline" => write_baseline = true,
            "--format" => match args.next().as_deref() {
                Some("text") => format = OutFormat::Text,
                Some("json") => format = OutFormat::Json,
                Some("sarif") => format = OutFormat::Sarif,
                Some(other) => {
                    return usage_error(&format!(
                        "--format must be text, json or sarif, got `{other}`"
                    ))
                }
                None => return usage_error("--format needs a value (text|json|sarif)"),
            },
            "--root" => match args.next() {
                Some(d) => root = Some(PathBuf::from(d)),
                None => return usage_error("--root needs a directory"),
            },
            "--baseline" => match args.next() {
                Some(f) => baseline_path = Some(PathBuf::from(f)),
                None => return usage_error("--baseline needs a file"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return 0;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }

    if list_rules {
        for rule in Rule::ALL {
            println!(
                "{:<20} {:<8} {}",
                rule.id(),
                rule.severity().to_string(),
                rule.summary()
            );
        }
        return 0;
    }

    let Some(root) = root.or_else(find_root) else {
        eprintln!(
            "simlint: no workspace root found (looked for a `crates/` directory); pass --root"
        );
        return 2;
    };
    let baseline_path = baseline_path.unwrap_or_else(|| root.join("simlint.baseline"));

    if effects {
        match simlint::render_effects_for(&root) {
            Ok(t) => {
                print!("{t}");
                return 0;
            }
            Err(e) => {
                eprintln!("simlint: cannot infer effects: {e}");
                return 2;
            }
        }
    }

    let report = match simlint::lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("simlint: scan failed: {e}");
            return 2;
        }
    };

    let baseline = if baseline_path.is_file() {
        let text = match std::fs::read_to_string(&baseline_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("simlint: cannot read {}: {e}", baseline_path.display());
                return 2;
            }
        };
        match Baseline::parse(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("simlint: {}: {e}", baseline_path.display());
                return 2;
            }
        }
    } else {
        Baseline::default()
    };

    if write_baseline {
        // Reason-preserving refresh: carry reasons for entries that still
        // fire, prune the rest (deleted files included), sort byte-stably.
        let text = baseline.render_updated(&report.diagnostics);
        if let Err(e) = std::fs::write(&baseline_path, &text) {
            eprintln!("simlint: cannot write {}: {e}", baseline_path.display());
            return 2;
        }
        let n = text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
            .count();
        println!(
            "simlint: wrote {n} baseline entr{} to {}",
            if n == 1 { "y" } else { "ies" },
            baseline_path.display()
        );
        return 0;
    }

    let stale = baseline.stale_entries(&report.diagnostics);
    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut baselined = 0usize;
    let mut shown: Vec<&Diagnostic> = Vec::new();
    for d in &report.diagnostics {
        if baseline.suppresses(d) {
            baselined += 1;
            continue;
        }
        shown.push(d);
        match d.rule.severity() {
            Severity::Error => errors += 1,
            Severity::Warning => warnings += 1,
        }
    }
    if strict {
        errors += stale.len();
    } else {
        warnings += stale.len();
    }
    if check_allows {
        // Stale allows group after the sorted findings, like stale baseline
        // entries: they are meta-findings about the escape hatch, not code.
        for d in &report.stale_allows {
            shown.push(d);
            if strict {
                errors += 1;
            } else {
                warnings += 1;
            }
        }
    }

    match format {
        OutFormat::Json => print!(
            "{}",
            render_json(&report, &shown, &stale, errors, warnings, baselined)
        ),
        OutFormat::Sarif => print!("{}", render_sarif(&shown, &stale, strict)),
        OutFormat::Text => {
            for d in &shown {
                if d.rule == Rule::StaleAllow && strict {
                    // The registry severity is warning; `--strict` promotes
                    // it, so the printed tag must match the exit code.
                    println!("{}:{}: error[stale-allow]: {}", d.path, d.line, d.message);
                } else {
                    println!("{d}");
                }
            }
            for (rule, path) in &stale {
                let sev = if strict { "error" } else { "warning" };
                println!(
                    "{path}: {sev}[stale-baseline]: baseline entry `{} {path}` no longer fires; remove it",
                    rule.id()
                );
            }
            println!(
                "simlint: {} error(s), {} warning(s), {} baselined across {} file(s) in {} crate(s)",
                errors, warnings, baselined, report.files_scanned, report.crates_scanned
            );
        }
    }
    i32::from(errors > 0)
}

/// Renders the findings as a SARIF 2.1.0 log, the schema GitHub code
/// scanning ingests. Hand-rolled like [`render_json`] and byte-stable for a
/// given workspace state: the rule array is `Rule::ALL` order (plus a final
/// synthetic `stale-baseline` rule), results keep the scan's
/// `(path, line, col, rule)` order, stale entries keep baseline-file order.
fn render_sarif(shown: &[&Diagnostic], stale: &[(Rule, String)], strict: bool) -> String {
    let mut out = String::from(
        "{\n  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n  \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n      \"tool\": {\n        \"driver\": {\n          \"name\": \"simlint\",\n          \"informationUri\": \"https://github.com/idyll-sim/idyll\",\n          \"rules\": [",
    );
    for (i, rule) in Rule::ALL.into_iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}, \
             \"defaultConfiguration\": {{\"level\": \"{}\"}}}}",
            rule.id(),
            json_escape(rule.summary()),
            sarif_level(rule.severity())
        ));
    }
    out.push_str(&format!(
        ",\n            {{\"id\": \"stale-baseline\", \"shortDescription\": {{\"text\": \
         \"baseline entries must be removed once they stop firing\"}}, \
         \"defaultConfiguration\": {{\"level\": \"{}\"}}}}\n          ]\n        }}\n      }},\n      \"results\": [",
        if strict { "error" } else { "warning" }
    ));
    let stale_index = Rule::ALL.len();
    let mut first = true;
    for d in shown {
        let rule_index = Rule::ALL
            .iter()
            .position(|r| *r == d.rule)
            .unwrap_or_default();
        out.push_str(if first { "\n" } else { ",\n" });
        first = false;
        // `stale-allow` is strict-promoted the same way the synthetic
        // `stale-baseline` rule is: warning by default, error when the run
        // is expected to be escape-free.
        let level = if d.rule == Rule::StaleAllow && strict {
            "error"
        } else {
            sarif_level(d.rule.severity())
        };
        out.push_str(&format!(
            "        {{\"ruleId\": \"{}\", \"ruleIndex\": {rule_index}, \"level\": \"{}\", \
             \"message\": {{\"text\": \"{}\"}}, \"locations\": [{{\"physicalLocation\": \
             {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \"region\": {{\"startLine\": {}, \
             \"startColumn\": {}, \"endColumn\": {}}}}}}}]}}",
            d.rule.id(),
            level,
            json_escape(&d.message),
            json_escape(&d.path),
            d.line,
            d.col,
            d.col + d.len
        ));
    }
    for (rule, path) in stale {
        out.push_str(if first { "\n" } else { ",\n" });
        first = false;
        out.push_str(&format!(
            "        {{\"ruleId\": \"stale-baseline\", \"ruleIndex\": {stale_index}, \
             \"level\": \"{}\", \"message\": {{\"text\": \"baseline entry `{} {}` no longer \
             fires; remove it\"}}, \"locations\": [{{\"physicalLocation\": \
             {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \"region\": {{\"startLine\": 1, \
             \"startColumn\": 1}}}}}}]}}",
            if strict { "error" } else { "warning" },
            rule.id(),
            json_escape(path),
            json_escape(path)
        ));
    }
    out.push_str(if first {
        "]\n    }\n  ]\n}\n"
    } else {
        "\n      ]\n    }\n  ]\n}\n"
    });
    out
}

fn sarif_level(sev: Severity) -> &'static str {
    match sev {
        Severity::Error => "error",
        Severity::Warning => "warning",
    }
}

/// Renders the machine-readable report. Hand-rolled (std-only crate);
/// diagnostics keep the scan's `(path, line, col, rule)` order, stale
/// entries keep baseline-file order, so output is byte-stable for a given
/// workspace state.
fn render_json(
    report: &ScanReport,
    shown: &[&Diagnostic],
    stale: &[(Rule, String)],
    errors: usize,
    warnings: usize,
    baselined: usize,
) -> String {
    let mut out = String::from("{\n  \"summary\": {");
    out.push_str(&format!(
        "\"errors\": {errors}, \"warnings\": {warnings}, \"baselined\": {baselined}, \
         \"stale_baseline\": {}, \"files\": {}, \"crates\": {}",
        stale.len(),
        report.files_scanned,
        report.crates_scanned
    ));
    out.push_str("},\n  \"diagnostics\": [");
    for (i, d) in shown.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"severity\": \"{}\", \"path\": \"{}\", \"line\": {}, \
             \"col\": {}, \"len\": {}, \"message\": \"{}\"}}",
            d.rule.id(),
            d.rule.severity(),
            json_escape(&d.path),
            d.line,
            d.col,
            d.len,
            json_escape(&d.message)
        ));
    }
    out.push_str(if shown.is_empty() { "],\n" } else { "\n  ],\n" });
    out.push_str("  \"stale_baseline\": [");
    for (i, (rule, path)) in stale.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"path\": \"{}\"}}",
            rule.id(),
            json_escape(path)
        ));
    }
    out.push_str(if stale.is_empty() {
        "]\n}\n"
    } else {
        "\n  ]\n}\n"
    });
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
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

    #[test]
    fn json_escaping_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
