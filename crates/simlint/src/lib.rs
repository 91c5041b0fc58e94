//! Source-level lane-isolation lint for the IDYLL workspace.
//!
//! The simulator's core invariant — identical seed and configuration produce
//! byte-identical results for any thread count (DESIGN.md invariant 5) — is
//! enforced dynamically by `tests/determinism.rs` and
//! `tests/threads_determinism.rs`, but only *after* a bug manifests. The
//! compiler and clippy hold the determinism rules they can express (see
//! DESIGN.md §5). This crate holds the three that need a workspace call
//! graph or a notion of the sync layer: the lane-lock rules, which go once
//! the lane locks do. It is a token-stream analyzer (std-only; no `syn`, no
//! rustc plugin): [`lexer`] splits each source file into code, comment and
//! string channels with spans, so multi-line constructs are matched
//! structurally and string/comment contents can never trip a rule.
//!
//! # Rules
//!
//! Every finding fails the run; there is no escape hatch.
//!
//! | id | meaning |
//! |----|---------|
//! | `cross-domain-mutation` | `lanes`, `lock_lane`, `read_host` or `write_host` inside an `impl GpuLane` body; a lane handler owns only its own lane — cross-domain effects must ride the outbox mailbox drained at barrier epochs |
//! | `lane-race` | a function transitively reachable from a GPU-lane handler (via the [`graph`] call graph) touches cross-domain state, a model-crate `static`, or an interior-mutability cell; `cross-domain-mutation` is its intra-`impl` fast path |
//! | `shared-mutability` | `static mut`, lazy-global machinery, or an interior-mutability cell (`RefCell`/`Cell`/`Mutex`/atomics) outside the sanctioned sync layer (see [`SYNC_SANCTIONED`]) |
//!
//! `cross-domain-mutation` is a per-file token pass. `lane-race` and
//! `shared-mutability` are *workspace* passes: [`graph`] builds a symbol
//! index and conservative call graph over the token streams (each file is
//! lexed exactly once and shared by every rule), then `rules_graph` runs
//! reachability from the GPU-lane handlers.
//!
//! # Scope
//!
//! Only the model crates ([`MODEL_CRATES`]: everything the simulation's
//! results flow through) are scanned. Everything after a `#[cfg(test)]`
//! attribute is skipped: tests may use whatever they like.

pub mod graph;
pub mod lexer;

mod rules_graph;

pub use rules_graph::{CELL_TYPES, LAZY_GLOBAL_IDENTS, SYNC_SANCTIONED};

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use lexer::{Tok, TokKind};

/// Crates whose sources feed simulation results: the only crates scanned.
/// `idyll` is the workspace root package (`src/`).
pub const MODEL_CRATES: &[&str] = &[
    "core",
    "gpu-model",
    "idyll",
    "mem-model",
    "mgpu-system",
    "sim-engine",
    "uvm-driver",
    "vm-model",
    "workloads",
];

/// The lint rules. See the crate docs for the registry table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// Lane handler touching another domain's state outside the mailbox.
    CrossDomainMutation,
    /// Function reachable from a GPU-lane handler touching shared state.
    LaneRace,
    /// `static mut`, lazy global, or unsanctioned interior mutability.
    SharedMutability,
}

impl Rule {
    /// The stable id used in diagnostics.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Rule::CrossDomainMutation => "cross-domain-mutation",
            Rule::LaneRace => "lane-race",
            Rule::SharedMutability => "shared-mutability",
        }
    }
}

/// One finding, anchored to a `path:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The violated rule.
    pub rule: Rule,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// What went wrong, with the offending token named.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: error[{}]: {}",
            self.path,
            self.line,
            self.rule.id(),
            self.message
        )
    }
}

/// One preprocessed source file: lexed, comments dropped, truncated at the
/// first `#[cfg(test)]`. Built once per file and shared by every rule
/// pass, including the [`graph`] workspace rules.
pub struct FileAnalysis {
    /// Workspace-relative `/`-separated path.
    pub path: String,
    /// Code-channel tokens (no comments), truncated at `#[cfg(test)]`.
    pub toks: Vec<Tok>,
}

impl FileAnalysis {
    /// Lexes `source` once and keeps its code channel. `path` must be the
    /// workspace-relative `/`-separated path (rule scoping keys off it).
    #[must_use]
    pub fn new(path: String, source: &str) -> FileAnalysis {
        const PATTERN: [(&str, TokKind); 7] = [
            ("#", TokKind::Punct),
            ("[", TokKind::Punct),
            ("cfg", TokKind::Ident),
            ("(", TokKind::Punct),
            ("test", TokKind::Ident),
            (")", TokKind::Punct),
            ("]", TokKind::Punct),
        ];
        let mut toks: Vec<Tok> = lexer::lex(source)
            .into_iter()
            .filter(|t| t.kind != TokKind::Comment)
            .collect();
        // Everything from a `#[cfg(test)]` attribute on is test code,
        // outside our scope.
        if let Some(cut) = toks.windows(PATTERN.len()).position(|w| {
            w.iter()
                .zip(PATTERN.iter())
                .all(|(t, (text, kind))| t.kind == *kind && t.text == *text)
        }) {
            toks.truncate(cut);
        }
        FileAnalysis { path, toks }
    }
}

/// Identifiers that reach another domain's state: the lane array itself and
/// the cross-domain lock helpers. Legal in host/driver/barrier code (which
/// owns the synchronization schedule); inside an `impl GpuLane` body they
/// bypass the outbox mailbox and break the conservative-lookahead contract
/// that makes the parallel event core byte-identical (`cross-domain-mutation`).
const LANE_CROSSING_IDENTS: &[&str] = &["lanes", "lock_lane", "read_host", "write_host"];

/// Scans forward from the opening bracket at `open` (text `[`, `(` or `{`)
/// to its matching close, returning the index of the closing token.
pub(crate) fn matching_close(toks: &[Tok], open: usize) -> Option<usize> {
    let (o, c) = match toks[open].text.as_str() {
        "[" => ("[", "]"),
        "(" => ("(", ")"),
        "{" => ("{", "}"),
        _ => return None,
    };
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.kind == TokKind::Punct {
            if t.text == o {
                depth += 1;
            } else if t.text == c {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
        }
    }
    None
}

/// `cross-domain-mutation`: a lane-crossing identifier inside an
/// `impl GpuLane { ... }` body. Lane handlers run concurrently inside an
/// epoch, so any reach into sibling-lane or host state there races (or
/// would deadlock through the lane mutexes).
fn cross_domain_mutation(fa: &FileAnalysis, diags: &mut Vec<Diagnostic>) {
    let toks = &fa.toks;
    let mut lane_impls: Vec<(usize, usize)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Ident
            && t.text == "impl"
            && toks
                .get(i + 1)
                .is_some_and(|n| n.kind == TokKind::Ident && n.text == "GpuLane")
            && toks.get(i + 2).is_some_and(|n| n.text == "{")
        {
            if let Some(close) = matching_close(toks, i + 2) {
                lane_impls.push((i + 2, close));
            }
        }
    }
    for (i, t) in toks.iter().enumerate() {
        let word = t.text.as_str();
        if t.kind == TokKind::Ident
            && LANE_CROSSING_IDENTS.contains(&word)
            && lane_impls
                .iter()
                .any(|&(open, close)| i > open && i < close)
        {
            diags.push(Diagnostic {
                rule: Rule::CrossDomainMutation,
                path: fa.path.clone(),
                line: t.line,
                message: format!(
                    "`{word}` inside `impl GpuLane` reaches across event-lane domains; a lane handler owns only its own lane — push an outbox message and let the barrier route it"
                ),
            });
        }
    }
}

/// Runs every rule over already-lexed files: the per-file token pass, then
/// the workspace graph pass over one symbol index and call graph.
fn lint_files(files: &[FileAnalysis]) -> Vec<Diagnostic> {
    let mut diagnostics = Vec::new();
    for fa in files {
        cross_domain_mutation(fa, &mut diagnostics);
    }
    let refs: Vec<&FileAnalysis> = files.iter().collect();
    let symbols = graph::SymbolGraph::build(&refs);
    rules_graph::check(&symbols, &refs, &mut diagnostics);
    diagnostics
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    diagnostics
}

/// Result of a workspace scan.
#[derive(Debug)]
pub struct ScanReport {
    /// All findings, sorted by `(path, line, rule)`.
    pub diagnostics: Vec<Diagnostic>,
    /// Source files scanned.
    pub files_scanned: usize,
    /// Crates scanned.
    pub crates_scanned: usize,
}

/// Recursively collects `.rs` files under `dir`, sorted for determinism.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Reads the model crates' sources: one `[(rel path, source)]` list per
/// crate, in [`MODEL_CRATES`] order. The root package `idyll` lives in
/// `src/`, every other crate in `crates/<name>/src/`; absent crates are
/// skipped, so fixture workspaces carry only the crates they exercise.
fn workspace_sources(root: &Path) -> io::Result<Vec<Vec<(String, String)>>> {
    let mut out = Vec::new();
    for &name in MODEL_CRATES {
        let src = if name == "idyll" {
            root.join("src")
        } else {
            root.join("crates").join(name).join("src")
        };
        if !src.is_dir() {
            continue;
        }
        let mut paths = Vec::new();
        collect_rs(&src, &mut paths)?;
        let mut files = Vec::with_capacity(paths.len());
        for p in &paths {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(p)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            files.push((rel, fs::read_to_string(p)?));
        }
        out.push(files);
    }
    Ok(out)
}

/// Scans the model crates of the workspace rooted at `root`.
///
/// # Errors
/// Propagates I/O failures reading the workspace tree.
pub fn lint_workspace(root: &Path) -> io::Result<ScanReport> {
    let sources = workspace_sources(root)?;
    let files: Vec<FileAnalysis> = sources
        .iter()
        .flatten()
        .map(|(p, s)| FileAnalysis::new(p.clone(), s))
        .collect();
    Ok(ScanReport {
        diagnostics: lint_files(&files),
        files_scanned: files.len(),
        crates_scanned: sources.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_of(src: &str) -> Vec<Diagnostic> {
        lint_files(&[FileAnalysis::new("crates/x/src/lib.rs".to_string(), src)])
    }

    #[test]
    fn strings_and_comments_cannot_trip_rules() {
        let src = "// impl GpuLane { fn f() { lock_lane(lanes, 0); } }\n\
                   /* static mut X: u64 = 0; RefCell\n\
                      spanning lines */\n\
                   impl GpuLane { fn f() -> &'static str { \"lock_lane(lanes) RefCell\" } }\n";
        assert!(lint_of(src).is_empty(), "{:?}", lint_of(src));
    }

    #[test]
    fn cfg_test_stops_the_scan() {
        let src = "fn real() {}\n\
                   #[cfg(test)]\n\
                   mod tests { static mut X: u64 = 0; }\n";
        assert!(lint_of(src).is_empty());
        // `#[cfg(not(test))]` must not stop it.
        let src2 = "#[cfg(not(test))]\n\
                    mod real { static mut X: u64 = 0; }\n";
        assert_eq!(lint_of(src2).len(), 1);
    }

    #[test]
    fn flags_cross_domain_reach_inside_lane_impls() {
        let src = "impl GpuLane {\n\
                   \x20   fn bad(&mut self, lanes: &[Mutex<GpuLane>]) {\n\
                   \x20       lock_lane(lanes, 0).q.schedule(at, ev);\n\
                   \x20   }\n\
                   }\n";
        let d = lint_of(src);
        let hits: Vec<_> = d
            .iter()
            .filter(|d| d.rule == Rule::CrossDomainMutation)
            .collect();
        // `lanes` in the signature, `lock_lane` and `lanes` in the body.
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0].line, 2);
        assert!(hits[1].message.contains("lock_lane"));
    }

    #[test]
    fn cross_domain_rule_scoped_to_lane_impls() {
        // The same reach is the host's job: HostState owns the barrier.
        let host = "impl HostState {\n\
                    \x20   fn ok(&mut self, lanes: &[Mutex<GpuLane>]) {\n\
                    \x20       lock_lane(lanes, 0).q.schedule(at, ev);\n\
                    \x20   }\n\
                    }\n";
        assert!(lint_of(host)
            .iter()
            .all(|d| d.rule != Rule::CrossDomainMutation));
        // Methods after the impl's closing brace are out of scope.
        let after = "impl GpuLane {\n\
                     \x20   fn own(&mut self) { self.q.pop(); }\n\
                     }\n\
                     fn free(lanes: &[Mutex<GpuLane>]) { lock_lane(lanes, 0); }\n";
        assert!(lint_of(after)
            .iter()
            .all(|d| d.rule != Rule::CrossDomainMutation));
    }
}
