//! Source-level determinism and modeling lint for the IDYLL workspace.
//!
//! The simulator's core invariant — identical seed and configuration produce
//! byte-identical results (DESIGN.md invariant 5) — is enforced dynamically
//! by `tests/determinism.rs`, but only *after* a bug manifests. Stock clippy
//! enforces the parts it can express (`clippy.toml` bans entropy-seeded hash
//! maps, the wall clock and ambient randomness in the model crates, and the
//! workspace denies `clippy::cast_possible_truncation`). This crate enforces
//! the rest statically. It is a token-stream analyzer (std-only; no `syn`,
//! no rustc plugin): [`lexer`] splits each source file into code, comment
//! and string channels with spans, so multi-line constructs are matched
//! structurally and string/comment contents can never trip a rule.
//!
//! # Rules
//!
//! Every finding fails the run.
//!
//! | id | meaning |
//! |----|---------|
//! | `unordered-iter` | `.iter()`/`.keys()`/`.values()`/`.drain()` over a known hash map; visit order must never reach event scheduling or exports |
//! | `hot-path-panic` | `unwrap`/`expect`/`panic!`-family calls, or slice indexing with an arithmetic index, inside event-handler modules reachable from the sim loop (see [`HOT_PATHS`]) — plus, via the [`effects`] summaries, any panic effect *reachable through calls* from a GPU-lane handler or event dispatch arm |
//! | `hot-path-alloc` | an allocation effect (`Box`/`Vec`/`String` constructors, `vec!`/`format!`, `.collect()`/`.to_string()`/`.clone()`) reachable from a GPU-lane handler or an `Ev` dispatch arm; the per-event path must stay allocation-free |
//! | `io-in-sim-loop` | a file/socket/stdio or wall-clock effect reachable from a GPU-lane handler or an `Ev` dispatch arm; sites behind an `is_enabled()`-style observability gate are exempt |
//! | `cross-domain-mutation` | `lanes`, `lock_lane`, `read_host` or `write_host` inside an `impl GpuLane` body; a lane handler owns only its own lane — cross-domain effects must ride the outbox mailbox drained at barrier epochs |
//! | `lane-race` | a function transitively reachable from a GPU-lane handler (via the [`graph`] call graph) touches cross-domain state, a model-crate `static`, or an interior-mutability cell; `cross-domain-mutation` is its intra-`impl` fast path |
//! | `shared-mutability` | `static mut`, lazy-global machinery, or an interior-mutability cell (`RefCell`/`Cell`/`Mutex`/atomics) outside the sanctioned sync layer (see [`SYNC_SANCTIONED`]) |
//! | `dead-event` | an audited event-enum variant (see [`EVENT_ENUMS`]) constructed but never matched by a dispatch arm, or dispatched but never constructed — schema drift between producers and dispatch |
//! | `stale-allow` | an inline `allow(...)` escape that no longer suppresses any finding |
//! | `bare-allow` | a `simlint: allow(...)` escape without a reason, or naming an unknown rule |
//!
//! `unordered-iter`, `cross-domain-mutation`, `bare-allow` and
//! `hot-path-panic`'s in-module half are per-file token passes. The
//! graph-tier families (`hot-path-alloc`, `io-in-sim-loop`, `lane-race`,
//! `shared-mutability`, `dead-event`, and `hot-path-panic`'s
//! interprocedural half) are *workspace* passes: [`graph`] builds a symbol
//! index and conservative call graph over the token streams (each file is
//! lexed exactly once and shared by every rule), [`effects`] computes
//! per-function effect summaries over it, then the rule families in
//! `rules_graph` run reachability from the GPU-phase and dispatch roots.
//! `stale-allow` runs last, once every pass has consulted the escapes.
//!
//! # Escape hatch
//!
//! A finding is waived by an inline comment on the same line or on the
//! directly preceding comment-only line:
//!
//! ```text
//! // simlint: allow(hot-path-panic) — the table was validated non-empty at construction
//! let v = table.first().unwrap();
//! ```
//!
//! The reason after the closing parenthesis is mandatory (a bare allow is
//! itself reported), and an escape that suppresses nothing is reported as
//! stale, so escapes get pruned as rules sharpen instead of rotting.
//!
//! # Scope
//!
//! Only the model crates ([`MODEL_CRATES`]: everything the simulation's
//! results flow through) are scanned. Everything after a `#[cfg(test)]`
//! attribute is skipped: tests may use whatever they like.

pub mod effects;
pub mod graph;
pub mod lexer;

mod rules_graph;

pub use rules_graph::{CELL_TYPES, EVENT_ENUMS, LAZY_GLOBAL_IDENTS, SYNC_SANCTIONED};

use std::collections::BTreeSet;
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

/// Workspace-relative path prefixes of the modules whose bodies run inside
/// the simulation event loop. `hot-path-panic` fires only here: a panic in
/// these modules aborts the whole figure grid over one bad cell, so
/// failures must surface as typed `SimError`s instead.
pub const HOT_PATHS: &[&str] = &[
    "crates/mgpu-system/src/system/",
    "crates/gpu-model/src/gmmu.rs",
];

/// The lint rules. See the crate docs for the registry table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// Unordered-map iteration.
    UnorderedIter,
    /// Panic path inside a sim-loop event-handler module, or reachable from
    /// one through the call graph.
    HotPathPanic,
    /// Allocation effect reachable from a GPU-lane handler or an event
    /// dispatch arm.
    HotPathAlloc,
    /// IO or wall-clock effect reachable from a GPU-lane handler or an
    /// event dispatch arm.
    IoInSimLoop,
    /// Lane handler touching another domain's state outside the mailbox.
    CrossDomainMutation,
    /// Function reachable from a GPU-lane handler touching shared state.
    LaneRace,
    /// `static mut`, lazy global, or unsanctioned interior mutability.
    SharedMutability,
    /// Event variant constructed-never-dispatched or vice versa.
    DeadEvent,
    /// Inline allow escape that no longer suppresses any finding.
    StaleAllow,
    /// Malformed or reason-less `allow` escape.
    BareAllow,
}

impl Rule {
    /// Every rule, in diagnostic-id order.
    pub const ALL: [Rule; 10] = [
        Rule::BareAllow,
        Rule::CrossDomainMutation,
        Rule::DeadEvent,
        Rule::HotPathAlloc,
        Rule::HotPathPanic,
        Rule::IoInSimLoop,
        Rule::LaneRace,
        Rule::SharedMutability,
        Rule::StaleAllow,
        Rule::UnorderedIter,
    ];

    /// The stable id used in diagnostics and `allow(...)` lists.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Rule::UnorderedIter => "unordered-iter",
            Rule::HotPathPanic => "hot-path-panic",
            Rule::HotPathAlloc => "hot-path-alloc",
            Rule::IoInSimLoop => "io-in-sim-loop",
            Rule::CrossDomainMutation => "cross-domain-mutation",
            Rule::LaneRace => "lane-race",
            Rule::SharedMutability => "shared-mutability",
            Rule::DeadEvent => "dead-event",
            Rule::StaleAllow => "stale-allow",
            Rule::BareAllow => "bare-allow",
        }
    }

    /// Parses a rule id.
    #[must_use]
    pub fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.id() == id)
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

/// A parsed `simlint: allow(...)` escape.
#[derive(Debug, Clone, Default)]
struct AllowSpec {
    /// Rule ids listed inside the parentheses (may include unknown ids).
    rules: Vec<String>,
    /// Whether explanatory text follows the closing parenthesis.
    has_reason: bool,
    /// Whether the comment contained `simlint:` but failed to parse.
    malformed: bool,
}

impl AllowSpec {
    fn covers(&self, rule: Rule) -> bool {
        self.rules.iter().any(|r| r == rule.id())
    }
}

/// Extracts the `allow` spec from a comment, if any.
fn parse_allow(comment: &str) -> Option<AllowSpec> {
    let idx = comment.find("simlint:")?;
    let rest = comment[idx + "simlint:".len()..].trim_start();
    let Some(rest) = rest.strip_prefix("allow(") else {
        return Some(AllowSpec {
            malformed: true,
            ..AllowSpec::default()
        });
    };
    let Some(close) = rest.find(')') else {
        return Some(AllowSpec {
            malformed: true,
            ..AllowSpec::default()
        });
    };
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    let reason = rest[close + 1..].trim_matches([' ', '\t', '—', '–', '-', ':', ','].as_slice());
    Some(AllowSpec {
        has_reason: !reason.is_empty(),
        malformed: rules.is_empty(),
        rules,
    })
}

/// One preprocessed source file: lexed, split into channels, truncated at
/// the first `#[cfg(test)]`. Built once per file and shared by every rule
/// pass, including the [`graph`] workspace rules.
pub struct FileAnalysis {
    /// Workspace-relative `/`-separated path.
    pub path: String,
    /// Code-channel tokens (no comments), truncated at `#[cfg(test)]`.
    pub toks: Vec<Tok>,
    /// Parsed allow escapes: `(line, spec)`.
    allows: Vec<(usize, AllowSpec)>,
    /// Indices into `allows` that suppressed at least one finding this run.
    /// [`FileAnalysis::allowed`] is the single suppression choke point, so
    /// marking there is exhaustive; interior mutability because every rule
    /// pass holds `&FileAnalysis`.
    used_allows: std::cell::RefCell<BTreeSet<usize>>,
    /// Lines that carry at least one code token.
    code_lines: BTreeSet<usize>,
}

impl FileAnalysis {
    /// Lexes `source` once and splits it into channels. `path` must be the
    /// workspace-relative `/`-separated path (rule scoping keys off it).
    #[must_use]
    pub fn new(path: String, source: &str) -> FileAnalysis {
        let all = lexer::lex(source);
        // Find the `#[cfg(test)]` attribute in the code channel; everything
        // from it on (comments included) is test code, outside our scope.
        let code_kinds: Vec<usize> = all
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind != TokKind::Comment)
            .map(|(i, _)| i)
            .collect();
        const PATTERN: [(&str, TokKind); 7] = [
            ("#", TokKind::Punct),
            ("[", TokKind::Punct),
            ("cfg", TokKind::Ident),
            ("(", TokKind::Punct),
            ("test", TokKind::Ident),
            (")", TokKind::Punct),
            ("]", TokKind::Punct),
        ];
        let cutoff_line = code_kinds
            .windows(PATTERN.len())
            .find(|w| {
                w.iter()
                    .zip(PATTERN.iter())
                    .all(|(&i, (text, kind))| all[i].kind == *kind && all[i].text == *text)
            })
            .map(|w| all[w[0]].line);
        let in_scope = |t: &Tok| cutoff_line.is_none_or(|c| t.line < c);

        let mut toks = Vec::new();
        let mut allows = Vec::new();
        let mut code_lines = BTreeSet::new();
        for t in all {
            if !in_scope(&t) {
                continue;
            }
            if t.kind == TokKind::Comment {
                if let Some(spec) = parse_allow(&t.text) {
                    allows.push((t.line, spec));
                }
            } else {
                code_lines.insert(t.line);
                toks.push(t);
            }
        }
        FileAnalysis {
            path,
            toks,
            allows,
            used_allows: std::cell::RefCell::new(BTreeSet::new()),
            code_lines,
        }
    }

    /// Whether a finding of `rule` on `line` is waived by an allow escape on
    /// the same line or on a directly preceding comment-only line. Matching
    /// escapes are recorded as *used* — `stale-allow` reports the ones that
    /// never suppress anything.
    #[must_use]
    pub fn allowed(&self, rule: Rule, line: usize) -> bool {
        let mut hit = false;
        for (i, (l, spec)) in self.allows.iter().enumerate() {
            if spec.covers(rule) && (*l == line || (*l + 1 == line && !self.code_lines.contains(l)))
            {
                self.used_allows.borrow_mut().insert(i);
                hit = true;
            }
        }
        hit
    }

    /// Reports inline escapes that suppressed nothing this run (`stale-allow`).
    /// Only well-formed escapes naming at least one known rule qualify —
    /// malformed or unknown-rule escapes are `bare-allow`'s business. Must
    /// run after every rule pass has consulted [`FileAnalysis::allowed`].
    fn stale_allow_diags(&self, out: &mut Vec<Diagnostic>) {
        let used = self.used_allows.borrow();
        for (i, (line, spec)) in self.allows.iter().enumerate() {
            if used.contains(&i) || spec.malformed {
                continue;
            }
            let known: Vec<&str> = spec
                .rules
                .iter()
                .filter(|r| Rule::from_id(r).is_some())
                .map(String::as_str)
                .collect();
            if known.is_empty() {
                continue;
            }
            out.push(Diagnostic {
                rule: Rule::StaleAllow,
                path: self.path.clone(),
                line: *line,
                message: format!(
                    "allow({}) no longer suppresses any finding; remove the escape",
                    known.join(", ")
                ),
            });
        }
    }

    /// Reports malformed / unknown-rule / reason-less escapes.
    fn bare_allow_diags(&self, out: &mut Vec<Diagnostic>) {
        for (line, spec) in &self.allows {
            let mut push = |message: String| {
                out.push(Diagnostic {
                    rule: Rule::BareAllow,
                    path: self.path.clone(),
                    line: *line,
                    message,
                });
            };
            if spec.malformed {
                push(
                    "malformed simlint comment; expected `simlint: allow(<rule>) — <reason>`"
                        .into(),
                );
                continue;
            }
            for r in &spec.rules {
                if Rule::from_id(r).is_none() {
                    push(format!("allow names unknown rule `{r}`"));
                }
            }
            if !spec.has_reason {
                push("allow without a reason; explain why the escape is sound".into());
            }
        }
    }
}

/// Map-type tokens the unordered-iter rule tracks declarations of.
/// `BTreeMap` is deliberately absent: its iteration order is defined.
const MAP_TYPES: &[&str] = &["DetHashMap", "DetHashSet", "HashMap", "HashSet"];

/// Methods whose results expose bucket order. `retain`/`entry`/`get` are
/// absent: they do not leak order to the caller.
const ORDER_LEAKS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
];

/// Panic-family method names (`.unwrap()` / `.expect(...)`).
pub(crate) const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

/// Panic-family macro names (`panic!(...)` etc.).
pub(crate) const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Identifiers that reach another domain's state: the lane array itself and
/// the cross-domain lock helpers. Legal in host/driver/barrier code (which
/// owns the synchronization schedule); inside an `impl GpuLane` body they
/// bypass the outbox mailbox and break the conservative-lookahead contract
/// that makes the parallel event core byte-identical (`cross-domain-mutation`).
const LANE_CROSSING_IDENTS: &[&str] = &["lanes", "lock_lane", "read_host", "write_host"];

/// Whether `path` lies in a sim-loop event-handler module.
pub(crate) fn is_hot_path(path: &str) -> bool {
    HOT_PATHS.iter().any(|p| path.starts_with(p))
}

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

/// Lints one crate given `(workspace-relative path, source)` pairs.
///
/// Runs the per-crate token rules (the graph tier needs the whole
/// workspace): the first pass collects identifiers declared with hash-map
/// types anywhere in the crate (fields in one file are iterated in another),
/// the second walks each file's token stream.
#[must_use]
pub fn lint_crate(files: &[(String, String)]) -> Vec<Diagnostic> {
    let analyses: Vec<FileAnalysis> = files
        .iter()
        .map(|(p, s)| FileAnalysis::new(p.clone(), s))
        .collect();
    let mut diags = Vec::new();
    lint_crate_analyses(&analyses, &mut diags);
    diags
}

fn lint_crate_analyses(analyses: &[FileAnalysis], diags: &mut Vec<Diagnostic>) {
    // Pass 1: identifiers declared as hash maps anywhere in the crate.
    let mut map_idents: Vec<&str> = Vec::new();
    for fa in analyses {
        let toks = &fa.toks;
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident || !MAP_TYPES.contains(&t.text.as_str()) || i < 2 {
                continue;
            }
            let prev = &toks[i - 1];
            let decl = &toks[i - 2];
            if prev.kind == TokKind::Punct
                && (prev.text == ":" || prev.text == "=")
                && decl.kind == TokKind::Ident
                && !map_idents.contains(&decl.text.as_str())
            {
                map_idents.push(&decl.text);
            }
        }
    }

    // Pass 2: per-token checks.
    for fa in analyses {
        fa.bare_allow_diags(diags);
        let hot = is_hot_path(&fa.path);
        let toks = &fa.toks;
        // Token ranges of `impl GpuLane { ... }` bodies in this file: the
        // scope of `cross-domain-mutation`. Lane handlers run concurrently
        // inside an epoch, so any reach into sibling-lane or host state
        // there races (or would deadlock through the lane mutexes).
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
        for i in 0..toks.len() {
            let t = &toks[i];
            let mut push = |rule: Rule, at: &Tok, message: String| {
                if !fa.allowed(rule, at.line) {
                    diags.push(Diagnostic {
                        rule,
                        path: fa.path.clone(),
                        line: at.line,
                        message,
                    });
                }
            };
            match t.kind {
                TokKind::Ident => {
                    let next_is = |off: usize, text: &str| {
                        toks.get(i + off)
                            .is_some_and(|n| n.kind == TokKind::Punct && n.text == text)
                    };
                    let word = t.text.as_str();
                    if map_idents.contains(&word)
                        && next_is(1, ".")
                        && toks.get(i + 2).is_some_and(|n| {
                            n.kind == TokKind::Ident && ORDER_LEAKS.contains(&n.text.as_str())
                        })
                        && next_is(3, "(")
                    {
                        let leak = &toks[i + 2].text;
                        push(
                            Rule::UnorderedIter,
                            t,
                            format!(
                                "`{word}.{leak}` iterates an unordered map; sort, aggregate order-insensitively, or use `BTreeMap`"
                            ),
                        );
                    }
                    if LANE_CROSSING_IDENTS.contains(&word)
                        && lane_impls
                            .iter()
                            .any(|&(open, close)| i > open && i < close)
                    {
                        push(
                            Rule::CrossDomainMutation,
                            t,
                            format!(
                                "`{word}` inside `impl GpuLane` reaches across event-lane domains; a lane handler owns only its own lane — push an outbox message and let the barrier route it"
                            ),
                        );
                    }
                    if hot {
                        if PANIC_METHODS.contains(&word)
                            && i > 0
                            && toks[i - 1].text == "."
                            && next_is(1, "(")
                        {
                            push(
                                Rule::HotPathPanic,
                                t,
                                format!(
                                    "`.{word}()` in a sim-loop event handler lets one bad cell abort the whole figure grid; return a typed `SimError` instead"
                                ),
                            );
                        }
                        if PANIC_MACROS.contains(&word) && next_is(1, "!") {
                            push(
                                Rule::HotPathPanic,
                                t,
                                format!(
                                    "`{word}!` in a sim-loop event handler lets one bad cell abort the whole figure grid; return a typed `SimError` instead"
                                ),
                            );
                        }
                    }
                }
                TokKind::Punct if hot && t.text == "[" && i > 0 => {
                    // Expression-position indexing: the `[` follows a value
                    // (identifier or closing delimiter), not `#`, `!`, `<`,
                    // a type colon, …
                    let prev = &toks[i - 1];
                    let indexing = prev.kind == TokKind::Ident && prev.text != "mut"
                        || (prev.kind == TokKind::Punct && (prev.text == ")" || prev.text == "]"));
                    if indexing {
                        if let Some(close) = matching_close(toks, i) {
                            let arithmetic = toks[i + 1..close].iter().any(|x| {
                                x.kind == TokKind::Punct
                                    && matches!(x.text.as_str(), "+" | "-" | "*" | "/" | "%")
                            });
                            if arithmetic {
                                push(
                                    Rule::HotPathPanic,
                                    t,
                                    "arithmetic slice index in a sim-loop event handler can panic out of bounds; use `.get()` and return a typed `SimError`".into(),
                                );
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

/// Result of a workspace scan.
#[derive(Debug)]
pub struct ScanReport {
    /// All findings, `stale-allow` included, sorted by `(path, line, rule)`.
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

/// Scans the model crates of the workspace rooted at `root`: the per-crate
/// token rules, then the workspace graph tier, then `stale-allow`.
///
/// # Errors
/// Propagates I/O failures reading the workspace tree.
pub fn lint_workspace(root: &Path) -> io::Result<ScanReport> {
    let sources = workspace_sources(root)?;
    let mut diagnostics = Vec::new();
    let mut all_files: Vec<FileAnalysis> = Vec::new();
    for files in &sources {
        let analyses: Vec<FileAnalysis> = files
            .iter()
            .map(|(p, s)| FileAnalysis::new(p.clone(), s))
            .collect();
        lint_crate_analyses(&analyses, &mut diagnostics);
        all_files.extend(analyses);
    }

    // Workspace graph pass: one symbol index + call graph built from the
    // already-lexed token streams (no file is re-read or re-lexed), one
    // effect-inference fixpoint over it, then the hot-path / lane-race /
    // shared-mutability / dead-event families.
    let files: Vec<&FileAnalysis> = all_files.iter().collect();
    let symbols = graph::SymbolGraph::build(&files);
    let fx = effects::infer(&symbols, &files);
    rules_graph::check(&symbols, &fx, &files, &mut diagnostics);

    // Stale-allow detection must run last: only after every rule family has
    // consulted `allowed()` do the usage marks cover the whole run.
    for fa in &all_files {
        fa.stale_allow_diags(&mut diagnostics);
    }
    diagnostics
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));

    Ok(ScanReport {
        diagnostics,
        files_scanned: all_files.len(),
        crates_scanned: sources.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crate_of(src: &str) -> Vec<Diagnostic> {
        lint_crate(&[("crates/x/src/lib.rs".to_string(), src.to_string())])
    }

    fn hot_of(src: &str) -> Vec<Diagnostic> {
        lint_crate(&[(
            "crates/mgpu-system/src/system/translate.rs".to_string(),
            src.to_string(),
        )])
    }

    #[test]
    fn multi_line_constructs_are_matched_as_tokens() {
        let src = "struct S { m: DetHashMap<u64, u64> }\n\
                   fn f(s: &S) { for k in s.m\n\
                   \x20   .keys() { drop(k); } }\n\
                   fn g(v: Option<u8>) -> u8 { v\n\
                   \x20   .unwrap() }\n";
        let d = hot_of(src);
        assert!(d
            .iter()
            .any(|d| d.rule == Rule::UnorderedIter && d.line == 2));
        assert!(d
            .iter()
            .any(|d| d.rule == Rule::HotPathPanic && d.line == 5));
    }

    #[test]
    fn strings_and_comments_cannot_trip_rules() {
        let src = "// v.unwrap() is banned here, panic! too\n\
                   /* m.iter() in a block comment\n\
                      spanning lines with v[i + 1] */\n\
                   fn f() -> &'static str { \"v.unwrap() panic!()\" }\n\
                   fn g() -> &'static str { r#\"v[i + 1] .expect(\"# }\n";
        assert!(hot_of(src).is_empty());
    }

    #[test]
    fn flags_unordered_iteration_cross_file() {
        let files = vec![
            (
                "crates/x/src/state.rs".to_string(),
                "pub struct S { pub(crate) reqs: DetHashMap<u64, u32> }\n".to_string(),
            ),
            (
                "crates/x/src/dump.rs".to_string(),
                "fn f(s: &super::S) { for (k, v) in s.reqs.iter() { drop((k, v)); } }\n\
                 fn g(s: &super::S) -> usize { s.reqs.len() }\n"
                    .to_string(),
            ),
        ];
        let d = lint_crate(&files);
        let iters: Vec<_> = d.iter().filter(|d| d.rule == Rule::UnorderedIter).collect();
        assert_eq!(iters.len(), 1);
        assert_eq!(iters[0].path, "crates/x/src/dump.rs");
        assert_eq!(iters[0].line, 1);
    }

    #[test]
    fn tracks_det_map_declarations_for_unordered_iter() {
        let src = "struct S { m: DetHashMap<u64, u64> }\n\
                   fn f(s: &S) { for k in s.m.keys() { drop(k); } }\n";
        let d = crate_of(src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, Rule::UnorderedIter);
    }

    #[test]
    fn flags_panic_paths_only_in_hot_modules() {
        let src = "fn f(m: &M, token: u64) -> u32 { *m.reqs.get(&token).expect(\"live\") }\n\
                   fn g(v: &[u32]) -> u32 { v.first().copied().unwrap() }\n\
                   fn h() { panic!(\"boom\"); }\n\
                   fn i(x: u32) -> u32 { x.checked_add(1).unwrap_or(0) }\n";
        let d = hot_of(src);
        let hits: Vec<usize> = d
            .iter()
            .filter(|d| d.rule == Rule::HotPathPanic)
            .map(|d| d.line)
            .collect();
        assert_eq!(hits, vec![1, 2, 3], "unwrap_or must not match: {d:?}");
        // Same source outside the hot-path allowlist: silent.
        assert!(crate_of(src).iter().all(|d| d.rule != Rule::HotPathPanic));
    }

    #[test]
    fn flags_arithmetic_indexing_in_hot_modules() {
        let src = "fn f(v: &[u32], i: usize) -> u32 { v[i + 1] }\n\
                   fn g(v: &[u32], i: usize) -> u32 { v[i] }\n\
                   fn h() -> Vec<u32> { vec![0; 4] }\n\
                   fn a() { #[rustfmt::skip] let _x: [u8; 2] = [1, 2]; }\n";
        let d = hot_of(src);
        let hits: Vec<usize> = d
            .iter()
            .filter(|d| d.rule == Rule::HotPathPanic)
            .map(|d| d.line)
            .collect();
        assert_eq!(hits, vec![1], "only the arithmetic index: {d:?}");
    }

    #[test]
    fn allow_escape_waives_same_and_next_line() {
        let src = "fn f(v: Option<u8>) -> u8 { v.unwrap() } // simlint: allow(hot-path-panic) — test fixture\n\
                   // simlint: allow(hot-path-panic) — caller checks is_some\n\
                   fn g(v: Option<u8>) -> u8 { v.unwrap() }\n";
        assert!(hot_of(src).is_empty());
    }

    #[test]
    fn allow_does_not_leak_past_one_line() {
        let src = "// simlint: allow(hot-path-panic) — only the next line\n\
                   fn ok(v: Option<u8>) -> u8 { v.unwrap() }\n\
                   fn bad(v: Option<u8>) -> u8 { v.unwrap() }\n";
        let d = hot_of(src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn bare_or_unknown_allow_is_reported() {
        // `wall-clock` moved to clippy (`clippy.toml`), so an escape naming
        // it is as unknown here as a typo.
        let src = "// simlint: allow(hot-path-panic)\n\
                   fn f(v: Option<u8>) -> u8 { v.unwrap() }\n\
                   // simlint: allow(wall-clock) — harness timing only\n\
                   fn g() {}\n";
        let d = hot_of(src);
        assert!(d
            .iter()
            .any(|d| d.rule == Rule::BareAllow && d.message.contains("without a reason")));
        assert!(d
            .iter()
            .any(|d| d.rule == Rule::BareAllow && d.message.contains("unknown rule `wall-clock`")));
        // The reason-less allow still waives the panic finding.
        assert!(!d.iter().any(|d| d.rule == Rule::HotPathPanic));
    }

    #[test]
    fn cfg_test_stops_the_scan() {
        let src = "fn real() {}\n\
                   #[cfg(test)]\n\
                   mod tests { fn t(v: Option<u8>) -> u8 { v.unwrap() } }\n";
        assert!(hot_of(src).is_empty());
        // `#[cfg(not(test))]` must not stop it.
        let src2 = "#[cfg(not(test))]\n\
                    mod real { fn t(v: Option<u8>) -> u8 { v.unwrap() } }\n";
        assert_eq!(hot_of(src2).len(), 1);
    }

    #[test]
    fn rule_ids_roundtrip() {
        for r in Rule::ALL {
            assert_eq!(Rule::from_id(r.id()), Some(r));
        }
        assert_eq!(Rule::from_id("nope"), None);
    }

    #[test]
    fn flags_cross_domain_reach_inside_lane_impls() {
        let src = "impl GpuLane {\n\
                   \x20   fn bad(&mut self, lanes: &[Mutex<GpuLane>]) {\n\
                   \x20       lock_lane(lanes, 0).q.schedule(at, ev);\n\
                   \x20   }\n\
                   }\n";
        let d = crate_of(src);
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
        assert!(crate_of(host)
            .iter()
            .all(|d| d.rule != Rule::CrossDomainMutation));
        // Methods after the impl's closing brace are out of scope.
        let after = "impl GpuLane {\n\
                     \x20   fn own(&mut self) { self.q.pop(); }\n\
                     }\n\
                     fn free(lanes: &[Mutex<GpuLane>]) { lock_lane(lanes, 0); }\n";
        assert!(crate_of(after)
            .iter()
            .all(|d| d.rule != Rule::CrossDomainMutation));
    }

    #[test]
    fn cross_domain_rule_honors_inline_allow() {
        let src = "impl GpuLane {\n\
                   \x20   fn audited(&mut self, host: &RwLock<HostState>) {\n\
                   \x20       // simlint: allow(cross-domain-mutation) — read-only snapshot taken at epoch open\n\
                   \x20       let h = read_host(host);\n\
                   \x20   }\n\
                   }\n";
        assert!(crate_of(src)
            .iter()
            .all(|d| d.rule != Rule::CrossDomainMutation));
    }
}
