//! Source-level determinism and modeling lint for the IDYLL workspace.
//!
//! The simulator's core invariant — identical seed and configuration produce
//! byte-identical results (DESIGN.md invariant 5) — is enforced dynamically
//! by `tests/determinism.rs`, but only *after* a bug manifests. This crate
//! enforces it statically. Since v2 it is a token-stream analyzer (std-only;
//! no `syn`, no rustc plugin): [`lexer`] splits each source file into code,
//! comment and string channels with spans, so multi-line constructs are
//! matched structurally and string/comment contents can never trip a rule.
//!
//! # Rules
//!
//! | id | severity | meaning |
//! |----|----------|---------|
//! | `default-hasher-map` | error | `HashMap`/`HashSet` with the entropy-seeded default hasher in a model crate; use `sim_engine::collections::{DetHashMap, DetHashSet}` or `BTreeMap` |
//! | `wall-clock` | error | `Instant::now` / `SystemTime` outside `bench`; simulated time is `Cycle` |
//! | `ambient-rng` | error | `thread_rng`, `rand::`, `fastrand`, `getrandom`; randomness must flow through `DetRng` |
//! | `float-ord-key` | error | `f32`/`f64` keys in ordered containers (`BinaryHeap`, `BTreeMap`, `BTreeSet`) |
//! | `unordered-iter` | error | `.iter()`/`.keys()`/`.values()`/`.drain()` over a known hash map in a model crate; visit order must never reach event scheduling or exports |
//! | `lossy-cast` | error | an `as` cast that can truncate in a model crate: any cast to `u8`/`u16`/`u32`/`i8`/`i16`/`i32`/`f32`, or a float expression cast to an integer |
//! | `hot-path-panic` | error | `unwrap`/`expect`/`panic!`-family calls, or slice indexing with an arithmetic index, inside event-handler modules reachable from the sim loop (see [`HOT_PATHS`]) — plus, via the [`effects`] summaries, any panic effect *reachable through calls* from a GPU-lane handler or event dispatch arm |
//! | `hot-path-alloc` | error | an allocation effect (`Box`/`Vec`/`String` constructors, `vec!`/`format!`, `.collect()`/`.to_string()`/`.clone()`) reachable from a GPU-lane handler or an `Ev` dispatch arm; the per-event path must stay allocation-free |
//! | `io-in-sim-loop` | error | a file/socket/stdio or wall-clock effect reachable from a GPU-lane handler or an `Ev` dispatch arm; sites behind an `is_enabled()`-style observability gate are exempt |
//! | `cross-domain-mutation` | error | `lanes`, `lock_lane`, `read_host` or `write_host` inside an `impl GpuLane` body; a lane handler owns only its own lane — cross-domain effects must ride the outbox mailbox drained at barrier epochs |
//! | `lane-race` | error | a function transitively reachable from a GPU-lane handler (via the [`graph`] call graph) touches cross-domain state, a model-crate `static`, or an interior-mutability cell; `cross-domain-mutation` is its intra-`impl` fast path |
//! | `shared-mutability` | error | `static mut`, lazy-global machinery, or an interior-mutability cell (`RefCell`/`Cell`/`Mutex`/atomics) in a model crate outside the sanctioned sync layer (see [`SYNC_SANCTIONED`]) |
//! | `dead-event` | error | an audited event-enum variant (see [`EVENT_ENUMS`]) constructed but never matched by a dispatch arm, or dispatched but never constructed — schema drift between producers and dispatch |
//! | `stale-allow` | warning | an inline `allow(...)` escape that no longer suppresses any finding (reported under `--check-allows`; error under `--strict`) |
//! | `bare-allow` | warning | a `simlint: allow(...)` escape without a reason, or naming an unknown rule |
//!
//! `default-hasher-map`, `wall-clock`, `ambient-rng`, `float-ord-key`,
//! `unordered-iter`, `lossy-cast`, `cross-domain-mutation`, `bare-allow`
//! and `hot-path-panic`'s in-module half are per-file token passes. The
//! graph-tier families (`hot-path-alloc`, `io-in-sim-loop`, `lane-race`,
//! `shared-mutability`, `dead-event`, and `hot-path-panic`'s
//! interprocedural half) are *workspace* passes: [`graph`] builds a symbol
//! index and conservative call graph over the model crates' token streams
//! (each file is lexed exactly once and shared by every rule), [`effects`]
//! computes per-function effect summaries over it, then the rule families
//! in `rules_graph` run reachability from the GPU-phase and dispatch roots.
//! `stale-allow` runs last, once every pass has consulted the escapes.
//!
//! # Escape hatch
//!
//! A finding is waived by an inline comment on the same line or on the
//! directly preceding comment-only line:
//!
//! ```text
//! // simlint: allow(wall-clock) — heartbeat progress reporting only
//! let started = std::time::Instant::now();
//! ```
//!
//! The reason after the closing parenthesis is mandatory (a bare allow is
//! itself reported). Grandfathered sites that cannot carry a comment live in
//! the committed `simlint.baseline` file, keyed by `(rule, path)`; entries
//! that no longer fire are reported as stale so the baseline only shrinks.
//!
//! # Scope
//!
//! Model crates (everything the simulation's results flow through) get all
//! rules; other workspace crates get the wall-clock/randomness/float rules.
//! `bench` (harness timing is its job), the vendored `proptest` stub, and
//! `simlint` itself are exempt. Everything after a `#[cfg(test)]` attribute
//! is skipped: tests may use whatever they like.

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

/// Crates whose sources feed simulation results: all rules apply.
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

/// Crates the scanner never enters.
pub const EXEMPT_CRATES: &[&str] = &["bench", "proptest", "simlint"];

/// Workspace-relative path prefixes of the modules whose bodies run inside
/// the simulation event loop. `hot-path-panic` fires only here: a panic in
/// these modules aborts the whole figure grid over one bad cell, so
/// failures must surface as typed `SimError`s instead.
pub const HOT_PATHS: &[&str] = &[
    "crates/mgpu-system/src/system/",
    "crates/gpu-model/src/gmmu.rs",
];

/// Diagnostic severity; only errors fail `--check`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Reported but non-fatal.
    Warning,
    /// Fails the lint run.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// The lint rules. See the crate docs for the registry table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// Entropy-seeded `HashMap`/`HashSet` in a model crate.
    DefaultHasherMap,
    /// `Instant::now` / `SystemTime` outside bench.
    WallClock,
    /// `thread_rng` / `rand::` / `fastrand` / `getrandom`.
    AmbientRng,
    /// `f32`/`f64` keys in an ordered container.
    FloatOrdKey,
    /// Unordered-map iteration in a model crate.
    UnorderedIter,
    /// Truncating `as` cast in a model crate.
    LossyCast,
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
    pub const ALL: [Rule; 15] = [
        Rule::AmbientRng,
        Rule::BareAllow,
        Rule::CrossDomainMutation,
        Rule::DeadEvent,
        Rule::DefaultHasherMap,
        Rule::FloatOrdKey,
        Rule::HotPathAlloc,
        Rule::HotPathPanic,
        Rule::IoInSimLoop,
        Rule::LaneRace,
        Rule::LossyCast,
        Rule::SharedMutability,
        Rule::StaleAllow,
        Rule::UnorderedIter,
        Rule::WallClock,
    ];

    /// The stable id used in diagnostics, `allow(...)` lists and baselines.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Rule::DefaultHasherMap => "default-hasher-map",
            Rule::WallClock => "wall-clock",
            Rule::AmbientRng => "ambient-rng",
            Rule::FloatOrdKey => "float-ord-key",
            Rule::UnorderedIter => "unordered-iter",
            Rule::LossyCast => "lossy-cast",
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

    /// Per-rule severity.
    #[must_use]
    pub fn severity(self) -> Severity {
        match self {
            // `stale-allow` is promoted to error under `--strict`, like
            // stale baseline entries.
            Rule::BareAllow | Rule::StaleAllow => Severity::Warning,
            _ => Severity::Error,
        }
    }

    /// One-line description for `--list-rules`.
    #[must_use]
    pub fn summary(self) -> &'static str {
        match self {
            Rule::DefaultHasherMap => {
                "no entropy-seeded HashMap/HashSet in model crates; use DetHashMap/DetHashSet or BTreeMap"
            }
            Rule::WallClock => "no Instant::now/SystemTime outside bench; simulated time is Cycle",
            Rule::AmbientRng => "no thread_rng/rand::/fastrand/getrandom; randomness flows through DetRng",
            Rule::FloatOrdKey => "no f32/f64 keys in BinaryHeap/BTreeMap/BTreeSet ordering",
            Rule::UnorderedIter => {
                "no iter()/keys()/values()/drain() over unordered maps in model crates"
            }
            Rule::LossyCast => {
                "no truncating `as` casts (narrow integer targets, float→int) in model crates"
            }
            Rule::HotPathPanic => {
                "no unwrap/expect/panic!/arithmetic indexing in sim-loop event handlers or reachable from them; use typed SimErrors"
            }
            Rule::HotPathAlloc => {
                "no allocation (Box/Vec/String/format!/collect/clone) reachable from GPU-lane handlers or event dispatch; the per-event path stays allocation-free"
            }
            Rule::IoInSimLoop => {
                "no file/socket/stdio IO or wall-clock reads reachable from GPU-lane handlers or event dispatch"
            }
            Rule::CrossDomainMutation => {
                "no lanes/lock_lane/read_host/write_host inside impl GpuLane; cross-domain effects ride the outbox mailbox"
            }
            Rule::LaneRace => {
                "no function reachable from a GPU-lane handler may touch cross-domain state, statics, or interior-mutability cells (call-graph reachability)"
            }
            Rule::SharedMutability => {
                "no static mut, lazy globals, or interior-mutability cells in model crates outside the sanctioned sync layer"
            }
            Rule::DeadEvent => {
                "every audited event-enum variant is both constructed and matched by a dispatch arm somewhere"
            }
            Rule::StaleAllow => {
                "inline allow escapes must still suppress at least one finding; prune them as rules sharpen"
            }
            Rule::BareAllow => "simlint allow escapes must name known rules and carry a reason",
        }
    }
}

/// One finding, anchored to a `path:line:col` span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The violated rule.
    pub rule: Rule,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column (characters) of the offending token.
    pub col: usize,
    /// Length (characters) of the offending token.
    pub len: usize,
    /// What went wrong, with the offending token named.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}[{}]: {}",
            self.path,
            self.line,
            self.rule.severity(),
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
    /// Parsed allow escapes: `(line, col, spec)`.
    allows: Vec<(usize, usize, AllowSpec)>,
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
                    allows.push((t.line, t.col, spec));
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
    /// escapes are recorded as *used* — `--check-allows` reports the ones
    /// that never suppress anything.
    #[must_use]
    pub fn allowed(&self, rule: Rule, line: usize) -> bool {
        let mut hit = false;
        for (i, (l, _, spec)) in self.allows.iter().enumerate() {
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
        for (i, (line, col, spec)) in self.allows.iter().enumerate() {
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
                col: *col,
                len: "simlint:".len(),
                message: format!(
                    "allow({}) no longer suppresses any finding; remove the escape",
                    known.join(", ")
                ),
            });
        }
    }

    /// Reports malformed / unknown-rule / reason-less escapes.
    fn bare_allow_diags(&self, out: &mut Vec<Diagnostic>) {
        for (line, col, spec) in &self.allows {
            let mut push = |message: String| {
                out.push(Diagnostic {
                    rule: Rule::BareAllow,
                    path: self.path.clone(),
                    line: *line,
                    col: *col,
                    len: "simlint:".len(),
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

/// Ambient-randomness identifiers.
const RNG_IDENTS: &[&str] = &["thread_rng", "fastrand", "getrandom"];

/// Ordered containers that must not key on floats.
const ORDERED_CONTAINERS: &[&str] = &["BinaryHeap", "BTreeMap", "BTreeSet"];

/// Cast targets that are narrower than the 64-bit cycle/address/page
/// arithmetic the model crates run on. `usize`/`u64` are excluded (the
/// simulator only targets 64-bit hosts); casting *to* them is flagged only
/// when the source is provably a float expression.
const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "f32"];

/// Integer cast targets checked for a float source.
const INT_TARGETS: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Methods that produce floats; `(x).<method>() as u64` is float→int.
const FLOAT_METHODS: &[&str] = &[
    "ceil", "floor", "round", "trunc", "fract", "sqrt", "powf", "powi", "exp", "ln", "log2",
    "log10", "mul_add", "clamp",
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

/// Is a float literal (`1.5`, `2e-3`, `1f64`)?
fn is_float_literal(t: &Tok) -> bool {
    t.kind == TokKind::Num
        && !t.text.starts_with("0x")
        && (t.text.contains('.')
            || t.text.ends_with("f32")
            || t.text.ends_with("f64")
            || t.text.contains(['e', 'E']))
}

/// Scans backwards from the `)` at `close` to its matching `(`, returning
/// the index of the `(` token (or `None` when unbalanced).
fn matching_open(toks: &[Tok], close: usize) -> Option<usize> {
    let mut depth = 0usize;
    for i in (0..=close).rev() {
        if toks[i].kind == TokKind::Punct {
            match toks[i].text.as_str() {
                ")" => depth += 1,
                "(" => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(i);
                    }
                }
                _ => {}
            }
        }
    }
    None
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

/// Whether the parenthesized group ending at `close` (a `)` token) contains
/// evidence of float arithmetic: an `f32`/`f64` cast or ascription, a float
/// literal, or a float-producing method call directly before the group.
fn group_is_floaty(toks: &[Tok], close: usize) -> bool {
    let Some(open) = matching_open(toks, close) else {
        return false;
    };
    let inner_floaty = toks[open + 1..close].iter().any(|t| {
        (t.kind == TokKind::Ident && (t.text == "f32" || t.text == "f64")) || is_float_literal(t)
    });
    // `(...).ceil() as u64`: the group is ceil's argument list; the method
    // name sits right before the `(`.
    let method_before = open > 0
        && toks[open - 1].kind == TokKind::Ident
        && FLOAT_METHODS.contains(&toks[open - 1].text.as_str())
        && open > 1
        && toks[open - 2].text == ".";
    inner_floaty || method_before
}

/// Lints one crate given `(workspace-relative path, source)` pairs.
///
/// Runs the per-crate token rules (the graph tier needs the whole
/// workspace): the first pass collects identifiers declared with hash-map
/// types anywhere in the crate (fields in one file are iterated in another),
/// the second walks each file's token stream.
#[must_use]
pub fn lint_crate(crate_name: &str, files: &[(String, String)]) -> Vec<Diagnostic> {
    let analyses: Vec<FileAnalysis> = files
        .iter()
        .map(|(p, s)| FileAnalysis::new(p.clone(), s))
        .collect();
    let mut diags = Vec::new();
    lint_crate_analyses(crate_name, &analyses, &mut diags);
    diags
}

fn lint_crate_analyses(crate_name: &str, analyses: &[FileAnalysis], diags: &mut Vec<Diagnostic>) {
    let model = MODEL_CRATES.contains(&crate_name);

    // Pass 1: identifiers declared as hash maps anywhere in the crate.
    let mut map_idents: Vec<&str> = Vec::new();
    if model {
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
    }

    // Pass 2: per-token checks.
    for fa in analyses {
        fa.bare_allow_diags(diags);
        let hot = model && is_hot_path(&fa.path);
        let toks = &fa.toks;
        // Token ranges of `impl GpuLane { ... }` bodies in this file: the
        // scope of `cross-domain-mutation`. Lane handlers run concurrently
        // inside an epoch, so any reach into sibling-lane or host state
        // there races (or would deadlock through the lane mutexes).
        let lane_impls: Vec<(usize, usize)> = if model {
            let mut ranges = Vec::new();
            for (i, t) in toks.iter().enumerate() {
                if t.kind == TokKind::Ident
                    && t.text == "impl"
                    && toks
                        .get(i + 1)
                        .is_some_and(|n| n.kind == TokKind::Ident && n.text == "GpuLane")
                    && toks.get(i + 2).is_some_and(|n| n.text == "{")
                {
                    if let Some(close) = matching_close(toks, i + 2) {
                        ranges.push((i + 2, close));
                    }
                }
            }
            ranges
        } else {
            Vec::new()
        };
        for i in 0..toks.len() {
            let t = &toks[i];
            let mut push = |rule: Rule, at: &Tok, message: String| {
                if !fa.allowed(rule, at.line) {
                    diags.push(Diagnostic {
                        rule,
                        path: fa.path.clone(),
                        line: at.line,
                        col: at.col,
                        len: at.len,
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
                    if model && (word == "HashMap" || word == "HashSet") {
                        push(
                            Rule::DefaultHasherMap,
                            t,
                            format!(
                                "entropy-seeded `{word}` in model crate; use `sim_engine::collections::Det{word}` or `BTreeMap`"
                            ),
                        );
                    }
                    if word == "SystemTime"
                        || (word == "Instant"
                            && next_is(1, "::")
                            && toks.get(i + 2).is_some_and(|n| n.text == "now"))
                    {
                        let pat = if word == "SystemTime" {
                            "SystemTime"
                        } else {
                            "Instant::now"
                        };
                        push(
                            Rule::WallClock,
                            t,
                            format!("wall-clock `{pat}` outside bench; simulated time must come from `Cycle`"),
                        );
                    }
                    if RNG_IDENTS.contains(&word) || (word == "rand" && next_is(1, "::")) {
                        let pat = if word == "rand" { "rand::" } else { word };
                        push(
                            Rule::AmbientRng,
                            t,
                            format!(
                                "ambient randomness `{pat}`; all randomness must flow through `DetRng`"
                            ),
                        );
                    }
                    if ORDERED_CONTAINERS.contains(&word) && next_is(1, "<") {
                        let mut j = i + 2;
                        while toks.get(j).is_some_and(|n| {
                            n.kind == TokKind::Lifetime
                                || (n.kind == TokKind::Punct && (n.text == "(" || n.text == "&"))
                                || (n.kind == TokKind::Ident && n.text == "mut")
                        }) {
                            j += 1;
                        }
                        if toks
                            .get(j)
                            .is_some_and(|n| n.text == "f32" || n.text == "f64")
                        {
                            push(
                                Rule::FloatOrdKey,
                                t,
                                format!("float key in `{word}`; floats are not totally ordered"),
                            );
                        }
                    }
                    if model
                        && map_idents.contains(&word)
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
                    if model && word == "as" && i > 0 {
                        if let Some(target) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                            let tt = target.text.as_str();
                            if NARROW_TARGETS.contains(&tt) {
                                push(
                                    Rule::LossyCast,
                                    t,
                                    format!(
                                        "`as {tt}` can truncate 64-bit cycle/address/page arithmetic; use `try_from` or prove the bound in an allow reason"
                                    ),
                                );
                            } else if INT_TARGETS.contains(&tt) {
                                let prev = &toks[i - 1];
                                let float_src = (prev.kind == TokKind::Ident
                                    && (prev.text == "f32" || prev.text == "f64"))
                                    || is_float_literal(prev)
                                    || (prev.text == ")" && group_is_floaty(toks, i - 1));
                                if float_src {
                                    push(
                                        Rule::LossyCast,
                                        t,
                                        format!(
                                            "float→`{tt}` cast truncates; round explicitly and prove the range, or keep the value in cycles"
                                        ),
                                    );
                                }
                            }
                        }
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

/// Committed waivers for grandfathered sites, keyed by `(rule, path)`.
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    entries: Vec<(Rule, String, String)>,
}

impl Baseline {
    /// Parses the baseline file format: one `<rule-id> <path> — <reason>`
    /// per line, `#` comments and blanks ignored.
    ///
    /// # Errors
    /// Returns a line-numbered message for an unknown rule id, a missing
    /// path, or a missing reason.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut entries = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, char::is_whitespace);
            let rule = parts.next().unwrap_or_default();
            let path = parts.next().unwrap_or_default();
            let reason = parts
                .next()
                .unwrap_or_default()
                .trim_matches([' ', '—', '–', '-', ':'].as_slice());
            let rule = Rule::from_id(rule)
                .ok_or_else(|| format!("baseline line {}: unknown rule `{rule}`", i + 1))?;
            if path.is_empty() {
                return Err(format!("baseline line {}: missing path", i + 1));
            }
            if reason.is_empty() {
                return Err(format!(
                    "baseline line {}: missing reason (format: <rule> <path> — <reason>)",
                    i + 1
                ));
            }
            entries.push((rule, path.to_string(), reason.to_string()));
        }
        Ok(Baseline { entries })
    }

    /// Whether a diagnostic is grandfathered.
    #[must_use]
    pub fn suppresses(&self, d: &Diagnostic) -> bool {
        self.entries
            .iter()
            .any(|(rule, path, _)| *rule == d.rule && *path == d.path)
    }

    /// Entries that no longer suppress anything: the baseline must only
    /// shrink, so these are reported (and fail the run under `--strict`).
    #[must_use]
    pub fn stale_entries(&self, diags: &[Diagnostic]) -> Vec<(Rule, String)> {
        self.entries
            .iter()
            .filter(|(rule, path, _)| !diags.iter().any(|d| d.rule == *rule && d.path == *path))
            .map(|(rule, path, _)| (*rule, path.clone()))
            .collect()
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the baseline is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Renders a baseline covering `diags`, one entry per `(rule, path)`.
    #[must_use]
    pub fn render(diags: &[Diagnostic]) -> String {
        Baseline::default().render_updated(diags)
    }

    /// Renders a refreshed baseline covering `diags`: one entry per
    /// `(rule, path)`, sorted byte-stably by `(rule id, path)`. Reasons
    /// already recorded in `self` are carried over; new entries get a TODO
    /// placeholder. Entries of `self` that no longer fire — including files
    /// that no longer exist — are pruned, so the file only shrinks or
    /// documents genuinely current findings.
    #[must_use]
    pub fn render_updated(&self, diags: &[Diagnostic]) -> String {
        let mut out = String::from(
            "# simlint baseline — grandfathered findings, one `<rule-id> <path> — <reason>` per line.\n\
             # Remove entries as sites are migrated; never add one without a reason.\n",
        );
        let mut keys: Vec<(&'static str, &str)> = diags
            .iter()
            .filter(|d| d.rule.severity() == Severity::Error)
            .map(|d| (d.rule.id(), d.path.as_str()))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        for (rule_id, path) in keys {
            let reason = self
                .entries
                .iter()
                .find(|(r, p, _)| r.id() == rule_id && p == path)
                .map_or("TODO: justify or migrate", |(_, _, reason)| reason.as_str());
            out.push_str(rule_id);
            out.push(' ');
            out.push_str(path);
            out.push_str(" — ");
            out.push_str(reason);
            out.push('\n');
        }
        out
    }
}

/// Result of a workspace scan.
#[derive(Debug)]
pub struct ScanReport {
    /// All findings, sorted by `(path, line, col, rule)`.
    pub diagnostics: Vec<Diagnostic>,
    /// `stale-allow` findings — inline escapes that suppressed nothing this
    /// run, sorted like `diagnostics`. Kept separate so the default mode
    /// stays byte-identical; `--check-allows` merges them in.
    pub stale_allows: Vec<Diagnostic>,
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

/// Per-crate source listing: `(crate name, [(rel path, source)])`.
type CrateSources = Vec<(String, Vec<(String, String)>)>;

/// Reads the lintable workspace sources.
fn workspace_sources(root: &Path) -> io::Result<CrateSources> {
    let mut targets: Vec<(String, PathBuf)> = Vec::new();
    if root.join("src").is_dir() {
        targets.push(("idyll".to_string(), root.join("src")));
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for dir in dirs {
            let name = dir
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_string();
            if EXEMPT_CRATES.contains(&name.as_str()) {
                continue;
            }
            let src = dir.join("src");
            if src.is_dir() {
                targets.push((name, src));
            }
        }
    }
    let mut out = Vec::new();
    for (name, src) in targets {
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
        out.push((name, files));
    }
    Ok(out)
}

/// Scans a workspace rooted at `root`: the root package's `src/` (as crate
/// `idyll`) plus every `crates/<name>/src/` with `<name>` not exempt, then
/// the workspace graph tier over the model crates.
///
/// # Errors
/// Propagates I/O failures reading the workspace tree.
pub fn lint_workspace(root: &Path) -> io::Result<ScanReport> {
    let sources = workspace_sources(root)?;
    let mut diagnostics = Vec::new();
    let mut files_scanned = 0;
    let crates_scanned = sources.len();
    let mut all_files: Vec<FileAnalysis> = Vec::new();
    let mut model_idx: Vec<usize> = Vec::new();
    for (name, files) in &sources {
        files_scanned += files.len();
        let analyses: Vec<FileAnalysis> = files
            .iter()
            .map(|(p, s)| FileAnalysis::new(p.clone(), s))
            .collect();
        lint_crate_analyses(name, &analyses, &mut diagnostics);
        if MODEL_CRATES.contains(&name.as_str()) {
            model_idx.extend(all_files.len()..all_files.len() + analyses.len());
        }
        all_files.extend(analyses);
    }

    // Workspace graph pass over the model crates: one symbol index + call
    // graph built from the already-lexed token streams (no file is re-read
    // or re-lexed), one effect-inference fixpoint over it, then the
    // hot-path / lane-race / shared-mutability / dead-event families.
    let model_files: Vec<&FileAnalysis> = model_idx.iter().map(|&i| &all_files[i]).collect();
    let symbols = graph::SymbolGraph::build(&model_files);
    let fx = effects::infer(&symbols, &model_files);
    rules_graph::check(&symbols, &fx, &model_files, &mut diagnostics);

    diagnostics.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });

    // Stale-allow detection must run last: only after every rule family has
    // consulted `allowed()` do the usage marks cover the whole run.
    let mut stale_allows = Vec::new();
    for fa in &all_files {
        fa.stale_allow_diags(&mut stale_allows);
    }
    stale_allows.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });

    Ok(ScanReport {
        diagnostics,
        stale_allows,
        files_scanned,
        crates_scanned,
    })
}

/// Builds the byte-stable `--effects` dump for the workspace at `root`:
/// every model-crate function's direct and summary effect sets as JSON.
///
/// # Errors
/// Propagates I/O failures reading the workspace tree.
pub fn render_effects_for(root: &Path) -> io::Result<String> {
    let sources = workspace_sources(root)?;
    let mut model_files: Vec<FileAnalysis> = Vec::new();
    for (name, files) in &sources {
        if MODEL_CRATES.contains(&name.as_str()) {
            model_files.extend(files.iter().map(|(p, s)| FileAnalysis::new(p.clone(), s)));
        }
    }
    let refs: Vec<&FileAnalysis> = model_files.iter().collect();
    let symbols = graph::SymbolGraph::build(&refs);
    let fx = effects::infer(&symbols, &refs);
    Ok(effects::render_effects_json(&symbols, &fx))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crate_of(name: &str, src: &str) -> Vec<Diagnostic> {
        lint_crate(
            name,
            &[("crates/x/src/lib.rs".to_string(), src.to_string())],
        )
    }

    fn hot_of(src: &str) -> Vec<Diagnostic> {
        lint_crate(
            "mgpu-system",
            &[(
                "crates/mgpu-system/src/system/translate.rs".to_string(),
                src.to_string(),
            )],
        )
    }

    #[test]
    fn flags_default_hasher_in_model_crates_only() {
        let src = "use std::collections::HashMap;\n";
        let d = crate_of("mgpu-system", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, Rule::DefaultHasherMap);
        assert_eq!(d[0].line, 1);
        assert!(d[0].col > 1);
        assert!(crate_of("some-tool", src).is_empty());
    }

    #[test]
    fn det_aliases_do_not_trip_the_word_boundary() {
        let src = "use sim_engine::collections::{DetHashMap, DetHashSet};\n\
                   struct S { m: DetHashMap<u64, u64> }\n";
        assert!(crate_of("mgpu-system", src).is_empty());
    }

    #[test]
    fn flags_wall_clock_and_rng_everywhere() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n\
                   fn g() -> u64 { rand::random() }\n\
                   fn h() { let _ = std::time::SystemTime::UNIX_EPOCH; }\n";
        let d = crate_of("some-tool", src);
        assert_eq!(d.len(), 3);
        assert_eq!(d[0].rule, Rule::WallClock);
        assert_eq!(d[1].rule, Rule::AmbientRng);
        assert_eq!(d[2].rule, Rule::WallClock);
        // `operand::x` must not trip the `rand::` pattern.
        assert!(crate_of("some-tool", "use operand::x;\n").is_empty());
    }

    #[test]
    fn multi_line_constructs_no_longer_slip_through() {
        // The v1 line-scanner missed all of these.
        let src = "fn f() { let t = std::time::Instant::\n\
                   now(); }\n\
                   struct Q { q: std::collections::BinaryHeap<\n\
                   f64> }\n";
        let d = crate_of("some-tool", src);
        assert!(d.iter().any(|d| d.rule == Rule::WallClock && d.line == 1));
        assert!(d.iter().any(|d| d.rule == Rule::FloatOrdKey && d.line == 3));
    }

    #[test]
    fn strings_and_comments_cannot_trip_rules() {
        let src = "// HashMap is banned here, Instant::now too\n\
                   /* rand::random() in a block comment\n\
                      spanning lines with HashMap */\n\
                   fn f() -> &'static str { \"HashMap Instant::now rand::\" }\n\
                   fn g() -> &'static str { r#\"SystemTime fastrand\"# }\n";
        assert!(crate_of("mgpu-system", src).is_empty());
    }

    #[test]
    fn flags_float_ordering_keys() {
        let src = "use std::collections::BinaryHeap;\n\
                   struct Q { q: BinaryHeap<f64>, m: std::collections::BTreeMap<f32, u32> }\n\
                   struct R { q: BinaryHeap<(f64, u64)> }\n\
                   struct Ok { q: BinaryHeap<u64> }\n";
        let d = crate_of("some-tool", src);
        assert_eq!(d.iter().filter(|d| d.rule == Rule::FloatOrdKey).count(), 3);
    }

    #[test]
    fn flags_unordered_iteration_cross_file() {
        let files = vec![
            (
                "crates/x/src/state.rs".to_string(),
                "pub struct S { pub(crate) reqs: HashMap<u64, u32> }\n".to_string(),
            ),
            (
                "crates/x/src/dump.rs".to_string(),
                "fn f(s: &super::S) { for (k, v) in s.reqs.iter() { drop((k, v)); } }\n\
                 fn g(s: &super::S) -> usize { s.reqs.len() }\n"
                    .to_string(),
            ),
        ];
        let d = lint_crate("mgpu-system", &files);
        let iters: Vec<_> = d.iter().filter(|d| d.rule == Rule::UnorderedIter).collect();
        assert_eq!(iters.len(), 1);
        assert_eq!(iters[0].path, "crates/x/src/dump.rs");
        assert_eq!(iters[0].line, 1);
    }

    #[test]
    fn tracks_det_map_declarations_for_unordered_iter() {
        let src = "struct S { m: DetHashMap<u64, u64> }\n\
                   fn f(s: &S) { for k in s.m.keys() { drop(k); } }\n";
        let d = crate_of("mgpu-system", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, Rule::UnorderedIter);
    }

    #[test]
    fn flags_narrowing_casts_in_model_crates_only() {
        let src = "fn f(x: u64) -> u32 { x as u32 }\n\
                   fn g(x: u64) -> u64 { x as u64 }\n\
                   fn h(x: usize) -> u16 { x as u16 }\n";
        let d = crate_of("mgpu-system", src);
        assert_eq!(d.iter().filter(|d| d.rule == Rule::LossyCast).count(), 2);
        assert!(crate_of("some-tool", src).is_empty());
    }

    #[test]
    fn flags_float_to_int_casts() {
        let src = "fn f(a: u64, ps: f64) -> u64 { ((a as f64 * ps) as u64).max(64) }\n\
                   fn g(q: f64, t: u64) -> u64 { (q * t as f64).ceil() as u64 }\n\
                   fn h(x: f64) -> u64 { x as f64 as u64 }\n\
                   fn ok(x: u32) -> u64 { x as u64 }\n";
        let d = crate_of("mgpu-system", src);
        let lines: Vec<usize> = d
            .iter()
            .filter(|d| d.rule == Rule::LossyCast)
            .map(|d| d.line)
            .collect();
        assert_eq!(lines, vec![1, 2, 3], "{d:?}");
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
        assert!(crate_of("mgpu-system", src)
            .iter()
            .all(|d| d.rule != Rule::HotPathPanic));
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
        let src =
            "use std::collections::HashMap; // simlint: allow(default-hasher-map) — test fixture\n\
                   // simlint: allow(wall-clock) — harness timing only\n\
                   fn f() { let t = std::time::Instant::now(); }\n";
        assert!(crate_of("mgpu-system", src).is_empty());
    }

    #[test]
    fn allow_does_not_leak_past_one_line() {
        let src = "// simlint: allow(wall-clock) — only the next line\n\
                   fn ok() { let t = std::time::Instant::now(); }\n\
                   fn bad() { let t = std::time::Instant::now(); }\n";
        let d = crate_of("mgpu-system", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn bare_or_unknown_allow_is_reported() {
        let src = "// simlint: allow(wall-clock)\n\
                   fn f() { let t = std::time::Instant::now(); }\n\
                   // simlint: allow(no-such-rule) — whatever\n\
                   fn g() {}\n";
        let d = crate_of("some-tool", src);
        assert!(d
            .iter()
            .any(|d| d.rule == Rule::BareAllow && d.message.contains("without a reason")));
        assert!(d
            .iter()
            .any(|d| d.rule == Rule::BareAllow && d.message.contains("no-such-rule")));
        // The reason-less allow still waives the wall-clock finding.
        assert!(!d.iter().any(|d| d.rule == Rule::WallClock));
    }

    #[test]
    fn cfg_test_stops_the_scan() {
        let src = "fn real() {}\n\
                   #[cfg(test)]\n\
                   mod tests { use std::collections::HashMap; }\n";
        assert!(crate_of("mgpu-system", src).is_empty());
        // `#[cfg(not(test))]` must not stop it.
        let src2 = "#[cfg(not(test))]\n\
                    mod real { use std::collections::HashMap; }\n";
        assert_eq!(crate_of("mgpu-system", src2).len(), 1);
    }

    #[test]
    fn baseline_roundtrip_suppression_and_staleness() {
        let d = Diagnostic {
            rule: Rule::DefaultHasherMap,
            path: "crates/x/src/lib.rs".into(),
            line: 3,
            col: 1,
            len: 7,
            message: String::new(),
        };
        let text = Baseline::render(std::slice::from_ref(&d));
        let parsed = Baseline::parse(&text).unwrap();
        assert_eq!(parsed.len(), 1);
        assert!(parsed.suppresses(&d));
        let other = Diagnostic {
            path: "crates/y/src/lib.rs".into(),
            ..d.clone()
        };
        assert!(!parsed.suppresses(&other));
        assert!(parsed.stale_entries(std::slice::from_ref(&d)).is_empty());
        let stale = parsed.stale_entries(&[other]);
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].0, Rule::DefaultHasherMap);
    }

    #[test]
    fn baseline_rejects_junk() {
        assert!(Baseline::parse("no-such-rule a/b.rs — x\n").is_err());
        assert!(Baseline::parse("wall-clock\n").is_err());
        assert!(Baseline::parse("wall-clock a/b.rs\n").is_err());
        assert!(Baseline::parse("# comment\n\nwall-clock a/b.rs — ok\n").is_ok());
    }

    #[test]
    fn rule_ids_roundtrip() {
        for r in Rule::ALL {
            assert_eq!(Rule::from_id(r.id()), Some(r));
            assert!(!r.summary().is_empty());
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
        let d = crate_of("mgpu-system", src);
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
    fn cross_domain_rule_scoped_to_lane_impls_and_model_crates() {
        // The same reach is the host's job: HostState owns the barrier.
        let host = "impl HostState {\n\
                    \x20   fn ok(&mut self, lanes: &[Mutex<GpuLane>]) {\n\
                    \x20       lock_lane(lanes, 0).q.schedule(at, ev);\n\
                    \x20   }\n\
                    }\n";
        assert!(crate_of("mgpu-system", host)
            .iter()
            .all(|d| d.rule != Rule::CrossDomainMutation));
        // Methods after the impl's closing brace are out of scope.
        let after = "impl GpuLane {\n\
                     \x20   fn own(&mut self) { self.q.pop(); }\n\
                     }\n\
                     fn free(lanes: &[Mutex<GpuLane>]) { lock_lane(lanes, 0); }\n";
        assert!(crate_of("mgpu-system", after)
            .iter()
            .all(|d| d.rule != Rule::CrossDomainMutation));
        // Non-model crates never run the rule.
        let bad = "impl GpuLane { fn f(lanes: &L) { write_host(lanes) } }\n";
        assert!(crate_of("some-tool", bad).is_empty());
    }

    #[test]
    fn cross_domain_rule_honors_inline_allow() {
        let src = "impl GpuLane {\n\
                   \x20   fn audited(&mut self, host: &RwLock<HostState>) {\n\
                   \x20       // simlint: allow(cross-domain-mutation) — read-only snapshot taken at epoch open\n\
                   \x20       let h = read_host(host);\n\
                   \x20   }\n\
                   }\n";
        assert!(crate_of("mgpu-system", src)
            .iter()
            .all(|d| d.rule != Rule::CrossDomainMutation));
    }
}
