//! The call-graph rule families: `hot-path-alloc`, `io-in-sim-loop`, the
//! interprocedural half of `hot-path-panic`, `lane-race`,
//! `shared-mutability` and `dead-event`.
//!
//! All of them run over the [`SymbolGraph`](crate::graph::SymbolGraph)
//! built from the model crates' already-lexed token streams — no file is
//! re-read or re-lexed here — and the effect-site rules consume the
//! [`effects`](crate::effects) fixpoint summaries computed over that graph.
//! See DESIGN.md §9 for the conservatism contract.

use crate::effects::{EffectSet, Effects, SiteKind};
use crate::graph::SymbolGraph;
use crate::lexer::{Tok, TokKind};
use crate::{is_hot_path, matching_close, Diagnostic, FileAnalysis, Rule, LANE_CROSSING_IDENTS};
use std::collections::BTreeMap;

/// Interior-mutability and synchronization cell types. Introducing any of
/// these in a model crate outside [`SYNC_SANCTIONED`] is `shared-mutability`;
/// *reaching* one from a GPU-lane handler is `lane-race`.
pub const CELL_TYPES: &[&str] = &[
    "AtomicBool",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicI8",
    "AtomicIsize",
    "AtomicPtr",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicU8",
    "AtomicUsize",
    "Cell",
    "LazyLock",
    "Mutex",
    "OnceCell",
    "OnceLock",
    "RefCell",
    "RwLock",
    "UnsafeCell",
];

/// Lazy-global macro/crate idents: the moral equivalent of a mutable static.
pub const LAZY_GLOBAL_IDENTS: &[&str] = &["lazy_static", "once_cell"];

/// Methods that open an interior-mutability cell. `.load`/`.store` are
/// deliberately absent — too many innocent methods share those names; the
/// atomic *types* above catch the declarations instead.
pub(crate) const CELL_OPEN_METHODS: &[&str] = &[
    "borrow",
    "borrow_mut",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_and",
    "fetch_or",
    "fetch_sub",
    "lock",
];

/// Workspace-relative path prefixes of the synchronization layer itself:
/// the modules that *own* the lane mutexes, the host RwLock, the epoch
/// atomics and the grid-runner work queue. `shared-mutability` is silent
/// here — this is where the cells are supposed to live (`lane-race` still
/// polices what lane handlers reach, sanctioned or not).
pub const SYNC_SANCTIONED: &[&str] = &[
    "crates/mgpu-system/src/runner.rs",
    "crates/mgpu-system/src/system/",
];

/// Event enums `dead-event` audits: every variant must be both constructed
/// somewhere and matched by some dispatch arm, or the schema has drifted.
pub const EVENT_ENUMS: &[&str] = &["Ev"];

/// The type whose `impl` bodies are GPU-phase roots.
const LANE_TYPE: &str = "GpuLane";

/// Runs every graph rule family over the model-crate files. `files` must be
/// exactly the slice the graph (and `effects`) was built from — indices are
/// shared. Respects inline allows via each file's [`FileAnalysis`].
pub fn check(
    graph: &SymbolGraph,
    effects: &Effects,
    files: &[&FileAnalysis],
    diags: &mut Vec<Diagnostic>,
) {
    lane_race(graph, effects, files, diags);
    hot_path_effects(graph, effects, files, diags);
    shared_mutability(graph, files, diags);
    dead_event(files, diags);
}

/// `lane-race`: any function transitively reachable from a GPU-lane handler
/// whose summary carries a cross-domain-write effect — it names crossing
/// state (`lanes`/`lock_lane`/`read_host`/`write_host`), a model-crate
/// `static`, or an interior-mutability cell. The direct sites come from the
/// effect inference pass (one body scan shared by every rule). Sites
/// *inside* `impl GpuLane` bodies are left to the token-level
/// `cross-domain-mutation` rule — its intra-impl fast path — so each site
/// is reported exactly once.
fn lane_race(
    graph: &SymbolGraph,
    effects: &Effects,
    files: &[&FileAnalysis],
    diags: &mut Vec<Diagnostic>,
) {
    let roots = graph.fns_of_type(LANE_TYPE);
    if roots.is_empty() {
        return;
    }
    let reach = graph.reachable_from(&roots);
    for &f in reach.keys() {
        let def = &graph.fns[f];
        // The crossing primitives themselves are the audited boundary; the
        // finding belongs at their call sites, not inside their bodies.
        if LANE_CROSSING_IDENTS.contains(&def.name.as_str()) {
            continue;
        }
        if !effects.direct[f].contains(EffectSet::CROSS_DOMAIN_WRITE) {
            continue;
        }
        let fa = files[def.file];
        let lane_impls = graph.impl_ranges_of(def.file, LANE_TYPE);
        let root = graph.root_of(&reach, f);
        let via = if root == f {
            String::new()
        } else {
            format!(
                " (reachable from GPU-lane handler `{}`)",
                graph.fns[root].qualified()
            )
        };
        for site in &effects.sites[f] {
            if site.effect != EffectSet::CROSS_DOMAIN_WRITE {
                continue;
            }
            // Sites inside `impl GpuLane` bodies are `cross-domain-mutation`
            // territory (the intra-impl fast path, with its own audited
            // allows); lane-race owns everything the handlers *reach*.
            if lane_impls
                .iter()
                .any(|&(open, close)| site.tok > open && site.tok < close)
            {
                continue;
            }
            let what = site.what.as_str();
            let message = match site.kind {
                SiteKind::Ident => format!(
                    "`{what}` in `{}`{via} reaches across event-lane domains during the GPU \
                     phase; route the effect through the outbox mailbox instead",
                    def.qualified()
                ),
                SiteKind::StaticTouch => format!(
                    "static `{what}` touched in `{}`{via}; lane handlers run concurrently — \
                     shared globals race or serialize the epoch",
                    def.qualified()
                ),
                SiteKind::CellType => format!(
                    "interior-mutability cell `{what}` in `{}`{via}; GPU-phase code must own \
                     its state exclusively — shared cells break conservative-window race freedom",
                    def.qualified()
                ),
                SiteKind::MethodCall => format!(
                    "`{what}` in `{}`{via} opens a shared cell during the GPU phase; \
                     lane state must be lock-free within an epoch",
                    def.qualified()
                ),
                _ => continue,
            };
            if !fa.allowed(Rule::LaneRace, site.line) {
                diags.push(Diagnostic {
                    rule: Rule::LaneRace,
                    path: fa.path.clone(),
                    line: site.line,
                    message,
                });
            }
        }
    }
}

/// The `hot-path-alloc` / `io-in-sim-loop` / interprocedural
/// `hot-path-panic` family: walks everything reachable from the GPU-lane
/// handlers and the `Ev` dispatch arms, and reports the direct effect sites
/// the summaries lead to — the witness chain names the root and the
/// effectful callee. Allocation and IO sites behind an observability gate
/// (`if …is_enabled()…`) are exempt: the default path is effect-free.
/// Panic sites are *not* exempt (a gated panic still aborts the grid when
/// tracing is on), but sites in [`crate::HOT_PATHS`] files stay the token
/// tier's territory so nothing is reported twice.
fn hot_path_effects(
    graph: &SymbolGraph,
    effects: &Effects,
    files: &[&FileAnalysis],
    diags: &mut Vec<Diagnostic>,
) {
    let mut roots = graph.fns_of_type(LANE_TYPE);
    roots.extend(dispatch_roots(graph, files));
    roots.sort_unstable();
    roots.dedup();
    if roots.is_empty() {
        return;
    }
    let reach = graph.reachable_from(&roots);
    for &f in reach.keys() {
        let def = &graph.fns[f];
        let fa = files[def.file];
        let root = graph.root_of(&reach, f);
        let root_def = &graph.fns[root];
        let root_desc = if root_def.impl_type.as_deref() == Some(LANE_TYPE) {
            format!("GPU-lane handler `{}`", root_def.qualified())
        } else {
            format!("event dispatch in `{}`", root_def.qualified())
        };
        let via = if root == f {
            String::new()
        } else {
            format!(" (reachable from {root_desc})")
        };
        for site in &effects.sites[f] {
            let what = site.what.as_str();
            let (rule, message) = if site.effect == EffectSet::ALLOCATES && !site.gated {
                (
                    Rule::HotPathAlloc,
                    format!(
                        "`{what}` allocates in `{}`{via}; the per-event path must stay \
                         allocation-free — reuse a pooled or arena buffer, or iterate \
                         without collecting",
                        def.qualified()
                    ),
                )
            } else if (site.effect == EffectSet::DOES_IO
                || site.effect == EffectSet::READS_WALL_CLOCK)
                && !site.gated
            {
                let noun = if site.effect == EffectSet::DOES_IO {
                    "performs IO"
                } else {
                    "reads the wall clock"
                };
                (
                    Rule::IoInSimLoop,
                    format!(
                        "`{what}` {noun} in `{}`{via}; the sim loop must not touch the \
                         outside world — gate it behind an observability flag or buffer \
                         it for the host phase",
                        def.qualified()
                    ),
                )
            } else if site.effect == EffectSet::MAY_PANIC && !is_hot_path(&fa.path) {
                (
                    Rule::HotPathPanic,
                    format!(
                        "`{what}` in `{}`{via} can panic on the event path, so one bad \
                         cell aborts the whole figure grid; return a typed `SimError` instead",
                        def.qualified()
                    ),
                )
            } else {
                continue;
            };
            if !fa.allowed(rule, site.line) {
                diags.push(Diagnostic {
                    rule,
                    path: fa.path.clone(),
                    line: site.line,
                    message,
                });
            }
        }
    }
}

/// Fn indices whose bodies contain a dispatch-classified use of an audited
/// event enum (`match ev { Ev::X {..} => … }`): the `Ev` dispatch arms that,
/// together with the `impl GpuLane` handlers, root the hot-path rules.
fn dispatch_roots(graph: &SymbolGraph, files: &[&FileAnalysis]) -> Vec<usize> {
    let mut out = Vec::new();
    for (f, def) in graph.fns.iter().enumerate() {
        let Some((start, end)) = def.span else {
            continue;
        };
        let toks = &files[def.file].toks;
        let end = end.min(toks.len().saturating_sub(1));
        for i in start..=end {
            if toks[i].kind == TokKind::Ident
                && EVENT_ENUMS.contains(&toks[i].text.as_str())
                && toks.get(i + 1).is_some_and(|n| n.text == "::")
                && toks.get(i + 2).is_some_and(|n| n.kind == TokKind::Ident)
                && classify_use(toks, i + 2) == UseKind::Dispatch
            {
                out.push(f);
                break;
            }
        }
    }
    out
}

/// Whether the ident at `i` is the *name* in a `static NAME:` declaration
/// (the declaration itself is `shared-mutability`'s business, not a touch).
pub(crate) fn is_decl_position(toks: &[Tok], i: usize) -> bool {
    let prev = |off: usize| i.checked_sub(off).map(|p| toks[p].text.as_str());
    matches!(prev(1), Some("static"))
        || (matches!(prev(1), Some("mut")) && matches!(prev(2), Some("static")))
}

/// `shared-mutability`: introduction of `static mut`, lazy-global machinery,
/// a `static` with a cell type, or any interior-mutability cell in a model
/// crate outside the sanctioned synchronization layer.
fn shared_mutability(graph: &SymbolGraph, files: &[&FileAnalysis], diags: &mut Vec<Diagnostic>) {
    for s in &graph.statics {
        let fa = files
            .iter()
            .find(|f| f.path == s.path)
            .expect("static indexed from these files");
        let (message, line) = if s.is_mut {
            (
                format!(
                    "`static mut {}` is unsynchronized shared mutability; thread state through \
                     the lanes or the host phase",
                    s.name
                ),
                s.line,
            )
        } else if s
            .type_idents
            .iter()
            .any(|t| CELL_TYPES.contains(&t.as_str()))
        {
            (
                format!(
                    "static `{}` wraps an interior-mutability cell — a hidden global; \
                     determinism requires all mutable state to live in the System",
                    s.name
                ),
                s.line,
            )
        } else {
            continue;
        };
        if !fa.allowed(Rule::SharedMutability, line) {
            diags.push(Diagnostic {
                rule: Rule::SharedMutability,
                path: s.path.clone(),
                line,
                message,
            });
        }
    }
    for fa in files {
        let sanctioned = SYNC_SANCTIONED.iter().any(|p| fa.path.starts_with(p));
        for t in &fa.toks {
            if t.kind != TokKind::Ident {
                continue;
            }
            let word = t.text.as_str();
            let message = if LAZY_GLOBAL_IDENTS.contains(&word) {
                format!(
                    "`{word}` introduces a lazily initialized global; model state must be \
                     constructed in and owned by the System"
                )
            } else if !sanctioned && CELL_TYPES.contains(&word) {
                format!(
                    "interior-mutability cell `{word}` outside the sanctioned sync layer \
                     ({}); share by message passing, not shared state",
                    SYNC_SANCTIONED.join(", ")
                )
            } else {
                continue;
            };
            if !fa.allowed(Rule::SharedMutability, t.line) {
                diags.push(Diagnostic {
                    rule: Rule::SharedMutability,
                    path: fa.path.clone(),
                    line: t.line,
                    message,
                });
            }
        }
    }
}

/// How one `Enum::Variant` mention is used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UseKind {
    /// Value position: the variant is built.
    Construct,
    /// Pattern position (`match` arm, or-pattern, `let`/`if let` binding).
    Dispatch,
}

/// Per-variant declaration site and use counts.
struct VariantInfo {
    path: String,
    line: usize,
    constructed: usize,
    dispatched: usize,
}

/// `dead-event`: every variant of an audited event enum must be both
/// constructed somewhere and matched by a dispatch arm somewhere; a one-
/// sided variant is schema drift (an event nobody handles, or a handler for
/// an event nobody sends).
fn dead_event(files: &[&FileAnalysis], diags: &mut Vec<Diagnostic>) {
    for &enum_name in EVENT_ENUMS {
        // Pass 1: the declaration. Multiple declarations of the same name
        // would merge; the audited list is curated to avoid that.
        let mut variants: BTreeMap<String, VariantInfo> = BTreeMap::new();
        let mut decl_file: Option<usize> = None;
        for (fi, fa) in files.iter().enumerate() {
            if let Some(found) = find_enum_variants(&fa.toks, enum_name) {
                for (name, tok) in found {
                    variants.insert(
                        name,
                        VariantInfo {
                            path: fa.path.clone(),
                            line: tok.line,
                            constructed: 0,
                            dispatched: 0,
                        },
                    );
                }
                decl_file = Some(fi);
                break;
            }
        }
        if decl_file.is_none() {
            continue;
        }
        // Pass 2: classify every `Enum::Variant` mention workspace-wide.
        for fa in files {
            let toks = &fa.toks;
            for i in 0..toks.len() {
                if toks[i].kind != TokKind::Ident || toks[i].text != enum_name {
                    continue;
                }
                if toks.get(i + 1).is_none_or(|n| n.text != "::") {
                    continue;
                }
                let Some(var_tok) = toks.get(i + 2).filter(|n| n.kind == TokKind::Ident) else {
                    continue;
                };
                let Some(info) = variants.get_mut(&var_tok.text) else {
                    continue;
                };
                match classify_use(toks, i + 2) {
                    UseKind::Construct => info.constructed += 1,
                    UseKind::Dispatch => info.dispatched += 1,
                }
            }
        }
        for (name, info) in &variants {
            let missing = match (info.constructed, info.dispatched) {
                (0, 0) => "is never constructed and no dispatch arm matches it",
                (_, 0) => "is constructed but no dispatch arm matches it — the event is sent and silently dropped",
                (0, _) => "has dispatch arms but is never constructed — dead handler code",
                _ => continue,
            };
            let fa = files
                .iter()
                .find(|f| f.path == info.path)
                .expect("variant indexed from these files");
            if fa.allowed(Rule::DeadEvent, info.line) {
                continue;
            }
            diags.push(Diagnostic {
                rule: Rule::DeadEvent,
                path: info.path.clone(),
                line: info.line,
                message: format!(
                    "event variant `{enum_name}::{name}` {missing}; remove the variant or \
                     close the schema drift"
                ),
            });
        }
    }
}

/// Finds `enum <name> { ... }` and returns its variant name tokens.
fn find_enum_variants<'t>(toks: &'t [Tok], name: &str) -> Option<Vec<(String, &'t Tok)>> {
    let mut i = 0;
    while i < toks.len() {
        if toks[i].kind == TokKind::Ident
            && toks[i].text == "enum"
            && toks
                .get(i + 1)
                .is_some_and(|n| n.kind == TokKind::Ident && n.text == name)
        {
            // Body starts at the next `{` (generics would sit between, but
            // event enums are concrete).
            let mut j = i + 2;
            while toks.get(j).is_some_and(|t| t.text != "{") {
                j += 1;
            }
            let close = matching_close(toks, j)?;
            let mut out = Vec::new();
            let mut k = j + 1;
            while k < close {
                let t = &toks[k];
                if t.kind == TokKind::Ident {
                    out.push((t.text.clone(), t));
                    // Skip the payload and trailing discriminant to the
                    // next `,` at body depth.
                    if let Some(p) = toks.get(k + 1).filter(|p| p.text == "{" || p.text == "(") {
                        let _ = p;
                        if let Some(pc) = matching_close(toks, k + 1) {
                            k = pc;
                        }
                    }
                    while k < close && toks[k].text != "," {
                        k += 1;
                    }
                } else if t.text == "#" {
                    // Variant attribute `#[...]`.
                    if let Some(ac) = toks.get(k + 1).and_then(|_| matching_close(toks, k + 1)) {
                        k = ac;
                    }
                }
                k += 1;
            }
            return Some(out);
        }
        i += 1;
    }
    None
}

/// Classifies the `Enum::Variant` whose variant ident sits at `v`: skip the
/// payload group, then decide by what follows — `=>` or `|` is a match arm,
/// a lone `=` is a `let`/`if let` pattern, anything else is a construction.
fn classify_use(toks: &[Tok], v: usize) -> UseKind {
    let mut j = v + 1;
    if toks.get(j).is_some_and(|t| t.text == "{" || t.text == "(") {
        match matching_close(toks, j) {
            Some(c) => j = c + 1,
            None => return UseKind::Construct,
        }
    }
    match toks.get(j).map(|t| t.text.as_str()) {
        Some("=") => {
            let next = toks.get(j + 1).map(|t| t.text.as_str());
            if next == Some(">") {
                UseKind::Dispatch // `=>` arm (the lexer does not fuse it)
            } else if next == Some("=") {
                UseKind::Construct // `==` comparison builds the right side
            } else {
                UseKind::Dispatch // `let Enum::V { .. } = expr`
            }
        }
        Some("|") => {
            // Or-pattern arm — unless it is `||`, a logical-or expression.
            if toks.get(j + 1).is_some_and(|t| t.text == "|") {
                UseKind::Construct
            } else {
                UseKind::Dispatch
            }
        }
        _ => UseKind::Construct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SymbolGraph;

    fn run_rules(path: &str, src: &str) -> Vec<Diagnostic> {
        let fa = FileAnalysis::new(path.to_string(), src);
        let files = [&fa];
        let graph = SymbolGraph::build(&files);
        let fx = crate::effects::infer(&graph, &files);
        let mut diags = Vec::new();
        check(&graph, &fx, &files, &mut diags);
        diags
    }

    #[test]
    fn lane_race_reaches_through_helpers() {
        let src = "impl GpuLane { fn on_x(&mut self) { helper() } }\n\
                   fn helper() { deeper(&LANES) }\n\
                   fn deeper(lanes: &[Mutex<GpuLane>]) { lock_lane(lanes, 0); }\n\
                   fn unreachable_is_fine(lanes: &[Mutex<GpuLane>]) { lock_lane(lanes, 0); }\n";
        let d = run_rules("crates/x/src/lib.rs", src);
        let races: Vec<&Diagnostic> = d.iter().filter(|d| d.rule == Rule::LaneRace).collect();
        // `deeper` is flagged (lanes param, Mutex cell, lock_lane call, lanes
        // arg); `unreachable_is_fine` must not be.
        assert!(races.iter().all(|d| d.line == 3), "{races:?}");
        assert!(races.iter().any(|d| d.message.contains("lock_lane")));
        assert!(
            races.iter().any(|d| d.message.contains("GpuLane::on_x")),
            "{races:?}"
        );
    }

    #[test]
    fn lane_race_defers_in_impl_sites_to_cross_domain() {
        // Everything written inside an `impl GpuLane` body is the
        // token-level rule's territory; lane-race stays silent there and
        // owns only what the handlers reach *outside* the impl.
        let src = "impl GpuLane { fn bad(&mut self, lanes: &[Mutex<GpuLane>]) { lock_lane(lanes, 0); } }\n";
        let d = run_rules("crates/x/src/lib.rs", src);
        assert!(d.iter().all(|d| d.rule != Rule::LaneRace), "{d:?}");
    }

    #[test]
    fn lane_race_flags_cells_and_statics_and_honors_allows() {
        let src = "static HITS: AtomicU64 = AtomicU64::new(0);\n\
                   impl GpuLane { fn on_x(&self) { count() } fn ok(&self) { clean() } }\n\
                   fn count() { HITS.fetch_add(1, Relaxed); }\n\
                   fn clean() {\n\
                   \x20   // simlint: allow(lane-race) — audited: epoch-open snapshot only\n\
                   \x20   let _ = HITS.fetch_add(0, Relaxed);\n\
                   }\n";
        let d = run_rules("crates/x/src/lib.rs", src);
        let races: Vec<&Diagnostic> = d.iter().filter(|d| d.rule == Rule::LaneRace).collect();
        assert!(
            races
                .iter()
                .any(|d| d.line == 3 && d.message.contains("HITS")),
            "{races:?}"
        );
        assert!(
            races.iter().any(|d| d.message.contains("fetch_add")),
            "{races:?}"
        );
        assert!(
            races.iter().all(|d| d.line != 6),
            "allow must waive: {races:?}"
        );
    }

    #[test]
    fn shared_mutability_flags_globals_and_cells_outside_sanctioned() {
        let src = "static mut SCRATCH: u64 = 0;\n\
                   static TABLE: OnceLock<u64> = OnceLock::new();\n\
                   struct S { c: RefCell<u64> }\n";
        let d = run_rules("crates/vm-model/src/lib.rs", src);
        let sm: Vec<&Diagnostic> = d
            .iter()
            .filter(|d| d.rule == Rule::SharedMutability)
            .collect();
        assert!(
            sm.iter().any(|d| d.message.contains("static mut")),
            "{sm:?}"
        );
        assert!(
            sm.iter().any(|d| d.message.contains("hidden global")),
            "{sm:?}"
        );
        assert!(sm.iter().any(|d| d.message.contains("RefCell")), "{sm:?}");
        // The same cells inside the sanctioned sync layer are silent.
        let d = run_rules(
            "crates/mgpu-system/src/system/engine.rs",
            "struct E { m: Mutex<u64> }\n",
        );
        assert!(d.iter().all(|d| d.rule != Rule::SharedMutability), "{d:?}");
    }

    #[test]
    fn dead_event_flags_one_sided_variants() {
        let src = "enum Ev { Used { x: u64 }, Sent(u64), Handled, Ghost }\n\
                   fn send(q: &mut Vec<Ev>) { q.push(Ev::Used { x: 1 }); q.push(Ev::Sent(2)); }\n\
                   fn dispatch(e: &Ev) { match e { Ev::Used { x } => drop(x), Ev::Handled => {}, _ => {} } }\n";
        let d = run_rules("crates/x/src/lib.rs", src);
        let de: Vec<&Diagnostic> = d.iter().filter(|d| d.rule == Rule::DeadEvent).collect();
        let msgs: Vec<&str> = de.iter().map(|d| d.message.as_str()).collect();
        assert!(
            msgs.iter()
                .any(|m| m.contains("`Ev::Sent`") && m.contains("silently dropped")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter()
                .any(|m| m.contains("`Ev::Handled`") && m.contains("never constructed")),
            "{msgs:?}"
        );
        assert!(msgs.iter().any(|m| m.contains("`Ev::Ghost`")), "{msgs:?}");
        assert!(!msgs.iter().any(|m| m.contains("`Ev::Used`")), "{msgs:?}");
    }

    #[test]
    fn dead_event_pattern_shapes() {
        // Or-patterns, if-let, and == comparisons classify correctly.
        let src = "enum Ev { A, B, C }\n\
                   fn f(e: Ev) -> bool { matches_ab(&e) }\n\
                   fn matches_ab(e: &Ev) -> bool { match e { Ev::A | Ev::B => true, _ => false } }\n\
                   fn g(e: Ev) { if let Ev::C = e {} }\n\
                   fn mk() -> (Ev, Ev, Ev) { (Ev::A, Ev::B, Ev::C) }\n";
        let d = run_rules("crates/x/src/lib.rs", src);
        assert!(d.iter().all(|d| d.rule != Rule::DeadEvent), "{d:?}");
    }

    #[test]
    fn non_audited_enums_are_ignored() {
        let src = "enum Other { OnlyBuilt }\n\
                   fn f() -> Other { Other::OnlyBuilt }\n";
        let d = run_rules("crates/x/src/lib.rs", src);
        assert!(d.iter().all(|d| d.rule != Rule::DeadEvent));
    }
}
