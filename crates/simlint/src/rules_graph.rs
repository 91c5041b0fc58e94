//! The call-graph rule families: `lane-race` and `shared-mutability`.
//!
//! Both run over the [`SymbolGraph`](crate::graph::SymbolGraph) built from
//! the model crates' already-lexed token streams — no file is re-read or
//! re-lexed here. See DESIGN.md §9 for the conservatism contract.

use crate::graph::SymbolGraph;
use crate::lexer::{Tok, TokKind};
use crate::{Diagnostic, FileAnalysis, Rule, LANE_CROSSING_IDENTS};

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
const CELL_OPEN_METHODS: &[&str] = &[
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

/// The type whose `impl` bodies are GPU-phase roots.
const LANE_TYPE: &str = "GpuLane";

/// Runs both graph rule families over the model-crate files. `files` must
/// be exactly the slice the graph was built from — indices are shared.
pub fn check(graph: &SymbolGraph, files: &[&FileAnalysis], diags: &mut Vec<Diagnostic>) {
    lane_race(graph, files, diags);
    shared_mutability(graph, files, diags);
}

/// What kind of source construct touches cross-domain state, for phrasing
/// the `lane-race` diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SiteKind {
    /// A lane-crossing identifier (`lanes`, `lock_lane`, …).
    Ident,
    /// Use of a model-crate `static`.
    StaticTouch,
    /// An interior-mutability cell type name.
    CellType,
    /// A `.method(...)` call that opens a cell.
    MethodCall,
}

/// One cross-domain site inside a function body.
struct Site {
    kind: SiteKind,
    /// The matched construct, human-readable (`lock_lane`, `.borrow()`, …).
    what: String,
    /// Index of the trigger token in its file's code channel.
    tok: usize,
    /// 1-based source line of the trigger token.
    line: usize,
}

/// The cross-domain sites in fn `f`'s own body: lane-crossing identifiers,
/// touches of a workspace `static`, interior-mutability cell types and
/// cell-opening method calls.
fn cross_domain_sites(
    graph: &SymbolGraph,
    files: &[&FileAnalysis],
    f: usize,
    static_names: &[&str],
) -> Vec<Site> {
    let def = &graph.fns[f];
    let Some((start, end)) = def.span else {
        return Vec::new();
    };
    let toks = &files[def.file].toks;
    let end = end.min(toks.len().saturating_sub(1));
    let mut out = Vec::new();
    for i in start..=end {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let word = t.text.as_str();
        let mut push = |kind: SiteKind, what: String| {
            out.push(Site {
                kind,
                what,
                tok: i,
                line: t.line,
            });
        };
        let is_method_call = i > 0
            && toks[i - 1].kind == TokKind::Punct
            && toks[i - 1].text == "."
            && toks
                .get(i + 1)
                .is_some_and(|n| n.kind == TokKind::Punct && n.text == "(");
        if is_method_call && CELL_OPEN_METHODS.contains(&word) {
            push(SiteKind::MethodCall, format!(".{word}()"));
        }
        // Mutually exclusive, so one token never yields two identifier
        // sites.
        if LANE_CROSSING_IDENTS.contains(&word) {
            push(SiteKind::Ident, word.into());
        } else if static_names.contains(&word) && !is_decl_position(toks, i) {
            push(SiteKind::StaticTouch, word.into());
        } else if CELL_TYPES.contains(&word) {
            push(SiteKind::CellType, word.into());
        }
    }
    out
}

/// `lane-race`: any function transitively reachable from a GPU-lane handler
/// whose body names crossing state (`lanes`/`lock_lane`/`read_host`/
/// `write_host`), a model-crate `static`, or an interior-mutability cell.
/// Sites *inside* `impl GpuLane` bodies are left to the token-level
/// `cross-domain-mutation` rule — its intra-impl fast path — so each site
/// is reported exactly once.
fn lane_race(graph: &SymbolGraph, files: &[&FileAnalysis], diags: &mut Vec<Diagnostic>) {
    let roots = graph.fns_of_type(LANE_TYPE);
    if roots.is_empty() {
        return;
    }
    let static_names: Vec<&str> = graph.statics.iter().map(|s| s.name.as_str()).collect();
    let reach = graph.reachable_from(&roots);
    for &f in reach.keys() {
        let def = &graph.fns[f];
        // The crossing primitives themselves are the audited boundary; the
        // finding belongs at their call sites, not inside their bodies.
        if LANE_CROSSING_IDENTS.contains(&def.name.as_str()) {
            continue;
        }
        let sites = cross_domain_sites(graph, files, f, &static_names);
        if sites.is_empty() {
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
        for site in &sites {
            // Sites inside `impl GpuLane` bodies are `cross-domain-mutation`
            // territory (the intra-impl fast path); lane-race owns
            // everything the handlers *reach*.
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
            };
            diags.push(Diagnostic {
                rule: Rule::LaneRace,
                path: fa.path.clone(),
                line: site.line,
                message,
            });
        }
    }
}

/// Whether the ident at `i` is the *name* in a `static NAME:` declaration
/// (the declaration itself is `shared-mutability`'s business, not a touch).
fn is_decl_position(toks: &[Tok], i: usize) -> bool {
    let prev = |off: usize| i.checked_sub(off).map(|p| toks[p].text.as_str());
    matches!(prev(1), Some("static"))
        || (matches!(prev(1), Some("mut")) && matches!(prev(2), Some("static")))
}

/// `shared-mutability`: introduction of `static mut`, lazy-global machinery,
/// a `static` with a cell type, or any interior-mutability cell in a model
/// crate outside the sanctioned synchronization layer.
fn shared_mutability(graph: &SymbolGraph, files: &[&FileAnalysis], diags: &mut Vec<Diagnostic>) {
    for s in &graph.statics {
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
        diags.push(Diagnostic {
            rule: Rule::SharedMutability,
            path: s.path.clone(),
            line,
            message,
        });
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
            diags.push(Diagnostic {
                rule: Rule::SharedMutability,
                path: fa.path.clone(),
                line: t.line,
                message,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_rules(path: &str, src: &str) -> Vec<Diagnostic> {
        let fa = FileAnalysis::new(path.to_string(), src);
        let files = [&fa];
        let graph = SymbolGraph::build(&files);
        let mut diags = Vec::new();
        check(&graph, &files, &mut diags);
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
    fn lane_race_flags_cells_and_statics() {
        let src = "static HITS: AtomicU64 = AtomicU64::new(0);\n\
                   impl GpuLane { fn on_x(&self) { count() } }\n\
                   fn count() { HITS.fetch_add(1, Relaxed); }\n";
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
        // The declaration itself is shared-mutability's business.
        assert!(races.iter().all(|d| d.line != 1), "{races:?}");
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
}
