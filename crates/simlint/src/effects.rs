//! Interprocedural effect inference over the [`SymbolGraph`] call graph.
//!
//! Every workspace function gets two effect sets: its **direct** effects
//! (trigger sites in its own body) and its **summary** — the least fixpoint
//! of `summary(f) = direct(f) ∪ ⋃ summary(callee)` over the conservative
//! call graph. Because the graph over-approximates edges, summaries
//! over-approximate effects: a clean summary is a proof, a dirty one is a
//! lead. The fixpoint is computed bottom-up over Tarjan's strongly connected
//! components — each SCC's members share one summary (mutual recursion
//! cannot add effects round-by-round), and SCCs are visited callees-first,
//! so a single pass converges. See DESIGN.md §9 for the lattice and the
//! documented over-approximations.
//!
//! The trigger sets deliberately mirror the token-tier rules where one
//! exists (`may_panic` matches `hot-path-panic`'s direct patterns,
//! `cross_domain_write` matches `lane-race`'s primitive set) so the
//! interprocedural findings compose with — never contradict — the per-file
//! pass. `allocates` excludes amortized growth (`push`, `insert`) and the
//! non-allocating constructors `Vec::new`/`String::new`; `.clone()` is
//! included even though `Copy` clones are free (the token level cannot see
//! types — documented over-approximation).

use crate::graph::SymbolGraph;
use crate::lexer::{Tok, TokKind};
use crate::rules_graph::{is_decl_position, CELL_OPEN_METHODS, CELL_TYPES};
use crate::{matching_close, FileAnalysis, LANE_CROSSING_IDENTS, PANIC_MACROS, PANIC_METHODS};

/// A set of effects, as a bitset. The join is set union; bottom is empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct EffectSet(u8);

impl EffectSet {
    /// No effects (the lattice bottom).
    pub const EMPTY: EffectSet = EffectSet(0);
    /// Heap allocation: `Box`/`Vec`/`String` constructors, `vec!`/`format!`,
    /// `.collect()`, `.to_string()`/`.to_owned()`/`.to_vec()`, `.clone()`.
    pub const ALLOCATES: EffectSet = EffectSet(1);
    /// `unwrap`/`expect`, panic-family macros, arithmetic slice indexing.
    pub const MAY_PANIC: EffectSet = EffectSet(1 << 1);
    /// File/socket/stdio traffic, print-family macros.
    pub const DOES_IO: EffectSet = EffectSet(1 << 2);
    /// `Instant::now` / `SystemTime`.
    pub const READS_WALL_CLOCK: EffectSet = EffectSet(1 << 3);
    /// The `lane-race` primitive set: lane-crossing identifiers, statics,
    /// interior-mutability cell types and cell-opening methods.
    pub const CROSS_DOMAIN_WRITE: EffectSet = EffectSet(1 << 4);
    /// Pushes an event onto a lane or event queue (`schedule`, `send_gpu`,
    /// `send_host`).
    pub const SCHEDULES_EVENT: EffectSet = EffectSet(1 << 5);

    /// Set union (the lattice join).
    #[must_use]
    pub fn union(self, other: EffectSet) -> EffectSet {
        EffectSet(self.0 | other.0)
    }

    /// Whether every effect in `other` is present.
    #[must_use]
    pub fn contains(self, other: EffectSet) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether no effect is present.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

/// What kind of source construct produced a direct-effect site. Rules use
/// this to phrase diagnostics and to honor ownership splits (e.g. lane-race
/// phrasing differs for a static touch versus a cell-opening method).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteKind {
    /// `what!(...)` macro invocation.
    Macro,
    /// `Type::method(...)` associated call (`what` is `Type::method`).
    AssocCall,
    /// `.what(...)` method call.
    MethodCall,
    /// Bare identifier use (lane-crossing idents, `SystemTime`).
    Ident,
    /// Use of a `static` named `what`.
    StaticTouch,
    /// Interior-mutability cell type name.
    CellType,
    /// Arithmetic slice index (`what` is `[]`).
    Index,
}

/// One direct-effect trigger site inside a function body.
#[derive(Debug, Clone)]
pub struct EffectSite {
    /// The single effect bit this site contributes.
    pub effect: EffectSet,
    /// Construct class, for diagnostic phrasing.
    pub kind: SiteKind,
    /// The matched construct, human-readable (`format!`, `.unwrap()`, …).
    pub what: String,
    /// Index of the trigger token in its file's code channel (for rule
    /// scoping against `impl` body ranges).
    pub tok: usize,
    /// 1-based source line of the trigger token.
    pub line: usize,
    /// Whether the site sits inside an observability gate — an `if` whose
    /// condition tests an `is_enabled`-style flag. The disabled path is
    /// effect-free, so hot-path rules exempt gated sites; summaries still
    /// include them (the enabled path really does allocate).
    pub gated: bool,
}

/// Per-function inference result over one [`SymbolGraph`].
pub struct Effects {
    /// `direct[f]`: union of `sites[f]` effect bits.
    pub direct: Vec<EffectSet>,
    /// `summary[f]`: least fixpoint over the call graph.
    pub summary: Vec<EffectSet>,
    /// `sites[f]`: every direct trigger site in `f`'s body.
    pub sites: Vec<Vec<EffectSite>>,
    /// Number of strongly connected components (fixpoint work units).
    pub scc_count: usize,
}

/// Method names whose call allocates a fresh owned value.
const ALLOC_METHODS: &[&str] = &["clone", "collect", "to_owned", "to_string", "to_vec"];

/// Macros that allocate their result.
const ALLOC_MACROS: &[&str] = &["format", "vec"];

/// `Type::method` associated calls that allocate.
const ALLOC_ASSOC: &[(&str, &[&str])] = &[
    ("Arc", &["new"]),
    ("Box", &["new"]),
    ("Rc", &["new"]),
    ("String", &["from", "with_capacity"]),
    ("Vec", &["from", "with_capacity"]),
];

/// Types whose associated calls do IO.
const IO_TYPES: &[&str] = &[
    "File",
    "OpenOptions",
    "TcpListener",
    "TcpStream",
    "UdpSocket",
];

/// Print-family macros (locked stdio writes).
const IO_MACROS: &[&str] = &["dbg", "eprint", "eprintln", "print", "println"];

/// Stdio handle constructors (`io::stdout()` …).
const IO_FNS: &[&str] = &["stderr", "stdin", "stdout"];

/// Methods that push an event onto a lane or event queue.
const SCHEDULE_METHODS: &[&str] = &["schedule", "send_gpu", "send_host"];

/// Computes direct sites and fixpoint summaries for every function of
/// `graph`. `files` must be the slice the graph was built from.
#[must_use]
pub fn infer(graph: &SymbolGraph, files: &[&FileAnalysis]) -> Effects {
    let static_names: Vec<&str> = graph.statics.iter().map(|s| s.name.as_str()).collect();
    let n = graph.fns.len();
    let mut sites = Vec::with_capacity(n);
    let mut direct = Vec::with_capacity(n);
    for f in 0..n {
        let s = direct_sites(graph, files, f, &static_names);
        direct.push(
            s.iter()
                .fold(EffectSet::EMPTY, |acc, site| acc.union(site.effect)),
        );
        sites.push(s);
    }
    let sccs = tarjan_sccs(n, &graph.calls);
    let mut summary = direct.clone();
    let mut scc_id = vec![usize::MAX; n];
    for (id, scc) in sccs.iter().enumerate() {
        for &m in scc {
            scc_id[m] = id;
        }
    }
    // Tarjan emits each SCC only after every SCC it has edges into, so one
    // callees-first pass reaches the least fixpoint: members share the union
    // of their direct effects and their external callees' final summaries.
    for scc in &sccs {
        let mut eff = EffectSet::EMPTY;
        for &m in scc {
            eff = eff.union(direct[m]);
            for &c in &graph.calls[m] {
                if scc_id[c] != scc_id[m] {
                    eff = eff.union(summary[c]);
                }
            }
        }
        for &m in scc {
            summary[m] = eff;
        }
    }
    Effects {
        direct,
        summary,
        sites,
        scc_count: sccs.len(),
    }
}

/// Scans one function body for direct-effect trigger sites.
fn direct_sites(
    graph: &SymbolGraph,
    files: &[&FileAnalysis],
    f: usize,
    static_names: &[&str],
) -> Vec<EffectSite> {
    let def = &graph.fns[f];
    let Some((start, end)) = def.span else {
        return Vec::new();
    };
    let toks = &files[def.file].toks;
    let end = end.min(toks.len().saturating_sub(1));
    let gates = gated_ranges(toks, start, end);
    let gated_at = |i: usize| gates.iter().any(|&(open, close)| i > open && i < close);
    let mut out = Vec::new();
    for i in start..=end {
        let t = &toks[i];
        let mut push = |effect: EffectSet, kind: SiteKind, what: String| {
            out.push(EffectSite {
                effect,
                kind,
                what,
                tok: i,
                line: t.line,
                gated: gated_at(i),
            });
        };
        match t.kind {
            TokKind::Ident => {
                let word = t.text.as_str();
                let next_is = |off: usize, text: &str| {
                    toks.get(i + off)
                        .is_some_and(|n| n.kind == TokKind::Punct && n.text == text)
                };
                if next_is(1, "!") {
                    if ALLOC_MACROS.contains(&word) {
                        push(EffectSet::ALLOCATES, SiteKind::Macro, format!("{word}!"));
                    } else if IO_MACROS.contains(&word) {
                        push(EffectSet::DOES_IO, SiteKind::Macro, format!("{word}!"));
                    } else if PANIC_MACROS.contains(&word) {
                        push(EffectSet::MAY_PANIC, SiteKind::Macro, format!("{word}!"));
                    }
                }
                if next_is(1, "::") {
                    if let Some(m) = toks.get(i + 2).filter(|m| m.kind == TokKind::Ident) {
                        let method = m.text.as_str();
                        let allocs = ALLOC_ASSOC
                            .iter()
                            .any(|&(ty, ms)| ty == word && ms.contains(&method));
                        if allocs {
                            push(
                                EffectSet::ALLOCATES,
                                SiteKind::AssocCall,
                                format!("{word}::{method}"),
                            );
                        } else if IO_TYPES.contains(&word) {
                            push(
                                EffectSet::DOES_IO,
                                SiteKind::AssocCall,
                                format!("{word}::{method}"),
                            );
                        } else if word == "Instant" && method == "now" {
                            push(
                                EffectSet::READS_WALL_CLOCK,
                                SiteKind::AssocCall,
                                "Instant::now".into(),
                            );
                        }
                    }
                }
                if word == "SystemTime" {
                    push(
                        EffectSet::READS_WALL_CLOCK,
                        SiteKind::Ident,
                        "SystemTime".into(),
                    );
                }
                if IO_FNS.contains(&word) && next_is(1, "(") {
                    push(
                        EffectSet::DOES_IO,
                        SiteKind::MethodCall,
                        format!("{word}()"),
                    );
                }
                let is_method_call = i > 0
                    && toks[i - 1].kind == TokKind::Punct
                    && toks[i - 1].text == "."
                    && next_is(1, "(");
                if is_method_call {
                    if ALLOC_METHODS.contains(&word) {
                        push(
                            EffectSet::ALLOCATES,
                            SiteKind::MethodCall,
                            format!(".{word}()"),
                        );
                    } else if PANIC_METHODS.contains(&word) {
                        push(
                            EffectSet::MAY_PANIC,
                            SiteKind::MethodCall,
                            format!(".{word}()"),
                        );
                    } else if CELL_OPEN_METHODS.contains(&word) {
                        push(
                            EffectSet::CROSS_DOMAIN_WRITE,
                            SiteKind::MethodCall,
                            format!(".{word}()"),
                        );
                    } else if SCHEDULE_METHODS.contains(&word) {
                        push(
                            EffectSet::SCHEDULES_EVENT,
                            SiteKind::MethodCall,
                            format!(".{word}()"),
                        );
                    }
                }
                // Mutually exclusive, in `lane-race`'s precedence order, so
                // one token never yields two cross-domain sites.
                if LANE_CROSSING_IDENTS.contains(&word) {
                    push(EffectSet::CROSS_DOMAIN_WRITE, SiteKind::Ident, word.into());
                } else if static_names.contains(&word) && !is_decl_position(toks, i) {
                    push(
                        EffectSet::CROSS_DOMAIN_WRITE,
                        SiteKind::StaticTouch,
                        word.into(),
                    );
                } else if CELL_TYPES.contains(&word) {
                    push(
                        EffectSet::CROSS_DOMAIN_WRITE,
                        SiteKind::CellType,
                        word.into(),
                    );
                }
            }
            TokKind::Punct if t.text == "[" && i > 0 => {
                // Expression-position indexing with an arithmetic index —
                // the same pattern `hot-path-panic`'s token tier matches.
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
                            push(EffectSet::MAY_PANIC, SiteKind::Index, "[]".into());
                        }
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Block ranges of `if` statements whose condition tests an observability
/// flag (an identifier containing `enabled` or ending in `_on`): the sites
/// inside run only when tracing/profiling is switched on, so the default
/// hot path is effect-free.
fn gated_ranges(toks: &[Tok], start: usize, end: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = start;
    while i <= end {
        if toks[i].kind == TokKind::Ident && toks[i].text == "if" {
            let mut depth = 0i32;
            let mut gated = false;
            let mut j = i + 1;
            while j <= end {
                let t = &toks[j];
                if t.kind == TokKind::Punct {
                    match t.text.as_str() {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "{" if depth == 0 => break,
                        ";" => break, // malformed; bail
                        _ => {}
                    }
                } else if t.kind == TokKind::Ident
                    && (t.text.contains("enabled") || t.text.ends_with("_on"))
                {
                    gated = true;
                }
                j += 1;
            }
            if gated && toks.get(j).is_some_and(|t| t.text == "{") {
                if let Some(close) = matching_close(toks, j) {
                    out.push((j, close));
                }
            }
        }
        i += 1;
    }
    out
}

/// Iterative Tarjan SCC. Returns components in emission order — every SCC
/// appears after all SCCs it has call edges into (callees first), which is
/// exactly the order the fixpoint pass needs.
fn tarjan_sccs(n: usize, calls: &[Vec<usize>]) -> Vec<Vec<usize>> {
    const UNSET: usize = usize::MAX;
    let mut index = vec![UNSET; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut out: Vec<Vec<usize>> = Vec::new();
    // Explicit DFS frames: (node, next child position).
    let mut frames: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != UNSET {
            continue;
        }
        frames.push((root, 0));
        while let Some(&mut (v, ref mut ci)) = frames.last_mut() {
            if *ci == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&c) = calls[v].get(*ci) {
                *ci += 1;
                if index[c] == UNSET {
                    frames.push((c, 0));
                } else if on_stack[c] {
                    low[v] = low[v].min(index[c]);
                }
                continue;
            }
            // All children visited: close the frame.
            frames.pop();
            if let Some(&(parent, _)) = frames.last() {
                low[parent] = low[parent].min(low[v]);
            }
            if low[v] == index[v] {
                let mut scc = Vec::new();
                loop {
                    let w = stack.pop().expect("tarjan stack underflow");
                    on_stack[w] = false;
                    scc.push(w);
                    if w == v {
                        break;
                    }
                }
                scc.sort_unstable();
                out.push(scc);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn effects_of(src: &str) -> (SymbolGraph, Effects, FileAnalysis) {
        let fa = FileAnalysis::new("crates/x/src/lib.rs".to_string(), src);
        let fa2 = FileAnalysis::new("crates/x/src/lib.rs".to_string(), src);
        let g = SymbolGraph::build(&[&fa]);
        let e = infer(&g, &[&fa]);
        (g, e, fa2)
    }

    fn by_name(g: &SymbolGraph, name: &str) -> usize {
        g.fns
            .iter()
            .position(|f| f.qualified() == name)
            .unwrap_or_else(|| panic!("no fn {name}"))
    }

    #[test]
    fn direct_triggers_classify() {
        let src = "fn a() { let v = vec![1]; drop(v); }\n\
                   fn p(o: Option<u64>) { o.unwrap(); }\n\
                   fn w() { let t = Instant::now(); drop(t); }\n\
                   fn io() { println!(\"x\"); }\n\
                   fn x(lanes: &[u64]) { drop(lanes); }\n\
                   fn s(q: &mut Q, ev: Ev) { q.schedule(0, ev); }\n";
        let (g, e, _) = effects_of(src);
        assert_eq!(e.direct[by_name(&g, "a")], EffectSet::ALLOCATES);
        assert_eq!(e.direct[by_name(&g, "p")], EffectSet::MAY_PANIC);
        assert_eq!(e.direct[by_name(&g, "w")], EffectSet::READS_WALL_CLOCK);
        assert_eq!(e.direct[by_name(&g, "io")], EffectSet::DOES_IO);
        assert_eq!(e.direct[by_name(&g, "x")], EffectSet::CROSS_DOMAIN_WRITE);
        assert_eq!(e.direct[by_name(&g, "s")], EffectSet::SCHEDULES_EVENT);
    }

    #[test]
    fn vec_new_does_not_allocate_or_edge() {
        let src = "fn a() { let v: Vec<u64> = Vec::new(); drop(v); }\n\
                   fn new() { let b = Box::new(1); drop(b); }\n";
        let (g, e, _) = effects_of(src);
        let a = by_name(&g, "a");
        // `Vec::new` is non-allocating and must not edge into the workspace
        // `new` (which allocates).
        assert!(e.direct[a].is_empty());
        assert!(e.summary[a].is_empty(), "{:?}", e.summary[a]);
    }

    #[test]
    fn summaries_propagate_through_calls() {
        let src = "fn top() { mid() }\n\
                   fn mid() { leaf() }\n\
                   fn leaf() -> String { format!(\"x\") }\n";
        let (g, e, _) = effects_of(src);
        let top = by_name(&g, "top");
        assert!(e.direct[top].is_empty());
        assert!(e.summary[top].contains(EffectSet::ALLOCATES));
    }

    #[test]
    fn cycles_converge_and_share_a_summary() {
        let src = "fn even(n: u64) { odd(n) }\n\
                   fn odd(n: u64) { even(n); let s = n.to_string(); drop(s); }\n\
                   fn lone() {}\n";
        let (g, e, _) = effects_of(src);
        let even = by_name(&g, "even");
        let odd = by_name(&g, "odd");
        assert_eq!(e.summary[even], e.summary[odd]);
        assert!(e.summary[even].contains(EffectSet::ALLOCATES));
        assert!(e.summary[by_name(&g, "lone")].is_empty());
        // 2-cycle + lone fn: exactly two SCCs.
        assert_eq!(e.scc_count, 2);
    }

    #[test]
    fn summary_is_least_fixpoint_vs_reachability() {
        let src = "fn a(n: u64) { b(n); }\n\
                   fn b(n: u64) { c(n); a(n); }\n\
                   fn c(n: u64) { drop(n.to_string()); }\n\
                   fn d(o: Option<u64>) { o.unwrap(); a(1); }\n";
        let (g, e, _) = effects_of(src);
        for f in 0..g.fns.len() {
            let reach = g.reachable_from(&[f]);
            let expected = reach
                .keys()
                .fold(EffectSet::EMPTY, |acc, &r| acc.union(e.direct[r]));
            assert_eq!(e.summary[f], expected, "fn {}", g.fns[f].qualified());
        }
    }

    #[test]
    fn observability_gates_mark_sites() {
        let src =
            "fn traced(tlog: &T) { if tlog.is_enabled() { let m = format!(\"x\"); drop(m); } \n\
                   \x20   let v = vec![1]; drop(v); }\n";
        let (g, e, _) = effects_of(src);
        let f = by_name(&g, "traced");
        let gated: Vec<bool> = e.sites[f]
            .iter()
            .filter(|s| s.effect == EffectSet::ALLOCATES)
            .map(|s| s.gated)
            .collect();
        assert_eq!(gated, vec![true, false], "{:?}", e.sites[f]);
        // Summaries still carry the gated effect.
        assert!(e.summary[f].contains(EffectSet::ALLOCATES));
    }
}
