//! Workspace symbol graph: a module/item resolver over the lexer's token
//! streams and a conservative call graph on top of it.
//!
//! The graph exists for one question: *which functions can run inside a GPU
//! lane's epoch?* The parallel event core (DESIGN.md §8) is only sound if
//! GPU-phase code never touches host/driver state outside the outbox
//! mailboxes — and the token-level `cross-domain-mutation` rule only sees
//! the `impl GpuLane` bodies themselves, so any helper *called from* a lane
//! handler escapes it. This module maps every `fn` item in the model crates
//! (with its enclosing `impl` type), links call sites to candidate callees
//! by name, and computes the transitive closure from the lane-handler roots.
//!
//! # Conservatism
//!
//! Resolution is name-based, not type-based (std-only lint; no rustc). The
//! contract is **no false negatives for direct chains**: if `f`'s body
//! textually calls `g(...)`, `x.g(...)` or `T::g(...)` and a workspace
//! function named `g` exists, the edge exists. Precision refinements that
//! never drop a real edge:
//!
//! - `self.g(...)` resolves within the enclosing `impl` type when that type
//!   defines a `g` (in any of its `impl` blocks, any file) — this is what
//!   keeps `GpuLane::run_epoch → self.handle` from also reaching
//!   `HostState::handle`. When the type defines no `g`, the call falls back
//!   to every function named `g` (it may be a trait default elsewhere).
//! - `T::g(...)` resolves to `T`'s methods when `T` is a known `impl` type,
//!   and to every `g` otherwise (module paths look identical to types at
//!   the token level).
//! - `x.g(...)` resolves to every *method* named `g`; bare `g(...)` prefers
//!   free functions and falls back to every `g`.
//! - **Arity filtering**: every candidate set is further filtered by
//!   argument count. A definition records its parameter count (excluding
//!   `self`); a call site counts its top-level arguments. A method call
//!   `x.g(a)` keeps only methods with one non-self parameter; `T::g(a, b)`
//!   keeps associated functions with two parameters *or* methods with one
//!   (the UFCS spelling passes the receiver explicitly). Whenever either
//!   side's count is unknown — a closure literal, a turbofish, or struct
//!   sugar inside the argument list makes comma counting unreliable — the
//!   filter is skipped entirely, so an uncertain count can never drop a
//!   real edge. This is what keeps an `Option::take()` / `q.recycle()`
//!   call from reaching `QueuePool::take(hint)` / `System::recycle(pool)`.
//! - `T::g(...)` with a well-known std qualifier (`Vec::new()`,
//!   `String::from(..)` — see `STD_QUALIFIERS`) that is not a workspace
//!   `impl` type resolves to nothing: the callee lives in std, and edging
//!   into every same-named workspace fn would only manufacture noise.
//!
//! Known holes, accepted and documented (DESIGN.md §9): calls through
//! function pointers / closures passed as values (`map(Self::g)` without
//! parentheses at the use site), macro-generated bodies, and trait-object
//! dynamic dispatch to a method name the call site never utters. None occur
//! on the lane hot path today; the `lane-race` fixtures pin the shapes that
//! must keep working.

use crate::lexer::{Tok, TokKind};
use crate::{matching_close, FileAnalysis};
use std::collections::{BTreeMap, BTreeSet};

/// Qualifier identifiers that name well-known std types. A `T::g(...)` call
/// whose `T` is on this list and is *not* a workspace `impl` type resolves
/// to no workspace function: `Vec::new()` must not edge into every 0-arg
/// `new` in the tree. A workspace type shadowing one of these names still
/// resolves first through the typed lookup, so no real edge is lost.
const STD_QUALIFIERS: &[&str] = &[
    "Arc",
    "Box",
    "BTreeMap",
    "BTreeSet",
    "Cell",
    "Duration",
    "HashMap",
    "HashSet",
    "Instant",
    "Option",
    "Path",
    "PathBuf",
    "Rc",
    "RefCell",
    "Result",
    "String",
    "SystemTime",
    "Vec",
    "VecDeque",
];

/// Keywords that read like calls at the token level (`while (..)`,
/// `return (..)`, …) and must not produce edges.
const NON_CALL_KEYWORDS: &[&str] = &[
    "as", "box", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "fn",
    "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "static", "struct", "trait", "type", "unsafe", "use", "where", "while", "yield",
];

/// One `fn` item: where it lives and what its signature+body span is.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// The function's bare name.
    pub name: String,
    /// Self type of the enclosing `impl` block, when any (`impl T` and
    /// `impl Tr for T` both record `T`).
    pub impl_type: Option<String>,
    /// Index into the file list the graph was built from.
    pub file: usize,
    /// Workspace-relative path of that file.
    pub path: String,
    /// 1-based line of the `fn` name token.
    pub line: usize,
    /// Token range `[sig_start, body_close]` in the file's code channel:
    /// from the name token through the body's closing brace. `None` for
    /// bodyless declarations (trait signatures, extern blocks).
    pub span: Option<(usize, usize)>,
    /// Parameter count excluding any `self` receiver; `None` when the
    /// parameter list could not be counted reliably.
    pub arity: Option<usize>,
    /// Whether the parameter list starts with a `self` receiver.
    pub has_self: bool,
}

impl FnDef {
    /// `Type::name` when the fn is a method, bare `name` otherwise.
    #[must_use]
    pub fn qualified(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// A `static` item declared in an indexed file.
#[derive(Debug, Clone)]
pub struct StaticDef {
    pub name: String,
    pub path: String,
    pub line: usize,
    /// Declared `static mut`.
    pub is_mut: bool,
    /// Type-position identifier tokens of the declaration (between `:` and
    /// `=`/`;`), for interior-mutability classification.
    pub type_idents: Vec<String>,
}

/// The workspace symbol graph over a fixed file list.
pub struct SymbolGraph {
    /// Every indexed function.
    pub fns: Vec<FnDef>,
    /// `calls[f]`: candidate callee indices of `f`'s body, deduplicated.
    pub calls: Vec<Vec<usize>>,
    /// Every `static` item.
    pub statics: Vec<StaticDef>,
    /// `impl` body token ranges per file: `(type name, open, close)`.
    impl_ranges: Vec<Vec<(String, usize, usize)>>,
    /// name → fn indices.
    by_name: BTreeMap<String, Vec<usize>>,
    /// (impl type, name) → fn indices.
    by_type: BTreeMap<(String, String), Vec<usize>>,
}

impl SymbolGraph {
    /// Builds the graph over `files` (typically the model-crate subset of a
    /// workspace scan). Token streams are borrowed, never re-lexed.
    #[must_use]
    pub fn build(files: &[&FileAnalysis]) -> SymbolGraph {
        let mut g = SymbolGraph {
            fns: Vec::new(),
            calls: Vec::new(),
            statics: Vec::new(),
            impl_ranges: Vec::with_capacity(files.len()),
            by_name: BTreeMap::new(),
            by_type: BTreeMap::new(),
        };
        for (fi, fa) in files.iter().enumerate() {
            let impls = find_impl_ranges(&fa.toks);
            g.index_file(fi, fa, &impls);
            g.impl_ranges.push(impls);
        }
        for i in 0..g.fns.len() {
            let name = g.fns[i].name.clone();
            g.by_name.entry(name.clone()).or_default().push(i);
            if let Some(t) = g.fns[i].impl_type.clone() {
                g.by_type.entry((t, name)).or_default().push(i);
            }
        }
        g.calls = (0..g.fns.len()).map(|i| g.callees_of(i, files)).collect();
        g
    }

    /// Records the `fn` and `static` items of one file.
    fn index_file(&mut self, fi: usize, fa: &FileAnalysis, impls: &[(String, usize, usize)]) {
        let toks = &fa.toks;
        let mut i = 0;
        while i < toks.len() {
            let t = &toks[i];
            if t.kind == TokKind::Ident && t.text == "fn" {
                if let Some(name_tok) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                    let impl_type = impls
                        .iter()
                        .filter(|&&(_, open, close)| i > open && i < close)
                        .min_by_key(|&&(_, open, close)| close - open)
                        .map(|(ty, _, _)| ty.clone());
                    let span = fn_span(toks, i + 1);
                    let (arity, has_self) = fn_params(toks, i + 1);
                    self.fns.push(FnDef {
                        name: name_tok.text.clone(),
                        impl_type,
                        file: fi,
                        path: fa.path.clone(),
                        line: name_tok.line,
                        span,
                        arity,
                        has_self,
                    });
                }
            } else if t.kind == TokKind::Ident
                && t.text == "static"
                && toks.get(i.wrapping_sub(1)).map(|p| p.text.as_str()) != Some("'")
            {
                if let Some(def) = parse_static(toks, i, &fa.path) {
                    self.statics.push(def);
                }
            }
            i += 1;
        }
    }

    /// Candidate callees of `fns[f]`, by scanning its span for call shapes.
    fn callees_of(&self, f: usize, files: &[&FileAnalysis]) -> Vec<usize> {
        let Some((start, end)) = self.fns[f].span else {
            return Vec::new();
        };
        let toks = &files[self.fns[f].file].toks;
        let enclosing = self.fns[f].impl_type.as_deref();
        let mut out = BTreeSet::new();
        for i in start..=end.min(toks.len().saturating_sub(1)) {
            let t = &toks[i];
            if t.kind != TokKind::Ident
                || NON_CALL_KEYWORDS.contains(&t.text.as_str())
                || !toks
                    .get(i + 1)
                    .is_some_and(|n| n.kind == TokKind::Punct && n.text == "(")
            {
                continue;
            }
            // `fn name(` is a declaration, not a call.
            if i > 0 && toks[i - 1].kind == TokKind::Ident && toks[i - 1].text == "fn" {
                continue;
            }
            let name = t.text.as_str();
            let argc = call_argc(toks, i + 1);
            let prev = i.checked_sub(1).map(|p| &toks[p]);
            let candidates: Vec<usize> = match prev {
                Some(p) if p.kind == TokKind::Punct && p.text == "." => {
                    let recv = i.checked_sub(2).map(|p| &toks[p]);
                    let is_self_recv = recv.is_some_and(|r| {
                        r.kind == TokKind::Ident
                            && r.text == "self"
                            && i.checked_sub(3)
                                .map(|p| &toks[p])
                                .is_none_or(|b| b.text != ".")
                    });
                    let set = if is_self_recv {
                        // `self.name(`: the enclosing type's method wins.
                        enclosing
                            .and_then(|ty| self.by_type.get(&(ty.to_string(), name.to_string())))
                            .cloned()
                            .unwrap_or_else(|| self.methods_named(name))
                    } else {
                        // `x.name(`: any method with that name.
                        self.methods_named(name)
                    };
                    // The receiver is implicit: `x.g(a)` matches `g(&self, a)`.
                    self.arity_filter(set, argc, CallShape::Method)
                }
                Some(p) if p.kind == TokKind::Punct && p.text == "::" => {
                    // `T::name(`: T's methods when T is a known impl type.
                    let qual = i.checked_sub(2).map(|p| &toks[p]);
                    let typed = qual
                        .filter(|q| q.kind == TokKind::Ident)
                        .and_then(|q| self.by_type.get(&(q.text.clone(), name.to_string())));
                    let set = match typed {
                        Some(v) => v.clone(),
                        None if qual.is_some_and(|q| {
                            q.kind == TokKind::Ident && STD_QUALIFIERS.contains(&q.text.as_str())
                        }) =>
                        {
                            Vec::new()
                        }
                        None => self.named(name),
                    };
                    self.arity_filter(set, argc, CallShape::Qualified)
                }
                _ => {
                    // Bare `name(`: free functions first, any `name` else.
                    let free: Vec<usize> = self
                        .named(name)
                        .into_iter()
                        .filter(|&j| self.fns[j].impl_type.is_none())
                        .collect();
                    let set = if free.is_empty() {
                        self.named(name)
                    } else {
                        free
                    };
                    self.arity_filter(set, argc, CallShape::Bare)
                }
            };
            out.extend(candidates);
        }
        out.remove(&f);
        out.into_iter().collect()
    }

    /// Drops candidates whose parameter count cannot match the call site's
    /// argument count. Skipped wholesale when the site's count is unknown;
    /// a candidate with an unparseable parameter list always survives.
    fn arity_filter(&self, set: Vec<usize>, argc: Option<usize>, shape: CallShape) -> Vec<usize> {
        let Some(argc) = argc else {
            return set;
        };
        set.into_iter()
            .filter(|&j| {
                let f = &self.fns[j];
                let Some(arity) = f.arity else {
                    return true;
                };
                match shape {
                    // `x.g(a)`: the receiver rides outside the parens.
                    CallShape::Method => f.has_self && arity == argc,
                    // `T::g(a, b)`: associated call, or UFCS with the
                    // receiver as the first explicit argument.
                    CallShape::Qualified => {
                        (!f.has_self && arity == argc) || (f.has_self && arity + 1 == argc)
                    }
                    // Bare `g(a)`: free fn of that arity; method candidates
                    // (the any-`g` fallback) keep both interpretations.
                    CallShape::Bare => arity == argc || (f.has_self && arity + 1 == argc),
                }
            })
            .collect()
    }

    fn named(&self, name: &str) -> Vec<usize> {
        self.by_name.get(name).cloned().unwrap_or_default()
    }

    fn methods_named(&self, name: &str) -> Vec<usize> {
        self.named(name)
            .into_iter()
            .filter(|&j| self.fns[j].impl_type.is_some())
            .collect()
    }

    /// Fn indices whose enclosing impl type is `ty`.
    #[must_use]
    pub fn fns_of_type(&self, ty: &str) -> Vec<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.impl_type.as_deref() == Some(ty))
            .map(|(i, _)| i)
            .collect()
    }

    /// BFS closure from `roots` along call edges. Returns, for every
    /// reached fn, the index of the fn it was reached *from* (roots map to
    /// themselves) — enough to reconstruct one witness chain for messages.
    #[must_use]
    pub fn reachable_from(&self, roots: &[usize]) -> BTreeMap<usize, usize> {
        let mut from: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue: Vec<usize> = Vec::new();
        for &r in roots {
            if from.insert(r, r).is_none() {
                queue.push(r);
            }
        }
        while let Some(f) = queue.pop() {
            for &c in &self.calls[f] {
                // First visit wins: a plain `insert` would overwrite an
                // already-recorded parent (even a root's self-edge) when a
                // call cycle closes back, corrupting the witness forest into
                // a parent-pointer cycle that `root_of` can never escape.
                if let std::collections::btree_map::Entry::Vacant(e) = from.entry(c) {
                    e.insert(f);
                    queue.push(c);
                }
            }
        }
        from
    }

    /// The root a reached fn traces back to under a `reachable_from` map.
    #[must_use]
    pub fn root_of(&self, from: &BTreeMap<usize, usize>, mut f: usize) -> usize {
        while from.get(&f).is_some_and(|&p| p != f) {
            f = from[&f];
        }
        f
    }

    /// `impl GpuLane`-style body ranges for file `fi`, for rule scoping.
    #[must_use]
    pub fn impl_ranges_of(&self, fi: usize, ty: &str) -> Vec<(usize, usize)> {
        self.impl_ranges[fi]
            .iter()
            .filter(|(t, _, _)| t == ty)
            .map(|&(_, open, close)| (open, close))
            .collect()
    }
}

/// How a call site spells its callee, for arity matching.
#[derive(Debug, Clone, Copy)]
enum CallShape {
    /// `x.g(...)` / `self.g(...)` — receiver outside the parens.
    Method,
    /// `T::g(...)` — associated or UFCS.
    Qualified,
    /// `g(...)` — free-function position.
    Bare,
}

/// Counts the top-level arguments of a call whose `(` sits at `open`.
/// Returns `None` when `open` is not a `(`, the group is unbalanced, or the
/// argument list contains tokens that make comma counting unreliable at the
/// token level: a closure literal (`|a, b| …` puts its commas at top
/// level) or a bare `<` (turbofish or comparison — either way the angle
/// group's commas are invisible to the depth count). Unknown means "skip
/// the arity filter", never "drop the edge".
fn call_argc(toks: &[Tok], open: usize) -> Option<usize> {
    if toks.get(open).map(|t| t.text.as_str()) != Some("(") {
        return None;
    }
    let close = matching_close(toks, open)?;
    if close == open + 1 {
        return Some(0);
    }
    let mut depth = 0usize;
    let mut commas = 0usize;
    let mut last_was_comma = true; // detects a trailing comma
    for t in &toks[open + 1..close] {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth = depth.checked_sub(1)?,
                "," if depth == 0 => {
                    commas += 1;
                    last_was_comma = true;
                    continue;
                }
                "|" | "<" if depth == 0 => return None,
                _ => {}
            }
        }
        last_was_comma = false;
    }
    Some(commas + usize::from(!last_was_comma))
}

/// Parses the parameter list of the fn whose name token sits at `name`:
/// `(parameter count excluding self, has a self receiver)`. Angle-bracket
/// groups inside parameter *types* are skipped wholesale so `Map<K, V>`
/// cannot inflate the count. Returns `(None, _)` when the list cannot be
/// counted (malformed signature).
fn fn_params(toks: &[Tok], name: usize) -> (Option<usize>, bool) {
    // Skip the generic parameter list to the `(`.
    let mut j = name + 1;
    if toks.get(j).is_some_and(|t| t.text == "<") {
        j = skip_angles(toks, j);
    }
    if toks.get(j).map(|t| t.text.as_str()) != Some("(") {
        return (None, false);
    }
    let Some(close) = matching_close(toks, j) else {
        return (None, false);
    };
    // A `self` receiver is the first parameter: `self`, `mut self`,
    // `&self`, `&mut self`, `&'a mut self` — i.e. the first identifier
    // after any `&`/lifetime/`mut` prefix is `self`.
    let mut k = j + 1;
    while toks.get(k).is_some_and(|t| {
        t.kind == TokKind::Lifetime
            || (t.kind == TokKind::Punct && t.text == "&")
            || t.text == "mut"
    }) {
        k += 1;
    }
    let has_self = toks.get(k).is_some_and(|t| t.text == "self") && k < close;
    // Count top-level parameter segments between the parens.
    let mut depth = 0usize;
    let mut commas = 0usize;
    let mut saw_token = false;
    let mut last_was_comma = true;
    let mut i = j + 1;
    while i < close {
        let t = &toks[i];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "<" if depth == 0 => {
                    // Generic group in a parameter type.
                    i = skip_angles(toks, i);
                    last_was_comma = false;
                    saw_token = true;
                    continue;
                }
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => match depth.checked_sub(1) {
                    Some(d) => depth = d,
                    None => return (None, has_self),
                },
                "," if depth == 0 => {
                    commas += 1;
                    last_was_comma = true;
                    i += 1;
                    continue;
                }
                _ => {}
            }
        }
        saw_token = true;
        last_was_comma = false;
        i += 1;
    }
    if !saw_token {
        return (Some(0), false);
    }
    let total = commas + usize::from(!last_was_comma);
    (Some(total - usize::from(has_self)), has_self)
}

/// Finds every `impl` block: `(self type name, body open, body close)`.
/// Handles `impl<T> Ty`, `impl Tr for Ty`, paths (`impl fmt::Display for X`)
/// and where clauses; the self type is the last path segment before the
/// body (after `for` when present).
fn find_impl_ranges(toks: &[Tok]) -> Vec<(String, usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].kind == TokKind::Ident && toks[i].text == "impl" {
            let mut j = i + 1;
            // Generic parameter list.
            if toks.get(j).is_some_and(|t| t.text == "<") {
                j = skip_angles(toks, j);
            }
            // Scan to the body `{`, remembering the last type-position
            // identifier seen outside angle brackets; `for` resets it.
            let mut ty: Option<String> = None;
            while let Some(t) = toks.get(j) {
                match (t.kind, t.text.as_str()) {
                    (TokKind::Punct, "{") => break,
                    (TokKind::Punct, ";") => break, // `impl Trait for Ty;`-less oddity guard
                    (TokKind::Punct, "<") => {
                        j = skip_angles(toks, j);
                        continue;
                    }
                    (TokKind::Ident, "for" | "where") => {
                        ty = None;
                    }
                    (TokKind::Ident, "dyn" | "mut" | "const" | "unsafe") => {}
                    (TokKind::Ident, name) => {
                        ty = Some(name.to_string());
                    }
                    _ => {}
                }
                j += 1;
            }
            if let Some(ty) = ty {
                if toks.get(j).is_some_and(|t| t.text == "{") {
                    if let Some(close) = matching_close(toks, j) {
                        out.push((ty, j, close));
                    }
                }
            }
        }
        i += 1;
    }
    out
}

/// Skips a balanced `<...>` starting at `open` (a `<` token); returns the
/// index just past the matching `>`. `->` inside (closure/fn-trait sugar)
/// does not close a bracket.
fn skip_angles(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while let Some(t) = toks.get(j) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "<" => depth += 1,
                ">" if j > 0 && toks[j - 1].text == "-" => {}
                ">" => {
                    depth -= 1;
                    if depth <= 0 {
                        return j + 1;
                    }
                }
                ";" | "{" => return j, // malformed; bail without overrunning
                _ => {}
            }
        }
        j += 1;
    }
    j
}

/// The `[name token, body close]` span of a fn whose name sits at `name`:
/// scans the signature for the body `{` at bracket depth 0 (a `;` first
/// means no body). Generic bounds' `<...>` are skipped wholesale so a
/// `Fn() -> T` bound cannot derail the depth count.
fn fn_span(toks: &[Tok], name: usize) -> Option<(usize, usize)> {
    let mut depth = 0i32;
    let mut j = name + 1;
    while let Some(t) = toks.get(j) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "<" if depth == 0 && j == name + 1 => {
                    j = skip_angles(toks, j);
                    continue;
                }
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => {
                    let close = matching_close(toks, j)?;
                    return Some((name, close));
                }
                ";" if depth == 0 => return None,
                _ => {}
            }
        }
        j += 1;
    }
    None
}

/// Parses a `static` item at token `i` (the `static` keyword):
/// `static [mut] NAME: Type = init;`. Returns `None` for non-item uses of
/// the word (there are none in expression position in today's grammar).
fn parse_static(toks: &[Tok], i: usize, path: &str) -> Option<StaticDef> {
    let mut j = i + 1;
    let is_mut = toks.get(j).is_some_and(|t| t.text == "mut");
    if is_mut {
        j += 1;
    }
    let name_tok = toks.get(j).filter(|t| t.kind == TokKind::Ident)?;
    if toks.get(j + 1).map(|t| t.text.as_str()) != Some(":") {
        return None;
    }
    let mut type_idents = Vec::new();
    let mut k = j + 2;
    while let Some(t) = toks.get(k) {
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "=" | ";") => break,
            (TokKind::Ident, w) => type_idents.push(w.to_string()),
            _ => {}
        }
        k += 1;
    }
    Some(StaticDef {
        name: name_tok.text.clone(),
        path: path.to_string(),
        line: name_tok.line,
        is_mut,
        type_idents,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_of(src: &str) -> (SymbolGraph, FileAnalysis) {
        let fa = FileAnalysis::new("crates/x/src/lib.rs".to_string(), src);
        let fa2 = FileAnalysis::new("crates/x/src/lib.rs".to_string(), src);
        (SymbolGraph::build(&[&fa]), fa2)
    }

    fn idx(g: &SymbolGraph, q: &str) -> usize {
        g.fns
            .iter()
            .position(|f| f.qualified() == q)
            .unwrap_or_else(|| panic!("no fn {q} in {:?}", g.fns))
    }

    #[test]
    fn indexes_fns_with_impl_context() {
        let src = "impl GpuLane {\n\
                   \x20   fn handle(&mut self) { self.helper(); }\n\
                   \x20   fn helper(&mut self) { free(); }\n\
                   }\n\
                   impl HostState { fn handle(&mut self) { locked(); } }\n\
                   fn free() {}\n\
                   fn locked() {}\n";
        let (g, _) = graph_of(src);
        assert_eq!(g.fns.len(), 5);
        assert_eq!(g.fns[0].qualified(), "GpuLane::handle");
        assert_eq!(g.fns[3].qualified(), "free");
    }

    #[test]
    fn self_calls_resolve_within_the_impl_type() {
        let src = "impl GpuLane { fn run(&mut self) { self.handle() } fn handle(&self) {} }\n\
                   impl HostState { fn handle(&self) { cross() } }\n\
                   fn cross() {}\n";
        let (g, _) = graph_of(src);
        let run = idx(&g, "GpuLane::run");
        let gl_handle = idx(&g, "GpuLane::handle");
        let hs_handle = idx(&g, "HostState::handle");
        assert_eq!(g.calls[run], vec![gl_handle]);
        let reach = g.reachable_from(&[run]);
        assert!(reach.contains_key(&gl_handle));
        assert!(
            !reach.contains_key(&hs_handle),
            "self-dispatch must not leak"
        );
    }

    #[test]
    fn method_and_qualified_calls_are_conservative() {
        let src = "impl A { fn go(&self, b: &B) { b.step(); C::leap(); } }\n\
                   impl B { fn step(&self) {} }\n\
                   impl C { fn leap() {} fn other() {} }\n\
                   fn step() {}\n";
        let (g, _) = graph_of(src);
        let go = idx(&g, "A::go");
        let callees: Vec<String> = g.calls[go].iter().map(|&i| g.fns[i].qualified()).collect();
        // `.step()` hits the method, not the free fn; `C::leap()` hits only C's.
        assert!(callees.contains(&"B::step".to_string()), "{callees:?}");
        assert!(!callees.contains(&"step".to_string()), "{callees:?}");
        assert!(callees.contains(&"C::leap".to_string()), "{callees:?}");
        assert!(!callees.contains(&"C::other".to_string()), "{callees:?}");
    }

    #[test]
    fn bare_calls_prefer_free_fns_and_chains_stay_sound() {
        let src = "impl GpuLane { fn h(&self) { a() } }\n\
                   fn a() { b() }\n\
                   fn b() { c() }\n\
                   fn c() {}\n\
                   fn orphan() {}\n";
        let (g, _) = graph_of(src);
        let roots = g.fns_of_type("GpuLane");
        let reach = g.reachable_from(&roots);
        for q in ["a", "b", "c"] {
            assert!(reach.contains_key(&idx(&g, q)), "chain to {q} dropped");
        }
        assert!(!reach.contains_key(&idx(&g, "orphan")));
        // Witness chains resolve back to the root.
        assert_eq!(g.root_of(&reach, idx(&g, "c")), idx(&g, "GpuLane::h"));
    }

    #[test]
    fn generic_impls_and_trait_impls_resolve_self_type() {
        let src = "impl<T: Clone> Wrap<T> { fn get(&self) {} }\n\
                   impl fmt::Display for Lane { fn fmt(&self) { self.width() } }\n\
                   impl Lane { fn width(&self) {} }\n";
        let (g, _) = graph_of(src);
        assert_eq!(g.fns[0].qualified(), "Wrap::get");
        assert_eq!(g.fns[1].qualified(), "Lane::fmt");
        let fmt = idx(&g, "Lane::fmt");
        assert_eq!(g.calls[fmt], vec![idx(&g, "Lane::width")]);
    }

    #[test]
    fn bodyless_and_keyword_shapes_do_not_confuse_the_scan() {
        let src = "trait T { fn sig(&self); fn with_default(&self) { real() } }\n\
                   fn real() { if (1 > 0) { while (false) {} } }\n\
                   fn arrow_bound<F: Fn() -> u64>(f: F) { f(); }\n";
        let (g, _) = graph_of(src);
        let sig = idx(&g, "sig");
        assert!(g.fns[sig].span.is_none(), "trait signature has no body");
        let with_default = idx(&g, "with_default");
        assert_eq!(g.calls[with_default], vec![idx(&g, "real")]);
        // `if (`/`while (` are not calls; `f(` matches no workspace fn.
        assert!(g.calls[idx(&g, "real")].is_empty());
        assert!(g.calls[idx(&g, "arrow_bound")].is_empty());
    }

    #[test]
    fn witness_forest_survives_call_cycles() {
        // A cycle closing back onto the root must not overwrite the root's
        // self-parent in the witness map — `root_of` would chase the
        // resulting parent loop forever. (Regression: `reachable_from` used
        // a plain `insert`, which replaces on revisit.)
        let src = "impl GpuLane { fn on_x(&mut self) { step(1) } }\n\
                   fn step(n: u64) { again(n) }\n\
                   fn again(n: u64) { step(n) }\n";
        let (g, _) = graph_of(src);
        let on_x = idx(&g, "GpuLane::on_x");
        let reach = g.reachable_from(&[on_x]);
        assert_eq!(reach[&on_x], on_x, "root keeps its self-parent");
        for &f in reach.keys() {
            assert_eq!(g.root_of(&reach, f), on_x);
        }
    }

    #[test]
    fn arity_severs_recycle_style_collisions() {
        // The PR 8 false positive in miniature: a handler calls a 0-arg
        // `.recycle()`, and an unrelated type has a 1-arg `recycle`. Name
        // resolution alone connects them; arity filtering must not.
        let src = "impl GpuLane { fn on_x(&mut self, q: &mut LaneQueue) { q.recycle(); } }\n\
                   impl LaneQueue { fn recycle(&mut self) {} }\n\
                   impl System { fn recycle(&mut self, pool: QueuePool) { teardown(pool) } }\n\
                   fn teardown(pool: QueuePool) { drop(pool); }\n";
        let (g, _) = graph_of(src);
        let on_x = idx(&g, "GpuLane::on_x");
        let callees: Vec<String> = g.calls[on_x]
            .iter()
            .map(|&i| g.fns[i].qualified())
            .collect();
        assert!(
            callees.contains(&"LaneQueue::recycle".to_string()),
            "{callees:?}"
        );
        assert!(
            !callees.contains(&"System::recycle".to_string()),
            "{callees:?}"
        );
    }

    #[test]
    fn matching_arity_still_resolves_methods() {
        let src = "impl System { fn run(&mut self, pool: QueuePool) { self.recycle(pool); } \n\
                   \x20   fn recycle(&mut self, pool: QueuePool) { drop(pool) } }\n";
        let (g, _) = graph_of(src);
        let run = idx(&g, "System::run");
        assert_eq!(g.calls[run], vec![idx(&g, "System::recycle")]);
    }

    #[test]
    fn qualified_calls_accept_ufcs_receiver() {
        // `T::g(recv, a)` may be UFCS on a `&self` method taking one arg.
        let src = "fn driver(s: &Lane) { Lane::push(s, 1); Lane::clear(s); }\n\
                   impl Lane { fn push(&self, v: u64) { drop(v) } fn clear(&self) {} \n\
                   \x20   fn push3(&self, a: u64, b: u64, c: u64) { drop((a, b, c)) } }\n";
        let (g, _) = graph_of(src);
        let driver = idx(&g, "driver");
        let callees: Vec<String> = g.calls[driver]
            .iter()
            .map(|&i| g.fns[i].qualified())
            .collect();
        assert!(callees.contains(&"Lane::push".to_string()), "{callees:?}");
        assert!(callees.contains(&"Lane::clear".to_string()), "{callees:?}");
        assert!(!callees.contains(&"Lane::push3".to_string()), "{callees:?}");
    }

    #[test]
    fn unknown_arity_sites_keep_every_candidate() {
        // Closures and comparisons at the top level of the argument list
        // make comma counting unreliable; the filter must stand down.
        let src = "fn caller(xs: &[u64], a: u64, b: u64) { apply(|x, y| x + y); gate(a < b); }\n\
                   fn apply(f: F) { drop(f) }\n\
                   fn gate(cond: bool, label: &str) { drop((cond, label)) }\n";
        let (g, _) = graph_of(src);
        let caller = idx(&g, "caller");
        let callees: Vec<String> = g.calls[caller]
            .iter()
            .map(|&i| g.fns[i].qualified())
            .collect();
        // `apply(|x, y| …)` has 2 top-level commas' worth of noise but still
        // resolves; `gate(a < b)` passes 1 arg to a 2-arg fn yet survives
        // because `<` poisons the count.
        assert!(callees.contains(&"apply".to_string()), "{callees:?}");
        assert!(callees.contains(&"gate".to_string()), "{callees:?}");
    }

    #[test]
    fn generic_parameter_types_count_as_one_param() {
        let src = "fn caller(m: DetHashMap<u64, u64>) { sink(m); sink2(m, 0); }\n\
                   fn sink(m: DetHashMap<u64, u64>) { drop(m) }\n\
                   fn sink2(m: DetHashMap<u64, Vec<(u64, u64)>>, k: u64) { drop((m, k)) }\n";
        let (g, _) = graph_of(src);
        let caller = idx(&g, "caller");
        let callees: Vec<String> = g.calls[caller]
            .iter()
            .map(|&i| g.fns[i].qualified())
            .collect();
        assert!(callees.contains(&"sink".to_string()), "{callees:?}");
        assert!(callees.contains(&"sink2".to_string()), "{callees:?}");
    }

    #[test]
    fn trailing_commas_and_nested_calls_count_cleanly() {
        let src = "fn caller() { two(one(), one(),); zero(); }\n\
                   fn one() -> u64 { 1 }\n\
                   fn two(a: u64, b: u64) { drop((a, b)) }\n\
                   fn zero() {}\n\
                   fn zero_not(a: u64) { drop(a) }\n";
        let (g, _) = graph_of(src);
        let caller = idx(&g, "caller");
        let callees: Vec<String> = g.calls[caller]
            .iter()
            .map(|&i| g.fns[i].qualified())
            .collect();
        assert!(callees.contains(&"two".to_string()), "{callees:?}");
        assert!(callees.contains(&"zero".to_string()), "{callees:?}");
        assert!(!callees.contains(&"zero_not".to_string()), "{callees:?}");
    }

    #[test]
    fn statics_are_indexed_with_mutability_and_type() {
        let src = "static mut RAW: u64 = 0;\n\
                   static COUNTER: AtomicU64 = AtomicU64::new(0);\n\
                   fn f(s: &'static str) { drop(s); }\n";
        let (g, _) = graph_of(src);
        assert_eq!(g.statics.len(), 2, "{:?}", g.statics);
        assert!(g.statics[0].is_mut);
        assert_eq!(g.statics[1].name, "COUNTER");
        assert!(g.statics[1].type_idents.contains(&"AtomicU64".to_string()));
    }
}
