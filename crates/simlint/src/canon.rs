//! The `canon-coverage` rule: keeps `mgpu_system::canon` honest.
//!
//! `canon::job_key` identifies a simulation cell by the canonical text
//! encodings of `SystemConfig`/`WorkloadSpec`, so a config field that canon
//! does not encode makes *distinct* configs share one key — anything keyed
//! on it (result reuse, cell dedupe) then returns stale results. This
//! module cross-checks, at lint time:
//!
//! 1. **Coverage** — every member of every type in [`CANON_COVERED`] is
//!    mentioned by the encoder/decoder bodies in `canon.rs` (as an
//!    identifier, e.g. a field access or match arm, or as a word inside a
//!    string literal, e.g. the `"gpu.cus"` key). A member that is genuinely
//!    not part of the canonical identity can be waived with an inline
//!    `// simlint: allow(canon-coverage) — <why>` on its declaration.
//! 2. **Versioning** — the committed shape snapshot (`simlint.canon` at the
//!    workspace root, regenerated with `simlint --write-canon`) records each
//!    covered type's member list together with the canon version string in
//!    effect when it was written. Changing a type's shape without bumping
//!    the matching `# idyll-canon <kind> vN` header in `canon.rs` is an
//!    error — even for waived members, because a cache key must never
//!    survive a shape change (over-invalidation is safe; silence is not).
//!
//! The whole check is skipped for workspaces without a `canon.rs` (the
//! plain lint fixtures), and generalizes to fixture workspaces that ship
//! their own miniature `canon.rs`.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Tok, TokKind};
use crate::{matching_close, Diagnostic, FileAnalysis, Rule};

/// Which canon encoding family a covered type belongs to; selects the
/// `# idyll-canon <kind> vN` header whose version gates its shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CanonKind {
    /// `SystemConfig` and everything reachable from it.
    Config,
    /// `WorkloadSpec`.
    Spec,
    /// `SimReport` and its aggregates.
    Report,
}

impl CanonKind {
    /// The lowercase word used in headers and the snapshot file.
    #[must_use]
    pub fn word(self) -> &'static str {
        match self {
            CanonKind::Config => "config",
            CanonKind::Spec => "spec",
            CanonKind::Report => "report",
        }
    }

    fn from_word(w: &str) -> Option<CanonKind> {
        match w {
            "config" => Some(CanonKind::Config),
            "spec" => Some(CanonKind::Spec),
            "report" => Some(CanonKind::Report),
            _ => None,
        }
    }
}

/// The registry: every struct/enum whose value participates in a canonical
/// encoding, and the version header that gates its shape. Types listed here
/// but absent from the scanned workspace are ignored, so fixtures can cover
/// a subset.
///
/// `AppId` is deliberately absent: canon encodes it through its total
/// `name()`/`from_name()` mapping, which is shape-independent.
pub const CANON_COVERED: &[(&str, CanonKind)] = &[
    ("SystemConfig", CanonKind::Config),
    ("GpuConfig", CanonKind::Config),
    ("GmmuConfig", CanonKind::Config),
    ("TlbConfig", CanonKind::Config),
    ("WalkerConfig", CanonKind::Config),
    ("IdyllConfig", CanonKind::Config),
    ("IrmbConfig", CanonKind::Config),
    ("TransFwConfig", CanonKind::Config),
    ("InterconnectConfig", CanonKind::Config),
    ("HostConfig", CanonKind::Config),
    ("DirectoryMode", CanonKind::Config),
    ("CtaSchedule", CanonKind::Config),
    ("MigrationPolicy", CanonKind::Config),
    ("IrmbReplacement", CanonKind::Config),
    ("PageSize", CanonKind::Config),
    ("WorkloadSpec", CanonKind::Spec),
    ("SimReport", CanonKind::Report),
    ("WalkerMix", CanonKind::Report),
    ("Accumulator", CanonKind::Report),
];

/// One member of a covered type, as recorded in the snapshot.
///
/// - struct field: `field_name`
/// - enum variant: `Variant`
/// - enum struct-payload field: `Variant.field`
/// - enum tuple-payload arity marker: `Variant/N`
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Member {
    text: String,
    line: usize,
}

/// A covered type's parsed shape.
#[derive(Debug)]
pub(crate) struct TypeShape {
    name: String,
    kind: CanonKind,
    is_enum: bool,
    path: String,
    line: usize,
    members: Vec<Member>,
}

impl TypeShape {
    fn kind_word(&self) -> &'static str {
        if self.is_enum {
            "enum"
        } else {
            "struct"
        }
    }

    /// Sorted member texts — the snapshot payload. Sorted so that pure
    /// declaration reordering (which cannot affect the canonical encoding)
    /// is not reported as a shape change.
    fn sorted_members(&self) -> Vec<String> {
        let mut m: Vec<String> = self.members.iter().map(|f| f.text.clone()).collect();
        m.sort();
        m.dedup();
        m
    }
}

fn is_punct(t: &Tok, text: &str) -> bool {
    t.kind == TokKind::Punct && t.text == text
}

/// Skips a `#[...]` attribute starting at `i` (the `#`); returns the index
/// past the closing `]`, or `i + 1` when the shape is not an attribute.
fn skip_attr(toks: &[Tok], i: usize) -> usize {
    if toks.get(i + 1).is_some_and(|t| is_punct(t, "[")) {
        if let Some(close) = matching_close(toks, i + 1) {
            return close + 1;
        }
    }
    i + 1
}

/// Skips a balanced `<...>` generic list starting at `i` (the `<`).
fn skip_generics(toks: &[Tok], i: usize) -> usize {
    let mut depth = 0usize;
    let mut j = i;
    while j < toks.len() {
        if is_punct(&toks[j], "<") {
            depth += 1;
        } else if is_punct(&toks[j], ">") {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

/// Counts top-level comma-separated elements between `open` and `close`
/// (exclusive); 0 for an empty list.
fn tuple_arity(toks: &[Tok], open: usize, close: usize) -> usize {
    if close <= open + 1 {
        return 0;
    }
    let mut depth = 0usize;
    let mut arity = 1usize;
    for t in &toks[open + 1..close] {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" | "<" => depth += 1,
                ")" | "]" | "}" | ">" => depth = depth.saturating_sub(1),
                "," if depth == 0 => arity += 1,
                _ => {}
            }
        }
    }
    arity
}

/// Parses the fields of a struct body starting at `open` (the `{`),
/// recording `(prefix + name, line)` for each field. Returns the index past
/// the closing `}`.
fn parse_struct_body(toks: &[Tok], open: usize, prefix: &str, out: &mut Vec<Member>) -> usize {
    let end = matching_close(toks, open).unwrap_or(toks.len().saturating_sub(1));
    let mut k = open + 1;
    while k < end {
        let t = &toks[k];
        if is_punct(t, "#") {
            k = skip_attr(toks, k);
            continue;
        }
        if t.kind == TokKind::Ident && t.text == "pub" {
            k += 1;
            if toks.get(k).is_some_and(|t| is_punct(t, "(")) {
                k = matching_close(toks, k).map_or(k + 1, |c| c + 1);
            }
            continue;
        }
        if t.kind == TokKind::Ident {
            out.push(Member {
                text: format!("{prefix}{}", t.text),
                line: t.line,
            });
            k += 1;
            // Skip `: Type` up to the next top-level comma.
            let mut depth = 0usize;
            while k < end {
                let t = &toks[k];
                if t.kind == TokKind::Punct {
                    match t.text.as_str() {
                        "(" | "[" | "{" | "<" => depth += 1,
                        ")" | "]" | "}" | ">" => depth = depth.saturating_sub(1),
                        "," if depth == 0 => {
                            k += 1;
                            break;
                        }
                        _ => {}
                    }
                }
                k += 1;
            }
            continue;
        }
        k += 1;
    }
    end + 1
}

/// Parses the variants of an enum body starting at `open` (the `{`).
fn parse_enum_body(toks: &[Tok], open: usize, out: &mut Vec<Member>) -> usize {
    let end = matching_close(toks, open).unwrap_or(toks.len().saturating_sub(1));
    let mut k = open + 1;
    while k < end {
        let t = &toks[k];
        if is_punct(t, "#") {
            k = skip_attr(toks, k);
            continue;
        }
        if t.kind == TokKind::Ident {
            let variant = t.text.clone();
            out.push(Member {
                text: variant.clone(),
                line: t.line,
            });
            k += 1;
            match toks.get(k) {
                Some(t) if is_punct(t, "(") => {
                    let close = matching_close(toks, k).unwrap_or(end);
                    out.push(Member {
                        text: format!("{variant}/{}", tuple_arity(toks, k, close)),
                        line: toks[k].line,
                    });
                    k = close + 1;
                }
                Some(t) if is_punct(t, "{") => {
                    k = parse_struct_body(toks, k, &format!("{variant}."), out);
                }
                Some(t) if is_punct(t, "=") => {
                    while k < end && !is_punct(&toks[k], ",") {
                        k += 1;
                    }
                }
                _ => {}
            }
            continue;
        }
        k += 1;
    }
    end + 1
}

/// Finds every covered type defined in the scanned files.
pub(crate) fn find_types(files: &[FileAnalysis]) -> Vec<TypeShape> {
    let mut out = Vec::new();
    for fa in files {
        let toks = &fa.toks;
        let mut i = 0;
        while i < toks.len() {
            let t = &toks[i];
            let is_def = t.kind == TokKind::Ident && (t.text == "struct" || t.text == "enum");
            if !is_def {
                i += 1;
                continue;
            }
            let Some(name_tok) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) else {
                i += 1;
                continue;
            };
            let Some(&(name, kind)) = CANON_COVERED
                .iter()
                .find(|(n, _)| *n == name_tok.text.as_str())
            else {
                i += 2;
                continue;
            };
            let is_enum = t.text == "enum";
            let mut j = i + 2;
            if toks.get(j).is_some_and(|t| is_punct(t, "<")) {
                j = skip_generics(toks, j);
            }
            let mut members = Vec::new();
            match toks.get(j) {
                Some(t) if is_punct(t, "{") => {
                    j = if is_enum {
                        parse_enum_body(toks, j, &mut members)
                    } else {
                        parse_struct_body(toks, j, "", &mut members)
                    };
                }
                Some(t) if is_punct(t, "(") => {
                    let close = matching_close(toks, j).unwrap_or(toks.len() - 1);
                    members.push(Member {
                        text: format!("/{}", tuple_arity(toks, j, close)),
                        line: t.line,
                    });
                    j = close + 1;
                }
                _ => {}
            }
            out.push(TypeShape {
                name: name.to_string(),
                kind,
                is_enum,
                path: fa.path.clone(),
                line: name_tok.line,
                members,
            });
            i = j.max(i + 2);
        }
    }
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

/// The canon source file, if the workspace has one.
fn canon_file(files: &[FileAnalysis]) -> Option<&FileAnalysis> {
    files
        .iter()
        .find(|f| f.path == "canon.rs" || f.path.ends_with("/canon.rs"))
}

/// Everything `canon.rs` "mentions": identifiers in its code (field
/// accesses, match arms, function names) plus words inside its string
/// literals (encoding keys like `"gpu.cus"` contribute `gpu` and `cus`).
fn mentions(canon: &FileAnalysis) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for t in &canon.toks {
        match t.kind {
            TokKind::Ident => {
                out.insert(t.text.clone());
            }
            TokKind::Str => {
                for w in t
                    .text
                    .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                    .filter(|w| !w.is_empty())
                {
                    out.insert(w.to_string());
                }
            }
            _ => {}
        }
    }
    out
}

fn is_version_word(w: &str) -> bool {
    w.len() >= 2 && w.starts_with('v') && w[1..].chars().all(|c| c.is_ascii_digit())
}

/// Extracts the `# idyll-canon <kind> vN` version headers from the string
/// literals of `canon.rs`: any string whose words contain an adjacent
/// `<kind> vN` pair declares that kind's version (first occurrence wins).
fn versions(canon: &FileAnalysis) -> BTreeMap<CanonKind, String> {
    let mut out = BTreeMap::new();
    for t in &canon.toks {
        if t.kind != TokKind::Str {
            continue;
        }
        let words: Vec<&str> = t
            .text
            .split(|c: char| !(c.is_alphanumeric() || c == '_'))
            .filter(|w| !w.is_empty())
            .collect();
        for w in words.windows(2) {
            if let Some(kind) = CanonKind::from_word(w[0]) {
                if is_version_word(w[1]) {
                    out.entry(kind).or_insert_with(|| w[1].to_string());
                }
            }
        }
    }
    out
}

/// One parsed `simlint.canon` entry.
struct SnapEntry {
    kind_word: String,
    version: String,
    members: Vec<String>,
}

/// Parses the snapshot file: `<Type> <struct|enum> <vN> <members...>` per
/// line, `#` comments and blanks ignored.
fn parse_snapshot(text: &str) -> Result<BTreeMap<String, SnapEntry>, String> {
    let mut out = BTreeMap::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(name), Some(kind_word), Some(version)) =
            (parts.next(), parts.next(), parts.next())
        else {
            return Err(format!(
                "simlint.canon line {}: expected `<Type> <struct|enum> <vN> <members...>`",
                i + 1
            ));
        };
        if kind_word != "struct" && kind_word != "enum" {
            return Err(format!(
                "simlint.canon line {}: kind must be `struct` or `enum`, got `{kind_word}`",
                i + 1
            ));
        }
        if !is_version_word(version) {
            return Err(format!(
                "simlint.canon line {}: version must look like `v1`, got `{version}`",
                i + 1
            ));
        }
        let mut members: Vec<String> = parts.map(str::to_string).collect();
        members.sort();
        members.dedup();
        if out
            .insert(
                name.to_string(),
                SnapEntry {
                    kind_word: kind_word.to_string(),
                    version: version.to_string(),
                    members,
                },
            )
            .is_some()
        {
            return Err(format!(
                "simlint.canon line {}: duplicate entry for `{name}`",
                i + 1
            ));
        }
    }
    Ok(out)
}

/// Renders the snapshot for the scanned workspace; `None` when the
/// workspace has no `canon.rs`.
pub(crate) fn render_snapshot(files: &[FileAnalysis]) -> Option<String> {
    let canon = canon_file(files)?;
    let vers = versions(canon);
    let types = find_types(files);
    let mut out = String::from(
        "# simlint canon shape snapshot — regenerate with `simlint --write-canon` and commit.\n\
         # One `<Type> <struct|enum> <canon-version> <members...>` per line; a shape change\n\
         # without a canon version bump in canon.rs is a canon-coverage error.\n",
    );
    for t in &types {
        let version = vers.get(&t.kind).map_or("v0", String::as_str);
        out.push_str(&t.name);
        out.push(' ');
        out.push_str(t.kind_word());
        out.push(' ');
        out.push_str(version);
        for m in t.sorted_members() {
            out.push(' ');
            out.push_str(&m);
        }
        out.push('\n');
    }
    Some(out)
}

/// The member name to check against the mention set, or `None` for
/// snapshot-only members (tuple arity markers).
fn mention_key(member: &str) -> Option<&str> {
    if member.contains('/') {
        return None;
    }
    Some(member.rsplit('.').next().unwrap_or(member))
}

/// Runs the canon-coverage check over the whole scanned workspace.
///
/// # Errors
/// Returns `Err` only for an unparseable snapshot file; findings go into
/// `diags`.
pub(crate) fn check(
    files: &[FileAnalysis],
    snapshot: Option<&str>,
    diags: &mut Vec<Diagnostic>,
) -> Result<(), String> {
    let Some(canon) = canon_file(files) else {
        return Ok(()); // No canon.rs: nothing to cover (plain fixtures).
    };
    let mentioned = mentions(canon);
    let vers = versions(canon);
    let types = find_types(files);

    let lookup = |path: &str| files.iter().find(|f| f.path == path);
    let mut push = |path: &str, line: usize, message: String| {
        let allowed = lookup(path).is_some_and(|f| f.allowed(Rule::CanonCoverage, line));
        if !allowed {
            diags.push(Diagnostic {
                rule: Rule::CanonCoverage,
                path: path.to_string(),
                line,
                col: 1,
                len: 1,
                message,
            });
        }
    };

    // Missing version headers, reported once per kind in use.
    let mut missing_header: BTreeSet<CanonKind> = BTreeSet::new();
    for t in &types {
        if !vers.contains_key(&t.kind) {
            missing_header.insert(t.kind);
        }
    }
    for kind in &missing_header {
        push(
            &canon.path,
            1,
            format!(
                "no `{0}` canon version header found; declare one as a string literal containing `{0} vN`",
                kind.word()
            ),
        );
    }

    // Coverage: every member mentioned or waived.
    for t in &types {
        for m in &t.members {
            let Some(key) = mention_key(&m.text) else {
                continue;
            };
            if !mentioned.contains(key) {
                let what = if t.is_enum {
                    format!("variant member `{}::{}`", t.name, m.text)
                } else {
                    format!("field `{}.{}`", t.name, m.text)
                };
                push(
                    &t.path,
                    m.line,
                    format!(
                        "{what} is not mentioned by the canonical encoding in {}; encode it, or waive with `// simlint: allow(canon-coverage) — <why>` (waived members still require a canon version bump)",
                        canon.path
                    ),
                );
            }
        }
    }

    // Shape snapshot.
    let Some(snapshot) = snapshot else {
        if !types.is_empty() {
            push(
                &canon.path,
                1,
                "canon shape snapshot `simlint.canon` is missing; run `simlint --write-canon` and commit the result".to_string(),
            );
        }
        return Ok(());
    };
    let snap = parse_snapshot(snapshot)?;
    for t in &types {
        let Some(version) = vers.get(&t.kind) else {
            continue; // Already reported as a missing header.
        };
        let Some(entry) = snap.get(&t.name) else {
            push(
                &t.path,
                t.line,
                format!(
                    "`{}` is canon-covered but has no simlint.canon entry; run `simlint --write-canon`",
                    t.name
                ),
            );
            continue;
        };
        let now = t.sorted_members();
        let shape_changed = entry.members != now || entry.kind_word != t.kind_word();
        let version_changed = &entry.version != version;
        if shape_changed && !version_changed {
            let added: Vec<&str> = now
                .iter()
                .filter(|m| !entry.members.contains(m))
                .map(String::as_str)
                .collect();
            let removed: Vec<&str> = entry
                .members
                .iter()
                .filter(|m| !now.contains(m))
                .map(String::as_str)
                .collect();
            let mut delta = String::new();
            if !added.is_empty() {
                delta.push_str(&format!(" added: {}.", added.join(", ")));
            }
            if !removed.is_empty() {
                delta.push_str(&format!(" removed: {}.", removed.join(", ")));
            }
            push(
                &t.path,
                t.line,
                format!(
                    "shape of `{}` changed without a canon {} version bump ({} in both).{delta} Bump the `{} {}` header in {}, update the encoding, then run `simlint --write-canon`",
                    t.name,
                    t.kind.word(),
                    version,
                    t.kind.word(),
                    version,
                    canon.path
                ),
            );
        } else if shape_changed && version_changed {
            push(
                &t.path,
                t.line,
                format!(
                    "`{}` changed shape and the canon {} version moved {} → {version}; refresh the snapshot with `simlint --write-canon`",
                    t.name,
                    t.kind.word(),
                    entry.version
                ),
            );
        } else if version_changed {
            push(
                &t.path,
                t.line,
                format!(
                    "canon {} version is now {version} but simlint.canon records {} for `{}`; run `simlint --write-canon`",
                    t.kind.word(),
                    entry.version,
                    t.name
                ),
            );
        }
    }
    for name in snap.keys() {
        if !types.iter().any(|t| &t.name == name) {
            push(
                &canon.path,
                1,
                format!(
                    "simlint.canon lists `{name}` but no such covered type exists in the workspace; run `simlint --write-canon`"
                ),
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fa(path: &str, src: &str) -> FileAnalysis {
        FileAnalysis::new(path.to_string(), src)
    }

    const MINI_CANON: &str = r##"
        const CONFIG_HEADER: &str = "# idyll-canon config v1";
        pub fn encode_config(c: &GmmuConfig, out: &mut String) {
            kv(out, "gmmu.levels", c.levels);
            kv(out, "gmmu.pwc-entries", c.pwc_entries);
            kv(out, "gmmu.walk-queue-entries", c.walk_queue_entries);
            kv(out, "gmmu.walker-threads", c.walker_threads);
        }
    "##;

    const GMMU: &str = "pub struct GmmuConfig {\n\
        pub levels: u32,\n\
        pub pwc_entries: usize,\n\
        pub walk_queue_entries: usize,\n\
        pub walker_threads: usize,\n\
        }\n";

    fn run(files: &[FileAnalysis], snapshot: Option<&str>) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        check(files, snapshot, &mut diags).unwrap();
        diags
    }

    #[test]
    fn parses_struct_and_enum_shapes() {
        let src = "pub struct GmmuConfig { pub levels: u32, #[serde] pub(crate) walker_threads: usize }\n\
                   pub enum DirectoryMode { Broadcast, InPte { access_bits: bool }, InMem }\n\
                   pub enum CtaSchedule { RoundRobin, BlockCyclic(usize) }\n";
        let types = find_types(&[fa("crates/x/src/config.rs", src)]);
        let names: Vec<&str> = types.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, vec!["CtaSchedule", "DirectoryMode", "GmmuConfig"]);
        let gmmu = types.iter().find(|t| t.name == "GmmuConfig").unwrap();
        assert_eq!(gmmu.sorted_members(), vec!["levels", "walker_threads"]);
        let dir = types.iter().find(|t| t.name == "DirectoryMode").unwrap();
        assert_eq!(
            dir.sorted_members(),
            vec!["Broadcast", "InMem", "InPte", "InPte.access_bits"]
        );
        let cta = types.iter().find(|t| t.name == "CtaSchedule").unwrap();
        assert_eq!(
            cta.sorted_members(),
            vec!["BlockCyclic", "BlockCyclic/1", "RoundRobin"]
        );
    }

    #[test]
    fn generic_and_multiline_types_parse() {
        let src = "pub struct TlbConfig\n{\n    pub entries: usize,\n    pub ways:\n        usize,\n    pub latency: Cycle,\n}\n";
        let types = find_types(&[fa("x.rs", src)]);
        assert_eq!(
            types[0].sorted_members(),
            vec!["entries", "latency", "ways"]
        );
    }

    #[test]
    fn no_canon_file_means_no_findings() {
        assert!(run(&[fa("crates/x/src/config.rs", GMMU)], None).is_empty());
    }

    #[test]
    fn covered_fields_pass_and_uncovered_fail() {
        let files = vec![
            fa("crates/x/src/canon.rs", MINI_CANON),
            fa("crates/x/src/config.rs", GMMU),
        ];
        let snap = render_snapshot(&files).unwrap();
        assert!(run(&files, Some(&snap)).is_empty());

        // Add a field canon.rs knows nothing about.
        let grown = GMMU.replace(
            "pub walker_threads: usize,\n",
            "pub walker_threads: usize,\npub prefetch_depth: usize,\n",
        );
        let files2 = vec![
            fa("crates/x/src/canon.rs", MINI_CANON),
            fa("crates/x/src/config.rs", &grown),
        ];
        let d = run(&files2, Some(&snap));
        assert!(
            d.iter().any(
                |d| d.message.contains("prefetch_depth") && d.message.contains("not mentioned")
            ),
            "{d:?}"
        );
        assert!(
            d.iter()
                .any(|d| d.message.contains("without a canon config version bump")),
            "{d:?}"
        );
    }

    #[test]
    fn waived_field_still_requires_version_bump() {
        let grown = GMMU.replace(
            "pub walker_threads: usize,\n",
            "pub walker_threads: usize,\n// simlint: allow(canon-coverage) — derived, not identity\npub cached_total: usize,\n",
        );
        let files = vec![
            fa("crates/x/src/canon.rs", MINI_CANON),
            fa("crates/x/src/config.rs", &grown),
        ];
        let old_files = vec![
            fa("crates/x/src/canon.rs", MINI_CANON),
            fa("crates/x/src/config.rs", GMMU),
        ];
        let snap = render_snapshot(&old_files).unwrap();
        let d = run(&files, Some(&snap));
        assert!(
            d.iter().all(|d| !d.message.contains("not mentioned")),
            "{d:?}"
        );
        assert!(
            d.iter()
                .any(|d| d.message.contains("without a canon config version bump")),
            "{d:?}"
        );
    }

    #[test]
    fn version_bump_plus_refresh_clears_shape_change() {
        let grown = GMMU.replace(
            "pub walker_threads: usize,\n",
            "pub walker_threads: usize,\npub prefetch_depth: usize,\n",
        );
        let canon2 = MINI_CANON.replace("config v1", "config v2").replace(
            "c.walker_threads);",
            "c.walker_threads);\n            kv(out, \"gmmu.prefetch-depth\", c.prefetch_depth);",
        );
        let files = vec![
            fa("crates/x/src/canon.rs", &canon2),
            fa("crates/x/src/config.rs", &grown),
        ];
        // Stale snapshot (old shape, old version) → must demand a refresh.
        let old_files = vec![
            fa("crates/x/src/canon.rs", MINI_CANON),
            fa("crates/x/src/config.rs", GMMU),
        ];
        let stale = render_snapshot(&old_files).unwrap();
        let d = run(&files, Some(&stale));
        assert!(
            d.iter().any(|d| d.message.contains("refresh the snapshot")),
            "{d:?}"
        );
        // Refreshed snapshot → clean.
        let fresh = render_snapshot(&files).unwrap();
        assert!(run(&files, Some(&fresh)).is_empty());
    }

    #[test]
    fn version_bump_without_shape_change_demands_refresh() {
        let canon2 = MINI_CANON.replace("config v1", "config v2");
        let old = render_snapshot(&[
            fa("crates/x/src/canon.rs", MINI_CANON),
            fa("crates/x/src/config.rs", GMMU),
        ])
        .unwrap();
        let files = vec![
            fa("crates/x/src/canon.rs", &canon2),
            fa("crates/x/src/config.rs", GMMU),
        ];
        let d = run(&files, Some(&old));
        assert!(d.iter().any(|d| d.message.contains("records v1")), "{d:?}");
    }

    #[test]
    fn missing_snapshot_and_stale_entry_are_reported() {
        let files = vec![
            fa("crates/x/src/canon.rs", MINI_CANON),
            fa("crates/x/src/config.rs", GMMU),
        ];
        let d = run(&files, None);
        assert!(d
            .iter()
            .any(|d| d.message.contains("snapshot `simlint.canon` is missing")));

        let snap = "GmmuConfig struct v1 levels pwc_entries walk_queue_entries walker_threads\n\
                    TlbConfig struct v1 entries latency ways\n";
        let d = run(&files, Some(snap));
        assert!(
            d.iter().any(|d| d.message.contains("lists `TlbConfig`")),
            "{d:?}"
        );
    }

    #[test]
    fn missing_header_is_reported() {
        let no_header = "pub fn encode_config(c: &GmmuConfig, out: &mut String) {\n\
            kv(out, \"gmmu.levels gmmu.pwc-entries gmmu.walk-queue-entries gmmu.walker-threads\", c.levels + c.pwc_entries + c.walk_queue_entries + c.walker_threads);\n}\n";
        let files = vec![
            fa("crates/x/src/canon.rs", no_header),
            fa("crates/x/src/config.rs", GMMU),
        ];
        let d = run(&files, None);
        assert!(
            d.iter()
                .any(|d| d.message.contains("no `config` canon version header")),
            "{d:?}"
        );
    }

    #[test]
    fn snapshot_parse_errors() {
        assert!(parse_snapshot("GmmuConfig struct\n").is_err());
        assert!(parse_snapshot("GmmuConfig blob v1 a\n").is_err());
        assert!(parse_snapshot("GmmuConfig struct one a\n").is_err());
        assert!(parse_snapshot("A struct v1 x\nA struct v1 x\n").is_err());
        assert!(parse_snapshot("# comment\n\nA struct v1 x y\n").is_ok());
    }
}
