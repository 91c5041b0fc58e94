//! Span/event tracing with a Chrome-trace (Perfetto) JSON exporter.
//!
//! This module records *structured* timeline data: durated spans, instant
//! events and counter samples, each tagged with a category and a track.
//! The export loads directly into
//! [ui.perfetto.dev](https://ui.perfetto.dev) or `chrome://tracing`, so a
//! full translation lifecycle (L2 TLB miss → page-walk queue → walk → far
//! fault → invalidation broadcast → data transfer → replay) renders as one
//! connected timeline.
//!
//! # Tracks
//!
//! Chrome-trace organises events into processes (`pid`) and threads (`tid`).
//! The simulator maps its logical tracks onto them:
//!
//! * one process per requesting GPU, one thread per warp — all
//!   translation-side spans for a warp land on that warp's track;
//! * one process for migrations, one thread per migration id;
//! * one process for the host driver (fault batching, host walkers).
//!
//! Callers name tracks with [`Tracer::set_process_name`] /
//! [`Tracer::set_thread_name`]; both are idempotent.
//!
//! # Cost model
//!
//! A disabled tracer reduces every emission call to a single branch on a
//! bool — no allocation, no formatting — so instrumentation can stay
//! permanently wired into hot paths. Spans are emitted *retroactively* (at
//! completion time, with an explicit start timestamp), which avoids keeping
//! open-span state inside the tracer.
//!
//! # Determinism
//!
//! Events are kept in emission order and rendered with integer timestamps
//! (1 trace microsecond = 1 simulated cycle), so identical simulations
//! produce byte-identical exports.
//!
//! # Example
//!
//! ```
//! use sim_engine::trace::{Track, Tracer};
//! use sim_engine::Cycle;
//!
//! let mut t = Tracer::enabled();
//! t.set_process_name(1, "gpu0");
//! t.set_thread_name(1, 3, "warp3");
//! let track = Track { pid: 1, tid: 3 };
//! t.span("walk", "page walk", track, Cycle(100), Cycle(140), &[("vpn", 0x42)]);
//! t.instant("fault", "far fault raised", track, Cycle(140), &[]);
//! let json = t.to_chrome_json();
//! assert!(json.starts_with("{\"traceEvents\":["));
//! sim_engine::trace::validate_json(&json).unwrap();
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::time::Cycle;

/// A (process, thread) pair locating an event in the timeline view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Track {
    /// Chrome-trace process id (a top-level group in the viewer).
    pub pid: u32,
    /// Chrome-trace thread id (one horizontal track inside the group).
    pub tid: u64,
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
enum TraceEvent {
    Span {
        cat: &'static str,
        name: String,
        track: Track,
        start: Cycle,
        end: Cycle,
        args: Vec<(&'static str, u64)>,
    },
    Instant {
        cat: &'static str,
        name: String,
        track: Track,
        at: Cycle,
        args: Vec<(&'static str, u64)>,
    },
    Counter {
        name: &'static str,
        pid: u32,
        at: Cycle,
        value: u64,
    },
}

impl TraceEvent {
    /// The cycle the event completed: a span's end, otherwise its time.
    fn done_at(&self) -> Cycle {
        match self {
            TraceEvent::Span { end, .. } => *end,
            TraceEvent::Instant { at, .. } | TraceEvent::Counter { at, .. } => *at,
        }
    }
}

/// Every event category the simulator emits: the names a filter may list.
pub const CATEGORIES: [&str; 7] = [
    "tlb",
    "walk",
    "fault",
    "invalidation",
    "migration",
    "driver",
    "counter",
];

/// Collects spans, instants and counter samples for one simulation run.
///
/// See the [module docs](self) for the overall design.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    enabled: bool,
    /// When non-empty, only events whose category is listed are recorded.
    filter: Vec<String>,
    events: Vec<TraceEvent>,
    process_names: BTreeMap<u32, String>,
    thread_names: BTreeMap<(u32, u64), String>,
}

impl Tracer {
    /// A tracer that records nothing; every emission is a single branch.
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// A tracer recording all categories.
    pub fn enabled() -> Self {
        Tracer {
            enabled: true,
            ..Tracer::default()
        }
    }

    /// A tracer recording only the given comma-separated categories
    /// (e.g. `"walk,migration"`). An empty filter records everything.
    ///
    /// # Errors
    /// A name outside [`CATEGORIES`]; the message lists the valid names.
    pub fn with_filter(filter: &str) -> Result<Self, String> {
        let filter: Vec<String> = filter
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(String::from)
            .collect();
        if let Some(bad) = filter.iter().find(|c| !CATEGORIES.contains(&c.as_str())) {
            return Err(format!(
                "unknown trace category `{bad}` (valid: {})",
                CATEGORIES.join(", ")
            ));
        }
        Ok(Tracer {
            enabled: true,
            filter,
            ..Tracer::default()
        })
    }

    /// Whether events are being recorded at all.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    #[inline]
    fn cat_enabled(&self, cat: &str) -> bool {
        self.enabled && (self.filter.is_empty() || self.filter.iter().any(|f| f == cat))
    }

    /// Records a completed span covering `[start, end]` on `track`.
    ///
    /// Called retroactively: the emitter supplies the start time it tracked
    /// itself (the simulator already keeps issue/enqueue timestamps for its
    /// latency accounting).
    #[inline]
    pub fn span(
        &mut self,
        cat: &'static str,
        name: impl Into<String>,
        track: Track,
        start: Cycle,
        end: Cycle,
        args: &[(&'static str, u64)],
    ) {
        if self.cat_enabled(cat) {
            self.events.push(TraceEvent::Span {
                cat,
                name: name.into(),
                track,
                start,
                end: end.max(start),
                args: args.to_vec(),
            });
        }
    }

    /// Records a zero-duration marker at `at` on `track`.
    #[inline]
    pub fn instant(
        &mut self,
        cat: &'static str,
        name: impl Into<String>,
        track: Track,
        at: Cycle,
        args: &[(&'static str, u64)],
    ) {
        if self.cat_enabled(cat) {
            self.events.push(TraceEvent::Instant {
                cat,
                name: name.into(),
                track,
                at,
                args: args.to_vec(),
            });
        }
    }

    /// Records one sample of a counter-over-time series (rendered by
    /// Perfetto as a filled step chart).
    #[inline]
    pub fn counter(&mut self, name: &'static str, pid: u32, at: Cycle, value: u64) {
        if !self.cat_enabled("counter") {
            return;
        }
        self.events.push(TraceEvent::Counter {
            name,
            pid,
            at,
            value,
        });
    }

    /// Names a process track; idempotent, later calls win.
    pub fn set_process_name(&mut self, pid: u32, name: impl Into<String>) {
        if self.enabled {
            self.process_names.insert(pid, name.into());
        }
    }

    /// Names a thread track; idempotent, later calls win.
    pub fn set_thread_name(&mut self, pid: u32, tid: u64, name: impl Into<String>) {
        if self.enabled {
            self.thread_names.insert((pid, tid), name.into());
        }
    }

    /// Creates an empty shard sharing this tracer's enablement and filter.
    ///
    /// The parallel event core gives each lane a fork so handlers record
    /// without synchronisation; [`Tracer::absorb`] folds the shards back in
    /// a fixed lane order, keeping the export deterministic.
    #[must_use]
    pub fn fork(&self) -> Tracer {
        Tracer {
            enabled: self.enabled,
            filter: self.filter.clone(),
            events: Vec::new(),
            process_names: BTreeMap::new(),
            thread_names: BTreeMap::new(),
        }
    }

    /// Appends a shard's events (in their emission order) and merges its
    /// track names; later names win, matching `set_*_name` semantics.
    pub fn absorb(&mut self, shard: Tracer) {
        if !self.enabled {
            return;
        }
        self.events.extend(shard.events);
        self.process_names.extend(shard.process_names);
        self.thread_names.extend(shard.thread_names);
    }

    /// Number of recorded events (metadata excluded).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders the last `n` events, one `Debug` line each, stably sorted by
    /// the cycle each completed (a span's end), oldest first. When events were
    /// left out, a leading line says how many, so a truncated tail is never
    /// mistaken for the full history.
    pub fn tail(&self, n: usize) -> String {
        let mut events: Vec<&TraceEvent> = self.events.iter().collect();
        events.sort_by_key(|e| e.done_at());
        let omitted = events.len().saturating_sub(n);
        let mut out = String::new();
        if omitted > 0 {
            let _ = writeln!(out, "... ({omitted} earlier events omitted)");
        }
        for ev in events.iter().skip(omitted) {
            let _ = writeln!(out, "[{}] {ev:?}", ev.done_at());
        }
        out
    }

    /// Renders the Chrome-trace JSON document.
    ///
    /// Metadata records come first (sorted by pid/tid), then events in
    /// emission order; timestamps are integers (1 µs = 1 simulated cycle),
    /// so the output is byte-identical across identical runs.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if first {
                first = false;
            } else {
                out.push(',');
            }
            out.push('\n');
        };
        for (pid, name) in &self.process_names {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\"args\":{{\"name\":\"{}\"}}}}",
                escape_json(name)
            );
        }
        for ((pid, tid), name) in &self.thread_names {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
                escape_json(name)
            );
        }
        for ev in &self.events {
            sep(&mut out);
            match ev {
                TraceEvent::Span {
                    cat,
                    name,
                    track,
                    start,
                    end,
                    args,
                } => {
                    let _ = write!(
                        out,
                        "{{\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{},\"cat\":\"{}\",\"name\":\"{}\"",
                        track.pid,
                        track.tid,
                        start.raw(),
                        end.saturating_sub(*start).raw(),
                        cat,
                        escape_json(name)
                    );
                    write_args(&mut out, args);
                    out.push('}');
                }
                TraceEvent::Instant {
                    cat,
                    name,
                    track,
                    at,
                    args,
                } => {
                    let _ = write!(
                        out,
                        "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":{},\"tid\":{},\"ts\":{},\"cat\":\"{}\",\"name\":\"{}\"",
                        track.pid,
                        track.tid,
                        at.raw(),
                        cat,
                        escape_json(name)
                    );
                    write_args(&mut out, args);
                    out.push('}');
                }
                TraceEvent::Counter {
                    name,
                    pid,
                    at,
                    value,
                } => {
                    let _ = write!(
                        out,
                        "{{\"ph\":\"C\",\"pid\":{pid},\"ts\":{},\"name\":\"{}\",\"args\":{{\"value\":{value}}}}}",
                        at.raw(),
                        escape_json(name)
                    );
                }
            }
        }
        out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
        out
    }
}

fn write_args(out: &mut String, args: &[(&'static str, u64)]) {
    if args.is_empty() {
        return;
    }
    out.push_str(",\"args\":{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{v}", escape_json(k));
    }
    out.push('}');
}

/// Escapes a string for inclusion inside a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out
}

/// Minimal structural JSON validator used by the test-suite to check the
/// exporters without an external JSON dependency.
///
/// Accepts exactly the constructs the exporters emit (objects, arrays,
/// strings with the escapes produced by [`escape_json`], numbers, booleans,
/// null); rejects trailing garbage.
pub fn validate_json(s: &str) -> Result<(), String> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while matches!(b.get(*pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => parse_string(b, pos),
        Some(b't') => parse_lit(b, pos, "true"),
        Some(b'f') => parse_lit(b, pos, "false"),
        Some(b'n') => parse_lit(b, pos, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!("unexpected byte {:?} at {}", *c as char, *pos)),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // consume '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        parse_value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // consume '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        parse_value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 2; // escape + escaped byte (\uXXXX validated loosely)
            }
            _ => *pos += 1,
        }
    }
    Err("unterminated string".into())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while let Some(&c) = b.get(*pos) {
        if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-') {
            *pos += 1;
        } else {
            break;
        }
    }
    if *pos == start {
        Err(format!("expected number at byte {start}"))
    } else {
        Ok(())
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b.get(*pos..).is_some_and(|r| r.starts_with(lit.as_bytes())) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tracer() -> Tracer {
        let mut t = Tracer::enabled();
        t.set_process_name(1, "gpu0");
        t.set_thread_name(1, 7, "warp7");
        t.set_process_name(2, "migrations");
        let warp = Track { pid: 1, tid: 7 };
        let mig = Track { pid: 2, tid: 0 };
        t.span(
            "tlb",
            "L2 TLB miss",
            warp,
            Cycle(10),
            Cycle(50),
            &[("vpn", 0x42)],
        );
        t.instant("fault", "far fault raised", warp, Cycle(50), &[]);
        t.span(
            "migration",
            "data transfer \"x\"",
            mig,
            Cycle(60),
            Cycle(90),
            &[],
        );
        t.counter("gpu0.walk_queue.depth", 1, Cycle(12), 3);
        t
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let track = Track { pid: 1, tid: 1 };
        t.span("tlb", "L2 TLB miss", track, Cycle(0), Cycle(5), &[]);
        t.instant("tlb", "x", track, Cycle(0), &[]);
        t.counter("c", 1, Cycle(0), 1);
        t.set_process_name(1, "gpu0");
        assert!(t.is_empty());
        assert!(!t.is_enabled());
        validate_json(&t.to_chrome_json()).unwrap();
    }

    #[test]
    fn export_is_valid_and_contains_events() {
        let t = sample_tracer();
        assert_eq!(t.len(), 4);
        let json = t.to_chrome_json();
        validate_json(&json).expect("exporter must emit valid JSON");
        assert!(json.starts_with("{\"traceEvents\":["));
        for needle in [
            "\"process_name\"",
            "\"thread_name\"",
            "\"L2 TLB miss\"",
            "far fault raised",
            "data transfer \\\"x\\\"",
            "\"ph\":\"C\"",
            "\"vpn\":66",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn export_is_deterministic() {
        assert_eq!(
            sample_tracer().to_chrome_json(),
            sample_tracer().to_chrome_json()
        );
    }

    #[test]
    fn filter_keeps_only_listed_categories() {
        let mut t = Tracer::with_filter("migration, walk").expect("known categories");
        let track = Track { pid: 1, tid: 0 };
        t.span("tlb", "dropped", track, Cycle(0), Cycle(1), &[]);
        t.span("walk", "kept walk", track, Cycle(0), Cycle(1), &[]);
        t.span("migration", "kept mig", track, Cycle(0), Cycle(1), &[]);
        t.counter("c", 1, Cycle(0), 1); // counters use the "counter" category
        assert_eq!(t.len(), 2);
        let json = t.to_chrome_json();
        assert!(!json.contains("dropped"));
        assert!(json.contains("kept walk") && json.contains("kept mig"));
    }

    #[test]
    fn filter_rejects_unknown_categories() {
        let err = Tracer::with_filter("walk, walks").expect_err("`walks` is not a category");
        assert!(err.contains("`walks`"), "{err}");
        assert!(CATEGORIES.iter().all(|c| err.contains(c)), "{err}");
    }

    #[test]
    fn tail_orders_absorbed_shards_by_time_and_counts_what_it_omits() {
        let mut master = Tracer::enabled();
        let mut host = master.fork();
        let mut lane = master.fork();
        let track = Track { pid: 1, tid: 0 };
        host.instant("fault", "late", track, Cycle(30), &[("vpn", 7)]);
        host.instant("fault", "tie host", track, Cycle(20), &[]);
        lane.span("walk", "early", track, Cycle(5), Cycle(10), &[]);
        lane.instant("fault", "tie lane", track, Cycle(20), &[]);
        master.absorb(host);
        master.absorb(lane);

        let all = master.tail(10);
        let lines: Vec<&str> = all.lines().collect();
        assert_eq!(lines.len(), 4, "{all}");
        // Sorted by completion cycle; equal cycles keep absorb order.
        for (line, name) in lines.iter().zip(["early", "tie host", "tie lane", "late"]) {
            assert!(line.contains(&format!("name: \"{name}\"")), "{all}");
        }
        assert!(lines[0].starts_with("[10cy] Span {"), "{all}");
        assert!(lines[3].starts_with("[30cy] Instant {"), "{all}");

        let last = master.tail(2);
        assert_eq!(last.lines().count(), 3, "{last}");
        assert!(
            last.starts_with("... (2 earlier events omitted)\n"),
            "{last}"
        );
        assert!(last.contains("tie lane") && last.contains("late"), "{last}");
        assert_eq!(Tracer::disabled().tail(4), "");
    }

    #[test]
    fn spans_clamp_inverted_ranges() {
        let mut t = Tracer::enabled();
        t.span("x", "s", Track { pid: 1, tid: 0 }, Cycle(10), Cycle(5), &[]);
        let json = t.to_chrome_json();
        assert!(json.contains("\"dur\":0"), "{json}");
        validate_json(&json).unwrap();
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        for bad in [
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{} x",
            "\"unterminated",
            "{'a':1}",
        ] {
            assert!(validate_json(bad).is_err(), "accepted {bad:?}");
        }
        for good in ["{}", "[]", "{\"a\":[1,2.5,-3e4,true,null,\"s\"]}", "  42  "] {
            validate_json(good).unwrap_or_else(|e| panic!("rejected {good:?}: {e}"));
        }
    }
}
