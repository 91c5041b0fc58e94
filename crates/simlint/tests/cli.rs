//! End-to-end CLI tests: exit codes and diagnostics against the fixture
//! workspaces under `tests/fixtures/`.

use std::path::PathBuf;
use std::process::{Command, Output};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_simlint"))
        .args(args)
        .output()
        .expect("simlint binary runs")
}

#[test]
fn bad_workspace_fails_with_findings() {
    let ws = fixture("bad_ws");
    let out = run(&["--check", "--root", ws.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "violations must exit non-zero");
    let stdout = String::from_utf8(out.stdout).unwrap();
    // Model-crate rules fire in the model fixture...
    assert!(stdout.contains("error[default-hasher-map]"), "{stdout}");
    assert!(stdout.contains("error[unordered-iter]"), "{stdout}");
    // ...everywhere-rules fire in the non-model fixture...
    assert!(stdout.contains("crates/tools/src/lib.rs"), "{stdout}");
    assert!(stdout.contains("error[wall-clock]"), "{stdout}");
    assert!(stdout.contains("error[ambient-rng]"), "{stdout}");
    assert!(stdout.contains("error[float-ord-key]"), "{stdout}");
    // ...the model-only map rule does NOT fire for the non-model crate...
    assert!(
        !stdout.contains("crates/tools/src/lib.rs:4: error[default-hasher-map]"),
        "{stdout}"
    );
    // ...and a reason-less escape both waives its rule and warns.
    assert!(stdout.contains("warning[bare-allow]"), "{stdout}");
    assert!(
        !stdout.contains("src/lib.rs:18: error[wall-clock]"),
        "bare allow must still waive: {stdout}"
    );
    // Diagnostics carry clickable file:line anchors.
    assert!(
        stdout.contains("crates/mgpu-system/src/lib.rs:4: error[default-hasher-map]"),
        "{stdout}"
    );
    // ...and the v2 token-aware rules fire in the hot-path fixture module.
    assert!(
        stdout.contains("crates/mgpu-system/src/system/handlers.rs:5: error[hot-path-panic]"),
        "{stdout}"
    );
    assert!(stdout.contains("error[lossy-cast]"), "{stdout}");
    assert!(
        stdout.contains("arithmetic slice index"),
        "indexing must be flagged: {stdout}"
    );
}

#[test]
fn json_output_is_stable_and_ordered() {
    let ws = fixture("bad_ws");
    let args = [
        "--check",
        "--format",
        "json",
        "--root",
        ws.to_str().unwrap(),
    ];
    let a = run(&args);
    let b = run(&args);
    assert_eq!(a.status.code(), Some(1));
    assert_eq!(a.stdout, b.stdout, "JSON output must be byte-stable");
    let text = String::from_utf8(a.stdout).unwrap();
    assert!(text.contains("\"summary\""), "{text}");
    assert!(text.contains("\"stale_baseline\": []"), "{text}");
    // Diagnostics are sorted by (path, line, col, rule).
    let mut keys: Vec<(String, u64, u64)> = Vec::new();
    for line in text.lines().filter(|l| l.contains("\"rule\"")) {
        let field = |name: &str| {
            let tail = &line[line.find(name).unwrap() + name.len()..];
            tail.trim_start_matches([':', ' ', '"'])
                .chars()
                .take_while(|c| *c != '"' && *c != ',' && *c != '}')
                .collect::<String>()
        };
        keys.push((
            field("\"path\""),
            field("\"line\"").parse().unwrap(),
            field("\"col\"").parse().unwrap(),
        ));
    }
    assert!(keys.len() >= 10, "expected many diagnostics, got {keys:?}");
    assert!(
        keys.windows(2).all(|w| w[0] <= w[1]),
        "diagnostics out of order: {keys:?}"
    );
}

#[test]
fn stale_baseline_warns_and_fails_under_strict() {
    // clean_ws plus one baseline entry that no longer fires (the wall-clock
    // site carries an inline allow, so no diagnostic is produced for it).
    let ws = fixture("clean_ws");
    let dir = std::env::temp_dir().join(format!("simlint-stale-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let stale = dir.join("stale.baseline");
    let committed = std::fs::read_to_string(ws.join("simlint.baseline")).expect("fixture baseline");
    std::fs::write(
        &stale,
        format!("{committed}wall-clock crates/mgpu-system/src/lib.rs — migrated long ago\n"),
    )
    .unwrap();

    let root = ws.to_str().unwrap();
    let bl = stale.to_str().unwrap();
    let out = run(&["--check", "--root", root, "--baseline", bl]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "stale is a warning: {stdout}");
    assert!(
        stdout.contains("warning[stale-baseline]") && stdout.contains("no longer fires"),
        "{stdout}"
    );

    let out = run(&["--check", "--strict", "--root", root, "--baseline", bl]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "strict promotes stale: {stdout}"
    );
    assert!(stdout.contains("error[stale-baseline]"), "{stdout}");

    // The committed (fully live) baseline stays clean even under --strict.
    let out = run(&["--check", "--strict", "--root", root]);
    assert_eq!(out.status.code(), Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn clean_workspace_exits_zero_via_escapes_and_baseline() {
    let ws = fixture("clean_ws");
    let out = run(&["--check", "--root", ws.to_str().unwrap()]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("0 error(s)"), "{stdout}");
    // legacy.rs trips the rule on three lines; one (rule, path) baseline
    // entry covers them all.
    assert!(stdout.contains("3 baselined"), "{stdout}");
}

#[test]
fn explicit_baseline_flag_overrides_the_default() {
    // Pointing the bad workspace at the clean fixture's baseline changes
    // nothing (different paths), so it still fails.
    let ws = fixture("bad_ws");
    let bl = fixture("clean_ws").join("simlint.baseline");
    let out = run(&[
        "--check",
        "--root",
        ws.to_str().unwrap(),
        "--baseline",
        bl.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn cross_domain_reach_in_lane_impl_fails() {
    let ws = fixture("crossdomain_bad_ws");
    let out = run(&["--check", "--root", ws.to_str().unwrap()]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    // `lanes` in the signature (line 6) and `lock_lane`/`lanes` in the body.
    assert!(
        stdout.contains("crates/mgpu-system/src/system/lane.rs:6: error[cross-domain-mutation]"),
        "{stdout}"
    );
    assert!(
        stdout.contains("`lock_lane` inside `impl GpuLane`"),
        "{stdout}"
    );
    assert!(stdout.contains("outbox"), "{stdout}");
}

#[test]
fn cross_domain_rule_spares_host_code_and_honors_allows() {
    // Outbox-routed lane code, a reasoned allow on the audited reach, and
    // the identical reach inside `impl HostState` all lint clean.
    let ws = fixture("crossdomain_good_ws");
    let out = run(&["--check", "--root", ws.to_str().unwrap()]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("0 error(s)"), "{stdout}");
}

#[test]
fn list_rules_prints_the_registry() {
    let out = run(&["--list-rules"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    for id in [
        "default-hasher-map",
        "wall-clock",
        "ambient-rng",
        "float-ord-key",
        "unordered-iter",
        "lossy-cast",
        "hot-path-panic",
        "hot-path-alloc",
        "io-in-sim-loop",
        "cross-domain-mutation",
        "lane-race",
        "shared-mutability",
        "dead-event",
        "bare-allow",
        "stale-allow",
    ] {
        assert!(stdout.contains(id), "missing {id}: {stdout}");
    }
    assert_eq!(
        stdout.lines().count(),
        15,
        "rule registry drifted: {stdout}"
    );
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let out = run(&["--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn lane_race_fires_through_the_call_graph() {
    // Nothing inside the impl body is suspicious; the reach is two calls
    // deep, so only the call-graph rule can see it.
    let ws = fixture("lanerace_bad_ws");
    let out = run(&["--check", "--root", ws.to_str().unwrap()]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("error[lane-race]"), "{stdout}");
    assert!(
        stdout.contains("reachable from GPU-lane handler `GpuLane::on_inval_done`"),
        "witness root must be named: {stdout}"
    );
    assert!(
        stdout.contains("`lock_lane` in `steal_sibling`"),
        "{stdout}"
    );
    assert!(
        stdout.contains("interior-mutability cell `Mutex`"),
        "{stdout}"
    );
}

#[test]
fn lane_race_spares_outbox_and_unreachable_host_code() {
    // The outbox-routed helper and barrier-phase code (not reachable from
    // any handler) both lint clean.
    let ws = fixture("lanerace_good_ws");
    let out = run(&["--check", "--root", ws.to_str().unwrap()]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("0 error(s)"), "{stdout}");
}

#[test]
fn hot_path_effects_fire_through_the_call_graph() {
    // Nothing inside the lane impl or the dispatch arm is suspicious; the
    // allocation, the print and the expect all ride two calls deep into a
    // different crate, so only the effect summaries can see them — and the
    // witness chain must name both the root and the effectful callee.
    let ws = fixture("hotalloc_bad_ws");
    let out = run(&["--check", "--root", ws.to_str().unwrap()]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(
        stdout.contains(
            "error[hot-path-alloc]: `format!` allocates in `describe` \
             (reachable from GPU-lane handler `GpuLane::on_warp_ready`)"
        ),
        "{stdout}"
    );
    assert!(
        stdout.contains(
            "error[io-in-sim-loop]: `println!` performs IO in `stamp_fault` \
             (reachable from event dispatch in `dispatch`)"
        ),
        "{stdout}"
    );
    assert!(
        stdout.contains(
            "error[hot-path-panic]: `.expect()` in `stamp_fault` \
             (reachable from event dispatch in `dispatch`)"
        ),
        "interprocedural panic must name the dispatch root: {stdout}"
    );
}

#[test]
fn hot_path_effects_spare_gated_and_unreachable_sites() {
    // The observability-gated allocation, the buffered dispatch helper and
    // the unreachable post-run reporter all lint clean.
    let ws = fixture("hotalloc_good_ws");
    let out = run(&["--check", "--root", ws.to_str().unwrap()]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("0 error(s)"), "{stdout}");
}

#[test]
fn check_allows_reports_only_the_stale_escape() {
    let ws = fixture("staleallow_ws");
    let root = ws.to_str().unwrap();

    // Without the flag the stale escape is invisible (byte-compatible
    // default mode), and the live escape keeps suppressing its finding.
    let out = run(&["--check", "--root", root]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(!stdout.contains("stale-allow"), "{stdout}");

    // With it: the dead lossy-cast escape warns; the live wall-clock one
    // stays silent.
    let out = run(&["--check", "--check-allows", "--root", root]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "stale allow is a warning: {stdout}"
    );
    assert!(
        stdout.contains(
            "warning[stale-allow]: allow(lossy-cast) no longer suppresses any finding; \
             remove the escape"
        ),
        "{stdout}"
    );
    assert!(!stdout.contains("allow(wall-clock)"), "{stdout}");

    // --strict promotes it to a blocking error.
    let out = run(&["--check", "--check-allows", "--strict", "--root", root]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("error[stale-allow]"), "{stdout}");
}

#[test]
fn effects_dump_is_byte_stable_and_summarizes_reachable_effects() {
    let ws = fixture("hotalloc_bad_ws");
    let args = ["--effects", "--root", ws.to_str().unwrap()];
    let a = run(&args);
    let b = run(&args);
    assert_eq!(a.status.code(), Some(0));
    assert_eq!(a.stdout, b.stdout, "effects dump must be byte-stable");
    let text = String::from_utf8(a.stdout).unwrap();
    assert!(
        json_ok(&text),
        "effects dump must be well-formed JSON:\n{text}"
    );
    // The handler itself is trigger-free but its summary carries everything
    // its callees do, the schedule effect included.
    assert!(
        text.contains(
            "{\"fn\": \"GpuLane::on_warp_ready\", \
             \"file\": \"crates/mgpu-system/src/system/hot.rs\", \"line\": 7, \
             \"direct\": [\"schedules_event\"], \
             \"summary\": [\"allocates\", \"schedules_event\"]}"
        ),
        "{text}"
    );
    assert!(
        text.contains(
            "{\"fn\": \"stamp_fault\", \"file\": \"crates/core/src/label.rs\", \"line\": 11, \
             \"direct\": [\"may_panic\", \"does_io\"], \
             \"summary\": [\"may_panic\", \"does_io\"]}"
        ),
        "{text}"
    );
}

#[test]
fn shared_mutability_flags_global_state() {
    let ws = fixture("sharedmut_bad_ws");
    let out = run(&["--check", "--root", ws.to_str().unwrap()]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("error[shared-mutability]"), "{stdout}");
    assert!(stdout.contains("`static mut SCRATCH`"), "{stdout}");
    assert!(
        stdout.contains("static `DECODE_CACHE` wraps an interior-mutability cell"),
        "{stdout}"
    );
    assert!(
        stdout.contains("`lazy_static` introduces a lazily initialized global"),
        "{stdout}"
    );
    assert!(
        stdout.contains("interior-mutability cell `RefCell`"),
        "{stdout}"
    );
}

#[test]
fn shared_mutability_spares_constants_and_sanctioned_sync_layer() {
    // Plain consts/immutable statics, and cells under the SYNC_SANCTIONED
    // path prefix, are all fine.
    let ws = fixture("sharedmut_good_ws");
    let out = run(&["--check", "--root", ws.to_str().unwrap()]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("0 error(s)"), "{stdout}");
}

#[test]
fn dead_event_flags_schema_drift_both_ways() {
    let ws = fixture("deadevent_bad_ws");
    let out = run(&["--check", "--root", ws.to_str().unwrap()]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(
        stdout.contains("`Ev::InvalAck` is constructed but no dispatch arm matches it"),
        "{stdout}"
    );
    assert!(
        stdout.contains("`Ev::Ghost` has dispatch arms but is never constructed"),
        "{stdout}"
    );
    assert!(!stdout.contains("`Ev::WarpReady`"), "{stdout}");
}

#[test]
fn dead_event_spares_covered_variants() {
    // Plain arms, or-patterns and `if let` all count as dispatch.
    let ws = fixture("deadevent_good_ws");
    let out = run(&["--check", "--root", ws.to_str().unwrap()]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("0 error(s)"), "{stdout}");
}

/// Minimal JSON well-formedness check (std-only): consumes one value and
/// requires the full input to be spent. Enough to guarantee the SARIF log
/// is parseable by a real consumer.
fn json_ok(s: &str) -> bool {
    fn skip_ws(b: &[u8], mut i: usize) -> usize {
        while i < b.len() && (b[i] as char).is_ascii_whitespace() {
            i += 1;
        }
        i
    }
    fn value(b: &[u8], i: usize) -> Option<usize> {
        let i = skip_ws(b, i);
        match *b.get(i)? {
            b'{' => {
                let mut i = skip_ws(b, i + 1);
                if b.get(i) == Some(&b'}') {
                    return Some(i + 1);
                }
                loop {
                    i = string(b, skip_ws(b, i))?;
                    i = skip_ws(b, i);
                    if b.get(i) != Some(&b':') {
                        return None;
                    }
                    i = value(b, i + 1)?;
                    i = skip_ws(b, i);
                    match b.get(i)? {
                        b',' => i += 1,
                        b'}' => return Some(i + 1),
                        _ => return None,
                    }
                }
            }
            b'[' => {
                let mut i = skip_ws(b, i + 1);
                if b.get(i) == Some(&b']') {
                    return Some(i + 1);
                }
                loop {
                    i = value(b, i)?;
                    i = skip_ws(b, i);
                    match b.get(i)? {
                        b',' => i += 1,
                        b']' => return Some(i + 1),
                        _ => return None,
                    }
                }
            }
            b'"' => string(b, i),
            b't' => b[i..].starts_with(b"true").then_some(i + 4),
            b'f' => b[i..].starts_with(b"false").then_some(i + 5),
            b'n' => b[i..].starts_with(b"null").then_some(i + 4),
            _ => {
                let start = i;
                let mut i = i;
                while i < b.len() && matches!(b[i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    i += 1;
                }
                (i > start).then_some(i)
            }
        }
    }
    fn string(b: &[u8], i: usize) -> Option<usize> {
        if b.get(i) != Some(&b'"') {
            return None;
        }
        let mut i = i + 1;
        loop {
            match *b.get(i)? {
                b'\\' => i += 2,
                b'"' => return Some(i + 1),
                _ => i += 1,
            }
        }
    }
    let b = s.as_bytes();
    value(b, 0).is_some_and(|end| skip_ws(b, end) == b.len())
}

#[test]
fn sarif_output_is_stable_valid_and_matches_the_golden() {
    let ws = fixture("lanerace_bad_ws");
    let args = [
        "--check",
        "--format",
        "sarif",
        "--root",
        ws.to_str().unwrap(),
    ];
    let a = run(&args);
    let b = run(&args);
    assert_eq!(a.status.code(), Some(1));
    assert_eq!(a.stdout, b.stdout, "SARIF output must be byte-stable");
    let text = String::from_utf8(a.stdout).unwrap();
    assert!(json_ok(&text), "SARIF must be well-formed JSON:\n{text}");

    // SARIF 2.1.0 required fields: version, runs[].tool.driver.name,
    // results[].message.text — plus the fields GitHub code scanning uses
    // for annotations (ruleId/ruleIndex/level/physicalLocation).
    assert!(text.contains("\"version\": \"2.1.0\""), "{text}");
    assert!(text.contains("sarif-schema-2.1.0.json"), "{text}");
    assert!(text.contains("\"name\": \"simlint\""), "{text}");
    assert!(text.contains("\"ruleId\": \"lane-race\""), "{text}");
    assert!(text.contains("\"ruleIndex\": "), "{text}");
    assert!(text.contains("\"level\": \"error\""), "{text}");
    assert!(text.contains("\"message\": {\"text\": "), "{text}");
    assert!(
        text.contains("\"artifactLocation\": {\"uri\": \"crates/mgpu-system/src/system/lane.rs\"}"),
        "{text}"
    );
    assert!(text.contains("\"startLine\": 17"), "{text}");
    // Every registered rule appears in the driver's rules array.
    for id in [
        "lane-race",
        "shared-mutability",
        "dead-event",
        "stale-baseline",
    ] {
        assert!(
            text.contains(&format!("{{\"id\": \"{id}\"")),
            "missing rule {id}: {text}"
        );
    }

    let golden = std::fs::read_to_string(fixture("lanerace_bad_ws.sarif")).unwrap();
    assert_eq!(
        text, golden,
        "SARIF drifted from the committed golden; regenerate \
         tests/fixtures/lanerace_bad_ws.sarif if the change is intended"
    );
}

#[test]
fn write_baseline_prunes_deleted_files_sorts_and_preserves_reasons() {
    // A scratch workspace with two live findings (ambient-rng + wall-clock)
    // and a baseline whose entries cover: one live finding with a custom
    // reason (must survive), and a file that no longer exists (must be
    // pruned).
    let dir = std::env::temp_dir().join(format!("simlint-wb-{}", std::process::id()));
    let src_dir = dir.join("crates/mgpu-system/src");
    std::fs::create_dir_all(&src_dir).unwrap();
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").unwrap();
    std::fs::write(
        src_dir.join("lib.rs"),
        "pub fn t() -> u64 { Instant::now().elapsed().as_nanos() as u64 }\n\
         pub fn r() -> u64 { rand::thread_rng().gen() }\n",
    )
    .unwrap();
    let bl = dir.join("simlint.baseline");
    std::fs::write(
        &bl,
        "wall-clock crates/mgpu-system/src/lib.rs — audited: harness timing only\n\
         wall-clock crates/mgpu-system/src/gone.rs — this file was deleted\n",
    )
    .unwrap();

    let root = dir.to_str().unwrap();
    let blp = bl.to_str().unwrap();
    let out = run(&["--write-baseline", "--root", root, "--baseline", blp]);
    assert_eq!(out.status.code(), Some(0));
    let written = std::fs::read_to_string(&bl).unwrap();
    let entries: Vec<&str> = written
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .collect();
    // Sorted by (rule, path); the custom reason survived; the deleted-file
    // entry did not; the uncovered finding got a TODO placeholder.
    assert_eq!(entries.len(), 2, "{written}");
    assert!(entries[0].starts_with("ambient-rng "), "{written}");
    assert!(
        entries[0].ends_with("TODO: justify or migrate"),
        "{written}"
    );
    assert!(
        entries[1] == "wall-clock crates/mgpu-system/src/lib.rs — audited: harness timing only",
        "{written}"
    );
    assert!(!written.contains("gone.rs"), "{written}");

    // Byte-stable: a second run reproduces the file exactly, and the
    // refreshed baseline makes --check (strict included) pass clean.
    let out = run(&["--write-baseline", "--root", root, "--baseline", blp]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(std::fs::read_to_string(&bl).unwrap(), written);
    let out = run(&["--check", "--strict", "--root", root, "--baseline", blp]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}
