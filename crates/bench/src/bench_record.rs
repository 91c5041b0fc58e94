//! Versioned BENCH records: the machine-readable perf trajectory.
//!
//! `perf_micro --json` serialises one [`BenchRecord`] per invocation into
//! `BENCH_<seq>.json`; the committed `BENCH_baseline.json` is the reference
//! the `bench_compare` binary diffs fresh runs against. The schema is
//! versioned (see [`SCHEMA`]) so readers can reject records from a future
//! shape instead of misinterpreting them.
//!
//! A record separates two kinds of numbers:
//!
//! * **event counts** — deterministic functions of `(scale, seed, config)`;
//!   any drift against the baseline is a simulation change and hard-fails
//!   the compare gate;
//! * **wall-clock / throughput** — host measurements; the gate only warns
//!   on these, with noise-aware relative thresholds.
//!
//! The shared [`measure_all`] harness is what both binaries run: per
//! configuration it takes a warm-up run, best-of-N wall times with the
//! tracer off and on (asserting the event count never moves between
//! iterations), and one profiled run for the per-phase breakdown.

use std::path::Path;

use mgpu_system::config::SystemConfig;
use mgpu_system::system::SimError;
use mgpu_system::System;
use sim_engine::prof::Profiler;
use sim_engine::trace::Tracer;
use uvm_driver::policy::MigrationPolicy;
use workloads::{AppId, WorkloadSpec};

use crate::json::Json;
use crate::HarnessConfig;

/// Schema tag every record carries; bump when the shape changes.
///
/// v2 added the `threads` field (event-lane workers per simulation). v1
/// records are still readable — `threads` defaults to 1, which is what
/// every v1 writer effectively ran. Unknown *fields* in a record are
/// ignored (forward compatibility); unknown *schemas* are rejected.
pub const SCHEMA: &str = "idyll-bench v2";

/// The previous schema tag [`BenchRecord::parse`] still accepts.
pub const SCHEMA_V1: &str = "idyll-bench v1";

/// One phase row of a per-phase self-profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseProfile {
    /// [`sim_engine::prof::Phase::name`] token.
    pub phase: String,
    /// Emissions charged to the phase.
    pub count: u64,
    /// Host nanoseconds charged to the phase.
    pub nanos: u64,
}

/// The measured result for one benchmark configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigResult {
    /// Configuration label, e.g. `baseline/SC/2gpu tracer off`.
    pub label: String,
    /// Simulation events processed (identical across iterations by
    /// construction; deterministic given scale/seed/config).
    pub events: u64,
    /// Best-of-N wall seconds (minimum is the least noisy estimator).
    pub best_wall_secs: f64,
    /// Per-phase self-profile from a separate profiled run; empty for
    /// configurations that were not profiled.
    pub profile: Vec<PhaseProfile>,
}

impl ConfigResult {
    /// Events per host second at the best wall time.
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        if self.best_wall_secs > 0.0 {
            self.events as f64 / self.best_wall_secs
        } else {
            0.0
        }
    }
}

/// Host fingerprint recorded for context when comparing wall-clock numbers
/// across machines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostInfo {
    /// `std::env::consts::OS`.
    pub os: String,
    /// `std::env::consts::ARCH`.
    pub arch: String,
    /// Available parallelism (0 when the host will not say).
    pub cpus: u64,
}

impl HostInfo {
    /// The current host's fingerprint.
    #[must_use]
    pub fn current() -> HostInfo {
        HostInfo {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            cpus: std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(0),
        }
    }
}

/// One schema-versioned BENCH record.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// [`SCHEMA`] of the writer.
    pub schema: String,
    /// Sequence number (the `<seq>` in `BENCH_<seq>.json`).
    pub seq: u64,
    /// Harness scale token (`Test`/`Small`/`Full`).
    pub scale: String,
    /// Workload seed.
    pub seed: u64,
    /// Best-of-N iteration count.
    pub iters: u64,
    /// Event-lane worker threads each simulation ran with. Event counts
    /// are identical for any value (the parallel core is deterministic);
    /// wall-clock comparisons across different thread counts are
    /// apples-to-oranges, so the compare gate surfaces this field.
    pub threads: u64,
    /// Host fingerprint.
    pub host: HostInfo,
    /// Per-configuration measurements.
    pub configs: Vec<ConfigResult>,
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl BenchRecord {
    /// Serialises the record as a single-line JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let configs = self
            .configs
            .iter()
            .map(|c| {
                let profile = c
                    .profile
                    .iter()
                    .map(|p| {
                        obj(vec![
                            ("phase", Json::str(&p.phase)),
                            ("count", Json::u64(p.count)),
                            ("nanos", Json::u64(p.nanos)),
                        ])
                    })
                    .collect();
                obj(vec![
                    ("label", Json::str(&c.label)),
                    ("events", Json::u64(c.events)),
                    ("best_wall_secs", Json::f64(c.best_wall_secs)),
                    ("events_per_sec", Json::f64(c.events_per_sec())),
                    ("profile", Json::Arr(profile)),
                ])
            })
            .collect();
        obj(vec![
            ("schema", Json::str(&self.schema)),
            ("seq", Json::u64(self.seq)),
            ("scale", Json::str(&self.scale)),
            ("seed", Json::u64(self.seed)),
            ("iters", Json::u64(self.iters)),
            ("threads", Json::u64(self.threads)),
            (
                "host",
                obj(vec![
                    ("os", Json::str(&self.host.os)),
                    ("arch", Json::str(&self.host.arch)),
                    ("cpus", Json::u64(self.host.cpus)),
                ]),
            ),
            ("configs", Json::Arr(configs)),
        ])
        .encode()
    }

    /// Parses a record, rejecting unknown schema versions.
    ///
    /// # Errors
    /// A human-readable message on malformed input or a schema mismatch.
    pub fn parse(text: &str) -> Result<BenchRecord, String> {
        let doc = Json::parse(text)?;
        let need_str = |v: &Json, key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field `{key}`"))
        };
        let need_u64 = |v: &Json, key: &str| {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing integer field `{key}`"))
        };
        let schema = need_str(&doc, "schema")?;
        if schema != SCHEMA && schema != SCHEMA_V1 {
            return Err(format!(
                "unsupported BENCH schema `{schema}` (this build reads `{SCHEMA}` \
                 and `{SCHEMA_V1}`)"
            ));
        }
        let host_doc = doc.get("host").ok_or("missing object field `host`")?;
        let host = HostInfo {
            os: need_str(host_doc, "os")?,
            arch: need_str(host_doc, "arch")?,
            cpus: need_u64(host_doc, "cpus")?,
        };
        let mut configs = Vec::new();
        for c in doc
            .get("configs")
            .and_then(Json::as_arr)
            .ok_or("missing array field `configs`")?
        {
            let mut profile = Vec::new();
            for p in c
                .get("profile")
                .and_then(Json::as_arr)
                .ok_or("missing array field `profile`")?
            {
                profile.push(PhaseProfile {
                    phase: need_str(p, "phase")?,
                    count: need_u64(p, "count")?,
                    nanos: need_u64(p, "nanos")?,
                });
            }
            configs.push(ConfigResult {
                label: need_str(c, "label")?,
                events: need_u64(c, "events")?,
                best_wall_secs: c
                    .get("best_wall_secs")
                    .and_then(Json::as_f64)
                    .ok_or("missing number field `best_wall_secs`")?,
                profile,
            });
        }
        // v1 records predate the field; every v1 writer ran serial lanes.
        let threads = doc.get("threads").and_then(Json::as_u64).unwrap_or(1);
        Ok(BenchRecord {
            schema,
            seq: need_u64(&doc, "seq")?,
            scale: need_str(&doc, "scale")?,
            seed: need_u64(&doc, "seed")?,
            iters: need_u64(&doc, "iters")?,
            threads,
            host,
            configs,
        })
    }
}

/// The next free sequence number among `BENCH_<n>.json` files in `dir`
/// (1 when none exist). `BENCH_baseline.json` does not consume a number.
#[must_use]
pub fn next_seq(dir: &Path) -> u64 {
    let mut max = 0u64;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(num) = name
                .strip_prefix("BENCH_")
                .and_then(|rest| rest.strip_suffix(".json"))
            {
                if let Ok(n) = num.parse::<u64>() {
                    max = max.max(n);
                }
            }
        }
    }
    max + 1
}

/// The fixed configuration grid both `perf_micro` and `bench_compare`
/// measure: (baseline, IDYLL) × (tracer off, tracer on), 2 GPUs, SC.
pub const CONFIGS: [(&str, bool); 2] = [("baseline/SC/2gpu", false), ("idyll/SC/2gpu", true)];

fn run_once(
    hc: &HarnessConfig,
    idyll: bool,
    traced: bool,
    profiled: bool,
) -> Result<(f64, u64, Option<Profiler>), SimError> {
    let mut cfg = if idyll {
        SystemConfig::idyll(2)
    } else {
        SystemConfig::baseline(2)
    };
    cfg.policy = MigrationPolicy::AccessCounter {
        threshold: hc.scale.counter_threshold(),
    };
    cfg.seed = hc.seed;
    let spec = WorkloadSpec::paper_default(AppId::Sc, hc.scale);
    let wl = workloads::generate(&spec, 2, hc.seed);
    let mut sys = System::new(cfg, &wl);
    sys.set_threads(hc.sim_threads.max(1));
    if traced {
        sys.set_tracer(Tracer::enabled());
    }
    if profiled {
        sys.set_profiler(Profiler::enabled());
    }
    let start = std::time::Instant::now();
    let report = sys.run()?;
    let wall = start.elapsed().as_secs_f64();
    let profile = profiled.then(|| sys.profiler().clone());
    Ok((wall, report.events_processed, profile))
}

/// Best-of-N wall-clock for one configuration; the event count must be
/// identical across iterations (it is deterministic) or this errors.
///
/// # Errors
/// Simulation failures and cross-iteration event-count drift.
pub fn measure(
    hc: &HarnessConfig,
    idyll: bool,
    traced: bool,
    iters: usize,
) -> Result<(f64, u64), String> {
    let mut best = f64::INFINITY;
    let mut events: Option<u64> = None;
    for i in 0..iters.max(1) {
        let (t, n, _) = run_once(hc, idyll, traced, false).map_err(|e| e.to_string())?;
        best = best.min(t);
        match events {
            None => events = Some(n),
            Some(expected) if expected == n => {}
            Some(expected) => {
                return Err(format!(
                    "nondeterministic run: iteration {i} processed {n} events, \
                     previous iterations processed {expected}"
                ))
            }
        }
    }
    Ok((best, events.unwrap_or(0)))
}

/// Runs the full [`CONFIGS`] grid: warm-up, best-of-`iters` with the tracer
/// off and on, plus one profiled run whose per-phase breakdown lands on the
/// tracer-off entry. Returns one [`ConfigResult`] per (config, tracer mode).
///
/// # Errors
/// Simulation failures, event-count drift across iterations, and
/// profiled-vs-plain event-count mismatches.
pub fn measure_all(hc: &HarnessConfig, iters: usize) -> Result<Vec<ConfigResult>, String> {
    let mut out = Vec::new();
    for (label, idyll) in CONFIGS {
        // Warm-up run so allocator/page-cache effects don't pollute either
        // measurement.
        let _ = run_once(hc, idyll, false, false).map_err(|e| e.to_string())?;
        let (off, events) = measure(hc, idyll, false, iters)?;
        let (on, events_on) = measure(hc, idyll, true, iters)?;
        let (_, events_prof, profiler) =
            run_once(hc, idyll, false, true).map_err(|e| e.to_string())?;
        for (mode_events, mode) in [(events_on, "tracer on"), (events_prof, "profiled")] {
            if mode_events != events {
                return Err(format!(
                    "{label}: {mode} run processed {mode_events} events but the plain \
                     run processed {events}; observability must not perturb the simulation"
                ));
            }
        }
        let profile = profiler
            .map(|p| {
                p.summary()
                    .into_iter()
                    .map(|s| PhaseProfile {
                        phase: s.phase.name().to_string(),
                        count: s.count,
                        nanos: s.nanos,
                    })
                    .collect()
            })
            .unwrap_or_default();
        out.push(ConfigResult {
            label: format!("{label} tracer off"),
            events,
            best_wall_secs: off,
            profile,
        });
        out.push(ConfigResult {
            label: format!("{label} tracer on"),
            events,
            best_wall_secs: on,
            profile: Vec::new(),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchRecord {
        BenchRecord {
            schema: SCHEMA.to_string(),
            seq: 3,
            scale: "Test".to_string(),
            seed: 42,
            iters: 2,
            threads: 4,
            host: HostInfo {
                os: "linux".to_string(),
                arch: "x86_64".to_string(),
                cpus: 8,
            },
            configs: vec![ConfigResult {
                label: "baseline/SC/2gpu tracer off".to_string(),
                events: 123_456,
                best_wall_secs: 0.25,
                profile: vec![PhaseProfile {
                    phase: "heap_pop".to_string(),
                    count: 123_456,
                    nanos: 9_000_000,
                }],
            }],
        }
    }

    #[test]
    fn record_roundtrips_through_json() {
        let rec = sample();
        let text = rec.to_json();
        assert!(!text.contains('\n'), "record is a single line");
        let back = BenchRecord::parse(&text).expect("parses");
        assert_eq!(back, rec);
    }

    #[test]
    fn parse_rejects_future_schema() {
        let text = sample().to_json().replace(SCHEMA, "idyll-bench v999");
        let err = BenchRecord::parse(&text).expect_err("must reject");
        assert!(err.contains("idyll-bench v999"), "{err}");
    }

    #[test]
    fn parse_accepts_v1_records_without_threads() {
        // A v1 writer never emitted `threads`; readers default it to the
        // serial lanes every v1 build ran.
        let mut rec = sample();
        rec.schema = SCHEMA_V1.to_string();
        rec.threads = 1;
        let text = rec.to_json().replace(",\"threads\":1", "");
        assert!(!text.contains("threads"), "{text}");
        let back = BenchRecord::parse(&text).expect("v1 records stay readable");
        assert_eq!(back.schema, SCHEMA_V1);
        assert_eq!(back.threads, 1);
    }

    #[test]
    fn parse_tolerates_unknown_forward_compat_fields() {
        // A same-schema record from a slightly newer writer may carry
        // extra fields; they must be ignored, not fatal.
        let text = sample()
            .to_json()
            .replacen('{', "{\"future_field\":{\"nested\":[1,2]},", 1);
        let back = BenchRecord::parse(&text).expect("unknown fields are ignored");
        assert_eq!(back, sample());
    }

    #[test]
    fn parse_rejects_missing_fields() {
        assert!(BenchRecord::parse("{}").is_err());
        assert!(BenchRecord::parse("not json").is_err());
    }

    #[test]
    fn events_per_sec_handles_zero_wall() {
        let mut c = sample().configs.remove(0);
        c.best_wall_secs = 0.0;
        assert!(c.events_per_sec().abs() < 1e-12);
    }

    #[test]
    fn next_seq_scans_existing_records() {
        let dir = std::env::temp_dir().join(format!("idyll-bench-seq-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        assert_eq!(next_seq(&dir), 1);
        std::fs::write(dir.join("BENCH_2.json"), "{}").expect("write");
        std::fs::write(dir.join("BENCH_baseline.json"), "{}").expect("write");
        std::fs::write(dir.join("BENCH_007.json"), "{}").expect("write");
        assert_eq!(next_seq(&dir), 8);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
