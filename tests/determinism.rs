//! Determinism invariant (DESIGN.md invariant 5): identical seed and
//! configuration produce bit-identical results — including the trace and
//! metrics exports — and different seeds diverge.

#![expect(
    clippy::expect_used,
    reason = "test helpers outside `#[test]` fns; a failed setup fails the test"
)]

use idyll::prelude::*;
use idyll::sim::trace::{validate_json, Tracer};

fn run_once(seed: u64, idyll_on: bool) -> SimReport {
    let mut cfg = SystemConfig::test(4);
    cfg.policy = MigrationPolicy::AccessCounter {
        threshold: Scale::Test.counter_threshold(),
    };
    if idyll_on {
        cfg.scheme = Scheme::Idyll;
    }
    let spec = WorkloadSpec::paper_default(AppId::Km, Scale::Test);
    let wl = workloads::generate(&spec, 4, seed);
    System::new(cfg, &wl).run().expect("completes")
}

/// Same configuration, with the tracer installed; returns the two exported
/// artifacts alongside the report.
fn observed_run_once(seed: u64, idyll_on: bool) -> (String, String, SimReport) {
    let mut cfg = SystemConfig::test(4);
    cfg.policy = MigrationPolicy::AccessCounter {
        threshold: Scale::Test.counter_threshold(),
    };
    if idyll_on {
        cfg.scheme = Scheme::Idyll;
    }
    let spec = WorkloadSpec::paper_default(AppId::Km, Scale::Test);
    let wl = workloads::generate(&spec, 4, seed);
    let mut sys = System::new(cfg, &wl);
    sys.set_tracer(Tracer::enabled());
    let report = sys.run().expect("completes");
    (
        sys.tracer().to_chrome_json(),
        sys.metrics_registry().to_json(),
        report,
    )
}

#[test]
fn identical_seeds_are_bit_identical() {
    for idyll_on in [false, true] {
        let a = run_once(11, idyll_on);
        let b = run_once(11, idyll_on);
        assert_eq!(a.exec_cycles, b.exec_cycles);
        assert_eq!(a.accesses, b.accesses);
        assert_eq!(a.far_faults, b.far_faults);
        assert_eq!(a.migrations, b.migrations);
        assert_eq!(a.invalidation_messages, b.invalidation_messages);
        assert_eq!(a.l2_tlb_misses, b.l2_tlb_misses);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(
            a.demand_miss_latency.sum(),
            b.demand_miss_latency.sum(),
            "latency accounting must be deterministic"
        );
    }
}

#[test]
fn different_seeds_diverge() {
    let a = run_once(1, false);
    let b = run_once(2, false);
    // Different workloads virtually never land on the same cycle count and
    // event count simultaneously.
    assert!(
        a.exec_cycles != b.exec_cycles || a.events_processed != b.events_processed,
        "seeds 1 and 2 produced identical simulations"
    );
}

#[test]
fn trace_and_metrics_exports_are_byte_identical() {
    for idyll_on in [false, true] {
        let (trace_a, metrics_a, _) = observed_run_once(11, idyll_on);
        let (trace_b, metrics_b, _) = observed_run_once(11, idyll_on);
        assert_eq!(trace_a, trace_b, "trace export must be byte-identical");
        assert_eq!(
            metrics_a, metrics_b,
            "metrics export must be byte-identical"
        );
    }
}

/// Hash-seed independence: model crates use `DetHashMap`/`DetHashSet`
/// (fixed-seed FxHash), and nothing may depend on bucket order. Setting
/// `IDYLL_HASH_SEED` perturbs every map's bucket layout — a hostile seed —
/// and the exported artifacts must still be byte-identical. A failure here
/// means some result flows through hash-map iteration order.
#[test]
fn exports_are_independent_of_hash_seed() {
    let (trace_a, metrics_a, report_a) = observed_run_once(11, true);
    // set_var is safe in edition 2021; DetState::default re-reads the
    // variable on every map construction, so the flip takes effect for all
    // maps built after this point.
    std::env::set_var("IDYLL_HASH_SEED", "0xdeadbeef");
    let (trace_b, metrics_b, report_b) = observed_run_once(11, true);
    std::env::remove_var("IDYLL_HASH_SEED");
    assert_eq!(
        trace_a, trace_b,
        "trace export must not depend on hash-map bucket order"
    );
    assert_eq!(
        metrics_a, metrics_b,
        "metrics export must not depend on hash-map bucket order"
    );
    assert_eq!(report_a.exec_cycles, report_b.exec_cycles);
    assert_eq!(report_a.events_processed, report_b.events_processed);
    assert_eq!(report_a.migrations, report_b.migrations);
    assert_eq!(
        report_a.invalidation_messages,
        report_b.invalidation_messages
    );
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    let plain = run_once(11, true);
    let (_, _, traced) = observed_run_once(11, true);
    assert_eq!(plain.exec_cycles, traced.exec_cycles);
    assert_eq!(plain.events_processed, traced.events_processed);
    assert_eq!(plain.far_faults, traced.far_faults);
    assert_eq!(plain.migrations, traced.migrations);
}

#[test]
fn trace_export_is_valid_and_covers_the_lifecycle() {
    let (trace, metrics, report) = observed_run_once(11, true);
    validate_json(&trace).expect("trace export must be valid JSON");
    validate_json(&metrics).expect("metrics export must be valid JSON");
    assert!(report.migrations > 0, "workload must exercise migrations");
    // The full translation lifecycle must appear as connected spans.
    for span in [
        "\"L2 TLB miss\"",
        "\"page walk\"",
        "\"walk queue wait\"",
        "\"far fault\"",
        "\"far fault raised\"",
        "\"fault batch\"",
        "\"invalidation broadcast\"",
        "\"migration data transfer\"",
        "\"migration requested\"",
    ] {
        assert!(trace.contains(span), "trace missing {span}");
    }
    // Track metadata names the processes the spans land on.
    for name in ["gpu0 translation", "migrations", "uvm driver"] {
        assert!(trace.contains(name), "trace missing process {name}");
    }
    // The registry flattens per-component stats under dotted names.
    for metric in [
        "\"sim.events_processed\"",
        "\"gpu0.tlb.l2.misses\"",
        "\"gpu0.gmmu.demand.walk_queue.wait_cycles\"",
        "\"latency.demand_miss\"",
        "\"driver.fault_batches\"",
    ] {
        assert!(metrics.contains(metric), "metrics missing {metric}");
    }
}

#[test]
fn trace_filter_restricts_categories() {
    let mut cfg = SystemConfig::test(4);
    cfg.policy = MigrationPolicy::AccessCounter {
        threshold: Scale::Test.counter_threshold(),
    };
    cfg.scheme = Scheme::Idyll;
    let spec = WorkloadSpec::paper_default(AppId::Km, Scale::Test);
    let wl = workloads::generate(&spec, 4, 11);
    let mut sys = System::new(cfg, &wl);
    sys.set_tracer(Tracer::with_filter("migration").expect("a known category"));
    sys.run().expect("completes");
    let trace = sys.tracer().to_chrome_json();
    validate_json(&trace).unwrap();
    assert!(trace.contains("\"migration data transfer\""));
    assert!(!trace.contains("\"L2 TLB miss\""));
    assert!(!trace.contains("\"page walk\""));
}

/// The same observed run with a progress callback installed at a cadence
/// low enough to fire many times at test scale; returns the exports plus
/// every heartbeat the callback saw.
#[expect(
    clippy::disallowed_types,
    reason = "the callback is `Send`, so the test reads its samples back through a Mutex"
)]
fn watched_run_once(
    seed: u64,
    every: u64,
) -> (
    String,
    String,
    SimReport,
    Vec<idyll::system::system::RunProgress>,
) {
    let mut cfg = SystemConfig::test(4);
    cfg.policy = MigrationPolicy::AccessCounter {
        threshold: Scale::Test.counter_threshold(),
    };
    cfg.scheme = Scheme::Idyll;
    let spec = WorkloadSpec::paper_default(AppId::Km, Scale::Test);
    let wl = workloads::generate(&spec, 4, seed);
    let mut sys = System::new(cfg, &wl);
    sys.set_tracer(Tracer::enabled());
    let samples = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let sink = std::sync::Arc::clone(&samples);
    sys.set_progress_callback(
        every,
        Box::new(move |p| sink.lock().expect("samples lock").push(p)),
    );
    let report = sys.run().expect("completes");
    let samples = samples.lock().expect("samples lock").clone();
    (
        sys.tracer().to_chrome_json(),
        sys.metrics_registry().to_json(),
        report,
        samples,
    )
}

/// A `watch`-style progress subscription is pure observation: the exported
/// trace and metrics must stay byte-identical to an unwatched run, and the
/// heartbeats themselves must be monotone.
#[test]
fn progress_callback_does_not_perturb_exports() {
    let (trace_plain, metrics_plain, report_plain) = observed_run_once(11, true);
    let (trace_watched, metrics_watched, report_watched, samples) = watched_run_once(11, 500);
    assert!(
        !samples.is_empty(),
        "cadence 500 must fire at least once in a {}-event run",
        report_watched.events_processed
    );
    assert_eq!(
        trace_plain, trace_watched,
        "progress callback must not perturb the trace export"
    );
    assert_eq!(
        metrics_plain, metrics_watched,
        "progress callback must not perturb the metrics export"
    );
    assert_eq!(report_plain.exec_cycles, report_watched.exec_cycles);
    assert_eq!(
        report_plain.events_processed,
        report_watched.events_processed
    );
    for pair in samples.windows(2) {
        assert!(
            pair[0].events_processed < pair[1].events_processed,
            "heartbeat event counts must strictly increase"
        );
        assert!(
            pair[0].sim_cycle <= pair[1].sim_cycle,
            "heartbeat cycles must be non-decreasing"
        );
    }
}

/// The self-profiler is pure observation too: enabling it must not change
/// any simulation result, and its heap-pop count must equal the event
/// count the report already exposes.
#[test]
fn profiler_does_not_perturb_results() {
    use idyll::sim::prof::{Phase, Profiler};

    let plain = run_once(11, true);
    let mut cfg = SystemConfig::test(4);
    cfg.policy = MigrationPolicy::AccessCounter {
        threshold: Scale::Test.counter_threshold(),
    };
    cfg.scheme = Scheme::Idyll;
    let spec = WorkloadSpec::paper_default(AppId::Km, Scale::Test);
    let wl = workloads::generate(&spec, 4, 11);
    let mut sys = System::new(cfg, &wl);
    sys.set_profiler(Profiler::enabled());
    let profiled = sys.run().expect("completes");
    assert_eq!(plain.exec_cycles, profiled.exec_cycles);
    assert_eq!(plain.events_processed, profiled.events_processed);
    assert_eq!(plain.migrations, profiled.migrations);
    assert_eq!(plain.invalidation_messages, profiled.invalidation_messages);
    let prof = sys.profiler();
    assert_eq!(
        prof.count(Phase::HeapPop),
        profiled.events_processed,
        "every processed event is exactly one heap pop"
    );
    assert!(
        prof.count(Phase::HeapPush) > 0,
        "event handling must schedule follow-up events"
    );
    assert_eq!(
        prof.count(Phase::TlbLookup)
            + prof.count(Phase::WalkSchedule)
            + prof.count(Phase::MigTransfer)
            + prof.count(Phase::Other),
        prof.count(Phase::HeapPop),
        "each handled event is charged to exactly one handler phase"
    );
}

/// Golden pin on the simulated event stream: SC at test scale on 2 GPUs,
/// seed 42, access-counter migration, must process exactly 9349 events
/// under the baseline and 9252 under full IDYLL, serially and with four
/// lane threads. A change to the simulated event stream moves these
/// counts; a change that moves them on purpose updates the literals in the
/// same commit and says why in its message.
#[test]
fn event_counts_match_the_golden_pin() {
    let spec = WorkloadSpec::paper_default(AppId::Sc, Scale::Test);
    let wl = workloads::generate(&spec, 2, 42);
    for (mut cfg, expected) in [
        (SystemConfig::baseline(2), 9349),
        (SystemConfig::idyll(2), 9252),
    ] {
        cfg.policy = MigrationPolicy::AccessCounter {
            threshold: Scale::Test.counter_threshold(),
        };
        for threads in [1, 4] {
            let mut sys = System::new(cfg.clone(), &wl);
            sys.set_threads(threads);
            let report = sys.run().expect("completes");
            assert_eq!(
                report.events_processed, expected,
                "{} at {threads} lane threads",
                report.scheme
            );
        }
    }
}

#[test]
fn report_metadata_round_trips() {
    let r = run_once(5, true);
    assert_eq!(r.scheme, "idyll");
    assert_eq!(r.workload, "KM");
    assert!(r.mpki() > 0.0);
    assert!(!r.summary().is_empty());
}

/// FNV-1a over little-endian bytes: a fixed hasher, so the fingerprint
/// below does not depend on the standard library's hash seed.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Hashes a workload's page span and, per GPU, its trace length and every
/// access as its packed word `(vpn − base_vpn) << 1 | is_write`.
fn trace_fingerprint(mut hash: u64, wl: &workloads::Workload) -> u64 {
    let base = wl.traces.base_vpn().0;
    hash = fnv1a(hash, &base.to_le_bytes());
    hash = fnv1a(hash, &wl.traces.pages().to_le_bytes());
    for g in 0..wl.traces.gpus() {
        hash = fnv1a(hash, &(wl.traces.len(g) as u64).to_le_bytes());
        for a in (0..wl.traces.len(g)).filter_map(|i| wl.traces.get(g, i)) {
            let word = ((a.vpn.0 - base) << 1) | u64::from(a.is_write);
            let word = u32::try_from(word).expect("packed word fits 4 bytes");
            hash = fnv1a(hash, &word.to_le_bytes());
        }
    }
    hash
}

/// Golden pin on the generated traces: one fingerprint per workload
/// source, covering 1, 2, 3, 4 and 32 GPUs at seeds 42 and 7. A change to
/// any random draw of a generator moves the named source's value; a change
/// that moves it on purpose updates the literal in the same commit and says
/// why in its message.
#[test]
fn generated_traces_match_the_golden_fingerprint() {
    use workloads::{DnnModel, WorkloadSource};
    let mut sources = Vec::new();
    for scale in [Scale::Test, Scale::Small] {
        for app in AppId::ALL {
            let spec = WorkloadSpec::paper_default(app, scale);
            sources.push((
                format!("{app} {scale:?}"),
                WorkloadSource::App(spec.clone()),
            ));
            sources.push((
                format!("{app} {scale:?} enlarged(4)"),
                WorkloadSource::App(spec.enlarged(4)),
            ));
        }
        for model in DnnModel::ALL {
            let source = WorkloadSource::named(model.name(), scale).expect("a DNN model");
            sources.push((format!("{model} {scale:?}"), source));
        }
    }
    let mut got = Vec::new();
    for (label, source) in &sources {
        let mut hash = 0xcbf2_9ce4_8422_2325;
        for gpus in [1, 2, 3, 4, 32] {
            for seed in [42, 7] {
                hash = trace_fingerprint(hash, &source.generate(gpus, seed));
            }
        }
        got.push((label.as_str(), hash));
    }
    let expected: &[(&str, u64)] = &[
        ("MT Test", 0x8b548a7bfec00361),
        ("MT Test enlarged(4)", 0x9cf017e7494c8599),
        ("MM Test", 0x98a3f86a249f8250),
        ("MM Test enlarged(4)", 0x3c3808ce576a2279),
        ("PR Test", 0x08a1ddc0e84bf1bc),
        ("PR Test enlarged(4)", 0x14c399d012b29518),
        ("ST Test", 0xb8ba15d2014ef58b),
        ("ST Test enlarged(4)", 0x87f04232a5bc057b),
        ("SC Test", 0xd299392e0638ce01),
        ("SC Test enlarged(4)", 0x6c5d7e089c2d569f),
        ("KM Test", 0xf695ace16e361d79),
        ("KM Test enlarged(4)", 0x590587afd65ecede),
        ("IM Test", 0x92f826bb9dea1030),
        ("IM Test enlarged(4)", 0xd56d292a1c48e372),
        ("C2D Test", 0xb2f733b3e925c696),
        ("C2D Test enlarged(4)", 0xeed2fde29756cf6e),
        ("BS Test", 0x3df5420e99c9a065),
        ("BS Test enlarged(4)", 0xf3c255d9f63b2a70),
        ("VGG16 Test", 0x77c4f48eb20baca3),
        ("ResNet18 Test", 0xf6e2435a8b894d80),
        ("MT Small", 0xa884624bb937c77b),
        ("MT Small enlarged(4)", 0x45e4a435eddbb3f4),
        ("MM Small", 0x2a75bd8b89e55075),
        ("MM Small enlarged(4)", 0xd6106b8fe00fc233),
        ("PR Small", 0x32089b464959cd85),
        ("PR Small enlarged(4)", 0x7918b82b941f4331),
        ("ST Small", 0xd85fda07a5039dcc),
        ("ST Small enlarged(4)", 0x45f49830fa9393d0),
        ("SC Small", 0xb75e2f1ccfca8ba4),
        ("SC Small enlarged(4)", 0x1d6b390a90d65ee0),
        ("KM Small", 0xc9a21ab9a48790e2),
        ("KM Small enlarged(4)", 0x77837c4005df8aa1),
        ("IM Small", 0x08be3c2de9fe9c64),
        ("IM Small enlarged(4)", 0xdede5c0a6bd18d37),
        ("C2D Small", 0xe46fe4edc4cc9e68),
        ("C2D Small enlarged(4)", 0x6eb7aabd4bda1215),
        ("BS Small", 0x83709796789d19a7),
        ("BS Small enlarged(4)", 0xac0607c26c70ff47),
        ("VGG16 Small", 0x0576e5dcac85cae2),
        ("ResNet18 Small", 0xe3f18a62bcb499c9),
    ];
    assert_eq!(got, expected);
}
