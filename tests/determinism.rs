//! Determinism invariant (DESIGN.md invariant 5): identical seed and
//! configuration produce bit-identical results — including the trace and
//! metrics exports — and different seeds diverge.

use idyll::prelude::*;
use idyll::sim::trace::{validate_json, Tracer};

fn run_once(seed: u64, idyll_on: bool) -> SimReport {
    let mut cfg = SystemConfig::test(4);
    cfg.policy = MigrationPolicy::AccessCounter {
        threshold: Scale::Test.counter_threshold(),
    };
    if idyll_on {
        cfg.idyll = Some(IdyllConfig::full());
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
        cfg.idyll = Some(IdyllConfig::full());
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
    cfg.idyll = Some(IdyllConfig::full());
    let spec = WorkloadSpec::paper_default(AppId::Km, Scale::Test);
    let wl = workloads::generate(&spec, 4, 11);
    let mut sys = System::new(cfg, &wl);
    sys.set_tracer(Tracer::with_filter("migration"));
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
    cfg.idyll = Some(IdyllConfig::full());
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
    cfg.idyll = Some(IdyllConfig::full());
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
/// seed 42, access-counter migration, must process exactly 9654 events
/// under the baseline and 9559 under full IDYLL, serially and with four
/// lane threads. A change to the simulated event stream moves these
/// counts; a change that moves them on purpose updates the literals in the
/// same commit and says why in its message.
#[test]
fn event_counts_match_the_golden_pin() {
    let spec = WorkloadSpec::paper_default(AppId::Sc, Scale::Test);
    let wl = workloads::generate(&spec, 2, 42);
    for (mut cfg, expected) in [
        (SystemConfig::baseline(2), 9654),
        (SystemConfig::idyll(2), 9559),
    ] {
        cfg.policy = MigrationPolicy::AccessCounter {
            threshold: Scale::Test.counter_threshold(),
        };
        cfg.seed = 42;
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
