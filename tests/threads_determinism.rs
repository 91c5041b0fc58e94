//! Parallel event core determinism (DESIGN.md "Parallel event core"):
//! the per-GPU event lanes must produce byte-identical artifacts — the
//! metrics-registry JSON, the Chrome trace export, and the event count —
//! for ANY worker thread count. The conservative-lookahead schedule is
//! phased identically in serial and parallel mode, so there is nothing a
//! thread may observe that depends on how lanes are packed onto workers.

#![expect(
    clippy::expect_used,
    reason = "test helpers outside `#[test]` fns; a failed setup fails the test"
)]

use idyll::prelude::*;
use idyll::sim::trace::{validate_json, Tracer};

/// One observed run at a given worker-thread count; returns every exported
/// artifact a user could diff.
fn observed_run(cfg: &SystemConfig, seed: u64, threads: usize) -> (String, String, u64, u64) {
    let spec = WorkloadSpec::paper_default(AppId::Km, Scale::Test);
    let wl = workloads::generate(&spec, cfg.n_gpus, seed);
    let mut sys = System::new(cfg.clone(), &wl);
    sys.set_threads(threads);
    sys.set_tracer(Tracer::enabled());
    let report = sys.run().expect("completes");
    (
        sys.tracer().to_chrome_json(),
        sys.metrics_registry().to_json(),
        report.events_processed,
        report.exec_cycles,
    )
}

/// The two configurations the sweep covers: the plain baseline driver and
/// the full IDYLL mechanism set (IRMB + lazy invalidations + directory).
fn sweep_configs() -> Vec<SystemConfig> {
    let mut baseline = SystemConfig::test(4);
    baseline.policy = MigrationPolicy::AccessCounter {
        threshold: Scale::Test.counter_threshold(),
    };
    let mut idyll_full = baseline.clone();
    idyll_full.scheme = Scheme::Idyll;
    vec![baseline, idyll_full]
}

#[test]
fn thread_sweep_is_byte_identical() {
    for (ci, cfg) in sweep_configs().iter().enumerate() {
        let (trace1, metrics1, events1, cycles1) = observed_run(cfg, 11, 1);
        validate_json(&trace1).expect("trace export is well-formed");
        // 3 splits the 4 lanes unevenly (2 + 1 + 1); 8 clamps to 4.
        for threads in [2usize, 3, 4, 8] {
            let (trace_n, metrics_n, events_n, cycles_n) = observed_run(cfg, 11, threads);
            assert_eq!(
                events1, events_n,
                "config {ci}: event count diverges at threads={threads}"
            );
            assert_eq!(
                cycles1, cycles_n,
                "config {ci}: exec cycles diverge at threads={threads}"
            );
            assert_eq!(
                metrics1, metrics_n,
                "config {ci}: metrics JSON diverges at threads={threads}"
            );
            assert_eq!(
                trace_n, trace1,
                "config {ci}: trace export diverges at threads={threads}"
            );
        }
    }
}

#[test]
fn oversubscribed_threads_clamp_to_lanes() {
    // More workers than lanes (4 GPU lanes here) must behave exactly like
    // a fully-subscribed run, not deadlock or skew the schedule.
    let cfg = &sweep_configs()[1];
    let (trace1, metrics1, events1, _) = observed_run(cfg, 23, 1);
    let (trace16, metrics16, events16, _) = observed_run(cfg, 23, 16);
    assert_eq!(events1, events16);
    assert_eq!(metrics1, metrics16);
    assert_eq!(trace1, trace16);
}
