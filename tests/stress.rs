//! Stress and failure-injection tests: tiny structural resources force the
//! back-pressure, overflow and out-of-memory paths that normal-sized runs
//! rarely exercise. Everything must still complete coherently. The last
//! group pins configurations that once tripped the coherence audit or ran
//! away (replication, Trans-FW, on-touch).

#![expect(
    clippy::panic,
    reason = "test helpers outside `#[test]` fns; a failed setup fails the test"
)]

use idyll::prelude::*;
use idyll::sim::trace::Tracer;
use idyll::vm::tlb::TlbConfig;

fn base() -> SystemConfig {
    let mut cfg = SystemConfig::test(4);
    cfg.policy = MigrationPolicy::AccessCounter {
        threshold: Scale::Test.counter_threshold(),
    };
    cfg
}

/// Runs with the fault, invalidation and migration trace categories on, so
/// a failure (a stall or a stale translation) prints the state dump and the
/// protocol history leading up to it.
fn run(cfg: SystemConfig, app: AppId) -> SimReport {
    let spec = WorkloadSpec::paper_default(app, Scale::Test);
    let wl = workloads::generate(&spec, cfg.n_gpus, 42);
    let expected = wl.total_accesses();
    let mut sys = System::new(cfg, &wl);
    let tracer = Tracer::with_filter("fault,invalidation,migration")
        .unwrap_or_else(|e| panic!("trace filter: {e}"));
    sys.set_tracer(tracer);
    let r = sys
        .run_debug()
        .unwrap_or_else(|(e, dump)| panic!("did not complete under stress: {e}\n{dump}"));
    assert_eq!(r.accesses, expected);
    assert_eq!(r.stale_translations, 0);
    r
}

#[test]
fn single_entry_walk_queue_backpressures_but_completes() {
    let mut cfg = base();
    cfg.gpu.gmmu.walk_queue_entries = 1;
    run(cfg, AppId::Pr);
}

#[test]
fn single_walker_thread_serialises_everything() {
    let mut cfg = base();
    cfg.gpu.gmmu.walker_threads = 1;
    let r = run(cfg, AppId::Km);
    // With one walker the demand-miss latency must exceed the multi-walker
    // baseline's.
    let many = run(base(), AppId::Km);
    assert!(
        r.demand_miss_latency.mean().unwrap_or(0.0)
            >= many.demand_miss_latency.mean().unwrap_or(0.0),
        "one walker cannot be faster than eight"
    );
}

#[test]
fn tiny_mshr_forces_structural_stalls() {
    let mut cfg = base();
    cfg.gpu.l2_mshr_entries = 2;
    run(cfg, AppId::Mt);
}

#[test]
fn minimal_pwc_still_correct() {
    let mut cfg = base();
    cfg.gpu.gmmu.pwc_entries = 4;
    let r = run(cfg, AppId::Pr);
    assert!(r.pwc_hit_rate < 1.0);
}

#[test]
fn one_by_one_irmb_thrashes_but_stays_coherent() {
    let mut cfg = base();
    cfg.scheme = Scheme::Idyll;
    cfg.irmb = IrmbConfig::new(1, 1);
    let r = run(cfg, AppId::Mm);
    assert!(
        r.irmb_evictions > 0,
        "a (1,1) IRMB must evict under migration load"
    );
}

#[test]
fn tiny_l1_and_l2_tlbs_complete() {
    let mut cfg = base();
    cfg.gpu.l1_tlb = TlbConfig {
        entries: 2,
        ways: 2,
        latency: sim_engine::Cycle(1),
    };
    cfg.gpu.l2_tlb = TlbConfig {
        entries: 16,
        ways: 4,
        latency: sim_engine::Cycle(10),
    };
    let r = run(cfg, AppId::Sc);
    assert!(r.l2_tlb_misses > 0);
}

#[test]
fn scarce_device_frames_degrade_gracefully() {
    // Barely more frames per device than the per-GPU footprint share: the
    // allocator exercises its recycle and failure paths (replication
    // especially).
    let mut cfg = base();
    cfg.frames_per_device = 700;
    cfg.scheme = Scheme::Replication;
    run(cfg, AppId::Bs);
}

#[test]
fn tiny_fault_batches_and_windows() {
    let mut cfg = base();
    cfg.host.fault_batch = 2;
    cfg.host.batch_window = sim_engine::Cycle(50);
    run(cfg, AppId::St);
}

#[test]
fn single_host_walker_serialises_driver_work() {
    let mut cfg = base();
    cfg.host.walk_threads = 1;
    run(cfg, AppId::Km);
}

#[test]
fn zero_cooldown_allows_maximum_ping_pong() {
    let mut cfg = base();
    cfg.host.migration_cooldown = sim_engine::Cycle(0);
    cfg.policy = MigrationPolicy::OnTouch;
    // On-touch with no throttle is the worst case; it must still terminate
    // within the event bound.
    run(cfg, AppId::Sc);
}

#[test]
fn combined_worst_case_configuration() {
    let mut cfg = base();
    cfg.gpu.gmmu.walk_queue_entries = 2;
    cfg.gpu.gmmu.walker_threads = 1;
    cfg.gpu.l2_mshr_entries = 4;
    cfg.gpu.gmmu.pwc_entries = 4;
    cfg.scheme = Scheme::Idyll;
    cfg.irmb = IrmbConfig::new(2, 2);
    run(cfg, AppId::Km);
}

#[test]
fn replication_with_access_counter_migration_stays_coherent() {
    let mut cfg = base();
    cfg.scheme = Scheme::Replication;
    run(cfg, AppId::Mt);
}

#[test]
fn transfw_stays_coherent() {
    let mut cfg = base();
    cfg.scheme = Scheme::TransFw;
    run(cfg, AppId::St);
}

#[test]
fn transfw_with_full_idyll_stays_coherent() {
    let mut cfg = base();
    cfg.scheme = Scheme::IdyllTransFw;
    run(cfg, AppId::St);
}

#[test]
fn on_touch_terminates_without_livelock() {
    let mut cfg = SystemConfig::test(2);
    cfg.policy = MigrationPolicy::OnTouch;
    cfg.max_events = 2_000_000;
    run(cfg, AppId::Sc);
}

#[test]
fn replication_with_low_counter_threshold_terminates() {
    let mut cfg = SystemConfig::test(4);
    cfg.scheme = Scheme::Replication;
    cfg.policy = MigrationPolicy::AccessCounter { threshold: 4 };
    cfg.max_events = 2_000_000;
    run(cfg, AppId::Mt);
}

#[test]
fn one_entry_mshr_wakes_every_parked_lookup() {
    // With a single L2 MSHR entry nearly every miss parks. A lost wake-up
    // strands a lookup, so its warp never retires and the run ends
    // `Stalled`; an ordering leak between lanes shows up as a thread-count
    // dependence.
    for idyll_on in [false, true] {
        let mut cfg = base();
        cfg.gpu.l2_mshr_entries = 1;
        if idyll_on {
            cfg.scheme = Scheme::Idyll;
        }
        let spec = WorkloadSpec::paper_default(AppId::Pr, Scale::Test);
        let wl = workloads::generate(&spec, cfg.n_gpus, 42);
        let mut outputs = Vec::new();
        for threads in [1, 2] {
            let mut sys = System::new(cfg.clone(), &wl);
            sys.set_threads(threads);
            let r = sys
                .run()
                .unwrap_or_else(|e| panic!("idyll={idyll_on} threads={threads}: {e}"));
            assert_eq!(r.accesses, wl.total_accesses());
            assert_eq!(r.stale_translations, 0);
            outputs.push((r.events_processed, sys.metrics_registry().to_json()));
        }
        assert_eq!(outputs[0], outputs[1], "idyll={idyll_on}: 1 vs 2 threads");
    }
}

#[test]
fn stalled_lookups_cost_no_events_while_parked() {
    // A lookup that finds the MSHR full parks until an entry is released
    // instead of polling. PR on 16 GPUs saturates the MSHR; polling every
    // few dozen cycles costs ~42 events per trace access here, parking ~8.
    let n = 16;
    let mut cfg = SystemConfig::baseline(n);
    cfg.policy = MigrationPolicy::AccessCounter {
        threshold: Scale::Test.counter_threshold(),
    };
    let spec = WorkloadSpec::paper_default(AppId::Pr, Scale::Test);
    let wl = workloads::generate(&spec, n, 42);
    let r = System::new(cfg, &wl).run().expect("completes");
    let per_access = r.events_processed as f64 / wl.total_accesses() as f64;
    assert!(
        per_access <= 12.0,
        "{per_access:.1} events per trace access ({} events, {} accesses)",
        r.events_processed,
        wl.total_accesses()
    );
}
