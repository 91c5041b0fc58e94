//! Mechanism-level integration checks: the IDYLL components must actually
//! engage and move the statistics the paper says they move.

#![expect(
    clippy::expect_used,
    reason = "test helpers outside `#[test]` fns; a failed setup fails the test"
)]

use idyll::prelude::*;

fn base_cfg(n: usize) -> SystemConfig {
    let mut cfg = SystemConfig::test(n);
    cfg.policy = MigrationPolicy::AccessCounter {
        threshold: Scale::Test.counter_threshold(),
    };
    cfg
}

fn run(app: AppId, cfg: SystemConfig) -> SimReport {
    let spec = WorkloadSpec::paper_default(app, Scale::Test);
    let wl = workloads::generate(&spec, cfg.n_gpus, 42);
    System::new(cfg, &wl).run().expect("completes")
}

/// A sharing-heavy workload that reliably triggers migrations at test scale.
const SHARED_APP: AppId = AppId::Mm;

#[test]
fn baseline_broadcasts_invalidations_to_all_gpus() {
    let r = run(SHARED_APP, base_cfg(4));
    assert!(r.migrations > 0, "calibration: migrations must occur");
    assert_eq!(
        r.invalidation_messages,
        r.migrations * 4 + 2 * replication_noise(&r),
        "broadcast sends one invalidation per GPU per migration"
    );
}

// Write-collapse migrations (replication off) and duplicate-dropped requests
// never occur in this configuration; keep the helper for clarity.
fn replication_noise(_r: &SimReport) -> u64 {
    0
}

#[test]
fn directory_cuts_invalidation_messages() {
    let base = run(SHARED_APP, base_cfg(4));
    let mut dir_cfg = base_cfg(4);
    dir_cfg.scheme = Scheme::OnlyInPte;
    let dir = run(SHARED_APP, dir_cfg);
    assert!(dir.migrations > 0);
    let base_per_mig = base.invalidation_messages as f64 / base.migrations as f64;
    let dir_per_mig = dir.invalidation_messages as f64 / dir.migrations as f64;
    assert!(
        dir_per_mig < base_per_mig,
        "directory must send fewer invalidations per migration: {dir_per_mig:.2} vs {base_per_mig:.2}"
    );
}

#[test]
fn directory_never_misses_a_holder() {
    // Soundness proxy: with the directory filtering invalidations, the
    // coherence audit must still pass (a false negative would leave a stale
    // valid PTE behind).
    for app in AppId::ALL {
        let mut cfg = base_cfg(4);
        cfg.scheme = Scheme::OnlyInPte;
        let r = run(app, cfg);
        assert_eq!(r.stale_translations, 0, "{app}");
    }
}

#[test]
fn lazy_invalidation_exercises_the_irmb() {
    let mut cfg = base_cfg(4);
    cfg.scheme = Scheme::OnlyLazy;
    let r = run(SHARED_APP, cfg);
    assert!(r.irmb_inserts > 0, "invalidations must be buffered");
    assert_eq!(
        r.irmb_inserts, r.invalidation_messages,
        "every received invalidation goes through the IRMB"
    );
}

#[test]
fn lazy_invalidation_removes_walker_contention() {
    let base = run(SHARED_APP, base_cfg(4));
    let mut cfg = base_cfg(4);
    cfg.scheme = Scheme::OnlyLazy;
    let lazy = run(SHARED_APP, cfg);
    // The baseline walks one invalidation per message through the GMMU; the
    // lazy scheme coalesces them, so the invalidation-class walk count must
    // shrink.
    assert!(
        lazy.walker_mix.invalidations() < base.walker_mix.invalidations(),
        "lazy: {} vs base: {}",
        lazy.walker_mix.invalidations(),
        base.walker_mix.invalidations()
    );
}

#[test]
fn zero_latency_has_no_invalidation_walks() {
    let mut cfg = base_cfg(4);
    cfg.scheme = Scheme::ZeroLat;
    let r = run(SHARED_APP, cfg);
    assert!(r.migrations > 0);
    assert_eq!(r.invalidation_latency.count(), 0);
    // The instantaneous updates are still classified for Figure 5.
    assert!(r.walker_mix.invalidations() > 0);
}

#[test]
fn replication_grants_replicas_and_collapses_on_writes() {
    let mut cfg = base_cfg(4);
    cfg.scheme = Scheme::Replication;
    let r = run(SHARED_APP, cfg);
    let (replications, collapses) = r.replication.expect("replication stats present");
    assert!(replications > 0, "read sharing must create replicas");
    assert!(collapses > 0, "writes to shared pages must collapse");
    assert_eq!(r.stale_translations, 0);
}

#[test]
fn transfw_probes_and_forwards() {
    let mut cfg = base_cfg(4);
    cfg.scheme = Scheme::TransFw;
    let r = run(AppId::Pr, cfg);
    let (probes, hits, _false_forwards) = r.transfw.expect("transfw stats present");
    assert!(probes > 0, "far faults must probe the PRT");
    assert!(hits > 0, "some probes should hit after mappings spread");
}

#[test]
fn inmem_directory_reports_cache_hit_rate() {
    let mut cfg = base_cfg(4);
    cfg.scheme = Scheme::IdyllInMem;
    let r = run(SHARED_APP, cfg);
    let rate = r.vm_cache_hit_rate.expect("vm-cache stats present");
    assert!((0.0..=1.0).contains(&rate));
    assert!(r.migrations > 0);
}

#[test]
fn sharing_distribution_is_a_distribution() {
    let r = run(AppId::Km, base_cfg(4));
    let total: f64 = r.sharing_distribution.iter().sum();
    assert!((total - 1.0).abs() < 1e-9);
    assert_eq!(r.sharing_distribution.len(), 4);
}

#[test]
fn walker_mix_tracks_unnecessary_invalidations_in_baseline() {
    let r = run(SHARED_APP, base_cfg(4));
    assert!(
        r.walker_mix.invalidation_unnecessary > 0,
        "broadcast must produce unnecessary invalidations"
    );
    assert!(r.walker_mix.unnecessary_share() > 0.05);
}

#[test]
fn idyll_filters_unnecessary_invalidations() {
    let base = run(SHARED_APP, base_cfg(4));
    let mut cfg = base_cfg(4);
    cfg.scheme = Scheme::Idyll;
    let idy = run(SHARED_APP, cfg);
    let base_unnec =
        base.walker_mix.invalidation_unnecessary as f64 / base.migrations.max(1) as f64;
    let idy_unnec = idy.walker_mix.invalidation_unnecessary as f64 / idy.migrations.max(1) as f64;
    assert!(
        idy_unnec < base_unnec,
        "per-migration unnecessary invalidations: idyll {idy_unnec:.2} vs base {base_unnec:.2}"
    );
}
