//! GPU-count scaling invariants (the paper's §7.2 axis).

#![expect(
    clippy::expect_used,
    reason = "test helpers outside `#[test]` fns; a failed setup fails the test"
)]

use idyll::prelude::*;

fn run(n: usize, idyll_on: bool, app: AppId) -> SimReport {
    let mut cfg = SystemConfig::test(n);
    cfg.policy = MigrationPolicy::AccessCounter {
        threshold: Scale::Test.counter_threshold(),
    };
    if idyll_on {
        cfg.scheme = Scheme::Idyll;
    }
    let spec = WorkloadSpec::paper_default(app, Scale::Test);
    let wl = workloads::generate(&spec, n, 42);
    System::new(cfg, &wl).run().expect("completes")
}

#[test]
fn broadcast_fanout_scales_with_gpu_count() {
    // Baseline sends one invalidation per GPU per migration: the per-
    // migration message rate must equal the GPU count exactly.
    for n in [2usize, 4, 8] {
        let r = run(n, false, AppId::Mm);
        if r.migrations > 0 {
            assert_eq!(
                r.invalidation_messages,
                r.migrations * n as u64,
                "{n} GPUs: broadcast fan-out"
            );
        }
    }
}

#[test]
fn directory_fanout_is_bounded_by_broadcast_at_every_count() {
    for n in [2usize, 4, 8] {
        let base = run(n, false, AppId::Km);
        let idy = run(n, true, AppId::Km);
        if base.migrations > 0 && idy.migrations > 0 {
            let b = base.invalidation_messages as f64 / base.migrations as f64;
            let d = idy.invalidation_messages as f64 / idy.migrations as f64;
            assert!(d <= b + 1e-9, "{n} GPUs: {d:.2} vs {b:.2}");
        }
        assert_eq!(idy.stale_translations, 0);
    }
}

#[test]
fn sharing_distribution_widens_with_more_gpus() {
    // With a fixed footprint, more GPUs share each hot page (the paper's
    // argument for why gains grow with GPU count).
    let spec4 = WorkloadSpec::paper_default(AppId::Pr, Scale::Test);
    let wl4 = workloads::generate(&spec4, 4, 42);
    let wl8 = workloads::generate(&spec4, 8, 42);
    let top4 = wl4.access_sharing_distribution()[3..].iter().sum::<f64>();
    let top8 = wl8.access_sharing_distribution()[5..].iter().sum::<f64>();
    assert!(
        top4 > 0.3,
        "PR at 4 GPUs should be widely shared: {top4:.2}"
    );
    assert!(
        top8 > 0.2,
        "PR at 8 GPUs should still be widely shared: {top8:.2}"
    );
}

#[test]
fn per_gpu_report_totals_scale_with_count() {
    let r2 = run(2, false, AppId::Sc);
    let r8 = run(8, false, AppId::Sc);
    // Same accesses-per-GPU spec → total accesses scale linearly.
    assert_eq!(r8.accesses, r2.accesses * 4);
    assert!(r8.exec_cycles > 0 && r2.exec_cycles > 0);
}
