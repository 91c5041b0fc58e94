//! Property-based end-to-end tests: arbitrary small configurations must
//! complete, conserve accesses, and uphold the coherence audit.

use idyll::prelude::*;
use proptest::prelude::*;

fn apps() -> impl Strategy<Value = AppId> {
    prop::sample::select(AppId::ALL.to_vec())
}

fn schemes() -> impl Strategy<Value = Scheme> {
    prop::sample::select(Scheme::ALL.to_vec())
}

fn build(scheme: Scheme, n_gpus: usize) -> SystemConfig {
    let mut cfg = SystemConfig::test(n_gpus);
    cfg.policy = MigrationPolicy::AccessCounter {
        threshold: Scale::Test.counter_threshold(),
    };
    cfg.scheme = scheme;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    #[test]
    fn any_configuration_completes_coherently(
        app in apps(),
        scheme in schemes(),
        n_gpus in 1usize..5,
        seed in 0u64..1000,
    ) {
        let cfg = build(scheme, n_gpus);
        let spec = WorkloadSpec::paper_default(app, Scale::Test);
        let wl = workloads::generate(&spec, n_gpus, seed);
        let expected = wl.total_accesses();
        let report = System::new(cfg, &wl).run().expect("simulation completes");
        prop_assert_eq!(report.accesses, expected, "access conservation");
        prop_assert_eq!(report.stale_translations, 0, "translation coherence");
        prop_assert!(report.exec_cycles > 0);
    }

    #[test]
    fn idyll_never_sends_more_invalidations_per_migration_than_broadcast(
        app in apps(),
        seed in 0u64..100,
    ) {
        let n = 4;
        let spec = WorkloadSpec::paper_default(app, Scale::Test);
        let wl = workloads::generate(&spec, n, seed);
        let base = System::new(build(Scheme::Baseline, n), &wl).run().expect("base");
        let idy = System::new(build(Scheme::Idyll, n), &wl).run().expect("idyll");
        if base.migrations > 0 && idy.migrations > 0 {
            let base_rate = base.invalidation_messages as f64 / base.migrations as f64;
            let idy_rate = idy.invalidation_messages as f64 / idy.migrations as f64;
            // Directory filtering can only reduce the fan-out (false
            // positives are bounded by the broadcast).
            prop_assert!(idy_rate <= base_rate + 1e-9,
                "idyll {idy_rate} vs broadcast {base_rate}");
        }
    }
}
