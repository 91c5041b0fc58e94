//! Cross-crate integration: every application completes end-to-end under
//! every scheme, conserving accesses and upholding the coherence audit.

#![expect(
    clippy::expect_used,
    reason = "test helpers outside `#[test]` fns; a failed setup fails the test"
)]

use idyll::prelude::*;
use idyll::system::config::HostConfig;

fn test_config(n_gpus: usize) -> SystemConfig {
    let mut cfg = SystemConfig::test(n_gpus);
    cfg.policy = MigrationPolicy::AccessCounter {
        threshold: Scale::Test.counter_threshold(),
    };
    cfg.host = HostConfig {
        batch_window: sim_engine::Cycle(200),
        ..HostConfig::default()
    };
    cfg
}

fn run(app: AppId, mut cfg: SystemConfig) -> SimReport {
    cfg.policy = MigrationPolicy::AccessCounter {
        threshold: Scale::Test.counter_threshold(),
    };
    let spec = WorkloadSpec::paper_default(app, Scale::Test);
    let wl = workloads::generate(&spec, cfg.n_gpus, 42);
    let expected = wl.total_accesses();
    let report = System::new(cfg, &wl).run().expect("simulation completes");
    assert_eq!(
        report.accesses, expected,
        "{app}: every issued access must complete"
    );
    assert_eq!(
        report.stale_translations, 0,
        "{app}: translation coherence violated"
    );
    assert!(report.exec_cycles > 0);
    report
}

#[test]
fn all_apps_complete_under_baseline() {
    for app in AppId::ALL {
        run(app, test_config(4));
    }
}

#[test]
fn all_apps_complete_under_idyll() {
    for app in AppId::ALL {
        let mut cfg = test_config(4);
        cfg.scheme = Scheme::Idyll;
        run(app, cfg);
    }
}

#[test]
fn all_apps_complete_under_only_lazy() {
    for app in AppId::ALL {
        let mut cfg = test_config(4);
        cfg.scheme = Scheme::OnlyLazy;
        run(app, cfg);
    }
}

#[test]
fn all_apps_complete_under_only_directory() {
    for app in AppId::ALL {
        let mut cfg = test_config(4);
        cfg.scheme = Scheme::OnlyInPte;
        run(app, cfg);
    }
}

#[test]
fn all_apps_complete_under_inmem() {
    for app in AppId::ALL {
        let mut cfg = test_config(4);
        cfg.scheme = Scheme::IdyllInMem;
        run(app, cfg);
    }
}

#[test]
fn all_apps_complete_under_zerolat() {
    for app in AppId::ALL {
        let mut cfg = test_config(4);
        cfg.scheme = Scheme::ZeroLat;
        run(app, cfg);
    }
}

#[test]
fn all_apps_complete_under_replication() {
    for app in AppId::ALL {
        let mut cfg = test_config(4);
        cfg.scheme = Scheme::Replication;
        run(app, cfg);
    }
}

#[test]
fn all_apps_complete_under_transfw_and_combined() {
    for app in [AppId::Pr, AppId::Mm, AppId::St] {
        let mut cfg = test_config(4);
        cfg.scheme = Scheme::TransFw;
        run(app, cfg.clone());
        cfg.scheme = Scheme::IdyllTransFw;
        run(app, cfg);
    }
}

#[test]
fn migration_policies_complete() {
    for policy in [MigrationPolicy::FirstTouch, MigrationPolicy::OnTouch] {
        let mut cfg = test_config(2);
        cfg.policy = policy;
        let spec = WorkloadSpec::paper_default(AppId::Sc, Scale::Test);
        let wl = workloads::generate(&spec, 2, 42);
        let report = System::new(cfg, &wl).run().expect("completes");
        assert_eq!(report.accesses, wl.total_accesses());
        if policy == MigrationPolicy::FirstTouch {
            assert_eq!(report.migrations, 0, "first-touch never migrates");
        }
    }
}

#[test]
fn dnn_workloads_complete() {
    use idyll::workloads::dnn::{generate_dnn, DnnModel, DnnSpec};
    for model in [DnnModel::Vgg16, DnnModel::Resnet18] {
        let wl = generate_dnn(&DnnSpec::test_default(model), 4, 3);
        for idyll_on in [false, true] {
            let mut cfg = test_config(4);
            if idyll_on {
                cfg.scheme = Scheme::Idyll;
            }
            let report = System::new(cfg, &wl).run().expect("completes");
            assert_eq!(report.accesses, wl.total_accesses());
            assert_eq!(report.stale_translations, 0);
        }
    }
}

#[test]
fn large_pages_complete() {
    for app in [AppId::Pr, AppId::St] {
        let cfg = test_config(4).with_large_pages();
        run(app, cfg);
    }
}

#[test]
fn gpu_count_scaling_completes() {
    for n in [1, 2, 8] {
        let mut cfg = test_config(n);
        cfg.scheme = Scheme::Idyll;
        run(AppId::Km, cfg);
    }
}
