//! Fuzz-style property tests for the strict canon decoders.
//!
//! Canonical documents may be read back from files, so `decode_config` /
//! `decode_spec` / `decode_report` must be total over arbitrary text:
//! malformed, truncated, reordered or duplicated input
//! returns a [`CanonError`] — it never panics — and every value the encoders
//! can produce round-trips to an identical document.

use gpu_model::scheduler::CtaSchedule;
use idyll_core::irmb::{IrmbConfig, IrmbReplacement};
use idyll_core::transfw::TransFwConfig;
use mgpu_system::canon::{
    decode_config, decode_report, decode_spec, encode_config, encode_report, encode_spec,
};
use mgpu_system::config::{DirectoryMode, IdyllConfig, SystemConfig};
use proptest::prelude::*;
use uvm_driver::policy::MigrationPolicy;
use workloads::{AppId, Scale, WorkloadSpec};

/// Inputs driving every canon-visible knob of [`arbitrary_config`].
struct ConfigParams {
    n_gpus: usize,
    scheme: u8,
    directory: u8,
    lazy: bool,
    replication: bool,
    large_pages: bool,
    threshold: u32,
    seed: u64,
}

/// Builds a config whose every canon-visible knob is driven by the inputs,
/// so the round-trip property exercises all encoder branches (idyll on/off,
/// each directory mode, both IRMB replacements, transfw on/off, ...).
fn arbitrary_config(p: &ConfigParams) -> SystemConfig {
    let ConfigParams {
        n_gpus,
        scheme,
        directory,
        lazy,
        replication,
        large_pages,
        threshold,
        seed,
    } = *p;
    let mut cfg = match scheme % 3 {
        0 => SystemConfig::baseline(n_gpus),
        1 => SystemConfig::idyll(n_gpus),
        _ => SystemConfig::test(n_gpus),
    };
    if large_pages {
        cfg = cfg.with_large_pages();
    }
    cfg.cta_schedule = match scheme % 4 {
        0 => CtaSchedule::RoundRobin,
        1 => CtaSchedule::BlockContiguous,
        _ => CtaSchedule::BlockCyclic(usize::from(threshold as u16).max(1)),
    };
    cfg.policy = match directory % 3 {
        0 => MigrationPolicy::FirstTouch,
        1 => MigrationPolicy::OnTouch,
        _ => MigrationPolicy::AccessCounter {
            threshold: threshold.max(1),
        },
    };
    cfg.replication = replication;
    cfg.zero_latency_invalidation = scheme.is_multiple_of(5);
    cfg.transfw = if seed.is_multiple_of(2) {
        Some(TransFwConfig {
            fingerprints: (threshold as usize).max(1),
        })
    } else {
        None
    };
    cfg.idyll = if scheme.is_multiple_of(3) {
        None
    } else {
        Some(IdyllConfig {
            lazy,
            directory: match directory % 3 {
                0 => DirectoryMode::Broadcast,
                1 => DirectoryMode::InMem,
                _ => DirectoryMode::InPte {
                    access_bits: (threshold % 19).max(1),
                },
            },
            irmb: IrmbConfig {
                bases: (threshold as usize % 64).max(1),
                offsets_per_base: (seed as usize % 16).max(1),
                replacement: if lazy {
                    IrmbReplacement::Lru
                } else {
                    IrmbReplacement::Fifo
                },
            },
            bypass_on_irmb_hit: replication,
        })
    };
    cfg.host.prefetch = lazy;
    cfg.seed = seed;
    cfg.max_events = seed.wrapping_mul(31) % 1_000_000;
    cfg
}

fn arbitrary_spec(app: u8, scale: u8, factor: u64) -> WorkloadSpec {
    let app = AppId::ALL[app as usize % AppId::ALL.len()];
    let scale = [Scale::Test, Scale::Small, Scale::Full][scale as usize % 3];
    let spec = WorkloadSpec::paper_default(app, scale);
    if factor > 1 {
        spec.enlarged(factor)
    } else {
        spec
    }
}

/// Applies one structural mutation to an encoded document. Index math is
/// derived from the inputs so every case is deterministic.
fn mutate(text: &str, kind: u8, at: usize) -> String {
    let lines: Vec<&str> = text.lines().collect();
    match kind % 4 {
        // Truncate mid-document (often mid-line).
        0 => text[..at % text.len().max(1)].to_string(),
        // Delete one line.
        1 => {
            let drop = at % lines.len();
            lines
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != drop)
                .map(|(_, l)| *l)
                .collect::<Vec<_>>()
                .join("\n")
        }
        // Duplicate one line.
        2 => {
            let dup = at % lines.len();
            let mut out = lines.clone();
            out.insert(dup, lines[dup]);
            out.join("\n")
        }
        // Swap two lines (reorder).
        _ => {
            let i = at % lines.len();
            let j = (at / 7 + 1) % lines.len();
            let mut out = lines.clone();
            out.swap(i, j);
            out.join("\n")
        }
    }
}

proptest! {
    #[test]
    fn config_roundtrips_for_arbitrary_values(
        n_gpus in 1usize..9,
        scheme in 0u8..16,
        directory in 0u8..16,
        lazy in prop::bool::ANY,
        replication in prop::bool::ANY,
        large_pages in prop::bool::ANY,
        threshold in 1u32..100_000,
        seed in 0u64..u64::MAX,
    ) {
        let cfg = arbitrary_config(&ConfigParams {
            n_gpus,
            scheme,
            directory,
            lazy,
            replication,
            large_pages,
            threshold,
            seed,
        });
        let text = encode_config(&cfg);
        let back = decode_config(&text);
        prop_assert!(back.is_ok(), "encoded config must decode: {back:?}");
        let back = back.unwrap();
        prop_assert_eq!(&back, &cfg);
        prop_assert_eq!(encode_config(&back), text, "re-encode must be byte-identical");
    }

    #[test]
    fn spec_roundtrips_for_arbitrary_values(
        app in 0u8..32,
        scale in 0u8..8,
        factor in 1u64..6,
    ) {
        let spec = arbitrary_spec(app, scale, factor);
        let text = encode_spec(&spec);
        let back = decode_spec(&text);
        prop_assert!(back.is_ok(), "encoded spec must decode: {back:?}");
        prop_assert_eq!(back.unwrap(), spec);
    }

    #[test]
    fn mutated_config_documents_error_never_panic(
        n_gpus in 1usize..5,
        scheme in 0u8..16,
        kind in 0u8..8,
        at in 0usize..10_000,
        seed in 0u64..u64::MAX,
    ) {
        let cfg = arbitrary_config(&ConfigParams {
            n_gpus,
            scheme,
            directory: scheme,
            lazy: true,
            replication: false,
            large_pages: false,
            threshold: 7,
            seed,
        });
        let text = encode_config(&cfg);
        let broken = mutate(&text, kind, at);
        // A panic here fails the test; Err (or, for a benign reorder, an Ok
        // that still round-trips) is the contract.
        match decode_config(&broken) {
            Err(_) => {}
            Ok(back) => prop_assert_eq!(
                back,
                cfg,
                "a mutation that still decodes must not change the value"
            ),
        }
    }

    #[test]
    fn mutated_spec_documents_error_never_panic(
        app in 0u8..32,
        kind in 0u8..8,
        at in 0usize..10_000,
    ) {
        let spec = arbitrary_spec(app, app, 1);
        let text = encode_spec(&spec);
        match decode_spec(&mutate(&text, kind, at)) {
            Err(_) => {}
            Ok(back) => prop_assert_eq!(back, spec),
        }
    }

    #[test]
    fn garbage_never_panics_any_decoder(
        bytes in prop::collection::vec(0u8..128, 0..400),
    ) {
        let text: String = bytes.iter().map(|&b| char::from(b)).collect();
        let _ = decode_config(&text);
        let _ = decode_spec(&text);
        let _ = decode_report(&text);
    }
}

#[test]
fn mutated_report_documents_error_never_panic() {
    // Reports come from a real (tiny) run; mutate that document every way.
    let cfg = SystemConfig::test(2);
    let spec = WorkloadSpec::paper_default(AppId::Bs, Scale::Test);
    let wl = workloads::generate(&spec, 2, 3);
    let report = mgpu_system::System::new(cfg, &wl).run().expect("runs");
    let text = encode_report(&report);
    for kind in 0..4u8 {
        for at in (0..text.len()).step_by(7) {
            let broken = mutate(&text, kind, at);
            if let Ok(back) = decode_report(&broken) {
                assert_eq!(
                    encode_report(&back).lines().count(),
                    text.lines().count(),
                    "kind={kind} at={at}: benign mutation changed the document"
                );
            }
        }
    }
}
