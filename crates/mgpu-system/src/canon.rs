//! Canonical text of simulation reports, plus the content address of a
//! simulation cell.
//!
//! A simulation cell is identified by *content*, not by name: [`job_key`]
//! is a hash of the derived `Debug` rendering of
//! `(SystemConfig, WorkloadSource, seed)`, where the source is an
//! application's `WorkloadSpec` or a `DnnSpec`. For that to be sound the rendering
//! must be **total** (every field appears, so any change to the inputs
//! changes the key) and **deterministic** (identical values render to
//! identical bytes).
//!
//! Derived `Debug` is total by construction: it prints every field of every
//! struct and the payload of every enum variant, so a new field is keyed
//! without anyone remembering to encode it. A hand-written `Debug` impl on
//! a config or spec type would break that guarantee. The `Debug` format may
//! change between toolchains, so keys are in-process identities only: the
//! evaluation ledger is cleared per process and no key is written to disk.
//!
//! # Example
//!
//! ```
//! use mgpu_system::canon;
//! use mgpu_system::config::SystemConfig;
//! use workloads::{AppId, Scale, WorkloadSource, WorkloadSpec};
//!
//! let cfg = SystemConfig::idyll(4);
//! let source = WorkloadSource::App(WorkloadSpec::paper_default(AppId::Km, Scale::Test));
//! let key = canon::job_key(&cfg, &source, 42);
//! assert_eq!(key.len(), 32); // 128-bit hex
//! ```

use std::hash::{BuildHasher, Hasher};

use sim_engine::collections::DetState;
use workloads::WorkloadSource;

use crate::config::SystemConfig;
use crate::metrics::SimReport;

/// Fixed seeds for the two 64-bit halves of the content address. These are
/// deliberately *not* [`DetState::default`], which honours the
/// `IDYLL_HASH_SEED` hostile override: job keys must survive that attack
/// unchanged (a key that moved under a hostile seed would give the same
/// cell two identities).
const KEY_SEED_LO: u64 = 0x1D11_5EED_0000_0001;
const KEY_SEED_HI: u64 = 0x1D11_5EED_0000_0002;

/// Renders a [`SimReport`] as its pretty-printed derived `Debug` text.
///
/// The text covers every field, so two reports render to the same bytes
/// exactly when they agree field for field; a deterministic simulation
/// re-run must therefore reproduce it byte for byte.
#[must_use]
pub fn encode_report(r: &SimReport) -> String {
    format!("{r:#?}")
}

fn hash_with_seed(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = DetState::with_seed(seed).build_hasher();
    h.write(bytes);
    h.finish()
}

/// The 128-bit content address of one simulation cell, as 32 lowercase hex
/// digits: a fixed-seed hash of the configuration (which embeds the IDYLL
/// mechanism set), the workload source (whose spec embeds the scale) and
/// the workload seed.
///
/// Stable within a process and under the `IDYLL_HASH_SEED` hostile
/// override; changes whenever any field of the inputs changes.
#[must_use]
pub fn job_key(cfg: &SystemConfig, source: &WorkloadSource, seed: u64) -> String {
    let doc = format!("{cfg:?}\u{0}{source:?}\u{0}{seed}");
    let lo = hash_with_seed(KEY_SEED_LO, doc.as_bytes());
    let hi = hash_with_seed(KEY_SEED_HI, doc.as_bytes());
    format!("{lo:016x}{hi:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;
    use sim_engine::Cycle;
    use uvm_driver::policy::MigrationPolicy;
    use workloads::dnn::{DnnModel, DnnSpec};
    use workloads::{AppId, Scale, WorkloadSpec};

    fn app(app: AppId) -> WorkloadSource {
        WorkloadSource::App(WorkloadSpec::paper_default(app, Scale::Test))
    }

    /// A named one-field change to a configuration.
    type Mutation = (&'static str, fn(&mut SystemConfig));

    #[test]
    fn every_config_field_and_payload_changes_the_key() {
        let base = SystemConfig::idyll(4);
        let spec = app(AppId::Km);
        let key = job_key(&base, &spec, 42);
        let mutations: &[Mutation] = &[
            ("n_gpus", |c| c.n_gpus += 1),
            ("gpu", |c| c.gpu.gmmu.walker_threads += 1),
            ("page_size", |c| *c = c.clone().with_large_pages()),
            ("policy", |c| c.policy = MigrationPolicy::FirstTouch),
            ("irmb.bases", |c| c.irmb.bases += 1),
            ("irmb.offsets_per_base", |c| c.irmb.offsets_per_base += 1),
            ("access_bits", |c| c.access_bits = 4),
            ("interconnect", |c| {
                c.interconnect.nvlink_latency += Cycle(1)
            }),
            ("host", |c| c.host.fault_batch += 1),
            ("frames_per_device", |c| c.frames_per_device += 1),
            ("max_events", |c| c.max_events += 1),
            ("policy threshold", |c| {
                c.policy = MigrationPolicy::AccessCounter { threshold: 99 };
            }),
        ];
        for (field, mutate) in mutations {
            let mut cfg = base.clone();
            mutate(&mut cfg);
            assert_ne!(cfg, base, "{field}: the mutation must change the config");
            assert_ne!(key, job_key(&cfg, &spec, 42), "{field} is not keyed");
        }
        let mut keys: Vec<String> = Scheme::ALL
            .into_iter()
            .map(|scheme| {
                job_key(
                    &SystemConfig {
                        scheme,
                        ..base.clone()
                    },
                    &spec,
                    42,
                )
            })
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), Scheme::ALL.len(), "every scheme is keyed apart");
    }

    #[test]
    fn job_key_is_stable_and_input_sensitive() {
        let cfg = SystemConfig::idyll(4);
        let spec = app(AppId::Km);
        let key = job_key(&cfg, &spec, 42);
        assert_eq!(key.len(), 32);
        assert_eq!(key, job_key(&cfg, &spec, 42), "same inputs, same key");
        assert_ne!(key, job_key(&cfg, &spec, 43), "seed changes the key");
        assert_ne!(
            key,
            job_key(&SystemConfig::baseline(4), &spec, 42),
            "config changes the key"
        );
        assert_ne!(
            key,
            job_key(&cfg, &app(AppId::Bs), 42),
            "spec changes the key"
        );
    }

    #[test]
    fn dnn_specs_are_keyed_apart_from_apps_and_by_every_field() {
        let cfg = SystemConfig::idyll(4);
        let vgg = DnnSpec::test_default(DnnModel::Vgg16);
        let key = job_key(&cfg, &WorkloadSource::Dnn(vgg), 42);
        assert_ne!(key, job_key(&cfg, &app(AppId::Km), 42));
        let variants = [
            DnnSpec::test_default(DnnModel::Resnet18),
            DnnSpec::paper_default(DnnModel::Vgg16),
            DnnSpec {
                weight_sharing: 0.5,
                ..vgg
            },
        ];
        for spec in variants {
            assert_ne!(
                key,
                job_key(&cfg, &WorkloadSource::Dnn(spec), 42),
                "{spec:?}"
            );
        }
    }

    #[test]
    fn job_key_ignores_the_hostile_hash_seed() {
        let cfg = SystemConfig::test(2);
        let spec = app(AppId::Mt);
        let before = job_key(&cfg, &spec, 7);
        // set_var is safe in edition 2021. DetState::default would react to
        // this; the key hashing must not.
        std::env::set_var("IDYLL_HASH_SEED", "0xdeadbeef");
        let under_attack = job_key(&cfg, &spec, 7);
        std::env::remove_var("IDYLL_HASH_SEED");
        assert_eq!(
            before, under_attack,
            "job keys must survive IDYLL_HASH_SEED"
        );
    }
}
