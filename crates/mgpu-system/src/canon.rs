//! Canonical text encodings of configurations, workload specs and reports,
//! plus the content-address derived from them.
//!
//! A simulation cell is identified by *content*, not by name: [`job_key`]
//! is a stable hash of the canonical encoding of
//! `(SystemConfig, WorkloadSpec, seed)`. For that to be sound the encoding
//! must be **total** (every field appears — adding a field changes every
//! key, which is exactly right) and **deterministic** (identical values
//! render to identical bytes on every platform).
//!
//! Totality is enforced by the compiler: every encoder binds its structs
//! with an exhaustive destructuring pattern (no `..`), and every enum is
//! rendered by an exhaustive `match`, so a new field or variant that is not
//! encoded fails to build.
//!
//! The format is line-oriented `key value` text: a version header, then
//! one field per line in a fixed order. Floats use Rust's
//! shortest-roundtrip formatting, which is deterministic for equal bit
//! patterns.
//!
//! # Example
//!
//! ```
//! use mgpu_system::canon;
//! use mgpu_system::config::SystemConfig;
//! use workloads::{AppId, Scale, WorkloadSpec};
//!
//! let cfg = SystemConfig::idyll(4);
//! let spec = WorkloadSpec::paper_default(AppId::Km, Scale::Test);
//! assert!(canon::encode_config(&cfg).starts_with("# idyll-canon config v2\n"));
//! let key = canon::job_key(&cfg, &spec, 42);
//! assert_eq!(key.len(), 32); // 128-bit hex
//! ```

use std::fmt::{Display, Write as _};
use std::hash::{BuildHasher, Hasher};

use gpu_model::gmmu::GmmuConfig;
use gpu_model::gpu::GpuConfig;
use idyll_core::irmb::IrmbConfig;
use idyll_core::transfw::TransFwConfig;
use mem_model::interconnect::InterconnectConfig;
use sim_engine::collections::DetState;
use sim_engine::stats::Accumulator;
use uvm_driver::policy::MigrationPolicy;
use vm_model::addr::PageSize;
use vm_model::tlb::TlbConfig;
use vm_model::walker::WalkerConfig;
use workloads::WorkloadSpec;

use crate::config::{DirectoryMode, HostConfig, IdyllConfig, SystemConfig};
use crate::metrics::{SimReport, WalkerMix};

/// Version headers; bumped whenever a field is added, removed or re-ordered
/// (which intentionally changes every job key).
const CONFIG_HEADER: &str = "# idyll-canon config v2";
const SPEC_HEADER: &str = "# idyll-canon spec v1";
const REPORT_HEADER: &str = "# idyll-canon report v1";

/// Fixed seeds for the two 64-bit halves of the content address. These are
/// deliberately *not* [`DetState::default`], which honours the
/// `IDYLL_HASH_SEED` hostile override: job keys must survive that attack
/// unchanged (a key that moved under a hostile seed would give the same
/// cell two identities).
const KEY_SEED_LO: u64 = 0x1D11_5EED_0000_0001;
const KEY_SEED_HI: u64 = 0x1D11_5EED_0000_0002;

/// Appends one `key value` line. `f64` values render through `Display`,
/// i.e. shortest-roundtrip (`inf`/`-inf` included).
fn kv(s: &mut String, key: &str, value: impl Display) {
    let _ = writeln!(s, "{key} {value}");
}

// ---------------------------------------------------------------------------
// Scalar leaf encodings
// ---------------------------------------------------------------------------

fn page_size_str(p: PageSize) -> &'static str {
    match p {
        PageSize::Size4K => "4k",
        PageSize::Size2M => "2m",
    }
}

fn policy_str(p: MigrationPolicy) -> String {
    match p {
        MigrationPolicy::FirstTouch => "first-touch".into(),
        MigrationPolicy::OnTouch => "on-touch".into(),
        MigrationPolicy::AccessCounter { threshold } => format!("access-counter {threshold}"),
    }
}

fn directory_str(d: DirectoryMode) -> String {
    match d {
        DirectoryMode::Broadcast => "broadcast".into(),
        DirectoryMode::InPte { access_bits } => format!("in-pte {access_bits}"),
        DirectoryMode::InMem => "in-mem".into(),
    }
}

fn tlb_str(t: &TlbConfig) -> String {
    let TlbConfig {
        entries,
        ways,
        latency,
    } = t;
    format!("{entries} {ways} {}", latency.raw())
}

fn accumulator_str(a: &Accumulator) -> String {
    match (a.min(), a.max()) {
        (Some(min), Some(max)) => format!("{} {} {min} {max}", a.count(), a.sum()),
        _ => "0 0 0 0".into(),
    }
}

// ---------------------------------------------------------------------------
// SystemConfig
// ---------------------------------------------------------------------------

/// Renders a [`SystemConfig`] as the canonical `v2` text document.
#[must_use]
pub fn encode_config(cfg: &SystemConfig) -> String {
    let SystemConfig {
        n_gpus,
        gpu,
        page_size,
        policy,
        replication,
        zero_latency_invalidation,
        idyll,
        transfw,
        interconnect,
        host,
        frames_per_device,
        seed,
        max_events,
    } = cfg;
    let GpuConfig {
        cus,
        warps_per_cu,
        l1_tlb,
        l2_tlb,
        l2_mshr_entries,
        gmmu,
        fault_buffer_entries,
        l2_cache,
        dram_banks,
        dram_latency,
        dram_occupancy,
        l1_hit_latency,
        l2_hit_latency,
        page_size: gpu_page_size,
    } = gpu;
    let GmmuConfig {
        walk_queue_entries,
        walker_threads,
        pwc_entries,
        levels,
        walker: WalkerConfig { per_level_latency },
    } = gmmu;
    let InterconnectConfig {
        nvlink_bytes_per_cycle,
        nvlink_latency,
        pcie_bytes_per_cycle,
        pcie_latency,
    } = interconnect;
    let HostConfig {
        walk_latency,
        walk_threads,
        fault_batch,
        batch_window,
        vm_cache_latency,
        vm_table_latency,
        migration_cooldown,
    } = host;

    let mut s = String::with_capacity(1024);
    s.push_str(CONFIG_HEADER);
    s.push('\n');
    kv(&mut s, "n_gpus", n_gpus);
    kv(&mut s, "gpu.cus", cus);
    kv(&mut s, "gpu.warps_per_cu", warps_per_cu);
    kv(&mut s, "gpu.l1_tlb", tlb_str(l1_tlb));
    kv(&mut s, "gpu.l2_tlb", tlb_str(l2_tlb));
    kv(&mut s, "gpu.l2_mshr_entries", l2_mshr_entries);
    kv(&mut s, "gpu.gmmu.walk_queue_entries", walk_queue_entries);
    kv(&mut s, "gpu.gmmu.walker_threads", walker_threads);
    kv(&mut s, "gpu.gmmu.pwc_entries", pwc_entries);
    kv(&mut s, "gpu.gmmu.levels", levels);
    kv(
        &mut s,
        "gpu.gmmu.walker.per_level_latency",
        per_level_latency.raw(),
    );
    kv(&mut s, "gpu.fault_buffer_entries", fault_buffer_entries);
    kv(
        &mut s,
        "gpu.l2_cache",
        format!(
            "{} {} {}",
            l2_cache.size_bytes(),
            l2_cache.ways(),
            l2_cache.line_bytes()
        ),
    );
    kv(&mut s, "gpu.dram_banks", dram_banks);
    kv(&mut s, "gpu.dram_latency", dram_latency.raw());
    kv(&mut s, "gpu.dram_occupancy", dram_occupancy);
    kv(&mut s, "gpu.l1_hit_latency", l1_hit_latency.raw());
    kv(&mut s, "gpu.l2_hit_latency", l2_hit_latency.raw());
    kv(&mut s, "gpu.page_size", page_size_str(*gpu_page_size));
    kv(&mut s, "page_size", page_size_str(*page_size));
    kv(&mut s, "policy", policy_str(*policy));
    kv(&mut s, "replication", replication);
    kv(
        &mut s,
        "zero_latency_invalidation",
        zero_latency_invalidation,
    );
    match idyll {
        None => kv(&mut s, "idyll", "none"),
        Some(IdyllConfig {
            lazy,
            directory,
            irmb:
                IrmbConfig {
                    bases,
                    offsets_per_base,
                },
        }) => {
            kv(&mut s, "idyll", "some");
            kv(&mut s, "idyll.lazy", lazy);
            kv(&mut s, "idyll.directory", directory_str(*directory));
            kv(&mut s, "idyll.irmb", format!("{bases} {offsets_per_base}"));
        }
    }
    match transfw {
        None => kv(&mut s, "transfw", "none"),
        Some(TransFwConfig { fingerprints }) => kv(&mut s, "transfw", fingerprints),
    }
    kv(
        &mut s,
        "interconnect.nvlink_bytes_per_cycle",
        nvlink_bytes_per_cycle,
    );
    kv(&mut s, "interconnect.nvlink_latency", nvlink_latency.raw());
    kv(
        &mut s,
        "interconnect.pcie_bytes_per_cycle",
        pcie_bytes_per_cycle,
    );
    kv(&mut s, "interconnect.pcie_latency", pcie_latency.raw());
    kv(&mut s, "host.walk_latency", walk_latency.raw());
    kv(&mut s, "host.walk_threads", walk_threads);
    kv(&mut s, "host.fault_batch", fault_batch);
    kv(&mut s, "host.batch_window", batch_window.raw());
    kv(&mut s, "host.vm_cache_latency", vm_cache_latency.raw());
    kv(&mut s, "host.vm_table_latency", vm_table_latency.raw());
    kv(&mut s, "host.migration_cooldown", migration_cooldown.raw());
    kv(&mut s, "frames_per_device", frames_per_device);
    kv(&mut s, "seed", seed);
    kv(&mut s, "max_events", max_events);
    s
}

// ---------------------------------------------------------------------------
// WorkloadSpec
// ---------------------------------------------------------------------------

/// Renders a [`WorkloadSpec`] as the canonical `v1` text document.
#[must_use]
pub fn encode_spec(spec: &WorkloadSpec) -> String {
    let WorkloadSpec {
        app,
        pages,
        accesses_per_gpu,
        write_fraction,
        compute_gap,
        reuse,
        hot_fraction,
        hot_pages,
        cross_fraction,
        zipf_theta,
    } = spec;
    let mut s = String::with_capacity(256);
    s.push_str(SPEC_HEADER);
    s.push('\n');
    kv(&mut s, "app", app.name());
    kv(&mut s, "pages", pages);
    kv(&mut s, "accesses_per_gpu", accesses_per_gpu);
    kv(&mut s, "write_fraction", write_fraction);
    kv(&mut s, "compute_gap", compute_gap);
    kv(&mut s, "reuse", reuse);
    kv(&mut s, "hot_fraction", hot_fraction);
    kv(&mut s, "hot_pages", hot_pages);
    kv(&mut s, "cross_fraction", cross_fraction);
    kv(&mut s, "zipf_theta", zipf_theta);
    s
}

// ---------------------------------------------------------------------------
// SimReport
// ---------------------------------------------------------------------------

/// Renders a [`SimReport`] as the canonical `v1` text document.
///
/// The encoding covers every field, so two reports encode to the same bytes
/// exactly when they agree field for field; a deterministic simulation
/// re-run must therefore reproduce its encoding byte for byte.
#[must_use]
pub fn encode_report(r: &SimReport) -> String {
    let SimReport {
        scheme,
        workload,
        exec_cycles,
        accesses,
        instructions,
        l1_tlb_hits,
        l1_tlb_misses,
        l2_tlb_hits,
        l2_tlb_misses,
        demand_miss_latency,
        access_latency,
        remote_data_latency,
        walker_mix:
            WalkerMix {
                demand,
                invalidation_necessary,
                invalidation_unnecessary,
                update,
            },
        invalidation_messages,
        invalidation_latency,
        far_faults,
        migrations,
        migration_waiting,
        migration_total,
        irmb_inserts,
        irmb_bypasses,
        irmb_evictions,
        irmb_superseded,
        pwc_hit_rate,
        vm_cache_hit_rate,
        transfw,
        replication,
        nvlink_bytes,
        pcie_bytes,
        sharing_distribution,
        events_processed,
        stale_translations,
    } = r;
    let mut s = String::with_capacity(1024);
    s.push_str(REPORT_HEADER);
    s.push('\n');
    kv(&mut s, "scheme", scheme);
    kv(&mut s, "workload", workload);
    kv(&mut s, "exec_cycles", exec_cycles);
    kv(&mut s, "accesses", accesses);
    kv(&mut s, "instructions", instructions);
    kv(&mut s, "l1_tlb_hits", l1_tlb_hits);
    kv(&mut s, "l1_tlb_misses", l1_tlb_misses);
    kv(&mut s, "l2_tlb_hits", l2_tlb_hits);
    kv(&mut s, "l2_tlb_misses", l2_tlb_misses);
    kv(
        &mut s,
        "demand_miss_latency",
        accumulator_str(demand_miss_latency),
    );
    kv(&mut s, "access_latency", accumulator_str(access_latency));
    kv(
        &mut s,
        "remote_data_latency",
        accumulator_str(remote_data_latency),
    );
    kv(
        &mut s,
        "walker_mix",
        format!("{demand} {invalidation_necessary} {invalidation_unnecessary} {update}"),
    );
    kv(&mut s, "invalidation_messages", invalidation_messages);
    kv(
        &mut s,
        "invalidation_latency",
        accumulator_str(invalidation_latency),
    );
    kv(&mut s, "far_faults", far_faults);
    kv(&mut s, "migrations", migrations);
    kv(
        &mut s,
        "migration_waiting",
        accumulator_str(migration_waiting),
    );
    kv(&mut s, "migration_total", accumulator_str(migration_total));
    kv(&mut s, "irmb_inserts", irmb_inserts);
    kv(&mut s, "irmb_bypasses", irmb_bypasses);
    kv(&mut s, "irmb_evictions", irmb_evictions);
    kv(&mut s, "irmb_superseded", irmb_superseded);
    kv(&mut s, "pwc_hit_rate", pwc_hit_rate);
    match vm_cache_hit_rate {
        None => kv(&mut s, "vm_cache_hit_rate", "none"),
        Some(v) => kv(&mut s, "vm_cache_hit_rate", v),
    }
    match transfw {
        None => kv(&mut s, "transfw", "none"),
        Some((p, h, fwd)) => kv(&mut s, "transfw", format!("{p} {h} {fwd}")),
    }
    match replication {
        None => kv(&mut s, "replication", "none"),
        Some((repl, coll)) => kv(&mut s, "replication", format!("{repl} {coll}")),
    }
    kv(&mut s, "nvlink_bytes", nvlink_bytes);
    kv(&mut s, "pcie_bytes", pcie_bytes);
    let mut dist = sharing_distribution.len().to_string();
    for v in sharing_distribution {
        let _ = write!(dist, " {v}");
    }
    kv(&mut s, "sharing_distribution", dist);
    kv(&mut s, "events_processed", events_processed);
    kv(&mut s, "stale_translations", stale_translations);
    s
}

// ---------------------------------------------------------------------------
// Content address
// ---------------------------------------------------------------------------

fn hash_with_seed(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = DetState::with_seed(seed).build_hasher();
    h.write(bytes);
    h.finish()
}

/// The 128-bit content address of one simulation cell, as 32 lowercase hex
/// digits: a fixed-seed hash of the canonical encodings of the
/// configuration (which embeds the IDYLL mechanism set), the workload spec
/// (which embeds the scale) and the workload seed.
///
/// Stable across processes, platforms and the `IDYLL_HASH_SEED` hostile
/// override; changes whenever any field of the inputs changes.
#[must_use]
pub fn job_key(cfg: &SystemConfig, spec: &WorkloadSpec, seed: u64) -> String {
    let doc = format!(
        "{}\u{0}{}\u{0}{seed}",
        encode_config(cfg),
        encode_spec(spec)
    );
    let lo = hash_with_seed(KEY_SEED_LO, doc.as_bytes());
    let hi = hash_with_seed(KEY_SEED_HI, doc.as_bytes());
    format!("{lo:016x}{hi:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{AppId, Scale};

    #[test]
    fn optional_sections_and_enum_payloads_are_spelled_out() {
        let mut cfg = SystemConfig::idyll(8).with_large_pages();
        cfg.policy = MigrationPolicy::AccessCounter { threshold: 12 };
        cfg.transfw = Some(TransFwConfig { fingerprints: 500 });
        cfg.idyll = Some(IdyllConfig {
            lazy: true,
            directory: DirectoryMode::InPte { access_bits: 4 },
            irmb: IrmbConfig {
                bases: 16,
                offsets_per_base: 8,
            },
        });
        let text = encode_config(&cfg);
        for line in [
            "page_size 2m",
            "policy access-counter 12",
            "idyll some",
            "idyll.directory in-pte 4",
            "idyll.irmb 16 8",
            "transfw 500",
        ] {
            assert!(text.lines().any(|l| l == line), "missing `{line}`:\n{text}");
        }
        let base = encode_config(&SystemConfig::baseline(4));
        assert!(base.lines().any(|l| l == "idyll none"), "{base}");
        assert!(!base.contains("idyll.lazy"), "{base}");
    }

    #[test]
    fn job_key_is_stable_and_input_sensitive() {
        let cfg = SystemConfig::idyll(4);
        let spec = WorkloadSpec::paper_default(AppId::Km, Scale::Test);
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
            job_key(
                &cfg,
                &WorkloadSpec::paper_default(AppId::Bs, Scale::Test),
                42
            ),
            "spec changes the key"
        );
    }

    #[test]
    fn job_key_ignores_the_hostile_hash_seed() {
        let cfg = SystemConfig::test(2);
        let spec = WorkloadSpec::paper_default(AppId::Mt, Scale::Test);
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

    #[test]
    fn job_key_golden_value_pins_the_derivation() {
        // A literal, not a recomputation: any change to the canonical bytes
        // or the key seeds re-keys every cell and must be a conscious
        // decision (bump the version header and update this value).
        let key = job_key(
            &SystemConfig::baseline(4),
            &WorkloadSpec::paper_default(AppId::Km, Scale::Test),
            42,
        );
        assert_eq!(key, "b62a056c187a1410d5bc84923fa1d3ee");
    }
}
