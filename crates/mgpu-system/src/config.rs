//! System-level configuration (Table 2 plus experiment knobs).

use gpu_model::gpu::GpuConfig;
use idyll_core::irmb::IrmbConfig;
use idyll_core::transfw::TransFwConfig;
use mem_model::interconnect::InterconnectConfig;
use sim_engine::Cycle;
use uvm_driver::policy::MigrationPolicy;
use vm_model::addr::PageSize;
use vm_model::tlb::TlbConfig;

/// Which invalidation directory the driver consults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirectoryMode {
    /// Baseline: broadcast invalidations to every GPU.
    Broadcast,
    /// IDYLL's in-PTE directory (§6.2) with the given number of access bits.
    InPte {
        /// Unused PTE bits used as access bits (11 default; §7.2 studies 4).
        access_bits: u32,
    },
    /// IDYLL-InMem (§6.4): VM-Table + VM-Cache.
    InMem,
}

/// The IDYLL mechanism set enabled for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdyllConfig {
    /// Enable lazy invalidation via the IRMB (§6.3).
    pub lazy: bool,
    /// Directory mode for filtering invalidations.
    pub directory: DirectoryMode,
    /// IRMB geometry (ignored unless `lazy`).
    pub irmb: IrmbConfig,
}

impl IdyllConfig {
    /// Full IDYLL: in-PTE directory + lazy invalidation, default IRMB.
    pub fn full() -> Self {
        IdyllConfig {
            lazy: true,
            directory: DirectoryMode::InPte { access_bits: 11 },
            irmb: IrmbConfig::default(),
        }
    }

    /// "Only Lazy" ablation (Figure 11): IRMB without the directory.
    pub fn only_lazy() -> Self {
        IdyllConfig {
            lazy: true,
            directory: DirectoryMode::Broadcast,
            irmb: IrmbConfig::default(),
        }
    }

    /// "Only In-PTE Directory" ablation (Figure 11).
    pub fn only_directory() -> Self {
        IdyllConfig {
            lazy: false,
            directory: DirectoryMode::InPte { access_bits: 11 },
            irmb: IrmbConfig::default(),
        }
    }

    /// IDYLL-InMem (§6.4): VM-Table directory + lazy invalidation.
    pub fn in_mem() -> Self {
        IdyllConfig {
            lazy: true,
            directory: DirectoryMode::InMem,
            irmb: IrmbConfig::default(),
        }
    }
}

/// Host-side (UVM driver) timing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostConfig {
    /// Latency of one host page-table walk. Much lower than a GPU walk
    /// (§7.1: "the walking latency on the host side is expected to be much
    /// lower ... because of the high bandwidth of the host page table
    /// walk").
    pub walk_latency: Cycle,
    /// Concurrent host walker threads.
    pub walk_threads: usize,
    /// Fault batch size (256 in the NVIDIA driver).
    pub fault_batch: usize,
    /// Maximum time a partial batch waits before being processed.
    pub batch_window: Cycle,
    /// VM-Cache lookup latency (IDYLL-InMem).
    pub vm_cache_latency: Cycle,
    /// VM-Table memory access latency on a VM-Cache miss.
    pub vm_table_latency: Cycle,
    /// Minimum interval between successive migrations of the same page
    /// (anti-thrash throttling, as real UVM drivers apply). Within the
    /// cooldown a would-be migration degrades to a remote mapping. Mostly
    /// binds under the on-touch policy; the access-counter threshold
    /// already rate-limits counter-based migration.
    pub migration_cooldown: Cycle,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            walk_latency: Cycle(150),
            walk_threads: 16,
            fault_batch: 256,
            batch_window: Cycle(300),
            vm_cache_latency: Cycle(4),
            vm_table_latency: Cycle(160),
            migration_cooldown: Cycle(1_500),
        }
    }
}

/// Complete configuration of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Number of GPUs (4 in the baseline; §7.2 scales to 8/16/32).
    pub n_gpus: usize,
    /// Per-GPU configuration (Table 2).
    pub gpu: GpuConfig,
    /// Page size (4 KiB baseline; §7.3 studies 2 MiB).
    pub page_size: PageSize,
    /// GPU-to-GPU migration policy.
    pub policy: MigrationPolicy,
    /// Enable read replication (§7.4 comparison).
    pub replication: bool,
    /// Idealised zero-latency invalidation (Figures 2/11 reference bar).
    pub zero_latency_invalidation: bool,
    /// IDYLL mechanisms; `None` = baseline.
    pub idyll: Option<IdyllConfig>,
    /// Trans-FW far-fault forwarding (§7.5); composable with IDYLL.
    pub transfw: Option<TransFwConfig>,
    /// Interconnect bandwidths/latencies.
    pub interconnect: InterconnectConfig,
    /// Host driver timing.
    pub host: HostConfig,
    /// Physical frames per device window.
    pub frames_per_device: u64,
    /// Simulation seed (workload offsets etc.).
    pub seed: u64,
    /// Safety valve: abort after this many events (0 = default bound).
    pub max_events: u64,
}

/// The `mgpu-sim --scheme` names [`SystemConfig::apply_scheme`] accepts.
pub const SCHEMES: [&str; 9] = [
    "baseline",
    "idyll",
    "only-lazy",
    "only-in-pte",
    "idyll-inmem",
    "zerolat",
    "replication",
    "transfw",
    "idyll+transfw",
];

impl SystemConfig {
    /// The paper's baseline system (Table 2) with `n_gpus` GPUs.
    pub fn baseline(n_gpus: usize) -> Self {
        SystemConfig {
            n_gpus,
            gpu: GpuConfig::default(),
            page_size: PageSize::Size4K,
            policy: MigrationPolicy::baseline(),
            replication: false,
            zero_latency_invalidation: false,
            idyll: None,
            transfw: None,
            interconnect: InterconnectConfig::default(),
            host: HostConfig::default(),
            frames_per_device: 1 << 20, // 4 GiB of 4 KiB frames
            seed: 0x1D11,
            max_events: 0,
        }
    }

    /// Baseline plus full IDYLL.
    pub fn idyll(n_gpus: usize) -> Self {
        SystemConfig {
            idyll: Some(IdyllConfig::full()),
            ..SystemConfig::baseline(n_gpus)
        }
    }

    /// A reduced-size configuration for fast unit/integration tests: fewer
    /// CUs and a smaller L2 TLB so interesting contention appears at tiny
    /// trace sizes.
    pub fn test(n_gpus: usize) -> Self {
        let mut cfg = SystemConfig::baseline(n_gpus);
        cfg.gpu.cus = 8;
        cfg.gpu.warps_per_cu = 2;
        cfg.gpu.l2_tlb = TlbConfig {
            entries: 128,
            ways: 16,
            latency: Cycle(10),
        };
        cfg.host.batch_window = Cycle(200);
        cfg.frames_per_device = 1 << 18;
        cfg
    }

    /// Switches on the mechanisms that `scheme`, one of [`SCHEMES`], names.
    ///
    /// # Errors
    /// A name outside [`SCHEMES`].
    pub fn apply_scheme(&mut self, scheme: &str) -> Result<(), String> {
        match scheme {
            "baseline" => {}
            "idyll" => self.idyll = Some(IdyllConfig::full()),
            "only-lazy" => self.idyll = Some(IdyllConfig::only_lazy()),
            "only-in-pte" => self.idyll = Some(IdyllConfig::only_directory()),
            "idyll-inmem" => self.idyll = Some(IdyllConfig::in_mem()),
            "zerolat" => self.zero_latency_invalidation = true,
            "replication" => self.replication = true,
            "transfw" => self.transfw = Some(TransFwConfig::default()),
            "idyll+transfw" => {
                self.idyll = Some(IdyllConfig::full());
                self.transfw = Some(TransFwConfig::default());
            }
            other => return Err(format!("unknown scheme `{other}`")),
        }
        Ok(())
    }

    /// Switches the run to 2 MiB pages (adjusting the radix depth).
    pub fn with_large_pages(mut self) -> Self {
        self.page_size = PageSize::Size2M;
        self.gpu.page_size = PageSize::Size2M;
        self.gpu.gmmu.levels = PageSize::Size2M.levels();
        self
    }

    /// Human-readable one-line description of the mechanism set.
    pub fn scheme_name(&self) -> String {
        if self.zero_latency_invalidation {
            return "zero-latency-invalidation".into();
        }
        let mut parts: Vec<&str> = Vec::new();
        match self.idyll {
            None => parts.push("baseline"),
            Some(IdyllConfig {
                lazy, directory, ..
            }) => match directory {
                DirectoryMode::Broadcast => {
                    if lazy {
                        parts.push("only-lazy");
                    } else {
                        parts.push("baseline");
                    }
                }
                DirectoryMode::InPte { .. } => {
                    if lazy {
                        parts.push("idyll");
                    } else {
                        parts.push("only-in-pte");
                    }
                }
                DirectoryMode::InMem => {
                    if lazy {
                        parts.push("idyll-inmem");
                    } else {
                        parts.push("inmem-directory");
                    }
                }
            },
        }
        if self.transfw.is_some() {
            parts.push("+trans-fw");
        }
        if self.replication {
            parts.push("+replication");
        }
        parts.join("")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table2() {
        let cfg = SystemConfig::baseline(4);
        assert_eq!(cfg.n_gpus, 4);
        assert_eq!(cfg.gpu.cus, 64);
        assert_eq!(cfg.gpu.l1_tlb.entries, 32);
        assert_eq!(cfg.gpu.l2_tlb.entries, 512);
        assert_eq!(cfg.gpu.l2_tlb.ways, 16);
        assert_eq!(cfg.gpu.gmmu.walker_threads, 8);
        assert_eq!(cfg.gpu.gmmu.pwc_entries, 128);
        assert_eq!(cfg.gpu.gmmu.walk_queue_entries, 64);
        assert_eq!(
            cfg.policy,
            MigrationPolicy::AccessCounter { threshold: 256 }
        );
        assert_eq!(cfg.host.fault_batch, 256);
        assert_eq!(cfg.page_size, PageSize::Size4K);
    }

    #[test]
    fn scheme_names() {
        assert_eq!(SystemConfig::baseline(4).scheme_name(), "baseline");
        assert_eq!(SystemConfig::idyll(4).scheme_name(), "idyll");
        let mut z = SystemConfig::baseline(4);
        z.zero_latency_invalidation = true;
        assert_eq!(z.scheme_name(), "zero-latency-invalidation");
        let mut lazy = SystemConfig::baseline(4);
        lazy.idyll = Some(IdyllConfig::only_lazy());
        assert_eq!(lazy.scheme_name(), "only-lazy");
        let mut dir = SystemConfig::baseline(4);
        dir.idyll = Some(IdyllConfig::only_directory());
        assert_eq!(dir.scheme_name(), "only-in-pte");
        let mut inmem = SystemConfig::baseline(4);
        inmem.idyll = Some(IdyllConfig::in_mem());
        assert_eq!(inmem.scheme_name(), "idyll-inmem");
    }

    #[test]
    fn nvlink_bandwidth_splits_across_peers() {
        // 300 B/cy aggregate over 3 peers at 4 GPUs: 100 B/cy per directed
        // pipe, so 3000 B occupies 30 cycles ahead of the 150-cycle latency.
        let mut egress = crate::system::Egress::new(&SystemConfig::baseline(4));
        assert_eq!(egress.gpu_to_gpu(Cycle(0), 0, 1, 64), Cycle(151));
        assert_eq!(egress.gpu_to_gpu(Cycle(0), 0, 2, 3000), Cycle(180));
        assert_eq!(egress.gpu_to_gpu(Cycle(0), 0, 2, 3000), Cycle(210));
        assert_eq!(egress.gpu_to_gpu(Cycle(42), 0, 0, 1 << 20), Cycle(42));
    }

    #[test]
    fn large_pages_adjust_levels() {
        let cfg = SystemConfig::baseline(4).with_large_pages();
        assert_eq!(cfg.page_size, PageSize::Size2M);
        assert_eq!(cfg.gpu.gmmu.levels, 4);
    }

    #[test]
    fn ablation_configs() {
        assert!(IdyllConfig::full().lazy);
        assert!(!IdyllConfig::only_directory().lazy);
        assert_eq!(IdyllConfig::only_lazy().directory, DirectoryMode::Broadcast);
        assert_eq!(IdyllConfig::in_mem().directory, DirectoryMode::InMem);
    }
}
