//! System-level configuration (Table 2 plus experiment knobs).

use gpu_model::gpu::GpuConfig;
use idyll_core::irmb::IrmbConfig;
use mem_model::interconnect::InterconnectConfig;
use sim_engine::Cycle;
use uvm_driver::policy::MigrationPolicy;
use vm_model::addr::PageSize;
use vm_model::pte::UNUSED_HI_COUNT;
use vm_model::tlb::TlbConfig;

/// One of the paper's evaluated design points (Figures 11, 22 and 23).
/// Each names the mechanisms a run enables; the model asks the scheme
/// through [`Scheme::lazy`], [`Scheme::directory`] and [`Scheme::transfw`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Broadcast invalidations, no IDYLL mechanism.
    Baseline,
    /// Full IDYLL: in-PTE directory plus lazy invalidation (§6).
    Idyll,
    /// "Only Lazy" ablation (Figure 11): IRMB without the directory.
    OnlyLazy,
    /// "Only In-PTE Directory" ablation (Figure 11).
    OnlyInPte,
    /// IDYLL-InMem (§6.4): VM-Table directory plus lazy invalidation.
    IdyllInMem,
    /// Idealised zero-latency invalidation (Figures 1, 2 and 11 reference
    /// bar).
    ZeroLat,
    /// Baseline with read replication (§7.4 comparison).
    Replication,
    /// Baseline with Trans-FW far-fault forwarding (§7.5).
    TransFw,
    /// Full IDYLL combined with Trans-FW (§7.5).
    IdyllTransFw,
}

/// Which invalidation directory the driver consults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirectoryMode {
    /// Baseline: broadcast invalidations to every GPU.
    Broadcast,
    /// IDYLL's in-PTE directory (§6.2), [`SystemConfig::access_bits`] wide.
    InPte,
    /// IDYLL-InMem (§6.4): VM-Table + VM-Cache.
    InMem,
}

impl Scheme {
    /// Every scheme, in the order `mgpu-sim --help` lists them.
    pub const ALL: [Scheme; 9] = [
        Scheme::Baseline,
        Scheme::Idyll,
        Scheme::OnlyLazy,
        Scheme::OnlyInPte,
        Scheme::IdyllInMem,
        Scheme::ZeroLat,
        Scheme::Replication,
        Scheme::TransFw,
        Scheme::IdyllTransFw,
    ];

    /// The `mgpu-sim --scheme` name, also the report's label.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Baseline => "baseline",
            Scheme::Idyll => "idyll",
            Scheme::OnlyLazy => "only-lazy",
            Scheme::OnlyInPte => "only-in-pte",
            Scheme::IdyllInMem => "idyll-inmem",
            Scheme::ZeroLat => "zerolat",
            Scheme::Replication => "replication",
            Scheme::TransFw => "transfw",
            Scheme::IdyllTransFw => "idyll+transfw",
        }
    }

    /// The scheme whose [`Scheme::name`] is `name`.
    pub fn from_name(name: &str) -> Option<Scheme> {
        Scheme::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Whether invalidations are buffered lazily in the IRMB (§6.3).
    pub fn lazy(self) -> bool {
        matches!(
            self,
            Scheme::Idyll | Scheme::OnlyLazy | Scheme::IdyllInMem | Scheme::IdyllTransFw
        )
    }

    /// The directory that filters invalidation targets.
    pub fn directory(self) -> DirectoryMode {
        match self {
            Scheme::Idyll | Scheme::OnlyInPte | Scheme::IdyllTransFw => DirectoryMode::InPte,
            Scheme::IdyllInMem => DirectoryMode::InMem,
            Scheme::Baseline
            | Scheme::OnlyLazy
            | Scheme::ZeroLat
            | Scheme::Replication
            | Scheme::TransFw => DirectoryMode::Broadcast,
        }
    }

    /// Whether GPUs forward far faults to peers through a Trans-FW PRT.
    pub fn transfw(self) -> bool {
        matches!(self, Scheme::TransFw | Scheme::IdyllTransFw)
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
    /// The evaluated design point.
    pub scheme: Scheme,
    /// IRMB geometry (Figure 15); read only when the scheme is
    /// [`Scheme::lazy`].
    pub irmb: IrmbConfig,
    /// Unused PTE bits the in-PTE directory uses as access bits (11; §7.2
    /// studies 4); read only when the scheme's directory is
    /// [`DirectoryMode::InPte`].
    pub access_bits: u32,
    /// Interconnect bandwidths/latencies.
    pub interconnect: InterconnectConfig,
    /// Host driver timing.
    pub host: HostConfig,
    /// Physical frames per device window.
    pub frames_per_device: u64,
    /// Safety valve: abort after this many events (0 = default bound).
    pub max_events: u64,
}

impl SystemConfig {
    /// The paper's baseline system (Table 2) with `n_gpus` GPUs.
    pub fn baseline(n_gpus: usize) -> Self {
        SystemConfig {
            n_gpus,
            gpu: GpuConfig::default(),
            page_size: PageSize::Size4K,
            policy: MigrationPolicy::baseline(),
            scheme: Scheme::Baseline,
            irmb: IrmbConfig::default(),
            access_bits: UNUSED_HI_COUNT,
            interconnect: InterconnectConfig::default(),
            host: HostConfig::default(),
            frames_per_device: 1 << 20, // 4 GiB of 4 KiB frames
            max_events: 0,
        }
    }

    /// Baseline plus full IDYLL.
    pub fn idyll(n_gpus: usize) -> Self {
        SystemConfig {
            scheme: Scheme::Idyll,
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

    /// Switches the run to 2 MiB pages.
    pub fn with_large_pages(mut self) -> Self {
        self.page_size = PageSize::Size2M;
        self
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
        assert_eq!(cfg.access_bits, 11);
    }

    #[test]
    fn every_scheme_round_trips_through_its_name() {
        for s in Scheme::ALL {
            assert_eq!(Scheme::from_name(s.name()), Some(s), "{s:?}");
        }
        assert_eq!(Scheme::from_name("zero-latency-invalidation"), None);
    }

    #[test]
    fn schemes_enable_the_paper_mechanisms() {
        assert!(!Scheme::Baseline.lazy());
        assert_eq!(Scheme::Baseline.directory(), DirectoryMode::Broadcast);
        assert!(Scheme::Idyll.lazy());
        assert_eq!(Scheme::Idyll.directory(), DirectoryMode::InPte);
        assert!(!Scheme::OnlyInPte.lazy());
        assert_eq!(Scheme::OnlyLazy.directory(), DirectoryMode::Broadcast);
        assert_eq!(Scheme::IdyllInMem.directory(), DirectoryMode::InMem);
        let transfw: Vec<Scheme> = Scheme::ALL.into_iter().filter(|s| s.transfw()).collect();
        assert_eq!(transfw, [Scheme::TransFw, Scheme::IdyllTransFw]);
        assert!(Scheme::IdyllTransFw.lazy());
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
    fn large_pages_switch_the_page_size() {
        let cfg = SystemConfig::baseline(4).with_large_pages();
        assert_eq!(cfg.page_size, PageSize::Size2M);
        assert_eq!(cfg.page_size.levels(), 4);
    }
}
