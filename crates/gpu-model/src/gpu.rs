//! One GPU: compute units, TLB hierarchy, GMMU and data path.

use mem_model::cache::{Cache, CacheGeometry};
use mem_model::dram::Dram;
use mem_model::interconnect::GpuId;
use mem_model::mshr::Mshr;
use sim_engine::Cycle;
use vm_model::addr::{PageSize, Vpn};
use vm_model::page_table::PageTable;
use vm_model::tlb::{Tlb, TlbBank, TlbConfig};

use crate::cu::Cu;
use crate::gmmu::{Gmmu, GmmuConfig};

/// Full per-GPU configuration (Table 2 defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuConfig {
    /// Compute units per GPU (64).
    pub cus: usize,
    /// Warps per CU contributing memory-level parallelism.
    pub warps_per_cu: usize,
    /// Per-CU L1 TLB.
    pub l1_tlb: TlbConfig,
    /// Shared L2 TLB.
    pub l2_tlb: TlbConfig,
    /// Shared L2-TLB MSHR entries (page-granular merge).
    pub l2_mshr_entries: usize,
    /// GMMU parameters.
    pub gmmu: GmmuConfig,
    /// L2 data cache geometry (256 KiB, 16-way).
    pub l2_cache: CacheGeometry,
    /// Device DRAM banks.
    pub dram_banks: usize,
    /// Device DRAM latency.
    pub dram_latency: Cycle,
    /// Device DRAM per-access bank occupancy (cycles).
    pub dram_occupancy: u64,
    /// L1 data-cache hit latency.
    pub l1_hit_latency: Cycle,
    /// L2 data-cache hit latency.
    pub l2_hit_latency: Cycle,
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig {
            cus: 64,
            warps_per_cu: 4,
            l1_tlb: TlbConfig::baseline_l1(),
            l2_tlb: TlbConfig::baseline_l2(),
            l2_mshr_entries: 64,
            gmmu: GmmuConfig::default(),
            l2_cache: CacheGeometry::new(256 * 1024, 16, 64),
            dram_banks: 32,
            dram_latency: Cycle(200),
            dram_occupancy: 4,
            l1_hit_latency: Cycle(4),
            l2_hit_latency: Cycle(24),
        }
    }
}

/// One GPU's architectural state.
///
/// # Example
///
/// ```
/// use gpu_model::gpu::{Gpu, GpuConfig};
/// use vm_model::{PageSize, Vpn, Pte};
///
/// let config = GpuConfig { cus: 2, ..GpuConfig::default() };
/// let mut gpu = Gpu::new(0, config, PageSize::Size4K);
/// gpu.l1_tlbs.fill(0, Vpn(1), Pte::new_mapped(5, true));
/// gpu.l1_tlbs.fill(1, Vpn(1), Pte::new_mapped(5, true));
/// gpu.l2_tlb.fill(Vpn(1), Pte::new_mapped(5, true));
/// assert_eq!(gpu.shootdown(Vpn(1)), 3); // both CUs' L1s and the L2 dropped it
/// ```
#[derive(Debug)]
pub struct Gpu {
    /// This GPU's id.
    pub id: GpuId,
    /// Per-CU compute state.
    pub cus: Vec<Cu>,
    /// Per-CU private L1 TLBs, stored as one bank (CU index selects the
    /// TLB).
    pub l1_tlbs: TlbBank,
    /// Shared L2 TLB.
    pub l2_tlb: Tlb,
    /// Shared L2-TLB MSHR, keyed by VPN, holding request tokens.
    pub l2_mshr: Mshr<u64>,
    /// The GPU's local page table (remote mappings included).
    pub page_table: PageTable,
    /// The GMMU.
    pub gmmu: Gmmu,
    /// Shared L2 data cache.
    pub l2_cache: Cache,
    /// Device memory.
    pub dram: Dram,
    config: GpuConfig,
}

impl Gpu {
    /// Creates GPU `id` from `config`, translating `page_size` pages.
    pub fn new(id: GpuId, config: GpuConfig, page_size: PageSize) -> Self {
        Gpu {
            id,
            cus: (0..config.cus)
                .map(|_| Cu::new(config.warps_per_cu))
                .collect(),
            l1_tlbs: TlbBank::new(config.cus, config.l1_tlb),
            l2_tlb: Tlb::new(config.l2_tlb),
            l2_mshr: Mshr::new(config.l2_mshr_entries),
            page_table: PageTable::new(page_size),
            gmmu: Gmmu::new(config.gmmu, page_size),
            l2_cache: Cache::new(config.l2_cache),
            dram: Dram::new(
                config.dram_banks,
                config.dram_latency,
                config.dram_occupancy,
            ),
            config,
        }
    }

    /// Configuration in force.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// TLB shootdown for one VPN across the whole hierarchy (performed
    /// *immediately* on invalidation receipt in both the baseline and
    /// IDYLL, §6.3 correctness). Returns how many TLB entries were dropped.
    pub fn shootdown(&mut self, vpn: Vpn) -> usize {
        self.l1_tlbs.shootdown(vpn) + usize::from(self.l2_tlb.shootdown(vpn))
    }

    /// Local data-access latency: L2 cache hit or DRAM, starting at `now`
    /// after the (per-CU modelled) L1 miss. `paddr` is the physical byte
    /// address.
    pub fn local_data_latency(&mut self, now: Cycle, paddr: u64) -> Cycle {
        if self.l2_cache.access(paddr) {
            self.config.l2_hit_latency
        } else {
            let done = self
                .dram
                .access(now + self.config.l2_hit_latency.raw(), paddr);
            (done + self.config.l2_hit_latency.raw()).saturating_sub(now)
        }
    }

    /// Remote-read service latency at this (owner) GPU: the paper routes
    /// remote data straight from DRAM to the requester without caching it in
    /// the remote hierarchy (§3.2), so this is a pure DRAM access.
    pub fn serve_remote_latency(&mut self, now: Cycle, paddr: u64) -> Cycle {
        self.dram.access(now, paddr).saturating_sub(now)
    }

    /// Drops all cached data lines of a page that is migrating away.
    pub fn drop_page_lines(&mut self, page_base_paddr: u64) -> usize {
        self.l2_cache
            .invalidate_page(page_base_paddr, self.page_table.page_size().bytes())
    }

    /// Whether every CU has retired all warps.
    pub fn all_done(&self) -> bool {
        self.cus.iter().all(|cu| cu.all_done())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm_model::pte::Pte;

    fn small_gpu() -> Gpu {
        Gpu::new(
            0,
            GpuConfig {
                cus: 2,
                warps_per_cu: 2,
                ..GpuConfig::default()
            },
            PageSize::Size4K,
        )
    }

    #[test]
    fn construction_matches_config() {
        let gpu = small_gpu();
        assert_eq!(gpu.cus.len(), 2);
        assert_eq!(gpu.l1_tlbs.cus(), 2);
        assert_eq!(gpu.l2_tlb.config().entries, 512);
        assert_eq!(gpu.page_table.page_size(), PageSize::Size4K);
    }

    #[test]
    fn shootdown_hits_all_levels() {
        let mut gpu = small_gpu();
        let pte = Pte::new_mapped(9, true);
        gpu.l1_tlbs.fill(0, Vpn(1), pte);
        gpu.l1_tlbs.fill(1, Vpn(1), pte);
        gpu.l1_tlbs.fill(1, Vpn(2), pte);
        gpu.l2_tlb.fill(Vpn(1), pte);
        assert_eq!(gpu.shootdown(Vpn(1)), 3);
        assert_eq!(gpu.shootdown(Vpn(1)), 0, "idempotent");
        assert!(gpu.l1_tlbs.contains(1, Vpn(2)), "other VPNs survive");
    }

    #[test]
    fn local_data_latency_cache_vs_dram() {
        let mut gpu = small_gpu();
        let cold = gpu.local_data_latency(Cycle(0), 0x1000);
        let warm = gpu.local_data_latency(Cycle(1000), 0x1000);
        assert!(cold > warm, "DRAM access slower than L2 hit");
        assert_eq!(warm, Cycle(24));
    }

    #[test]
    fn migrating_page_lines_are_dropped() {
        let mut gpu = small_gpu();
        gpu.local_data_latency(Cycle(0), 0x2000);
        gpu.local_data_latency(Cycle(0), 0x2040);
        assert_eq!(gpu.drop_page_lines(0x2000), 2);
    }

    #[test]
    fn completion_tracking() {
        let mut gpu = small_gpu();
        assert!(!gpu.all_done());
        for cu in &mut gpu.cus {
            for w in 0..cu.warps() {
                cu.retire(w);
            }
        }
        assert!(gpu.all_done());
    }
}
