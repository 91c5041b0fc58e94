//! End-of-run measurement report.
//!
//! One [`SimReport`] captures every quantity the paper's figures plot; the
//! per-figure harness combines reports (e.g. normalising IDYLL runs against
//! baseline runs).

use sim_engine::stats::Accumulator;

/// The walker request mix of Figure 5.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WalkerMix {
    /// Demand TLB-miss walks.
    pub demand: u64,
    /// PTE-invalidation walks that cleared a valid PTE.
    pub invalidation_necessary: u64,
    /// PTE-invalidation walks that found nothing valid to clear.
    pub invalidation_unnecessary: u64,
    /// Driver PTE-update walks.
    pub update: u64,
}

impl WalkerMix {
    /// All invalidation walks.
    pub fn invalidations(&self) -> u64 {
        self.invalidation_necessary + self.invalidation_unnecessary
    }

    /// Fraction of walker requests that are invalidations (demand +
    /// invalidations as the Figure 5 denominator).
    pub fn invalidation_share(&self) -> f64 {
        let denom = self.demand + self.invalidations();
        if denom == 0 {
            0.0
        } else {
            self.invalidations() as f64 / denom as f64
        }
    }

    /// Fraction of invalidations that were unnecessary.
    pub fn unnecessary_share(&self) -> f64 {
        let inv = self.invalidations();
        if inv == 0 {
            0.0
        } else {
            self.invalidation_unnecessary as f64 / inv as f64
        }
    }
}

/// Full results of one simulation run.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// The run's [`Scheme::name`](crate::config::Scheme::name).
    pub scheme: &'static str,
    /// Workload name.
    pub workload: String,
    /// End-to-end execution time: the cycle at which the last warp retired.
    pub exec_cycles: u64,
    /// Total memory accesses completed.
    pub accesses: u64,
    /// Modelled instructions (for MPKI).
    pub instructions: u64,
    /// L1 TLB hits / misses (all GPUs).
    pub l1_tlb_hits: u64,
    /// L1 TLB misses.
    pub l1_tlb_misses: u64,
    /// L2 TLB hits.
    pub l2_tlb_hits: u64,
    /// L2 TLB misses.
    pub l2_tlb_misses: u64,
    /// Latency of demand requests that missed the L2 TLB, from miss
    /// detection to translation completion (Figures 6/12).
    pub demand_miss_latency: Accumulator,
    /// Full per-access latency (issue → data returned).
    pub access_latency: Accumulator,
    /// Data-phase latency of accesses served from a remote GPU.
    pub remote_data_latency: Accumulator,
    /// Walker request mix (Figure 5).
    pub walker_mix: WalkerMix,
    /// Invalidation-message count received by GPUs (IDYLL reduces this).
    pub invalidation_messages: u64,
    /// Total latency attributable to invalidation handling on GPUs: queue +
    /// walk time of invalidation-class walks (Figure 13).
    pub invalidation_latency: Accumulator,
    /// Far faults raised to the host.
    pub far_faults: u64,
    /// Page migrations completed.
    pub migrations: u64,
    /// Migration waiting latency: request → invalidation phase complete
    /// (Figures 7/14).
    pub migration_waiting: Accumulator,
    /// Full migration latency: request → data transferred.
    pub migration_total: Accumulator,
    /// IRMB statistics (zero when lazy invalidation is off).
    pub irmb_inserts: u64,
    /// Demand lookups that hit the IRMB and bypassed the local walk.
    pub irmb_bypasses: u64,
    /// IRMB evictions (LRU + offset-full).
    pub irmb_evictions: u64,
    /// Pending invalidations superseded by new mappings.
    pub irmb_superseded: u64,
    /// Page-walk-cache hit rate across GPUs.
    pub pwc_hit_rate: f64,
    /// VM-Cache hit rate (IDYLL-InMem only).
    pub vm_cache_hit_rate: Option<f64>,
    /// Trans-FW probe statistics: (probes, hits, false forwards).
    pub transfw: Option<(u64, u64, u64)>,
    /// Replication statistics: (replications, write collapses).
    pub replication: Option<(u64, u64)>,
    /// NVLink bytes moved.
    pub nvlink_bytes: u64,
    /// PCIe bytes moved.
    pub pcie_bytes: u64,
    /// Fraction of accesses to pages shared by exactly 1..=n GPUs (Fig. 4).
    pub sharing_distribution: Vec<f64>,
    /// Events processed (diagnostic).
    pub events_processed: u64,
    /// Translation-coherence audit: valid local PTEs that point at a frame
    /// the driver no longer maps for that page, with no in-flight migration,
    /// pending IRMB invalidation, or replica grant explaining them. Must be
    /// zero (DESIGN.md invariant 1).
    pub stale_translations: u64,
}

impl SimReport {
    /// L2 TLB misses per kilo-instruction (Table 3's MPKI).
    pub fn mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.l2_tlb_misses as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Performance relative to a reference run of the same workload
    /// (reference_cycles / self_cycles — higher is better, 1.0 = parity).
    pub fn speedup_vs(&self, reference: &SimReport) -> f64 {
        if self.exec_cycles == 0 {
            return 0.0;
        }
        reference.exec_cycles as f64 / self.exec_cycles as f64
    }

    /// Sum of demand-miss latency normalised against a reference run
    /// (Figure 6/12's "relative latency", lower is better).
    pub fn relative_demand_latency(&self, reference: &SimReport) -> f64 {
        let r = reference.demand_miss_latency.sum();
        if r == 0.0 {
            return 0.0;
        }
        self.demand_miss_latency.sum() / r
    }

    /// Sum of invalidation latency normalised against a reference run
    /// (Figure 13).
    pub fn relative_invalidation_latency(&self, reference: &SimReport) -> f64 {
        let r = reference.invalidation_latency.sum();
        if r == 0.0 {
            return 0.0;
        }
        self.invalidation_latency.sum() / r
    }

    /// Sum of migration waiting latency normalised against a reference run
    /// (Figure 14).
    pub fn relative_migration_waiting(&self, reference: &SimReport) -> f64 {
        let r = reference.migration_waiting.sum();
        if r == 0.0 {
            return 0.0;
        }
        self.migration_waiting.sum() / r
    }

    /// Per-phase latency breakdown: one line per translation-path phase
    /// with sample count, mean, min and max (all in cycles). The phases
    /// cover the lifecycle the tracer records — demand miss through
    /// migration — so the table is the aggregate view of the same data a
    /// Perfetto trace shows per-request.
    pub fn latency_breakdown(&self) -> String {
        use std::fmt::Write as _;
        fn line(out: &mut String, name: &str, a: &Accumulator) {
            let _ = writeln!(
                out,
                "  {name:<24} {:>10}  {:>10.0}  {:>10.0}  {:>10.0}",
                a.count(),
                a.mean().unwrap_or(0.0),
                a.min().unwrap_or(0.0),
                a.max().unwrap_or(0.0)
            );
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "  {:<24} {:>10}  {:>10}  {:>10}  {:>10}",
            "phase (cycles)", "samples", "mean", "min", "max"
        );
        line(&mut out, "L2 TLB demand miss", &self.demand_miss_latency);
        line(&mut out, "full access", &self.access_latency);
        line(&mut out, "remote data", &self.remote_data_latency);
        line(&mut out, "invalidation walk", &self.invalidation_latency);
        line(&mut out, "migration waiting", &self.migration_waiting);
        line(&mut out, "migration total", &self.migration_total);
        out
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{:<10} {:<22} {:>12} cycles  mpki={:>6.1}  faults={:>6}  migrations={:>5}  inv_msgs={:>6}",
            self.workload,
            self.scheme,
            self.exec_cycles,
            self.mpki(),
            self.far_faults,
            self.migrations,
            self.invalidation_messages
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walker_mix_shares() {
        let mix = WalkerMix {
            demand: 73,
            invalidation_necessary: 18,
            invalidation_unnecessary: 9,
            update: 10,
        };
        assert_eq!(mix.invalidations(), 27);
        assert!((mix.invalidation_share() - 0.27).abs() < 1e-9);
        assert!((mix.unnecessary_share() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn walker_mix_empty_is_zero() {
        let mix = WalkerMix::default();
        assert_eq!(mix.invalidation_share(), 0.0);
        assert_eq!(mix.unnecessary_share(), 0.0);
    }

    #[test]
    fn mpki_and_speedup() {
        let a = SimReport {
            instructions: 10_000,
            l2_tlb_misses: 150,
            exec_cycles: 2_000,
            ..SimReport::default()
        };
        assert!((a.mpki() - 15.0).abs() < 1e-9);
        let mut b = a.clone();
        b.exec_cycles = 1_000;
        assert!((b.speedup_vs(&a) - 2.0).abs() < 1e-9);
        assert!((a.speedup_vs(&b) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn relative_latencies_guard_zero() {
        let a = SimReport::default();
        let b = SimReport::default();
        assert_eq!(a.relative_demand_latency(&b), 0.0);
        assert_eq!(a.relative_invalidation_latency(&b), 0.0);
        assert_eq!(a.relative_migration_waiting(&b), 0.0);
    }
}
