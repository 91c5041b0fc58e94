//! Trace containers: per-GPU streams of memory accesses.

use crate::census::{PackedTraces, PageCensus};
use vm_model::addr::Vpn;

/// One memory access in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// The page touched (the simulator adds the in-page offset).
    pub vpn: Vpn,
    /// Whether this is a store.
    pub is_write: bool,
}

/// The access stream of one GPU.
#[derive(Debug, Clone, Default)]
pub struct GpuTrace {
    /// Accesses in program order; the system deals them to warps.
    pub accesses: Vec<Access>,
}

impl GpuTrace {
    /// Number of accesses.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// Fraction of writes.
    pub fn write_fraction(&self) -> f64 {
        if self.accesses.is_empty() {
            return 0.0;
        }
        self.accesses.iter().filter(|a| a.is_write).count() as f64 / self.accesses.len() as f64
    }
}

/// A complete multi-GPU workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Human-readable name (app abbreviation or DNN model).
    pub name: String,
    /// One trace per GPU.
    pub traces: Vec<GpuTrace>,
    /// Footprint in pages (VPNs are in `[base_vpn, base_vpn + pages)`).
    pub pages: u64,
    /// First VPN of the footprint.
    pub base_vpn: Vpn,
    /// Compute cycles per warp between accesses.
    pub compute_gap: u64,
}

impl Workload {
    /// Total accesses across GPUs.
    pub fn total_accesses(&self) -> u64 {
        self.traces.iter().map(|t| t.len() as u64).sum()
    }

    /// Modelled instructions across GPUs (for MPKI).
    pub fn total_instructions(&self) -> u64 {
        self.total_accesses() * (self.compute_gap + 1)
    }

    /// Per-page sharing degree: for each touched page, how many distinct
    /// GPUs access it — and, as the paper's Figure 4 measures it, the
    /// fraction of *accesses* that reference pages shared by 1, 2, …, N
    /// GPUs. Returns `shares[d-1] = fraction of accesses to pages shared by
    /// exactly d GPUs` (see [`PageCensus::sharing_distribution`]).
    ///
    /// # Panics
    /// Like [`PackedTraces::new`] and [`PageCensus::new`].
    pub fn access_sharing_distribution(&self) -> Vec<f64> {
        PageCensus::new(&PackedTraces::new(self)).sharing_distribution()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wl(traces: Vec<Vec<(u64, bool)>>) -> Workload {
        Workload {
            name: "test".into(),
            traces: traces
                .into_iter()
                .map(|t| GpuTrace {
                    accesses: t
                        .into_iter()
                        .map(|(v, w)| Access {
                            vpn: Vpn(v),
                            is_write: w,
                        })
                        .collect(),
                })
                .collect(),
            pages: 16,
            base_vpn: Vpn(0),
            compute_gap: 3,
        }
    }

    #[test]
    fn totals() {
        let w = wl(vec![vec![(1, false), (2, true)], vec![(3, false)]]);
        assert_eq!(w.total_accesses(), 3);
        assert_eq!(w.total_instructions(), 12);
    }

    #[test]
    fn trace_stats() {
        let w = wl(vec![vec![(1, false), (1, true), (2, true), (1, false)]]);
        let t = &w.traces[0];
        assert_eq!(t.len(), 4);
        assert_eq!(t.write_fraction(), 0.5);
    }

    #[test]
    fn sharing_distribution_counts_accesses_not_pages() {
        // Page 1 shared by both GPUs and hot; page 2 private to GPU0.
        let w = wl(vec![
            vec![(1, false), (1, false), (1, false), (2, false)],
            vec![(1, false), (1, false)],
        ]);
        let dist = w.access_sharing_distribution();
        assert_eq!(dist.len(), 2);
        // 5 of 6 accesses go to the page shared by 2.
        assert!((dist[1] - 5.0 / 6.0).abs() < 1e-9);
        assert!((dist[0] - 1.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_edge_cases() {
        let t = GpuTrace::default();
        assert!(t.is_empty());
        assert_eq!(t.write_fraction(), 0.0);
    }
}
