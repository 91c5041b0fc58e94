//! System interconnect: endpoints and link parameters of the NVLink mesh
//! between GPUs plus the PCIe host link.
//!
//! The baseline (Table 2) uses 300 GB/s NVLink-v2 between GPUs and 32 GB/s
//! PCIe-v4 between CPU and each GPU. At the 1 GHz simulation clock that is
//! 300 B/cycle and 32 B/cycle respectively. The simulator gives every pair
//! of endpoints a dedicated full-duplex pipe pair, approximating a
//! fully-connected NVLink topology (as in DGX-class systems).

use sim_engine::Cycle;

/// Identifier of a GPU in the system (0-based).
pub type GpuId = usize;

/// An endpoint on the interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Node {
    /// The host CPU running the UVM driver.
    Host,
    /// A GPU.
    Gpu(GpuId),
}

impl std::fmt::Display for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Node::Host => write!(f, "host"),
            Node::Gpu(g) => write!(f, "gpu{g}"),
        }
    }
}

/// Interconnect configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterconnectConfig {
    /// A GPU's *aggregate* NVLink bandwidth in bytes per cycle (300 for
    /// NVLink-v2 at 1 GHz). In the fully-connected topology each directed
    /// peer pipe gets `aggregate / (n_gpus - 1)` of it, as the physical
    /// links are split across peers (e.g. 2-of-6 links per pair in a 4-GPU
    /// DGX).
    pub nvlink_bytes_per_cycle: f64,
    /// GPU↔GPU one-way latency in cycles (fine-grained peer loads traverse
    /// the full cross-GPU path; ~1 µs round trips on real hardware).
    pub nvlink_latency: Cycle,
    /// Host↔GPU bandwidth in bytes per cycle (32 for PCIe-v4 at 1 GHz).
    pub pcie_bytes_per_cycle: f64,
    /// Host↔GPU one-way propagation latency in cycles.
    pub pcie_latency: Cycle,
}

impl Default for InterconnectConfig {
    fn default() -> Self {
        InterconnectConfig {
            nvlink_bytes_per_cycle: 300.0,
            nvlink_latency: Cycle(150),
            pcie_bytes_per_cycle: 32.0,
            pcie_latency: Cycle(150),
        }
    }
}
