//! IDYLL reproduction — umbrella crate.
//!
//! Re-exports the workspace's public surface so downstream users can depend
//! on a single crate:
//!
//! * [`core`] — the IDYLL mechanisms (in-PTE directory, IRMB, IDYLL-InMem,
//!   Trans-FW);
//! * [`system`] — the multi-GPU simulator;
//! * [`workloads`] — the synthetic multi-GPU workload generators;
//! * plus the substrate crates ([`sim`], [`mem`], [`vm`], [`uvm`], [`gpu`]).
//!
//! # Example
//!
//! ```
//! use idyll::prelude::*;
//!
//! let cfg = SystemConfig::idyll(2);
//! let spec = WorkloadSpec::paper_default(AppId::Bs, Scale::Test);
//! let wl = workloads::generate(&spec, 2, 1);
//! let report = System::new(cfg, &wl).run().expect("simulation completes");
//! assert!(report.exec_cycles > 0);
//! ```

pub use gpu_model as gpu;
pub use idyll_core as core;
pub use mem_model as mem;
pub use mgpu_system as system;
pub use sim_engine as sim;
pub use uvm_driver as uvm;
pub use vm_model as vm;
pub use workloads;

/// Convenient re-exports for the common simulation workflow.
pub mod prelude {
    pub use crate::core::directory::{DirectoryConfig, InPteDirectory};
    pub use crate::core::irmb::{Irmb, IrmbConfig};
    pub use crate::core::vm_table::VmDirectory;
    pub use crate::system::config::{DirectoryMode, Scheme, SystemConfig};
    pub use crate::system::{SimReport, System};
    pub use crate::uvm::policy::MigrationPolicy;
    pub use crate::workloads::{AppId, Scale, WorkloadSpec};
}
