//! The full multi-GPU system simulator: wires the GPU models, the UVM
//! driver, the interconnect and the IDYLL mechanisms into one deterministic
//! discrete-event simulation. The figure harness (`idyll-bench`) runs its
//! cells on this crate's [`System`].
//!
//! # Example
//!
//! ```
//! use mgpu_system::config::SystemConfig;
//! use mgpu_system::system::System;
//! use workloads::{AppId, Scale, WorkloadSpec};
//!
//! let cfg = SystemConfig::baseline(2);
//! let wl = workloads::generate(&WorkloadSpec::paper_default(AppId::Bs, Scale::Test), 2, 1);
//! let report = System::new(cfg, &wl).run().expect("simulation completes");
//! assert!(report.exec_cycles > 0);
//! ```

pub mod canon;
pub mod config;
pub mod metrics;
pub mod system;

pub use config::{DirectoryMode, Scheme, SystemConfig};
pub use metrics::SimReport;
pub use system::System;
