//! Synthetic multi-GPU workload generators.
//!
//! The paper evaluates nine OpenCL applications (Table 3) whose behaviour it
//! explains along three axes: access pattern (adjacent / random /
//! scatter-gather), L2 TLB MPKI class, and inter-GPU page-sharing degree
//! (Figure 4). These generators reproduce exactly those axes as
//! deterministic per-GPU memory-access traces, plus the layer-parallel DNN
//! workloads of §7.6 (VGG16, ResNet18).
//!
//! # Example
//!
//! ```
//! use workloads::{AppId, Scale, WorkloadSpec};
//!
//! let spec = WorkloadSpec::paper_default(AppId::Pr, Scale::Test);
//! let wl = workloads::generate(&spec, 4, 42);
//! assert_eq!(wl.traces.len(), 4);
//! assert!(wl.traces.iter().all(|t| !t.accesses.is_empty()));
//! ```

pub mod dnn;
pub mod gen;
pub mod spec;
pub mod trace;

pub use dnn::{DnnModel, DnnSpec};
pub use gen::generate;
pub use spec::{AccessPattern, AppId, Scale, WorkloadSpec};
pub use trace::{Access, GpuTrace, Workload};
