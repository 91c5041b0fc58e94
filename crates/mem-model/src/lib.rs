//! Memory-side substrates for the IDYLL reproduction.
//!
//! This crate models the non-translation parts of the memory system that the
//! paper's evaluation depends on:
//!
//! * [`assoc::SetAssoc`] — a generic set-associative array with LRU
//!   replacement (each set kept in recency order, no per-way stamps),
//!   reused by data caches, TLBs and the page-walk cache;
//! * [`cache::Cache`] — a tag-only cache model with hit/miss statistics;
//! * [`mshr::Mshr`] — miss-status holding registers that merge concurrent
//!   misses to the same block;
//! * [`dram::Dram`] — a banked latency/bandwidth DRAM model;
//! * [`interconnect::InterconnectConfig`] — link parameters of the NVLink
//!   mesh between GPUs plus the PCIe link to the host.
//!
//! # Example
//!
//! ```
//! use mem_model::cache::{Cache, CacheGeometry};
//!
//! // The baseline per-GPU L2: 256 KiB, 16-way, 64 B lines.
//! let mut l2 = Cache::new(CacheGeometry::new(256 * 1024, 16, 64));
//! assert!(!l2.access(0x4000)); // cold miss
//! assert!(l2.access(0x4000)); // now a hit
//! ```

pub mod assoc;
pub mod cache;
pub mod dram;
pub mod gpuset;
pub mod interconnect;
pub mod mshr;
