//! IDYLL — In-PTE DirectorY and Lazy invaLidation.
//!
//! This crate implements the paper's primary contribution (MICRO '23, Li et
//! al.), as four cooperating mechanisms:
//!
//! * [`directory::InPteDirectory`] — the software-managed directory that
//!   stores per-GPU access bits in the unused bits 62–52 of host-side PTEs
//!   (§6.2), so invalidations are sent only to GPUs that may hold a valid
//!   mapping instead of being broadcast;
//! * [`irmb::Irmb`] — the Invalidation Request Merging Buffer (§6.3), a
//!   720-byte per-GPU structure that buffers incoming PTE-invalidation
//!   requests in base/offset-compressed merged entries and lazily writes
//!   them back to the local page table;
//! * [`vm_table::VmDirectory`] — the IDYLL-InMem alternative (§6.4): an
//!   in-memory VM-Table of access bits fronted by a 64-entry 4-way
//!   VM-Cache, for systems whose PTE unused bits are reserved;
//! * [`transfw::TransFw`] — a reimplementation of the Trans-FW comparator
//!   (§7.5): fingerprint-directed remote page-table forwarding.
//!
//! The crate holds pure mechanism: data structures with precise insertion,
//! eviction and lookup semantics. Timing and protocol integration live in
//! `mgpu-system`.
//!
//! # Example
//!
//! ```
//! use idyll_core::irmb::{Irmb, IrmbConfig, InsertOutcome};
//! use vm_model::Vpn;
//!
//! let mut irmb = Irmb::new(IrmbConfig::default());
//! assert_eq!(irmb.insert(Vpn(0x1000)), InsertOutcome::NewEntry);
//! assert_eq!(irmb.insert(Vpn(0x1001)), InsertOutcome::Merged);
//! assert!(irmb.lookup(Vpn(0x1001)));
//! ```

pub mod directory;
pub mod irmb;
pub mod transfw;
pub mod vm_table;
