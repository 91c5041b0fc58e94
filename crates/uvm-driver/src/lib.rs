//! Host-side UVM driver substrates.
//!
//! In a UVM-managed multi-GPU system the CPU-resident driver owns the
//! centralized page table, resolves GPU far faults (batched, 256 per batch),
//! decides page placement via a migration policy, and orchestrates the
//! PTE-invalidation protocol that IDYLL optimises. This crate provides the
//! driver's mechanism pieces:
//!
//! * [`host::HostMemory`] — the centralized page table plus per-device frame
//!   allocators;
//! * [`policy`] — first-touch / on-touch / access-counter migration policies
//!   and the per-GPU, per-page access counters;
//! * [`fault::FaultBatcher`] — far-fault batching;
//! * [`migration::MigrationTable`] — in-flight migration state machine
//!   (invalidation fan-out, acks, waiting-latency bookkeeping);
//! * [`replication::ReplicaDirectory`] — the page-replication comparison
//!   policy (§7.4).
//!
//! Protocol *timing* lives in `mgpu-system`; this crate is pure state.

pub mod fault;
pub mod host;
pub mod migration;
pub mod policy;
pub mod replication;
