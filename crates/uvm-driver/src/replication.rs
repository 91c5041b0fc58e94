//! Page replication (§7.4 comparison policy).
//!
//! Replication lets read-shared pages be duplicated across GPUs so reads
//! never cross the interconnect. Writes, however, must collapse all replicas
//! back to a single owner, invalidating every other copy — which is why the
//! paper finds replication loses to IDYLL on write-intensive applications
//! (IM, C2D) while being competitive on read-heavy ones (PR, ST, SC).

use mem_model::gpuset::GpuSet;
use mem_model::interconnect::GpuId;
use sim_engine::collections::DetHashMap;
use vm_model::addr::Vpn;

/// Tracks which GPUs hold (read-only) replicas of each page, including the
/// page's writable owner if it has one.
///
/// # Example
///
/// ```
/// use uvm_driver::replication::ReplicaDirectory;
/// use vm_model::Vpn;
///
/// let mut rd = ReplicaDirectory::new();
/// rd.add_replica(Vpn(1), 0);
/// rd.add_replica(Vpn(1), 2);
/// // A write by GPU 2 must invalidate the copy on GPU 0.
/// let invalidate = rd.collapse_for_write(Vpn(1), 2);
/// assert_eq!(invalidate.iter().collect::<Vec<_>>(), vec![0]);
/// assert_eq!(rd.holders(Vpn(1)).len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReplicaDirectory {
    replicas: DetHashMap<Vpn, GpuSet>,
    replications: u64,
    collapses: u64,
}

impl ReplicaDirectory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        ReplicaDirectory::default()
    }

    /// Records that `gpu` received a replica of `vpn`. Returns the number of
    /// holders afterwards.
    pub fn add_replica(&mut self, vpn: Vpn, gpu: GpuId) -> usize {
        let set = self.replicas.entry(vpn).or_insert_with(GpuSet::empty);
        if !set.contains(gpu) {
            self.replications += 1;
        }
        set.insert(gpu);
        set.len()
    }

    /// GPUs currently holding a copy.
    pub fn holders(&self, vpn: Vpn) -> GpuSet {
        self.replicas
            .get(&vpn)
            .copied()
            .unwrap_or_else(GpuSet::empty)
    }

    /// Whether `gpu` holds a copy.
    pub fn holds(&self, vpn: Vpn, gpu: GpuId) -> bool {
        self.holders(vpn).contains(gpu)
    }

    /// A write by `writer` collapses all replicas to the writer: returns the
    /// set of *other* GPUs whose copies (PTEs and pages) must be
    /// invalidated. The writer becomes the sole holder.
    pub fn collapse_for_write(&mut self, vpn: Vpn, writer: GpuId) -> GpuSet {
        let holders = self.holders(vpn);
        let to_invalidate = holders.difference(GpuSet::single(writer));
        if !to_invalidate.is_empty() {
            self.collapses += 1;
        }
        self.replicas.insert(vpn, GpuSet::single(writer));
        to_invalidate
    }

    /// Drops all replica tracking for a page (page freed / migrated away).
    pub fn forget(&mut self, vpn: Vpn) -> GpuSet {
        self.replicas.remove(&vpn).unwrap_or_else(GpuSet::empty)
    }

    /// Total replicas ever granted.
    pub fn replications(&self) -> u64 {
        self.replications
    }

    /// Total write collapses.
    pub fn collapses(&self) -> u64 {
        self.collapses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicas_accumulate() {
        let mut rd = ReplicaDirectory::new();
        assert_eq!(rd.add_replica(Vpn(1), 0), 1);
        assert_eq!(rd.add_replica(Vpn(1), 1), 2);
        assert_eq!(rd.add_replica(Vpn(1), 1), 2, "idempotent");
        assert_eq!(rd.replications(), 2);
        assert!(rd.holds(Vpn(1), 0));
        assert!(!rd.holds(Vpn(1), 3));
    }

    #[test]
    fn write_collapse_invalidates_others_only() {
        let mut rd = ReplicaDirectory::new();
        rd.add_replica(Vpn(1), 0);
        rd.add_replica(Vpn(1), 1);
        rd.add_replica(Vpn(1), 2);
        let inv = rd.collapse_for_write(Vpn(1), 1);
        assert_eq!(inv.iter().collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(rd.holders(Vpn(1)).iter().collect::<Vec<_>>(), vec![1]);
        assert_eq!(rd.collapses(), 1);
    }

    #[test]
    fn write_by_sole_holder_invalidates_nothing() {
        let mut rd = ReplicaDirectory::new();
        rd.add_replica(Vpn(1), 2);
        let inv = rd.collapse_for_write(Vpn(1), 2);
        assert!(inv.is_empty());
        assert_eq!(rd.collapses(), 0);
    }

    #[test]
    fn write_by_non_holder_takes_ownership() {
        let mut rd = ReplicaDirectory::new();
        rd.add_replica(Vpn(1), 0);
        let inv = rd.collapse_for_write(Vpn(1), 3);
        assert_eq!(inv.iter().collect::<Vec<_>>(), vec![0]);
        assert!(rd.holds(Vpn(1), 3));
    }

    #[test]
    fn forget_clears() {
        let mut rd = ReplicaDirectory::new();
        rd.add_replica(Vpn(1), 0);
        let dropped = rd.forget(Vpn(1));
        assert_eq!(dropped.len(), 1);
        assert!(rd.holders(Vpn(1)).is_empty());
    }
}
