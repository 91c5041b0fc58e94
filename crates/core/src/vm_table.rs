//! IDYLL-InMem (§6.4): the VM-Table in-memory directory and its VM-Cache.
//!
//! When the PTE unused bits are reserved for other purposes, the directory
//! moves to a dedicated in-memory table: each 64-bit entry holds a 45-bit
//! VPN and 19 GPU access bits (hashed `gpu % 19` beyond 19 GPUs). A
//! hardware-managed 64-entry 4-way VM-Cache with write-allocate/write-back
//! and LRU absorbs most lookups; the paper reports a 60.2 % average hit
//! rate.

use mem_model::assoc::{Inserted, SetAssoc};
use mem_model::gpuset::GpuSet;
use mem_model::interconnect::GpuId;
use sim_engine::collections::DetHashMap;
use vm_model::addr::Vpn;

/// Number of access bits per VM-Table entry (19 in the paper).
pub const VM_ACCESS_BITS: u32 = 19;

/// A cached VM-Table line: the access-bit vector plus a dirty flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct VmLine {
    bits: u32,
    dirty: bool,
}

/// Outcome of a VM-Cache-mediated directory operation, for timing: a miss
/// costs one memory access to the VM-Table; an eviction of a dirty line
/// costs a write-back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmAccess {
    /// Whether the VM-Cache supplied the entry.
    pub cache_hit: bool,
    /// Whether a dirty line was written back to memory.
    pub writeback: bool,
}

/// The IDYLL-InMem directory: VM-Table + VM-Cache.
///
/// # Example
///
/// ```
/// use idyll_core::vm_table::VmDirectory;
/// use vm_model::Vpn;
///
/// let mut dir = VmDirectory::new(4);
/// dir.record_access(Vpn(0x42), 2);
/// let (targets, _timing) = dir.invalidation_targets(Vpn(0x42), 2);
/// assert!(targets.contains(2));
/// ```
#[derive(Debug, Clone)]
pub struct VmDirectory {
    /// The in-memory VM-Table: authoritative access bits per VPN.
    table: DetHashMap<Vpn, u32>,
    /// The VM-Cache: 64 entries, 4-way (16 sets), LRU, write-back.
    cache: SetAssoc<VmLine>,
    n_gpus: usize,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl VmDirectory {
    /// Creates the directory for `n_gpus` GPUs with the paper's VM-Cache
    /// geometry (64 entries, 4-way).
    pub fn new(n_gpus: usize) -> Self {
        Self::with_cache_geometry(n_gpus, 64, 4)
    }

    /// Creates the directory with a custom VM-Cache geometry.
    ///
    /// # Panics
    /// Panics unless `entries` divides evenly by `ways`.
    pub fn with_cache_geometry(n_gpus: usize, entries: usize, ways: usize) -> Self {
        assert!(entries.is_multiple_of(ways));
        VmDirectory {
            table: DetHashMap::default(),
            cache: SetAssoc::new(entries / ways, ways),
            n_gpus,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// The paper's hash: access bit for `gpu` is `gpu % 19`.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "GPU ids are at most 64; the modulo wraps anyway"
    )]
    fn bit_of(gpu: GpuId) -> u32 {
        (gpu as u32) % VM_ACCESS_BITS
    }

    /// Fetches the line for `vpn` into the cache (write-allocate) and
    /// returns `(bits, timing)`.
    fn load(&mut self, vpn: Vpn) -> (u32, VmAccess) {
        if let Some(line) = self.cache.get(vpn.0) {
            self.hits += 1;
            return (
                line.bits,
                VmAccess {
                    cache_hit: true,
                    writeback: false,
                },
            );
        }
        self.misses += 1;
        // Miss: read from the VM-Table (absent entry ⇒ first access: zeros,
        // registered in the cache per §6.4).
        let bits = self.table.get(&vpn).copied().unwrap_or(0);
        let mut writeback = false;
        if let Inserted::Evicted { tag, value } =
            self.cache.insert(vpn.0, VmLine { bits, dirty: false })
        {
            if value.dirty {
                self.table.insert(Vpn(tag), value.bits);
                self.writebacks += 1;
                writeback = true;
            }
        }
        (
            bits,
            VmAccess {
                cache_hit: false,
                writeback,
            },
        )
    }

    #[expect(
        clippy::expect_used,
        reason = "private helper with a load-before-store call discipline; the line was faulted in by the preceding load"
    )]
    fn store(&mut self, vpn: Vpn, bits: u32) {
        let line = self
            .cache
            .get_mut(vpn.0)
            .expect("store follows load: line resident");
        line.bits = bits;
        line.dirty = true;
    }

    /// Records that `gpu` established a mapping for `vpn` (far-fault
    /// resolution path: the VM-Cache is checked/updated in parallel with the
    /// host page-table walk).
    pub fn record_access(&mut self, vpn: Vpn, gpu: GpuId) -> VmAccess {
        let (bits, timing) = self.load(vpn);
        self.store(vpn, bits | (1 << Self::bit_of(gpu)));
        timing
    }

    /// Migration-request lookup: returns the set of GPUs to invalidate
    /// (superset semantics identical to the in-PTE directory) and clears all
    /// access bits except the initiator's (§6.4 execution flow).
    pub fn invalidation_targets(&mut self, vpn: Vpn, initiator: GpuId) -> (GpuSet, VmAccess) {
        let (bits, timing) = self.load(vpn);
        let mut set = GpuSet::empty();
        for gpu in 0..self.n_gpus {
            if bits & (1 << Self::bit_of(gpu)) != 0 {
                set.insert(gpu);
            }
        }
        self.store(vpn, bits & (1 << Self::bit_of(initiator)));
        (set, timing)
    }

    /// VM-Cache hit rate in `[0,1]` (the paper observes ≈ 0.602).
    pub fn cache_hit_rate(&self) -> f64 {
        sim_engine::stats::hit_rate(self.hits, self.misses)
    }

    /// Dirty write-backs to the VM-Table.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_then_targets() {
        let mut dir = VmDirectory::new(4);
        dir.record_access(Vpn(1), 0);
        dir.record_access(Vpn(1), 3);
        let (targets, _) = dir.invalidation_targets(Vpn(1), 3);
        assert_eq!(targets.iter().collect::<Vec<_>>(), vec![0, 3]);
    }

    #[test]
    fn targets_clear_all_but_initiator() {
        let mut dir = VmDirectory::new(4);
        dir.record_access(Vpn(1), 0);
        dir.record_access(Vpn(1), 1);
        dir.record_access(Vpn(1), 2);
        let (t1, _) = dir.invalidation_targets(Vpn(1), 2);
        assert_eq!(t1.len(), 3);
        // After clearing, only the initiator's bit remains.
        let (t2, _) = dir.invalidation_targets(Vpn(1), 2);
        assert_eq!(t2.iter().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn unknown_page_is_empty_and_gets_registered() {
        let mut dir = VmDirectory::new(4);
        let (targets, timing) = dir.invalidation_targets(Vpn(0x77), 1);
        assert!(targets.is_empty());
        assert!(!timing.cache_hit);
        // Second touch hits the cache.
        let (_, timing2) = dir.invalidation_targets(Vpn(0x77), 1);
        assert!(timing2.cache_hit);
    }

    #[test]
    fn hash_aliases_beyond_19_gpus() {
        let mut dir = VmDirectory::new(32);
        dir.record_access(Vpn(5), 19); // bit 0, aliases GPU 0
        let (targets, _) = dir.invalidation_targets(Vpn(5), 19);
        assert!(targets.contains(19), "no false negatives");
        assert!(targets.contains(0), "alias is a false positive");
    }

    #[test]
    fn cache_evicts_dirty_lines_to_table() {
        // Tiny cache: 1 set x 2 ways, to force eviction.
        let mut dir = VmDirectory::with_cache_geometry(4, 2, 2);
        dir.record_access(Vpn(1), 0);
        dir.record_access(Vpn(2), 1);
        // Third distinct page evicts the LRU dirty line into the table.
        dir.record_access(Vpn(3), 2);
        assert_eq!(dir.writebacks(), 1);
        // The spilled page's bits survive the round-trip.
        let (targets, timing) = dir.invalidation_targets(Vpn(1), 0);
        assert!(targets.contains(0));
        assert!(!timing.cache_hit, "had to reload from VM-Table");
    }

    #[test]
    fn hit_rate_accounting() {
        let mut dir = VmDirectory::new(4);
        dir.record_access(Vpn(9), 0); // miss
        dir.record_access(Vpn(9), 1); // hit
        dir.record_access(Vpn(9), 2); // hit
        assert!((dir.cache_hit_rate() - 2.0 / 3.0).abs() < 1e-9);
    }
}
