//! The Invalidation Request Merging Buffer (§6.3).
//!
//! The IRMB is a per-GPU hardware buffer that absorbs incoming PTE
//! invalidation requests so they do not contend with demand TLB misses for
//! page-walk resources. It exploits the spatial locality of migrations:
//! invalidation VPNs are partitioned into a 36-bit **base** (radix levels
//! L5–L2) and a 9-bit **offset** (L1); requests sharing a base coalesce into
//! one *merged entry* (default geometry: 32 bases × 16 offsets = 720 bytes,
//! 0.9 % of L2 TLB area by CACTI).
//!
//! Lookups run in parallel with the L2 TLB: a demand miss that *hits* the
//! IRMB must bypass the local page-table walk (the PTE is stale) and
//! far-fault directly to the host — this is both a correctness requirement
//! and, per §7.1, an additional performance win over zero-latency
//! invalidation.

use vm_model::addr::Vpn;

/// Geometry of the IRMB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IrmbConfig {
    /// Number of merged entries (bases). Default 32.
    pub bases: usize,
    /// Offsets per merged entry. Default 16.
    pub offsets_per_base: usize,
}

impl Default for IrmbConfig {
    fn default() -> Self {
        IrmbConfig {
            bases: 32,
            offsets_per_base: 16,
        }
    }
}

impl IrmbConfig {
    /// A named geometry `(bases, offsets)`, as swept in Figure 15.
    pub fn new(bases: usize, offsets_per_base: usize) -> Self {
        assert!(bases > 0 && offsets_per_base > 0);
        IrmbConfig {
            bases,
            offsets_per_base,
        }
    }

    /// Storage footprint in bits: each merged entry holds a 36-bit base and
    /// `offsets` 9-bit offsets (§6.3 overhead analysis).
    pub fn size_bits(&self) -> usize {
        self.bases * (36 + 9 * self.offsets_per_base)
    }
}

/// One merged entry: a base plus the set of pending 9-bit offsets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergedEntry {
    /// The shared VPN base (levels L5–L2).
    pub base: u64,
    /// Pending offsets, in insertion order.
    pub offsets: Vec<u16>,
    stamp: u64,
}

impl MergedEntry {
    /// The full VPNs pending in this entry.
    pub fn vpns(&self) -> impl Iterator<Item = Vpn> + '_ {
        self.offsets
            .iter()
            .map(move |&off| Vpn::from_irmb(self.base, off))
    }
}

/// What an insertion did, including any invalidations that must now be
/// propagated to the local page table (every eviction triggers write-back,
/// §6.3 "IRMB insertion and eviction").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The offset joined an existing merged entry.
    Merged,
    /// The VPN was already pending — nothing to do.
    AlreadyPresent,
    /// A fresh merged entry was created in a free slot.
    NewEntry,
    /// All bases were busy: the LRU merged entry was evicted to make room.
    /// Its pending invalidations must be written back to the page table as
    /// one batch.
    EvictedLru(MergedEntry),
    /// The matching entry's offset list was full: its offsets were evicted
    /// (write-back batch) and the entry restarted with the new offset.
    EvictedOffsets(MergedEntry),
}

/// The Invalidation Request Merging Buffer.
///
/// # Example
///
/// ```
/// use idyll_core::irmb::{Irmb, IrmbConfig, InsertOutcome};
/// use vm_model::Vpn;
///
/// let mut irmb = Irmb::new(IrmbConfig::new(2, 2));
/// irmb.insert(Vpn(0x1000));
/// assert!(irmb.lookup(Vpn(0x1000)));
/// // The arrival of a new mapping removes the pending invalidation.
/// assert!(irmb.remove(Vpn(0x1000)));
/// assert!(!irmb.lookup(Vpn(0x1000)));
/// ```
#[derive(Debug, Clone)]
pub struct Irmb {
    entries: Vec<MergedEntry>,
    config: IrmbConfig,
    clock: u64,
    // Statistics (Figure 13/15 inputs).
    inserts: u64,
    merges: u64,
    lru_evictions: u64,
    offset_evictions: u64,
    lookup_hits: u64,
    lookup_misses: u64,
    removed_by_mapping: u64,
}

impl Irmb {
    /// Creates an empty IRMB.
    pub fn new(config: IrmbConfig) -> Self {
        Irmb {
            entries: Vec::with_capacity(config.bases),
            config,
            clock: 0,
            inserts: 0,
            merges: 0,
            lru_evictions: 0,
            offset_evictions: 0,
            lookup_hits: 0,
            lookup_misses: 0,
            removed_by_mapping: 0,
        }
    }

    /// Geometry.
    pub fn config(&self) -> IrmbConfig {
        self.config
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Inserts the invalidation request for `vpn` (called when the GPU
    /// receives an invalidation message from the UVM driver; the TLB
    /// shootdown has already happened eagerly).
    pub fn insert(&mut self, vpn: Vpn) -> InsertOutcome {
        self.inserts += 1;
        let stamp = self.tick();
        let base = vpn.irmb_base();
        let offset = vpn.irmb_offset();
        if let Some(entry) = self.entries.iter_mut().find(|e| e.base == base) {
            entry.stamp = stamp;
            if entry.offsets.contains(&offset) {
                return InsertOutcome::AlreadyPresent;
            }
            if entry.offsets.len() == self.config.offsets_per_base {
                // Offset list full: evict all offsets as a batch, keep the
                // entry for the newcomer (§6.3 second eviction rule).
                self.offset_evictions += 1;
                let evicted = MergedEntry {
                    base,
                    offsets: std::mem::replace(&mut entry.offsets, vec![offset]),
                    stamp,
                };
                return InsertOutcome::EvictedOffsets(evicted);
            }
            entry.offsets.push(offset);
            self.merges += 1;
            return InsertOutcome::Merged;
        }
        if self.entries.len() < self.config.bases {
            self.entries.push(MergedEntry {
                base,
                offsets: vec![offset],
                stamp,
            });
            return InsertOutcome::NewEntry;
        }
        // All bases busy: evict the LRU merged entry (§6.3 first rule).
        self.lru_evictions += 1;
        #[expect(
            clippy::expect_used,
            reason = "config.bases ≥ 1 is validated at construction, so the victim scan is over a non-empty table"
        )]
        let victim = self
            .victim_index()
            .and_then(|v| self.entries.get_mut(v))
            .expect("bases > 0");
        let evicted = std::mem::replace(
            victim,
            MergedEntry {
                base,
                offsets: vec![offset],
                stamp,
            },
        );
        InsertOutcome::EvictedLru(evicted)
    }

    /// Checks whether an invalidation for `vpn` is pending. Searched in
    /// parallel with the L2 TLB on every demand miss; a hit means the local
    /// PTE is stale and the request must far-fault directly.
    pub fn lookup(&mut self, vpn: Vpn) -> bool {
        let hit = self.contains(vpn);
        if hit {
            self.lookup_hits += 1;
        } else {
            self.lookup_misses += 1;
        }
        hit
    }

    /// Presence probe without statistics.
    pub fn contains(&self, vpn: Vpn) -> bool {
        let base = vpn.irmb_base();
        let offset = vpn.irmb_offset();
        self.entries
            .iter()
            .any(|e| e.base == base && e.offsets.contains(&offset))
    }

    /// Removes the pending invalidation for `vpn`, if present. Called when
    /// a new mapping for the page arrives: the PTE will be overwritten
    /// directly, making the buffered invalidation moot (§6.3 lookup flow).
    /// Empty merged entries are reclaimed.
    pub fn remove(&mut self, vpn: Vpn) -> bool {
        let base = vpn.irmb_base();
        let offset = vpn.irmb_offset();
        for (i, entry) in self.entries.iter_mut().enumerate() {
            if entry.base == base {
                if let Some(pos) = entry.offsets.iter().position(|&o| o == offset) {
                    entry.offsets.swap_remove(pos);
                    self.removed_by_mapping += 1;
                    if entry.offsets.is_empty() {
                        self.entries.swap_remove(i);
                    }
                    return true;
                }
                return false;
            }
        }
        false
    }

    /// Index of the least-recently-touched merged entry, the replacement
    /// victim. The paper chooses LRU because "if a page is recently
    /// migrated, there is a high probability that its neighboring pages
    /// will be migrated later".
    fn victim_index(&self) -> Option<usize> {
        self.entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.stamp)
            .map(|(i, _)| i)
    }

    /// Pops the replacement-victim merged entry for opportunistic write-back
    /// when the page table walker is idle (§6.3 "IRMB writeback", first
    /// rule).
    pub fn pop_lru(&mut self) -> Option<MergedEntry> {
        let victim = self.victim_index()?;
        Some(self.entries.swap_remove(victim))
    }

    /// Drains every merged entry (e.g. at simulation end to flush pending
    /// invalidations).
    pub fn drain(&mut self) -> Vec<MergedEntry> {
        std::mem::take(&mut self.entries)
    }

    /// Number of occupied merged entries.
    pub fn occupied_bases(&self) -> usize {
        self.entries.len()
    }

    /// Total pending invalidations across all entries.
    pub fn pending(&self) -> usize {
        self.entries.iter().map(|e| e.offsets.len()).sum()
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Insertions received.
    pub fn inserts(&self) -> u64 {
        self.inserts
    }

    /// Insertions that coalesced into an existing entry.
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// LRU merged-entry evictions (capacity pressure on bases).
    pub fn lru_evictions(&self) -> u64 {
        self.lru_evictions
    }

    /// Offset-list-full evictions.
    pub fn offset_evictions(&self) -> u64 {
        self.offset_evictions
    }

    /// Demand-lookup hits (stale-PTE bypasses).
    pub fn lookup_hits(&self) -> u64 {
        self.lookup_hits
    }

    /// Demand-lookup misses.
    pub fn lookup_misses(&self) -> u64 {
        self.lookup_misses
    }

    /// Pending invalidations superseded by new mappings.
    pub fn removed_by_mapping(&self) -> u64 {
        self.removed_by_mapping
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vpn(base: u64, off: u16) -> Vpn {
        Vpn::from_irmb(base, off)
    }

    #[test]
    fn default_geometry_matches_paper() {
        let cfg = IrmbConfig::default();
        assert_eq!(cfg.bases, 32);
        assert_eq!(cfg.offsets_per_base, 16);
        // §6.3: (36 + 144) × 32 / 8 = 720 bytes.
        assert_eq!(cfg.size_bits() / 8, 720);
    }

    #[test]
    fn merge_same_base() {
        let mut irmb = Irmb::new(IrmbConfig::default());
        assert_eq!(irmb.insert(vpn(5, 0)), InsertOutcome::NewEntry);
        assert_eq!(irmb.insert(vpn(5, 1)), InsertOutcome::Merged);
        assert_eq!(irmb.insert(vpn(5, 1)), InsertOutcome::AlreadyPresent);
        assert_eq!(irmb.occupied_bases(), 1);
        assert_eq!(irmb.pending(), 2);
        assert_eq!(irmb.merges(), 1);
    }

    #[test]
    fn distinct_bases_use_distinct_entries() {
        let mut irmb = Irmb::new(IrmbConfig::default());
        irmb.insert(vpn(1, 0));
        irmb.insert(vpn(2, 0));
        assert_eq!(irmb.occupied_bases(), 2);
        assert!(irmb.contains(vpn(1, 0)));
        assert!(irmb.contains(vpn(2, 0)));
        assert!(!irmb.contains(vpn(3, 0)));
        assert!(!irmb.contains(vpn(1, 1)));
    }

    #[test]
    fn lru_eviction_when_bases_full() {
        let mut irmb = Irmb::new(IrmbConfig::new(2, 4));
        irmb.insert(vpn(1, 0));
        irmb.insert(vpn(2, 0));
        irmb.insert(vpn(1, 1)); // refresh base 1 → base 2 is LRU
        match irmb.insert(vpn(3, 0)) {
            InsertOutcome::EvictedLru(e) => {
                assert_eq!(e.base, 2);
                assert_eq!(e.offsets, vec![0]);
            }
            other => panic!("{other:?}"),
        }
        assert!(irmb.contains(vpn(1, 0)));
        assert!(irmb.contains(vpn(3, 0)));
        assert!(!irmb.contains(vpn(2, 0)));
        assert_eq!(irmb.lru_evictions(), 1);
    }

    #[test]
    fn offset_full_evicts_batch_and_keeps_newcomer() {
        let mut irmb = Irmb::new(IrmbConfig::new(4, 2));
        irmb.insert(vpn(7, 0));
        irmb.insert(vpn(7, 1));
        match irmb.insert(vpn(7, 2)) {
            InsertOutcome::EvictedOffsets(e) => {
                assert_eq!(e.base, 7);
                assert_eq!(e.offsets, vec![0, 1]);
            }
            other => panic!("{other:?}"),
        }
        assert!(irmb.contains(vpn(7, 2)));
        assert!(!irmb.contains(vpn(7, 0)));
        assert_eq!(irmb.offset_evictions(), 1);
    }

    #[test]
    fn evicted_entry_reconstructs_full_vpns() {
        let mut irmb = Irmb::new(IrmbConfig::new(1, 4));
        let base = 0xABCDE;
        irmb.insert(vpn(base, 3));
        irmb.insert(vpn(base, 7));
        let entry = irmb.pop_lru().unwrap();
        let vpns: Vec<Vpn> = entry.vpns().collect();
        assert_eq!(vpns, vec![vpn(base, 3), vpn(base, 7)]);
    }

    #[test]
    fn remove_on_new_mapping() {
        let mut irmb = Irmb::new(IrmbConfig::default());
        irmb.insert(vpn(1, 0));
        irmb.insert(vpn(1, 1));
        assert!(irmb.remove(vpn(1, 0)));
        assert!(!irmb.remove(vpn(1, 0)), "already gone");
        assert!(irmb.contains(vpn(1, 1)));
        // Removing the last offset reclaims the merged entry.
        assert!(irmb.remove(vpn(1, 1)));
        assert_eq!(irmb.occupied_bases(), 0);
        assert!(irmb.is_empty());
        assert_eq!(irmb.removed_by_mapping(), 2);
    }

    #[test]
    fn pop_lru_order_and_drain() {
        let mut irmb = Irmb::new(IrmbConfig::new(4, 4));
        irmb.insert(vpn(1, 0));
        irmb.insert(vpn(2, 0));
        irmb.insert(vpn(3, 0));
        irmb.insert(vpn(1, 1)); // refresh 1
        assert_eq!(irmb.pop_lru().unwrap().base, 2);
        assert_eq!(irmb.pop_lru().unwrap().base, 3);
        assert_eq!(irmb.pop_lru().unwrap().base, 1);
        assert!(irmb.pop_lru().is_none());
        irmb.insert(vpn(9, 0));
        let drained = irmb.drain();
        assert_eq!(drained.len(), 1);
        assert!(irmb.is_empty());
    }

    #[test]
    fn lookup_statistics() {
        let mut irmb = Irmb::new(IrmbConfig::default());
        irmb.insert(vpn(1, 0));
        assert!(irmb.lookup(vpn(1, 0)));
        assert!(!irmb.lookup(vpn(1, 1)));
        assert_eq!(irmb.lookup_hits(), 1);
        assert_eq!(irmb.lookup_misses(), 1);
    }

    #[test]
    fn figure15_geometries_have_expected_sizes() {
        // (16,8) < (16,16) < (32,8)… not monotone in bytes, but all well
        // under a kilobyte; sanity-check the arithmetic.
        assert_eq!(IrmbConfig::new(16, 8).size_bits(), 16 * (36 + 72));
        assert_eq!(IrmbConfig::new(64, 16).size_bits() / 8, 1440);
    }
}
