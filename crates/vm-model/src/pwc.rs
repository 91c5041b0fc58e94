//! Page-walk cache.
//!
//! Caches interior page-table entries keyed by `(level, VPN prefix)`. A
//! walker consults the PWC top-down and starts its memory accesses below the
//! deepest cached level, so a hit at level 2 reduces a five-level walk to a
//! single leaf access. The cache is shared by all walker threads (128
//! entries in Table 2), which is exactly why a burst of invalidation walks
//! *thrashes* it — the contention effect IDYLL attacks — and why IRMB-batched
//! invalidations with a common base *amortise* it.

use mem_model::assoc::SetAssoc;
use sim_engine::stats::Counter;

use crate::addr::Vpn;

/// Packs `(level, prefix)` into a single tag. Levels fit in 3 bits.
fn key(level: u32, prefix: u64) -> u64 {
    debug_assert!((2..=7).contains(&level));
    (prefix << 3) | level as u64
}

/// A shared page-walk cache over interior levels (root…L2).
///
/// # Example
///
/// ```
/// use vm_model::pwc::PageWalkCache;
/// use vm_model::addr::Vpn;
///
/// let mut pwc = PageWalkCache::new(128, 5);
/// let vpn = Vpn(0x12345);
/// assert_eq!(pwc.deepest_cached(vpn), None); // cold
/// pwc.fill_path(vpn, 5);
/// assert_eq!(pwc.deepest_cached(vpn), Some(2)); // whole path cached
/// ```
#[derive(Debug, Clone)]
pub struct PageWalkCache {
    entries: SetAssoc<()>,
    levels: u32,
    hits: Counter,
    misses: Counter,
}

impl PageWalkCache {
    /// Creates a PWC with `capacity` entries for a table of `levels` radix
    /// levels. Organised as 4-way set-associative.
    ///
    /// # Panics
    /// Panics if `capacity < 4` or not divisible by 4, or `levels < 2`.
    pub fn new(capacity: usize, levels: u32) -> Self {
        assert!(
            capacity >= 4 && capacity.is_multiple_of(4),
            "capacity must be 4-way"
        );
        assert!(levels >= 2);
        PageWalkCache {
            entries: SetAssoc::new(capacity / 4, 4),
            levels,
            hits: Counter::new(),
            misses: Counter::new(),
        }
    }

    /// The deepest (smallest-numbered) interior level whose entry on the
    /// path to `vpn` is cached, or `None` on a complete miss.
    ///
    /// A return of `Some(2)` means the walker can go straight to the leaf.
    /// Recency is refreshed for the hit level only.
    pub fn deepest_cached(&mut self, vpn: Vpn) -> Option<u32> {
        for level in 2..=self.levels {
            // An entry cached "at level L" is the entry *inside* the level-L
            // node, keyed by the prefix identifying that node.
            if self
                .entries
                .get(key(level, vpn.prefix_at(level - 1)))
                .is_some()
            {
                self.hits.inc();
                return Some(level);
            }
        }
        self.misses.inc();
        None
    }

    /// Probes without recency update or statistics.
    pub fn contains(&self, vpn: Vpn, level: u32) -> bool {
        self.entries.contains(key(level, vpn.prefix_at(level - 1)))
    }

    /// Fills the cache with the path entries traversed by a walk that
    /// touched `levels_walked` levels starting from the root. Only interior
    /// levels (≥ 2) are cacheable.
    pub fn fill_path(&mut self, vpn: Vpn, levels_walked: u32) {
        let deepest = (self.levels + 1 - levels_walked).max(2);
        for level in deepest..=self.levels {
            self.entries
                .insert(key(level, vpn.prefix_at(level - 1)), ());
        }
    }

    /// Drops every cached entry (e.g. on a full TLB/PT flush).
    pub fn flush(&mut self) -> usize {
        self.entries.flush()
    }

    /// Hit count.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Miss count.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Hit rate in `[0,1]`.
    pub fn hit_rate(&self) -> f64 {
        sim_engine::stats::hit_rate(self.hits.get(), self.misses.get())
    }

    /// Bytes of the entry store, fixed by the capacity.
    pub fn footprint_bytes(&self) -> usize {
        self.entries.footprint_bytes()
    }

    /// Total number of radix levels of the table this PWC serves.
    pub fn levels(&self) -> u32 {
        self.levels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_cache_misses() {
        let mut pwc = PageWalkCache::new(128, 5);
        assert_eq!(pwc.deepest_cached(Vpn(0x999)), None);
        assert_eq!(pwc.misses(), 1);
    }

    #[test]
    fn full_walk_fill_then_leaf_only() {
        let mut pwc = PageWalkCache::new(128, 5);
        let vpn = Vpn(0x12345);
        pwc.fill_path(vpn, 5);
        assert_eq!(pwc.deepest_cached(vpn), Some(2));
        assert_eq!(pwc.hits(), 1);
    }

    #[test]
    fn sibling_vpn_shares_the_l2_entry() {
        let mut pwc = PageWalkCache::new(128, 5);
        let a = Vpn(0x200);
        let b = Vpn(0x2ff); // same irmb base (same L2 node entry)
        pwc.fill_path(a, 5);
        assert_eq!(pwc.deepest_cached(b), Some(2));
    }

    #[test]
    fn distant_vpn_shares_only_upper_levels() {
        let mut pwc = PageWalkCache::new(128, 5);
        let a = Vpn(0x200);
        pwc.fill_path(a, 5);
        // Differs in the L2 index → deepest shared is the L3 entry.
        let c = Vpn(0x200 + (1 << 9));
        assert_eq!(pwc.deepest_cached(c), Some(3));
        // Differs in the L4 index → only the root-node (L5) entry is shared.
        let d = Vpn(0x200 + (1 << 27));
        assert_eq!(pwc.deepest_cached(d), Some(5));
        // Differs in the L5 index → no cached entry on the path at all.
        let e = Vpn(0x200 + (1 << 36));
        assert_eq!(pwc.deepest_cached(e), None);
    }

    #[test]
    fn partial_walk_fills_only_touched_levels() {
        let mut pwc = PageWalkCache::new(128, 5);
        let vpn = Vpn(0x4321);
        // Walk aborted after 2 levels (root + L4): caches the L5 and L4 path
        // entries only.
        pwc.fill_path(vpn, 2);
        assert!(pwc.contains(vpn, 5));
        assert!(pwc.contains(vpn, 4));
        assert!(!pwc.contains(vpn, 3));
        assert!(!pwc.contains(vpn, 2));
        assert_eq!(pwc.deepest_cached(vpn), Some(4));
    }

    #[test]
    fn capacity_pressure_evicts() {
        let mut pwc = PageWalkCache::new(8, 5);
        // Fill with many disjoint paths; early entries must be evicted.
        for i in 0..64u64 {
            pwc.fill_path(Vpn(i << 36), 5);
        }
        let survivors = (0..64u64)
            .filter(|&i| {
                let vpn = Vpn(i << 36);
                (2..=5).any(|l| pwc.contains(vpn, l))
            })
            .count();
        assert!(survivors < 64, "eviction must have occurred");
    }

    #[test]
    fn flush_empties() {
        let mut pwc = PageWalkCache::new(16, 5);
        pwc.fill_path(Vpn(1), 5);
        assert!(pwc.flush() > 0);
        assert_eq!(pwc.deepest_cached(Vpn(1)), None);
    }
}
