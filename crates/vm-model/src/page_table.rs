//! A multi-level radix page table.
//!
//! The table is *logical*: leaf PTEs live in a hash map and interior nodes
//! are tracked as the set of VPN prefixes that have been materialised.
//! A walk therefore knows exactly how many levels exist on the path to a
//! VPN, which is what the walker's latency model (one memory access per
//! traversed level, 100 cycles each in the baseline) needs.
//!
//! Invalidation keeps the leaf entry in place with its valid bit cleared —
//! matching the paper's model where a PTE "exists but is invalid" and an
//! unnecessary invalidation still walks the full tree.

use sim_engine::collections::{DetHashMap, DetHashSet};

use crate::addr::{PageSize, Vpn};
use crate::pte::Pte;

/// Result of probing the table along the radix path for a VPN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkPath {
    /// Number of levels that must be touched, root first. Always at least 1
    /// (the root is always resident).
    pub levels_present: u32,
    /// The leaf PTE if the path reaches the leaf level.
    pub leaf: Option<Pte>,
}

/// A per-device (or host) radix page table.
///
/// # Example
///
/// ```
/// use vm_model::{PageSize, Vpn, Pte};
/// use vm_model::page_table::PageTable;
///
/// let mut pt = PageTable::new(PageSize::Size4K);
/// pt.insert(Vpn(0x42), Pte::new_mapped(7, true));
/// let probe = pt.probe(Vpn(0x42));
/// assert_eq!(probe.levels_present, 5);
/// assert!(probe.leaf.unwrap().is_valid());
/// ```
#[derive(Debug, Clone)]
pub struct PageTable {
    page_size: PageSize,
    leaves: DetHashMap<Vpn, Pte>,
    /// Materialised interior nodes, keyed by `(level, prefix)` where
    /// `level` runs from `levels` (root's children table) down to 2.
    nodes: DetHashSet<(u32, u64)>,
    insertions: u64,
    invalidations: u64,
}

impl PageTable {
    /// Creates an empty table for the given page size.
    pub fn new(page_size: PageSize) -> Self {
        PageTable {
            page_size,
            leaves: DetHashMap::default(),
            nodes: DetHashSet::default(),
            insertions: 0,
            invalidations: 0,
        }
    }

    /// Page size this table translates.
    pub fn page_size(&self) -> PageSize {
        self.page_size
    }

    /// Number of leaf entries (valid or invalid).
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// Bytes of the leaf entries and materialised interior nodes, one key
    /// and value each.
    pub fn footprint_bytes(&self) -> usize {
        self.leaves.len() * std::mem::size_of::<(Vpn, Pte)>()
            + self.nodes.len() * std::mem::size_of::<(u32, u64)>()
    }

    /// Whether the table has no leaf entries.
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// Installs (or overwrites) the leaf PTE for `vpn`, materialising all
    /// interior nodes on the path.
    pub fn insert(&mut self, vpn: Vpn, pte: Pte) {
        self.insertions += 1;
        for level in 2..=self.page_size.levels() {
            self.nodes.insert((level, vpn.prefix_at(level - 1)));
        }
        self.leaves.insert(vpn, pte);
    }

    /// Reads the leaf PTE without any timing semantics.
    pub fn lookup(&self, vpn: Vpn) -> Option<Pte> {
        self.leaves.get(&vpn).copied()
    }

    /// Mutable access to a leaf PTE (e.g. to flip directory access bits).
    pub fn lookup_mut(&mut self, vpn: Vpn) -> Option<&mut Pte> {
        self.leaves.get_mut(&vpn)
    }

    /// Clears the valid bit of the leaf PTE, leaving the entry in place.
    /// Returns `true` if a *valid* entry was actually invalidated — i.e.
    /// whether the invalidation was necessary in the paper's sense.
    pub fn invalidate(&mut self, vpn: Vpn) -> bool {
        self.invalidations += 1;
        match self.leaves.get_mut(&vpn) {
            Some(pte) if pte.is_valid() => {
                pte.invalidate();
                true
            }
            _ => false,
        }
    }

    /// Removes the leaf entry entirely (used when tearing down mappings).
    pub fn remove(&mut self, vpn: Vpn) -> Option<Pte> {
        self.leaves.remove(&vpn)
    }

    /// Probes the radix path for `vpn`: how many levels a hardware walk
    /// would traverse, and the leaf PTE if present.
    ///
    /// The root level is always resident. Interior levels are counted until
    /// the first non-materialised node; if all interior nodes exist, the
    /// walk also touches the leaf level. Interior nodes are never removed
    /// and `insert` materialises a leaf's whole path, so a present leaf
    /// answers at once with every level.
    pub fn probe(&self, vpn: Vpn) -> WalkPath {
        let total = self.page_size.levels();
        if let Some(leaf) = self.lookup(vpn) {
            return WalkPath {
                levels_present: total,
                leaf: Some(leaf),
            };
        }
        let mut levels_present = 1; // the root access always happens
        for level in (2..=total).rev() {
            if self.nodes.contains(&(level, vpn.prefix_at(level - 1))) {
                levels_present += 1;
            } else {
                return WalkPath {
                    levels_present,
                    leaf: None,
                };
            }
        }
        WalkPath {
            levels_present,
            leaf: None,
        }
    }

    /// Iterates over all `(vpn, pte)` leaves in unspecified order. Callers
    /// must aggregate order-insensitively (counts, sums) or sort.
    pub fn iter(&self) -> impl Iterator<Item = (Vpn, Pte)> + '_ {
        #[expect(
            clippy::disallowed_methods,
            reason = "callers count stale PTEs, order-insensitive"
        )]
        self.leaves.iter_unordered().map(|(&v, &p)| (v, p))
    }

    /// Total `insert` calls.
    pub fn insertions(&self) -> u64 {
        self.insertions
    }

    /// Total `invalidate` calls (necessary or not).
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_roundtrip() {
        let mut pt = PageTable::new(PageSize::Size4K);
        assert!(pt.is_empty());
        pt.insert(Vpn(1), Pte::new_mapped(10, false));
        assert_eq!(pt.lookup(Vpn(1)).unwrap().ppn(), 10);
        assert_eq!(pt.lookup(Vpn(2)), None);
        assert_eq!(pt.len(), 1);
    }

    #[test]
    fn probe_empty_table_touches_root_only() {
        let pt = PageTable::new(PageSize::Size4K);
        let p = pt.probe(Vpn(0x123));
        assert_eq!(p.levels_present, 1);
        assert_eq!(p.leaf, None);
    }

    #[test]
    fn probe_full_path_after_insert() {
        let mut pt = PageTable::new(PageSize::Size4K);
        pt.insert(Vpn(0x42), Pte::new_mapped(1, true));
        let p = pt.probe(Vpn(0x42));
        assert_eq!(p.levels_present, 5);
        assert!(p.leaf.unwrap().is_valid());
    }

    #[test]
    fn probe_sibling_page_shares_interior_nodes() {
        let mut pt = PageTable::new(PageSize::Size4K);
        pt.insert(Vpn(0x200), Pte::new_mapped(1, true));
        // Same L2 node (same irmb base), different leaf slot: full path
        // exists but the leaf PTE is absent.
        let p = pt.probe(Vpn(0x201));
        assert_eq!(p.levels_present, 5);
        assert_eq!(p.leaf, None);
        // A distant VPN shares only the root.
        let q = pt.probe(Vpn(0x200 ^ (1 << 40)));
        assert_eq!(q.levels_present, 1);
    }

    /// The node-by-node walk `probe` stood for before it answered present
    /// leaves first.
    fn probe_node_by_node(pt: &PageTable, vpn: Vpn) -> WalkPath {
        let total = pt.page_size.levels();
        let mut levels_present = 1;
        for level in (2..=total).rev() {
            if !pt.nodes.contains(&(level, vpn.prefix_at(level - 1))) {
                return WalkPath {
                    levels_present,
                    leaf: None,
                };
            }
            levels_present += 1;
        }
        WalkPath {
            levels_present,
            leaf: pt.lookup(vpn),
        }
    }

    #[test]
    fn probe_equals_the_node_by_node_walk() {
        for size in [PageSize::Size4K, PageSize::Size2M] {
            let mut pt = PageTable::new(size);
            for vpn in [0x42, 0x43, 0x200, 0x1_0000, 1 << 30] {
                pt.insert(Vpn(vpn), Pte::new_mapped(vpn, true));
            }
            pt.invalidate(Vpn(0x43));
            pt.remove(Vpn(0x200));
            let vpns = [
                0x42,            // present
                0x43,            // invalidated
                0x200,           // removed: its nodes stay
                0x201,           // never inserted, full path
                0x1_0001,        // never inserted, shares some nodes
                (1 << 30) ^ 0x7, // never inserted, sibling of a leaf
                1 << 40,         // never inserted, root only
            ];
            for vpn in vpns {
                assert_eq!(
                    pt.probe(Vpn(vpn)),
                    probe_node_by_node(&pt, Vpn(vpn)),
                    "{size:?} vpn {vpn:#x}"
                );
            }
            let leaf = pt.probe(Vpn(0x43)).leaf.unwrap();
            assert!(!leaf.is_valid(), "an invalidated leaf is still walked to");
        }
    }

    #[test]
    fn invalidate_keeps_entry_reports_necessity() {
        let mut pt = PageTable::new(PageSize::Size4K);
        pt.insert(Vpn(5), Pte::new_mapped(9, true));
        assert!(pt.invalidate(Vpn(5)), "first invalidation is necessary");
        assert!(!pt.invalidate(Vpn(5)), "second is unnecessary");
        assert!(!pt.invalidate(Vpn(6)), "absent PTE is unnecessary");
        let leaf = pt.lookup(Vpn(5)).unwrap();
        assert!(!leaf.is_valid());
        assert_eq!(leaf.ppn(), 9);
        assert_eq!(pt.invalidations(), 3);
    }

    #[test]
    fn reinsert_after_invalidate_revalidates() {
        let mut pt = PageTable::new(PageSize::Size4K);
        pt.insert(Vpn(5), Pte::new_mapped(9, true));
        pt.invalidate(Vpn(5));
        pt.insert(Vpn(5), Pte::new_mapped(11, true));
        let leaf = pt.lookup(Vpn(5)).unwrap();
        assert!(leaf.is_valid());
        assert_eq!(leaf.ppn(), 11);
    }

    #[test]
    fn large_pages_have_four_levels() {
        let mut pt = PageTable::new(PageSize::Size2M);
        pt.insert(Vpn(0x42), Pte::new_mapped(1, true));
        assert_eq!(pt.probe(Vpn(0x42)).levels_present, 4);
    }

    #[test]
    fn lookup_mut_allows_bit_updates() {
        let mut pt = PageTable::new(PageSize::Size4K);
        pt.insert(Vpn(7), Pte::new_mapped(3, true));
        pt.lookup_mut(Vpn(7)).unwrap().set_unused_bit(52, true);
        assert!(pt.lookup(Vpn(7)).unwrap().unused_bit(52));
    }
}
