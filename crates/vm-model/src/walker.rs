//! Page-table-walker latency model.
//!
//! A walk issues one memory access per traversed radix level (100 cycles per
//! level in the baseline, Table 2), starting below the deepest level cached
//! in the shared page-walk cache. The walker is used for three request
//! classes, all of which contend for the same PWC and walker threads:
//! demand TLB misses, PTE-invalidation requests (the baseline's shootdown
//! walks) and IRMB write-back batches.

use sim_engine::Cycle;

use crate::addr::Vpn;
use crate::page_table::PageTable;
use crate::pte::Pte;
use crate::pwc::PageWalkCache;

/// Walker timing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkerConfig {
    /// Memory latency per traversed level (100 cycles in the baseline,
    /// following NeuMMU's measurement cited by the paper).
    pub per_level_latency: Cycle,
}

impl Default for WalkerConfig {
    fn default() -> Self {
        WalkerConfig {
            per_level_latency: Cycle(100),
        }
    }
}

/// What a completed walk found at the leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkOutcome {
    /// A valid leaf PTE: translation succeeded.
    Mapped(Pte),
    /// The leaf PTE exists but its valid bit is clear (it was invalidated
    /// by a migration): the requester must raise a far fault.
    InvalidLeaf(Pte),
    /// No leaf PTE on this GPU: far fault.
    NotPresent,
}

impl WalkOutcome {
    /// The valid translation, if the walk produced one.
    pub fn mapped(self) -> Option<Pte> {
        match self {
            WalkOutcome::Mapped(pte) => Some(pte),
            _ => None,
        }
    }
}

/// Result of one page-table walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkResult {
    /// What the leaf held.
    pub outcome: WalkOutcome,
    /// Memory accesses performed (levels actually traversed).
    pub mem_accesses: u32,
    /// Total walk latency.
    pub latency: Cycle,
    /// Whether the page-walk cache supplied an interior level.
    pub pwc_hit: bool,
}

/// Performs one translation walk of `pt` for `vpn`, consulting and filling
/// `pwc`, and returns its outcome and latency.
///
/// This models timing only — it never mutates the page table. Invalidation
/// walks use [`walk_invalidate`].
///
/// # Example
///
/// ```
/// use vm_model::{PageSize, Vpn, Pte};
/// use vm_model::page_table::PageTable;
/// use vm_model::pwc::PageWalkCache;
/// use vm_model::walker::{walk_translate, WalkerConfig, WalkOutcome};
///
/// let mut pt = PageTable::new(PageSize::Size4K);
/// let mut pwc = PageWalkCache::new(128, 5);
/// pt.insert(Vpn(7), Pte::new_mapped(3, true));
/// let cold = walk_translate(&pt, &mut pwc, Vpn(7), WalkerConfig::default());
/// assert_eq!(cold.mem_accesses, 5);
/// let warm = walk_translate(&pt, &mut pwc, Vpn(7), WalkerConfig::default());
/// assert_eq!(warm.mem_accesses, 1); // PWC supplies the interior levels
/// ```
pub fn walk_translate(
    pt: &PageTable,
    pwc: &mut PageWalkCache,
    vpn: Vpn,
    cfg: WalkerConfig,
) -> WalkResult {
    let total = pt.page_size().levels();
    let path = pt.probe(vpn);
    let (first_step, pwc_hit) = match pwc.deepest_cached(vpn) {
        // A hit at level d caches the pointer *into* the level-(d-1) table:
        // the first memory access reads that table, which is step
        // `total - (d-1) + 1` counted from the root.
        Some(d) => (total - (d - 1) + 1, true),
        None => (1, false),
    };
    let mem_accesses = if path.levels_present >= first_step {
        path.levels_present - first_step + 1
    } else {
        // The PWC points deeper than this VPN's materialised path — the
        // cached interior entry still needs one access to observe the
        // absent next-level entry.
        1
    };
    pwc.fill_path(vpn, path.levels_present);
    let outcome = if path.levels_present == total {
        match path.leaf {
            Some(pte) if pte.is_valid() => WalkOutcome::Mapped(pte),
            Some(pte) => WalkOutcome::InvalidLeaf(pte),
            None => WalkOutcome::NotPresent,
        }
    } else {
        WalkOutcome::NotPresent
    };
    WalkResult {
        outcome,
        mem_accesses,
        latency: Cycle(cfg.per_level_latency.raw() * mem_accesses as u64),
        pwc_hit,
    }
}

/// Performs an *invalidation* walk: traverses the table exactly like a
/// translation walk (contending for the same resources) and clears the leaf
/// valid bit. Returns the walk result (timing) plus whether the invalidation
/// was *necessary* — i.e. whether a valid PTE was actually present.
pub fn walk_invalidate(
    pt: &mut PageTable,
    pwc: &mut PageWalkCache,
    vpn: Vpn,
    cfg: WalkerConfig,
) -> (WalkResult, bool) {
    let result = walk_translate(pt, pwc, vpn, cfg);
    let necessary = pt.invalidate(vpn);
    (result, necessary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PageSize;

    fn setup() -> (PageTable, PageWalkCache) {
        (PageTable::new(PageSize::Size4K), PageWalkCache::new(128, 5))
    }

    #[test]
    fn cold_walk_touches_all_levels() {
        let (mut pt, mut pwc) = setup();
        pt.insert(Vpn(0x42), Pte::new_mapped(9, true));
        let r = walk_translate(&pt, &mut pwc, Vpn(0x42), WalkerConfig::default());
        assert_eq!(r.mem_accesses, 5);
        assert_eq!(r.latency, Cycle(500));
        assert!(!r.pwc_hit);
        assert_eq!(r.outcome.mapped().unwrap().ppn(), 9);
    }

    #[test]
    fn warm_walk_is_single_access() {
        let (mut pt, mut pwc) = setup();
        pt.insert(Vpn(0x42), Pte::new_mapped(9, true));
        walk_translate(&pt, &mut pwc, Vpn(0x42), WalkerConfig::default());
        let r = walk_translate(&pt, &mut pwc, Vpn(0x42), WalkerConfig::default());
        assert_eq!(r.mem_accesses, 1);
        assert_eq!(r.latency, Cycle(100));
        assert!(r.pwc_hit);
    }

    #[test]
    fn sibling_walk_amortises_via_shared_base() {
        let (mut pt, mut pwc) = setup();
        pt.insert(Vpn(0x200), Pte::new_mapped(1, true));
        pt.insert(Vpn(0x201), Pte::new_mapped(2, true));
        walk_translate(&pt, &mut pwc, Vpn(0x200), WalkerConfig::default());
        // Same IRMB base → the L2 entry is cached → leaf-only access.
        let r = walk_translate(&pt, &mut pwc, Vpn(0x201), WalkerConfig::default());
        assert_eq!(r.mem_accesses, 1);
    }

    #[test]
    fn absent_path_aborts_early() {
        let (pt, mut pwc) = setup();
        let r = walk_translate(&pt, &mut pwc, Vpn(0x42), WalkerConfig::default());
        assert_eq!(r.outcome, WalkOutcome::NotPresent);
        assert_eq!(r.mem_accesses, 1, "only the root access happens");
    }

    #[test]
    fn invalid_leaf_is_distinguished_from_absent() {
        let (mut pt, mut pwc) = setup();
        pt.insert(Vpn(0x42), Pte::new_mapped(9, true));
        pt.invalidate(Vpn(0x42));
        let r = walk_translate(&pt, &mut pwc, Vpn(0x42), WalkerConfig::default());
        match r.outcome {
            WalkOutcome::InvalidLeaf(pte) => assert_eq!(pte.ppn(), 9),
            other => panic!("expected InvalidLeaf, got {other:?}"),
        }
        assert!(r.outcome.mapped().is_none());
        assert_eq!(r.mem_accesses, 5, "full walk reaches the stale leaf");
    }

    #[test]
    fn invalidation_walk_reports_necessity_and_clears() {
        let (mut pt, mut pwc) = setup();
        pt.insert(Vpn(0x99), Pte::new_mapped(4, true));
        let (r1, necessary1) =
            walk_invalidate(&mut pt, &mut pwc, Vpn(0x99), WalkerConfig::default());
        assert!(necessary1);
        assert_eq!(r1.mem_accesses, 5);
        assert!(!pt.lookup(Vpn(0x99)).unwrap().is_valid());
        // Second invalidation: unnecessary, but still walks (warm PWC).
        let (r2, necessary2) =
            walk_invalidate(&mut pt, &mut pwc, Vpn(0x99), WalkerConfig::default());
        assert!(!necessary2);
        assert_eq!(r2.mem_accesses, 1);
    }

    #[test]
    fn large_page_walk_is_four_levels() {
        let mut pt = PageTable::new(PageSize::Size2M);
        let mut pwc = PageWalkCache::new(128, 4);
        pt.insert(Vpn(0x7), Pte::new_mapped(1, true));
        let r = walk_translate(&pt, &mut pwc, Vpn(0x7), WalkerConfig::default());
        assert_eq!(r.mem_accesses, 4);
    }
}
