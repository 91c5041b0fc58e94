//! Translation lookaside buffers.
//!
//! The baseline hierarchy (Table 2): per-CU fully-associative 32-entry L1
//! TLBs with 1-cycle lookup, and a 512-entry 16-way shared L2 TLB with
//! 10-cycle lookup, LRU replacement throughout. Shootdowns invalidate
//! individual VPNs immediately upon a migration's invalidation message —
//! both in the baseline and in IDYLL (only the *PTE* update is lazy).
//!
//! A GPU's per-CU L1 TLBs are stored together as one [`TlbBank`], which
//! also indexes which CUs hold each VPN, so a shootdown visits only the
//! holders' sets instead of every CU's TLB.

use mem_model::assoc::{Inserted, SetAssoc};
use sim_engine::collections::DetHashMap;
use sim_engine::{stats::Counter, Cycle};

use crate::addr::Vpn;
use crate::pte::Pte;

/// Geometry and latency of one TLB level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Total entries.
    pub entries: usize,
    /// Associativity. Use `entries` for fully-associative.
    pub ways: usize,
    /// Lookup latency in cycles.
    pub latency: Cycle,
}

impl TlbConfig {
    /// The baseline per-CU L1 TLB: 32 entries, fully associative, 1 cycle.
    pub fn baseline_l1() -> Self {
        TlbConfig {
            entries: 32,
            ways: 32,
            latency: Cycle(1),
        }
    }

    /// The baseline shared L2 TLB: 512 entries, 16-way, 10 cycles.
    pub fn baseline_l2() -> Self {
        TlbConfig {
            entries: 512,
            ways: 16,
            latency: Cycle(10),
        }
    }

    /// The enlarged L2 TLB studied in §7.2: 2048 entries, 64-way.
    pub fn large_l2() -> Self {
        TlbConfig {
            entries: 2048,
            ways: 64,
            latency: Cycle(10),
        }
    }
}

/// A TLB caching leaf PTEs by VPN.
///
/// # Example
///
/// ```
/// use vm_model::tlb::{Tlb, TlbConfig};
/// use vm_model::{Vpn, Pte};
///
/// let mut tlb = Tlb::new(TlbConfig::baseline_l1());
/// assert!(tlb.lookup(Vpn(9)).is_none());
/// tlb.fill(Vpn(9), Pte::new_mapped(3, true));
/// assert_eq!(tlb.lookup(Vpn(9)).unwrap().ppn(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    entries: SetAssoc<Pte>,
    config: TlbConfig,
    hits: Counter,
    misses: Counter,
    shootdowns: Counter,
}

impl Tlb {
    /// Creates an empty TLB.
    ///
    /// # Panics
    /// Panics unless `entries` divides evenly by `ways`.
    pub fn new(config: TlbConfig) -> Self {
        assert!(
            config.entries.is_multiple_of(config.ways),
            "entries must divide by ways"
        );
        Tlb {
            entries: SetAssoc::new(config.entries / config.ways, config.ways),
            config,
            hits: Counter::new(),
            misses: Counter::new(),
            shootdowns: Counter::new(),
        }
    }

    /// Looks up `vpn`, counting a hit or miss and refreshing recency.
    pub fn lookup(&mut self, vpn: Vpn) -> Option<Pte> {
        match self.entries.get(vpn.0) {
            Some(&pte) => {
                self.hits.inc();
                Some(pte)
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Probes without statistics or recency update.
    pub fn contains(&self, vpn: Vpn) -> bool {
        self.entries.contains(vpn.0)
    }

    /// Reads an entry without statistics or recency update (used by retry
    /// paths whose architectural lookup was already counted).
    pub fn peek(&self, vpn: Vpn) -> Option<Pte> {
        self.entries.peek(vpn.0).copied()
    }

    /// Installs a translation, evicting per-set LRU if needed. Returns the
    /// evicted `(vpn, pte)` if any.
    pub fn fill(&mut self, vpn: Vpn, pte: Pte) -> Option<(Vpn, Pte)> {
        match self.entries.insert(vpn.0, pte) {
            Inserted::Evicted { tag, value } => Some((Vpn(tag), value)),
            _ => None,
        }
    }

    /// Shoots down a single VPN. Returns whether an entry was present.
    pub fn shootdown(&mut self, vpn: Vpn) -> bool {
        self.shootdowns.inc();
        self.entries.invalidate(vpn.0).is_some()
    }

    /// Flushes the whole TLB, returning entries dropped.
    pub fn flush(&mut self) -> usize {
        self.entries.flush()
    }

    /// Lookup latency of this level.
    pub fn latency(&self) -> Cycle {
        self.config.latency
    }

    /// Configuration.
    pub fn config(&self) -> TlbConfig {
        self.config
    }

    /// Bytes of the entry store, fixed by the geometry.
    pub fn footprint_bytes(&self) -> usize {
        self.entries.footprint_bytes()
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Shootdown messages processed.
    pub fn shootdowns(&self) -> u64 {
        self.shootdowns.get()
    }

    /// Current number of valid entries.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        sim_engine::stats::hit_rate(self.hits.get(), self.misses.get())
    }
}

/// The private L1 TLBs of every CU on one GPU, stored as one bank.
///
/// CU `c` owns the contiguous run of sets `c × S .. (c + 1) × S`, where
/// `S = entries / ways` is one CU's set count, so each CU keeps the exact
/// geometry and LRU order of a standalone [`Tlb`] (recency is kept per
/// set, so the victims are the same). The bank keeps aggregate hit/miss
/// counts — the only ones reported.
///
/// A holder index maps each cached VPN to the CUs holding it (one 64-bit
/// mask per 64 CUs), kept exact by every fill, eviction and shootdown, so a
/// shootdown touches only the sets that hold the VPN.
///
/// # Example
///
/// ```
/// use vm_model::tlb::{TlbBank, TlbConfig};
/// use vm_model::{Vpn, Pte};
///
/// let mut bank = TlbBank::new(4, TlbConfig::baseline_l1());
/// bank.fill(1, Vpn(9), Pte::new_mapped(3, true));
/// assert!(bank.lookup(0, Vpn(9)).is_none(), "CU 0 has its own TLB");
/// assert_eq!(bank.lookup(1, Vpn(9)).unwrap().ppn(), 3);
/// assert_eq!(bank.shootdown(Vpn(9)), 1);
/// ```
#[derive(Debug, Clone)]
pub struct TlbBank {
    entries: SetAssoc<Pte>,
    /// `(vpn, word) → mask`: bit `b` set iff CU `64 × word + b` holds `vpn`.
    holders: DetHashMap<(u64, usize), u64>,
    cus: usize,
    sets_per_cu: usize,
    hits: Counter,
    misses: Counter,
}

impl TlbBank {
    /// Creates `cus` empty TLBs of geometry `config` each.
    ///
    /// # Panics
    /// Panics if `cus == 0` or unless `entries` divides evenly by `ways`.
    pub fn new(cus: usize, config: TlbConfig) -> Self {
        assert!(
            config.entries.is_multiple_of(config.ways),
            "entries must divide by ways"
        );
        let sets_per_cu = config.entries / config.ways;
        TlbBank {
            entries: SetAssoc::new(cus * sets_per_cu, config.ways),
            holders: DetHashMap::default(),
            cus,
            sets_per_cu,
            hits: Counter::new(),
            misses: Counter::new(),
        }
    }

    /// Index, within its CU's run, of the set `vpn` maps to.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "u64 → usize cannot truncate: sim_engine refuses to build for non-64-bit hosts"
    )]
    fn local_set(&self, vpn: Vpn) -> usize {
        (vpn.0 % self.sets_per_cu as u64) as usize
    }

    /// The bank set CU `cu` keeps `vpn` in.
    #[inline]
    fn set_of(&self, cu: usize, vpn: Vpn) -> usize {
        cu * self.sets_per_cu + self.local_set(vpn)
    }

    /// Looks up `vpn` in CU `cu`'s TLB, counting a hit or miss and
    /// refreshing recency.
    pub fn lookup(&mut self, cu: usize, vpn: Vpn) -> Option<Pte> {
        let set = self.set_of(cu, vpn);
        match self.entries.get_in(set, vpn.0) {
            Some(&pte) => {
                self.hits.inc();
                Some(pte)
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Probes CU `cu`'s TLB without statistics or recency update.
    pub fn contains(&self, cu: usize, vpn: Vpn) -> bool {
        let set = self.set_of(cu, vpn);
        self.entries.contains_in(set, vpn.0)
    }

    /// Installs a translation in CU `cu`'s TLB, evicting that CU's per-set
    /// LRU entry if needed. Returns the evicted `(vpn, pte)` if any.
    ///
    /// # Panics
    /// Panics if `cu >= self.cus()`.
    pub fn fill(&mut self, cu: usize, vpn: Vpn, pte: Pte) -> Option<(Vpn, Pte)> {
        let set = self.set_of(cu, vpn);
        let (word, bit) = (cu / 64, 1u64 << (cu % 64));
        match self.entries.insert_in(set, vpn.0, pte) {
            Inserted::Updated(_) => None,
            Inserted::Filled => {
                *self.holders.entry((vpn.0, word)).or_insert(0) |= bit;
                None
            }
            Inserted::Evicted { tag, value } => {
                *self.holders.entry((vpn.0, word)).or_insert(0) |= bit;
                if let Some(mask) = self.holders.get_mut(&(tag, word)) {
                    *mask &= !bit;
                    if *mask == 0 {
                        self.holders.remove(&(tag, word));
                    }
                }
                Some((Vpn(tag), value))
            }
        }
    }

    /// Shoots `vpn` down in every CU's TLB. Returns how many CUs held it.
    pub fn shootdown(&mut self, vpn: Vpn) -> usize {
        let local = self.local_set(vpn);
        let mut dropped = 0;
        for word in 0..self.cus.div_ceil(64) {
            let Some(mut mask) = self.holders.remove(&(vpn.0, word)) else {
                continue;
            };
            while mask != 0 {
                let cu = word * 64 + mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let set = cu * self.sets_per_cu + local;
                if self.entries.invalidate_in(set, vpn.0).is_some() {
                    dropped += 1;
                }
            }
        }
        dropped
    }

    /// Number of CUs.
    pub fn cus(&self) -> usize {
        self.cus
    }

    /// Bytes of every CU's entry store (fixed by the geometry) plus one
    /// key and mask per live holder-index entry.
    pub fn footprint_bytes(&self) -> usize {
        self.entries.footprint_bytes()
            + self.holders.len() * std::mem::size_of::<((u64, usize), u64)>()
    }

    /// Hits so far, summed over CUs.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Misses so far, summed over CUs.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Valid entries, summed over CUs.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_fill_hit() {
        let mut tlb = Tlb::new(TlbConfig::baseline_l1());
        assert!(tlb.lookup(Vpn(1)).is_none());
        tlb.fill(Vpn(1), Pte::new_mapped(5, true));
        assert_eq!(tlb.lookup(Vpn(1)).unwrap().ppn(), 5);
        assert_eq!(tlb.hits(), 1);
        assert_eq!(tlb.misses(), 1);
    }

    #[test]
    fn capacity_eviction_in_fa_tlb() {
        let mut tlb = Tlb::new(TlbConfig {
            entries: 2,
            ways: 2,
            latency: Cycle(1),
        });
        tlb.fill(Vpn(1), Pte::new_mapped(1, true));
        tlb.fill(Vpn(2), Pte::new_mapped(2, true));
        tlb.lookup(Vpn(1)); // make 2 the LRU
        let evicted = tlb.fill(Vpn(3), Pte::new_mapped(3, true)).unwrap();
        assert_eq!(evicted.0, Vpn(2));
        assert!(tlb.contains(Vpn(1)));
        assert!(tlb.contains(Vpn(3)));
    }

    #[test]
    fn shootdown_removes_entry() {
        let mut tlb = Tlb::new(TlbConfig::baseline_l2());
        tlb.fill(Vpn(0x42), Pte::new_mapped(1, true));
        assert!(tlb.shootdown(Vpn(0x42)));
        assert!(!tlb.shootdown(Vpn(0x42)), "second shootdown finds nothing");
        assert!(tlb.lookup(Vpn(0x42)).is_none());
        assert_eq!(tlb.shootdowns(), 2);
    }

    #[test]
    fn flush_drops_everything() {
        let mut tlb = Tlb::new(TlbConfig::baseline_l2());
        for i in 0..100 {
            tlb.fill(Vpn(i), Pte::new_mapped(i, true));
        }
        assert_eq!(tlb.occupancy(), 100);
        assert_eq!(tlb.flush(), 100);
        assert_eq!(tlb.occupancy(), 0);
    }

    #[test]
    fn set_conflicts_respect_geometry() {
        // 4 sets x 1 way: VPNs 0 and 4 conflict.
        let mut tlb = Tlb::new(TlbConfig {
            entries: 4,
            ways: 1,
            latency: Cycle(1),
        });
        tlb.fill(Vpn(0), Pte::new_mapped(0, true));
        let ev = tlb.fill(Vpn(4), Pte::new_mapped(4, true)).unwrap();
        assert_eq!(ev.0, Vpn(0));
        assert!(tlb.contains(Vpn(4)));
    }

    fn small_l1() -> TlbConfig {
        TlbConfig {
            entries: 4,
            ways: 2,
            latency: Cycle(1),
        }
    }

    #[test]
    fn bank_shootdown_removes_the_vpn_from_every_cu_and_nothing_else() {
        let mut bank = TlbBank::new(3, small_l1());
        for cu in 0..3 {
            bank.fill(cu, Vpn(6), Pte::new_mapped(6, true));
            bank.fill(cu, Vpn(8), Pte::new_mapped(8, true));
        }
        bank.fill(1, Vpn(7), Pte::new_mapped(7, true));
        assert_eq!(bank.shootdown(Vpn(6)), 3);
        for cu in 0..3 {
            assert!(!bank.contains(cu, Vpn(6)));
            assert!(bank.contains(cu, Vpn(8)));
        }
        assert!(bank.contains(1, Vpn(7)));
        assert_eq!(bank.occupancy(), 4);
        assert_eq!(bank.shootdown(Vpn(6)), 0, "idempotent");
    }

    #[test]
    fn bank_shootdown_reaches_cus_past_the_first_mask_word() {
        let mut bank = TlbBank::new(130, TlbConfig::baseline_l1());
        for cu in [0, 63, 64, 127, 129] {
            bank.fill(cu, Vpn(5), Pte::new_mapped(5, true));
        }
        assert_eq!(bank.shootdown(Vpn(5)), 5);
        assert_eq!(bank.occupancy(), 0);
        // An evicted VPN leaves the index too: CU 129's single-way TLB.
        let mut bank = TlbBank::new(
            130,
            TlbConfig {
                entries: 1,
                ways: 1,
                latency: Cycle(1),
            },
        );
        bank.fill(129, Vpn(1), Pte::new_mapped(1, true));
        bank.fill(129, Vpn(2), Pte::new_mapped(2, true));
        assert_eq!(bank.shootdown(Vpn(1)), 0);
        assert_eq!(bank.shootdown(Vpn(2)), 1);
        assert!(bank.holders.is_empty());
    }

    /// The holder index equals the CU masks recomputed from the entries.
    fn assert_index_exact(bank: &TlbBank) {
        let mut expected: DetHashMap<(u64, usize), u64> = DetHashMap::default();
        for cu in 0..bank.cus {
            for local in 0..bank.sets_per_cu {
                let set = cu * bank.sets_per_cu + local;
                for (tag, _) in bank.entries.iter().filter(|&(t, _)| {
                    bank.local_set(Vpn(t)) == local && bank.entries.contains_in(set, t)
                }) {
                    *expected.entry((tag, cu / 64)).or_insert(0) |= 1 << (cu % 64);
                }
            }
        }
        assert_eq!(bank.holders, expected);
    }

    #[test]
    fn holder_index_stays_exact_through_fills_evictions_and_shootdowns() {
        let mut bank = TlbBank::new(70, small_l1());
        let mut x = 7u64;
        for step in 0..3000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let (cu, vpn) = ((x >> 40) as usize % 70, Vpn((x >> 20) % 12));
            if step % 5 == 4 {
                bank.shootdown(vpn);
            } else {
                bank.fill(cu, vpn, Pte::new_mapped(vpn.0, true));
            }
            if step % 100 == 0 {
                assert_index_exact(&bank);
            }
        }
        assert_index_exact(&bank);
        for v in 0..12 {
            bank.shootdown(Vpn(v));
        }
        assert!(bank.holders.is_empty());
        assert_eq!(bank.occupancy(), 0);
    }

    #[test]
    fn filling_one_cu_never_evicts_another() {
        let mut bank = TlbBank::new(2, small_l1());
        bank.fill(0, Vpn(0), Pte::new_mapped(0, true));
        bank.fill(0, Vpn(1), Pte::new_mapped(1, true));
        // Far more fills than CU 1's capacity, in both of its sets.
        for v in 0..64 {
            bank.fill(1, Vpn(v), Pte::new_mapped(v, true));
        }
        assert!(bank.contains(0, Vpn(0)));
        assert!(bank.contains(0, Vpn(1)));
        assert_eq!(bank.occupancy(), 2 + 4);
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn bad_geometry_panics() {
        let _ = Tlb::new(TlbConfig {
            entries: 10,
            ways: 4,
            latency: Cycle(1),
        });
    }
}
