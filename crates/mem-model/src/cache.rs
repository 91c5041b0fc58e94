//! Tag-only cache model used for the GPU data caches.
//!
//! IDYLL's results depend on data-access *latency classes* (L1 hit, L2 hit,
//! local DRAM, remote DRAM) rather than data contents, so the cache tracks
//! presence only.

use sim_engine::stats::Counter;

use crate::assoc::SetAssoc;

/// Geometry of a cache: total bytes, associativity and line size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    size_bytes: u64,
    ways: usize,
    line_bytes: u64,
}

impl CacheGeometry {
    /// Creates a geometry.
    ///
    /// # Panics
    /// Panics unless `size_bytes` is divisible by `ways * line_bytes` and
    /// all parameters are non-zero.
    pub fn new(size_bytes: u64, ways: usize, line_bytes: u64) -> Self {
        assert!(size_bytes > 0 && ways > 0 && line_bytes > 0);
        assert_eq!(
            size_bytes % (ways as u64 * line_bytes),
            0,
            "size must divide evenly into sets"
        );
        CacheGeometry {
            size_bytes,
            ways,
            line_bytes,
        }
    }

    /// Number of sets implied by the geometry.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "u64 → usize cannot truncate: sim_engine refuses to build for non-64-bit hosts"
    )]
    pub fn sets(&self) -> usize {
        (self.size_bytes / (self.ways as u64 * self.line_bytes)) as usize
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }
}

/// A tag-only set-associative cache with LRU replacement and hit/miss
/// statistics.
///
/// Addresses are byte addresses; the cache internally reduces them to line
/// tags.
#[derive(Debug, Clone)]
pub struct Cache {
    lines: SetAssoc<()>,
    geometry: CacheGeometry,
    hits: Counter,
    misses: Counter,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(geometry: CacheGeometry) -> Self {
        Cache {
            lines: SetAssoc::new(geometry.sets(), geometry.ways()),
            geometry,
            hits: Counter::new(),
            misses: Counter::new(),
        }
    }

    #[inline]
    fn line_of(&self, addr: u64) -> u64 {
        addr / self.geometry.line_bytes
    }

    /// Accesses byte address `addr`: returns `true` on a hit. On a miss the
    /// line is allocated (allocate-on-miss for both reads and writes).
    pub fn access(&mut self, addr: u64) -> bool {
        let line = self.line_of(addr);
        if self.lines.get(line).is_some() {
            self.hits.inc();
            true
        } else {
            self.misses.inc();
            self.lines.insert(line, ());
            false
        }
    }

    /// Probes without allocating or refreshing.
    pub fn contains(&self, addr: u64) -> bool {
        self.lines.contains(self.line_of(addr))
    }

    /// Invalidates every line belonging to the page starting at
    /// `page_base` with `page_bytes` size. Returns lines dropped.
    ///
    /// Used when a page migrates away: its cached lines must not serve stale
    /// data. Only the sets the page's lines map to are visited, unless the
    /// page spans at least as many lines as there are sets.
    pub fn invalidate_page(&mut self, page_base: u64, page_bytes: u64) -> usize {
        let first = page_base / self.geometry.line_bytes;
        let last = (page_base + page_bytes - 1) / self.geometry.line_bytes;
        self.lines.invalidate_range(first, last)
    }

    /// Drops all lines.
    pub fn flush(&mut self) -> usize {
        self.lines.flush()
    }

    /// Cache geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Bytes of the tag store, fixed by the geometry.
    pub fn footprint_bytes(&self) -> usize {
        self.lines.footprint_bytes()
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Hit rate in `[0,1]`; zero when never accessed.
    pub fn hit_rate(&self) -> f64 {
        sim_engine::stats::hit_rate(self.hits.get(), self.misses.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512B
        Cache::new(CacheGeometry::new(512, 2, 64))
    }

    #[test]
    fn geometry_derives_sets() {
        let g = CacheGeometry::new(256 * 1024, 16, 64);
        assert_eq!(g.sets(), 256);
        assert_eq!(g.ways(), 16);
        assert_eq!(g.size_bytes(), 256 * 1024);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        assert!(!c.access(0x100));
        assert!(c.access(0x100));
        assert!(c.access(0x13f), "same 64B line");
        assert!(!c.access(0x140), "next line");
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
        assert_eq!(c.hit_rate(), 0.5);
    }

    #[test]
    fn conflict_evicts_lru() {
        let mut c = small();
        // Lines mapping to set 0 (line numbers ≡ 0 mod 4): 0, 4, 8 → bytes 0, 0x100, 0x200.
        c.access(0x000);
        c.access(0x100);
        c.access(0x000); // refresh line 0
        c.access(0x200); // evicts line 4 (0x100)
        assert!(c.contains(0x000));
        assert!(!c.contains(0x100));
        assert!(c.contains(0x200));
    }

    #[test]
    fn invalidate_page_drops_only_that_page() {
        let mut c = Cache::new(CacheGeometry::new(64 * 1024, 4, 64));
        c.access(0x1000);
        c.access(0x1fc0);
        c.access(0x2000); // next page
        let dropped = c.invalidate_page(0x1000, 4096);
        assert_eq!(dropped, 2);
        assert!(!c.contains(0x1000));
        assert!(c.contains(0x2000));
    }

    /// Touches `lines` consecutive lines starting at `base` and returns
    /// how many are resident afterwards.
    fn touch(c: &mut Cache, base: u64, lines: u64) -> usize {
        (0..lines).for_each(|i| {
            c.access(base + i * 64);
        });
        (0..lines).filter(|i| c.contains(base + i * 64)).count()
    }

    #[test]
    fn invalidate_page_drops_exactly_one_small_page() {
        // L2 geometry: 256 sets, so a 4 KiB page (64 lines) is dropped by
        // visiting only its 64 sets.
        let mut c = Cache::new(CacheGeometry::new(256 * 1024, 16, 64));
        let before = touch(&mut c, 0x1000, 64);
        let after = touch(&mut c, 0x3000, 64);
        let page = touch(&mut c, 0x2000, 64);
        assert_eq!(page, 64);
        assert_eq!(c.invalidate_page(0x2000, 4096), 64);
        assert!((0..64).all(|i| !c.contains(0x2000 + i * 64)));
        assert_eq!(
            (0..64).filter(|i| c.contains(0x1000 + i * 64)).count(),
            before
        );
        assert_eq!(
            (0..64).filter(|i| c.contains(0x3000 + i * 64)).count(),
            after
        );
        assert_eq!(c.invalidate_page(0x2000, 4096), 0, "idempotent");
    }

    #[test]
    fn invalidate_page_drops_exactly_one_large_page() {
        // A 2 MiB page spans more lines than there are sets: full scan.
        let two_mib = 2 << 20;
        let mut c = Cache::new(CacheGeometry::new(256 * 1024, 16, 64));
        c.access(two_mib - 64); // last line of the previous page
        c.access(2 * two_mib); // first line of the next page
        let resident = touch(&mut c, two_mib, 512) + touch(&mut c, two_mib + 0x10_0000, 64);
        assert_eq!(c.invalidate_page(two_mib, two_mib), resident);
        assert!(c.contains(two_mib - 64));
        assert!(c.contains(2 * two_mib));
        assert_eq!(c.flush(), 2);
    }

    #[test]
    fn flush_empties() {
        let mut c = small();
        c.access(0);
        c.access(64);
        assert_eq!(c.flush(), 2);
        assert!(!c.contains(0));
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn bad_geometry_panics() {
        let _ = CacheGeometry::new(1000, 3, 64);
    }
}
