//! Virtual addresses, virtual page numbers and page sizes.
//!
//! The simulated machine uses 57-bit virtual addresses (x86-64 LA57), giving
//! a 45-bit VPN at 4 KiB granularity split into five 9-bit radix levels
//! L5…L1 (Figure 9 of the paper). The IRMB partitions the VPN into a 36-bit
//! *base* (levels L5–L2) and a 9-bit *offset* (level L1).

/// Supported page sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PageSize {
    /// 4 KiB pages — the paper's baseline (§4).
    #[default]
    Size4K,
    /// 2 MiB large pages — evaluated in §7.3.
    Size2M,
}

impl PageSize {
    /// Page size in bytes.
    pub const fn bytes(self) -> u64 {
        match self {
            PageSize::Size4K => 4096,
            PageSize::Size2M => 2 * 1024 * 1024,
        }
    }

    /// log2 of the page size.
    pub const fn shift(self) -> u32 {
        match self {
            PageSize::Size4K => 12,
            PageSize::Size2M => 21,
        }
    }

    /// Number of radix levels walked to reach the leaf PTE (5 for 4 KiB with
    /// LA57; 4 for 2 MiB, whose leaf lives at L2).
    pub const fn levels(self) -> u32 {
        match self {
            PageSize::Size4K => 5,
            PageSize::Size2M => 4,
        }
    }

    /// Width of the VPN in bits (57-bit VA minus the page offset).
    pub const fn vpn_bits(self) -> u32 {
        57 - self.shift()
    }
}

impl std::fmt::Display for PageSize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PageSize::Size4K => write!(f, "4KB"),
            PageSize::Size2M => write!(f, "2MB"),
        }
    }
}

/// A virtual page number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Vpn(pub u64);

impl Vpn {
    /// The 9-bit IRMB *offset* (the L1 index of the VPN).
    #[inline]
    pub fn irmb_offset(self) -> u16 {
        (self.0 & 0x1ff) as u16
    }

    /// The IRMB *base*: all VPN bits above the L1 index (36 bits for 4 KiB
    /// pages).
    #[inline]
    pub fn irmb_base(self) -> u64 {
        self.0 >> 9
    }

    /// Reassembles a VPN from an IRMB `(base, offset)` pair.
    #[inline]
    pub fn from_irmb(base: u64, offset: u16) -> Vpn {
        Vpn((base << 9) | offset as u64)
    }

    /// The 9-bit radix index at `level` (1 = leaf … `levels` = root).
    ///
    /// # Panics
    /// Panics if `level == 0`.
    #[inline]
    pub fn level_index(self, level: u32) -> u16 {
        assert!(level >= 1, "levels are 1-based");
        ((self.0 >> (9 * (level - 1))) & 0x1ff) as u16
    }

    /// The VPN prefix identifying the page-table node *entered at* `level`:
    /// all index bits above (and excluding) that level's own index.
    /// The root (highest level) has prefix 0.
    #[inline]
    pub fn prefix_at(self, level: u32) -> u64 {
        self.0 >> (9 * level)
    }

    /// Raw value.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for Vpn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vpn:{:#x}", self.0)
    }
}

/// A 57-bit virtual byte address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct VirtAddr(pub u64);

impl VirtAddr {
    /// Builds an address from a VPN and in-page byte offset.
    ///
    /// # Panics
    /// Panics if `offset` exceeds the page size.
    pub fn from_parts(vpn: Vpn, offset: u64, size: PageSize) -> VirtAddr {
        assert!(offset < size.bytes(), "offset beyond page");
        VirtAddr((vpn.0 << size.shift()) | offset)
    }

    /// The virtual page number at the given granularity.
    #[inline]
    pub fn vpn(self, size: PageSize) -> Vpn {
        Vpn(self.0 >> size.shift())
    }

    /// The byte offset within the page.
    #[inline]
    pub fn page_offset(self, size: PageSize) -> u64 {
        self.0 & (size.bytes() - 1)
    }

    /// Raw value.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "va:{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_size_constants() {
        assert_eq!(PageSize::Size4K.bytes(), 4096);
        assert_eq!(PageSize::Size4K.shift(), 12);
        assert_eq!(PageSize::Size4K.levels(), 5);
        assert_eq!(PageSize::Size4K.vpn_bits(), 45);
        assert_eq!(PageSize::Size2M.bytes(), 1 << 21);
        assert_eq!(PageSize::Size2M.levels(), 4);
        assert_eq!(PageSize::Size2M.vpn_bits(), 36);
    }

    #[test]
    fn vpn_irmb_split_roundtrips() {
        let vpn = Vpn(0x1_2345_6789);
        let (base, off) = (vpn.irmb_base(), vpn.irmb_offset());
        assert_eq!(off, 0x189);
        assert_eq!(Vpn::from_irmb(base, off), vpn);
    }

    #[test]
    fn level_indices_partition_the_vpn() {
        // VPN with distinct 9-bit groups: L1=1, L2=2, L3=3, L4=4, L5=5.
        let vpn = Vpn((5 << 36) | (4 << 27) | (3 << 18) | (2 << 9) | 1);
        assert_eq!(vpn.level_index(1), 1);
        assert_eq!(vpn.level_index(2), 2);
        assert_eq!(vpn.level_index(3), 3);
        assert_eq!(vpn.level_index(4), 4);
        assert_eq!(vpn.level_index(5), 5);
    }

    #[test]
    fn prefixes_nest() {
        let vpn = Vpn(0x1_2345_6789);
        // Prefix at the leaf equals the IRMB base.
        assert_eq!(vpn.prefix_at(1), vpn.irmb_base());
        // Each higher level strips 9 more bits.
        assert_eq!(vpn.prefix_at(2), vpn.0 >> 18);
        assert_eq!(vpn.prefix_at(5), vpn.0 >> 45);
    }

    #[test]
    fn virtaddr_vpn_extraction() {
        let va = VirtAddr(0x1234_5678);
        assert_eq!(va.vpn(PageSize::Size4K), Vpn(0x12345));
        assert_eq!(va.page_offset(PageSize::Size4K), 0x678);
        assert_eq!(va.vpn(PageSize::Size2M), Vpn(0x91));
    }

    #[test]
    fn virtaddr_roundtrip() {
        let va = VirtAddr::from_parts(Vpn(0xabc), 0x123, PageSize::Size4K);
        assert_eq!(va.vpn(PageSize::Size4K), Vpn(0xabc));
        assert_eq!(va.page_offset(PageSize::Size4K), 0x123);
    }

    #[test]
    #[should_panic(expected = "offset beyond page")]
    fn oversized_offset_panics() {
        let _ = VirtAddr::from_parts(Vpn(1), 4096, PageSize::Size4K);
    }
}
