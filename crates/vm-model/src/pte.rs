//! The x86-64 page-table-entry format of Figure 8, including the unused
//! bits 62–52 that the in-PTE directory repurposes as GPU access bits.
//!
//! ```text
//!  63  62       52  51              12  11 9  8 7 6 5 4   3   2   1   0
//! +---+------------+-------------------+-----+-+-+-+-+---+---+---+---+---+
//! |XD |  UB (11b)  |  4 KB page frame  | UB  |G|P|D|A|PCD|PWT|U/S|R/W| V |
//! +---+------------+-------------------+-----+-+-+-+-+---+---+---+---+---+
//! ```

/// A raw 64-bit page-table entry.
///
/// The type exposes exactly the fields the simulator needs: validity, write
/// permission, the physical page number and raw access to the unused bits
/// 62–52 (the in-PTE directory's storage).
///
/// # Example
///
/// ```
/// use vm_model::pte::Pte;
/// let mut pte = Pte::new_mapped(0x42, true);
/// assert!(pte.is_valid());
/// assert_eq!(pte.ppn(), 0x42);
/// pte.set_unused_bit(52, true);
/// assert!(pte.unused_bit(52));
/// pte.invalidate();
/// assert!(!pte.is_valid());
/// assert_eq!(pte.ppn(), 0x42, "frame bits survive invalidation");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Pte(pub u64);

const BIT_VALID: u64 = 1 << 0;
const BIT_RW: u64 = 1 << 1;
const PPN_SHIFT: u32 = 12;
const PPN_MASK: u64 = ((1u64 << 40) - 1) << PPN_SHIFT; // bits 51..=12

/// Inclusive range of the high unused bits (Figure 8): 62..=52.
pub const UNUSED_HI_LO: u32 = 52;
/// Top of the high unused-bit range.
pub const UNUSED_HI_HI: u32 = 62;
/// Number of high unused bits available for access bits.
pub const UNUSED_HI_COUNT: u32 = UNUSED_HI_HI - UNUSED_HI_LO + 1; // 11

impl Pte {
    /// An all-zero (not-present) entry.
    pub const NOT_PRESENT: Pte = Pte(0);

    /// Creates a valid entry mapping to physical page `ppn`.
    ///
    /// # Panics
    /// Panics if `ppn` does not fit in the 40-bit frame field.
    pub fn new_mapped(ppn: u64, writable: bool) -> Pte {
        assert!(ppn < (1 << 40), "ppn out of range");
        let mut raw = BIT_VALID | (ppn << PPN_SHIFT);
        if writable {
            raw |= BIT_RW;
        }
        Pte(raw)
    }

    /// Whether the valid (present) bit is set.
    #[inline]
    pub fn is_valid(self) -> bool {
        self.0 & BIT_VALID != 0
    }

    /// Whether the entry permits writes.
    #[inline]
    pub fn is_writable(self) -> bool {
        self.0 & BIT_RW != 0
    }

    /// The physical page number in bits 51–12.
    #[inline]
    pub fn ppn(self) -> u64 {
        (self.0 & PPN_MASK) >> PPN_SHIFT
    }

    /// Replaces the physical page number, preserving every other bit.
    pub fn set_ppn(&mut self, ppn: u64) {
        assert!(ppn < (1 << 40), "ppn out of range");
        self.0 = (self.0 & !PPN_MASK) | (ppn << PPN_SHIFT);
    }

    /// Clears the valid bit (translation-coherence invalidation). All other
    /// bits — including the directory's access bits — are preserved.
    #[inline]
    pub fn invalidate(&mut self) {
        self.0 &= !BIT_VALID;
    }

    /// Sets the valid bit.
    #[inline]
    pub fn validate(&mut self) {
        self.0 |= BIT_VALID;
    }

    /// Reads one of the architecturally unused bits (62–52 or 11–9).
    ///
    /// # Panics
    /// Panics if `bit` is not an unused bit position.
    #[inline]
    pub fn unused_bit(self, bit: u32) -> bool {
        assert!(is_unused_bit(bit), "bit {bit} is architecturally used");
        self.0 & (1u64 << bit) != 0
    }

    /// Writes one of the architecturally unused bits.
    ///
    /// # Panics
    /// Panics if `bit` is not an unused bit position.
    #[inline]
    pub fn set_unused_bit(&mut self, bit: u32, value: bool) {
        assert!(is_unused_bit(bit), "bit {bit} is architecturally used");
        if value {
            self.0 |= 1u64 << bit;
        } else {
            self.0 &= !(1u64 << bit);
        }
    }

    /// Reads the whole high unused-bit field (bits 62–52) as an 11-bit mask,
    /// bit *i* of the result being PTE bit `52 + i`.
    #[inline]
    pub fn unused_hi_field(self) -> u16 {
        ((self.0 >> UNUSED_HI_LO) & ((1 << UNUSED_HI_COUNT) - 1)) as u16
    }

    /// Overwrites the whole high unused-bit field.
    ///
    /// # Panics
    /// Panics if `field` exceeds 11 bits.
    #[inline]
    pub fn set_unused_hi_field(&mut self, field: u16) {
        assert!(field < (1 << UNUSED_HI_COUNT), "field wider than 11 bits");
        let mask = ((1u64 << UNUSED_HI_COUNT) - 1) << UNUSED_HI_LO;
        self.0 = (self.0 & !mask) | ((field as u64) << UNUSED_HI_LO);
    }
}

/// Whether `bit` is one of the unused PTE bits per Figure 8 (62–52, 11–9).
pub const fn is_unused_bit(bit: u32) -> bool {
    (bit >= UNUSED_HI_LO && bit <= UNUSED_HI_HI) || (bit >= 9 && bit <= 11)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_mapped_sets_fields() {
        let pte = Pte::new_mapped(0xdead, true);
        assert!(pte.is_valid());
        assert!(pte.is_writable());
        assert_eq!(pte.ppn(), 0xdead);
        let ro = Pte::new_mapped(1, false);
        assert!(!ro.is_writable());
    }

    #[test]
    fn invalidate_preserves_frame_and_directory_bits() {
        let mut pte = Pte::new_mapped(0x1234, true);
        pte.set_unused_bit(53, true);
        pte.invalidate();
        assert!(!pte.is_valid());
        assert_eq!(pte.ppn(), 0x1234);
        assert!(pte.unused_bit(53));
        pte.validate();
        assert!(pte.is_valid());
    }

    #[test]
    fn set_ppn_preserves_flags() {
        let mut pte = Pte::new_mapped(1, true);
        pte.set_ppn(0xff);
        assert_eq!(pte.ppn(), 0xff);
        assert!(pte.is_valid());
        assert!(pte.is_writable());
    }

    #[test]
    fn unused_bits_are_independent() {
        let mut pte = Pte::NOT_PRESENT;
        for bit in (52..=62).chain(9..=11) {
            pte.set_unused_bit(bit, true);
            assert!(pte.unused_bit(bit));
            pte.set_unused_bit(bit, false);
            assert!(!pte.unused_bit(bit));
            assert_eq!(pte.0, 0, "bit {bit} leaked");
        }
    }

    #[test]
    fn unused_hi_field_roundtrip() {
        let mut pte = Pte::new_mapped(0x1, true);
        pte.set_unused_hi_field(0b101_0101_0101);
        assert_eq!(pte.unused_hi_field(), 0b101_0101_0101);
        assert_eq!(pte.ppn(), 0x1, "frame untouched");
        pte.set_unused_hi_field(0);
        assert_eq!(pte.unused_hi_field(), 0);
    }

    #[test]
    fn unused_hi_field_does_not_clobber_xd_or_frame() {
        let mut pte = Pte(1u64 << 63 /* XD */ | (0xff << PPN_SHIFT) | BIT_VALID);
        pte.set_unused_hi_field(0x7ff);
        assert_eq!(pte.0 >> 63, 1, "XD bit intact");
        assert_eq!(pte.ppn(), 0xff);
    }

    #[test]
    fn is_unused_bit_boundaries() {
        assert!(is_unused_bit(52));
        assert!(is_unused_bit(62));
        assert!(!is_unused_bit(63)); // XD
        assert!(!is_unused_bit(51)); // frame
        assert!(is_unused_bit(9));
        assert!(is_unused_bit(11));
        assert!(!is_unused_bit(8)); // G
        assert!(!is_unused_bit(12)); // frame
    }

    #[test]
    #[should_panic(expected = "architecturally used")]
    fn touching_used_bit_panics() {
        let mut pte = Pte::NOT_PRESENT;
        pte.set_unused_bit(0, true);
    }

    #[test]
    #[should_panic(expected = "ppn out of range")]
    fn oversized_ppn_panics() {
        let _ = Pte::new_mapped(1 << 40, false);
    }
}
