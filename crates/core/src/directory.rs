//! The in-PTE directory (§6.2).
//!
//! The host-side page table already holds the authoritative translation for
//! every page; the directory adds *which GPUs hold a local copy of that
//! translation* by repurposing the architecturally unused PTE bits 62–52 as
//! access bits. With more GPUs than bits, the modular hash
//! `h(gpu) = gpu % m + 52` folds several GPUs onto one bit — producing only
//! *false positives* (extra invalidations), never false negatives, which is
//! the directory's correctness obligation.

use mem_model::gpuset::GpuSet;
use mem_model::interconnect::GpuId;
use vm_model::pte::{Pte, UNUSED_HI_COUNT, UNUSED_HI_LO};

/// Configuration of the in-PTE directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirectoryConfig {
    /// Number of unused PTE bits used as access bits (`m` in the paper's
    /// hash). The default design uses all 11 high unused bits; §7.2
    /// evaluates a constrained variant with only 4.
    pub access_bits: u32,
    /// Number of GPUs in the system.
    pub n_gpus: usize,
}

impl DirectoryConfig {
    /// The paper's default: 11 access bits.
    pub fn new(n_gpus: usize) -> Self {
        DirectoryConfig {
            access_bits: UNUSED_HI_COUNT,
            n_gpus,
        }
    }

    /// The constrained variant of §7.2 with `bits` access bits.
    ///
    /// # Panics
    /// Panics if `bits` is zero or exceeds the 11 available unused bits.
    pub fn with_access_bits(n_gpus: usize, bits: u32) -> Self {
        assert!(
            (1..=UNUSED_HI_COUNT).contains(&bits),
            "1..=11 bits available"
        );
        DirectoryConfig {
            access_bits: bits,
            n_gpus,
        }
    }

    /// The paper's hash: `h(gpu) = gpu % m + 52`, returning an absolute PTE
    /// bit position.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "GPU ids are at most 64; the modulo wraps anyway"
    )]
    pub fn bit_of(&self, gpu: GpuId) -> u32 {
        (gpu as u32) % self.access_bits + UNUSED_HI_LO
    }
}

/// The in-PTE directory: stateless logic over host-side PTE access bits.
///
/// # Example
///
/// ```
/// use idyll_core::directory::{DirectoryConfig, InPteDirectory};
/// use vm_model::Pte;
///
/// let dir = InPteDirectory::new(DirectoryConfig::new(4));
/// let mut pte = Pte::new_mapped(1, true);
/// dir.record_access(&mut pte, 2);
/// let targets = dir.invalidation_targets(&pte);
/// assert!(targets.contains(2));
/// assert_eq!(targets.len(), 1);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct InPteDirectory {
    config: DirectoryConfig,
}

impl InPteDirectory {
    /// Creates the directory logic for `config`.
    pub fn new(config: DirectoryConfig) -> Self {
        InPteDirectory { config }
    }

    /// Configuration in force.
    pub fn config(&self) -> DirectoryConfig {
        self.config
    }

    /// Marks `gpu` as holding a valid mapping: called when the host
    /// resolves a far fault from `gpu` (the replayed translation will
    /// populate that GPU's local page table).
    pub fn record_access(&self, pte: &mut Pte, gpu: GpuId) {
        pte.set_unused_bit(self.config.bit_of(gpu), true);
    }

    /// Whether `gpu`'s (hashed) access bit is set. A `true` may be a false
    /// positive when several GPUs share the bit.
    pub fn may_hold(&self, pte: &Pte, gpu: GpuId) -> bool {
        pte.unused_bit(self.config.bit_of(gpu))
    }

    /// The set of GPUs that must receive an invalidation request for this
    /// PTE: every GPU whose hashed bit is set. This is a superset of the
    /// actual holders (hash aliasing ⇒ false positives only).
    pub fn invalidation_targets(&self, pte: &Pte) -> GpuSet {
        let mut set = GpuSet::empty();
        for gpu in 0..self.config.n_gpus {
            if self.may_hold(pte, gpu) {
                set.insert(gpu);
            }
        }
        set
    }

    /// Clears all access bits; called when the invalidations are sent, since
    /// every targeted remote mapping is about to be destroyed (§6.2 lookup
    /// procedure).
    pub fn clear(&self, pte: &mut Pte) {
        for bit in 0..self.config.access_bits {
            pte.set_unused_bit(UNUSED_HI_LO + bit, false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir4() -> InPteDirectory {
        InPteDirectory::new(DirectoryConfig::new(4))
    }

    #[test]
    fn hash_matches_paper_example() {
        // Paper §6.2: in the default 4-GPU system, unused bits 55–52 of the
        // PTE correspond to the access bits of GPU3–GPU0.
        let cfg = DirectoryConfig::new(4);
        assert_eq!(cfg.bit_of(0), 52);
        assert_eq!(cfg.bit_of(1), 53);
        assert_eq!(cfg.bit_of(2), 54);
        assert_eq!(cfg.bit_of(3), 55);
    }

    #[test]
    fn record_then_target_exact_without_aliasing() {
        let dir = dir4();
        let mut pte = Pte::new_mapped(1, true);
        assert!(dir.invalidation_targets(&pte).is_empty());
        dir.record_access(&mut pte, 1);
        dir.record_access(&mut pte, 3);
        let t = dir.invalidation_targets(&pte);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![1, 3]);
        assert!(dir.may_hold(&pte, 1));
        assert!(!dir.may_hold(&pte, 0));
    }

    #[test]
    fn clear_resets_all_bits() {
        let dir = dir4();
        let mut pte = Pte::new_mapped(1, true);
        dir.record_access(&mut pte, 0);
        dir.record_access(&mut pte, 2);
        assert!(!dir.invalidation_targets(&pte).is_empty());
        dir.clear(&mut pte);
        assert!(dir.invalidation_targets(&pte).is_empty());
        assert!(pte.is_valid(), "clear touches only access bits");
    }

    #[test]
    fn aliasing_produces_false_positives_never_negatives() {
        // 16 GPUs hashed onto 11 bits: GPUs 0 and 11 share bit 52.
        let dir = InPteDirectory::new(DirectoryConfig::new(16));
        let mut pte = Pte::new_mapped(1, true);
        dir.record_access(&mut pte, 11);
        let targets = dir.invalidation_targets(&pte);
        // The actual holder is always targeted (no false negatives)...
        assert!(targets.contains(11));
        // ...and its alias is a false positive.
        assert!(targets.contains(0));
        assert_eq!(targets.len(), 2);
    }

    #[test]
    fn four_bit_variant_aliases_within_four() {
        // §7.2: 4 unused bits. 8 GPUs → GPUs g and g+4 share a bit.
        let dir = InPteDirectory::new(DirectoryConfig::with_access_bits(8, 4));
        let mut pte = Pte::new_mapped(1, true);
        dir.record_access(&mut pte, 6);
        let targets = dir.invalidation_targets(&pte);
        assert_eq!(targets.iter().collect::<Vec<_>>(), vec![2, 6]);
    }

    #[test]
    fn all_gpus_recorded_targets_everyone() {
        let dir = InPteDirectory::new(DirectoryConfig::new(32));
        let mut pte = Pte::new_mapped(1, true);
        for g in 0..32 {
            dir.record_access(&mut pte, g);
        }
        assert_eq!(dir.invalidation_targets(&pte).len(), 32);
    }

    #[test]
    #[should_panic(expected = "1..=11 bits")]
    fn too_many_access_bits_panics() {
        let _ = DirectoryConfig::with_access_bits(4, 12);
    }
}
