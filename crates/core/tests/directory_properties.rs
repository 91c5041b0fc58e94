//! Property-based tests of the directory mechanisms (DESIGN.md invariant 2:
//! false positives allowed, false negatives never).

#![allow(
    clippy::disallowed_types,
    reason = "std maps are reference-model oracles here; no simulation state or export reads their order"
)]

use idyll_core::directory::{DirectoryConfig, InPteDirectory};
use idyll_core::vm_table::VmDirectory;
use proptest::prelude::*;
use vm_model::addr::Vpn;
use vm_model::pte::Pte;

proptest! {
    #[test]
    fn in_pte_directory_never_false_negative(
        n_gpus in 1usize..33,
        bits in 1u32..12,
        holders in prop::collection::hash_set(0usize..32, 0..10),
    ) {
        let holders: Vec<usize> = holders.into_iter().filter(|&g| g < n_gpus).collect();
        let dir = InPteDirectory::new(DirectoryConfig::with_access_bits(n_gpus, bits));
        let mut pte = Pte::new_mapped(1, true);
        for &g in &holders {
            dir.record_access(&mut pte, g);
        }
        let targets = dir.invalidation_targets(&pte);
        for &g in &holders {
            prop_assert!(targets.contains(g), "holder {g} missed: {targets}");
        }
        // Superset bound: never more targets than GPUs.
        prop_assert!(targets.len() <= n_gpus);
        // Clearing empties the set.
        dir.clear(&mut pte);
        prop_assert!(dir.invalidation_targets(&pte).is_empty());
        // Clearing never disturbs the mapping itself.
        prop_assert!(pte.is_valid());
        prop_assert_eq!(pte.ppn(), 1);
    }

    #[test]
    fn in_pte_directory_is_exact_without_aliasing(
        holders in prop::collection::hash_set(0usize..11, 0..11),
    ) {
        // With n_gpus <= access bits the hash is injective: no false
        // positives at all.
        let dir = InPteDirectory::new(DirectoryConfig::new(11));
        let mut pte = Pte::new_mapped(1, true);
        for &g in &holders {
            dir.record_access(&mut pte, g);
        }
        let targets: std::collections::HashSet<usize> =
            dir.invalidation_targets(&pte).iter().collect();
        prop_assert_eq!(targets, holders);
    }

    #[test]
    fn vm_directory_never_false_negative(
        n_gpus in 1usize..33,
        pages in prop::collection::vec((0u64..50, 0usize..32), 1..120),
    ) {
        let mut dir = VmDirectory::new(n_gpus);
        let mut model: std::collections::HashMap<u64, Vec<usize>> =
            std::collections::HashMap::new();
        for (page, gpu) in pages {
            let gpu = gpu % n_gpus;
            dir.record_access(Vpn(page), gpu);
            model.entry(page).or_default().push(gpu);
        }
        for (page, holders) in model {
            let initiator = holders[0];
            let (targets, _) = dir.invalidation_targets(Vpn(page), initiator);
            for g in holders {
                prop_assert!(targets.contains(g), "holder {g} of page {page} missed");
            }
        }
    }

    #[test]
    fn vm_directory_survives_cache_thrashing(
        pages in prop::collection::vec(0u64..5000, 1..300),
    ) {
        // Far more pages than the 64-entry VM-Cache: bits must survive the
        // spill to the VM-Table and back.
        let mut dir = VmDirectory::new(4);
        for &p in &pages {
            dir.record_access(Vpn(p), (p % 4) as usize);
        }
        for &p in &pages {
            let holder = (p % 4) as usize;
            let (targets, _) = dir.invalidation_targets(Vpn(p), holder);
            prop_assert!(targets.contains(holder), "page {p} lost its holder bit");
        }
    }
}
