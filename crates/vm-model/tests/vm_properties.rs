//! Property-based tests of the VM substrates against reference models.

#![allow(
    clippy::disallowed_types,
    reason = "std maps are reference-model oracles here; no simulation state or export reads their order"
)]

use std::collections::HashMap;

use proptest::prelude::*;
use vm_model::addr::{PageSize, Vpn};
use vm_model::page_table::PageTable;
use vm_model::pte::Pte;
use vm_model::pwc::PageWalkCache;
use vm_model::tlb::{Tlb, TlbBank, TlbConfig};
use vm_model::walker::{walk_translate, WalkOutcome, WalkerConfig};

#[derive(Debug, Clone)]
enum PtOp {
    Insert(u64, u64),
    Invalidate(u64),
    Remove(u64),
}

fn pt_ops() -> impl Strategy<Value = Vec<PtOp>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..64, 1u64..1000).prop_map(|(v, p)| PtOp::Insert(v, p)),
            (0u64..64).prop_map(PtOp::Invalidate),
            (0u64..64).prop_map(PtOp::Remove),
        ],
        1..200,
    )
}

proptest! {
    #[test]
    fn page_table_matches_map_model(ops in pt_ops()) {
        let mut pt = PageTable::new(PageSize::Size4K);
        let mut model: HashMap<u64, (u64, bool)> = HashMap::new();
        for op in ops {
            match op {
                PtOp::Insert(v, p) => {
                    pt.insert(Vpn(v), Pte::new_mapped(p, true));
                    model.insert(v, (p, true));
                }
                PtOp::Invalidate(v) => {
                    let was_valid = model.get(&v).map(|&(_, valid)| valid).unwrap_or(false);
                    prop_assert_eq!(pt.invalidate(Vpn(v)), was_valid);
                    if let Some(entry) = model.get_mut(&v) {
                        entry.1 = false;
                    }
                }
                PtOp::Remove(v) => {
                    prop_assert_eq!(pt.remove(Vpn(v)).is_some(), model.remove(&v).is_some());
                }
            }
            prop_assert_eq!(pt.len(), model.len());
        }
        for (v, (p, valid)) in model {
            let pte = pt.lookup(Vpn(v)).expect("model says present");
            prop_assert_eq!(pte.ppn(), p);
            prop_assert_eq!(pte.is_valid(), valid);
        }
    }

    #[test]
    fn walker_agrees_with_page_table_state(
        mapped in prop::collection::hash_map(0u64..128, 1u64..1000, 0..40),
        invalidated in prop::collection::hash_set(0u64..128, 0..20),
        probes in prop::collection::vec(0u64..128, 1..40),
    ) {
        let mut pt = PageTable::new(PageSize::Size4K);
        let mut pwc = PageWalkCache::new(128, 5);
        for (&v, &p) in &mapped {
            pt.insert(Vpn(v), Pte::new_mapped(p, true));
        }
        for &v in &invalidated {
            pt.invalidate(Vpn(v));
        }
        for v in probes {
            let r = walk_translate(&pt, &mut pwc, Vpn(v), WalkerConfig::default());
            match (mapped.get(&v), invalidated.contains(&v)) {
                (Some(&p), false) => {
                    match r.outcome {
                        WalkOutcome::Mapped(pte) => prop_assert_eq!(pte.ppn(), p),
                        other => prop_assert!(false, "expected mapped, got {other:?}"),
                    }
                }
                (Some(_), true) => {
                    prop_assert!(matches!(r.outcome, WalkOutcome::InvalidLeaf(_)));
                }
                (None, _) => {
                    prop_assert!(matches!(r.outcome, WalkOutcome::NotPresent));
                }
            }
            prop_assert!(r.mem_accesses >= 1 && r.mem_accesses <= 5);
            prop_assert_eq!(u64::from(r.mem_accesses) * 100, r.latency.raw());
        }
    }

    #[test]
    fn tlb_never_exceeds_capacity_and_serves_recent_fills(
        fills in prop::collection::vec((0u64..256, 1u64..1000), 1..200),
    ) {
        let mut tlb = Tlb::new(TlbConfig { entries: 16, ways: 4, latency: sim_engine::Cycle(1) });
        for &(v, p) in &fills {
            tlb.fill(Vpn(v), Pte::new_mapped(p, true));
            prop_assert!(tlb.occupancy() <= 16);
            // A just-filled entry is always resident with the latest payload.
            let got = tlb.lookup(Vpn(v)).expect("just filled");
            prop_assert_eq!(got.ppn(), p);
        }
    }

    #[test]
    fn tlb_bank_agrees_with_one_tlb_per_cu(
        cus in 1usize..5,
        geometry in prop::sample::select(vec![(4usize, 4usize), (4, 2), (6, 2), (8, 1)]),
        ops in prop::collection::vec((0u8..4, 0usize..5, 0u64..24), 1..300),
    ) {
        let (entries, ways) = geometry;
        let config = TlbConfig { entries, ways, latency: sim_engine::Cycle(1) };
        let mut bank = TlbBank::new(cus, config);
        let mut reference: Vec<Tlb> = (0..cus).map(|_| Tlb::new(config)).collect();
        for (op, cu, v) in ops {
            let cu = cu % cus;
            let vpn = Vpn(v);
            match op {
                0 | 1 => {
                    let pte = Pte::new_mapped(v + 1, true);
                    prop_assert_eq!(bank.fill(cu, vpn, pte), reference[cu].fill(vpn, pte));
                }
                2 => prop_assert_eq!(bank.lookup(cu, vpn), reference[cu].lookup(vpn)),
                _ => {
                    let dropped = reference.iter_mut().map(|t| t.shootdown(vpn)).filter(|&hit| hit).count();
                    prop_assert_eq!(bank.shootdown(vpn), dropped);
                }
            }
            for (c, tlb) in reference.iter().enumerate() {
                prop_assert_eq!(bank.contains(c, vpn), tlb.contains(vpn));
            }
        }
        prop_assert_eq!(bank.hits(), reference.iter().map(|t| t.hits()).sum::<u64>());
        prop_assert_eq!(bank.misses(), reference.iter().map(|t| t.misses()).sum::<u64>());
        prop_assert_eq!(
            bank.occupancy(),
            reference.iter().map(|t| t.occupancy()).sum::<usize>()
        );
    }

    #[test]
    fn tlb_shootdown_is_complete(
        fills in prop::collection::hash_set(0u64..64, 1..32),
    ) {
        let mut tlb = Tlb::new(TlbConfig::baseline_l2());
        for &v in &fills {
            tlb.fill(Vpn(v), Pte::new_mapped(v + 1, true));
        }
        for &v in &fills {
            tlb.shootdown(Vpn(v));
            prop_assert!(!tlb.contains(Vpn(v)));
        }
        prop_assert_eq!(tlb.occupancy(), 0);
    }

    #[test]
    fn pwc_hits_only_after_fills_on_same_path(
        vpns in prop::collection::vec(0u64..(1 << 20), 1..60),
    ) {
        let mut pwc = PageWalkCache::new(128, 5);
        let mut filled: Vec<u64> = Vec::new();
        for v in vpns {
            if let Some(level) = pwc.deepest_cached(Vpn(v)) {
                // A hit must be explained by some earlier fill sharing the
                // prefix at that level.
                let prefix = Vpn(v).prefix_at(level - 1);
                prop_assert!(
                    filled.iter().any(|&f| Vpn(f).prefix_at(level - 1) == prefix),
                    "unexplained PWC hit at level {level} for {v:#x}"
                );
            }
            pwc.fill_path(Vpn(v), 5);
            filled.push(v);
            // After filling, the own path always hits at the deepest level.
            prop_assert_eq!(pwc.deepest_cached(Vpn(v)), Some(2));
        }
    }
}
