//! Property-based tests of the IRMB against a reference set model
//! (DESIGN.md invariant 3: conservation — every inserted invalidation is
//! pending, superseded by a mapping, or emitted through an eviction batch).

#![allow(
    clippy::disallowed_types,
    reason = "std maps are reference-model oracles here; no simulation state or export reads their order"
)]

use std::collections::HashSet;

use idyll_core::irmb::{InsertOutcome, Irmb, IrmbConfig};
use proptest::prelude::*;
use vm_model::addr::Vpn;

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u16),
    Remove(u64, u16),
    Lookup(u64, u16),
    PopLru,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..12, 0u16..24).prop_map(|(b, o)| Op::Insert(b, o)),
            (0u64..12, 0u16..24).prop_map(|(b, o)| Op::Remove(b, o)),
            (0u64..12, 0u16..24).prop_map(|(b, o)| Op::Lookup(b, o)),
            Just(Op::PopLru),
        ],
        1..200,
    )
}

fn geometries() -> impl Strategy<Value = IrmbConfig> {
    prop::sample::select(vec![
        IrmbConfig::new(2, 2),
        IrmbConfig::new(4, 4),
        IrmbConfig::new(32, 16),
        IrmbConfig::new(1, 1),
    ])
}

proptest! {
    #[test]
    fn irmb_tracks_a_set_with_conservation(cfg in geometries(), ops in ops()) {
        let mut irmb = Irmb::new(cfg);
        // Reference model: the set of pending VPNs. Evictions remove their
        // VPNs from the model (they are "written back").
        let mut model: HashSet<Vpn> = HashSet::new();
        let mut written_back: Vec<Vpn> = Vec::new();
        for op in ops {
            match op {
                Op::Insert(b, o) => {
                    let vpn = Vpn::from_irmb(b, o);
                    match irmb.insert(vpn) {
                        InsertOutcome::Merged | InsertOutcome::NewEntry => {
                            prop_assert!(model.insert(vpn));
                        }
                        InsertOutcome::AlreadyPresent => {
                            prop_assert!(model.contains(&vpn));
                        }
                        InsertOutcome::EvictedLru(entry) => {
                            for v in entry.vpns() {
                                prop_assert!(model.remove(&v), "evicted unknown {v}");
                                written_back.push(v);
                            }
                            prop_assert!(model.insert(vpn));
                        }
                        InsertOutcome::EvictedOffsets(entry) => {
                            for v in entry.vpns() {
                                prop_assert!(model.remove(&v), "evicted unknown {v}");
                                written_back.push(v);
                            }
                            prop_assert!(model.insert(vpn));
                        }
                    }
                }
                Op::Remove(b, o) => {
                    let vpn = Vpn::from_irmb(b, o);
                    let removed = irmb.remove(vpn);
                    prop_assert_eq!(removed, model.remove(&vpn));
                }
                Op::Lookup(b, o) => {
                    let vpn = Vpn::from_irmb(b, o);
                    prop_assert_eq!(irmb.lookup(vpn), model.contains(&vpn));
                }
                Op::PopLru => {
                    if let Some(entry) = irmb.pop_lru() {
                        for v in entry.vpns() {
                            prop_assert!(model.remove(&v), "popped unknown {v}");
                            written_back.push(v);
                        }
                    } else {
                        prop_assert!(model.is_empty());
                    }
                }
            }
            // Structural invariants hold after every operation.
            prop_assert_eq!(irmb.pending(), model.len());
            prop_assert!(irmb.occupied_bases() <= cfg.bases);
        }
        // Final drain returns exactly the model's remaining contents.
        let drained: HashSet<Vpn> = irmb.drain().iter().flat_map(|e| e.vpns()).collect();
        prop_assert_eq!(drained, model);
    }

    #[test]
    fn irmb_base_offset_roundtrip(b in 0u64..(1 << 36), o in 0u16..512) {
        let vpn = Vpn::from_irmb(b, o);
        prop_assert_eq!(vpn.irmb_base(), b);
        prop_assert_eq!(vpn.irmb_offset(), o);
    }

    #[test]
    fn offsets_per_entry_never_exceed_geometry(inserts in prop::collection::vec((0u64..4, 0u16..64), 1..200)) {
        let cfg = IrmbConfig::new(4, 8);
        let mut irmb = Irmb::new(cfg);
        for (b, o) in inserts {
            irmb.insert(Vpn::from_irmb(b, o));
            prop_assert!(irmb.pending() <= cfg.bases * cfg.offsets_per_base);
        }
    }
}
