//! Property-based tests of the memory-side substrates.

#![allow(
    clippy::disallowed_types,
    clippy::cast_possible_truncation,
    clippy::expect_used,
    clippy::indexing_slicing,
    reason = "std maps are reference-model oracles, casts narrow small generated values and helpers index and unwrap them; nothing here feeds simulation state"
)]

use std::collections::{HashMap, HashSet};

use mem_model::assoc::{Inserted, SetAssoc};
use mem_model::gpuset::GpuSet;
use mem_model::mshr::{Mshr, MshrOutcome};
use proptest::prelude::*;

/// A nested `Vec<Vec<Way>>` set-associative array with an LRU stamp per
/// way: the exact-LRU oracle the stamp-free [`SetAssoc`] must agree with
/// op by op. Every returned value comes from the stamps (the victim is the
/// way with the smallest stamp). `SetAssoc` keeps each set in recency order
/// instead, so "order" here is stamp order: `entries()` and
/// `invalidate_matching` visit each set least recently used first.
struct RefSetAssoc {
    sets: Vec<Vec<(u64, u32, u64)>>,
    ways: usize,
    clock: u64,
}

impl RefSetAssoc {
    fn new(sets: usize, ways: usize) -> Self {
        RefSetAssoc {
            sets: (0..sets).map(|_| Vec::with_capacity(ways)).collect(),
            ways,
            clock: 0,
        }
    }

    fn set(&mut self, key: u64) -> &mut Vec<(u64, u32, u64)> {
        let n = self.sets.len() as u64;
        &mut self.sets[(key % n) as usize]
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn get(&mut self, key: u64) -> Option<u32> {
        let stamp = self.tick();
        let way = self.set(key).iter_mut().find(|w| w.0 == key)?;
        way.2 = stamp;
        Some(way.1)
    }

    fn peek(&mut self, key: u64) -> Option<u32> {
        self.set(key).iter().find(|w| w.0 == key).map(|w| w.1)
    }

    fn insert(&mut self, key: u64, value: u32) -> Inserted<u32> {
        let stamp = self.tick();
        let ways = self.ways;
        let slot = self.set(key);
        if let Some(way) = slot.iter_mut().find(|w| w.0 == key) {
            way.2 = stamp;
            return Inserted::Updated(std::mem::replace(&mut way.1, value));
        }
        if slot.len() < ways {
            slot.push((key, value, stamp));
            return Inserted::Filled;
        }
        let lru = (0..slot.len())
            .min_by_key(|&i| slot[i].2)
            .expect("full set");
        let (tag, value, _) = std::mem::replace(&mut slot[lru], (key, value, stamp));
        Inserted::Evicted { tag, value }
    }

    fn invalidate(&mut self, key: u64) -> Option<u32> {
        let slot = self.set(key);
        let idx = slot.iter().position(|w| w.0 == key)?;
        Some(slot.swap_remove(idx).1)
    }

    fn invalidate_matching(&mut self, mut pred: impl FnMut(u64, &u32) -> bool) -> usize {
        let mut removed = 0;
        for slot in &mut self.sets {
            let before = slot.len();
            slot.sort_unstable_by_key(|w| w.2);
            slot.retain(|w| !pred(w.0, &w.1));
            removed += before - slot.len();
        }
        removed
    }

    /// Every `(tag, payload)`: sets in order, each in stamp order.
    fn entries(&self) -> Vec<(u64, u32)> {
        self.sets
            .iter()
            .flat_map(|s| {
                let mut ways = s.clone();
                ways.sort_unstable_by_key(|w| w.2);
                ways.into_iter().map(|w| (w.0, w.1))
            })
            .collect()
    }
}

proptest! {
    #[test]
    fn set_assoc_agrees_with_map_model(
        sets in 1usize..8,
        ways in 1usize..8,
        ops in prop::collection::vec((0u64..64, 0u32..1000), 1..300),
    ) {
        let mut sa: SetAssoc<u32> = SetAssoc::new(sets, ways);
        let mut model: HashMap<u64, u32> = HashMap::new();
        for (key, value) in ops {
            match sa.insert(key, value) {
                Inserted::Updated(old) => {
                    prop_assert_eq!(model.insert(key, value), Some(old));
                }
                Inserted::Filled => {
                    prop_assert_eq!(model.insert(key, value), None);
                }
                Inserted::Evicted { tag, value: evicted } => {
                    prop_assert_eq!(model.remove(&tag), Some(evicted));
                    prop_assert_eq!(model.insert(key, value), None);
                    // Victims share the set with the newcomer.
                    prop_assert_eq!(tag % sets as u64, key % sets as u64);
                }
            }
            prop_assert!(sa.len() <= sets * ways);
            prop_assert_eq!(sa.len(), model.len());
        }
        for (key, value) in &model {
            prop_assert_eq!(sa.peek(*key), Some(value));
        }
    }

    #[test]
    fn set_assoc_matches_the_nested_reference_op_by_op(
        sets in 1usize..12,
        ways in 1usize..6,
        ops in prop::collection::vec((0u8..8, 0u64..64, 0u32..1000), 1..400),
    ) {
        let mut sa: SetAssoc<u32> = SetAssoc::new(sets, ways);
        let mut reference = RefSetAssoc::new(sets, ways);
        for (op, key, value) in ops {
            match op {
                0 | 1 => prop_assert_eq!(sa.insert(key, value), reference.insert(key, value)),
                2 => prop_assert_eq!(sa.get(key).copied(), reference.get(key)),
                3 => {
                    let flat = sa.get_mut(key).map(|v| {
                        *v += 1;
                        *v
                    });
                    let nested = reference.get(key).map(|_| {
                        let way = reference.set(key).iter_mut().find(|w| w.0 == key).expect("hit");
                        way.1 += 1;
                        way.1
                    });
                    prop_assert_eq!(flat, nested);
                }
                4 => {
                    prop_assert_eq!(sa.peek(key).copied(), reference.peek(key));
                    prop_assert_eq!(sa.contains(key), reference.peek(key).is_some());
                }
                5 => prop_assert_eq!(sa.invalidate(key), reference.invalidate(key)),
                6 => {
                    // A side-effecting predicate: the visit order must agree.
                    let (mut seen_flat, mut seen_ref) = (Vec::new(), Vec::new());
                    let flat = sa.invalidate_matching(|t, &v| {
                        seen_flat.push(t);
                        (t + u64::from(v)) % 3 == key % 3
                    });
                    let nested = reference.invalidate_matching(|t, &v| {
                        seen_ref.push(t);
                        (t + u64::from(v)) % 3 == key % 3
                    });
                    prop_assert_eq!(flat, nested);
                    prop_assert_eq!(seen_flat, seen_ref);
                }
                _ => {
                    // Page-range drops, both narrower and wider than the
                    // set count.
                    let last = key + u64::from(value % 24);
                    let flat = sa.invalidate_range(key, last);
                    let nested = reference.invalidate_matching(|t, _| t >= key && t <= last);
                    prop_assert_eq!(flat, nested);
                }
            }
            prop_assert_eq!(
                sa.iter().map(|(t, &v)| (t, v)).collect::<Vec<_>>(),
                reference.entries()
            );
            prop_assert_eq!(sa.len(), reference.entries().len());
        }
    }

    #[test]
    fn mshr_conserves_waiters(
        capacity in 1usize..8,
        ops in prop::collection::vec((0u64..16, prop::bool::ANY), 1..200),
    ) {
        let mut mshr: Mshr<u64> = Mshr::new(capacity);
        let mut model: HashMap<u64, Vec<u64>> = HashMap::new();
        let mut next_token = 0u64;
        for (key, complete) in ops {
            if complete {
                prop_assert_eq!(mshr.complete(key), model.remove(&key).unwrap_or_default());
            } else {
                let token = next_token;
                next_token += 1;
                match mshr.register(key, token) {
                    MshrOutcome::Allocated => {
                        prop_assert!(!model.contains_key(&key));
                        prop_assert!(model.len() < capacity);
                        model.insert(key, vec![token]);
                    }
                    MshrOutcome::Merged => {
                        model.get_mut(&key).expect("merge implies entry").push(token);
                    }
                    MshrOutcome::Full => {
                        prop_assert_eq!(model.len(), capacity);
                        prop_assert!(!model.contains_key(&key));
                    }
                }
            }
            prop_assert_eq!(mshr.len(), model.len());
        }
    }

    #[test]
    fn gpuset_behaves_like_hash_set(
        ops in prop::collection::vec((0usize..64, prop::bool::ANY), 1..200),
    ) {
        let mut set = GpuSet::empty();
        let mut model: HashSet<usize> = HashSet::new();
        for (g, insert) in ops {
            if insert {
                set.insert(g);
                model.insert(g);
            } else {
                prop_assert_eq!(set.remove(g), model.remove(&g));
            }
            prop_assert_eq!(set.len(), model.len());
            prop_assert_eq!(set.is_empty(), model.is_empty());
        }
        let mut members: Vec<usize> = model.into_iter().collect();
        members.sort_unstable();
        prop_assert_eq!(set.iter().collect::<Vec<_>>(), members);
    }

    #[test]
    fn gpuset_algebra_laws(a in 0u64..u64::MAX, b in 0u64..u64::MAX) {
        let sa = GpuSet::from_mask(a);
        let sb = GpuSet::from_mask(b);
        prop_assert_eq!(sa.union(sb).mask(), a | b);
        prop_assert_eq!(sa.intersect(sb).mask(), a & b);
        prop_assert_eq!(sa.difference(sb).mask(), a & !b);
        prop_assert_eq!(sa.union(sb).len(), sb.union(sa).len());
        prop_assert!(sa.intersect(sb).len() <= sa.len().min(sb.len()));
    }
}
