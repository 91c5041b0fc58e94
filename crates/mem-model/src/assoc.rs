//! Generic set-associative array with true-LRU replacement.
//!
//! This is the structural workhorse shared by TLBs, data caches, the
//! page-walk cache and the VM-Cache: `sets × ways` slots, each holding a
//! `(tag, payload)` pair.
//!
//! Storage is flat: tags and payloads live in two contiguous arrays of
//! `sets × ways` slots, and a per-set occupancy says how many of a set's
//! slots are live. Live ways are packed to the left of their set in
//! recency order, least recently used first, so the order itself is the
//! LRU state and no per-way stamp is kept. Payloads are small `Copy`
//! values stored bare: a free slot keeps whatever its last occupant left,
//! and only the occupancy says it is free.

/// What happened on an insertion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inserted<V> {
    /// The key was already present; its payload was replaced (old payload
    /// returned) and its recency refreshed.
    Updated(V),
    /// A free way was used.
    Filled,
    /// The LRU way was evicted; its tag and payload are returned.
    Evicted { tag: u64, value: V },
}

/// A set-associative array with per-set true-LRU replacement.
///
/// Keys are full tags (the caller is responsible for any tag/index split
/// beyond set selection, which uses `key % sets`). The `*_in` methods take
/// the set explicitly instead, for callers that partition the sets
/// themselves (a bank of per-CU TLBs); a key addressed that way must always
/// be addressed to the same set.
///
/// Order semantics, which callers observing [`SetAssoc::iter`] or running a
/// side-effecting [`SetAssoc::invalidate_matching`] predicate rely on: each
/// set's live ways sit in recency order, least recently used first. A hit
/// ([`SetAssoc::get`], [`SetAssoc::get_mut`]) or an
/// [`Inserted::Updated`] insert moves its way to the most-recently-used
/// (MRU) end, a fill appends there, a fill into a full set evicts the first
/// way, and a removal closes the gap with the survivors kept in order.
/// [`SetAssoc::peek`] and [`SetAssoc::contains`] leave the order alone.
///
/// # Example
///
/// ```
/// use mem_model::assoc::SetAssoc;
/// let mut sa: SetAssoc<&str> = SetAssoc::new(1, 2);
/// sa.insert(10, "a");
/// sa.insert(20, "b");
/// sa.get(10); // refresh 10 → 20 becomes LRU
/// match sa.insert(30, "c") {
///     mem_model::assoc::Inserted::Evicted { tag, .. } => assert_eq!(tag, 20),
///     other => panic!("{other:?}"),
/// }
/// ```
#[derive(Debug, Clone)]
pub struct SetAssoc<V> {
    /// `tags[set * ways + i]` for `i < lens[set]` are the set's live tags,
    /// least recently used first.
    tags: Vec<u64>,
    /// Payloads, parallel to `tags`; meaningful only in live slots.
    values: Vec<V>,
    /// Live ways per set.
    lens: Vec<usize>,
    ways: usize,
    /// `sets - 1` when the set count is a power of two, letting set
    /// selection use a mask instead of a 64-bit modulo. Every production
    /// geometry (TLBs, PWC, L2, VM-Cache) is a power of two, and the mask
    /// selects the identical set the modulo would.
    set_mask: Option<u64>,
}

#[expect(
    clippy::indexing_slicing,
    reason = "slots come from `live(set)` and `find`, so they lie inside the table; a set index is masked by `set_of` or is a caller's documented `# Panics` contract"
)]
impl<V: Copy + Default> SetAssoc<V> {
    /// Creates an array of `sets × ways` slots.
    ///
    /// # Panics
    /// Panics if `sets == 0` or `ways == 0`.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0, "need at least one set");
        assert!(ways > 0, "need at least one way");
        let slots = sets * ways;
        SetAssoc {
            tags: vec![0; slots],
            values: vec![V::default(); slots],
            lens: vec![0; sets],
            ways,
            set_mask: sets.is_power_of_two().then(|| sets as u64 - 1),
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.lens.len()
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total capacity in entries.
    pub fn capacity(&self) -> usize {
        self.tags.len()
    }

    /// Bytes of the tag and payload arrays and the per-set occupancy, all
    /// fixed by the geometry.
    pub fn footprint_bytes(&self) -> usize {
        std::mem::size_of_val(self.tags.as_slice())
            + std::mem::size_of_val(self.values.as_slice())
            + std::mem::size_of_val(self.lens.as_slice())
    }

    /// Number of occupied entries.
    pub fn len(&self) -> usize {
        self.lens.iter().sum()
    }

    /// Whether no entries are present.
    pub fn is_empty(&self) -> bool {
        self.lens.iter().all(|&n| n == 0)
    }

    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "u64 → usize cannot truncate: sim_engine refuses to build for non-64-bit hosts"
    )]
    fn set_of(&self, key: u64) -> usize {
        match self.set_mask {
            Some(mask) => (key & mask) as usize,
            None => (key % self.lens.len() as u64) as usize,
        }
    }

    /// Slot range of `set`'s live ways (empty for an out-of-range set).
    #[inline]
    fn live(&self, set: usize) -> std::ops::Range<usize> {
        let start = set * self.ways;
        let len = self.lens.get(set).copied().unwrap_or(0);
        start..start + len
    }

    /// Slot index of `key` among `live`, scanning from the MRU end.
    #[inline]
    fn find(&self, live: std::ops::Range<usize>, key: u64) -> Option<usize> {
        let start = live.start;
        let pos = self.tags.get(live)?.iter().rposition(|&t| t == key)?;
        Some(start + pos)
    }

    /// Removes the way in `slot`, sliding the more recent ways of its set
    /// (those before `end`) down by one. Returns the removed way.
    #[inline]
    fn take_out(&mut self, slot: usize, end: usize) -> (u64, V) {
        let way = (self.tags[slot], self.values[slot]);
        self.tags.copy_within(slot + 1..end, slot);
        self.values.copy_within(slot + 1..end, slot);
        way
    }

    /// Moves the way in `slot` to the MRU end `end - 1` of its set, keeping
    /// the other ways in order. Returns the slot it now occupies.
    #[inline]
    fn promote(&mut self, slot: usize, end: usize) -> usize {
        let last = end - 1;
        if slot != last {
            let (tag, value) = self.take_out(slot, end);
            self.tags[last] = tag;
            self.values[last] = value;
        }
        last
    }

    /// Looks up `key`, refreshing its LRU position on a hit.
    pub fn get(&mut self, key: u64) -> Option<&V> {
        self.get_in(self.set_of(key), key)
    }

    /// [`SetAssoc::get`] in an explicitly chosen set.
    pub fn get_in(&mut self, set: usize, key: u64) -> Option<&V> {
        self.get_mut_in(set, key).map(|v| &*v)
    }

    /// Mutable lookup, refreshing LRU position on a hit.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        self.get_mut_in(self.set_of(key), key)
    }

    fn get_mut_in(&mut self, set: usize, key: u64) -> Option<&mut V> {
        let live = self.live(set);
        let end = live.end;
        let slot = self.find(live, key)?;
        let slot = self.promote(slot, end);
        Some(&mut self.values[slot])
    }

    /// Checks presence without disturbing recency (a "probe").
    pub fn contains(&self, key: u64) -> bool {
        self.contains_in(self.set_of(key), key)
    }

    /// [`SetAssoc::contains`] in an explicitly chosen set.
    pub fn contains_in(&self, set: usize, key: u64) -> bool {
        self.find(self.live(set), key).is_some()
    }

    /// Reads without disturbing recency.
    pub fn peek(&self, key: u64) -> Option<&V> {
        let slot = self.find(self.live(self.set_of(key)), key)?;
        Some(&self.values[slot])
    }

    /// Inserts `key → value`, evicting the per-set LRU entry if necessary.
    pub fn insert(&mut self, key: u64, value: V) -> Inserted<V> {
        self.insert_in(self.set_of(key), key, value)
    }

    /// [`SetAssoc::insert`] into an explicitly chosen set.
    ///
    /// # Panics
    /// Panics if `set >= self.sets()`.
    pub fn insert_in(&mut self, set: usize, key: u64, value: V) -> Inserted<V> {
        let live = self.live(set);
        if let Some(slot) = self.find(live.clone(), key) {
            let slot = self.promote(slot, live.end);
            return Inserted::Updated(std::mem::replace(&mut self.values[slot], value));
        }
        if live.len() < self.ways {
            self.tags[live.end] = key;
            self.values[live.end] = value;
            self.lens[set] += 1;
            return Inserted::Filled;
        }
        let (tag, old) = self.take_out(live.start, live.end);
        self.tags[live.end - 1] = key;
        self.values[live.end - 1] = value;
        Inserted::Evicted { tag, value: old }
    }

    /// Removes `key`, returning its payload.
    pub fn invalidate(&mut self, key: u64) -> Option<V> {
        self.invalidate_in(self.set_of(key), key)
    }

    /// [`SetAssoc::invalidate`] in an explicitly chosen set: the more
    /// recent ways close the gap.
    pub fn invalidate_in(&mut self, set: usize, key: u64) -> Option<V> {
        let live = self.live(set);
        let end = live.end;
        let slot = self.find(live, key)?;
        let (_, value) = self.take_out(slot, end);
        self.lens[set] -= 1;
        Some(value)
    }

    /// Removes the entries of `set` matching `pred`, keeping the survivors
    /// in order. Returns the count removed.
    fn retain_set<F: FnMut(u64, &V) -> bool>(&mut self, set: usize, pred: &mut F) -> usize {
        let live = self.live(set);
        let (start, before) = (live.start, live.len());
        let mut kept = start;
        for slot in live {
            if !pred(self.tags[slot], &self.values[slot]) {
                if kept != slot {
                    self.tags[kept] = self.tags[slot];
                    self.values[kept] = self.values[slot];
                }
                kept += 1;
            }
        }
        let after = kept - start;
        if let Some(len) = self.lens.get_mut(set) {
            *len = after;
        }
        before - after
    }

    /// Removes every entry matching `pred`, returning the count removed.
    /// Sets are visited in order and each set's ways least recently used
    /// first.
    pub fn invalidate_matching<F: FnMut(u64, &V) -> bool>(&mut self, mut pred: F) -> usize {
        (0..self.sets())
            .map(|set| self.retain_set(set, &mut pred))
            .sum()
    }

    /// Removes every entry whose tag lies in `first..=last`, returning the
    /// count removed. When the range is narrower than the set count its
    /// tags map to distinct sets and each set holds a tag at most once, so
    /// each key is removed on its own; a wider range scans every set.
    /// Either way the result equals `invalidate_matching` over the same
    /// range.
    pub fn invalidate_range(&mut self, first: u64, last: u64) -> usize {
        if last.saturating_sub(first) >= self.sets() as u64 - 1 {
            return self.invalidate_matching(|tag, _| tag >= first && tag <= last);
        }
        (first..=last)
            .filter(|&key| self.invalidate(key).is_some())
            .count()
    }

    /// Removes all entries.
    pub fn flush(&mut self) -> usize {
        let n = self.len();
        self.lens.iter_mut().for_each(|len| *len = 0);
        n
    }

    /// Iterates over `(tag, &value)` pairs: sets in order, each set's ways
    /// least recently used first.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        (0..self.sets()).flat_map(move |set| {
            self.live(set)
                .map(move |slot| (self.tags[slot], &self.values[slot]))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_get() {
        let mut sa: SetAssoc<u32> = SetAssoc::new(4, 2);
        assert_eq!(sa.insert(5, 50), Inserted::Filled);
        assert_eq!(sa.get(5), Some(&50));
        assert_eq!(sa.get(6), None);
        assert_eq!(sa.len(), 1);
        assert_eq!(sa.capacity(), 8);
    }

    #[test]
    fn update_returns_old_value() {
        let mut sa: SetAssoc<u32> = SetAssoc::new(1, 2);
        sa.insert(1, 10);
        assert_eq!(sa.insert(1, 11), Inserted::Updated(10));
        assert_eq!(sa.get(1), Some(&11));
        assert_eq!(sa.len(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut sa: SetAssoc<&str> = SetAssoc::new(1, 3);
        sa.insert(1, "a");
        sa.insert(2, "b");
        sa.insert(3, "c");
        // Touch 1 and 2; 3 becomes LRU.
        sa.get(1);
        sa.get(2);
        match sa.insert(4, "d") {
            Inserted::Evicted { tag, value } => {
                assert_eq!(tag, 3);
                assert_eq!(value, "c");
            }
            other => panic!("expected eviction, got {other:?}"),
        }
    }

    #[test]
    fn peek_and_contains_do_not_refresh() {
        let mut sa: SetAssoc<u8> = SetAssoc::new(1, 2);
        sa.insert(1, 0);
        sa.insert(2, 0);
        // Peek at 1: must NOT refresh, so 1 is still LRU.
        assert!(sa.contains(1));
        assert_eq!(sa.peek(1), Some(&0));
        match sa.insert(3, 0) {
            Inserted::Evicted { tag, .. } => assert_eq!(tag, 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn keys_map_to_distinct_sets() {
        let mut sa: SetAssoc<u8> = SetAssoc::new(2, 1);
        sa.insert(0, 0); // set 0
        sa.insert(1, 1); // set 1
        assert_eq!(sa.len(), 2);
        // Key 2 maps to set 0 and evicts key 0 only.
        match sa.insert(2, 2) {
            Inserted::Evicted { tag, .. } => assert_eq!(tag, 0),
            other => panic!("{other:?}"),
        }
        assert!(sa.contains(1));
    }

    #[test]
    fn invalidate_removes() {
        let mut sa: SetAssoc<u8> = SetAssoc::new(4, 4);
        sa.insert(7, 70);
        assert_eq!(sa.invalidate(7), Some(70));
        assert_eq!(sa.invalidate(7), None);
        assert!(sa.is_empty());
    }

    #[test]
    fn invalidate_matching_and_flush() {
        let mut sa: SetAssoc<u8> = SetAssoc::new(4, 4);
        for k in 0..12 {
            sa.insert(k, (k % 3) as u8);
        }
        let removed = sa.invalidate_matching(|_, &v| v == 0);
        assert_eq!(removed, 4);
        assert_eq!(sa.len(), 8);
        assert_eq!(sa.flush(), 8);
        assert!(sa.is_empty());
    }

    /// `(tag, payload)` pairs in iteration order.
    fn ways_of(sa: &SetAssoc<u32>) -> Vec<(u64, u32)> {
        sa.iter().map(|(t, &v)| (t, v)).collect()
    }

    #[test]
    fn a_hit_moves_to_the_mru_end() {
        let mut sa: SetAssoc<u32> = SetAssoc::new(1, 4);
        for k in 1..=4u32 {
            sa.insert(u64::from(k), k * 10);
        }
        assert_eq!(sa.get(2), Some(&20));
        assert_eq!(ways_of(&sa), vec![(1, 10), (3, 30), (4, 40), (2, 20)]);
        *sa.get_mut(1).unwrap() += 1;
        assert_eq!(ways_of(&sa), vec![(3, 30), (4, 40), (2, 20), (1, 11)]);
        assert_eq!(sa.insert(4, 41), Inserted::Updated(40));
        assert_eq!(ways_of(&sa), vec![(3, 30), (2, 20), (1, 11), (4, 41)]);
        // A hit on the MRU way, a probe and a miss leave the order alone.
        sa.get(4);
        assert!(sa.contains(3));
        assert_eq!(sa.peek(3), Some(&30));
        assert_eq!(sa.get(9), None);
        assert_eq!(ways_of(&sa), vec![(3, 30), (2, 20), (1, 11), (4, 41)]);
    }

    #[test]
    fn a_full_set_evicts_its_first_way() {
        let mut sa: SetAssoc<u32> = SetAssoc::new(1, 3);
        for k in 1..=3u32 {
            assert_eq!(sa.insert(u64::from(k), k), Inserted::Filled);
        }
        sa.get(1);
        assert_eq!(ways_of(&sa), vec![(2, 2), (3, 3), (1, 1)]);
        assert_eq!(
            sa.insert(4, 4),
            Inserted::Evicted { tag: 2, value: 2 },
            "the first way is the LRU one"
        );
        assert_eq!(ways_of(&sa), vec![(3, 3), (1, 1), (4, 4)]);
        assert_eq!(sa.insert(5, 5), Inserted::Evicted { tag: 3, value: 3 });
        assert_eq!(ways_of(&sa), vec![(1, 1), (4, 4), (5, 5)]);
    }

    #[test]
    fn invalidate_and_a_page_drop_keep_the_survivors_in_order() {
        let mut sa: SetAssoc<u32> = SetAssoc::new(1, 5);
        for k in 1..=5u32 {
            sa.insert(u64::from(k), k);
        }
        sa.get(2);
        assert_eq!(sa.invalidate(3), Some(3));
        assert_eq!(ways_of(&sa), vec![(1, 1), (4, 4), (5, 5), (2, 2)]);
        assert_eq!(sa.invalidate(2), Some(2), "the MRU way can go too");
        assert_eq!(ways_of(&sa), vec![(1, 1), (4, 4), (5, 5)]);

        // Four sets of three ways: a range narrower than the set count
        // takes the per-key path, a wider one scans every set.
        let mut sa: SetAssoc<u32> = SetAssoc::new(4, 3);
        for k in 0..12u32 {
            sa.insert(u64::from(k), k);
        }
        sa.get(0);
        sa.get(1);
        let tags = |sa: &SetAssoc<u32>| sa.iter().map(|(t, _)| t).collect::<Vec<_>>();
        assert_eq!(sa.invalidate_range(4, 6), 3);
        assert_eq!(tags(&sa), vec![8, 0, 9, 1, 2, 10, 3, 7, 11]);
        assert_eq!(sa.invalidate_range(9, 20), 3);
        assert_eq!(tags(&sa), vec![8, 0, 1, 2, 3, 7]);
        // An `Evicted` insert still takes each set's first way.
        assert_eq!(sa.insert(4, 4), Inserted::Filled);
        assert_eq!(sa.insert(16, 16), Inserted::Evicted { tag: 8, value: 8 });
    }

    #[test]
    fn a_freed_slot_never_returns_its_old_payload() {
        // Payloads are stored bare, so a freed slot keeps its last value;
        // only the occupancy may say which slots are live.
        let mut sa: SetAssoc<u32> = SetAssoc::new(1, 3);
        sa.insert(1, 10);
        sa.insert(2, 20);
        sa.insert(3, 30);
        // Invalidated: 2 and 3 slide down, and the tail slot keeps a stale
        // copy of 3.
        assert_eq!(sa.invalidate(1), Some(10));
        assert_eq!(sa.get(1), None);
        assert_eq!(sa.peek(1), None);
        assert_eq!(sa.peek(3), Some(&30));
        assert_eq!(ways_of(&sa), vec![(2, 20), (3, 30)]);
        // Evicted: 2 is the first way, and 4 goes to the MRU end.
        sa.insert(5, 50);
        assert!(matches!(
            sa.insert(4, 40),
            Inserted::Evicted { tag: 2, value: 20 }
        ));
        assert_eq!(sa.get(2), None);
        assert_eq!(sa.peek(2), None);
        // Removed by predicate: the survivors close up and the tail slot
        // keeps a stale copy that must stay invisible.
        assert_eq!(sa.invalidate_matching(|tag, _| tag == 3), 1);
        assert_eq!(sa.peek(3), None);
        assert_eq!(ways_of(&sa), vec![(5, 50), (4, 40)]);
        // A hit rotates the live ways only: the stale tail stays out.
        sa.get(5);
        assert_eq!(ways_of(&sa), vec![(4, 40), (5, 50)]);
        assert_eq!(sa.peek(3), None);
        // Flushed: nothing is visible, and refills see only their own
        // payloads.
        assert_eq!(sa.flush(), 2);
        assert_eq!(sa.get(4), None);
        assert_eq!(sa.peek(5), None);
        assert_eq!(sa.iter().count(), 0);
        assert_eq!(sa.insert(6, 60), Inserted::Filled);
        assert_eq!(ways_of(&sa), vec![(6, 60)]);
        assert_eq!(sa.invalidate(4), None);
        assert_eq!(sa.invalidate_range(3, 5), 0);
    }

    #[test]
    #[expect(clippy::cast_possible_truncation, reason = "keys stay below 10")]
    fn iter_visits_all() {
        let mut sa: SetAssoc<u8> = SetAssoc::new(8, 2);
        for k in 0..10 {
            sa.insert(k, k as u8);
        }
        let mut tags: Vec<u64> = sa.iter().map(|(t, _)| t).collect();
        tags.sort_unstable();
        assert_eq!(tags, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn masked_set_selection_matches_modulo() {
        // Power-of-two set counts take the mask path; the selected set must
        // be the one `key % sets` picks, including for keys far above the
        // set count and at u64::MAX.
        for sets in [1usize, 2, 8, 32, 256] {
            let mut sa: SetAssoc<u64> = SetAssoc::new(sets, 1);
            for key in [0, 1, sets as u64 - 1, sets as u64, 12345, u64::MAX] {
                sa.insert(key, key);
                assert_eq!(sa.get(key).copied(), Some(key), "sets={sets} key={key}");
            }
        }
    }

    #[test]
    fn non_power_of_two_sets_still_work() {
        let mut sa: SetAssoc<u64> = SetAssoc::new(3, 2);
        for key in 0..12u64 {
            sa.insert(key, key * 10);
        }
        // 3 sets × 2 ways: only the 2 most recent keys of each modulo-3
        // class survive.
        assert_eq!(sa.len(), 6);
        for key in 6..12u64 {
            assert_eq!(sa.get(key).copied(), Some(key * 10));
        }
    }
}
