//! Miss-status holding registers.
//!
//! An MSHR merges concurrent misses to the same block: the first miss
//! allocates an entry and proceeds down the hierarchy; later misses to the
//! same key attach themselves as waiters and are woken together when the fill
//! returns. The paper relies on this behaviour for correctness of the IRMB
//! bypass (§6.3): "before a new mapping is received, there won't be any
//! subsequent requests to the same page being sent to GMMU ... because the
//! original request resides in the L2 TLB MSHR".

use sim_engine::collections::DetHashMap;

/// Outcome of registering a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// First miss for this key: the caller must issue the downstream request.
    Allocated,
    /// An entry for this key already exists: the request was queued behind it
    /// and the caller must NOT issue another downstream request.
    Merged,
    /// No free entries: structural stall; the caller must retry once an
    /// entry is released. The MSHR does not count stalls: only the caller
    /// can tell a new stall from a retry that stalls again.
    Full,
}

/// A table of miss-status holding registers keyed by `u64` (page number or
/// line address) holding opaque waiter tokens `W`.
///
/// Waiter lists are recycled: hand the list [`Mshr::complete`] returns back
/// through [`Mshr::recycle`] and the next allocated entry reuses its
/// buffer, so a steady state allocates nothing.
///
/// # Example
///
/// ```
/// use mem_model::mshr::{Mshr, MshrOutcome};
/// let mut mshr: Mshr<u32> = Mshr::new(16);
/// assert_eq!(mshr.register(0x42, 1), MshrOutcome::Allocated);
/// assert_eq!(mshr.register(0x42, 2), MshrOutcome::Merged);
/// let waiters = mshr.complete(0x42);
/// assert_eq!(waiters, vec![1, 2]);
/// mshr.recycle(waiters);
/// ```
#[derive(Debug, Clone)]
pub struct Mshr<W> {
    /// Key → (waiters, allocated by [`Mshr::register_forced`]).
    entries: DetHashMap<u64, (Vec<W>, bool)>,
    /// Entries allocated by [`Mshr::register_forced`]; they do not count
    /// toward `capacity`.
    forced: usize,
    /// Emptied waiter lists handed back by [`Mshr::recycle`].
    spare: Vec<Vec<W>>,
    capacity: usize,
    merges: u64,
    peak: usize,
}

impl<W> Mshr<W> {
    /// Creates a table with `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR needs at least one entry");
        Mshr {
            entries: DetHashMap::default(),
            forced: 0,
            spare: Vec::new(),
            capacity,
            merges: 0,
            peak: 0,
        }
    }

    /// Registers a miss on `key` with waiter `w`.
    pub fn register(&mut self, key: u64, w: W) -> MshrOutcome {
        if self.is_full() && !self.entries.contains_key(&key) {
            return MshrOutcome::Full;
        }
        self.insert(key, w, false)
    }

    /// Registers a miss on `key` ignoring the capacity limit. Used by fault
    /// paths that must never stall (a stalled fault can deadlock a
    /// migration): a forced entry never counts toward capacity, so it
    /// neither needs a free entry nor takes one from [`Mshr::register`].
    pub fn register_forced(&mut self, key: u64, w: W) -> MshrOutcome {
        self.insert(key, w, true)
    }

    fn insert(&mut self, key: u64, w: W, forced: bool) -> MshrOutcome {
        if let Some((waiters, _)) = self.entries.get_mut(&key) {
            waiters.push(w);
            self.merges += 1;
            return MshrOutcome::Merged;
        }
        let mut waiters = self.spare.pop().unwrap_or_default();
        waiters.push(w);
        self.entries.insert(key, (waiters, forced));
        self.forced += usize::from(forced);
        self.peak = self.peak.max(self.entries.len());
        MshrOutcome::Allocated
    }

    /// Completes the miss on `key`, returning all waiters in registration
    /// order (empty if no entry existed).
    pub fn complete(&mut self, key: u64) -> Vec<W> {
        match self.entries.remove(&key) {
            Some((waiters, forced)) => {
                self.forced -= usize::from(forced);
                waiters
            }
            None => Vec::new(),
        }
    }

    /// Hands back a waiter list returned by [`Mshr::complete`] so a later
    /// entry reuses its buffer.
    pub fn recycle(&mut self, mut waiters: Vec<W>) {
        waiters.clear();
        self.spare.push(waiters);
    }

    /// Whether an entry for `key` is outstanding.
    pub fn contains(&self, key: u64) -> bool {
        self.entries.contains_key(&key)
    }

    /// Outstanding entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no misses are outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether every non-forced entry is allocated, so
    /// [`Mshr::register`] stalls a new key.
    pub fn is_full(&self) -> bool {
        self.entries.len() - self.forced >= self.capacity
    }

    /// Total merged (secondary) misses.
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Highest simultaneous occupancy.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Bytes of the entry table at its peak occupancy, one key and
    /// waiter-list header per entry (waiter elements not counted).
    pub fn footprint_bytes(&self) -> usize {
        self.peak * std::mem::size_of::<(u64, (Vec<W>, bool))>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_merge_complete() {
        let mut m: Mshr<&str> = Mshr::new(4);
        assert_eq!(m.register(1, "a"), MshrOutcome::Allocated);
        assert_eq!(m.register(1, "b"), MshrOutcome::Merged);
        assert_eq!(m.register(2, "c"), MshrOutcome::Allocated);
        assert!(m.contains(1));
        assert_eq!(m.complete(1), vec!["a", "b"]);
        assert!(!m.contains(1));
        assert_eq!(m.complete(1), Vec::<&str>::new());
        assert_eq!(m.merges(), 1);
    }

    #[test]
    fn full_stalls_new_keys_but_merges_existing() {
        let mut m: Mshr<u8> = Mshr::new(1);
        assert_eq!(m.register(1, 0), MshrOutcome::Allocated);
        assert!(m.is_full());
        assert_eq!(m.register(2, 0), MshrOutcome::Full);
        // Same key still merges even when the table is full.
        assert_eq!(m.register(1, 1), MshrOutcome::Merged);
    }

    #[test]
    fn forced_entries_do_not_lift_the_capacity_limit() {
        let mut m: Mshr<u8> = Mshr::new(2);
        assert_eq!(m.register(1, 0), MshrOutcome::Allocated);
        assert_eq!(m.register_forced(2, 0), MshrOutcome::Allocated);
        assert_eq!(m.register_forced(3, 0), MshrOutcome::Allocated);
        assert!(!m.is_full(), "forced entries take no capacity");
        assert_eq!(m.register(4, 0), MshrOutcome::Allocated);
        assert_eq!(m.len(), 4);
        assert!(m.is_full());
        assert_eq!(m.register(5, 0), MshrOutcome::Full);
        // Releasing a forced entry frees no MSHR slot; releasing a
        // regular one does.
        m.complete(2);
        assert_eq!(m.register(5, 0), MshrOutcome::Full);
        m.complete(1);
        assert_eq!(m.register(5, 0), MshrOutcome::Allocated);
    }

    #[test]
    fn recycled_waiter_lists_come_back_empty() {
        let mut m: Mshr<u8> = Mshr::new(2);
        m.register(1, 10);
        m.register(1, 11);
        let waiters = m.complete(1);
        assert_eq!(waiters, vec![10, 11]);
        m.recycle(waiters);
        m.register(2, 20);
        assert_eq!(
            m.complete(2),
            vec![20],
            "no waiter of key 1 leaks into key 2"
        );
    }

    #[test]
    fn peak_tracks_maximum() {
        let mut m: Mshr<u8> = Mshr::new(8);
        m.register(1, 0);
        m.register(2, 0);
        m.register(3, 0);
        m.complete(2);
        m.complete(3);
        assert_eq!(m.len(), 1);
        assert_eq!(m.peak(), 3);
    }
}
