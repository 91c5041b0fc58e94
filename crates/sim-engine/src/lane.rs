//! Per-lane future-event lists for the parallel event core.
//!
//! A [`LaneQueue`] is the lane-local analogue of [`crate::EventQueue`]: it
//! delivers events in nondecreasing time order with FIFO tie-breaking, but
//! it is a timing wheel rather than a heap. A ring of `WHEEL` (1024)
//! one-cycle buckets covers `[base, base + WHEEL)`; each bucket is a FIFO
//! list threaded through the payload arena, and an occupancy bitmap finds
//! the next busy cycle, so a pop is a bitmap scan and a list unlink. Events
//! scheduled at or beyond `base + WHEEL` wait in a `far` heap; events
//! scheduled before `base` (the within-lane time regressions DESIGN.md §8
//! allows) go to an `early` heap. Two invariants keep the delivery order
//! equal to a `(cycle, seq)` heap's:
//!
//! - `base` advances only in a pop, and each advance moves every `far`
//!   event now inside the ring into its bucket, in heap order, before any
//!   later schedule, so every bucket holds its events in `seq` order;
//! - every `early` event is earlier than every ring or `far` event.
//!
//! Allocation churn stays off the hot path: [`LaneQueue::with_capacity`]
//! pre-sizes the arena from a workload-footprint hint,
//! [`LaneQueue::recycle`] empties a queue while keeping its buffers, and a
//! [`LanePool`] carries recycled queues across repeated grid runs so
//! steady-state scheduling never re-grows from zero.
//!
//! The deterministic merge rule for the parallel core is captured by
//! [`MergeKey`]: events across lanes are totally ordered by
//! `(cycle, lane id, per-lane seq)`, which equals the order a single global
//! heap keyed by `(cycle, global seq)` would deliver whenever same-cycle
//! events on different lanes commute (the lookahead contract in DESIGN.md
//! guarantees they do).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Cycle;

/// Buckets in the ring, one cycle each. Sized from the schedule distance
/// past the last pop on PR/32 baseline at `small` (DESIGN.md §8): 97 % of
/// schedules land within it, and the rest mostly lie ≥ 16 k cycles out,
/// where no affordable ring would reach.
const WHEEL: usize = 1024;
/// [`WHEEL`] as a cycle distance.
const SPAN: u64 = WHEEL as u64;
/// Maps a cycle to its bucket.
const MASK: u64 = SPAN - 1;
/// Words in the occupancy bitmap.
const WORDS: usize = WHEEL / 64;
/// End of a bucket list or of the arena free list.
const NIL: u32 = u32::MAX;

/// A `far`/`early` heap entry: ordering key plus the arena slot holding
/// the payload.
struct Slot {
    at: Cycle,
    seq: u64,
    idx: u32,
}

impl PartialEq for Slot {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Slot {}
impl PartialOrd for Slot {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Slot {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first,
        // breaking ties by the lowest sequence number (FIFO).
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// An arena slot: the payload (`None` while free) and the link to the next
/// slot of its bucket, or of the free list.
struct Entry<E> {
    payload: Option<E>,
    next: u32,
}

/// The bucket ring. Bucket `b`'s `head`/`tail` mean something only while
/// bit `b` of `occupied` is set.
struct Ring {
    head: [u32; WHEEL],
    tail: [u32; WHEEL],
    occupied: [u64; WORDS],
}

/// Where the next event waits.
#[derive(Clone, Copy)]
enum Source {
    /// At the top of `early`.
    Early,
    /// In the ring, or at the top of `far` with the ring empty (taking it
    /// advances `base`, which migrates it into the ring first).
    Ring,
}

/// The bucket of cycle `t`.
#[inline]
fn bucket(t: u64) -> usize {
    (t & MASK) as usize
}

/// The deterministic cross-lane merge rule: `(cycle, lane id, per-lane
/// seq)`, lexicographically ascending. The derived `Ord` is a total order;
/// the determinism proptest checks it reproduces the seed global-heap
/// delivery order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct MergeKey {
    /// Simulated delivery time.
    pub at: Cycle,
    /// Lane identifier (GPU index, with the host lane last).
    pub lane: u32,
    /// Per-lane FIFO sequence number.
    pub seq: u64,
}

/// A lane-local future-event list with arena payload storage.
///
/// Same delivery contract as [`crate::EventQueue`] — nondecreasing time,
/// FIFO within a cycle — plus capacity reuse:
///
/// ```
/// use sim_engine::lane::LaneQueue;
/// use sim_engine::Cycle;
///
/// let mut q = LaneQueue::with_capacity(8);
/// q.schedule(Cycle(4), 'b');
/// q.schedule(Cycle(4), 'c'); // same cycle: FIFO order preserved
/// q.schedule(Cycle(1), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
pub struct LaneQueue<E> {
    ring: Box<Ring>,
    /// First cycle the ring covers; advances only in pops.
    base: u64,
    /// Events in the ring.
    in_ring: usize,
    far: BinaryHeap<Slot>,
    early: BinaryHeap<Slot>,
    arena: Vec<Entry<E>>,
    /// Head of the free-slot list threaded through [`Entry::next`].
    free: u32,
    /// Sequence number of the next schedule, which is also the number of
    /// events scheduled so far.
    next_seq: u64,
}

impl<E> Default for LaneQueue<E> {
    fn default() -> Self {
        LaneQueue::new()
    }
}

#[expect(
    clippy::indexing_slicing,
    reason = "ring indices are masked buckets (< WHEEL) and their words (< WORDS)"
)]
impl<E> LaneQueue<E> {
    /// Creates an empty queue with no pre-sized buffers.
    #[must_use]
    pub fn new() -> Self {
        LaneQueue::with_capacity(0)
    }

    /// Creates an empty queue whose arena is pre-sized for `capacity`
    /// in-flight events (a workload-footprint hint, not a limit).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        LaneQueue {
            ring: Box::new(Ring {
                head: [0; WHEEL],
                tail: [0; WHEEL],
                occupied: [0; WORDS],
            }),
            base: 0,
            in_ring: 0,
            far: BinaryHeap::new(),
            early: BinaryHeap::new(),
            arena: Vec::with_capacity(capacity),
            free: NIL,
            next_seq: 0,
        }
    }

    /// Grows the arena so at least `additional` more events fit without
    /// reallocation.
    pub fn reserve(&mut self, additional: usize) {
        self.arena.reserve(additional);
    }

    /// Pending-slot capacity currently backing the queue (diagnostic;
    /// capacity-reuse tests watch this stay put across [`Self::recycle`]).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.arena.capacity()
    }

    /// Schedules `payload` for delivery at absolute time `at`.
    pub fn schedule(&mut self, at: Cycle, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let idx = self.alloc(payload);
        let t = at.raw();
        if t < self.base {
            self.early.push(Slot { at, seq, idx });
        } else if t - self.base >= SPAN {
            self.far.push(Slot { at, seq, idx });
        } else {
            self.append(t, idx);
        }
    }

    /// Removes and returns the earliest event, or `None` when the lane is
    /// drained.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        let (at, src) = self.locate()?;
        Some(self.take(at, src))
    }

    /// Removes and returns the earliest event if it is due before
    /// `horizon`: [`Self::peek_time`] and [`Self::pop`] in one scan.
    pub fn pop_before(&mut self, horizon: Cycle) -> Option<(Cycle, E)> {
        let (at, src) = self.locate().filter(|&(at, _)| at < horizon)?;
        Some(self.take(at, src))
    }

    /// Timestamp of the next event without removing it.
    #[must_use]
    pub fn peek_time(&self) -> Option<Cycle> {
        self.locate().map(|(at, _)| at)
    }

    /// Bytes of the bucket ring plus one arena slot per event ever in
    /// flight at once since the queue was built or recycled (the arena's
    /// high-water mark, not its reserved capacity).
    #[must_use]
    pub fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Ring>() + std::mem::size_of_val(self.arena.as_slice())
    }

    /// Number of events currently pending.
    #[must_use]
    pub fn len(&self) -> usize {
        self.in_ring + self.far.len() + self.early.len()
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled on this lane (diagnostic).
    #[must_use]
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Empties the queue and resets its counters while keeping every
    /// allocated buffer, ready for the next run.
    pub fn recycle(&mut self) {
        self.ring.occupied = [0; WORDS];
        self.base = 0;
        self.in_ring = 0;
        self.far.clear();
        self.early.clear();
        self.arena.clear();
        self.free = NIL;
        self.next_seq = 0;
    }

    /// Stores `payload` in a free arena slot and returns its index.
    #[expect(
        clippy::expect_used,
        reason = "capacity backstop: 4G in-flight events per lane means the sim already diverged; there is no recovery to encode"
    )]
    fn alloc(&mut self, payload: E) -> u32 {
        // An empty free list is `NIL`, which indexes past the arena.
        if let Some(e) = self.arena.get_mut(self.free as usize) {
            let idx = self.free;
            self.free = e.next;
            e.payload = Some(payload);
            return idx;
        }
        let idx = u32::try_from(self.arena.len())
            .ok()
            .filter(|&i| i != NIL)
            .expect("lane arena exceeds u32::MAX in-flight events");
        self.arena.push(Entry {
            payload: Some(payload),
            next: NIL,
        });
        idx
    }

    /// Appends slot `idx` to the bucket of cycle `t`, which lies in
    /// `[base, base + WHEEL)`.
    fn append(&mut self, t: u64, idx: u32) {
        let b = bucket(t);
        let (word, bit) = (b / 64, 1u64 << (b % 64));
        let ring = &mut *self.ring;
        if ring.occupied[word] & bit == 0 {
            ring.occupied[word] |= bit;
            ring.head[b] = idx;
        } else if let Some(e) = self.arena.get_mut(ring.tail[b] as usize) {
            e.next = idx;
        }
        ring.tail[b] = idx;
        self.in_ring += 1;
    }

    /// The next event's time and where it waits.
    fn locate(&self) -> Option<(Cycle, Source)> {
        if let Some(s) = self.early.peek() {
            return Some((s.at, Source::Early));
        }
        if self.in_ring > 0 {
            if let Some(off) = self.first_busy() {
                return Some((Cycle(self.base + off), Source::Ring));
            }
        }
        self.far.peek().map(|s| (s.at, Source::Ring))
    }

    /// Distance from `base` to the first occupied bucket, scanning the
    /// bitmap from `base`'s bucket once around the ring.
    fn first_busy(&self) -> Option<u64> {
        let start = bucket(self.base);
        let (w0, shift) = (start / 64, start % 64);
        for k in 0..=WORDS {
            let w = (w0 + k) % WORDS;
            let mut bits = self.ring.occupied[w];
            if k == 0 {
                bits &= !0u64 << shift;
            } else if k == WORDS {
                bits &= !(!0u64 << shift);
            }
            if bits != 0 {
                let b = (w * 64) as u64 + u64::from(bits.trailing_zeros());
                return Some(b.wrapping_sub(start as u64) & MASK);
            }
        }
        None
    }

    /// Removes the event [`Self::locate`] found at `at` in `src`.
    #[expect(
        clippy::expect_used,
        reason = "slot pairing invariant: a slot index is queued exactly once between schedule and pop"
    )]
    fn take(&mut self, at: Cycle, src: Source) -> (Cycle, E) {
        let idx = match src {
            Source::Early => self.early.pop().map_or(NIL, |s| s.idx),
            Source::Ring => {
                if at.raw() > self.base {
                    self.base = at.raw();
                    self.migrate();
                }
                self.unlink(bucket(at.raw()))
            }
        };
        let free = self.free;
        let payload = self
            .arena
            .get_mut(idx as usize)
            .and_then(|e| {
                e.next = free;
                e.payload.take()
            })
            .expect("lane arena slot vacated while still queued");
        self.free = idx;
        (at, payload)
    }

    /// Moves every `far` event now inside the ring into its bucket, in heap
    /// order, so each bucket stays in `seq` order.
    fn migrate(&mut self) {
        while let Some(s) = self.far.peek() {
            if s.at.raw() - self.base >= SPAN {
                break;
            }
            let (t, idx) = (s.at.raw(), s.idx);
            self.far.pop();
            self.append(t, idx);
        }
    }

    /// Unlinks and returns the head slot of occupied bucket `b`.
    fn unlink(&mut self, b: usize) -> u32 {
        let (word, bit) = (b / 64, 1u64 << (b % 64));
        let ring = &mut *self.ring;
        let idx = ring.head[b];
        if idx == ring.tail[b] {
            ring.occupied[word] &= !bit;
        } else if let Some(e) = self.arena.get(idx as usize) {
            ring.head[b] = e.next;
        }
        self.in_ring -= 1;
        idx
    }
}

impl<E> std::fmt::Debug for LaneQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LaneQueue")
            .field("pending", &self.len())
            .field("capacity", &self.arena.capacity())
            .field("scheduled_total", &self.next_seq)
            .finish()
    }
}

/// A pool of recycled [`LaneQueue`]s shared across repeated runs, so grid
/// sweeps stop re-growing queues from zero (one pool per runner worker).
pub struct LanePool<E> {
    spare: Vec<LaneQueue<E>>,
}

impl<E> Default for LanePool<E> {
    fn default() -> Self {
        LanePool::new()
    }
}

impl<E> LanePool<E> {
    /// An empty pool.
    #[must_use]
    pub fn new() -> Self {
        LanePool { spare: Vec::new() }
    }

    /// Takes a recycled queue (largest-capacity first) or builds a fresh one
    /// pre-sized to `capacity_hint`.
    pub fn take(&mut self, capacity_hint: usize) -> LaneQueue<E> {
        match self.spare.pop() {
            Some(mut q) => {
                q.recycle();
                if q.capacity() < capacity_hint {
                    q.reserve(capacity_hint - q.len());
                }
                q
            }
            None => LaneQueue::with_capacity(capacity_hint),
        }
    }

    /// Returns a queue to the pool for the next run.
    pub fn put(&mut self, q: LaneQueue<E>) {
        self.spare.push(q);
    }

    /// Number of queues currently pooled.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spare.len()
    }

    /// Whether the pool holds no queues.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spare.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventQueue;
    use crate::rng::DetRng;

    #[test]
    fn delivers_in_time_order() {
        let mut q = LaneQueue::new();
        q.schedule(Cycle(30), 3);
        q.schedule(Cycle(10), 1);
        q.schedule(Cycle(20), 2);
        assert_eq!(q.pop(), Some((Cycle(10), 1)));
        assert_eq!(q.pop(), Some((Cycle(20), 2)));
        assert_eq!(q.pop(), Some((Cycle(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_cycle_is_fifo() {
        let mut q = LaneQueue::new();
        for i in 0..100 {
            q.schedule(Cycle(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Cycle(5), i)));
        }
    }

    #[test]
    fn interleaved_schedule_and_pop_keeps_order() {
        let mut q = LaneQueue::new();
        q.schedule(Cycle(10), "a");
        q.schedule(Cycle(10), "b");
        assert_eq!(q.pop(), Some((Cycle(10), "a")));
        q.schedule(Cycle(10), "c");
        assert_eq!(q.pop(), Some((Cycle(10), "b")));
        assert_eq!(q.pop(), Some((Cycle(10), "c")));
    }

    /// A schedule time relative to the last popped time `now`: mostly
    /// near, sometimes at or just past the ring's edge, ≥ 16 k cycles out,
    /// or before `now` (a time regression).
    fn draw_time(rng: &mut DetRng, now: u64) -> Cycle {
        let span = WHEEL as u64;
        Cycle(match rng.below(10) {
            0..=2 => now + rng.below(64),
            3..=4 => now + rng.below(span),
            5 => now + span - 4 + rng.below(8),
            6 => now + span + rng.below(64),
            7 => now + 16_384 + rng.below(65_536),
            _ => now.saturating_sub(1 + rng.below(200)),
        })
    }

    #[test]
    fn matches_event_queue_on_random_interleavings() {
        // Differential check against the seed global heap: identical
        // interleavings of schedule, pop, pop_before and pooled recycling
        // must deliver identical streams, with identical `peek_time` and
        // `len` after every operation.
        for seed in 0..200 {
            let mut rng = DetRng::seed(seed);
            let mut pool = LanePool::new();
            let mut a = EventQueue::new();
            let mut b = pool.take(16);
            let mut now = 0u64;
            let mut tag = 0u64;
            for _ in 0..2_000 {
                let popped = match rng.below(40) {
                    0..=11 => {
                        let want = a.pop();
                        assert_eq!(b.pop(), want, "seed {seed}");
                        want
                    }
                    12..=17 => {
                        // Just below, exactly at, or just above the next
                        // event; sometimes well past it.
                        let horizon = match (a.peek_time(), rng.below(4)) {
                            (Some(t), 0..=2) => {
                                Cycle(t.raw() + rng.below(3)).saturating_sub(Cycle(1))
                            }
                            _ => Cycle(now + rng.below(2_048)),
                        };
                        let want = match a.peek_time() {
                            Some(t) if t < horizon => a.pop(),
                            _ => None,
                        };
                        assert_eq!(b.pop_before(horizon), want, "seed {seed}");
                        want
                    }
                    18 => {
                        // Hand the queue back to a pool and take it again
                        // mid-run: it must behave as a fresh one.
                        pool.put(b);
                        b = pool.take(16);
                        a = EventQueue::new();
                        now = 0;
                        None
                    }
                    _ => {
                        let at = draw_time(&mut rng, now);
                        a.schedule(at, tag);
                        b.schedule(at, tag);
                        tag += 1;
                        None
                    }
                };
                if let Some((at, _)) = popped {
                    now = at.raw();
                }
                assert_eq!(b.peek_time(), a.peek_time(), "seed {seed}");
                assert_eq!(b.len(), a.len(), "seed {seed}");
                assert_eq!(b.scheduled_total(), a.scheduled_total(), "seed {seed}");
            }
            while let Some(ev) = a.pop() {
                assert_eq!(b.pop(), Some(ev), "seed {seed}");
            }
            assert_eq!(b.pop(), None, "seed {seed}");
        }
    }

    #[test]
    fn migrated_far_event_pops_before_a_later_same_cycle_schedule() {
        let far = WHEEL as u64 + 100;
        let mut q = LaneQueue::new();
        q.schedule(Cycle(10), "a");
        q.schedule(Cycle(far), "far"); // past the ring: waits in `far`
        q.schedule(Cycle(200), "b");
        assert_eq!(q.pop(), Some((Cycle(10), "a")));
        // Popping cycle 200 advances the ring over `far`, migrating it.
        assert_eq!(q.pop(), Some((Cycle(200), "b")));
        q.schedule(Cycle(far), "near"); // same cycle, after the migration
        assert_eq!(q.pop(), Some((Cycle(far), "far")));
        assert_eq!(q.pop(), Some((Cycle(far), "near")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn arena_slots_are_reused() {
        let mut q = LaneQueue::with_capacity(4);
        for round in 0..10 {
            for i in 0..4 {
                q.schedule(Cycle(round * 10 + i), (round, i));
            }
            for i in 0..4 {
                assert_eq!(q.pop(), Some((Cycle(round * 10 + i), (round, i))));
            }
        }
        // Ten rounds of four in-flight events never outgrow the four
        // pre-sized arena slots.
        assert!(q.arena.len() <= 4, "arena grew to {}", q.arena.len());
        assert_eq!(q.scheduled_total(), 40);
    }

    #[test]
    fn recycle_keeps_capacity() {
        let mut q = LaneQueue::new();
        for i in 0..1000 {
            q.schedule(Cycle(i), i);
        }
        let cap = q.capacity();
        assert!(cap >= 1000);
        q.recycle();
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 0);
        assert_eq!(q.capacity(), cap, "recycle must keep buffers");
        // Sequence numbers restart, so a recycled queue is byte-equivalent
        // to a fresh one.
        q.schedule(Cycle(1), 42);
        assert_eq!(q.pop(), Some((Cycle(1), 42)));
    }

    #[test]
    fn pool_round_trips_capacity() {
        let mut pool = LanePool::new();
        let mut q = pool.take(256);
        assert!(q.capacity() >= 256);
        q.schedule(Cycle(3), ());
        pool.put(q);
        assert_eq!(pool.len(), 1);
        let q2 = pool.take(16);
        assert!(q2.is_empty(), "pooled queues come back recycled");
        assert!(q2.capacity() >= 256, "pooled capacity survives");
        assert!(pool.is_empty());
        let q3 = pool.take(64);
        assert!(q3.capacity() >= 64, "empty pool falls back to fresh");
    }

    #[test]
    fn merge_key_orders_by_cycle_then_lane_then_seq() {
        let k = |at, lane, seq| MergeKey {
            at: Cycle(at),
            lane,
            seq,
        };
        assert!(k(1, 9, 9) < k(2, 0, 0));
        assert!(k(5, 0, 9) < k(5, 1, 0));
        assert!(k(5, 2, 1) < k(5, 2, 2));
        assert_eq!(k(5, 2, 1), k(5, 2, 1));
    }
}
