//! Deterministic future-event list: a binary heap keyed by `(cycle, seq)`.
//!
//! The simulator's lanes run on [`crate::LaneQueue`]; this heap is the
//! reference order that `LaneQueue` and the cross-lane merge rule are
//! tested against.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Cycle;

/// An entry in the event heap. Ordering is by time, then by insertion
/// sequence number, so that events scheduled for the same cycle are delivered
/// in FIFO order — a requirement for reproducible simulations.
struct Scheduled<E> {
    at: Cycle,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event is popped
        // first, breaking ties by the lowest sequence number.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A future-event list delivering events in nondecreasing time order with
/// FIFO tie-breaking.
///
/// The queue is the single source of simulated-time progression: the
/// orchestrating system pops events one at a time and advances its clock to
/// each event's timestamp.
///
/// # Example
///
/// ```
/// use sim_engine::{Cycle, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.schedule(Cycle(4), 'b');
/// q.schedule(Cycle(4), 'c'); // same cycle: FIFO order preserved
/// q.schedule(Cycle(1), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
#[derive(Default)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    scheduled_total: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            scheduled_total: 0,
        }
    }

    /// Schedules `payload` for delivery at absolute time `at`.
    pub fn schedule(&mut self, at: Cycle, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        self.heap.push(Scheduled { at, seq, payload });
    }

    /// Removes and returns the earliest event, or `None` when the queue is
    /// drained (simulation end).
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        self.heap.pop().map(|s| (s.at, s.payload))
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<Cycle> {
        self.heap.peek().map(|s| s.at)
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever scheduled (diagnostic).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.heap.len())
            .field("scheduled_total", &self.scheduled_total)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_time_order() {
        let mut q = EventQueue::new();
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
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Cycle(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Cycle(5), i)));
        }
    }

    #[test]
    fn interleaved_schedule_and_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(10), "a");
        q.schedule(Cycle(10), "b");
        assert_eq!(q.pop(), Some((Cycle(10), "a")));
        // Newly scheduled same-time event comes after already-queued ones.
        q.schedule(Cycle(10), "c");
        assert_eq!(q.pop(), Some((Cycle(10), "b")));
        assert_eq!(q.pop(), Some((Cycle(10), "c")));
    }

    #[test]
    fn peek_and_counters() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(Cycle(7), ());
        assert_eq!(q.peek_time(), Some(Cycle(7)));
        assert_eq!(q.len(), 1);
        assert_eq!(q.scheduled_total(), 1);
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 1);
    }
}
