//! Bounded FIFO queue with occupancy accounting.

use std::collections::VecDeque;

/// A bounded FIFO used to model hardware queues with finite entries, such as
/// the GMMU page-walk queue (64 entries in the paper's Table 2).
///
/// When full, [`BoundedQueue::push`] rejects the element and returns it to
/// the caller, who must model back-pressure (e.g. stall the L2 TLB MSHR).
///
/// # Example
///
/// ```
/// use sim_engine::queue::BoundedQueue;
/// let mut q = BoundedQueue::new(2);
/// assert_eq!(q.push(1), Ok(()));
/// assert_eq!(q.push(2), Ok(()));
/// assert_eq!(q.push(3), Err(3)); // full: back-pressure
/// assert_eq!(q.pop(), Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct BoundedQueue<T> {
    items: VecDeque<T>,
    capacity: usize,
    rejected: u64,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` elements.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        BoundedQueue {
            items: VecDeque::with_capacity(capacity),
            capacity,
            rejected: 0,
        }
    }

    /// Appends `item`, or returns it as `Err` when the queue is full.
    ///
    /// # Errors
    /// Returns `Err(item)` when the queue already holds `capacity` elements.
    pub fn push(&mut self, item: T) -> Result<(), T> {
        if self.items.len() == self.capacity {
            self.rejected += 1;
            return Err(item);
        }
        self.items.push_back(item);
        Ok(())
    }

    /// Removes the oldest element.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Free slots remaining.
    pub fn free(&self) -> usize {
        self.capacity - self.items.len()
    }

    /// Number of rejected pushes (back-pressure events).
    pub fn rejected(&self) -> u64 {
        self.rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut q = BoundedQueue::new(4);
        for i in 0..4 {
            q.push(i).unwrap();
        }
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn rejects_when_full_and_counts() {
        let mut q = BoundedQueue::new(1);
        q.push('a').unwrap();
        assert_eq!(q.free(), 0);
        assert_eq!(q.push('b'), Err('b'));
        assert_eq!(q.rejected(), 1);
        q.pop();
        assert_eq!(q.push('b'), Ok(()));
    }

    #[test]
    fn occupancy_accounting() {
        let mut q = BoundedQueue::new(3);
        assert_eq!(q.free(), 3);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.free(), 1);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.free(), 2);
        assert!(!q.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = BoundedQueue::<u8>::new(0);
    }
}
