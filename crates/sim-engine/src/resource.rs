//! Abstract occupancy-based resources.

use crate::time::Cycle;

/// A pool of identical threads each of which can be busy until some cycle.
///
/// Models multi-threaded hardware units such as the GMMU's page-table walkers
/// (8 shared walker threads in the baseline). The caller asks for a free
/// thread at time `now`; the pool either grants one (marking it busy until
/// `now + duration`) or reports the earliest time one frees up.
///
/// # Example
///
/// ```
/// use sim_engine::{Cycle, resource::ThreadPool};
/// let mut pool = ThreadPool::new(1);
/// assert_eq!(pool.try_acquire(Cycle(0), Cycle(100)), Ok(0));
/// // Busy: the single thread frees at cycle 100.
/// assert_eq!(pool.try_acquire(Cycle(50), Cycle(10)), Err(Cycle(100)));
/// assert_eq!(pool.try_acquire(Cycle(100), Cycle(10)), Ok(0));
/// ```
#[derive(Debug, Clone)]
pub struct ThreadPool {
    free_at: Vec<Cycle>,
    busy_cycles: u64,
    grants: u64,
}

impl ThreadPool {
    /// Creates a pool of `n` threads, all free at cycle 0.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "thread pool must have at least one thread");
        ThreadPool {
            free_at: vec![Cycle::ZERO; n],
            busy_cycles: 0,
            grants: 0,
        }
    }

    /// Number of threads in the pool.
    pub fn size(&self) -> usize {
        self.free_at.len()
    }

    /// Number of threads free at time `now`.
    pub fn available(&self, now: Cycle) -> usize {
        self.free_at.iter().filter(|&&t| t <= now).count()
    }

    /// Whether at least one thread is free at `now`.
    pub fn has_free(&self, now: Cycle) -> bool {
        self.free_at.iter().any(|&t| t <= now)
    }

    /// Attempts to occupy a thread for `duration` starting at `now`.
    ///
    /// Returns the thread index on success.
    ///
    /// # Errors
    /// When all threads are busy, returns the earliest cycle at which one
    /// frees up so the caller can re-schedule.
    pub fn try_acquire(&mut self, now: Cycle, duration: Cycle) -> Result<usize, Cycle> {
        let mut earliest = Cycle::MAX;
        for (i, t) in self.free_at.iter_mut().enumerate() {
            if *t <= now {
                *t = now + duration;
                self.busy_cycles += duration.raw();
                self.grants += 1;
                return Ok(i);
            }
            earliest = earliest.min(*t);
        }
        Err(earliest)
    }

    /// Earliest cycle at which any thread is free.
    #[expect(
        clippy::expect_used,
        reason = "pools are constructed with ≥ 1 thread (validated config), so the min is always defined"
    )]
    pub fn earliest_free(&self) -> Cycle {
        self.free_at
            .iter()
            .copied()
            .min()
            .expect("pool is non-empty")
    }

    /// Total cycles of busy time granted so far (utilisation numerator).
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Number of successful acquisitions.
    pub fn grants(&self) -> u64 {
        self.grants
    }
}

/// A bandwidth-limited pipe: transfers occupy the pipe for
/// `bytes / bytes_per_cycle` and are serialised behind earlier transfers.
///
/// Models both NVLink (300 GB/s inter-GPU) and PCIe (32 GB/s host link). At a
/// 1 GHz clock, 300 GB/s is 300 bytes per cycle.
#[derive(Debug, Clone)]
pub struct BandwidthPipe {
    bytes_per_cycle: f64,
    latency: Cycle,
    /// Fractional occupancy cursor: small messages accumulate fractions of
    /// a cycle instead of each rounding up to a whole cycle (which would
    /// artificially cap a 300 B/cy link at one 64 B message per cycle).
    next_free: f64,
    bytes_total: u64,
}

impl BandwidthPipe {
    /// Creates a pipe with the given per-cycle bandwidth and fixed
    /// propagation latency added to every transfer.
    ///
    /// # Panics
    /// Panics if `bytes_per_cycle <= 0`.
    pub fn new(bytes_per_cycle: f64, latency: Cycle) -> Self {
        assert!(bytes_per_cycle > 0.0, "bandwidth must be positive");
        BandwidthPipe {
            bytes_per_cycle,
            latency,
            next_free: 0.0,
            bytes_total: 0,
        }
    }

    /// Enqueues a transfer of `bytes` at time `now`; returns its completion
    /// time (serialisation + occupancy + propagation latency).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "quantises fractional cycles up; cycle counts sit far below 2^53"
    )]
    pub fn transfer(&mut self, now: Cycle, bytes: u64) -> Cycle {
        let start = self.next_free.max(now.raw() as f64);
        self.next_free = start + bytes as f64 / self.bytes_per_cycle;
        self.bytes_total += bytes;
        Cycle(self.next_free.ceil() as u64) + self.latency
    }

    /// Completion time a transfer *would* get, without enqueueing it.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "quantises fractional cycles up; cycle counts sit far below 2^53"
    )]
    pub fn probe(&self, now: Cycle, bytes: u64) -> Cycle {
        let start = self.next_free.max(now.raw() as f64);
        let done = start + bytes as f64 / self.bytes_per_cycle;
        Cycle(done.ceil() as u64) + self.latency
    }

    /// Fixed propagation latency.
    pub fn latency(&self) -> Cycle {
        self.latency
    }

    /// Total bytes moved.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_grants_up_to_capacity() {
        let mut p = ThreadPool::new(2);
        assert!(p.try_acquire(Cycle(0), Cycle(10)).is_ok());
        assert!(p.try_acquire(Cycle(0), Cycle(20)).is_ok());
        assert_eq!(p.try_acquire(Cycle(0), Cycle(5)), Err(Cycle(10)));
        assert_eq!(p.available(Cycle(0)), 0);
        assert_eq!(p.available(Cycle(10)), 1);
        assert_eq!(p.available(Cycle(20)), 2);
    }

    #[test]
    fn pool_reuses_freed_thread() {
        let mut p = ThreadPool::new(1);
        p.try_acquire(Cycle(0), Cycle(10)).unwrap();
        assert!(!p.has_free(Cycle(9)));
        assert!(p.has_free(Cycle(10)));
        assert!(p.try_acquire(Cycle(10), Cycle(10)).is_ok());
        assert_eq!(p.busy_cycles(), 20);
        assert_eq!(p.grants(), 2);
    }

    #[test]
    fn pipe_serialises_transfers() {
        // 4 bytes/cycle, 5-cycle latency.
        let mut pipe = BandwidthPipe::new(4.0, Cycle(5));
        let t1 = pipe.transfer(Cycle(0), 40); // occupies 0..10
        assert_eq!(t1, Cycle(15));
        let t2 = pipe.transfer(Cycle(0), 40); // occupies 10..20
        assert_eq!(t2, Cycle(25));
        // After the pipe drains, transfers start immediately again.
        let t3 = pipe.transfer(Cycle(100), 4);
        assert_eq!(t3, Cycle(106));
        assert_eq!(pipe.bytes_total(), 84);
    }

    #[test]
    fn pipe_probe_does_not_mutate() {
        let mut pipe = BandwidthPipe::new(1.0, Cycle(0));
        let probed = pipe.probe(Cycle(0), 10);
        assert_eq!(probed, Cycle(10));
        assert_eq!(pipe.transfer(Cycle(0), 10), Cycle(10));
        // The probe did not occupy the pipe; the real transfer did.
        assert_eq!(pipe.probe(Cycle(0), 10), Cycle(20));
    }

    #[test]
    fn pipe_accumulates_fractional_occupancy() {
        let mut pipe = BandwidthPipe::new(300.0, Cycle(1));
        // Four 64 B cachelines fit inside one cycle of a 300 B/cy link:
        // completions round up to the cycle edge but the cursor does not
        // jump a full cycle per message.
        assert_eq!(pipe.transfer(Cycle(0), 64), Cycle(2));
        assert_eq!(pipe.transfer(Cycle(0), 64), Cycle(2));
        assert_eq!(pipe.transfer(Cycle(0), 64), Cycle(2));
        assert_eq!(pipe.transfer(Cycle(0), 64), Cycle(2));
        // The fifth spills into the next cycle.
        assert_eq!(pipe.transfer(Cycle(0), 64), Cycle(3));
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn empty_pool_panics() {
        let _ = ThreadPool::new(0);
    }
}
