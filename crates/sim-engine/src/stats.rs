//! Measurement primitives: counters and accumulators.
//!
//! Every component in the simulator keeps its own statistics built from these
//! primitives; `mgpu-system` flattens them into a report at the end of a run.

use std::fmt;

use crate::time::Cycle;

/// A monotonically increasing event counter.
///
/// # Example
///
/// ```
/// use sim_engine::stats::Counter;
/// let mut hits = Counter::new();
/// hits.inc();
/// hits.add(2);
/// assert_eq!(hits.get(), 3);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Adds one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Accumulates a stream of samples, tracking sum, count, min and max.
///
/// Used throughout for latency bookkeeping (demand TLB miss latency,
/// invalidation latency, migration waiting latency, ...).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Accumulator {
    sum: f64,
    count: u64,
    min: f64,
    max: f64,
}

impl Accumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Accumulator {
            sum: 0.0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, sample: f64) {
        self.sum += sample;
        self.count += 1;
        if sample < self.min {
            self.min = sample;
        }
        if sample > self.max {
            self.max = sample;
        }
    }

    /// Records a latency sample expressed in cycles.
    pub fn record_cycles(&mut self, c: Cycle) {
        self.record(c.raw() as f64);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (0 when empty).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean, or `None` when no samples were recorded.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum / self.count as f64)
        }
    }

    /// Smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.max)
        }
    }

    /// Merges another accumulator into this one. The sample count
    /// saturates at `u64::MAX` instead of wrapping, so merging pathological
    /// (e.g. near-overflow) summaries stays well-defined.
    pub fn merge(&mut self, other: &Accumulator) {
        self.sum += other.sum;
        self.count = self.count.saturating_add(other.count);
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

impl fmt::Display for Accumulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.mean() {
            Some(m) => write!(
                f,
                "n={} mean={m:.1} min={:.0} max={:.0}",
                self.count, self.min, self.max
            ),
            None => write!(f, "n=0"),
        }
    }
}

/// A ratio between two counters, rendered as a percentage; convenience for
/// hit-rate style statistics.
///
/// # Example
///
/// ```
/// use sim_engine::stats::hit_rate;
/// assert_eq!(hit_rate(3, 1), 0.75);
/// assert_eq!(hit_rate(0, 0), 0.0);
/// ```
pub fn hit_rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c.to_string(), "5");
    }

    #[test]
    fn accumulator_stats() {
        let mut a = Accumulator::new();
        assert_eq!(a.mean(), None);
        assert_eq!(a.min(), None);
        a.record(2.0);
        a.record(4.0);
        a.record(9.0);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 15.0);
        assert_eq!(a.mean(), Some(5.0));
        assert_eq!(a.min(), Some(2.0));
        assert_eq!(a.max(), Some(9.0));
    }

    #[test]
    fn accumulator_merge() {
        let mut a = Accumulator::new();
        a.record(1.0);
        let mut b = Accumulator::new();
        b.record(3.0);
        b.record(5.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.mean(), Some(3.0));
        assert_eq!(a.min(), Some(1.0));
        assert_eq!(a.max(), Some(5.0));
        // Merging an empty accumulator changes nothing.
        a.merge(&Accumulator::new());
        assert_eq!(a.count(), 3);
    }

    #[test]
    fn accumulator_merge_into_empty_adopts_other() {
        let mut empty = Accumulator::new();
        let mut b = Accumulator::new();
        b.record(3.0);
        b.record(7.0);
        empty.merge(&b);
        assert_eq!(empty.count(), 2);
        assert_eq!(empty.min(), Some(3.0));
        assert_eq!(empty.max(), Some(7.0));
        assert_eq!(empty.mean(), Some(5.0));
        // Two empties merge to an empty (min/max sentinels must not leak).
        let mut e1 = Accumulator::new();
        e1.merge(&Accumulator::new());
        assert_eq!(e1.count(), 0);
        assert_eq!(e1.min(), None);
        assert_eq!(e1.max(), None);
    }

    #[test]
    fn accumulator_merge_saturates_count() {
        let mut a = Accumulator {
            sum: 10.0,
            count: u64::MAX - 1,
            min: 1.0,
            max: 9.0,
        };
        let mut b = Accumulator::new();
        b.record(5.0);
        b.record(6.0);
        a.merge(&b);
        assert_eq!(a.count(), u64::MAX, "count saturates instead of wrapping");
        assert_eq!(a.min(), Some(1.0));
        assert_eq!(a.max(), Some(9.0));
    }

    #[test]
    fn hit_rate_edge_cases() {
        assert_eq!(hit_rate(0, 0), 0.0);
        assert_eq!(hit_rate(10, 0), 1.0);
        assert_eq!(hit_rate(0, 10), 0.0);
    }
}
