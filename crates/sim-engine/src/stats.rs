//! Measurement primitives: counters, accumulators and log-scale histograms.
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

/// Power-of-two bucketed histogram for latency distributions.
///
/// Bucket `i` counts samples in `[2^i, 2^(i+1))`; bucket 0 additionally
/// catches zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram with 64 log2 buckets.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; 64],
            total: 0,
        }
    }

    /// Records one sample.
    #[expect(
        clippy::indexing_slicing,
        reason = "the bucket is floor(log2(value)) ≤ 63, one of 64"
    )]
    pub fn record(&mut self, value: u64) {
        let idx = if value == 0 {
            0
        } else {
            63 - value.leading_zeros() as usize
        };
        self.buckets[idx] += 1;
        self.total += 1;
    }

    /// Number of recorded samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count in bucket `i` (samples in `[2^i, 2^(i+1))`).
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets.get(i).copied().unwrap_or(0)
    }

    /// Approximate quantile: upper edge of the bucket containing quantile
    /// `q` in `[0,1]`, or `None` when empty.
    pub fn approx_quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        #[expect(
            clippy::cast_possible_truncation,
            reason = "rank of a sample count; far below 2^53, ceil keeps it conservative"
        )]
        let target = (q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                return Some(1u64 << (i + 1).min(63));
            }
        }
        Some(u64::MAX)
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
    fn histogram_quantile_empty_is_none() {
        let h = Histogram::new();
        assert_eq!(h.total(), 0);
        assert_eq!(h.approx_quantile(0.0), None);
        assert_eq!(h.approx_quantile(0.5), None);
        assert_eq!(h.approx_quantile(1.0), None);
    }

    #[test]
    fn histogram_quantile_single_bucket_returns_its_upper_edge() {
        // All samples land in bucket 2 ([4, 8)); every quantile answers
        // with that bucket's upper edge.
        let mut h = Histogram::new();
        for v in [4, 5, 6, 7] {
            h.record(v);
        }
        assert_eq!(h.bucket(2), 4);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.approx_quantile(q), Some(8), "q={q}");
        }
        // Out-of-range q clamps rather than panicking or escaping.
        assert_eq!(h.approx_quantile(-1.0), Some(8));
        assert_eq!(h.approx_quantile(2.0), Some(8));
    }

    #[test]
    fn histogram_quantile_walks_buckets_in_order() {
        let mut h = Histogram::new();
        h.record(1); // bucket 0
        h.record(2); // bucket 1
        h.record(3); // bucket 1
        h.record(100); // bucket 6
        assert_eq!(h.approx_quantile(0.25), Some(2));
        assert_eq!(h.approx_quantile(0.5), Some(4));
        assert_eq!(h.approx_quantile(1.0), Some(128));
    }

    #[test]
    fn histogram_top_bucket_edge_does_not_overflow() {
        let mut h = Histogram::new();
        h.record(u64::MAX); // bucket 63; upper edge clamps to 1 << 63
        assert_eq!(h.bucket(63), 1);
        assert_eq!(h.approx_quantile(1.0), Some(1u64 << 63));
    }

    #[test]
    fn histogram_bucketing() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        assert_eq!(h.total(), 5);
        assert_eq!(h.bucket(0), 2); // 0 and 1
        assert_eq!(h.bucket(1), 2); // 2 and 3
        assert_eq!(h.bucket(10), 1); // 1024
    }

    #[test]
    fn histogram_quantile() {
        let mut h = Histogram::new();
        assert_eq!(h.approx_quantile(0.5), None);
        for _ in 0..99 {
            h.record(4);
        }
        h.record(1_000_000);
        let median = h.approx_quantile(0.5).unwrap();
        assert!(median <= 8);
        let p999 = h.approx_quantile(0.999).unwrap();
        assert!(p999 > 1_000_000 / 2);
    }

    #[test]
    fn histogram_empty_is_inert() {
        let h = Histogram::new();
        assert_eq!(h.total(), 0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.approx_quantile(q), None);
        }
        for i in 0..64 {
            assert_eq!(h.bucket(i), 0);
        }
        // Out-of-range bucket indices read as empty, not panic.
        assert_eq!(h.bucket(64), 0);
        assert_eq!(h.bucket(usize::MAX), 0);
    }

    #[test]
    fn histogram_single_sample() {
        let mut h = Histogram::new();
        h.record(100); // bucket 6: [64, 128)
        assert_eq!(h.total(), 1);
        assert_eq!(h.bucket(6), 1);
        // Every quantile of a one-sample distribution lands in its bucket:
        // the reported value is the bucket's upper edge.
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.approx_quantile(q), Some(128));
        }
    }

    #[test]
    fn histogram_saturating_bucket() {
        let mut h = Histogram::new();
        h.record(u64::MAX); // top bucket (63)
        h.record(1u64 << 63);
        assert_eq!(h.bucket(63), 2);
        // The top bucket's "upper edge" saturates at 2^63 rather than
        // overflowing the shift.
        assert_eq!(h.approx_quantile(1.0), Some(1u64 << 63));
        assert_eq!(h.total(), 2);
    }

    #[test]
    fn histogram_quantile_clamps_out_of_range_q() {
        let mut h = Histogram::new();
        h.record(10);
        // q outside [0,1] clamps instead of panicking or returning None.
        assert_eq!(h.approx_quantile(-1.0), h.approx_quantile(0.0));
        assert_eq!(h.approx_quantile(2.0), h.approx_quantile(1.0));
        assert_eq!(h.approx_quantile(f64::NAN), h.approx_quantile(0.0));
    }

    #[test]
    fn hit_rate_edge_cases() {
        assert_eq!(hit_rate(0, 0), 0.0);
        assert_eq!(hit_rate(10, 0), 1.0);
        assert_eq!(hit_rate(0, 10), 0.0);
    }
}
