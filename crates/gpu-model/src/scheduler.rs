//! CTA (thread-block) scheduling: how a GPU's access trace is dealt to its
//! warps.
//!
//! The paper's methodology (§4) uses round-robin CTA scheduling for CUs
//! within a GPU and greedy (locality-preserving) scheduling across GPUs.
//! In the trace-driven model that choice appears as the mapping from the
//! per-GPU access stream to per-warp work: each warp takes one contiguous
//! segment, which preserves intra-CTA locality (greedy) the way a thread
//! block covering its own data tile does.

use std::ops::Range;

/// A warp's work list: the indices into the GPU trace it issues, in order.
pub type WarpPlan = Range<usize>;

/// Builds the per-warp access plans for a trace of `len` accesses dealt to
/// `warps` warps: each warp owns one contiguous trace segment (a thread
/// block covering its own data tile), the paper's locality-preserving
/// scheduling.
///
/// The plans partition `0..len` in order: each starts where the previous
/// one ends.
///
/// # Panics
/// Panics if `warps == 0`.
///
/// # Example
///
/// ```
/// use gpu_model::scheduler::plan_warps;
/// let plans = plan_warps(10, 2);
/// assert_eq!(plans, [0..5, 5..10]);
/// ```
pub fn plan_warps(len: usize, warps: usize) -> Vec<WarpPlan> {
    assert!(warps > 0, "need at least one warp");
    let seg = len.div_ceil(warps);
    (0..warps)
        .map(|w| (w * seg).min(len)..((w + 1) * seg).min(len))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The plans tile `0..len`: contiguous, in order, none reversed.
    fn assert_partition(plans: &[WarpPlan], len: usize) {
        let mut next = 0;
        for plan in plans {
            assert_eq!(plan.start, next, "plans must tile the trace in order");
            assert!(plan.start <= plan.end, "reversed plan {plan:?}");
            next = plan.end;
        }
        assert_eq!(next, len, "some index never dealt");
    }

    #[test]
    fn contiguous_segments_partition_and_preserve_order() {
        let plans = plan_warps(103, 8);
        assert_partition(&plans, 103);
        assert!(plans.iter().all(|p| p.len() <= 13), "{plans:?}");
        assert_eq!(plans[7], 91..103);
    }

    #[test]
    fn degenerate_shapes() {
        assert_partition(&plan_warps(0, 4), 0);
        let plans = plan_warps(3, 8);
        assert_partition(&plans, 3);
        assert_eq!(plans.iter().filter(|p| p.is_empty()).count(), 5);
    }

    #[test]
    #[should_panic(expected = "at least one warp")]
    fn zero_warps_panics() {
        plan_warps(10, 0);
    }
}
