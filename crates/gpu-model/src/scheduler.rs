//! CTA (thread-block) scheduling: how a GPU's access trace is dealt to its
//! warps.
//!
//! The paper's methodology (§4) uses round-robin CTA scheduling for CUs
//! within a GPU and greedy (locality-preserving) scheduling across GPUs.
//! In the trace-driven model that choice appears as the mapping from the
//! per-GPU access stream to per-warp work: each warp takes one contiguous
//! segment, which preserves intra-CTA locality (greedy) the way a thread
//! block covering its own data tile does.

/// A warp's work list: indices into the GPU trace, in issue order.
pub type WarpPlan = Vec<usize>;

/// Builds the per-warp access plans for a trace of `len` accesses dealt to
/// `warps` warps: each warp owns one contiguous trace segment (a thread
/// block covering its own data tile), the paper's locality-preserving
/// scheduling.
///
/// Every index in `0..len` appears in exactly one plan exactly once.
///
/// # Panics
/// Panics if `warps == 0`.
///
/// # Example
///
/// ```
/// use gpu_model::scheduler::plan_warps;
/// let plans = plan_warps(10, 2);
/// assert_eq!(plans[0], vec![0, 1, 2, 3, 4]);
/// assert_eq!(plans[1], vec![5, 6, 7, 8, 9]);
/// ```
pub fn plan_warps(len: usize, warps: usize) -> Vec<WarpPlan> {
    assert!(warps > 0, "need at least one warp");
    let seg = len.div_ceil(warps);
    (0..warps)
        .map(|w| ((w * seg).min(len)..((w + 1) * seg).min(len)).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_partition(plans: &[WarpPlan], len: usize) {
        let mut seen = vec![false; len];
        for plan in plans {
            for &i in plan {
                assert!(i < len);
                assert!(!seen[i], "index {i} dealt twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "some index never dealt");
    }

    #[test]
    fn contiguous_segments_partition_and_preserve_order() {
        let plans = plan_warps(103, 8);
        assert_partition(&plans, 103);
        for plan in &plans {
            for pair in plan.windows(2) {
                assert_eq!(pair[1], pair[0] + 1, "contiguity broken");
            }
        }
    }

    #[test]
    fn degenerate_shapes() {
        assert_partition(&plan_warps(0, 4), 0);
        assert_partition(&plan_warps(3, 8), 3);
    }

    #[test]
    #[should_panic(expected = "at least one warp")]
    fn zero_warps_panics() {
        plan_warps(10, 0);
    }
}
