//! Compute units and warps — the latency-hiding model.
//!
//! GPU cores hide memory latency by switching among concurrent warps. The
//! model keeps that essential behaviour and nothing more: each CU runs a
//! fixed set of warps; a warp alternates `compute_gap` cycles of compute
//! with one memory access and blocks while the access is outstanding; a CU
//! issues at most one memory access per cycle across its ready warps.
//!
//! Memory-intensive workloads (many accesses, small gaps) exhaust the warp
//! supply and expose translation latency — which is exactly when the paper
//! finds invalidation contention hurts most (the IM discussion in §7.1).

use sim_engine::Cycle;

/// State of one warp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpState {
    /// Will be ready to issue its next access at the given cycle.
    Ready(Cycle),
    /// Blocked on an outstanding memory access.
    WaitingMem,
    /// Exhausted its share of the trace.
    Done,
}

/// One warp.
#[derive(Debug, Clone, Copy)]
pub struct Warp {
    /// Current state.
    pub state: WarpState,
}

/// A compute unit: a set of warps plus a 1-access/cycle issue port.
///
/// # Example
///
/// ```
/// use gpu_model::cu::{Cu, WarpState};
/// use sim_engine::Cycle;
///
/// let mut cu = Cu::new(2);
/// assert!(cu.try_issue_port(Cycle(5)));
/// assert!(!cu.try_issue_port(Cycle(5)), "one issue per cycle");
/// assert!(cu.try_issue_port(Cycle(6)));
/// ```
#[derive(Debug, Clone)]
pub struct Cu {
    warps: Vec<Warp>,
    last_issue: Option<Cycle>,
}

#[expect(
    clippy::indexing_slicing,
    reason = "warp ids come from the scheduler's `0..warps_per_cu` range, the length of `warps`"
)]
impl Cu {
    /// Creates a CU with `warps` warps, all ready at cycle 0.
    ///
    /// # Panics
    /// Panics if `warps == 0`.
    pub fn new(warps: usize) -> Self {
        assert!(warps > 0, "a CU needs at least one warp");
        Cu {
            warps: vec![
                Warp {
                    state: WarpState::Ready(Cycle::ZERO),
                };
                warps
            ],
            last_issue: None,
        }
    }

    /// Number of warps.
    pub fn warps(&self) -> usize {
        self.warps.len()
    }

    /// Borrow a warp's state.
    pub fn warp(&self, w: usize) -> &Warp {
        &self.warps[w]
    }

    /// Claims the issue port for cycle `now`. Returns `false` when another
    /// warp already issued this cycle.
    pub fn try_issue_port(&mut self, now: Cycle) -> bool {
        if self.last_issue == Some(now) {
            return false;
        }
        self.last_issue = Some(now);
        true
    }

    /// Marks warp `w` as having issued a memory access (now blocked).
    ///
    /// # Panics
    /// Panics if the warp is not in `Ready` state.
    pub fn issue(&mut self, w: usize) {
        let warp = &mut self.warps[w];
        assert!(
            matches!(warp.state, WarpState::Ready(_)),
            "issuing from a non-ready warp"
        );
        warp.state = WarpState::WaitingMem;
    }

    /// Completes warp `w`'s outstanding access: it becomes ready again at
    /// `now + compute_gap` (the compute instructions between accesses).
    pub fn complete_access(&mut self, w: usize, now: Cycle, compute_gap: Cycle) -> Cycle {
        let warp = &mut self.warps[w];
        debug_assert_eq!(warp.state, WarpState::WaitingMem);
        let ready_at = now + compute_gap;
        warp.state = WarpState::Ready(ready_at);
        ready_at
    }

    /// Retires warp `w` (no more trace accesses for it).
    pub fn retire(&mut self, w: usize) {
        self.warps[w].state = WarpState::Done;
    }

    /// Whether every warp has retired.
    pub fn all_done(&self) -> bool {
        self.warps.iter().all(|w| w.state == WarpState::Done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warp_lifecycle() {
        let mut cu = Cu::new(1);
        assert_eq!(cu.warp(0).state, WarpState::Ready(Cycle::ZERO));
        cu.issue(0);
        assert_eq!(cu.warp(0).state, WarpState::WaitingMem);
        let ready = cu.complete_access(0, Cycle(100), Cycle(7));
        assert_eq!(ready, Cycle(107));
        assert_eq!(cu.warp(0).state, WarpState::Ready(Cycle(107)));
        cu.retire(0);
        assert!(cu.all_done());
    }

    #[test]
    fn issue_port_is_one_per_cycle() {
        let mut cu = Cu::new(4);
        assert!(cu.try_issue_port(Cycle(10)));
        assert!(!cu.try_issue_port(Cycle(10)));
        assert!(cu.try_issue_port(Cycle(11)));
        // Port claims don't need to be monotone (events can arrive from a
        // heap in equal-time batches), but equal cycles are still refused.
        assert!(!cu.try_issue_port(Cycle(11)));
    }

    #[test]
    fn all_done_requires_every_warp() {
        let mut cu = Cu::new(2);
        cu.retire(0);
        assert!(!cu.all_done());
        cu.retire(1);
        assert!(cu.all_done());
    }

    #[test]
    #[should_panic(expected = "non-ready warp")]
    fn double_issue_panics() {
        let mut cu = Cu::new(1);
        cu.issue(0);
        cu.issue(0);
    }
}
