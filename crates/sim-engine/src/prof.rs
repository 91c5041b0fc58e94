//! Self-profiling for the simulation core: what does the event loop do?
//!
//! A [`Profiler`] counts the event loop's work in a small fixed set of
//! [`Phase`]s: heap pops, heap pushes, epoch barriers, and handled events
//! split by kind (TLB lookup, walk-queue scheduling, migration protocol,
//! everything else). The orchestrating system charges each handled event to
//! exactly one handler phase, so the handler counts sum to the heap-pop
//! count.
//!
//! Host time is not measured here. A clock read around every pop and
//! handler costs more than the code it would time; the benchmark harness
//! times whole layers from outside instead.
//!
//! # Cost model
//!
//! The contract is the same as [`crate::trace::Tracer`]: a disabled profiler
//! reduces every emission to a single branch on a bool, so the
//! instrumentation stays permanently wired into the hot loop. An enabled
//! one adds an integer to an array slot.
//!
//! # Determinism
//!
//! Counts are functions of the event stream and are bit-identical across
//! identical runs and across lane-thread counts.
//!
//! # Example
//!
//! ```
//! use sim_engine::prof::{Phase, Profiler};
//!
//! let mut prof = Profiler::enabled();
//! prof.add(Phase::TlbLookup, 1);
//! prof.add(Phase::HeapPush, 3);
//! assert_eq!(prof.count(Phase::TlbLookup), 1);
//! assert_eq!(prof.count(Phase::HeapPush), 3);
//! ```

use std::fmt;

/// The instrumented phases of the event loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Popping the next event from the future-event list (heap sift-down).
    HeapPop,
    /// Events pushed into the future-event list (queue pushes plus mailbox
    /// deposits) by handler bodies.
    HeapPush,
    /// TLB lookup handling (L2 lookups and MSHR retries).
    TlbLookup,
    /// Walk-queue scheduling (walk dispatch and walk completion).
    WalkSchedule,
    /// The migration/invalidation protocol, including the data transfer
    /// and PTE-update traffic.
    MigTransfer,
    /// Every other handler (warp issue, fault batching, data path).
    Other,
    /// Parallel-core synchronization: one per epoch barrier, including its
    /// mailbox routing (charged by the orchestrating loop, not handlers).
    Barrier,
}

/// Every phase, in a fixed order.
pub const PHASES: [Phase; 7] = [
    Phase::HeapPop,
    Phase::HeapPush,
    Phase::TlbLookup,
    Phase::WalkSchedule,
    Phase::MigTransfer,
    Phase::Other,
    Phase::Barrier,
];

impl Phase {
    /// Stable snake_case name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::HeapPop => "heap_pop",
            Phase::HeapPush => "heap_push",
            Phase::TlbLookup => "tlb_lookup",
            Phase::WalkSchedule => "walk_schedule",
            Phase::MigTransfer => "mig_transfer",
            Phase::Other => "other",
            Phase::Barrier => "barrier",
        }
    }

    #[inline]
    fn index(self) -> usize {
        match self {
            Phase::HeapPop => 0,
            Phase::HeapPush => 1,
            Phase::TlbLookup => 2,
            Phase::WalkSchedule => 3,
            Phase::MigTransfer => 4,
            Phase::Other => 5,
            Phase::Barrier => 6,
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Accumulates per-phase counts for one simulation run.
///
/// See the [module docs](self) for the cost and determinism contracts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profiler {
    enabled: bool,
    counts: [u64; PHASES.len()],
}

#[expect(
    clippy::indexing_slicing,
    reason = "`Phase::index` is below `PHASES.len()`, the length of `counts`"
)]
impl Profiler {
    /// A profiler that records nothing; every emission is a single branch.
    #[must_use]
    pub fn disabled() -> Self {
        Profiler::default()
    }

    /// A recording profiler.
    #[must_use]
    pub fn enabled() -> Self {
        Profiler {
            enabled: true,
            ..Profiler::default()
        }
    }

    /// Whether phases are being recorded at all.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Adds `n` to a phase's count; a single branch when disabled.
    #[inline]
    pub fn add(&mut self, phase: Phase, n: u64) {
        if !self.enabled {
            return;
        }
        self.counts[phase.index()] += n;
    }

    /// Emission count charged to `phase`.
    #[must_use]
    pub fn count(&self, phase: Phase) -> u64 {
        self.counts[phase.index()]
    }

    /// Merges another profiler's counts into this one (multi-run
    /// totals). The result is enabled if either side was.
    pub fn merge(&mut self, other: &Profiler) {
        self.enabled |= other.enabled;
        for i in 0..PHASES.len() {
            self.counts[i] += other.counts[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut p = Profiler::disabled();
        assert!(!p.is_enabled());
        p.add(Phase::TlbLookup, 1);
        p.add(Phase::HeapPush, 100);
        assert_eq!(p.count(Phase::TlbLookup), 0);
        assert_eq!(p.count(Phase::HeapPush), 0);
        assert_eq!(p, Profiler::default());
    }

    #[test]
    fn enabled_profiler_counts() {
        let mut p = Profiler::enabled();
        p.add(Phase::WalkSchedule, 1);
        p.add(Phase::HeapPush, 7);
        p.add(Phase::HeapPush, 2);
        assert_eq!(p.count(Phase::WalkSchedule), 1);
        assert_eq!(p.count(Phase::HeapPush), 9);
        assert_eq!(p.count(Phase::Other), 0);
    }

    #[test]
    fn merge_sums_counts() {
        let mut a = Profiler::enabled();
        a.add(Phase::HeapPop, 2);
        let mut b = Profiler::enabled();
        b.add(Phase::HeapPop, 3);
        b.add(Phase::Other, 1);
        a.merge(&b);
        assert_eq!(a.count(Phase::HeapPop), 5);
        assert_eq!(a.count(Phase::Other), 1);
        // Merging an enabled profiler into a disabled one enables it.
        let mut c = Profiler::disabled();
        c.merge(&a);
        assert!(c.is_enabled());
        assert_eq!(c.count(Phase::HeapPop), 5);
    }
}
