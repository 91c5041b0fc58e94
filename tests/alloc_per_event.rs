//! The per-event path stays allocation-free: heap allocations made inside
//! `System::run`, divided by the events it processes, stay under a pinned
//! bound for every `mgpu-sim --scheme`.
//!
//! The counting allocator is process-wide, so this test is the only one in
//! its binary: nothing else can allocate while a run is being counted.

use idyll::prelude::*;

/// Measured 0.028–0.042 allocations per event (`replication` highest) on
/// the test-scale KM cell, from the amortised growth of per-run queues and
/// tables, with 0.01 of margin; one `format!` per warp issue adds about
/// 0.5, a fresh MSHR waiter list per miss (before they were recycled)
/// added about 0.03, and a fault batch regrown from empty (before the
/// batcher reused its buffer) about 0.003.
const MAX_ALLOCS_PER_EVENT: f64 = 0.052;

/// The process-wide counting allocator.
#[expect(
    unsafe_code,
    clippy::disallowed_types,
    reason = "a `GlobalAlloc` impl is unsafe, and the allocator counts into static atomics"
)]
mod counting {
    use std::alloc::{GlobalAlloc, Layout, System as Os};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

    static COUNTING: AtomicBool = AtomicBool::new(false);
    static ALLOCS: AtomicU64 = AtomicU64::new(0);

    /// Runs `f` and returns its result with the heap allocations it made.
    pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
        ALLOCS.store(0, Relaxed);
        COUNTING.store(true, Relaxed);
        let out = f();
        COUNTING.store(false, Relaxed);
        (out, ALLOCS.load(Relaxed))
    }

    struct Counting;

    fn count() {
        if COUNTING.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
        }
    }

    // SAFETY: every method forwards its arguments unchanged to the system
    // allocator, which upholds the `GlobalAlloc` contract; counting touches
    // only two atomics and never allocates.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count();
            // SAFETY: the caller's `layout` contract is passed through as is.
            unsafe { Os.alloc(layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            count();
            // SAFETY: as in `alloc`.
            unsafe { Os.alloc_zeroed(layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            count();
            // SAFETY: `ptr` came from this allocator, which is `Os` underneath.
            unsafe { Os.realloc(ptr, layout, new_size) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from this allocator, which is `Os` underneath.
            unsafe { Os.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static GLOBAL: Counting = Counting;
}

#[test]
fn run_allocates_less_than_the_bound_per_event() {
    let wl =
        idyll::workloads::generate(&WorkloadSpec::paper_default(AppId::Km, Scale::Test), 4, 42);
    for scheme in Scheme::ALL {
        // The cell `mgpu-sim --scale test --scheme <scheme>` runs.
        let mut cfg = SystemConfig::baseline(4);
        cfg.policy = MigrationPolicy::AccessCounter {
            threshold: Scale::Test.counter_threshold(),
        };
        cfg.scheme = scheme;
        let mut sys = System::new(cfg, &wl);
        let (report, allocs) = counting::counted(|| sys.run());
        let report = report.expect("the cell completes");
        let events = report.events_processed;
        let per_event = allocs as f64 / events as f64;
        assert!(
            per_event <= MAX_ALLOCS_PER_EVENT,
            "{scheme:?}: {allocs} allocations / {events} events = {per_event:.4} exceeds {MAX_ALLOCS_PER_EVENT}"
        );
    }
}
