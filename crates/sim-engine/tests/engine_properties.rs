//! Property-based tests of the simulation kernel.

#![allow(
    clippy::cast_possible_truncation,
    reason = "test-only casts of small generated values"
)]

use proptest::prelude::*;
use sim_engine::queue::BoundedQueue;
use sim_engine::resource::BandwidthPipe;
use sim_engine::{Cycle, EventQueue};

proptest! {
    #[test]
    fn event_queue_delivers_sorted_stable(times in prop::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Cycle(t), i);
        }
        let mut last = (Cycle::ZERO, 0usize);
        let mut popped = 0;
        while let Some((at, idx)) = q.pop() {
            // Nondecreasing time; FIFO among equal times (payload index is
            // the insertion order).
            prop_assert!(at > last.0 || (at == last.0 && idx > last.1) || popped == 0);
            prop_assert_eq!(Cycle(times[idx]), at);
            last = (at, idx);
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    #[test]
    fn bounded_queue_is_fifo_with_capacity(cap in 1usize..16, pushes in prop::collection::vec(0u32..100, 1..100)) {
        let mut q = BoundedQueue::new(cap);
        let mut model = std::collections::VecDeque::new();
        for v in pushes {
            match q.push(v) {
                Ok(()) => {
                    prop_assert!(model.len() < cap);
                    model.push_back(v);
                }
                Err(rejected) => {
                    prop_assert_eq!(rejected, v);
                    prop_assert_eq!(model.len(), cap);
                }
            }
            prop_assert_eq!(q.len(), model.len());
        }
        while let Some(v) = q.pop() {
            prop_assert_eq!(Some(v), model.pop_front());
        }
        prop_assert!(model.is_empty());
    }

    #[test]
    fn pipe_completions_are_monotone_and_bandwidth_bounded(
        bpc in 1.0f64..512.0,
        transfers in prop::collection::vec((0u64..1000, 1u64..10_000), 1..100),
    ) {
        let mut pipe = BandwidthPipe::new(bpc, Cycle(5));
        let mut last_done = Cycle::ZERO;
        let mut now = 0u64;
        let mut total_bytes = 0u64;
        for (advance, bytes) in transfers {
            now += advance;
            let done = pipe.transfer(Cycle(now), bytes);
            total_bytes += bytes;
            // Completions never go backwards (serialised pipe).
            prop_assert!(done >= last_done);
            // And never before the physics allows.
            prop_assert!(done.raw() >= now + 5);
            last_done = done;
        }
        // Aggregate bandwidth bound: all bytes cannot finish faster than
        // the link allows.
        let min_cycles = (total_bytes as f64 / bpc).floor() as u64;
        prop_assert!(last_done.raw() + 1 >= min_cycles,
            "{last_done} too fast for {total_bytes} bytes at {bpc} B/cy");
    }
}
