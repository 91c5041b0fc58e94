//! Properties of the parallel event core's deterministic merge rule.
//!
//! The engine orders cross-lane events by [`MergeKey`] — `(cycle, lane id,
//! per-lane seq)` — and DESIGN.md claims this is (a) a total order and
//! (b) equal to the delivery order of the seed's single global heap keyed
//! by `(cycle, global seq)` under the lane-major scheduling discipline the
//! barrier enforces: within an epoch, same-cycle events are routed to lanes
//! in fixed lane order, so the global sequence numbers of same-cycle events
//! agree with `(lane, per-lane seq)`. (Same-cycle pairs scheduled in
//! *different* epochs may be delivered in either order; the lookahead
//! contract makes them commute, which the end-to-end thread-sweep test in
//! `threads_determinism.rs` verifies at the artifact level.) Both claims
//! are checked here against random schedules.

#![expect(
    clippy::expect_used,
    clippy::indexing_slicing,
    reason = "test helpers outside `#[test]` fns; a failed setup fails the test"
)]

use idyll::sim::event::EventQueue;
use idyll::sim::lane::{LaneQueue, MergeKey};
use idyll::sim::Cycle;
use proptest::prelude::*;

const LANES: usize = 4;
/// Cycle span of one scheduling round. Rounds schedule into disjoint
/// windows, mirroring how a barrier epoch only creates events at or above
/// the horizon that closed the previous epoch.
const WINDOW: u64 = 32;

/// Generated schedule: for each round, for each lane (in lane order, as the
/// barrier routes), a batch of event delivery offsets within the window.
fn rounds() -> impl Strategy<Value = Vec<Vec<Vec<u64>>>> {
    prop::collection::vec(
        prop::collection::vec(prop::collection::vec(0u64..WINDOW, 0..8), LANES..LANES),
        1..6,
    )
}

fn merge_keys() -> impl Strategy<Value = Vec<MergeKey>> {
    prop::collection::vec(
        (0u64..16, 0u32..4, 0u64..16).prop_map(|(at, lane, seq)| MergeKey {
            at: Cycle(at),
            lane,
            seq,
        }),
        3..3,
    )
}

/// Pops the merged head across lanes: least `(cycle, lane id)` wins;
/// per-lane seq order is implied because each lane's own heap is FIFO
/// within a cycle. Returns `None` when every lane head is at or above
/// `horizon` (or all lanes are drained).
fn merged_pop(lanes: &mut [LaneQueue<u64>], horizon: Option<Cycle>) -> Option<(Cycle, u64)> {
    let (t, l) = lanes
        .iter()
        .enumerate()
        .filter_map(|(l, q)| q.peek_time().map(|t| (t, l)))
        .min()?;
    if horizon.is_some_and(|h| t >= h) {
        return None;
    }
    let popped = lanes[l].pop().expect("peeked lane pops");
    Some(popped)
}

proptest! {
    // The merge rule reproduces the seed global-heap order: schedule the
    // same events lane-major into (a) one global heap with a global
    // sequence counter and (b) per-lane queues merged by
    // (cycle, lane, seq); both must deliver the same stream.
    #[test]
    fn merge_rule_equals_global_heap_order(rounds in rounds()) {
        let mut global: EventQueue<u64> = EventQueue::new();
        let mut lanes: Vec<LaneQueue<u64>> =
            (0..LANES).map(|_| LaneQueue::new()).collect();
        let mut tag = 0u64;
        for (r, round) in rounds.iter().enumerate() {
            let base = r as u64 * WINDOW;
            for (lane, batch) in round.iter().enumerate() {
                for &offset in batch {
                    let at = Cycle(base + offset);
                    global.schedule(at, tag);
                    lanes[lane].schedule(at, tag);
                    tag += 1;
                }
            }
            // Drain only the first half of the window before the next
            // round, so later rounds schedule while earlier events are
            // still pending (as epochs do).
            let horizon = Cycle(base + WINDOW / 2);
            while let Some(merged) = merged_pop(&mut lanes, Some(horizon)) {
                let reference = global.pop().expect("global heap has the same events");
                prop_assert_eq!(merged, reference,
                    "merged delivery diverges from the seed global heap");
            }
        }
        // Drain the tails with no horizon.
        while let Some(merged) = merged_pop(&mut lanes, None) {
            let reference = global.pop().expect("global heap has the same events");
            prop_assert_eq!(merged, reference);
        }
        prop_assert!(global.is_empty(), "global heap must drain with the lanes");
    }

    // MergeKey's derived ordering is a total order: total, antisymmetric,
    // and transitive on arbitrary key triples.
    #[test]
    fn merge_key_is_a_total_order(keys in merge_keys()) {
        let (a, b, c) = (keys[0], keys[1], keys[2]);
        // Totality: every pair compares.
        prop_assert!(a < b || b < a || a == b);
        // Antisymmetry.
        if a <= b && b <= a {
            prop_assert_eq!(a, b);
        }
        // Transitivity across the sampled triple.
        if a <= b && b <= c {
            prop_assert!(a <= c);
        }
        // Consistency with the lexicographic definition.
        let lex = (a.at, a.lane, a.seq).cmp(&(b.at, b.lane, b.seq));
        prop_assert_eq!(a.cmp(&b), lex);
    }
}
