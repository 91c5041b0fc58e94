//! Fixture: one live escape (the unordered-iter finding really fires on the
//! line below it) and one stale escape (nothing has fired there since a
//! refactor removed the iteration). The stale one fails the run; the live
//! one stays silent. Never compiled — scanned textually by the simlint
//! tests.

use sim_engine::collections::DetHashMap;

pub struct Tally {
    pub counts: DetHashMap<u64, u64>,
}

pub fn total(t: &Tally) -> u64 {
    // simlint: allow(unordered-iter) — a sum is order-insensitive
    t.counts.values().sum()
}

pub fn width(t: &Tally) -> usize {
    // simlint: allow(hot-path-panic) — the table is never empty
    t.counts.len()
}
