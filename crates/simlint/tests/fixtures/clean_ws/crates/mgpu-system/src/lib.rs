//! Fixture model crate that lints clean: deterministic collections plus a
//! properly justified escape hatch.

use sim_engine::collections::{DetHashMap, DetHashSet};

pub struct State {
    pub reqs: DetHashMap<u64, u32>,
    pub seen: DetHashSet<u64>,
}

pub fn count(s: &State) -> usize {
    // simlint: allow(unordered-iter) — order-insensitive count
    s.reqs.iter().count()
}
