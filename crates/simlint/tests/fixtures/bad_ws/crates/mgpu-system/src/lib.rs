//! Fixture model crate: unordered-iter fires, and a reason-less escape
//! both waives its finding and is reported. Never compiled — scanned
//! textually by the simlint tests.

use sim_engine::collections::DetHashMap;

pub struct State {
    pub reqs: DetHashMap<u64, u32>,
}

pub fn dump(s: &State) {
    for (k, v) in s.reqs.iter() {
        println!("{k} {v}");
    }
}

pub fn bare_allow_still_waives(s: &State) -> u32 {
    // simlint: allow(unordered-iter)
    s.reqs.values().sum()
}
