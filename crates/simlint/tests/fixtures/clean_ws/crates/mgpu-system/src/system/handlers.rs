//! Fixture hot-path module that lints clean via a reasoned escape.
//! Never compiled — scanned textually by the simlint tests.

pub fn drain(q: &mut Vec<u64>) -> u64 {
    // simlint: allow(hot-path-panic) — fixture: caller guarantees non-empty
    let v = q.pop().unwrap();
    v + 1
}
