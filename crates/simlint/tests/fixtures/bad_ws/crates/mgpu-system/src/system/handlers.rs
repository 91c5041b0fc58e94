//! Fixture hot-path module: the panic-path rule fires.
//! Never compiled — scanned textually by the simlint tests.

pub fn on_event(q: &mut Vec<u64>, i: usize) -> u64 {
    let v = q.pop().unwrap();
    let w = *q.get(i).expect("present");
    if v > 1_000 {
        panic!("overflow");
    }
    q[i + 1] + v + w
}
