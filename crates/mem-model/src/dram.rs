//! Banked DRAM latency/bandwidth model.
//!
//! Device memory (4 GB per GPU in Table 2) is modelled as a fixed access
//! latency plus per-bank serialisation: concurrent accesses to the same bank
//! queue behind each other, giving the bandwidth cliff that makes remote
//! versus local access asymmetry matter.

use sim_engine::{stats::Counter, Cycle};

/// A banked DRAM device.
///
/// # Example
///
/// ```
/// use mem_model::dram::Dram;
/// use sim_engine::Cycle;
/// let mut d = Dram::new(8, Cycle(200), 32);
/// let done = d.access(Cycle(0), 0x1000);
/// assert_eq!(done, Cycle(200));
/// ```
#[derive(Debug, Clone)]
pub struct Dram {
    bank_free: Vec<Cycle>,
    latency: Cycle,
    bank_occupancy: u64,
    line_bytes: u64,
    accesses: Counter,
    queued: Counter,
}

#[expect(
    clippy::indexing_slicing,
    reason = "`bank_of` reduces every address modulo the bank count"
)]
impl Dram {
    /// Creates a DRAM with `banks` banks, fixed `latency`, and per-access
    /// bank occupancy of `occupancy` cycles (defaults to `latency / 4`
    /// when zero is passed would be meaningless, so it must be positive).
    pub fn new(banks: usize, latency: Cycle, occupancy: u64) -> Self {
        assert!(banks > 0, "need at least one bank");
        assert!(occupancy > 0, "bank occupancy must be positive");
        Dram {
            bank_free: vec![Cycle::ZERO; banks],
            latency,
            bank_occupancy: occupancy,
            line_bytes: 64,
            accesses: Counter::new(),
            queued: Counter::new(),
        }
    }

    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "u64 → usize cannot truncate: sim_engine refuses to build for non-64-bit hosts"
    )]
    fn bank_of(&self, addr: u64) -> usize {
        ((addr / self.line_bytes) % self.bank_free.len() as u64) as usize
    }

    /// Issues an access to byte address `addr` at time `now`; returns its
    /// completion time.
    pub fn access(&mut self, now: Cycle, addr: u64) -> Cycle {
        self.accesses.inc();
        let bank = self.bank_of(addr);
        let start = self.bank_free[bank].max(now);
        if start > now {
            self.queued.inc();
        }
        self.bank_free[bank] = start + self.bank_occupancy;
        start + self.latency
    }

    /// Fixed access latency.
    pub fn latency(&self) -> Cycle {
        self.latency
    }

    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.accesses.get()
    }

    /// Accesses that had to queue behind a busy bank.
    pub fn queued(&self) -> u64 {
        self.queued.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unloaded_access_takes_latency() {
        let mut d = Dram::new(4, Cycle(200), 40);
        assert_eq!(d.access(Cycle(10), 0), Cycle(210));
        assert_eq!(d.accesses(), 1);
        assert_eq!(d.queued(), 0);
    }

    #[test]
    fn same_bank_serialises() {
        let mut d = Dram::new(4, Cycle(200), 40);
        // Bank stride is 64B * 4 banks = 256; same bank: 0 and 256.
        let t1 = d.access(Cycle(0), 0);
        let t2 = d.access(Cycle(0), 256);
        assert_eq!(t1, Cycle(200));
        assert_eq!(t2, Cycle(240), "second access starts after occupancy");
        assert_eq!(d.queued(), 1);
    }

    #[test]
    fn different_banks_parallel() {
        let mut d = Dram::new(4, Cycle(200), 40);
        let t1 = d.access(Cycle(0), 0);
        let t2 = d.access(Cycle(0), 64);
        assert_eq!(t1, t2);
        assert_eq!(d.queued(), 0);
    }
}
