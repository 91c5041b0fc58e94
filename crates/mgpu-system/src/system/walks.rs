//! Dispatched page walks awaiting their `WalkDone` event.
//!
//! A [`DispatchedWalk`] is 88 bytes; carrying it inside the event would
//! make every `Ev` — and so every lane-queue slot, outbox entry and barrier
//! route — that large. The lane parks the walk here instead and the event
//! carries its slot number. Freed slots are reused last-in first-out, so
//! the table stays as large as the most walks ever in flight at once: a
//! walker can start a walk in the cycle an earlier one's `WalkDone` is
//! still queued, so that is about twice the walker-thread count (15 slots
//! per GPU on MT/32 at `small`, with 8 walkers).

use gpu_model::gmmu::DispatchedWalk;

/// The lane's in-flight walks, indexed by slot.
#[derive(Default)]
pub(crate) struct WalkSlab {
    slots: Vec<Option<DispatchedWalk>>,
    free: Vec<u32>,
}

impl WalkSlab {
    /// Parks `walk` and returns its slot.
    #[expect(
        clippy::expect_used,
        reason = "capacity backstop: 4G walks in flight on one GPU means the sim already diverged"
    )]
    pub(crate) fn insert(&mut self, walk: DispatchedWalk) -> u32 {
        if let Some(slot) = self.free.pop() {
            if let Some(s) = self.slots.get_mut(slot as usize) {
                *s = Some(walk);
                return slot;
            }
        }
        let slot = u32::try_from(self.slots.len()).expect("walk slab exceeds u32::MAX slots");
        self.slots.push(Some(walk));
        slot
    }

    /// Removes and returns the walk parked in `slot`.
    pub(crate) fn take(&mut self, slot: u32) -> Option<DispatchedWalk> {
        let walk = self.slots.get_mut(slot as usize)?.take()?;
        self.free.push(slot);
        Some(walk)
    }

    /// Bytes of the slots ever allocated, one per walk in flight at the
    /// busiest moment.
    pub(crate) fn footprint_bytes(&self) -> usize {
        std::mem::size_of_val(self.slots.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_model::gmmu::{Gmmu, GmmuConfig, WalkClass};
    use sim_engine::Cycle;
    use vm_model::addr::{PageSize, Vpn};
    use vm_model::page_table::PageTable;

    fn walk(vpn: u64) -> DispatchedWalk {
        let mut pt = PageTable::new(PageSize::Size4K);
        let mut gmmu = Gmmu::new(GmmuConfig::default(), PageSize::Size4K);
        gmmu.enqueue(Vpn(vpn), WalkClass::Demand, vpn, Cycle(0))
            .unwrap();
        gmmu.try_dispatch(Cycle(0), &mut pt).unwrap()
    }

    #[test]
    fn slots_are_reused_and_taken_once() {
        let mut slab = WalkSlab::default();
        let a = slab.insert(walk(1));
        let b = slab.insert(walk(2));
        assert_ne!(a, b);
        assert_eq!(slab.take(a).map(|w| w.request.vpn), Some(Vpn(1)));
        assert!(slab.take(a).is_none(), "a slot is taken once");
        assert_eq!(slab.insert(walk(3)), a, "the freed slot is reused");
        assert_eq!(
            slab.footprint_bytes(),
            2 * std::mem::size_of::<Option<DispatchedWalk>>()
        );
        assert_eq!(slab.take(b).map(|w| w.request.vpn), Some(Vpn(2)));
        assert!(slab.take(7).is_none(), "out of range");
    }
}
