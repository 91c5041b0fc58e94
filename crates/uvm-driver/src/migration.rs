//! In-flight page-migration bookkeeping.
//!
//! A counter-triggered migration proceeds in phases (§3.3):
//!
//! 1. the requesting GPU sends a migration request to the driver;
//! 2. the driver issues PTE invalidations (broadcast in the baseline,
//!    directory-directed under IDYLL) and walks its own table;
//! 3. every targeted GPU acknowledges its shootdown/invalidation, and the
//!    host walk completes — the interval from (1) to the end of (3) is the
//!    paper's *page-migration waiting latency* (Figure 7/14);
//! 4. the page data moves and the new mapping is established.
//!
//! Far faults that arrive for a migrating page park here and are replayed
//! when the migration completes.

use mem_model::gpuset::GpuSet;
use mem_model::interconnect::{GpuId, Node};
use sim_engine::collections::DetHashMap;
use sim_engine::Cycle;
use vm_model::addr::Vpn;

use crate::fault::FarFault;

/// Phase of an in-flight migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationPhase {
    /// Waiting for invalidation acks and/or the host page-table walk.
    Invalidating,
    /// Invalidation complete; page data in flight.
    Transferring,
}

/// One in-flight migration.
#[derive(Debug, Clone)]
pub struct Migration {
    /// Unique id.
    pub id: u64,
    /// The migrating page.
    pub vpn: Vpn,
    /// Source device.
    pub from: Node,
    /// Destination GPU.
    pub to: GpuId,
    /// When the driver received the request.
    pub requested_at: Cycle,
    /// Current phase.
    pub phase: MigrationPhase,
    /// GPUs that still owe an invalidation ack.
    pub pending_acks: GpuSet,
    /// GPUs the invalidation was sent to (for statistics).
    pub targets: GpuSet,
    /// Whether the driver's own page-table walk has finished.
    pub host_walk_done: bool,
    /// When the invalidation phase finished (acks + host walk).
    pub invalidation_done_at: Option<Cycle>,
    /// Far faults parked on this page, replayed at completion.
    pub waiters: Vec<FarFault>,
}

impl Migration {
    /// Whether invalidation is fully complete (all acks + host walk).
    pub fn invalidation_complete(&self) -> bool {
        self.pending_acks.is_empty() && self.host_walk_done
    }

    /// The waiting latency accrued so far / in total (Figure 7's metric).
    pub fn waiting_latency(&self) -> Option<Cycle> {
        self.invalidation_done_at
            .map(|t| t.saturating_sub(self.requested_at))
    }
}

/// Table of in-flight migrations, keyed by page.
///
/// At most one migration per page can be in flight; a second request for the
/// same page while one is active is dropped (the requester's counters have
/// been reset anyway).
#[derive(Debug, Clone, Default)]
pub struct MigrationTable {
    active: DetHashMap<Vpn, Migration>,
    next_id: u64,
    started: u64,
    dropped_duplicates: u64,
}

impl MigrationTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        MigrationTable::default()
    }

    /// Starts tracking a migration of `vpn` from `from` to `to`. Returns
    /// `None` (and counts a duplicate) when one is already in flight.
    pub fn start(
        &mut self,
        vpn: Vpn,
        from: Node,
        to: GpuId,
        targets: GpuSet,
        requested_at: Cycle,
    ) -> Option<&mut Migration> {
        if self.active.contains_key(&vpn) {
            self.dropped_duplicates += 1;
            return None;
        }
        self.next_id += 1;
        self.started += 1;
        let id = self.next_id;
        self.active.insert(
            vpn,
            Migration {
                id,
                vpn,
                from,
                to,
                requested_at,
                phase: MigrationPhase::Invalidating,
                pending_acks: targets,
                targets,
                host_walk_done: false,
                invalidation_done_at: None,
                waiters: Vec::new(),
            },
        );
        self.active.get_mut(&vpn)
    }

    /// Whether `vpn` is currently migrating.
    pub fn is_migrating(&self, vpn: Vpn) -> bool {
        self.active.contains_key(&vpn)
    }

    /// Immutable access to an in-flight migration.
    pub fn get(&self, vpn: Vpn) -> Option<&Migration> {
        self.active.get(&vpn)
    }

    /// Mutable access to an in-flight migration.
    pub fn get_mut(&mut self, vpn: Vpn) -> Option<&mut Migration> {
        self.active.get_mut(&vpn)
    }

    /// Records an invalidation ack from `gpu`; returns `true` when that
    /// completed the invalidation phase (all acks in *and* host walk done).
    pub fn ack(&mut self, vpn: Vpn, gpu: GpuId, now: Cycle) -> bool {
        let Some(m) = self.active.get_mut(&vpn) else {
            return false;
        };
        m.pending_acks.remove(gpu);
        Self::maybe_finish_invalidation(m, now)
    }

    /// Records completion of the host-side walk; returns `true` when that
    /// completed the invalidation phase.
    pub fn host_walk_done(&mut self, vpn: Vpn, now: Cycle) -> bool {
        let Some(m) = self.active.get_mut(&vpn) else {
            return false;
        };
        m.host_walk_done = true;
        Self::maybe_finish_invalidation(m, now)
    }

    fn maybe_finish_invalidation(m: &mut Migration, now: Cycle) -> bool {
        if m.phase == MigrationPhase::Invalidating && m.invalidation_complete() {
            m.phase = MigrationPhase::Transferring;
            m.invalidation_done_at = Some(now);
            true
        } else {
            false
        }
    }

    /// Parks a far fault on a migrating page.
    ///
    /// # Panics
    /// Panics if no migration is in flight for the fault's page.
    #[expect(
        clippy::expect_used,
        reason = "documented `# Panics` contract: callers check is_migrating before parking"
    )]
    pub fn park_waiter(&mut self, fault: FarFault) {
        self.active
            .get_mut(&fault.vpn)
            .expect("parking on a non-migrating page")
            .waiters
            .push(fault);
    }

    /// Completes and removes the migration, returning its record (with
    /// parked waiters) for replay.
    pub fn complete(&mut self, vpn: Vpn) -> Option<Migration> {
        self.active.remove(&vpn)
    }

    /// Number of in-flight migrations.
    pub fn in_flight(&self) -> usize {
        self.active.len()
    }

    /// Migrations ever started.
    pub fn started(&self) -> u64 {
        self.started
    }

    /// Duplicate requests dropped.
    pub fn dropped_duplicates(&self) -> u64 {
        self.dropped_duplicates
    }

    /// Iterates over in-flight migrations, in unspecified order. Callers
    /// must not let visit order reach simulation state or exports (the only
    /// caller aggregates order-insensitively for debug dumps).
    pub fn iter(&self) -> impl Iterator<Item = &Migration> {
        #[expect(
            clippy::disallowed_methods,
            reason = "debug/aggregate-only; order never escapes"
        )]
        self.active.iter_unordered().map(|(_, m)| m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(table: &mut MigrationTable) -> &mut Migration {
        table
            .start(
                Vpn(7),
                Node::Gpu(1),
                0,
                GpuSet::from_mask(0b0110),
                Cycle(100),
            )
            .unwrap()
    }

    #[test]
    fn lifecycle_acks_then_host_walk() {
        let mut t = MigrationTable::new();
        start(&mut t);
        assert!(t.is_migrating(Vpn(7)));
        assert!(!t.ack(Vpn(7), 1, Cycle(150)));
        assert!(!t.ack(Vpn(7), 2, Cycle(180)), "host walk still pending");
        assert!(t.host_walk_done(Vpn(7), Cycle(200)));
        let m = t.get(Vpn(7)).unwrap();
        assert_eq!(m.phase, MigrationPhase::Transferring);
        assert_eq!(m.waiting_latency(), Some(Cycle(100)));
        let done = t.complete(Vpn(7)).unwrap();
        assert_eq!(done.id, 1);
        assert!(!t.is_migrating(Vpn(7)));
    }

    #[test]
    fn host_walk_first_then_acks() {
        let mut t = MigrationTable::new();
        start(&mut t);
        assert!(!t.host_walk_done(Vpn(7), Cycle(120)));
        assert!(!t.ack(Vpn(7), 1, Cycle(150)));
        assert!(t.ack(Vpn(7), 2, Cycle(170)));
        assert_eq!(
            t.get(Vpn(7)).unwrap().invalidation_done_at,
            Some(Cycle(170))
        );
    }

    #[test]
    fn empty_target_set_completes_on_host_walk_alone() {
        // The in-PTE directory can determine no GPU holds the translation.
        let mut t = MigrationTable::new();
        t.start(Vpn(1), Node::Gpu(0), 1, GpuSet::empty(), Cycle(0))
            .unwrap();
        assert!(t.host_walk_done(Vpn(1), Cycle(50)));
    }

    #[test]
    fn duplicate_requests_dropped() {
        let mut t = MigrationTable::new();
        start(&mut t);
        assert!(t
            .start(Vpn(7), Node::Gpu(2), 3, GpuSet::all(4), Cycle(300))
            .is_none());
        assert_eq!(t.dropped_duplicates(), 1);
        assert_eq!(t.started(), 1);
        // The original migration is unchanged.
        assert_eq!(t.get(Vpn(7)).unwrap().to, 0);
    }

    #[test]
    fn waiters_ride_along() {
        let mut t = MigrationTable::new();
        start(&mut t);
        t.park_waiter(FarFault {
            gpu: 3,
            vpn: Vpn(7),
            is_write: false,
            raised_at: Cycle(110),
            token: 42,
        });
        let m = t.complete(Vpn(7)).unwrap();
        assert_eq!(m.waiters.len(), 1);
        assert_eq!(m.waiters[0].token, 42);
    }

    #[test]
    fn ack_on_unknown_page_is_ignored() {
        let mut t = MigrationTable::new();
        assert!(!t.ack(Vpn(1), 0, Cycle(0)));
        assert!(!t.host_walk_done(Vpn(1), Cycle(0)));
        assert!(t.complete(Vpn(1)).is_none());
    }
}
