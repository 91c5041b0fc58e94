//! Driver-side protocol: fault batching, fault resolution, and mapping
//! delivery.
//!
//! Every handler here runs on the host lane, which is serviced serially on
//! the driver thread while the GPU workers sit at the epoch barrier. That
//! gives the host exclusive access to every lane, so delivering a mapping is
//! a direct push into the target lane's queue via
//! [`HostState::sched_lane`] rather than a mailbox hop.

use mem_model::interconnect::Node;
use sim_engine::Cycle;
use uvm_driver::fault::FarFault;
use uvm_driver::policy::MigrationPolicy;
use vm_model::pte::Pte;

use super::observe::{HOST_PID, MIG_PID};
use super::{broadcast_prt_record, lane_mut, msg, Ev, GpuLane, OrInvariant, Shared, SimError};
use crate::config::Scheme;
use vm_model::addr::Vpn;

impl super::HostState {
    /// A far fault reaches the driver: batch it (256 per batch) and
    /// schedule a window flush for stragglers.
    pub(crate) fn on_fault_at_host(
        &mut self,
        sh: &Shared,
        fault: FarFault,
    ) -> Result<(), SimError> {
        if let Some(batch) = self.batcher.push(fault) {
            self.process_fault_batch(sh, batch)?;
        } else if !self.batch_flush_scheduled {
            self.batch_flush_scheduled = true;
            let at = self.now + sh.cfg.host.batch_window;
            self.q.schedule(at, Ev::BatchWindow);
        }
        Ok(())
    }

    /// Batch-window expiry: flush whatever is pending.
    pub(crate) fn on_batch_window(&mut self, sh: &Shared) -> Result<(), SimError> {
        self.batch_flush_scheduled = false;
        if let Some(batch) = self.batcher.flush() {
            self.process_fault_batch(sh, batch)?;
        }
        Ok(())
    }

    /// Resolves each batched fault through the host walker pool.
    fn process_fault_batch(&mut self, sh: &Shared, batch: Vec<FarFault>) -> Result<(), SimError> {
        if self.tracer.is_enabled() {
            let track = self.host_track();
            let now = self.now;
            self.tracer.instant(
                "driver",
                "fault batch",
                track,
                now,
                &[("faults", batch.len() as u64)],
            );
            // Counter series sampled at batch points: sim-time-driven, so
            // the samples stay deterministic across identical runs.
            self.tracer
                .counter("driver.batch_size", HOST_PID, now, batch.len() as u64);
            self.tracer.counter(
                "migrations.in_flight",
                MIG_PID,
                now,
                self.migrations.in_flight() as u64,
            );
        }
        let latency = Cycle(sh.cfg.host.walk_latency.raw());
        for &fault in &batch {
            let start = self.now.max(self.host_walkers.earliest_free());
            self.host_walkers
                .try_acquire(start, latency)
                .or_invariant("no host walker free at its own earliest_free time")?;
            self.q
                .schedule(start + latency, Ev::FaultResolved { fault });
        }
        self.batcher.recycle(batch);
        Ok(())
    }

    /// The driver resolved one fault against the centralized page table.
    pub(crate) fn on_fault_resolved(
        &mut self,
        sh: &Shared,
        lanes: &mut [Box<GpuLane>],
        fault: FarFault,
    ) -> Result<(), SimError> {
        // Faults against a migrating page park until the migration ends.
        if self.migrations.is_migrating(fault.vpn) {
            self.migrations.park_waiter(fault);
            return Ok(());
        }
        if self.tracer.is_enabled() {
            // Retroactive: covers raise → this resolution pass. A fault that
            // escalates to a migration below is replayed afterwards and then
            // emits a second, longer span covering the full window.
            let track = self.fault_track(sh, lanes, &fault);
            let now = self.now;
            self.tracer.span(
                "fault",
                "far fault",
                track,
                fault.raised_at,
                now,
                &[("vpn", fault.vpn.0), ("gpu", fault.gpu as u64)],
            );
        }
        let owner = self.owner_of(fault.vpn)?;
        match owner {
            Node::Host => {
                // First GPU touch: migrate CPU→GPU (no GPU holds a mapping,
                // so there is nothing to invalidate — common to all
                // policies).
                if self
                    .host_mem
                    .move_page(fault.vpn, Node::Gpu(fault.gpu))
                    .is_err()
                {
                    // Device full: fall back to a (slow) host remote map.
                    let pte = self
                        .host_mem
                        .pte(fault.vpn)
                        .or_invariant("faulting page lost its host PTE")?;
                    self.send_mapping(lanes, fault.gpu, fault.vpn, pte, msg::MAP);
                    return Ok(());
                }
                self.dir_record(fault.vpn, fault.gpu);
                broadcast_prt_record(sh, lanes, fault.vpn, fault.gpu);
                let pte = self
                    .host_mem
                    .pte(fault.vpn)
                    .or_invariant("faulting page lost its host PTE")?;
                let arrive = self.xfer_down(fault.gpu, sh.page_bytes());
                self.sched_lane(
                    lanes,
                    fault.gpu,
                    arrive,
                    Ev::MappingToGpu {
                        vpn: fault.vpn,
                        pte: Pte::new_mapped(pte.ppn(), true),
                    },
                );
            }
            Node::Gpu(h) if h == fault.gpu => {
                // Already local (stale fault raced a completed migration).
                let holders = self.replicas.holders(fault.vpn);
                if sh.cfg.scheme == Scheme::Replication && fault.is_write && holders.len() > 1 {
                    // The writer owns the page but read replicas are still
                    // outstanding: collapse them before granting write
                    // permission.
                    let targets = self.replicas.collapse_for_write(fault.vpn, fault.gpu);
                    self.start_migration(sh, lanes, fault.vpn, h, fault.gpu, Some(targets))?;
                    self.migrations.park_waiter(fault);
                    return Ok(());
                }
                self.dir_record(fault.vpn, fault.gpu);
                let ppn = self
                    .host_mem
                    .pte(fault.vpn)
                    .or_invariant("faulting page lost its host PTE")?
                    .ppn();
                let writable = sh.cfg.scheme != Scheme::Replication || holders.len() <= 1;
                self.send_mapping(
                    lanes,
                    fault.gpu,
                    fault.vpn,
                    Pte::new_mapped(ppn, writable),
                    msg::MAP,
                );
            }
            Node::Gpu(h) => {
                let replication = sh.cfg.scheme == Scheme::Replication;
                if replication && !fault.is_write {
                    self.grant_replica(sh, lanes, fault, h)?;
                } else if replication && fault.is_write {
                    // Write collapse: invalidate all other copies and move
                    // ownership to the writer. The owner holds a valid local
                    // mapping even when it was never registered as a replica
                    // holder (pre-placed pages), so it is always targeted.
                    let mut targets = self.replicas.collapse_for_write(fault.vpn, fault.gpu);
                    if h != fault.gpu {
                        targets.insert(h);
                    }
                    self.start_migration(sh, lanes, fault.vpn, h, fault.gpu, Some(targets))?;
                    self.migrations.park_waiter(fault);
                } else if sh.cfg.policy == MigrationPolicy::OnTouch
                    && !self.migration_throttled(sh, fault.vpn)
                {
                    self.start_migration(sh, lanes, fault.vpn, h, fault.gpu, None)?;
                    self.migrations.park_waiter(fault);
                } else {
                    // Remote mapping: the local page table will point at the
                    // remote GPU's frame (first-touch and counter-based).
                    self.dir_record(fault.vpn, fault.gpu);
                    broadcast_prt_record(sh, lanes, fault.vpn, h);
                    let ppn = self
                        .host_mem
                        .pte(fault.vpn)
                        .or_invariant("faulting page lost its host PTE")?
                        .ppn();
                    self.send_mapping(
                        lanes,
                        fault.gpu,
                        fault.vpn,
                        Pte::new_mapped(ppn, true),
                        msg::MAP,
                    );
                }
            }
        }
        Ok(())
    }

    /// Grants a read replica of `vpn` (owned by `owner`) to the faulting
    /// GPU: allocate a local frame, ship the page over NVLink, and install a
    /// read-only mapping. The owner is downgraded to read-only so its next
    /// write triggers the collapse protocol.
    fn grant_replica(
        &mut self,
        sh: &Shared,
        lanes: &mut [Box<GpuLane>],
        fault: FarFault,
        owner: usize,
    ) -> Result<(), SimError> {
        // Already a holder (a stale fault after a TLB shootdown): replay the
        // existing replica mapping instead of leaking a fresh frame.
        if self.replicas.holds(fault.vpn, fault.gpu) {
            if let Some(&ppn) = self.replica_frames.get(&(fault.gpu, fault.vpn)) {
                self.send_mapping(
                    lanes,
                    fault.gpu,
                    fault.vpn,
                    Pte::new_mapped(ppn, false),
                    msg::MAP,
                );
                return Ok(());
            }
            // The owner holds the primary copy, not a replica frame.
            let ppn = self
                .host_mem
                .pte(fault.vpn)
                .or_invariant("replicated page lost its host PTE")?
                .ppn();
            self.send_mapping(
                lanes,
                fault.gpu,
                fault.vpn,
                Pte::new_mapped(ppn, false),
                msg::MAP,
            );
            return Ok(());
        }
        let Ok(copy_ppn) = self.host_mem.alloc_frame(Node::Gpu(fault.gpu)) else {
            // Device full: degrade to a remote mapping.
            self.dir_record(fault.vpn, fault.gpu);
            let ppn = self
                .host_mem
                .pte(fault.vpn)
                .or_invariant("replicated page lost its host PTE")?
                .ppn();
            self.send_mapping(
                lanes,
                fault.gpu,
                fault.vpn,
                Pte::new_mapped(ppn, true),
                msg::MAP,
            );
            return Ok(());
        };
        if self.replicas.holders(fault.vpn).is_empty() {
            // First replication: the owner becomes a tracked (read-only)
            // holder; downgrade its mapping.
            self.replicas.add_replica(fault.vpn, owner);
            let owner_ppn = self
                .host_mem
                .pte(fault.vpn)
                .or_invariant("replicated page lost its host PTE")?
                .ppn();
            lane_mut(lanes, owner).gpu.shootdown(fault.vpn);
            self.send_mapping(
                lanes,
                owner,
                fault.vpn,
                Pte::new_mapped(owner_ppn, false),
                msg::MAP,
            );
        }
        self.replicas.add_replica(fault.vpn, fault.gpu);
        self.replica_frames.insert((fault.gpu, fault.vpn), copy_ppn);
        self.dir_record(fault.vpn, fault.gpu);
        let arrive = self.xfer_from(lanes, Node::Gpu(owner), fault.gpu, sh.page_bytes());
        self.sched_lane(
            lanes,
            fault.gpu,
            arrive,
            Ev::MappingToGpu {
                vpn: fault.vpn,
                pte: Pte::new_mapped(copy_ppn, false),
            },
        );
        Ok(())
    }

    /// Sends a PTE (new mapping) to a GPU over PCIe.
    pub(crate) fn send_mapping(
        &mut self,
        lanes: &mut [Box<GpuLane>],
        gpu: usize,
        vpn: Vpn,
        pte: Pte,
        bytes: u64,
    ) {
        let arrive = self.xfer_down(gpu, bytes);
        self.sched_lane(lanes, gpu, arrive, Ev::MappingToGpu { vpn, pte });
    }
}
