//! The migration/invalidation protocol — the heart of what IDYLL optimises.
//!
//! Driver-side handlers (`HostState`) run serially on the host lane with
//! exclusive access to every GPU lane; the GPU-side invalidation handler
//! (`GpuLane::on_inval_arrive`) runs on the target lane and acks back
//! through its mailbox.

use std::sync::Mutex;

use gpu_model::gmmu::WalkClass;
use mem_model::gpuset::GpuSet;
use mem_model::interconnect::Node;
use sim_engine::Cycle;
use vm_model::addr::Vpn;
use vm_model::pte::Pte;

use crate::config::DirectoryMode;

use super::{lock_lane, msg, Ev, GpuLane, HostState, OrInvariant, Shared, SimError};

impl HostState {
    /// A counter-triggered migration request reaches the driver.
    pub(crate) fn on_mig_request(
        &mut self,
        sh: &Shared,
        lanes: &[Mutex<GpuLane>],
        vpn: Vpn,
        to: usize,
    ) -> Result<(), SimError> {
        if self.migrations.is_migrating(vpn) || self.migration_throttled(sh, vpn) {
            return Ok(()); // in flight or anti-thrash cooldown
        }
        let owner = self.owner_of(vpn)?;
        if owner == Node::Gpu(to) {
            return Ok(()); // stale request: the page already moved here
        }
        let Node::Gpu(from) = owner else {
            return Ok(()); // still host-resident: first touch will migrate it
        };
        self.start_migration(sh, lanes, vpn, from, to, None)
    }

    /// Whether a new migration of `vpn` is throttled by the anti-thrash
    /// cooldown.
    pub(crate) fn migration_throttled(&self, sh: &Shared, vpn: Vpn) -> bool {
        self.last_migration
            .get(&vpn)
            .map(|&t| self.now.saturating_sub(t) < sh.cfg.host.migration_cooldown)
            .unwrap_or(false)
    }

    /// Starts the invalidation phase of a migration. `explicit_targets`
    /// overrides the directory (used by the replication write-collapse,
    /// which knows its holders exactly).
    pub(crate) fn start_migration(
        &mut self,
        sh: &Shared,
        lanes: &[Mutex<GpuLane>],
        vpn: Vpn,
        from: usize,
        to: usize,
        explicit_targets: Option<GpuSet>,
    ) -> Result<(), SimError> {
        if self.migrations.is_migrating(vpn) {
            return Ok(());
        }
        // Any access counter or PRT fingerprint pointing at this page is
        // about to go stale — one lock pass over the lanes.
        for g in 0..lanes.len() {
            let mut lane = lock_lane(lanes, g);
            lane.counters.reset_page(vpn);
            if let Some(prt) = lane.prt.as_mut() {
                prt.invalidate(vpn);
            }
        }
        let directory = sh
            .cfg
            .idyll
            .map(|i| i.directory)
            .unwrap_or(DirectoryMode::Broadcast);
        // The driver always performs its own page-table walk for the
        // invalidation (it must invalidate/update the host PTE).
        let walk_start = self.now.max(self.host_walkers.earliest_free());
        let walk_latency = sh.cfg.host.walk_latency;
        self.host_walkers
            .try_acquire(walk_start, walk_latency)
            .or_invariant("no host walker free at its own earliest_free time")?;
        let host_walk_done_at = walk_start + walk_latency;

        match explicit_targets {
            Some(targets) => {
                // Write collapse: exact holders known from the replica
                // directory; send immediately.
                self.migrations
                    .start(vpn, Node::Gpu(from), to, targets, self.now);
                self.q
                    .schedule(host_walk_done_at, Ev::MigHostWalkDone { vpn });
                self.send_invalidations(lanes, vpn, targets);
            }
            None => match directory {
                DirectoryMode::Broadcast => {
                    // Baseline: "the UVM driver simply broadcasts page table
                    // invalidation requests to all GPUs" — before its own
                    // walk completes.
                    let targets = GpuSet::all(sh.cfg.n_gpus);
                    self.migrations
                        .start(vpn, Node::Gpu(from), to, targets, self.now);
                    self.q
                        .schedule(host_walk_done_at, Ev::MigHostWalkDone { vpn });
                    self.send_invalidations(lanes, vpn, targets);
                }
                DirectoryMode::InPte { .. } => {
                    // IDYLL: the host walk must complete before the access
                    // bits are readable; targets are determined (and the
                    // invalidations sent) in `on_mig_host_walk_done`.
                    self.migrations
                        .start(vpn, Node::Gpu(from), to, GpuSet::empty(), self.now);
                    self.pending_dir_lookup.insert(vpn);
                    self.q
                        .schedule(host_walk_done_at, Ev::MigHostWalkDone { vpn });
                }
                DirectoryMode::InMem => {
                    // IDYLL-InMem: the VM-Cache/VM-Table lookup runs in
                    // parallel with the host walk; invalidations go out as
                    // soon as the lookup returns, and the driver's state is
                    // complete at max(walk, lookup).
                    let vm = self
                        .vm_dir
                        .as_mut()
                        .or_invariant("InMem directory mode without a VM directory")?;
                    let (targets, access) = vm.invalidation_targets(vpn, to);
                    let lookup_latency = if access.cache_hit {
                        sh.cfg.host.vm_cache_latency
                    } else {
                        sh.cfg.host.vm_cache_latency + sh.cfg.host.vm_table_latency
                    };
                    self.migrations
                        .start(vpn, Node::Gpu(from), to, targets, self.now);
                    self.q.schedule(
                        self.now + lookup_latency,
                        Ev::MigSendInvals { vpn, targets },
                    );
                    self.q.schedule(
                        host_walk_done_at.max(self.now + lookup_latency),
                        Ev::MigHostWalkDone { vpn },
                    );
                }
            },
        }
        if self.tracer.is_enabled() {
            if let Some(id) = self.migrations.get(vpn).map(|m| m.id) {
                let track = self.mig_track(id);
                let now = self.now;
                self.tracer.instant(
                    "migration",
                    "migration requested",
                    track,
                    now,
                    &[("vpn", vpn.0), ("from", from as u64), ("to", to as u64)],
                );
            }
        }
        Ok(())
    }

    /// The driver's own walk finished. For the in-PTE directory this is the
    /// moment the access bits become readable: compute targets, clear the
    /// bits, and send the (filtered) invalidations.
    pub(crate) fn on_mig_host_walk_done(
        &mut self,
        sh: &Shared,
        lanes: &[Mutex<GpuLane>],
        vpn: Vpn,
    ) -> Result<(), SimError> {
        if self.pending_dir_lookup.remove(&vpn) {
            let dir = self
                .in_pte_dir
                .or_invariant("pending directory lookup outside InPte mode")?;
            let pte = self
                .host_mem
                .pte_mut(vpn)
                .or_invariant("migrating page lost its host PTE")?;
            let targets = dir.invalidation_targets(pte);
            dir.clear(pte);
            if let Some(m) = self.migrations.get_mut(vpn) {
                m.targets = targets;
                m.pending_acks = targets;
            }
            self.send_invalidations(lanes, vpn, targets);
        }
        if self.migrations.host_walk_done(vpn, self.now) {
            self.begin_data_transfer(sh, lanes, vpn)?;
        }
        Ok(())
    }

    /// Fans invalidation requests out to `targets` over PCIe.
    pub(crate) fn send_invalidations(
        &mut self,
        lanes: &[Mutex<GpuLane>],
        vpn: Vpn,
        targets: GpuSet,
    ) {
        for g in targets.iter() {
            let at = self.xfer_down(g, msg::INVAL);
            self.sched_lane(lanes, g, at, Ev::InvalArrive { vpn });
        }
    }

    /// An invalidation ack reaches the driver.
    pub(crate) fn on_ack_at_host(
        &mut self,
        sh: &Shared,
        lanes: &[Mutex<GpuLane>],
        gpu: usize,
        vpn: Vpn,
    ) -> Result<(), SimError> {
        if self.tracer.is_enabled() {
            if let Some(id) = self.migrations.get(vpn).map(|m| m.id) {
                let track = self.mig_track(id);
                let now = self.now;
                self.tracer.instant(
                    "invalidation",
                    "invalidation ack",
                    track,
                    now,
                    &[("vpn", vpn.0), ("gpu", gpu as u64)],
                );
            }
        }
        if self.migrations.ack(vpn, gpu, self.now) {
            self.begin_data_transfer(sh, lanes, vpn)?;
        }
        Ok(())
    }

    /// Invalidation phase complete: record the waiting latency and ship the
    /// page data.
    fn begin_data_transfer(
        &mut self,
        sh: &Shared,
        lanes: &[Mutex<GpuLane>],
        vpn: Vpn,
    ) -> Result<(), SimError> {
        let (from, to, waiting) = {
            let m = self
                .migrations
                .get(vpn)
                .or_invariant("data transfer for a migration that is not in flight")?;
            (m.from, m.to, m.waiting_latency().unwrap_or(Cycle::ZERO))
        };
        self.migration_waiting.record(waiting.raw() as f64);
        // If the destination already holds a replica, no bytes move.
        let arrive = if self.replicas.holds(vpn, to) {
            self.now
        } else {
            self.xfer_from(lanes, from, to, sh.page_bytes())
        };
        self.q.schedule(arrive, Ev::MigDataDone { vpn });
        Ok(())
    }

    /// Page data landed: move ownership, establish the new mapping, replay
    /// parked faults.
    pub(crate) fn on_mig_data_done(
        &mut self,
        sh: &Shared,
        lanes: &[Mutex<GpuLane>],
        vpn: Vpn,
    ) -> Result<(), SimError> {
        let m = self
            .migrations
            .complete(vpn)
            .or_invariant("data arrived for a migration that is not in flight")?;
        if self.tracer.is_enabled() {
            // The whole lifecycle is emitted retroactively here, from
            // timestamps the migration table already keeps: request →
            // invalidation-phase end → data arrival.
            let inval_done = m.invalidation_done_at.unwrap_or(self.now);
            let track = self.mig_track(m.id);
            let now = self.now;
            let targets = m.targets.iter().count() as u64;
            self.tracer.span(
                "migration",
                "migration",
                track,
                m.requested_at,
                now,
                &[("vpn", vpn.0), ("to", m.to as u64)],
            );
            self.tracer.span(
                "invalidation",
                "invalidation broadcast",
                track,
                m.requested_at,
                inval_done,
                &[("vpn", vpn.0), ("targets", targets)],
            );
            self.tracer.span(
                "migration",
                "migration data transfer",
                track,
                inval_done,
                now,
                &[("vpn", vpn.0)],
            );
            self.tracer.instant(
                "migration",
                "replay parked faults",
                track,
                now,
                &[("waiters", m.waiters.len() as u64)],
            );
        }
        for g in 0..lanes.len() {
            lock_lane(lanes, g).inval_done.remove(&vpn);
        }
        // Free every replica frame the collapse invalidated — including the
        // destination's own replica copy (it receives the migrated primary
        // frame instead; keeping the copy would leak a frame per collapse).
        let dropped = self.replicas.forget(vpn);
        for g in dropped.iter() {
            if let Some(ppn) = self.replica_frames.remove(&(g, vpn)) {
                self.host_mem.free_frame(ppn);
            }
        }
        self.replica_frames.remove(&(m.to, vpn));
        if self.host_mem.move_page(vpn, Node::Gpu(m.to)).is_err() {
            // Destination out of frames: ownership stays put. Serve every
            // parked waiter a plain (writable) remote mapping directly so
            // the system keeps making progress instead of re-entering the
            // replication policy and re-failing forever.
            let ppn = self
                .host_mem
                .pte(vpn)
                .or_invariant("migrating page lost its host PTE")?
                .ppn();
            for fault in m.waiters {
                self.dir_record(vpn, fault.gpu);
                self.send_mapping(lanes, fault.gpu, vpn, Pte::new_mapped(ppn, true), msg::MAP);
            }
            return Ok(());
        }
        if sh.cfg.replication {
            self.replicas.add_replica(vpn, m.to);
        }
        self.dir_record(vpn, m.to);
        super::broadcast_prt_record(sh, lanes, vpn, m.to);
        self.last_migration.insert(vpn, self.now);
        self.migrations_done += 1;
        self.migration_total
            .record((self.now.saturating_sub(m.requested_at)).raw() as f64);
        let new_ppn = self
            .host_mem
            .pte(vpn)
            .or_invariant("migrated page has no host PTE at its destination")?
            .ppn();
        // The new mapping is installed at the destination (data already
        // arrived with the transfer): deliver it like any other mapping.
        self.sched_lane(
            lanes,
            m.to,
            self.now,
            Ev::MappingToGpu {
                vpn,
                pte: Pte::new_mapped(new_ppn, true),
            },
        );
        // Replay parked far faults.
        for fault in m.waiters {
            self.q.schedule(self.now + 1, Ev::FaultResolved { fault });
        }
        Ok(())
    }
}

impl GpuLane {
    /// An invalidation request arrives at this GPU. The TLB shootdown is
    /// immediate in every scheme; the PTE handling differs: baseline walks,
    /// IDYLL inserts into the IRMB, the idealised scheme updates instantly.
    pub(crate) fn on_inval_arrive(&mut self, sh: &Shared, vpn: Vpn) -> Result<(), SimError> {
        self.invalidation_messages += 1;
        if self.tracer.is_enabled() {
            let track = self.gmmu_track();
            let now = self.now;
            self.tracer.instant(
                "invalidation",
                "invalidation arrived",
                track,
                now,
                &[("vpn", vpn.0)],
            );
        }
        self.gpu.shootdown(vpn);
        // If this GPU owns the page's data, its cached lines must go.
        if let Some(pte) = self.gpu.page_table.lookup(vpn) {
            if sh.memmap.owner(pte.ppn()) == super::Node::Gpu(self.id) {
                let base = pte.ppn() * sh.page_bytes();
                self.gpu.drop_page_lines(base);
            }
        }
        if sh.cfg.zero_latency_invalidation {
            // Idealised: the PTE is updated instantaneously and the ack is
            // free (it still crosses lanes as a zero-latency message).
            self.inval_done.insert(vpn);
            let necessary = self.gpu.page_table.invalidate(vpn);
            if necessary {
                self.walker_mix.invalidation_necessary += 1;
            } else {
                self.walker_mix.invalidation_unnecessary += 1;
            }
            let now = self.now;
            let gpu = self.id;
            self.send_host(now, Ev::AckAtHost { gpu, vpn });
            return Ok(());
        }
        if self.irmb.is_some() {
            // IDYLL: buffer in the IRMB and ack immediately; evictions
            // trigger batched write-back walks. The IRMB entry itself makes
            // the stale PTE unusable, so the invalidation counts as locally
            // processed from this point.
            self.inval_done.insert(vpn);
            let outcome = self.irmb.as_mut().map(|i| i.insert(vpn));
            use idyll_core::irmb::InsertOutcome;
            match outcome {
                Some(InsertOutcome::EvictedLru(entry))
                | Some(InsertOutcome::EvictedOffsets(entry)) => {
                    // The evicted entry is owned here, so its VPNs can be
                    // walked without collecting into a scratch Vec.
                    for v in entry.vpns() {
                        self.enqueue_walk(v, WalkClass::IrmbWriteback, 0)?;
                    }
                }
                _ => {}
            }
            let at = self.xfer_host_at(self.now, msg::ACK);
            let gpu = self.id;
            self.send_host(at, Ev::AckAtHost { gpu, vpn });
            // A write-back opportunity may exist right away.
            return self.dispatch_walks();
        }
        // Baseline: a PTE-invalidation walk through the contended GMMU; the
        // ack is sent when the walk completes (see `on_walk_done`).
        self.enqueue_walk(vpn, WalkClass::Invalidation, 0)
    }
}
