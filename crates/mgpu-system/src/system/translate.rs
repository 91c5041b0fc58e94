//! Warp issue and the translation pipeline: L1 TLB → L2 TLB ∥ IRMB → GMMU.
//!
//! Every handler here runs on a GPU lane: it owns `self` (this GPU's state)
//! exclusively, reads [`Shared`] and the host lane immutably, and sends
//! cross-domain effects through the lane mailbox ([`GpuLane::to_host`] /
//! [`GpuLane::to_gpu`]) — never by mutating another domain directly (the
//! `cross-domain-mutation` lint rule).

use gpu_model::gmmu::{DispatchedWalk, WalkClass};
use mem_model::mshr::MshrOutcome;
use sim_engine::Cycle;
use vm_model::addr::Vpn;
use vm_model::pte::Pte;
use vm_model::walker::WalkOutcome;

use super::{msg, Ev, GpuLane, HostState, OrInvariant, PendingUpdate, Req, Shared, SimError};

impl GpuLane {
    /// A warp asks to issue its next trace access.
    pub(crate) fn on_warp_ready(
        &mut self,
        sh: &Shared,
        host: &HostState,
        cu: usize,
        warp: usize,
    ) -> Result<(), SimError> {
        const NO_WARP: &str = "warp ready for a warp outside the plan";
        let warp_index = cu * sh.cfg.gpu.warps_per_cu + warp;
        let plan = sh
            .warp_plans
            .get(self.id)
            .and_then(|p| p.get(warp_index))
            .or_invariant(NO_WARP)?;
        let cursor = self
            .warp_cursors
            .get_mut(warp_index)
            .or_invariant(NO_WARP)?;
        let cu_state = self.gpu.cus.get_mut(cu).or_invariant(NO_WARP)?;
        // Plan exhausted → retire the warp.
        let Some(&slot) = plan.get(*cursor) else {
            cu_state.retire(warp);
            if self.gpu.all_done() {
                self.finished = true;
                self.finish_cycle = self.finish_cycle.max(self.now);
            }
            return Ok(());
        };
        // One issue per CU per cycle.
        if !cu_state.try_issue_port(self.now) {
            let at = self.now + 1;
            self.q.schedule(at, Ev::WarpReady { cu, warp });
            return Ok(());
        }
        let access = *sh
            .traces
            .get(self.id)
            .and_then(|t| t.get(slot))
            .or_invariant("warp plan points past its GPU's trace")?;
        *cursor += 1;
        cu_state.issue(warp);
        let req = Req {
            cu,
            warp,
            vpn: access.vpn,
            is_write: access.is_write,
            issue_at: self.now,
            l2_miss_at: None,
        };
        let token = self
            .reqs
            .issue(warp_index, req)
            .or_invariant("warp issued while its previous access is in flight")?;
        // L1 TLB lookup (1 cycle, counted in the data-access start).
        match self.gpu.l1_tlbs.lookup(cu, access.vpn) {
            Some(pte) if pte.is_valid() && (!access.is_write || pte.is_writable()) => {
                let start = self.now + sh.cfg.gpu.l1_tlb.latency;
                self.start_data_access(sh, host, token, pte, start)?;
            }
            _ => {
                // Miss (or permission miss): to the shared L2 after L1+L2
                // lookup latency.
                let at = self.now + sh.cfg.gpu.l1_tlb.latency + sh.cfg.gpu.l2_tlb.latency;
                self.q.schedule(at, Ev::L2Lookup { token });
            }
        }
        Ok(())
    }

    /// L2 TLB lookup (result applied after its latency) with the IRMB
    /// searched in parallel (§6.3 lookup procedure). `is_retry` marks
    /// replays of a lookup parked on a full MSHR: those probe the TLB
    /// without perturbing hit/miss statistics (the architectural lookup
    /// already happened).
    pub(crate) fn on_l2_lookup(
        &mut self,
        sh: &Shared,
        host: &HostState,
        token: u64,
        is_retry: bool,
    ) -> Result<(), SimError> {
        let req = *self
            .reqs
            .get(token)
            .or_invariant("L2 lookup event for a request that no longer exists")?;
        let probed = if is_retry {
            self.gpu.l2_tlb.peek(req.vpn)
        } else {
            self.gpu.l2_tlb.lookup(req.vpn)
        };
        let l2_hit = match probed {
            Some(pte) if pte.is_valid() && (!req.is_write || pte.is_writable()) => Some(pte),
            _ => None,
        };
        if let Some(pte) = l2_hit {
            // Scenario 1: L2 hit — IRMB lookup abandoned.
            self.gpu.l1_tlbs.fill(req.cu, req.vpn, pte);
            let now = self.now;
            return self.start_data_access(sh, host, token, pte, now);
        }
        // Record the start of the demand-miss latency window.
        if let Some(r) = self.reqs.get_mut(token) {
            if r.l2_miss_at.is_none() {
                r.l2_miss_at = Some(self.now);
            }
        }
        // Scenario 3: L2 miss + IRMB hit — the local PTE is stale; bypass
        // the walk and far-fault straight to the driver.
        if self
            .irmb
            .as_mut()
            .map(|i| i.lookup(req.vpn))
            .unwrap_or(false)
        {
            self.raise_far_fault(sh, req.vpn, req.is_write, token, false);
            return Ok(());
        }
        // Scenario 2: L2 miss + IRMB miss — normal walk path via the MSHR.
        match self.gpu.l2_mshr.register(req.vpn.0, token) {
            MshrOutcome::Merged => {} // ride the in-flight walk/fault
            MshrOutcome::Allocated => {
                self.enqueue_walk(req.vpn, WalkClass::Demand, token)?;
            }
            MshrOutcome::Full => {
                // Structural stall: park until an entry is released. A
                // woken lookup that stalls again keeps its place at the
                // front, so the wait list stays FIFO.
                if is_retry {
                    self.mshr_waiters.push_front(token);
                } else {
                    self.mshr_stalls += 1;
                    self.mshr_waiters.push_back(token);
                }
            }
        }
        Ok(())
    }

    /// Queues a walk (or holds it in the lane's overflow buffer when the
    /// hardware queue is full) and kicks the dispatcher.
    pub(crate) fn enqueue_walk(
        &mut self,
        vpn: Vpn,
        class: WalkClass,
        token: u64,
    ) -> Result<(), SimError> {
        // FIFO order: never bypass an already-overflowed walk.
        let rejected = !self.overflow.is_empty()
            || self.gpu.gmmu.enqueue(vpn, class, token, self.now).is_err();
        if rejected {
            self.overflow.push_back((vpn, class, token));
        }
        self.dispatch_walks()
    }

    /// Drains the overflow buffer into the walk queue and starts walks while
    /// walker threads are free. Also performs the IRMB's opportunistic
    /// write-back when the GMMU goes idle (§6.3 write-back rule 1).
    pub(crate) fn dispatch_walks(&mut self) -> Result<(), SimError> {
        loop {
            // Refill the hardware queue from the stall buffer.
            while self.gpu.gmmu.queue_free() > 0 {
                let Some((vpn, class, token)) = self.overflow.pop_front() else {
                    break;
                };
                self.gpu
                    .gmmu
                    .enqueue(vpn, class, token, self.now)
                    .or_invariant("walk queue rejected a request despite free space")?;
            }
            let now = self.now;
            // Split borrow: GMMU and page table are sibling fields.
            let (gmmu, pt) = (&mut self.gpu.gmmu, &mut self.gpu.page_table);
            match gmmu.try_dispatch(now, pt) {
                Some(walk) => {
                    if walk.request.class.is_invalidation() {
                        // The leaf PTE is cleared at dispatch time; record it
                        // now so a concurrently-completing update walk cannot
                        // install over the already-processed invalidation.
                        self.inval_done.insert(walk.request.vpn);
                    }
                    self.q.schedule(walk.finish_at, Ev::WalkDone { walk });
                }
                None => break,
            }
        }
        // Walkers busy with work still queued → re-dispatch when one frees.
        if (self.gpu.gmmu.queue_len() > 0 || !self.overflow.is_empty()) && !self.dispatch_scheduled
        {
            let at = self.gpu.gmmu.next_walker_free().max(self.now + 1);
            self.dispatch_scheduled = true;
            self.q.schedule(at, Ev::DispatchWalks);
        }
        // IRMB opportunistic drain: GMMU fully idle → lazily write back the
        // LRU merged entry.
        let drain_ready = self.gpu.gmmu.is_idle(self.now)
            && self.overflow.is_empty()
            && self.irmb.as_ref().map(|i| !i.is_empty()).unwrap_or(false);
        if drain_ready {
            if let Some(entry) = self.irmb.as_mut().and_then(|i| i.pop_lru()) {
                // `pop_lru` hands the entry over by value, so iterate its
                // VPNs directly instead of collecting a scratch Vec.
                for vpn in entry.vpns() {
                    if self
                        .gpu
                        .gmmu
                        .enqueue(vpn, WalkClass::IrmbWriteback, 0, self.now)
                        .is_err()
                    {
                        self.overflow.push_back((vpn, WalkClass::IrmbWriteback, 0));
                    }
                }
                // Dispatch the drained walks (bounded: the IRMB entry was
                // removed, so this recursion terminates immediately).
                self.dispatch_walks()?;
            }
        }
        Ok(())
    }

    /// A page walk finished: act on its class and outcome.
    pub(crate) fn on_walk_done(
        &mut self,
        sh: &Shared,
        host: &HostState,
        walk: DispatchedWalk,
    ) -> Result<(), SimError> {
        let vpn = walk.request.vpn;
        if self.tracer.is_enabled() {
            self.trace_walk(sh, &walk);
        }
        match walk.request.class {
            WalkClass::Demand => {
                match walk.result.outcome {
                    WalkOutcome::Mapped(pte) => {
                        // Stale-PTE guard: an invalidation may have entered
                        // the IRMB after this walk was enqueued; the merged
                        // buffer is authoritative (§6.3 correctness).
                        let stale = self.irmb.as_ref().map(|i| i.contains(vpn)).unwrap_or(false);
                        let write_violation = {
                            let rep = self.reqs.get(walk.request.token);
                            rep.map(|r| r.is_write && !pte.is_writable())
                                .unwrap_or(false)
                        };
                        if stale || (write_violation && sh.cfg.replication) {
                            let is_write = self
                                .reqs
                                .get(walk.request.token)
                                .map(|r| r.is_write)
                                .unwrap_or(false);
                            self.raise_far_fault(sh, vpn, is_write, walk.request.token, true);
                        } else {
                            self.complete_translation(sh, host, vpn, pte)?;
                        }
                    }
                    WalkOutcome::InvalidLeaf(_) | WalkOutcome::NotPresent => {
                        let is_write = self
                            .reqs
                            .get(walk.request.token)
                            .map(|r| r.is_write)
                            .unwrap_or(false);
                        self.raise_far_fault(sh, vpn, is_write, walk.request.token, true);
                    }
                }
                self.walker_mix.demand += 1;
            }
            WalkClass::Invalidation => {
                self.account_invalidation(&walk);
                // Baseline protocol: ack the driver once the PTE walk is
                // done.
                let at = self.xfer_host_at(self.now, msg::ACK);
                let gpu = self.id;
                self.send_host(at, Ev::AckAtHost { gpu, vpn });
            }
            WalkClass::IrmbWriteback => {
                self.account_invalidation(&walk);
            }
            WalkClass::Update => {
                let update = self
                    .updates
                    .remove(&walk.request.token)
                    .or_invariant("update walk finished but its pending PTE is gone")?;
                self.install_mapping(sh, host, update.vpn, update.pte)?;
                self.walker_mix.update += 1;
            }
        }
        // The finishing walker can immediately take the next request.
        self.dispatch_walks()
    }

    pub(crate) fn account_invalidation(&mut self, walk: &DispatchedWalk) {
        match walk.necessary {
            Some(true) => self.walker_mix.invalidation_necessary += 1,
            Some(false) => self.walker_mix.invalidation_unnecessary += 1,
            None => {}
        }
        self.invalidation_latency
            .record((walk.queued_for + walk.result.latency).raw() as f64);
    }

    /// A new mapping arrives (driver reply, Trans-FW forward, or migration
    /// completion): check the IRMB (a pending invalidation is superseded,
    /// §6.3), then queue the PTE update through the page-walk queue.
    pub(crate) fn on_mapping_to_gpu(&mut self, vpn: Vpn, pte: Pte) -> Result<(), SimError> {
        if let Some(irmb) = self.irmb.as_mut() {
            irmb.remove(vpn);
        }
        let token = self.next_update;
        self.next_update += 1;
        self.updates.insert(token, PendingUpdate { vpn, pte });
        self.enqueue_walk(vpn, WalkClass::Update, token)
    }

    /// Installs a driver-provided PTE in the local table and completes any
    /// waiting translation requests.
    ///
    /// Guard against the reply/invalidation race: a mapping that was in
    /// flight when a migration started must not be installed after the
    /// invalidation has already been processed (the driver versions its
    /// replies; a stale one is dropped and the page re-resolved so waiting
    /// requests still complete).
    pub(crate) fn install_mapping(
        &mut self,
        sh: &Shared,
        host: &HostState,
        vpn: Vpn,
        pte: Pte,
    ) -> Result<(), SimError> {
        let host_ppn = host.host_mem.pte(vpn).map(|p| p.ppn());
        let is_replica = host.replica_frames.get(&(self.id, vpn)) == Some(&pte.ppn());
        let stale = host_ppn != Some(pte.ppn()) && !is_replica;
        // During a migration's invalidation phase, installing a mapping that
        // matches the (not-yet-moved) page is safe on a GPU whose
        // invalidation is still outstanding — the pending invalidation will
        // clean it up. Anything else would survive the migration as a stale
        // translation and must be re-resolved instead.
        let unsafe_during_migration = match host.migrations.get(vpn) {
            Some(m) => stale || !m.targets.contains(self.id) || self.inval_done.contains(&vpn),
            None => stale,
        };
        if unsafe_during_migration {
            self.inflight_faults.remove(&vpn);
            let refault = uvm_driver::fault::FarFault {
                gpu: self.id,
                vpn,
                is_write: false,
                raised_at: self.now,
                token: u64::MAX, // synthetic: wakes only real MSHR waiters
            };
            self.inflight_faults.insert(vpn);
            let at = self.now + 1;
            self.send_host(at, Ev::FaultResolved { fault: refault });
            return Ok(());
        }
        self.gpu.page_table.insert(vpn, pte);
        self.inflight_faults.remove(&vpn);
        self.complete_translation(sh, host, vpn, pte)
    }

    /// Fills the TLBs, wakes every MSHR waiter for `vpn` with `pte`, then
    /// replays the lookups parked on the released entry.
    pub(crate) fn complete_translation(
        &mut self,
        sh: &Shared,
        host: &HostState,
        vpn: Vpn,
        pte: Pte,
    ) -> Result<(), SimError> {
        self.gpu.l2_tlb.fill(vpn, pte);
        let waiters = self.gpu.l2_mshr.complete(vpn.0);
        for token in waiters {
            let Some(req) = self.reqs.get(token).copied() else {
                continue;
            };
            if req.is_write && !pte.is_writable() {
                // Write to a read-only (replicated) translation: raise a
                // write fault for the collapse protocol.
                self.raise_far_fault(sh, vpn, true, token, false);
                continue;
            }
            self.gpu.l1_tlbs.fill(req.cu, vpn, pte);
            if let Some(miss_at) = req.l2_miss_at {
                self.demand_miss_latency
                    .record((self.now.saturating_sub(miss_at)).raw() as f64);
                if self.tracer.is_enabled() {
                    let track = self.warp_track(sh, req.cu, req.warp);
                    let now = self.now;
                    let seq = self.reqs.seq(token);
                    self.tracer.span(
                        "tlb",
                        "L2 TLB miss",
                        track,
                        miss_at,
                        now,
                        &[("vpn", vpn.0), ("token", seq)],
                    );
                }
            }
            let now = self.now;
            self.start_data_access(sh, host, token, pte, now)?;
        }
        self.wake_mshr_waiters(sh, host)
    }

    /// Replays parked L2 lookups in FIFO order once an MSHR entry is
    /// released. A waiter that hits the L2 TLB, merges or bypasses through
    /// the IRMB takes no entry, so the drain moves on; it stops at the
    /// first waiter that stalls again (re-parked at the front).
    fn wake_mshr_waiters(&mut self, sh: &Shared, host: &HostState) -> Result<(), SimError> {
        while let Some(token) = self.mshr_waiters.pop_front() {
            self.on_l2_lookup(sh, host, token, true)?;
            if self.mshr_waiters.front() == Some(&token) {
                break;
            }
        }
        if !self.mshr_waiters.is_empty() && !self.gpu.l2_mshr.is_full() {
            return Err(SimError::Invariant(
                "L2 lookups parked while the MSHR has a free entry",
            ));
        }
        Ok(())
    }

    /// Raises a far fault for `token`'s request: parks the request in the
    /// L2 MSHR (so later requests merge and the mapping reply wakes it) and
    /// notifies the driver — or, with Trans-FW, first probes the PRT for a
    /// remote short-circuit. `already_waiting` marks tokens that are still
    /// registered in the MSHR from their original miss (the walk-fault
    /// paths); registering those again would wake them twice.
    pub(crate) fn raise_far_fault(
        &mut self,
        sh: &Shared,
        vpn: Vpn,
        is_write: bool,
        token: u64,
        already_waiting: bool,
    ) {
        if !already_waiting {
            // Faults never stall on MSHR capacity (a stalled fault can
            // deadlock a migration): force-register beyond the limit —
            // architecturally the overflow lives in the GPU fault buffer.
            self.gpu.l2_mshr.register_forced(vpn.0, token);
        }
        if !self.inflight_faults.contains(&vpn) {
            self.send_fault(sh, vpn, is_write, token);
        }
    }

    fn send_fault(&mut self, sh: &Shared, vpn: Vpn, is_write: bool, token: u64) {
        self.far_faults += 1;
        self.inflight_faults.insert(vpn);
        if self.tracer.is_enabled() {
            let track = self.req_track(sh, token);
            let now = self.now;
            let gpu = self.id;
            self.tracer.instant(
                "fault",
                "far fault raised",
                track,
                now,
                &[
                    ("vpn", vpn.0),
                    ("gpu", gpu as u64),
                    ("write", is_write as u64),
                ],
            );
        }
        let fault = uvm_driver::fault::FarFault {
            gpu: self.id,
            vpn,
            is_write,
            raised_at: self.now,
            token,
        };
        let _ = self.gpu.fault_buffer.push(fault);
        // Trans-FW: probe the PRT before escalating to the host. Probe
        // messages are tiny; bandwidth is accounted only as fixed latency.
        if let Some(prt) = self.prt.as_mut() {
            if let idyll_core::transfw::PrtProbe::Hit(holder) = prt.probe(vpn) {
                if holder != self.id {
                    let at = self.now + self.egress.nvlink_latency;
                    self.send_gpu(at, holder, Ev::RemoteProbeArrive { fault });
                    return;
                }
            }
        }
        let at = self.xfer_host_at(self.now, msg::FAULT);
        self.send_host(at, Ev::FaultAtHost { fault });
    }

    /// Trans-FW, holder side: the probe arrived; consult the local page
    /// table (a forwarded walk, PWC-assisted) and reply with the
    /// translation — or a refusal when it is invalid, migrating, or lacks
    /// write permission.
    pub(crate) fn on_remote_probe_arrive(
        &mut self,
        host: &HostState,
        fault: uvm_driver::fault::FarFault,
    ) {
        let grant = match self.gpu.page_table.lookup(fault.vpn) {
            Some(pte)
                if pte.is_valid()
                    && !host.migrations.is_migrating(fault.vpn)
                    && (!fault.is_write || pte.is_writable()) =>
            {
                Some(pte)
            }
            _ => None,
        };
        let at = self.now + self.egress.nvlink_latency + REMOTE_PROBE_WALK;
        self.send_gpu(at, fault.gpu, Ev::RemoteProbeReply { fault, pte: grant });
    }

    /// Trans-FW, requester side: the holder replied. A granted PTE is
    /// installed locally (bypassing the host; the driver's directory is
    /// kept sound by an off-critical-path notification); a refusal falls
    /// back to the host path, paying the wasted round trip.
    pub(crate) fn on_remote_probe_reply(
        &mut self,
        fault: uvm_driver::fault::FarFault,
        pte: Option<Pte>,
    ) -> Result<(), SimError> {
        match pte {
            Some(pte) => {
                let now = self.now;
                let gpu = self.id;
                self.send_host(
                    now,
                    Ev::DirRecord {
                        vpn: fault.vpn,
                        gpu,
                    },
                );
                self.on_mapping_to_gpu(fault.vpn, pte)
            }
            None => {
                if let Some(prt) = self.prt.as_mut() {
                    prt.report_false_forward(fault.vpn);
                }
                let at = self.xfer_host_at(self.now, msg::FAULT);
                self.send_host(at, Ev::FaultAtHost { fault });
                Ok(())
            }
        }
    }
}

/// Cost of the remote page-table walk a Trans-FW forward performs at the
/// holder GPU (two levels' worth: the PRT hit implies warm upper levels).
const REMOTE_PROBE_WALK: Cycle = Cycle(200);
