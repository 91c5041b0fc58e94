//! The parallel event core: epoch-based conservative-lookahead execution.
//!
//! Every run — serial or multi-threaded — follows the same phased epoch
//! schedule, which is what makes results byte-identical under any thread
//! count:
//!
//! 1. **Horizon.** Compute `T`, the global minimum next-event time across
//!    all lanes (GPU lanes + the host lane), and the epoch horizon
//!    `H = T + lookahead`. The lookahead is the minimum cross-domain
//!    latency ([`Shared::lookahead`]): no lane can affect another sooner,
//!    so every lane may safely process all its events `< H` using only its
//!    own state plus read-only host state.
//! 2. **GPU phase.** Each GPU lane drains its queue up to `H`. Cross-domain
//!    sends land in the lane's outbound mailbox, not the destination queue.
//!    With workers, each takes a contiguous share of the lanes for the
//!    epoch; since lanes never touch each other, the split affects
//!    wall-clock only.
//! 3. **Barrier.** On the coordinating thread: wait for workers, route
//!    every mailbox in fixed lane order (destination queues assign the
//!    sequence numbers, so the merge key `(cycle, lane, seq)` never depends
//!    on worker timing), aggregate lane status, and emit at most one
//!    heartbeat.
//! 4. **Host phase.** The host lane drains its queue up to `H`, serially,
//!    holding every lane — the only phase allowed to reach into GPU lanes.
//!
//! The loop makes progress because the lane owning `T` processes at least
//! one event per epoch, and `T` never decreases (all surviving and newly
//! scheduled events are `≥ T`).
//!
//! **Time regression is legal within a lane.** A lane may sit at local time
//! `H − 1` at the end of one epoch and then receive a routed event at
//! `T' < H − 1` the next. Components therefore never assume monotonic
//! `now`; every resource model clamps (`max(now, next_free)`), which the
//! pipes and thread pools already did.
//!
//! The serial driver holds the lanes and the host by `&mut` and touches no
//! sync type; the lane threads' hand-off lives in the private `parallel`
//! module, the one place where simulation state crosses threads.

use mem_model::interconnect::Node;
use sim_engine::prof::{Phase, Profiler};
use sim_engine::trace::Tracer;
use sim_engine::Cycle;

use super::observe::RunProgress;
use super::{lane_mut, Ev, GpuLane, HostState, ProgressCallback, Shared, SimError, System};

impl System {
    /// The shared run loop behind the `run*` entry points.
    ///
    /// `limit_multiplier` scales the default event bound (events per trace
    /// access). Generous bounds exist only to catch true livelocks:
    /// high-sharing workloads at large GPU counts legitimately spend
    /// hundreds of events per access on migration churn.
    pub(crate) fn run_inner(&mut self, limit_multiplier: u64) -> Result<(), SimError> {
        let limit = if self.sh.cfg.max_events > 0 {
            self.sh.cfg.max_events
        } else {
            limit_multiplier * self.sh.traces.total_accesses() + 10_000_000
        };
        self.fork_shards();
        let threads = self.threads.max(1).min(self.lanes.len().max(1));
        // Wall-clock is only used for stderr progress lines, never for
        // simulation decisions or exported artifacts, so determinism holds.
        #[expect(
            clippy::disallowed_methods,
            reason = "heartbeat progress reporting only"
        )]
        let started = std::time::Instant::now();
        let mut drv = Driver {
            sh: &self.sh,
            limit,
            progress_every: self.progress_every,
            progress: self.progress.take(),
            prof: std::mem::take(&mut self.prof),
            started,
            next_heartbeat: self.progress_every,
            scratch: Vec::new(),
        };
        let result = if threads <= 1 {
            drv.run_serial(&mut self.lanes, &mut self.host)
        } else {
            drv.run_parallel(&mut self.lanes, &mut self.host, threads)
        };
        self.progress = drv.progress.take();
        self.prof = drv.prof;
        self.absorb_shards();
        result
    }

    /// Forks the master observability sinks into per-lane shards so lane
    /// handlers can emit without synchronization. Disabled masters fork
    /// disabled shards (the usual case: zero-cost).
    fn fork_shards(&mut self) {
        let prof_on = self.prof.is_enabled();
        let shard = || {
            if prof_on {
                Profiler::enabled()
            } else {
                Profiler::disabled()
            }
        };
        for lane in &mut self.lanes {
            lane.tracer = self.tracer.fork();
            lane.prof = shard();
        }
        self.host.tracer = self.tracer.fork();
        self.host.prof = shard();
    }

    /// Merges the per-lane shards back into the masters in fixed order
    /// (host first, then lanes by id) so post-run exports are independent
    /// of worker timing. Runs on every exit path, including errors.
    fn absorb_shards(&mut self) {
        let host = &mut self.host;
        let lanes = self.lanes.iter_mut().map(|l| (&mut l.tracer, &mut l.prof));
        for (tracer, prof) in std::iter::once((&mut host.tracer, &mut host.prof)).chain(lanes) {
            self.tracer
                .absorb(std::mem::replace(tracer, Tracer::disabled()));
            self.prof.merge(&std::mem::take(prof));
        }
    }
}

/// The epoch loop: owns the run-scoped pieces (event limit, heartbeat
/// state, the outbox routing scratch buffer, and the master profiler for
/// barrier counts); the lanes and the host are passed in by `&mut`.
struct Driver<'a> {
    sh: &'a Shared,
    limit: u64,
    progress_every: u64,
    progress: Option<ProgressCallback>,
    /// Master profiler: barrier counts land here; handler counts land in
    /// the lane shards.
    prof: Profiler,
    started: std::time::Instant,
    next_heartbeat: u64,
    /// Reused buffer the lanes' outboxes are swapped through at barriers.
    scratch: Vec<(Cycle, Node, Ev)>,
}

impl Driver<'_> {
    /// Serial execution: the identical epoch schedule, one thread.
    fn run_serial(
        &mut self,
        lanes: &mut [Box<GpuLane>],
        host: &mut HostState,
    ) -> Result<(), SimError> {
        loop {
            let Some(t) = min_peek(lanes, host) else {
                return drained(lanes, host);
            };
            let horizon = t + self.sh.lookahead;
            for lane in lanes.iter_mut() {
                lane.run_epoch(self.sh, host, horizon, self.limit);
            }
            if self.barrier_and_host_phase(lanes, host, t, horizon)? {
                return Ok(());
            }
        }
    }

    /// The barrier + host phase shared by both execution modes; every lane
    /// is back in `lanes` by the time it runs. Each barrier counts once
    /// toward [`Phase::Barrier`] on the master profiler, so profile counts
    /// stay thread-count-independent.
    ///
    /// Returns `Ok(true)` when every GPU has finished (stop the run).
    fn barrier_and_host_phase(
        &mut self,
        lanes: &mut [Box<GpuLane>],
        host: &mut HostState,
        t: Cycle,
        horizon: Cycle,
    ) -> Result<bool, SimError> {
        self.prof.add(Phase::Barrier, 1);
        let mut total = host.events_processed;
        let mut all_finished = true;
        let mut first_error = None;
        let mut faults = 0u64;
        for g in 0..lanes.len() {
            let lane = lane_mut(lanes, g);
            std::mem::swap(&mut lane.outbox, &mut self.scratch);
            total += lane.events_processed;
            all_finished &= lane.finished;
            if first_error.is_none() {
                first_error = lane.error.clone();
            }
            faults += lane.far_faults;
            // Destination queues assign the per-lane sequence numbers here,
            // in fixed (source lane, FIFO) order — the deterministic half
            // of the (cycle, lane, seq) merge key.
            for (at, node, ev) in self.scratch.drain(..) {
                match node {
                    Node::Host => host.q.schedule(at, ev),
                    Node::Gpu(d) => lane_mut(lanes, d).q.schedule(at, ev),
                }
            }
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        if all_finished {
            return Ok(true);
        }
        if total > self.limit {
            return Err(SimError::EventLimit(self.limit));
        }
        if self.progress_every > 0 && total >= self.next_heartbeat {
            while total >= self.next_heartbeat {
                self.next_heartbeat += self.progress_every;
            }
            let migrations = host.migrations_done;
            self.emit_progress(total, t, faults, migrations);
        }
        host.run_epoch(self.sh, lanes, horizon, self.limit)?;
        Ok(false)
    }

    /// One heartbeat: the installed callback when present, otherwise the
    /// stderr progress line. Emitted at barriers only, so content and
    /// count are thread-count-independent.
    #[expect(
        clippy::print_stderr,
        reason = "the opt-in `--progress` heartbeat, printed at a barrier every N million events"
    )]
    fn emit_progress(&mut self, events: u64, cycle: Cycle, faults: u64, migrations: u64) {
        if let Some(cb) = self.progress.as_mut() {
            cb(RunProgress {
                events_processed: events,
                sim_cycle: cycle.raw(),
            });
            return;
        }
        let wall = self.started.elapsed().as_secs_f64().max(1e-9);
        eprintln!(
            "[mgpu-sim] {:>12} events | sim cycle {:>13} | {:>11.0} events/s | {:>12.0} sim-cycles/s | faults {} | migrations {}",
            events,
            cycle.raw(),
            events as f64 / wall,
            cycle.raw() as f64 / wall,
            faults,
            migrations,
        );
    }
}

/// The global minimum next-event time, or `None` when every queue has
/// drained.
fn min_peek(lanes: &[Box<GpuLane>], host: &HostState) -> Option<Cycle> {
    lanes
        .iter()
        .map(|l| &l.q)
        .chain(std::iter::once(&host.q))
        .filter_map(|q| q.peek_time())
        .min()
}

/// Every queue drained: success if every GPU retired, a stall report
/// otherwise.
fn drained(lanes: &[Box<GpuLane>], host: &HostState) -> Result<(), SimError> {
    let unfinished = lanes.iter().filter(|l| !l.finished).count();
    if unfinished == 0 {
        return Ok(());
    }
    let at = lanes.iter().map(|l| l.now).fold(host.now, Cycle::max);
    Err(SimError::Stalled {
        at,
        unfinished_gpus: unfinished,
    })
}

/// The driver for two or more lane threads. Its persistent workers wait
/// on a spin barrier; each epoch the coordinating thread (worker 0) deals
/// worker `w` the `w`-th contiguous share of the lane boxes through `w`'s
/// slot, runs its own share, waits for the rest, and appends every share
/// back in lane order before the barrier. The host is read-shared during
/// the GPU phase and write-locked by the coordinator for the host phase.
/// No lock here is ever contended: the epoch counter already orders every
/// hand-off, and the locks make the moves visible to the type system.
#[expect(
    clippy::disallowed_types,
    clippy::vec_box,
    reason = "the lane threads' epoch hand-off is the one place lanes and the host cross threads; lanes move as boxes"
)]
mod parallel {
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    use std::sync::{Mutex, MutexGuard, PoisonError, RwLock};

    use sim_engine::Cycle;

    use super::{drained, min_peek, Driver};
    use crate::system::{GpuLane, HostState, Shared, SimError};

    /// One worker's lanes for the current epoch.
    type Slot = Mutex<Vec<Box<GpuLane>>>;

    /// Per-epoch synchronization state shared with the worker threads.
    struct EpochCtl {
        /// Epoch generation counter; a bump releases the workers.
        epoch: AtomicU64,
        /// The current epoch's horizon (raw cycles), published before the bump.
        horizon: AtomicU64,
        /// Workers that have finished the current epoch's GPU phase.
        done: AtomicUsize,
        /// Set (before the final bump) to shut the workers down.
        stop: AtomicBool,
        /// Busy-spin iterations before falling back to `yield_now` while
        /// waiting at the epoch edges. Zero when the machine cannot run all
        /// workers concurrently: spinning there only burns the quantum the
        /// next worker needs. Timing-only — results are unaffected.
        spin_limit: u32,
    }

    impl EpochCtl {
        /// Spins (then yields) until `ready` holds.
        fn wait(&self, mut ready: impl FnMut() -> bool) {
            let mut spins = 0u32;
            while !ready() {
                spins += 1;
                if spins < self.spin_limit {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Locks a slot, ignoring poison: the event handlers that run under it
    /// deny the panic family, and `thread::scope` re-raises a worker panic.
    fn lock(slot: &Slot) -> MutexGuard<'_, Vec<Box<GpuLane>>> {
        slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    impl Driver<'_> {
        /// Runs the epoch schedule on `threads` (≥ 2, ≤ lanes) threads:
        /// the calling thread plus `threads - 1` scoped workers.
        pub(super) fn run_parallel(
            &mut self,
            lanes: &mut Vec<Box<GpuLane>>,
            host: &mut HostState,
            threads: usize,
        ) -> Result<(), SimError> {
            let ctl = EpochCtl {
                epoch: AtomicU64::new(0),
                horizon: AtomicU64::new(0),
                done: AtomicUsize::new(0),
                stop: AtomicBool::new(false),
                spin_limit: match std::thread::available_parallelism() {
                    Ok(n) if threads <= n.get() => 10_000,
                    _ => 0,
                },
            };
            // `slots[w - 1]` carries worker `w`'s share.
            let slots: Vec<Slot> = (1..threads).map(|_| Mutex::new(Vec::new())).collect();
            let host = RwLock::new(host);
            let (sh, limit) = (self.sh, self.limit);
            std::thread::scope(|scope| {
                for slot in &slots {
                    let (ctl, host) = (&ctl, &host);
                    scope.spawn(move || worker_loop(ctl, slot, sh, host, limit));
                }
                let result = self.parallel_epochs(&ctl, &slots, lanes, &host);
                // Release the workers one last time with the stop flag up.
                ctl.stop.store(true, Ordering::Release);
                ctl.epoch.fetch_add(1, Ordering::Release);
                result
            })
        }

        fn parallel_epochs(
            &mut self,
            ctl: &EpochCtl,
            slots: &[Slot],
            lanes: &mut Vec<Box<GpuLane>>,
            host: &RwLock<&mut HostState>,
        ) -> Result<(), SimError> {
            let (n, threads) = (lanes.len(), slots.len() + 1);
            loop {
                let t = {
                    let host = host.read().unwrap_or_else(PoisonError::into_inner);
                    match min_peek(lanes, &host) {
                        Some(t) => t,
                        None => return drained(lanes, &host),
                    }
                };
                let horizon = t + self.sh.lookahead;
                ctl.horizon.store(horizon.raw(), Ordering::Relaxed);
                ctl.done.store(0, Ordering::Relaxed);
                // Worker `w` takes lanes `w * n / threads ..`, so shares are
                // contiguous and differ by at most one lane. Deal from the
                // back, so each drain takes the current tail.
                for (i, slot) in slots.iter().enumerate().rev() {
                    lock(slot).extend(lanes.drain((i + 1) * n / threads..));
                }
                ctl.epoch.fetch_add(1, Ordering::Release);
                {
                    let host = host.read().unwrap_or_else(PoisonError::into_inner);
                    for lane in lanes.iter_mut() {
                        lane.run_epoch(self.sh, &host, horizon, self.limit);
                    }
                }
                ctl.wait(|| ctl.done.load(Ordering::Acquire) == slots.len());
                for slot in slots {
                    lanes.append(&mut lock(slot));
                }
                let mut host = host.write().unwrap_or_else(PoisonError::into_inner);
                if self.barrier_and_host_phase(lanes, &mut host, t, horizon)? {
                    return Ok(());
                }
            }
        }
    }

    /// Worker thread body: wait for an epoch release, run the lanes in this
    /// worker's slot under a host read guard, report done, repeat.
    fn worker_loop(
        ctl: &EpochCtl,
        slot: &Slot,
        sh: &Shared,
        host: &RwLock<&mut HostState>,
        limit: u64,
    ) {
        let mut seen = 0u64;
        loop {
            ctl.wait(|| ctl.epoch.load(Ordering::Acquire) != seen);
            seen += 1;
            if ctl.stop.load(Ordering::Acquire) {
                return;
            }
            let horizon = Cycle(ctl.horizon.load(Ordering::Relaxed));
            {
                let host = host.read().unwrap_or_else(PoisonError::into_inner);
                for lane in lock(slot).iter_mut() {
                    lane.run_epoch(sh, &host, horizon, limit);
                }
            }
            ctl.done.fetch_add(1, Ordering::Release);
        }
    }
}

impl GpuLane {
    /// Drains this lane's queue up to (exclusive) `horizon`. Errors park in
    /// [`GpuLane::error`] and stop the lane; the next barrier reports them.
    fn run_epoch(&mut self, sh: &Shared, host: &HostState, horizon: Cycle, limit: u64) {
        if self.error.is_some() {
            return;
        }
        while let Some((at, ev)) = self.q.pop_before(horizon) {
            self.prof.add(Phase::HeapPop, 1);
            self.now = at;
            self.events_processed += 1;
            if self.events_processed > limit {
                // Per-lane share of the global bound: catches a single lane
                // livelocking inside one epoch, where only the barrier-time
                // total check would never run.
                self.error = Some(SimError::EventLimit(limit));
                return;
            }
            let result = if self.prof.is_enabled() {
                // The profiled path charges the event to its handler's
                // phase, and the events it scheduled (queue pushes plus
                // mailbox deposits) to HeapPush.
                let before = self.q.scheduled_total() + self.outbox.len() as u64;
                let phase = ev.phase();
                let r = self.handle(sh, host, ev);
                self.prof.add(phase, 1);
                let pushed = self.q.scheduled_total() + self.outbox.len() as u64 - before;
                self.prof.add(Phase::HeapPush, pushed);
                r
            } else {
                self.handle(sh, host, ev)
            };
            if let Err(e) = result {
                self.error = Some(e);
                return;
            }
        }
    }

    #[deny(
        clippy::wildcard_enum_match_arm,
        reason = "every `Ev` variant is named, so a new event must be routed on purpose"
    )]
    fn handle(&mut self, sh: &Shared, host: &HostState, ev: Ev) -> Result<(), SimError> {
        match ev {
            Ev::WarpReady { cu, warp } => self.on_warp_ready(sh, host, cu, warp),
            Ev::L2Lookup { token } => self.on_l2_lookup(sh, host, token, false),
            Ev::DispatchWalks => {
                self.dispatch_scheduled = false;
                self.dispatch_walks()
            }
            Ev::WalkDone { slot } => self.on_walk_done(sh, host, slot),
            Ev::MappingToGpu { vpn, pte } => self.on_mapping_to_gpu(vpn, pte),
            Ev::InvalArrive { vpn } => self.on_inval_arrive(sh, vpn),
            Ev::AccessDone { token } => self.on_access_done(sh, token),
            Ev::RemoteReqArrive {
                token,
                requester,
                issue_at,
                paddr,
            } => {
                self.on_remote_req_arrive(token, requester, issue_at, paddr);
                Ok(())
            }
            Ev::RemoteServed {
                token,
                requester,
                issue_at,
            } => {
                self.on_remote_served(token, requester, issue_at);
                Ok(())
            }
            Ev::RemoteProbeArrive { fault } => {
                self.on_remote_probe_arrive(host, fault);
                Ok(())
            }
            Ev::RemoteProbeReply { fault, pte } => self.on_remote_probe_reply(fault, pte),
            Ev::FaultAtHost { .. }
            | Ev::BatchWindow
            | Ev::FaultResolved { .. }
            | Ev::AckAtHost { .. }
            | Ev::MigRequestAtHost { .. }
            | Ev::MigHostWalkDone { .. }
            | Ev::MigSendInvals { .. }
            | Ev::MigDataDone { .. }
            | Ev::DirRecord { .. } => Err(SimError::Invariant("host event routed to a GPU lane")),
        }
    }
}

impl HostState {
    /// Drains the host queue up to (exclusive) `horizon`. Runs serially on
    /// the coordinating thread, holding every lane.
    fn run_epoch(
        &mut self,
        sh: &Shared,
        lanes: &mut [Box<GpuLane>],
        horizon: Cycle,
        limit: u64,
    ) -> Result<(), SimError> {
        while let Some((at, ev)) = self.q.pop_before(horizon) {
            self.prof.add(Phase::HeapPop, 1);
            self.now = at;
            self.events_processed += 1;
            if self.events_processed > limit {
                return Err(SimError::EventLimit(limit));
            }
            if self.prof.is_enabled() {
                // `ext_pushes` counts schedules into GPU lanes so the push
                // attribution matches the serial engine's.
                let before = self.q.scheduled_total() + self.ext_pushes;
                let phase = ev.phase();
                self.handle(sh, lanes, ev)?;
                self.prof.add(phase, 1);
                let pushed = self.q.scheduled_total() + self.ext_pushes - before;
                self.prof.add(Phase::HeapPush, pushed);
            } else {
                self.handle(sh, lanes, ev)?;
            }
        }
        Ok(())
    }

    #[deny(
        clippy::wildcard_enum_match_arm,
        reason = "every `Ev` variant is named, so a new event must be routed on purpose"
    )]
    fn handle(&mut self, sh: &Shared, lanes: &mut [Box<GpuLane>], ev: Ev) -> Result<(), SimError> {
        match ev {
            Ev::FaultAtHost { fault } => self.on_fault_at_host(sh, fault),
            Ev::BatchWindow => self.on_batch_window(sh),
            Ev::FaultResolved { fault } => self.on_fault_resolved(sh, lanes, fault),
            Ev::AckAtHost { gpu, vpn } => self.on_ack_at_host(sh, lanes, gpu, vpn),
            Ev::MigRequestAtHost { vpn, to } => self.on_mig_request(sh, lanes, vpn, to),
            Ev::MigHostWalkDone { vpn } => self.on_mig_host_walk_done(sh, lanes, vpn),
            Ev::MigSendInvals { vpn, targets } => {
                self.send_invalidations(lanes, vpn, targets);
                Ok(())
            }
            Ev::MigDataDone { vpn } => self.on_mig_data_done(sh, lanes, vpn),
            Ev::DirRecord { vpn, gpu } => {
                self.dir_record(vpn, gpu);
                Ok(())
            }
            Ev::RemoteReqArrive {
                token,
                requester,
                issue_at,
                paddr: _,
            } => {
                self.on_remote_req_arrive(token, requester, issue_at);
                Ok(())
            }
            Ev::RemoteServed {
                token,
                requester,
                issue_at,
            } => {
                self.on_remote_served(lanes, token, requester, issue_at);
                Ok(())
            }
            Ev::WarpReady { .. }
            | Ev::L2Lookup { .. }
            | Ev::DispatchWalks
            | Ev::WalkDone { .. }
            | Ev::MappingToGpu { .. }
            | Ev::InvalArrive { .. }
            | Ev::AccessDone { .. }
            | Ev::RemoteProbeArrive { .. }
            | Ev::RemoteProbeReply { .. } => Err(SimError::Invariant(
                "GPU-lane event routed to the host lane",
            )),
        }
    }
}
