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
//!    With workers, lanes are dealt round-robin (`lane % threads`); since
//!    lanes never touch each other, the assignment affects wall-clock only.
//! 3. **Barrier.** On the coordinating thread: wait for workers, route
//!    every mailbox in fixed lane order (destination queues assign the
//!    sequence numbers, so the merge key `(cycle, lane, seq)` never depends
//!    on worker timing), aggregate lane status, and emit at most one
//!    heartbeat.
//! 4. **Host phase.** The host lane drains its queue up to `H`, serially,
//!    with exclusive access — the only phase allowed to reach into GPU
//!    lanes (one at a time).
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

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};

use mem_model::interconnect::Node;
use sim_engine::prof::{Phase, Profiler};
use sim_engine::trace::Tracer;
use sim_engine::tracelog::TraceLog;
use sim_engine::Cycle;

use super::observe::RunProgress;
use super::{
    lock_lane, read_host, write_host, Ev, GpuLane, HostState, ProgressCallback, Shared, SimError,
    System,
};

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
            limit_multiplier * self.sh.traces.iter().map(|t| t.len() as u64).sum::<u64>()
                + 10_000_000
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
            lanes: &self.lanes,
            host: &self.host,
            limit,
            progress_every: self.progress_every,
            progress: self.progress.take(),
            prof: std::mem::take(&mut self.prof),
            started,
            next_heartbeat: self.progress_every,
            scratch: Vec::new(),
        };
        let result = if threads <= 1 {
            drv.run_serial()
        } else {
            drv.run_parallel(threads)
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
        let tlog_cap = self.tlog.capacity();
        let prof_on = self.prof.is_enabled();
        for g in 0..self.lanes.len() {
            let mut lane = lock_lane(&self.lanes, g);
            lane.tracer = self.tracer.fork();
            lane.tlog = TraceLog::new(tlog_cap);
            lane.prof = if prof_on {
                Profiler::enabled()
            } else {
                Profiler::disabled()
            };
        }
        let mut host = write_host(&self.host);
        host.tracer = self.tracer.fork();
        host.tlog = TraceLog::new(tlog_cap);
        host.prof = if prof_on {
            Profiler::enabled()
        } else {
            Profiler::disabled()
        };
    }

    /// Merges the per-lane shards back into the masters in fixed order
    /// (host first, then lanes by id) so post-run exports are independent
    /// of worker timing. Runs on every exit path, including errors.
    fn absorb_shards(&mut self) {
        let mut records: Vec<(Cycle, &'static str, String)> = Vec::new();
        {
            let mut host = write_host(&self.host);
            let tracer = std::mem::replace(&mut host.tracer, Tracer::disabled());
            self.tracer.absorb(tracer);
            let prof = std::mem::take(&mut host.prof);
            self.prof.merge(&prof);
            let tlog = std::mem::replace(&mut host.tlog, TraceLog::disabled());
            for r in tlog.iter() {
                records.push((r.at, r.component, r.message.clone()));
            }
        }
        for g in 0..self.lanes.len() {
            let mut lane = lock_lane(&self.lanes, g);
            let tracer = std::mem::replace(&mut lane.tracer, Tracer::disabled());
            self.tracer.absorb(tracer);
            let prof = std::mem::take(&mut lane.prof);
            self.prof.merge(&prof);
            let tlog = std::mem::replace(&mut lane.tlog, TraceLog::disabled());
            for r in tlog.iter() {
                records.push((r.at, r.component, r.message.clone()));
            }
        }
        // Stable sort on cycle: records from the same cycle keep the fixed
        // host-then-lane shard order.
        records.sort_by_key(|(at, _, _)| *at);
        for (at, component, message) in records {
            self.tlog.push(at, component, message);
        }
    }
}

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

/// The epoch loop: owns the run-scoped pieces (event limit, heartbeat
/// state, the outbox routing scratch buffer, and the master profiler for
/// barrier counts) and borrows the lanes.
struct Driver<'a> {
    sh: &'a Shared,
    lanes: &'a [Mutex<GpuLane>],
    host: &'a RwLock<HostState>,
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
    fn run_serial(&mut self) -> Result<(), SimError> {
        loop {
            let Some(t) = self.min_peek() else {
                return self.drained();
            };
            let horizon = t + self.sh.lookahead;
            {
                let host = read_host(self.host);
                for g in 0..self.lanes.len() {
                    lock_lane(self.lanes, g).run_epoch(self.sh, &host, horizon, self.limit);
                }
            }
            if self.barrier_and_host_phase(t, horizon, || {})? {
                return Ok(());
            }
        }
    }

    /// Parallel execution on `threads` scoped workers (including the
    /// coordinating thread, which takes the `lane % threads == 0` share).
    fn run_parallel(&mut self, threads: usize) -> Result<(), SimError> {
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
        let (sh, lanes, host, limit) = (self.sh, self.lanes, self.host, self.limit);
        std::thread::scope(|scope| {
            for wid in 1..threads {
                let ctl = &ctl;
                scope.spawn(move || worker_loop(wid, threads, ctl, sh, lanes, host, limit));
            }
            let result = self.parallel_epochs(&ctl, threads);
            // Release the workers one last time with the stop flag up.
            ctl.stop.store(true, Ordering::Release);
            ctl.epoch.fetch_add(1, Ordering::Release);
            result
        })
    }

    fn parallel_epochs(&mut self, ctl: &EpochCtl, threads: usize) -> Result<(), SimError> {
        loop {
            let Some(t) = self.min_peek() else {
                return self.drained();
            };
            let horizon = t + self.sh.lookahead;
            ctl.horizon.store(horizon.raw(), Ordering::Relaxed);
            ctl.done.store(0, Ordering::Relaxed);
            ctl.epoch.fetch_add(1, Ordering::Release);
            {
                let host = read_host(self.host);
                let mut g = 0;
                while g < self.lanes.len() {
                    lock_lane(self.lanes, g).run_epoch(self.sh, &host, horizon, self.limit);
                    g += threads;
                }
            }
            let workers = threads - 1;
            let stop = self.barrier_and_host_phase(t, horizon, || {
                // Spin briefly, then yield: on an oversubscribed host the
                // workers need this core to finish their share.
                let mut spins = 0u32;
                while ctl.done.load(Ordering::Acquire) != workers {
                    spins += 1;
                    if spins < ctl.spin_limit {
                        std::hint::spin_loop();
                    } else {
                        std::thread::yield_now();
                    }
                }
            })?;
            if stop {
                return Ok(());
            }
        }
    }

    /// The barrier + host phase shared by both execution modes. `wait`
    /// blocks until every worker finished the GPU phase (a no-op serially).
    /// Each barrier counts once toward [`Phase::Barrier`] on the master
    /// profiler, so profile counts stay thread-count-independent.
    ///
    /// Returns `Ok(true)` when every GPU has finished (stop the run).
    fn barrier_and_host_phase(
        &mut self,
        t: Cycle,
        horizon: Cycle,
        wait: impl FnOnce(),
    ) -> Result<bool, SimError> {
        self.prof.add(Phase::Barrier, 1);
        wait();
        let mut host = write_host(self.host);
        let mut total = host.events_processed;
        let mut all_finished = true;
        let mut first_error = None;
        let mut faults = 0u64;
        for g in 0..self.lanes.len() {
            {
                let mut lane = lock_lane(self.lanes, g);
                std::mem::swap(&mut lane.outbox, &mut self.scratch);
                total += lane.events_processed;
                all_finished &= lane.finished;
                if first_error.is_none() {
                    first_error = lane.error.clone();
                }
                faults += lane.far_faults;
            }
            // Route with lane g unlocked: destinations include other lanes.
            // Destination queues assign the per-lane sequence numbers here,
            // in fixed (source lane, FIFO) order — the deterministic half
            // of the (cycle, lane, seq) merge key.
            for (at, node, ev) in self.scratch.drain(..) {
                match node {
                    Node::Host => host.q.schedule(at, ev),
                    Node::Gpu(d) => lock_lane(self.lanes, d).q.schedule(at, ev),
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
        host.run_epoch(self.sh, self.lanes, horizon, self.limit)?;
        Ok(false)
    }

    /// The global minimum next-event time, or `None` when every queue has
    /// drained.
    fn min_peek(&self) -> Option<Cycle> {
        let mut t: Option<Cycle> = None;
        for g in 0..self.lanes.len() {
            if let Some(pt) = lock_lane(self.lanes, g).q.peek_time() {
                t = Some(t.map_or(pt, |x| x.min(pt)));
            }
        }
        if let Some(pt) = read_host(self.host).q.peek_time() {
            t = Some(t.map_or(pt, |x| x.min(pt)));
        }
        t
    }

    /// Every queue drained: success if every GPU retired, a stall report
    /// otherwise.
    fn drained(&mut self) -> Result<(), SimError> {
        let mut unfinished = 0;
        let mut at = Cycle::ZERO;
        for g in 0..self.lanes.len() {
            let lane = lock_lane(self.lanes, g);
            if !lane.finished {
                unfinished += 1;
            }
            at = at.max(lane.now);
        }
        at = at.max(read_host(self.host).now);
        if unfinished == 0 {
            Ok(())
        } else {
            Err(SimError::Stalled {
                at,
                unfinished_gpus: unfinished,
            })
        }
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

/// Worker thread body: wait for an epoch release, run this worker's share
/// of the GPU phase under a host read guard, report done, repeat.
fn worker_loop(
    wid: usize,
    threads: usize,
    ctl: &EpochCtl,
    sh: &Shared,
    lanes: &[Mutex<GpuLane>],
    host: &RwLock<HostState>,
    limit: u64,
) {
    let mut seen = 0u64;
    loop {
        let mut spins = 0u32;
        loop {
            let e = ctl.epoch.load(Ordering::Acquire);
            if e != seen {
                seen = e;
                break;
            }
            spins += 1;
            if spins < ctl.spin_limit {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        if ctl.stop.load(Ordering::Acquire) {
            return;
        }
        let horizon = Cycle(ctl.horizon.load(Ordering::Relaxed));
        {
            let host = read_host(host);
            let mut g = wid;
            while g < lanes.len() {
                lock_lane(lanes, g).run_epoch(sh, &host, horizon, limit);
                g += threads;
            }
        }
        ctl.done.fetch_add(1, Ordering::Release);
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
            Ev::WalkDone { walk } => self.on_walk_done(sh, host, walk),
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
    /// the coordinating thread with exclusive lane access.
    fn run_epoch(
        &mut self,
        sh: &Shared,
        lanes: &[Mutex<GpuLane>],
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
    fn handle(&mut self, sh: &Shared, lanes: &[Mutex<GpuLane>], ev: Ev) -> Result<(), SimError> {
        match ev {
            Ev::FaultAtHost { fault } => self.on_fault_at_host(sh, lanes, fault),
            Ev::BatchWindow => self.on_batch_window(sh, lanes),
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
