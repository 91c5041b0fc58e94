//! Observability wiring: trace tracks, the metrics registry, progress
//! heartbeats and the failure-path state dump.
//!
//! The simulator's protocol modules emit spans/instants through the track
//! helpers here; everything stays a single-branch no-op until a caller
//! installs an enabled [`Tracer`] with [`System::set_tracer`]. Under the
//! parallel event core each lane records into its own forked shard; shards
//! are absorbed back into the masters in fixed lane order when the run ends,
//! so exports stay byte-identical for any thread count.
//!
//! # Track layout
//!
//! * `pid = 1 + gpu` — one process per GPU; `tid` is the warp index
//!   (`cu * warps_per_cu + warp`), so every translation-side span for a warp
//!   lands on that warp's own timeline. A reserved high `tid` carries walks
//!   with no requesting warp (invalidation / IRMB write-back / PTE-update
//!   walks serviced by the GMMU).
//! * `pid = `[`MIG_PID`] — the migrations process; `tid` is the migration
//!   id, so one migration's invalidation broadcast and data transfer stack
//!   on one track.
//! * `pid = `[`HOST_PID`] — the UVM driver (fault batching, host walkers).

use std::sync::Mutex;

use sim_engine::metrics::MetricsRegistry;
use sim_engine::prof::Profiler;
use sim_engine::trace::{Tracer, Track};

use gpu_model::gmmu::WalkClass;
use uvm_driver::fault::FarFault;

use super::{lock_lane, read_host, GpuLane, HostState, Shared, System};

/// A progress snapshot delivered to a [`ProgressCallback`] at every
/// heartbeat interval (see [`System::set_progress_callback`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunProgress {
    /// Events the loop has processed so far.
    pub events_processed: u64,
    /// Current simulated cycle.
    pub sim_cycle: u64,
}

/// Sink for heartbeat progress snapshots. Callbacks run on the coordinating
/// thread at epoch barriers: keep them cheap and never let them feed
/// anything back into simulation state, or determinism guarantees die.
pub type ProgressCallback = Box<dyn FnMut(RunProgress) + Send>;

/// Chrome-trace process id hosting one thread per migration id.
pub(crate) const MIG_PID: u32 = 9000;
/// Chrome-trace process id for the UVM driver.
pub(crate) const HOST_PID: u32 = 9001;
/// Thread id (within a GPU process) for walks without a requesting warp.
pub(crate) const GMMU_TID: u64 = u64::MAX;

/// Trace events appended to a [`System::run_debug`] failure dump.
const DUMP_TRACE_EVENTS: usize = 512;

/// Process id of a GPU's translation timeline.
#[expect(
    clippy::cast_possible_truncation,
    reason = "GPU counts are at most 64; pids stay tiny"
)]
pub(crate) fn gpu_pid(gpu: usize) -> u32 {
    1 + gpu as u32
}

impl System {
    /// Installs a tracer. With an enabled tracer the protocol modules record
    /// the full translation lifecycle (L2 TLB miss → walk queue → page walk
    /// → far fault → batch → invalidation broadcast → data transfer →
    /// replay) as Perfetto-loadable spans; see [`Tracer::to_chrome_json`].
    pub fn set_tracer(&mut self, mut tracer: Tracer) {
        if tracer.is_enabled() {
            for g in 0..self.sh.cfg.n_gpus {
                tracer.set_process_name(gpu_pid(g), format!("gpu{g} translation"));
            }
            tracer.set_process_name(MIG_PID, "migrations");
            tracer.set_process_name(HOST_PID, "uvm driver");
            tracer.set_thread_name(HOST_PID, 0, "fault handling");
        }
        self.tracer = tracer;
    }

    /// The installed tracer (export with [`Tracer::to_chrome_json`] after
    /// the run).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Emits a progress line to stderr every `every_events` processed
    /// events (0 disables). Heartbeats never touch exported artifacts, so
    /// determinism of traces/metrics is unaffected.
    pub fn set_progress_interval(&mut self, every_events: u64) {
        self.progress_every = every_events;
    }

    /// Routes heartbeats to `callback` instead of stderr, every
    /// `every_events` processed events (0 disables). Same determinism
    /// contract as [`System::set_progress_interval`]: the callback observes
    /// the run, it must not influence it.
    pub fn set_progress_callback(&mut self, every_events: u64, callback: ProgressCallback) {
        self.progress_every = every_events;
        self.progress = Some(callback);
    }

    /// Installs a self-profiler (see [`sim_engine::prof`]). An enabled
    /// profiler counts the event loop's work per phase; the default
    /// disabled profiler costs one branch per instrumented site.
    pub fn set_profiler(&mut self, prof: Profiler) {
        self.prof = prof;
    }

    /// The installed profiler (read its [`Profiler::count`]s after a run).
    pub fn profiler(&self) -> &Profiler {
        &self.prof
    }

    /// Flattens every component's statistics into a hierarchical registry
    /// (dotted names, e.g. `gpu0.gmmu.walk_queue.wait_cycles`); the export
    /// is deterministic and byte-identical for identical runs — see
    /// [`MetricsRegistry::to_json`].
    pub fn metrics_registry(&self) -> MetricsRegistry {
        // The report takes the lane locks itself, so build it first.
        let r = self.report();
        let mut reg = MetricsRegistry::new();
        {
            let mut sim = reg.scope("sim");
            sim.count("exec_cycles", r.exec_cycles);
            sim.count("events_processed", r.events_processed);
            sim.count("accesses", r.accesses);
            sim.count("instructions", r.instructions);
            sim.count("far_faults", r.far_faults);
            sim.count("migrations", r.migrations);
            sim.count("invalidation_messages", r.invalidation_messages);
            sim.count("stale_translations", r.stale_translations);
        }
        {
            let mut lat = reg.scope("latency");
            lat.accumulator("demand_miss", &r.demand_miss_latency);
            lat.accumulator("access", &r.access_latency);
            lat.accumulator("remote_data", &r.remote_data_latency);
            lat.accumulator("invalidation", &r.invalidation_latency);
            lat.accumulator("migration_waiting", &r.migration_waiting);
            lat.accumulator("migration_total", &r.migration_total);
        }
        {
            let m = r.walker_mix;
            let mut mix = reg.scope("walker_mix");
            mix.count("demand", m.demand);
            mix.count("invalidation_necessary", m.invalidation_necessary);
            mix.count("invalidation_unnecessary", m.invalidation_unnecessary);
            mix.count("update", m.update);
        }
        {
            let mut net = reg.scope("net");
            net.count("nvlink_bytes", r.nvlink_bytes);
            net.count("pcie_bytes", r.pcie_bytes);
        }
        if let Some(rate) = r.vm_cache_hit_rate {
            reg.gauge("driver.vm_cache.hit_rate", rate);
        }
        if let Some((probes, hits, false_forwards)) = r.transfw {
            let mut tf = reg.scope("transfw");
            tf.count("probes", probes);
            tf.count("hits", hits);
            tf.count("false_forwards", false_forwards);
        }
        if let Some((replications, collapses)) = r.replication {
            let mut rep = reg.scope("replication");
            rep.count("replications", replications);
            rep.count("collapses", collapses);
        }
        // Counters the report does not carry: the driver's and each GPU's.
        let lanes: Vec<_> = (0..self.lanes.len())
            .map(|g| lock_lane(&self.lanes, g))
            .collect();
        let host = read_host(&self.host);
        {
            let mut drv = reg.scope("driver");
            drv.count("fault_batches", host.batcher.batches_emitted());
            drv.count("faults_batched", host.batcher.faults_total());
            drv.count("walkers.busy_cycles", host.host_walkers.busy_cycles());
            drv.count("walkers.grants", host.host_walkers.grants());
            drv.count("migrations_started", host.migrations.started());
            drv.count("migrations_deduped", host.migrations.dropped_duplicates());
        }
        for (g, lane) in lanes.iter().enumerate() {
            let gpu = &lane.gpu;
            let mut scope = reg.scope(format!("gpu{g}"));
            {
                let mut tlb = scope.scope("tlb");
                tlb.count("l1.hits", gpu.l1_tlbs.hits());
                tlb.count("l1.misses", gpu.l1_tlbs.misses());
                tlb.count("l2.hits", gpu.l2_tlb.hits());
                tlb.count("l2.misses", gpu.l2_tlb.misses());
                tlb.gauge(
                    "l2.hit_rate",
                    sim_engine::stats::hit_rate(gpu.l2_tlb.hits(), gpu.l2_tlb.misses()),
                );
            }
            {
                let mut mshr = scope.scope("mshr");
                mshr.count("merges", gpu.l2_mshr.merges());
                mshr.count("stalls", lane.mshr_stalls);
                mshr.count("peak", gpu.l2_mshr.peak() as u64);
            }
            {
                let mut gmmu = scope.scope("gmmu");
                gmmu.count("pwc.hits", gpu.gmmu.pwc().hits());
                gmmu.count("pwc.misses", gpu.gmmu.pwc().misses());
                gmmu.count("walk_queue.rejections", gpu.gmmu.queue_rejections());
                gmmu.count("walker_busy_cycles", gpu.gmmu.walker_busy_cycles());
                for class in [
                    WalkClass::Demand,
                    WalkClass::Invalidation,
                    WalkClass::IrmbWriteback,
                    WalkClass::Update,
                ] {
                    let stats = gpu.gmmu.stats(class);
                    let name = match class {
                        WalkClass::Demand => "demand",
                        WalkClass::Invalidation => "invalidation",
                        WalkClass::IrmbWriteback => "irmb_writeback",
                        WalkClass::Update => "update",
                    };
                    let mut cls = gmmu.scope(name);
                    cls.count("walks", stats.count);
                    cls.count("pwc_hits", stats.pwc_hits);
                    cls.accumulator("walk_latency", &stats.walk_latency);
                    cls.accumulator("walk_queue.wait_cycles", &stats.queue_latency);
                }
            }
            if let Some(irmb) = lane.irmb.as_ref() {
                let mut s = scope.scope("irmb");
                s.count("inserts", irmb.inserts());
                s.count("bypasses", irmb.lookup_hits());
                s.count("evictions", irmb.lru_evictions() + irmb.offset_evictions());
                s.count("superseded", irmb.removed_by_mapping());
            }
        }
        reg
    }

    /// Renders the failure state dump used by [`System::run_debug`]:
    /// in-flight migrations, a sample of live requests, per-GPU queue
    /// occupancy, every stale translation the audit finds, and — when a
    /// tracer is installed — the tail of its events.
    pub(crate) fn debug_dump(&self) -> String {
        // The audit takes the lane locks itself, so run it first.
        let stale = self.audit_translations();
        let lanes: Vec<_> = (0..self.lanes.len())
            .map(|g| lock_lane(&self.lanes, g))
            .collect();
        let host = read_host(&self.host);
        let mut d = String::new();
        let now = lanes
            .iter()
            .map(|l| l.now)
            .fold(host.now, sim_engine::Cycle::max);
        let pending: usize = lanes.iter().map(|l| l.q.len()).sum::<usize>() + host.q.len();
        d.push_str(&format!("now={now} pending_events={pending}\n"));
        d.push_str(&format!(
            "migrations in flight: {}\n",
            host.migrations.in_flight()
        ));
        let mut migs: Vec<_> = host.migrations.iter().collect();
        migs.sort_by_key(|m| m.vpn);
        for m in migs {
            d.push_str(&format!(
                "  mig vpn={:#x} from={} to={} phase={:?} acks={} host_walk={}\n",
                m.vpn.0, m.from, m.to, m.phase, m.pending_acks, m.host_walk_done
            ));
        }
        let live_reqs: usize = lanes.iter().map(|l| l.reqs.len()).sum();
        d.push_str(&format!("live reqs: {live_reqs}\n"));
        // Collect everything before sorting so the sample is the 5 oldest
        // (issue sequence, gpu) pairs, not the first warps' entries.
        let mut sample: Vec<_> = lanes
            .iter()
            .flat_map(|l| l.reqs.iter().map(move |(t, r)| (l.reqs.seq(t), l.id, *r)))
            .collect();
        sample.sort_by_key(|(t, g, _)| (*t, *g));
        sample.truncate(5);
        for (t, g, r) in sample {
            d.push_str(&format!(
                "  req {t}: gpu={g} vpn={:#x} write={} issued={}\n",
                r.vpn.0, r.is_write, r.issue_at
            ));
        }
        let far_faults: u64 = lanes.iter().map(|l| l.far_faults).sum();
        let inval_msgs: u64 = lanes.iter().map(|l| l.invalidation_messages).sum();
        d.push_str(&format!(
            "migrations done={} faults={far_faults} inval_msgs={inval_msgs}\n",
            host.migrations_done
        ));
        for (g, lane) in lanes.iter().enumerate() {
            d.push_str(&format!(
                "  gpu{g}: mshr={} parked={} queue={} overflow={} cursor_done={}\n",
                lane.gpu.l2_mshr.len(),
                lane.mshr_waiters.len(),
                lane.gpu.gmmu.queue_len(),
                lane.overflow.len(),
                lane.warp_cursors
                    .iter()
                    .zip(self.sh.warp_plans.get(g).into_iter().flatten())
                    .filter(|(&c, p)| c >= p.len())
                    .count()
            ));
        }
        d.push_str(&format!("stale translations: {}\n", stale.len()));
        for line in &stale {
            d.push_str(&format!("  stale {line}\n"));
        }
        if self.tracer.is_enabled() {
            d.push_str(&format!(
                "--- last {DUMP_TRACE_EVENTS} trace events (oldest first) ---\n"
            ));
            d.push_str(&self.tracer.tail(DUMP_TRACE_EVENTS));
        }
        d
    }
}

impl GpuLane {
    // --- track helpers (all cheap; only called on enabled-tracer paths) ---

    /// The warp's own timeline; names the thread lazily so only tracks that
    /// actually carry events appear in the viewer.
    pub(crate) fn warp_track(&mut self, sh: &Shared, cu: usize, warp: usize) -> Track {
        let pid = gpu_pid(self.id);
        let tid = (cu * sh.cfg.gpu.warps_per_cu + warp) as u64;
        if self.tracer.is_enabled() {
            self.tracer
                .set_thread_name(pid, tid, format!("cu{cu} warp{warp}"));
        }
        Track { pid, tid }
    }

    /// The track of the warp behind a live request token, or the driver
    /// track when the token no longer maps to a request.
    pub(crate) fn req_track(&mut self, sh: &Shared, token: u64) -> Track {
        match self.reqs.get(token).copied() {
            Some(r) => self.warp_track(sh, r.cu, r.warp),
            None => Track {
                pid: HOST_PID,
                tid: 0,
            },
        }
    }

    /// The GPU-local lane for walks with no requesting warp.
    pub(crate) fn gmmu_track(&mut self) -> Track {
        let pid = gpu_pid(self.id);
        self.tracer
            .set_thread_name(pid, GMMU_TID, "gmmu service walks");
        Track { pid, tid: GMMU_TID }
    }

    /// Records the retroactive span pair for a finished page walk: the
    /// queue-wait window and the walk itself. Demand walks land on the
    /// requesting warp's track; service walks (invalidation, IRMB
    /// write-back, PTE update) on the GPU's GMMU lane.
    pub(crate) fn trace_walk(&mut self, sh: &Shared, walk: &gpu_model::gmmu::DispatchedWalk) {
        let track = match walk.request.class {
            WalkClass::Demand => self.req_track(sh, walk.request.token),
            _ => self.gmmu_track(),
        };
        let walk_start = walk.finish_at.saturating_sub(walk.result.latency);
        let queue_start = walk_start.saturating_sub(walk.queued_for);
        let vpn = walk.request.vpn.0;
        // Demand walks carry a request token; print its issue sequence.
        let token = match walk.request.class {
            WalkClass::Demand => self.reqs.seq(walk.request.token),
            _ => walk.request.token,
        };
        if walk.queued_for.raw() > 0 {
            self.tracer.span(
                "walk",
                "walk queue wait",
                track,
                queue_start,
                walk_start,
                &[("vpn", vpn)],
            );
        }
        let name = match walk.request.class {
            WalkClass::Demand => "page walk",
            WalkClass::Invalidation => "invalidation walk",
            WalkClass::IrmbWriteback => "IRMB write-back walk",
            WalkClass::Update => "PTE update walk",
        };
        self.tracer.span(
            "walk",
            name,
            track,
            walk_start,
            walk.finish_at,
            &[("vpn", vpn), ("token", token)],
        );
    }
}

impl HostState {
    /// The UVM driver's track.
    pub(crate) fn host_track(&self) -> Track {
        Track {
            pid: HOST_PID,
            tid: 0,
        }
    }

    /// One track per migration id.
    pub(crate) fn mig_track(&mut self, id: u64) -> Track {
        if self.tracer.is_enabled() {
            self.tracer
                .set_thread_name(MIG_PID, id, format!("migration {id}"));
        }
        Track {
            pid: MIG_PID,
            tid: id,
        }
    }

    /// The track of the warp behind a fault's request token (peeking into
    /// the owning lane), or the driver track for synthetic/expired tokens.
    pub(crate) fn fault_track(
        &mut self,
        sh: &Shared,
        lanes: &[Mutex<GpuLane>],
        fault: &FarFault,
    ) -> Track {
        if fault.token != u64::MAX && fault.gpu < lanes.len() {
            let req = lock_lane(lanes, fault.gpu).reqs.get(fault.token).copied();
            if let Some(r) = req {
                let pid = gpu_pid(fault.gpu);
                let tid = (r.cu * sh.cfg.gpu.warps_per_cu + r.warp) as u64;
                if self.tracer.is_enabled() {
                    self.tracer
                        .set_thread_name(pid, tid, format!("cu{} warp{}", r.cu, r.warp));
                }
                return Track { pid, tid };
            }
        }
        self.host_track()
    }
}
