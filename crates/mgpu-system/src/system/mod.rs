//! The discrete-event multi-GPU system simulator.
//!
//! A [`System`] owns every architectural component and drives them through a
//! deterministic *parallel event core*: one event **lane** per GPU plus a
//! host/driver lane, each owning its local future-event list and advancing
//! independently up to a conservative lookahead horizon (the minimum
//! cross-domain interconnect latency). Cross-domain effects travel through
//! per-lane mailboxes drained at barrier epochs, so the schedule — and every
//! exported artifact — is byte-identical for any worker thread count.
//! See DESIGN.md §"Parallel event core" for the full contract.
//!
//! Protocol logic is split across focused submodules:
//!
//! * [`translate`](self) — warp issue, TLB hierarchy, GMMU walks;
//! * [`host`](self) — fault batching and resolution at the UVM driver;
//! * [`migrate`](self) — the migration/invalidation protocol IDYLL targets;
//! * [`data`](self) — the post-translation data path and access counters;
//! * [`engine`](self) — the epoch loop (serial and `std::thread::scope`
//!   parallel execution).
//!
//! Lanes own their state: the host phase gets `&mut [Box<GpuLane>]`, a GPU
//! handler gets only its own lane plus `&Shared` and `&HostState`, so the
//! borrow checker keeps one GPU's handlers out of another GPU's state. The
//! only locks on simulation state are the parallel driver's epoch hand-off
//! in `engine`.

mod data;
mod engine;
mod host;
mod migrate;
mod observe;
mod reqs;
mod translate;
mod walks;

use gpu_model::gmmu::WalkClass;
use gpu_model::gpu::Gpu;
use idyll_core::directory::{DirectoryConfig, InPteDirectory};
use idyll_core::irmb::Irmb;
use idyll_core::transfw::{TransFw, TransFwConfig};
use idyll_core::vm_table::VmDirectory;
use mem_model::gpuset::GpuSet;
use mem_model::interconnect::Node;
use sim_engine::collections::{DetHashMap, DetHashSet};
use sim_engine::lane::{LanePool, LaneQueue};
use sim_engine::prof::{Phase, Profiler};
use sim_engine::resource::{BandwidthPipe, ThreadPool};
use sim_engine::stats::Accumulator;
use sim_engine::trace::Tracer;
use sim_engine::Cycle;
use uvm_driver::fault::{FarFault, FaultBatcher};
use uvm_driver::host::HostMemory;
use uvm_driver::migration::MigrationTable;
use uvm_driver::policy::AccessCounters;
use uvm_driver::replication::ReplicaDirectory;
use vm_model::addr::Vpn;
use vm_model::memmap::MemoryMap;
use vm_model::pte::Pte;
use workloads::{PackedTraces, PageCensus, Workload};

use crate::config::{DirectoryMode, Scheme, SystemConfig};
use crate::metrics::{SimReport, WalkerMix};

pub use observe::{ProgressCallback, RunProgress};

/// Message sizes in bytes.
pub(crate) mod msg {
    /// Far-fault report GPU→host.
    pub const FAULT: u64 = 48;
    /// Invalidation request host→GPU.
    pub const INVAL: u64 = 32;
    /// Invalidation ack GPU→host.
    pub const ACK: u64 = 32;
    /// PTE-update (new mapping) host→GPU.
    pub const MAP: u64 = 64;
    /// Migration request GPU→host.
    pub const MIG_REQ: u64 = 32;
    /// Remote data request (header + address flits; fine-grained peer loads
    /// pay substantial protocol overhead on real NVLink).
    pub const REMOTE_REQ: u64 = 96;
    /// Remote data response (one cacheline + header flits).
    pub const REMOTE_RESP: u64 = 128;
}

/// Simulation events. GPU-lane events carry no `gpu` field — the owning
/// lane is implied by the queue the event sits in; cross-domain messages
/// carry whatever identity the receiving domain needs.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ev {
    // --- GPU-lane events ---
    /// A warp wants to issue its next trace access.
    WarpReady { cu: usize, warp: usize },
    /// L1-missed request reaches the L2 TLB (lookup result applied here).
    L2Lookup { token: u64 },
    /// Try to start queued page walks.
    DispatchWalks,
    /// A page walk finished; the walk waits in [`GpuLane::walks`].
    WalkDone { slot: u32 },
    /// A new mapping arrived (rides the PTE-update path).
    MappingToGpu { vpn: Vpn, pte: Pte },
    /// An invalidation request arrived.
    InvalArrive { vpn: Vpn },
    /// A data access completed; unblock its warp.
    AccessDone { token: u64 },
    /// Trans-FW: a remote page-table probe arrived at the holder (the lane
    /// the event sits in).
    RemoteProbeArrive { fault: FarFault },
    /// Trans-FW: the holder's reply (a granted PTE, or a refusal).
    RemoteProbeReply { fault: FarFault, pte: Option<Pte> },
    // --- events valid on a GPU lane *or* the host lane ---
    /// A remote data request arrived at the owning node's memory.
    RemoteReqArrive {
        token: u64,
        requester: usize,
        issue_at: Cycle,
        paddr: u64,
    },
    /// The owning node's memory produced the data; send the response.
    RemoteServed {
        token: u64,
        requester: usize,
        issue_at: Cycle,
    },
    // --- host-lane events ---
    /// A far fault arrived at the UVM driver.
    FaultAtHost { fault: FarFault },
    /// Fault-batch window expired: flush the partial batch.
    BatchWindow,
    /// The driver finished resolving one fault.
    FaultResolved { fault: FarFault },
    /// An invalidation ack arrived back at the driver.
    AckAtHost { gpu: usize, vpn: Vpn },
    /// A counter-triggered migration request arrived at the driver.
    MigRequestAtHost { vpn: Vpn, to: usize },
    /// The driver's own page-table walk for a migration finished.
    MigHostWalkDone { vpn: Vpn },
    /// Directory lookup produced the target set; send the invalidations.
    MigSendInvals { vpn: Vpn, targets: GpuSet },
    /// Page data landed on the destination GPU.
    MigDataDone { vpn: Vpn },
    /// Off-critical-path directory notification (Trans-FW grant path).
    DirRecord { vpn: Vpn, gpu: usize },
}

// Every lane-queue slot, outbox entry and barrier route holds an `Ev`, so
// its size is what they copy; the largest variant is `RemoteProbeReply`.
const _: () = assert!(std::mem::size_of::<Ev>() <= 56);

impl Ev {
    /// The self-profiler phase this event's handler is charged to.
    fn phase(self) -> Phase {
        match self {
            Ev::L2Lookup { .. } => Phase::TlbLookup,
            Ev::DispatchWalks | Ev::WalkDone { .. } => Phase::WalkSchedule,
            Ev::MappingToGpu { .. }
            | Ev::InvalArrive { .. }
            | Ev::AckAtHost { .. }
            | Ev::MigRequestAtHost { .. }
            | Ev::MigHostWalkDone { .. }
            | Ev::MigSendInvals { .. }
            | Ev::MigDataDone { .. }
            | Ev::DirRecord { .. } => Phase::MigTransfer,
            Ev::WarpReady { .. }
            | Ev::FaultAtHost { .. }
            | Ev::BatchWindow
            | Ev::FaultResolved { .. }
            | Ev::AccessDone { .. }
            | Ev::RemoteReqArrive { .. }
            | Ev::RemoteServed { .. }
            | Ev::RemoteProbeArrive { .. }
            | Ev::RemoteProbeReply { .. } => Phase::Other,
        }
    }
}

/// One in-flight translation request. Tokens are a per-lane namespace (see
/// [`reqs::ReqTable`]); the owning GPU is the lane holding the entry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Req {
    pub cu: usize,
    pub warp: usize,
    pub vpn: Vpn,
    pub is_write: bool,
    pub issue_at: Cycle,
    /// Set when the request misses the L2 TLB (start of the demand-miss
    /// latency window, Figures 6/12).
    pub l2_miss_at: Option<Cycle>,
}

/// A driver-sent PTE update awaiting its update walk.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingUpdate {
    pub vpn: Vpn,
    pub pte: Pte,
}

/// Simulation failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The event queue drained before every warp retired — a protocol bug
    /// or an impossible configuration.
    Stalled {
        /// Cycle at which the queue drained.
        at: Cycle,
        /// GPUs that had not finished.
        unfinished_gpus: usize,
    },
    /// The event bound was exceeded (runaway simulation).
    EventLimit(u64),
    /// The footprint does not fit in the configured device windows.
    OutOfMemory(String),
    /// An internal protocol invariant was violated mid-run (e.g. an event
    /// referenced a request that no longer exists). Always a simulator bug;
    /// surfaced as a typed error instead of a panic so one bad cell cannot
    /// abort the whole figure grid.
    Invariant(&'static str),
}

/// Converts `Option`/`Result` invariant checks in event handlers into
/// [`SimError::Invariant`] so failures propagate instead of panicking
/// (clippy's denied panic family).
pub(crate) trait OrInvariant<T> {
    fn or_invariant(self, what: &'static str) -> Result<T, SimError>;
}

impl<T> OrInvariant<T> for Option<T> {
    fn or_invariant(self, what: &'static str) -> Result<T, SimError> {
        self.ok_or(SimError::Invariant(what))
    }
}

impl<T, E> OrInvariant<T> for Result<T, E> {
    fn or_invariant(self, what: &'static str) -> Result<T, SimError> {
        self.map_err(|_| SimError::Invariant(what))
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Stalled {
                at,
                unfinished_gpus,
            } => write!(
                f,
                "simulation stalled at {at}: {unfinished_gpus} GPU(s) never finished"
            ),
            SimError::EventLimit(n) => write!(f, "event limit of {n} exceeded"),
            SimError::OutOfMemory(what) => write!(f, "out of simulated memory: {what}"),
            SimError::Invariant(what) => write!(f, "internal invariant violated: {what}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Immutable state every lane reads: configuration, the physical frame map
/// (fixed at construction), the traces, and the warp issue plans.
pub(crate) struct Shared {
    pub cfg: SystemConfig,
    pub memmap: MemoryMap,
    /// The workload's traces at 4 bytes per access.
    pub traces: PackedTraces,
    /// Per-(gpu, warp) issue plans into the GPU trace (built by the CTA
    /// scheduling policy): `warp_plans[gpu][warp_index]` is the range of
    /// trace indices the warp issues.
    pub warp_plans: Vec<Vec<gpu_model::scheduler::WarpPlan>>,
    pub compute_gap: Cycle,
    pub workload_name: String,
    pub instructions: u64,
    pub sharing_distribution: Vec<f64>,
    /// Conservative lookahead window: the minimum cross-domain latency.
    /// No lane can affect another sooner than this, so every lane may
    /// safely advance `lookahead` cycles past the global minimum next-event
    /// time before a barrier.
    pub lookahead: Cycle,
}

impl Shared {
    /// The page size in bytes.
    pub(crate) fn page_bytes(&self) -> u64 {
        self.cfg.page_size.bytes()
    }
}

/// A GPU lane's private slice of the interconnect: the directed pipes this
/// lane *sends* on. This is exactly the original full-duplex decomposition —
/// each directed pipe has a single writer, so pipes move into their writer.
pub(crate) struct Egress {
    /// `nvlink[dst]` — directed pipe to GPU `dst` (the self entry is unused:
    /// local transfers never traverse the interconnect).
    pub nvlink: Vec<BandwidthPipe>,
    /// GPU→host PCIe pipe.
    pub pcie_up: BandwidthPipe,
    /// One-way GPU↔GPU propagation latency (latency-only probe messages).
    pub nvlink_latency: Cycle,
}

impl Egress {
    /// One GPU's egress pipes for `cfg`. In the fully-connected topology
    /// each directed NVLink pipe gets `aggregate / (n_gpus - 1)` of the
    /// GPU's NVLink bandwidth.
    pub(crate) fn new(cfg: &SystemConfig) -> Egress {
        let net = cfg.interconnect;
        let per_pair = net.nvlink_bytes_per_cycle / (cfg.n_gpus.saturating_sub(1).max(1)) as f64;
        Egress {
            nvlink: (0..cfg.n_gpus)
                .map(|_| BandwidthPipe::new(per_pair, net.nvlink_latency))
                .collect(),
            pcie_up: BandwidthPipe::new(net.pcie_bytes_per_cycle, net.pcie_latency),
            nvlink_latency: net.nvlink_latency,
        }
    }

    /// Reserves the directed GPU→GPU pipe; a same-GPU transfer is free.
    #[expect(
        clippy::indexing_slicing,
        reason = "GPU ids are < n_gpus, the number of pipes built from the same config"
    )]
    pub(crate) fn gpu_to_gpu(&mut self, at: Cycle, src: usize, dst: usize, bytes: u64) -> Cycle {
        if src == dst {
            at
        } else {
            self.nvlink[dst].transfer(at, bytes)
        }
    }
}

/// One GPU's event lane: the GPU model, all per-GPU protocol state, the
/// lane-local future-event list, the outbound mailbox, and per-lane shards
/// of every metric/observability sink (merged deterministically at the end
/// of the run).
pub(crate) struct GpuLane {
    pub id: usize,
    pub gpu: Gpu,
    pub irmb: Option<Irmb>,
    pub prt: Option<TransFw>,
    /// Per-warp cursor into this lane's warp plans.
    pub warp_cursors: Vec<usize>,
    /// Dispatched walks awaiting their [`Ev::WalkDone`].
    pub walks: walks::WalkSlab,
    /// Walk requests that found the page-walk queue full (upstream stall
    /// buffer, drained before new dispatches).
    pub overflow: std::collections::VecDeque<(Vpn, WalkClass, u64)>,
    pub dispatch_scheduled: bool,
    /// L2 lookups parked on a full MSHR, replayed in order when
    /// [`GpuLane::complete_translation`] releases an entry.
    pub mshr_waiters: std::collections::VecDeque<u64>,
    /// MSHR stall episodes: lookups that parked at least once.
    pub mshr_stalls: u64,
    /// In-flight translation requests, one slot per warp.
    pub reqs: reqs::ReqTable,
    pub updates: DetHashMap<u64, PendingUpdate>,
    pub next_update: u64,
    /// Pages with a far fault in flight from this GPU.
    pub inflight_faults: DetHashSet<Vpn>,
    /// Pages whose invalidation for the current migration has already been
    /// processed locally (walk dispatched / IRMB insert / instantaneous).
    pub inval_done: DetHashSet<Vpn>,
    /// This GPU's remote-access counters (reset by the host on migration).
    pub counters: AccessCounters,
    pub finished: bool,
    pub finish_cycle: Cycle,
    // Lane event plumbing.
    pub q: LaneQueue<Ev>,
    /// Outbound mailbox: cross-domain sends buffered here, routed into the
    /// destination queues at the next barrier (deterministic lane order).
    pub outbox: Vec<(Cycle, Node, Ev)>,
    pub now: Cycle,
    pub events_processed: u64,
    /// First error this lane hit; the lane stops and the barrier reports it.
    pub error: Option<SimError>,
    pub egress: Egress,
    // Metric shards (merged in fixed lane order for the report).
    pub demand_miss_latency: Accumulator,
    pub access_latency: Accumulator,
    pub remote_data_latency: Accumulator,
    pub invalidation_latency: Accumulator,
    pub walker_mix: WalkerMix,
    pub invalidation_messages: u64,
    pub far_faults: u64,
    pub accesses_done: u64,
    // Observability shards (forked from the masters at run start).
    pub tracer: Tracer,
    pub prof: Profiler,
}

impl GpuLane {
    /// Reserves the directed pipe to GPU `dest` starting at `at`.
    pub(crate) fn xfer_gpu_at(&mut self, at: Cycle, dest: usize, bytes: u64) -> Cycle {
        let id = self.id;
        self.egress.gpu_to_gpu(at, id, dest, bytes)
    }

    /// Reserves the GPU→host PCIe pipe starting at `at`.
    pub(crate) fn xfer_host_at(&mut self, at: Cycle, bytes: u64) -> Cycle {
        self.egress.pcie_up.transfer(at, bytes)
    }

    /// Sends an event to GPU `dest` at time `at` (own queue for a self-send,
    /// the mailbox otherwise).
    pub(crate) fn send_gpu(&mut self, at: Cycle, dest: usize, ev: Ev) {
        if dest == self.id {
            self.q.schedule(at, ev);
        } else {
            self.outbox.push((at, Node::Gpu(dest), ev));
        }
    }

    /// Sends an event to the host lane at time `at` via the mailbox.
    pub(crate) fn send_host(&mut self, at: Cycle, ev: Ev) {
        self.outbox.push((at, Node::Host, ev));
    }
}

/// The host/driver lane: UVM driver state, the host-side interconnect pipes
/// (host→GPU direction), and the host future-event list. The host phase runs
/// serially after every barrier and is the only place that may reach into
/// GPU lanes.
pub(crate) struct HostState {
    pub host_mem: HostMemory,
    pub host_walkers: ThreadPool,
    pub batcher: FaultBatcher,
    pub batch_flush_scheduled: bool,
    pub migrations: MigrationTable,
    pub replicas: ReplicaDirectory,
    /// Physical frames holding read replicas: (gpu, vpn) → ppn.
    pub replica_frames: DetHashMap<(usize, Vpn), u64>,
    pub in_pte_dir: Option<InPteDirectory>,
    pub vm_dir: Option<VmDirectory>,
    /// Pages whose in-PTE directory lookup awaits the host walk.
    pub pending_dir_lookup: DetHashSet<Vpn>,
    /// Last completed migration per page (anti-thrash cooldown).
    pub last_migration: DetHashMap<Vpn, Cycle>,
    pub migrations_done: u64,
    pub migration_waiting: Accumulator,
    pub migration_total: Accumulator,
    /// Host shard of the remote-data latency accumulator (host-served
    /// transient-window requests).
    pub remote_data_latency: Accumulator,
    /// `pcie_down[g]`: host→GPU g PCIe pipe.
    pub pcie_down: Vec<BandwidthPipe>,
    pub q: LaneQueue<Ev>,
    pub now: Cycle,
    pub events_processed: u64,
    /// Events this lane scheduled directly into GPU lanes (host-phase
    /// sends bypass the mailbox); counted for HeapPush attribution.
    pub ext_pushes: u64,
    pub tracer: Tracer,
    pub prof: Profiler,
}

impl HostState {
    /// Reserves the host→GPU PCIe pipe starting at the host's current time.
    #[expect(
        clippy::indexing_slicing,
        reason = "GPU ids are < n_gpus, the number of pipes built from the same config"
    )]
    pub(crate) fn xfer_down(&mut self, gpu: usize, bytes: u64) -> Cycle {
        let now = self.now;
        self.pcie_down[gpu].transfer(now, bytes)
    }

    /// Schedules an event directly into GPU lane `g`'s queue. Host-phase
    /// sends are already deterministic (the host runs serially with every
    /// worker idle), so they skip the mailbox.
    pub(crate) fn sched_lane(&mut self, lanes: &mut [Box<GpuLane>], g: usize, at: Cycle, ev: Ev) {
        lane_mut(lanes, g).q.schedule(at, ev);
        self.ext_pushes += 1;
    }

    /// Reserves the pipe for a transfer originating at `from` toward GPU
    /// `to` (page data moves: GPU→GPU over NVLink via the source lane's
    /// egress, host→GPU over PCIe).
    pub(crate) fn xfer_from(
        &mut self,
        lanes: &mut [Box<GpuLane>],
        from: Node,
        to: usize,
        bytes: u64,
    ) -> Cycle {
        match from {
            Node::Gpu(f) if f == to => self.now,
            Node::Gpu(f) => {
                let now = self.now;
                lane_mut(lanes, f).egress.gpu_to_gpu(now, f, to, bytes)
            }
            Node::Host => self.xfer_down(to, bytes),
        }
    }

    /// Records that `gpu` now holds a valid translation of `vpn`
    /// (directory bookkeeping on the host side; no latency — it piggybacks
    /// on work the driver already does).
    pub(crate) fn dir_record(&mut self, vpn: Vpn, gpu: usize) {
        if let Some(dir) = self.in_pte_dir {
            if let Some(pte) = self.host_mem.pte_mut(vpn) {
                dir.record_access(pte, gpu);
            }
        }
        if let Some(vm) = self.vm_dir.as_mut() {
            vm.record_access(vpn, gpu);
        }
    }

    /// Current owner node of a page according to the driver. Every workload
    /// page is populated at init, so a miss is a protocol invariant failure.
    pub(crate) fn owner_of(&self, vpn: Vpn) -> Result<Node, SimError> {
        self.host_mem
            .owner_of(vpn)
            .or_invariant("fault references a page the driver never populated")
    }
}

/// GPU lane `g`, for host-phase code that reaches into one lane.
#[expect(
    clippy::indexing_slicing,
    reason = "GPU ids are < n_gpus, the number of lanes built from the same config"
)]
pub(crate) fn lane_mut(lanes: &mut [Box<GpuLane>], g: usize) -> &mut GpuLane {
    &mut lanes[g]
}

/// Teaches every other GPU's PRT that `holder` has a translation of `vpn`
/// (driver notification, state-only). Host-phase code: it needs every
/// lane, which only the host phase holds. Without Trans-FW no lane has a
/// PRT, so it visits none.
pub(crate) fn broadcast_prt_record(
    sh: &Shared,
    lanes: &mut [Box<GpuLane>],
    vpn: Vpn,
    holder: usize,
) {
    if !sh.cfg.scheme.transfw() {
        return;
    }
    for (g, lane) in lanes.iter_mut().enumerate() {
        if g != holder {
            if let Some(prt) = lane.prt.as_mut() {
                prt.record(vpn, holder);
            }
        }
    }
}

/// A reusable pool of lane event queues. Repeated grid runs hand their
/// queues back via [`System::recycle`] so the next [`System::new_with_pool`]
/// starts from warmed arena capacity instead of re-growing from zero.
#[derive(Default)]
pub struct QueuePool {
    inner: LanePool<Ev>,
}

impl QueuePool {
    /// An empty pool.
    pub fn new() -> QueuePool {
        QueuePool {
            inner: LanePool::new(),
        }
    }

    /// Queues currently parked in the pool.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

/// The assembled multi-GPU system: immutable shared state, one lane per
/// GPU, the host lane, and the master observability sinks that per-lane
/// shards are merged into after a run.
pub struct System {
    pub(crate) sh: Shared,
    /// Boxed so the parallel driver hands lanes to its workers by pointer.
    #[expect(
        clippy::vec_box,
        reason = "`size_of::<GpuLane>()` is 2 712 B; the parallel driver moves every lane out and back each epoch"
    )]
    pub(crate) lanes: Vec<Box<GpuLane>>,
    pub(crate) host: HostState,
    /// Worker thread count for the parallel event core (1 = serial; the
    /// schedule and all exports are identical either way).
    pub(crate) threads: usize,
    // Master observability sinks (see `observe`). All default to off and
    // cost one predictable branch per emission site when disabled.
    pub(crate) tracer: Tracer,
    pub(crate) prof: Profiler,
    /// Heartbeat period in events (0 = no progress lines).
    pub(crate) progress_every: u64,
    /// When set, heartbeats are delivered here instead of stderr.
    pub(crate) progress: Option<ProgressCallback>,
}

impl System {
    /// Builds a system for `cfg` loaded with `workload`.
    ///
    /// # Panics
    /// Panics if the workload has a different GPU count than the config,
    /// or has more than 64 GPUs (the [`PageCensus`] limit).
    pub fn new(cfg: SystemConfig, workload: &Workload) -> System {
        Self::build(cfg, workload, None)
    }

    /// Like [`System::new`], but takes lane event queues from `pool`
    /// (returned by a previous run's [`System::recycle`]) so repeated grid
    /// runs reuse their arena capacity.
    pub fn new_with_pool(cfg: SystemConfig, workload: &Workload, pool: &mut QueuePool) -> System {
        Self::build(cfg, workload, Some(pool))
    }

    /// Sets the worker thread count for the parallel event core (clamped to
    /// at least 1 and at most one worker per lane). Results are
    /// byte-identical for any value; only wall-clock changes.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Returns this system's lane queues to `pool` for reuse by a later
    /// [`System::new_with_pool`].
    pub fn recycle(self, pool: &mut QueuePool) {
        for lane in self.lanes {
            pool.inner.put(lane.q);
        }
        pool.inner.put(self.host.q);
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "g < n_gpus indexes the per-GPU plans, and census indices the placed flags, all built here"
    )]
    fn build(cfg: SystemConfig, workload: &Workload, pool: Option<&mut QueuePool>) -> System {
        assert_eq!(
            workload.traces.gpus(),
            cfg.n_gpus,
            "workload GPU count must match the system"
        );
        let memmap = MemoryMap::new(cfg.n_gpus, cfg.frames_per_device);
        let directory = cfg.scheme.directory();
        let in_pte_dir = (directory == DirectoryMode::InPte).then(|| {
            InPteDirectory::new(DirectoryConfig::with_access_bits(
                cfg.n_gpus,
                cfg.access_bits,
            ))
        });
        let vm_dir = (directory == DirectoryMode::InMem).then(|| VmDirectory::new(cfg.n_gpus));
        // The run keeps its own copy of the packed traces (4 bytes per
        // access); the census of touched pages taken from it drives host
        // population, pre-placement and the sharing distribution.
        let traces = workload.traces.clone();
        let census = PageCensus::new(&traces);
        let mut host_mem = HostMemory::new(memmap, cfg.page_size);
        // Populate exactly the pages the traces touch (the VA span is
        // sparse by design — see `workloads::gen::spread`), in ascending
        // VPN order.
        for vpn in census.pages() {
            #[expect(
                clippy::expect_used,
                reason = "construction-time capacity check, documented panic"
            )]
            host_mem
                .populate(vpn)
                .expect("host window must fit the touched footprint");
        }
        // Conservative lookahead: the cheapest cross-domain hop. Every
        // cross-domain effect pays at least this latency, so lanes may run
        // this far past the global minimum between barriers.
        let lookahead = Cycle(
            cfg.interconnect
                .nvlink_latency
                .raw()
                .min(cfg.interconnect.pcie_latency.raw())
                .max(1),
        );
        // Deal each GPU's trace to its warps in contiguous segments.
        let warps_per_gpu = cfg.gpu.cus * cfg.gpu.warps_per_cu;
        let warp_plans: Vec<Vec<gpu_model::scheduler::WarpPlan>> = (0..cfg.n_gpus)
            .map(|g| gpu_model::scheduler::plan_warps(traces.len(g), warps_per_gpu.max(1)))
            .collect();
        let sh = Shared {
            memmap,
            traces,
            warp_plans,
            compute_gap: Cycle(workload.compute_gap),
            workload_name: workload.name.clone(),
            instructions: workload.total_instructions(),
            sharing_distribution: census.sharing_distribution(),
            lookahead,
            cfg: cfg.clone(),
        };
        // Pre-size lane queues from the workload footprint: every warp can
        // keep a small constant number of events in flight.
        let lane_hint = cfg.gpu.cus * cfg.gpu.warps_per_cu * 4 + 64;
        let host_hint = cfg.host.fault_batch + 128;
        let mut pool = pool;
        let mut take_q = |hint: usize| match pool.as_deref_mut() {
            Some(p) => p.inner.take(hint),
            None => LaneQueue::with_capacity(hint),
        };
        let mut lanes: Vec<Box<GpuLane>> = (0..cfg.n_gpus)
            .map(|g| {
                Box::new(GpuLane {
                    id: g,
                    gpu: Gpu::new(g, cfg.gpu, cfg.page_size),
                    irmb: cfg.scheme.lazy().then(|| Irmb::new(cfg.irmb)),
                    prt: cfg
                        .scheme
                        .transfw()
                        .then(|| TransFw::new(TransFwConfig::default())),
                    warp_cursors: vec![0; sh.warp_plans[g].len()],
                    walks: walks::WalkSlab::default(),
                    overflow: std::collections::VecDeque::new(),
                    dispatch_scheduled: false,
                    mshr_waiters: std::collections::VecDeque::new(),
                    mshr_stalls: 0,
                    reqs: reqs::ReqTable::new(warps_per_gpu),
                    updates: DetHashMap::default(),
                    next_update: 0,
                    inflight_faults: DetHashSet::default(),
                    inval_done: DetHashSet::default(),
                    counters: AccessCounters::new(),
                    finished: false,
                    finish_cycle: Cycle::ZERO,
                    q: take_q(lane_hint),
                    outbox: Vec::new(),
                    now: Cycle::ZERO,
                    events_processed: 0,
                    error: None,
                    egress: Egress::new(&cfg),
                    demand_miss_latency: Accumulator::new(),
                    access_latency: Accumulator::new(),
                    remote_data_latency: Accumulator::new(),
                    invalidation_latency: Accumulator::new(),
                    walker_mix: WalkerMix::default(),
                    invalidation_messages: 0,
                    far_faults: 0,
                    accesses_done: 0,
                    tracer: Tracer::disabled(),
                    prof: Profiler::disabled(),
                })
            })
            .collect();
        let mut host = HostState {
            host_mem,
            host_walkers: ThreadPool::new(cfg.host.walk_threads),
            batcher: FaultBatcher::new(cfg.host.fault_batch),
            batch_flush_scheduled: false,
            migrations: MigrationTable::new(),
            replicas: ReplicaDirectory::new(),
            replica_frames: DetHashMap::default(),
            in_pte_dir,
            vm_dir,
            pending_dir_lookup: DetHashSet::default(),
            last_migration: DetHashMap::default(),
            migrations_done: 0,
            migration_waiting: Accumulator::new(),
            migration_total: Accumulator::new(),
            remote_data_latency: Accumulator::new(),
            pcie_down: (0..cfg.n_gpus)
                .map(|_| {
                    BandwidthPipe::new(
                        cfg.interconnect.pcie_bytes_per_cycle,
                        cfg.interconnect.pcie_latency,
                    )
                })
                .collect(),
            q: take_q(host_hint),
            now: Cycle::ZERO,
            events_processed: 0,
            ext_pushes: 0,
            tracer: Tracer::disabled(),
            prof: Profiler::disabled(),
        };
        // Pre-place pages first-touch: the paper's OpenCL workloads copy
        // their buffers to GPU memory before kernel launch (MGPUSim's setup
        // phase), so simulation starts from the steady state in which each
        // page lives on the GPU that first touches it, with that GPU's local
        // page table warm. Remote GPUs still far-fault on first access.
        // The scan visits accesses by trace position, GPU 0 first at each
        // position, which fixes every page's frame. A page counts as placed
        // only once a move succeeds: a full GPU leaves it on the host for
        // the next GPU that touches it.
        let mut placed = vec![false; census.len()];
        let mut unplaced = census.len();
        let max_len = (0..cfg.n_gpus).map(|g| sh.traces.len(g)).max().unwrap_or(0);
        for pos in 0..max_len {
            if unplaced == 0 {
                break;
            }
            for (g, lane) in lanes.iter_mut().enumerate() {
                let Some(access) = sh.traces.get(g, pos) else {
                    continue;
                };
                let vpn = access.vpn;
                let Some(page) = census.index(vpn) else {
                    continue;
                };
                if placed[page] {
                    continue;
                }
                if let Ok((_, ppn)) = host.host_mem.move_page(vpn, Node::Gpu(g)) {
                    placed[page] = true;
                    unplaced -= 1;
                    lane.gpu.page_table.insert(vpn, Pte::new_mapped(ppn, true));
                    host.dir_record(vpn, g);
                }
            }
        }
        // Prime every warp.
        for lane in &mut lanes {
            for cu in 0..cfg.gpu.cus {
                for warp in 0..cfg.gpu.warps_per_cu {
                    lane.q.schedule(Cycle::ZERO, Ev::WarpReady { cu, warp });
                }
            }
        }
        System {
            sh,
            lanes,
            host,
            threads: 1,
            tracer: Tracer::disabled(),
            prof: Profiler::disabled(),
            progress_every: 0,
            progress: None,
        }
    }

    /// Runs with diagnostics on failure (debug aid for protocol livelocks
    /// and coherence bugs).
    ///
    /// # Errors
    /// Like [`System::run`], and also [`SimError::Invariant`] when the run
    /// completes with stale translations. The error carries a state dump
    /// that lists every stale entry and, when a tracer is installed with
    /// [`System::set_tracer`], the tail of its events.
    pub fn run_debug(&mut self) -> Result<SimReport, (SimError, String)> {
        if let Err(e) = self.run_inner(400) {
            return Err((e, self.debug_dump()));
        }
        let report = self.report();
        if report.stale_translations == 0 {
            Ok(report)
        } else {
            let e = SimError::Invariant("stale translations survived the run");
            Err((e, self.debug_dump()))
        }
    }

    /// Runs the simulation to completion.
    ///
    /// Takes `&mut self` so post-run observability state — the trace
    /// recorded by [`System::set_tracer`] and the registry built by
    /// [`System::metrics_registry`] — stays reachable after the report is
    /// produced.
    ///
    /// # Errors
    /// [`SimError::Stalled`] if events drain before all warps retire;
    /// [`SimError::EventLimit`] on a runaway event count.
    pub fn run(&mut self) -> Result<SimReport, SimError> {
        self.run_inner(400)?;
        Ok(self.report())
    }

    fn report(&self) -> SimReport {
        let mut l1_hits = 0;
        let mut l1_misses = 0;
        let mut l2_hits = 0;
        let mut l2_misses = 0;
        let mut pwc_hits = 0u64;
        let mut pwc_misses = 0u64;
        let mut finish_cycle = Cycle::ZERO;
        let mut accesses_done = 0;
        let mut far_faults = 0;
        let mut invalidation_messages = 0;
        let mut events_processed = 0;
        let mut walker_mix = WalkerMix::default();
        let mut demand_miss_latency = Accumulator::new();
        let mut access_latency = Accumulator::new();
        let mut remote_data_latency = Accumulator::new();
        let mut invalidation_latency = Accumulator::new();
        let mut irmb_inserts = 0u64;
        let mut irmb_bypasses = 0u64;
        let mut irmb_evictions = 0u64;
        let mut irmb_superseded = 0u64;
        let mut transfw_sums = (0u64, 0u64, 0u64);
        let mut have_prts = false;
        let mut nvlink_bytes = 0u64;
        let mut pcie_bytes = 0u64;
        for lane in &self.lanes {
            l1_hits += lane.gpu.l1_tlbs.hits();
            l1_misses += lane.gpu.l1_tlbs.misses();
            l2_hits += lane.gpu.l2_tlb.hits();
            l2_misses += lane.gpu.l2_tlb.misses();
            pwc_hits += lane.gpu.gmmu.pwc().hits();
            pwc_misses += lane.gpu.gmmu.pwc().misses();
            finish_cycle = finish_cycle.max(lane.finish_cycle);
            accesses_done += lane.accesses_done;
            far_faults += lane.far_faults;
            invalidation_messages += lane.invalidation_messages;
            events_processed += lane.events_processed;
            walker_mix.demand += lane.walker_mix.demand;
            walker_mix.invalidation_necessary += lane.walker_mix.invalidation_necessary;
            walker_mix.invalidation_unnecessary += lane.walker_mix.invalidation_unnecessary;
            walker_mix.update += lane.walker_mix.update;
            demand_miss_latency.merge(&lane.demand_miss_latency);
            access_latency.merge(&lane.access_latency);
            remote_data_latency.merge(&lane.remote_data_latency);
            invalidation_latency.merge(&lane.invalidation_latency);
            if let Some(irmb) = lane.irmb.as_ref() {
                irmb_inserts += irmb.inserts();
                irmb_bypasses += irmb.lookup_hits();
                irmb_evictions += irmb.lru_evictions() + irmb.offset_evictions();
                irmb_superseded += irmb.removed_by_mapping();
            }
            if let Some(prt) = lane.prt.as_ref() {
                have_prts = true;
                transfw_sums.0 += prt.probes();
                transfw_sums.1 += prt.hits();
                transfw_sums.2 += prt.false_forwards();
            }
            nvlink_bytes += lane
                .egress
                .nvlink
                .iter()
                .map(|p| p.bytes_total())
                .sum::<u64>();
            pcie_bytes += lane.egress.pcie_up.bytes_total();
        }
        let host = &self.host;
        events_processed += host.events_processed;
        remote_data_latency.merge(&host.remote_data_latency);
        pcie_bytes += host.pcie_down.iter().map(|p| p.bytes_total()).sum::<u64>();
        SimReport {
            scheme: self.sh.cfg.scheme.name(),
            workload: self.sh.workload_name.clone(),
            exec_cycles: finish_cycle.raw(),
            accesses: accesses_done,
            instructions: self.sh.instructions,
            l1_tlb_hits: l1_hits,
            l1_tlb_misses: l1_misses,
            l2_tlb_hits: l2_hits,
            l2_tlb_misses: l2_misses,
            demand_miss_latency,
            access_latency,
            remote_data_latency,
            walker_mix,
            invalidation_messages,
            invalidation_latency,
            far_faults,
            migrations: host.migrations_done,
            migration_waiting: host.migration_waiting,
            migration_total: host.migration_total,
            irmb_inserts,
            irmb_bypasses,
            irmb_evictions,
            irmb_superseded,
            pwc_hit_rate: sim_engine::stats::hit_rate(pwc_hits, pwc_misses),
            vm_cache_hit_rate: host.vm_dir.as_ref().map(|v| v.cache_hit_rate()),
            transfw: if have_prts { Some(transfw_sums) } else { None },
            replication: if self.sh.cfg.scheme == Scheme::Replication {
                Some((host.replicas.replications(), host.replicas.collapses()))
            } else {
                None
            },
            nvlink_bytes,
            pcie_bytes,
            sharing_distribution: self.sh.sharing_distribution.clone(),
            events_processed,
            stale_translations: self.audit_translations().len() as u64,
        }
    }

    /// End-of-run translation-coherence audit (DESIGN.md invariant 1): a
    /// valid local PTE must agree with the driver's mapping unless a
    /// migration is still in flight, the IRMB holds a pending invalidation
    /// for it, or it is a granted read replica. Returns one line per stale
    /// PTE: its GPU, page and frame, the driver's frame (`None`: no host
    /// PTE), the GPU's replica frame and the page's replica holders.
    pub(crate) fn audit_translations(&self) -> Vec<String> {
        let host = &self.host;
        let mut stale = Vec::new();
        for (g, lane) in self.lanes.iter().enumerate() {
            for (vpn, pte) in lane.gpu.page_table.iter() {
                if !pte.is_valid() {
                    continue;
                }
                let host_ppn = host.host_mem.pte(vpn).map(|p| p.ppn());
                if host_ppn == Some(pte.ppn()) {
                    continue;
                }
                let replica = host.replica_frames.get(&(g, vpn)).copied();
                let excused = host_ppn.is_some()
                    && (host.migrations.is_migrating(vpn)
                        || lane.irmb.as_ref().is_some_and(|i| i.contains(vpn))
                        || replica == Some(pte.ppn()));
                if !excused {
                    stale.push(format!(
                        "gpu={g} vpn={:#x} pte_ppn={} host_ppn={host_ppn:?} replica={replica:?} holders={}",
                        vpn.0,
                        pte.ppn(),
                        host.replicas.holders(vpn)
                    ));
                }
            }
        }
        stale
    }
}
