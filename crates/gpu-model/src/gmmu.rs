//! The GPU Memory Management Unit.
//!
//! Per Table 2 and Figure 3, the GMMU owns (i) a 64-entry page-walk queue
//! buffering translation requests, (ii) a 128-entry page-walk cache shared
//! across walker threads, and (iii) 8 walker threads at 100 cycles per
//! level. Crucially, in the baseline every class of request — demand TLB
//! misses, migration-induced PTE invalidations and driver PTE updates —
//! flows through this one structure, which is the contention IDYLL removes.

use sim_engine::queue::BoundedQueue;
use sim_engine::resource::ThreadPool;
use sim_engine::stats::Accumulator;
use sim_engine::Cycle;
use vm_model::addr::{PageSize, Vpn};
use vm_model::page_table::PageTable;
use vm_model::pwc::PageWalkCache;
use vm_model::walker::{walk_invalidate, walk_translate, WalkResult, WalkerConfig};

/// Why a walk was requested. The class drives both statistics (Figure 5's
/// request mix) and semantics (invalidations clear the leaf valid bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WalkClass {
    /// A demand TLB miss performing address translation.
    Demand,
    /// A migration-induced PTE invalidation (baseline path).
    Invalidation,
    /// A batched IRMB write-back invalidation (IDYLL path).
    IrmbWriteback,
    /// A driver-sent PTE update installing a new mapping.
    Update,
}

impl WalkClass {
    /// Whether this walk clears the leaf valid bit.
    pub fn is_invalidation(self) -> bool {
        matches!(self, WalkClass::Invalidation | WalkClass::IrmbWriteback)
    }
}

/// A queued walk request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkRequest {
    /// Page to walk.
    pub vpn: Vpn,
    /// Request class.
    pub class: WalkClass,
    /// Opaque token for the system layer to resume the requester.
    pub token: u64,
    /// When the request entered the queue.
    pub enqueued_at: Cycle,
}

/// A dispatched walk: the request, its timing and semantic outcome.
#[derive(Debug, Clone, Copy)]
pub struct DispatchedWalk {
    /// The originating request.
    pub request: WalkRequest,
    /// Timing and leaf outcome.
    pub result: WalkResult,
    /// For invalidation classes: whether a valid PTE was actually cleared
    /// (the paper's necessary/unnecessary split, Figure 5).
    pub necessary: Option<bool>,
    /// Absolute completion time.
    pub finish_at: Cycle,
    /// Time spent waiting in the page-walk queue.
    pub queued_for: Cycle,
}

/// Per-class walk statistics.
#[derive(Debug, Clone, Default)]
pub struct WalkClassStats {
    /// Completed walks.
    pub count: u64,
    /// Walk latency (excluding queue time).
    pub walk_latency: Accumulator,
    /// Queue waiting time.
    pub queue_latency: Accumulator,
    /// PWC hits among these walks.
    pub pwc_hits: u64,
}

/// The GMMU.
///
/// # Example
///
/// ```
/// use gpu_model::gmmu::{Gmmu, GmmuConfig, WalkClass};
/// use vm_model::page_table::PageTable;
/// use vm_model::{PageSize, Vpn, Pte};
/// use sim_engine::Cycle;
///
/// let mut pt = PageTable::new(PageSize::Size4K);
/// pt.insert(Vpn(5), Pte::new_mapped(1, true));
/// let mut gmmu = Gmmu::new(GmmuConfig::default(), PageSize::Size4K);
/// gmmu.enqueue(Vpn(5), WalkClass::Demand, 0, Cycle(0)).unwrap();
/// let walk = gmmu.try_dispatch(Cycle(0), &mut pt).unwrap();
/// assert!(walk.result.outcome.mapped().is_some());
/// ```
#[derive(Debug)]
pub struct Gmmu {
    queue: BoundedQueue<WalkRequest>,
    walkers: ThreadPool,
    pwc: PageWalkCache,
    walker_cfg: WalkerConfig,
    demand: WalkClassStats,
    invalidation: WalkClassStats,
    irmb_writeback: WalkClassStats,
    update: WalkClassStats,
}

/// GMMU configuration (Table 2 defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GmmuConfig {
    /// Page-walk queue entries (64).
    pub walk_queue_entries: usize,
    /// Walker threads (8; §7.2 sweeps 16 and 32).
    pub walker_threads: usize,
    /// Page-walk cache entries (128, shared).
    pub pwc_entries: usize,
    /// Per-level walk latency (100 cycles).
    pub walker: WalkerConfig,
}

impl Default for GmmuConfig {
    fn default() -> Self {
        GmmuConfig {
            walk_queue_entries: 64,
            walker_threads: 8,
            pwc_entries: 128,
            walker: WalkerConfig::default(),
        }
    }
}

impl Gmmu {
    /// Creates a GMMU whose page-walk cache covers the radix levels of a
    /// `page_size` page table.
    pub fn new(cfg: GmmuConfig, page_size: PageSize) -> Self {
        Gmmu {
            queue: BoundedQueue::new(cfg.walk_queue_entries),
            walkers: ThreadPool::new(cfg.walker_threads),
            pwc: PageWalkCache::new(cfg.pwc_entries, page_size.levels()),
            walker_cfg: cfg.walker,
            demand: WalkClassStats::default(),
            invalidation: WalkClassStats::default(),
            irmb_writeback: WalkClassStats::default(),
            update: WalkClassStats::default(),
        }
    }

    /// Enqueues a walk request.
    ///
    /// # Errors
    /// Returns the request back when the page-walk queue is full
    /// (back-pressure: the caller must retry later).
    pub fn enqueue(
        &mut self,
        vpn: Vpn,
        class: WalkClass,
        token: u64,
        now: Cycle,
    ) -> Result<(), WalkRequest> {
        self.queue.push(WalkRequest {
            vpn,
            class,
            token,
            enqueued_at: now,
        })
    }

    /// Attempts to start the next queued walk at time `now` against the
    /// GPU's local page table. Returns `None` when the queue is empty or all
    /// walker threads are busy (use [`Gmmu::next_walker_free`] to know when
    /// to retry).
    pub fn try_dispatch(&mut self, now: Cycle, pt: &mut PageTable) -> Option<DispatchedWalk> {
        if !self.walkers.has_free(now) {
            return None;
        }
        let request = self.queue.pop()?;
        let (result, necessary) = if request.class.is_invalidation() {
            let (r, n) = walk_invalidate(pt, &mut self.pwc, request.vpn, self.walker_cfg);
            (r, Some(n))
        } else {
            (
                walk_translate(pt, &mut self.pwc, request.vpn, self.walker_cfg),
                None,
            )
        };
        #[expect(
            clippy::expect_used,
            reason = "has_free(now) held above; acquiring at `now` cannot fail"
        )]
        self.walkers
            .try_acquire(now, result.latency)
            .expect("checked has_free");
        let queued_for = now.saturating_sub(request.enqueued_at);
        let stats = self.stats_mut(request.class);
        stats.count += 1;
        stats.walk_latency.record_cycles(result.latency);
        stats.queue_latency.record_cycles(queued_for);
        if result.pwc_hit {
            stats.pwc_hits += 1;
        }
        Some(DispatchedWalk {
            request,
            result,
            necessary,
            finish_at: now + result.latency,
            queued_for,
        })
    }

    /// The earliest cycle a walker thread frees up.
    pub fn next_walker_free(&self) -> Cycle {
        self.walkers.earliest_free()
    }

    /// Whether the GMMU is completely idle (empty queue and, at `now`, at
    /// least one free walker) — the IRMB's opportunistic-drain condition.
    pub fn is_idle(&self, now: Cycle) -> bool {
        self.queue.is_empty() && self.walkers.available(now) == self.walkers.size()
    }

    /// Queue occupancy.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Free queue slots.
    pub fn queue_free(&self) -> usize {
        self.queue.free()
    }

    /// Rejected enqueues (queue-full back-pressure events).
    pub fn queue_rejections(&self) -> u64 {
        self.queue.rejected()
    }

    /// Shared page-walk cache (for hit-rate reporting).
    pub fn pwc(&self) -> &PageWalkCache {
        &self.pwc
    }

    /// Per-class statistics.
    pub fn stats(&self, class: WalkClass) -> &WalkClassStats {
        match class {
            WalkClass::Demand => &self.demand,
            WalkClass::Invalidation => &self.invalidation,
            WalkClass::IrmbWriteback => &self.irmb_writeback,
            WalkClass::Update => &self.update,
        }
    }

    fn stats_mut(&mut self, class: WalkClass) -> &mut WalkClassStats {
        match class {
            WalkClass::Demand => &mut self.demand,
            WalkClass::Invalidation => &mut self.invalidation,
            WalkClass::IrmbWriteback => &mut self.irmb_writeback,
            WalkClass::Update => &mut self.update,
        }
    }

    /// Total busy walker cycles (utilisation numerator).
    pub fn walker_busy_cycles(&self) -> u64 {
        self.walkers.busy_cycles()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm_model::addr::PageSize;
    use vm_model::pte::Pte;

    fn pt_with(vpns: &[u64]) -> PageTable {
        let mut pt = PageTable::new(PageSize::Size4K);
        for &v in vpns {
            pt.insert(Vpn(v), Pte::new_mapped(v + 1, true));
        }
        pt
    }

    #[test]
    fn demand_walk_translates() {
        let mut pt = pt_with(&[5]);
        let mut g = Gmmu::new(GmmuConfig::default(), PageSize::Size4K);
        g.enqueue(Vpn(5), WalkClass::Demand, 7, Cycle(0)).unwrap();
        let w = g.try_dispatch(Cycle(0), &mut pt).unwrap();
        assert_eq!(w.request.token, 7);
        assert_eq!(w.result.mem_accesses, 5);
        assert_eq!(w.finish_at, Cycle(500));
        assert_eq!(w.necessary, None);
        assert!(
            pt.lookup(Vpn(5)).unwrap().is_valid(),
            "translate is read-only"
        );
        assert_eq!(g.stats(WalkClass::Demand).count, 1);
    }

    #[test]
    fn invalidation_walk_clears_and_classifies() {
        let mut pt = pt_with(&[5]);
        let mut g = Gmmu::new(GmmuConfig::default(), PageSize::Size4K);
        g.enqueue(Vpn(5), WalkClass::Invalidation, 0, Cycle(0))
            .unwrap();
        g.enqueue(Vpn(5), WalkClass::Invalidation, 1, Cycle(0))
            .unwrap();
        let w1 = g.try_dispatch(Cycle(0), &mut pt).unwrap();
        assert_eq!(w1.necessary, Some(true));
        assert!(!pt.lookup(Vpn(5)).unwrap().is_valid());
        let w2 = g.try_dispatch(Cycle(0), &mut pt).unwrap();
        assert_eq!(w2.necessary, Some(false), "already invalid: unnecessary");
        assert_eq!(g.stats(WalkClass::Invalidation).count, 2);
    }

    #[test]
    fn walker_threads_limit_concurrency() {
        let mut pt = pt_with(&[1, 2, 3]);
        let mut g = Gmmu::new(
            GmmuConfig {
                walker_threads: 2,
                ..GmmuConfig::default()
            },
            PageSize::Size4K,
        );
        for (i, v) in [1u64, 2, 3].iter().enumerate() {
            g.enqueue(Vpn(*v), WalkClass::Demand, i as u64, Cycle(0))
                .unwrap();
        }
        assert!(g.try_dispatch(Cycle(0), &mut pt).is_some());
        assert!(g.try_dispatch(Cycle(0), &mut pt).is_some());
        assert!(
            g.try_dispatch(Cycle(0), &mut pt).is_none(),
            "both walkers busy"
        );
        assert_eq!(g.queue_len(), 1);
        let free_at = g.next_walker_free();
        assert!(g.try_dispatch(free_at, &mut pt).is_some());
    }

    #[test]
    fn queue_backpressure() {
        let mut g = Gmmu::new(
            GmmuConfig {
                walk_queue_entries: 1,
                ..GmmuConfig::default()
            },
            PageSize::Size4K,
        );
        g.enqueue(Vpn(1), WalkClass::Demand, 0, Cycle(0)).unwrap();
        let rejected = g.enqueue(Vpn(2), WalkClass::Demand, 1, Cycle(0));
        assert!(rejected.is_err());
        assert_eq!(g.queue_rejections(), 1);
    }

    #[test]
    fn queue_latency_is_tracked() {
        let mut pt = pt_with(&[1]);
        let mut g = Gmmu::new(GmmuConfig::default(), PageSize::Size4K);
        g.enqueue(Vpn(1), WalkClass::Demand, 0, Cycle(100)).unwrap();
        let w = g.try_dispatch(Cycle(160), &mut pt).unwrap();
        assert_eq!(w.queued_for, Cycle(60));
        assert_eq!(g.stats(WalkClass::Demand).queue_latency.mean(), Some(60.0));
    }

    #[test]
    fn idle_detection() {
        let mut pt = pt_with(&[1]);
        let mut g = Gmmu::new(GmmuConfig::default(), PageSize::Size4K);
        assert!(g.is_idle(Cycle(0)));
        g.enqueue(Vpn(1), WalkClass::Demand, 0, Cycle(0)).unwrap();
        assert!(!g.is_idle(Cycle(0)));
        let w = g.try_dispatch(Cycle(0), &mut pt).unwrap();
        assert!(!g.is_idle(Cycle(0)), "walker busy");
        assert!(g.is_idle(w.finish_at));
    }

    #[test]
    fn update_walks_do_not_invalidate() {
        let mut pt = pt_with(&[9]);
        let mut g = Gmmu::new(GmmuConfig::default(), PageSize::Size4K);
        g.enqueue(Vpn(9), WalkClass::Update, 0, Cycle(0)).unwrap();
        let w = g.try_dispatch(Cycle(0), &mut pt).unwrap();
        assert_eq!(w.necessary, None);
        assert!(pt.lookup(Vpn(9)).unwrap().is_valid());
        assert_eq!(g.stats(WalkClass::Update).count, 1);
    }

    #[test]
    fn irmb_writeback_batches_amortise_pwc() {
        // Two write-backs sharing a base: the second hits the PWC.
        let mut pt = pt_with(&[0x200, 0x201]);
        let mut g = Gmmu::new(GmmuConfig::default(), PageSize::Size4K);
        g.enqueue(Vpn(0x200), WalkClass::IrmbWriteback, 0, Cycle(0))
            .unwrap();
        g.enqueue(Vpn(0x201), WalkClass::IrmbWriteback, 1, Cycle(0))
            .unwrap();
        let w1 = g.try_dispatch(Cycle(0), &mut pt).unwrap();
        let w2 = g.try_dispatch(Cycle(0), &mut pt).unwrap();
        assert_eq!(w1.result.mem_accesses, 5);
        assert_eq!(w2.result.mem_accesses, 1, "batched walk hits PWC");
        assert_eq!(g.stats(WalkClass::IrmbWriteback).pwc_hits, 1);
    }
}
