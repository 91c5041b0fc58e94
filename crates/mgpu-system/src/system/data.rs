//! Post-translation data path: local cache/DRAM access, remote cacheline
//! service over NVLink, and the access counters that trigger migrations.
//!
//! Remote accesses are a two-lane protocol: the requester sends a
//! `RemoteReqArrive` through its egress pipe; the owner (a GPU lane or the
//! host) services it from its own memory model, accounts the response
//! transfer on its own egress, and mails `AccessDone` back. The owner
//! records the end-to-end remote latency in its own shard — merged at
//! report time.

use mem_model::interconnect::Node;
use sim_engine::Cycle;
use vm_model::addr::Vpn;
use vm_model::pte::Pte;

use super::{msg, Ev, GpuLane, HostState, OrInvariant, Shared, SimError};
use crate::config::Scheme;

impl GpuLane {
    /// Starts the data access for a translated request at time `start`.
    pub(crate) fn start_data_access(
        &mut self,
        sh: &Shared,
        host: &HostState,
        token: u64,
        pte: Pte,
        start: Cycle,
    ) -> Result<(), SimError> {
        let req = *self
            .reqs
            .get(token)
            .or_invariant("data access for a request that no longer exists")?;
        // Spread requests across cache lines within the page, by issue
        // sequence, so the tag-only caches see realistic line-level
        // behaviour.
        let line_offset = (self.reqs.seq(token) % (sh.page_bytes() / 64)) * 64;
        let paddr = pte.ppn() * sh.page_bytes() + line_offset;
        match sh.memmap.owner(pte.ppn()) {
            Node::Gpu(owner) if owner == self.id => {
                // Local: L1 pipeline + L2/DRAM.
                let lat = self.gpu.local_data_latency(start, paddr);
                let at = start + sh.cfg.gpu.l1_hit_latency + lat;
                self.q.schedule(at, Ev::AccessDone { token });
            }
            Node::Gpu(owner) => {
                self.note_remote_access(sh, host, req.vpn);
                let arrive = self.xfer_gpu_at(start, owner, msg::REMOTE_REQ);
                self.send_gpu(
                    arrive,
                    owner,
                    Ev::RemoteReqArrive {
                        token,
                        requester: self.id,
                        issue_at: req.issue_at,
                        paddr,
                    },
                );
            }
            Node::Host => {
                self.note_remote_access(sh, host, req.vpn);
                let arrive = self.xfer_host_at(start, msg::REMOTE_REQ);
                self.send_host(
                    arrive,
                    Ev::RemoteReqArrive {
                        token,
                        requester: self.id,
                        issue_at: req.issue_at,
                        paddr,
                    },
                );
            }
        }
        Ok(())
    }

    /// Owner side: a remote request arrived; service it from local DRAM.
    pub(crate) fn on_remote_req_arrive(
        &mut self,
        token: u64,
        requester: usize,
        issue_at: Cycle,
        paddr: u64,
    ) {
        let served = self.now + self.gpu.serve_remote_latency(self.now, paddr);
        self.q.schedule(
            served,
            Ev::RemoteServed {
                token,
                requester,
                issue_at,
            },
        );
    }

    /// Owner side: DRAM produced the line; send the response back and
    /// account the full remote round trip.
    pub(crate) fn on_remote_served(&mut self, token: u64, requester: usize, issue_at: Cycle) {
        let done = self.xfer_gpu_at(self.now, requester, msg::REMOTE_RESP);
        self.remote_data_latency
            .record(done.saturating_sub(issue_at).raw() as f64);
        self.send_gpu(done, requester, Ev::AccessDone { token });
    }

    /// Counts a remote access toward the migration policy and asks the
    /// driver to migrate once the per-page threshold trips.
    fn note_remote_access(&mut self, sh: &Shared, host: &HostState, vpn: Vpn) {
        if sh.cfg.scheme == Scheme::Replication {
            // Replication study: pages replicate on read faults instead of
            // migrating on access counts.
            return;
        }
        if self.counters.record_remote_access(sh.cfg.policy, vpn)
            && !host.migrations.is_migrating(vpn)
        {
            let at = self.xfer_host_at(self.now, msg::MIG_REQ);
            let to = self.id;
            self.send_host(at, Ev::MigRequestAtHost { vpn, to });
        }
    }

    /// The access completed (locally or remotely): retire it and re-ready
    /// the warp after the compute gap.
    pub(crate) fn on_access_done(&mut self, sh: &Shared, token: u64) -> Result<(), SimError> {
        let req = self
            .reqs
            .remove(token)
            .or_invariant("access completed for a request that no longer exists")?;
        self.accesses_done += 1;
        self.access_latency
            .record(self.now.saturating_sub(req.issue_at).raw() as f64);
        let ready_at = self
            .gpu
            .cus
            .get_mut(req.cu)
            .or_invariant("access completed on a CU outside the GPU")?
            .complete_access(req.warp, self.now, sh.compute_gap);
        self.q.schedule(
            ready_at,
            Ev::WarpReady {
                cu: req.cu,
                warp: req.warp,
            },
        );
        Ok(())
    }
}

impl HostState {
    /// Host-owner side of the remote protocol: fixed DRAM service latency.
    pub(crate) fn on_remote_req_arrive(&mut self, token: u64, requester: usize, issue_at: Cycle) {
        let served = self.now + 100;
        self.q.schedule(
            served,
            Ev::RemoteServed {
                token,
                requester,
                issue_at,
            },
        );
    }

    /// Host-owner side: push the response down the requester's PCIe pipe.
    pub(crate) fn on_remote_served(
        &mut self,
        lanes: &mut [Box<GpuLane>],
        token: u64,
        requester: usize,
        issue_at: Cycle,
    ) {
        let done = self.xfer_down(requester, msg::REMOTE_RESP);
        self.remote_data_latency
            .record(done.saturating_sub(issue_at).raw() as f64);
        self.sched_lane(lanes, requester, done, Ev::AccessDone { token });
    }
}
