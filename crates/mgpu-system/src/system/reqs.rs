//! In-flight translation requests: one slot per warp.
//!
//! A warp has at most one memory access in flight — `Cu::issue` requires a
//! `Ready` warp, and the warp is readied again only when its access
//! retires — so a lane keeps its requests in a table with one slot per
//! warp instead of a hash map. A request's token is
//! `seq × warps + warp_index`, where `seq` is the lane's issue sequence
//! number. The slot is `token % warps` and stores the whole token, so a
//! token whose warp has since issued again, or the synthetic `u64::MAX`
//! refault token, finds nothing.

use super::Req;

/// The lane's in-flight requests, indexed by warp.
pub(crate) struct ReqTable {
    slots: Vec<Option<(u64, Req)>>,
    next_seq: u64,
}

impl ReqTable {
    /// An empty table for a GPU with `warps` warps in total.
    pub(crate) fn new(warps: usize) -> ReqTable {
        ReqTable {
            slots: vec![None; warps.max(1)],
            next_seq: 0,
        }
    }

    fn warps(&self) -> u64 {
        self.slots.len() as u64
    }

    /// Registers `req`, issued by warp `warp_index`, under a fresh token.
    /// `None` when the index is out of range or the warp already has a
    /// request in flight.
    pub(crate) fn issue(&mut self, warp_index: usize, req: Req) -> Option<u64> {
        let token = self.next_seq * self.warps() + warp_index as u64;
        let slot = self.slots.get_mut(warp_index)?;
        if slot.is_some() {
            return None;
        }
        *slot = Some((token, req));
        self.next_seq += 1;
        Some(token)
    }

    /// Bytes of the slot table, one slot per warp.
    pub(crate) fn footprint_bytes(&self) -> usize {
        std::mem::size_of_val(self.slots.as_slice())
    }

    /// The issue sequence number `token` was minted with (what traces
    /// print, and what spreads accesses across a page's cache lines).
    pub(crate) fn seq(&self, token: u64) -> u64 {
        token / self.warps()
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "u64 → usize cannot truncate: sim_engine refuses to build for non-64-bit hosts"
    )]
    fn slot(&self, token: u64) -> usize {
        (token % self.warps()) as usize
    }

    /// The live request behind `token`.
    pub(crate) fn get(&self, token: u64) -> Option<&Req> {
        match self.slots.get(self.slot(token))? {
            Some((t, req)) if *t == token => Some(req),
            _ => None,
        }
    }

    /// Mutable access to the live request behind `token`.
    pub(crate) fn get_mut(&mut self, token: u64) -> Option<&mut Req> {
        let slot = self.slot(token);
        match self.slots.get_mut(slot)? {
            Some((t, req)) if *t == token => Some(req),
            _ => None,
        }
    }

    /// Retires the request behind `token`, freeing its warp's slot.
    pub(crate) fn remove(&mut self, token: u64) -> Option<Req> {
        let slot = self.slot(token);
        let entry = self.slots.get_mut(slot)?;
        match *entry {
            Some((t, req)) if t == token => {
                *entry = None;
                Some(req)
            }
            _ => None,
        }
    }

    /// Requests in flight.
    pub(crate) fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// `(token, request)` pairs in warp order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &Req)> {
        self.slots.iter().flatten().map(|(t, req)| (*t, req))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_engine::Cycle;
    use vm_model::addr::Vpn;

    fn req(cu: usize, warp: usize) -> Req {
        Req {
            cu,
            warp,
            vpn: Vpn(7),
            is_write: false,
            issue_at: Cycle::ZERO,
            l2_miss_at: None,
        }
    }

    #[test]
    fn tokens_encode_the_issue_sequence_and_warp() {
        let mut t = ReqTable::new(6);
        let a = t.issue(4, req(2, 0)).unwrap();
        let b = t.issue(1, req(0, 1)).unwrap();
        assert_eq!((a, b), (4, 6 + 1));
        assert_eq!((t.seq(a), t.seq(b)), (0, 1));
        assert_eq!(t.get(a).map(|r| r.cu), Some(2));
        assert_eq!(t.len(), 2);
        assert_eq!(t.iter().map(|(tok, _)| tok).collect::<Vec<_>>(), [b, a]);
    }

    #[test]
    fn an_expired_token_finds_nothing_once_its_warp_issues_again() {
        let mut t = ReqTable::new(4);
        let old = t.issue(3, req(1, 1)).unwrap();
        assert!(t.remove(old).is_some());
        let new = t.issue(3, req(1, 1)).unwrap();
        assert_ne!(old, new);
        assert!(t.get(old).is_none());
        assert!(t.get_mut(old).is_none());
        assert!(t.remove(old).is_none());
        assert!(t.get(new).is_some(), "the stale lookups left the live one");
        for stale in [u64::MAX, new + 4] {
            assert!(t.get(stale).is_none());
            assert!(t.get_mut(stale).is_none());
            assert!(t.remove(stale).is_none());
        }
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn a_warp_holds_one_request_at_a_time() {
        let mut t = ReqTable::new(2);
        assert!(t.issue(0, req(0, 0)).is_some());
        assert!(t.issue(0, req(0, 0)).is_none(), "still in flight");
        assert!(t.issue(2, req(1, 0)).is_none(), "no such warp");
    }
}
