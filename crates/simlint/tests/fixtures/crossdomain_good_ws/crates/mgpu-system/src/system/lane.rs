//! Fixture lane module that lints clean: cross-domain effects ride the
//! outbox, and the same reach in host code is legal. Never compiled —
//! scanned textually by the simlint tests.

impl GpuLane {
    pub(crate) fn on_inval_done(&mut self, vpn: u64) {
        self.outbox.push(Out::InvalAck { vpn });
    }
}

impl HostState {
    pub(crate) fn route(&mut self, lanes: &[Mutex<GpuLane>], vpn: u64) {
        lock_lane(lanes, 0).q.schedule(self.now, Ev::InvalAck { vpn });
    }
}
