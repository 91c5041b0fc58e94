//! Page-migration policies and access counters (§3.3).

use sim_engine::collections::DetHashMap;
use vm_model::addr::Vpn;

/// The GPU-to-GPU page-migration policy.
///
/// All policies migrate a page from the CPU to a GPU on first GPU touch;
/// they differ in how they treat subsequent *remote* (GPU-to-GPU) accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationPolicy {
    /// Pin the page to the first GPU that touched it; remote accesses stay
    /// remote forever.
    FirstTouch,
    /// Migrate on every remote access ("ping-pong" prone).
    OnTouch,
    /// NVIDIA Volta+-style: migrate when a GPU's access counter for the page
    /// reaches `threshold` (256 in the open-source UVM driver default).
    AccessCounter {
        /// Remote accesses required before migration.
        threshold: u32,
    },
}

impl MigrationPolicy {
    /// The paper's baseline: access counters with threshold 256.
    pub fn baseline() -> Self {
        MigrationPolicy::AccessCounter { threshold: 256 }
    }
}

impl std::fmt::Display for MigrationPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrationPolicy::FirstTouch => write!(f, "first-touch"),
            MigrationPolicy::OnTouch => write!(f, "on-touch"),
            MigrationPolicy::AccessCounter { threshold } => {
                write!(f, "access-counter({threshold})")
            }
        }
    }
}

/// One GPU's per-page remote-access counters (each GPU owns one table).
///
/// # Example
///
/// ```
/// use uvm_driver::policy::{AccessCounters, MigrationPolicy};
/// use vm_model::Vpn;
///
/// let policy = MigrationPolicy::AccessCounter { threshold: 2 };
/// let mut counters = AccessCounters::new();
/// assert!(!counters.record_remote_access(policy, Vpn(7)));
/// assert!(counters.record_remote_access(policy, Vpn(7))); // threshold hit
/// ```
#[derive(Debug, Clone, Default)]
pub struct AccessCounters {
    counts: DetHashMap<Vpn, u32>,
    triggers: u64,
}

impl AccessCounters {
    /// Creates an empty counter table.
    pub fn new() -> Self {
        AccessCounters::default()
    }

    /// Records one remote access by the owning GPU to `vpn` under `policy`;
    /// returns whether the policy asks for a migration of `vpn` to that GPU.
    pub fn record_remote_access(&mut self, policy: MigrationPolicy, vpn: Vpn) -> bool {
        match policy {
            MigrationPolicy::FirstTouch => false,
            MigrationPolicy::OnTouch => {
                self.triggers += 1;
                true
            }
            MigrationPolicy::AccessCounter { threshold } => {
                let c = self.counts.entry(vpn).or_insert(0);
                *c += 1;
                if *c >= threshold {
                    *c = 0;
                    self.triggers += 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Current counter value (0 when never counted).
    pub fn count(&self, vpn: Vpn) -> u32 {
        self.counts.get(&vpn).copied().unwrap_or(0)
    }

    /// Clears the counter for `vpn` — done on every GPU when the page
    /// migrates, so counting restarts against the new placement.
    pub fn reset_page(&mut self, vpn: Vpn) {
        self.counts.remove(&vpn);
    }

    /// Total migration triggers raised.
    pub fn triggers(&self) -> u64 {
        self.triggers
    }

    /// Number of live counters (diagnostic).
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Bytes of the live counters, one key and count each.
    pub fn footprint_bytes(&self) -> usize {
        self.counts.len() * std::mem::size_of::<(Vpn, u32)>()
    }

    /// Whether no counters are live.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_never_migrates() {
        let mut c = AccessCounters::new();
        for _ in 0..1000 {
            assert!(!c.record_remote_access(MigrationPolicy::FirstTouch, Vpn(1)));
        }
        assert_eq!(c.triggers(), 0);
    }

    #[test]
    fn on_touch_always_migrates() {
        let mut c = AccessCounters::new();
        assert!(c.record_remote_access(MigrationPolicy::OnTouch, Vpn(1)));
        assert!(c.record_remote_access(MigrationPolicy::OnTouch, Vpn(1)));
        assert_eq!(c.triggers(), 2);
    }

    #[test]
    fn counter_threshold_and_reset_on_trigger() {
        let p = MigrationPolicy::AccessCounter { threshold: 3 };
        let mut c = AccessCounters::new();
        assert!(!c.record_remote_access(p, Vpn(1)));
        assert!(!c.record_remote_access(p, Vpn(1)));
        assert!(c.record_remote_access(p, Vpn(1)));
        // Counter auto-resets after triggering.
        assert_eq!(c.count(Vpn(1)), 0);
        assert!(!c.record_remote_access(p, Vpn(1)));
    }

    #[test]
    fn counters_are_per_page_and_per_table() {
        let p = MigrationPolicy::AccessCounter { threshold: 2 };
        let (mut gpu0, mut gpu1) = (AccessCounters::new(), AccessCounters::new());
        gpu0.record_remote_access(p, Vpn(1));
        gpu0.record_remote_access(p, Vpn(2));
        gpu0.record_remote_access(p, Vpn(2));
        gpu1.record_remote_access(p, Vpn(1));
        assert_eq!(gpu0.count(Vpn(1)), 1);
        assert_eq!(gpu0.count(Vpn(2)), 0, "threshold reached and reset");
        assert_eq!(gpu1.count(Vpn(1)), 1);
        assert_eq!(gpu0.len(), 2);
        assert_eq!(gpu0.triggers(), 1);
        assert_eq!(gpu1.triggers(), 0);
    }

    #[test]
    fn reset_page_clears_only_that_page() {
        let p = MigrationPolicy::AccessCounter { threshold: 10 };
        let mut c = AccessCounters::new();
        c.record_remote_access(p, Vpn(1));
        c.record_remote_access(p, Vpn(1));
        c.record_remote_access(p, Vpn(2));
        c.reset_page(Vpn(1));
        assert_eq!(c.count(Vpn(1)), 0);
        assert_eq!(c.count(Vpn(2)), 1, "other pages untouched");
        assert_eq!(c.len(), 1);
        c.reset_page(Vpn(3));
        assert_eq!(c.len(), 1, "resetting an uncounted page is a no-op");
    }

    #[test]
    fn baseline_is_256() {
        assert_eq!(
            MigrationPolicy::baseline(),
            MigrationPolicy::AccessCounter { threshold: 256 }
        );
        assert_eq!(
            MigrationPolicy::baseline().to_string(),
            "access-counter(256)"
        );
    }
}
