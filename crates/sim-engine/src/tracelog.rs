//! Bounded event-trace ring buffer.
//!
//! A lightweight flight recorder for debugging protocol issues: components
//! append one-line records as they act; when something goes wrong (a stall,
//! an audit failure) the last N records explain how the simulation got
//! there, without the cost or volume of full logging.

use std::collections::VecDeque;

use crate::time::Cycle;

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulated time of the event.
    pub at: Cycle,
    /// Emitting component (static label, e.g. `"gmmu0"`).
    pub component: &'static str,
    /// Free-form description.
    pub message: String,
}

impl std::fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.at, self.component, self.message)
    }
}

/// A fixed-capacity ring buffer of trace records.
///
/// Appends are O(1); when full, the oldest record is dropped. Disabled
/// tracers (capacity 0 via [`TraceLog::disabled`]) make `push` a no-op so
/// the recorder can stay wired in release configurations.
///
/// # Example
///
/// ```
/// use sim_engine::tracelog::TraceLog;
/// use sim_engine::Cycle;
///
/// let mut log = TraceLog::new(2);
/// log.push(Cycle(1), "tlb", "miss vpn=0x42".into());
/// log.push(Cycle(2), "gmmu", "walk start".into());
/// log.push(Cycle(3), "gmmu", "walk done".into());
/// let dump = log.dump();
/// assert!(dump.contains("walk done"));
/// assert!(dump.contains("1 earlier record dropped")); // truncation is visible
/// ```
#[derive(Debug, Clone)]
pub struct TraceLog {
    records: VecDeque<TraceRecord>,
    capacity: usize,
    dropped: u64,
}

impl TraceLog {
    /// Creates a recorder holding the last `capacity` records.
    pub fn new(capacity: usize) -> Self {
        TraceLog {
            records: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
        }
    }

    /// A disabled recorder: `push` is a no-op.
    pub fn disabled() -> Self {
        TraceLog::new(0)
    }

    /// Whether recording is enabled.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// The configured ring capacity (0 when disabled). Used to fork
    /// same-sized per-lane shards in the parallel event core.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends a record, evicting the oldest when full.
    pub fn push(&mut self, at: Cycle, component: &'static str, message: String) {
        if self.capacity == 0 {
            return;
        }
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(TraceRecord {
            at,
            component,
            message,
        });
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records evicted so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates oldest-to-newest.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    /// Renders the retained records, one per line, oldest first. When the
    /// ring has evicted records, a leading line says how many, so truncated
    /// evidence is never mistaken for the full history.
    pub fn dump(&self) -> String {
        let mut s = String::new();
        if self.dropped > 0 {
            let plural = if self.dropped == 1 { "" } else { "s" };
            s.push_str(&format!(
                "... ({} earlier record{plural} dropped)\n",
                self.dropped
            ));
        }
        for r in &self.records {
            s.push_str(&r.to_string());
            s.push('\n');
        }
        s
    }

    /// Retained records from `component` only.
    pub fn filter(&self, component: &str) -> Vec<&TraceRecord> {
        self.records
            .iter()
            .filter(|r| r.component == component)
            .collect()
    }

    /// Clears the buffer (keeps the capacity).
    pub fn clear(&mut self) {
        self.records.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retains_last_n_in_order() {
        let mut log = TraceLog::new(3);
        for i in 0..5u64 {
            log.push(Cycle(i), "c", format!("e{i}"));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped(), 2);
        let msgs: Vec<&str> = log.iter().map(|r| r.message.as_str()).collect();
        assert_eq!(msgs, vec!["e2", "e3", "e4"]);
    }

    #[test]
    fn disabled_log_is_a_noop() {
        let mut log = TraceLog::disabled();
        assert!(!log.is_enabled());
        log.push(Cycle(1), "c", "x".into());
        assert!(log.is_empty());
        assert_eq!(log.dropped(), 0);
        assert_eq!(log.dump(), "");
    }

    #[test]
    fn filter_by_component() {
        let mut log = TraceLog::new(8);
        log.push(Cycle(1), "tlb", "a".into());
        log.push(Cycle(2), "gmmu", "b".into());
        log.push(Cycle(3), "tlb", "c".into());
        let tlb = log.filter("tlb");
        assert_eq!(tlb.len(), 2);
        assert_eq!(tlb[1].message, "c");
    }

    #[test]
    fn dump_format_and_clear() {
        let mut log = TraceLog::new(4);
        log.push(Cycle(7), "drv", "fault vpn=0x1".into());
        let dump = log.dump();
        assert_eq!(dump, "[7cy] drv: fault vpn=0x1\n");
        log.clear();
        assert!(log.is_empty());
        // Capacity survives a clear.
        log.push(Cycle(8), "drv", "again".into());
        assert_eq!(log.len(), 1);
    }
}
