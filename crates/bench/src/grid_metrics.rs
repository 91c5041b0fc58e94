//! The evaluation ledger: process-wide record of what the figure grids
//! simulated, and the reports they can share.
//!
//! Every [`evaluate`](crate::evaluate) call plans its figures' cells here
//! once: [`plan`] serves each cell this evaluation already simulated from
//! the report kept under its `mgpu_system::canon::job_key`, and [`store`]
//! appends one [`RunRecord`] per simulation actually run and keeps its
//! report for later plans. `grid.runs` therefore counts *distinct*
//! simulations, and `grid.reused` the cells served without one (ledger hits
//! plus repeats within a plan).
//!
//! [`clear`] is the evaluation boundary: it forgets the records and the
//! reports, so the next figure simulates every cell afresh. An
//! `all_figures` process is one evaluation; perfbench clears before each
//! repetition. The `all_figures` binary drains the recorder at the end into
//! a [`MetricsRegistry`] JSON export (`results/grid_metrics.json`) so
//! host-side simulation throughput can be tracked across commits alongside
//! the figure outputs.
//!
//! Wall-clock numbers are host measurements and intentionally live outside
//! the simulation: they never feed model state, and the determinism suite
//! does not cover them (two runs of the same grid legitimately differ here).
//!
//! Reuse is sound because a report is a pure function of its key: the key
//! covers every `SystemConfig` and `WorkloadSource` field plus the seed, and
//! lane threads never change a report.

// Event counts are far below 2^52, so u64 → f64 throughput math is exact
// enough for human-facing reporting.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

use mgpu_system::SimReport;
use sim_engine::metrics::MetricsRegistry;

/// Host-side cost of one completed grid job.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The cell's `row.scheme` label (e.g. `KM.idyll`, `VGG16.base`).
    pub label: String,
    /// Wall-clock seconds the job took on its worker thread.
    pub wall_secs: f64,
    /// Simulation events the job processed.
    pub events: u64,
}

impl RunRecord {
    /// Events per host second (0 for a zero-length run).
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.events as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

/// Everything the current evaluation has simulated.
struct Ledger {
    records: Vec<RunRecord>,
    /// Successful reports by job key.
    reports: BTreeMap<String, SimReport>,
    /// Cells served without a simulation of their own.
    reused: u64,
}

impl Ledger {
    const fn new() -> Self {
        Ledger {
            records: Vec::new(),
            reports: BTreeMap::new(),
            reused: 0,
        }
    }
}

static LEDGER: Mutex<Ledger> = Mutex::new(Ledger::new());

// Lock poisoning cannot corrupt the ledger (every mutation is a single
// push, insert, add or reset), so all accessors just take the data back.
fn lock() -> std::sync::MutexGuard<'static, Ledger> {
    LEDGER
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Plans a batch of cells keyed by job key: returns the reports this
/// evaluation already holds for any of `keys`, and the index of the first
/// cell of every other key, i.e. the cells left to simulate. Every cell not
/// in that list (a ledger hit or a repeat within the batch) counts as
/// reused.
#[must_use]
pub fn plan(keys: &[&str]) -> (BTreeMap<String, SimReport>, Vec<usize>) {
    let mut ledger = lock();
    let mut hits = BTreeMap::new();
    let mut misses = Vec::new();
    let mut seen = BTreeSet::new();
    for (i, key) in keys.iter().enumerate() {
        if !seen.insert(key) {
            continue;
        }
        match ledger.reports.get(*key) {
            Some(report) => {
                hits.insert(key.to_string(), report.clone());
            }
            None => misses.push(i),
        }
    }
    ledger.reused += (keys.len() - misses.len()) as u64;
    (hits, misses)
}

/// Records the simulations a plan ran and memoises each report under its
/// job key.
pub fn store(runs: impl IntoIterator<Item = (String, RunRecord, SimReport)>) {
    let mut ledger = lock();
    for (key, record, report) in runs {
        ledger.records.push(record);
        ledger.reports.insert(key, report);
    }
}

/// Starts a new evaluation: forgets the records, the memoised reports and
/// the reuse count.
pub fn clear() {
    *lock() = Ledger::new();
}

/// A copy of everything recorded so far, in completion-batch order.
#[must_use]
pub fn snapshot() -> Vec<RunRecord> {
    lock().records.clone()
}

/// Cells served from the ledger so far in this evaluation.
#[must_use]
pub fn reused() -> u64 {
    lock().reused
}

/// Version of the `results/grid_metrics.json` layout; bump when the shape
/// of the export changes so downstream tooling can detect old files.
pub const SCHEMA_VERSION: u64 = 3;

/// Renders the recorder into a registry: aggregate totals under `grid.*`
/// plus per-run entries under `grid.run.<index>.*` (indexed, not
/// label-keyed, because the same app/scheme pair can run in several grids).
///
/// `generated_at_unix_secs` is stamped into the export by the caller — this
/// library deliberately never reads the wall clock itself.
#[must_use]
pub fn registry(generated_at_unix_secs: u64) -> MetricsRegistry {
    let records = snapshot();
    let mut reg = MetricsRegistry::new();
    let total_secs: f64 = records.iter().map(|r| r.wall_secs).sum();
    let total_events: u64 = records.iter().map(|r| r.events).sum();
    reg.count("grid.schema_version", SCHEMA_VERSION);
    reg.count("grid.generated_at_unix_secs", generated_at_unix_secs);
    reg.count("grid.runs", records.len() as u64);
    reg.count("grid.reused", reused());
    reg.gauge("grid.wall_secs", total_secs);
    reg.count("grid.events", total_events);
    reg.gauge(
        "grid.events_per_sec",
        if total_secs > 0.0 {
            total_events as f64 / total_secs
        } else {
            0.0
        },
    );
    for (i, r) in records.iter().enumerate() {
        let mut scope = reg.scope(format!("grid.run.{i:04}.{}", r.label));
        scope.gauge("wall_secs", r.wall_secs);
        scope.count("events", r.events);
        scope.gauge("events_per_sec", r.events_per_sec());
    }
    reg
}

/// One-line human summary for stderr (`all_figures` prints it after the
/// figure loop). Empty string when nothing was recorded.
#[must_use]
pub fn summary_line() -> String {
    let records = snapshot();
    if records.is_empty() {
        return String::new();
    }
    let total_secs: f64 = records.iter().map(|r| r.wall_secs).sum();
    let total_events: u64 = records.iter().map(|r| r.events).sum();
    let eps = if total_secs > 0.0 {
        total_events as f64 / total_secs
    } else {
        0.0
    };
    format!(
        "grid throughput: {} runs ({} reused), {total_events} events in {total_secs:.2}s of worker time ({eps:.0} events/s)",
        records.len(),
        reused()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(key: &str, label: &str, secs: f64, events: u64) -> (String, RunRecord, SimReport) {
        let record = RunRecord {
            label: label.to_string(),
            wall_secs: secs,
            events,
        };
        let report = SimReport {
            events_processed: events,
            ..Default::default()
        };
        (key.to_string(), record, report)
    }

    // The recorder is process-global and other bench tests run grids in
    // parallel, so assertions are containment/≥-style, never exact counts.
    #[test]
    fn store_memoises_and_registry_exports_the_records() {
        store([
            run("unit-test-km", "KM.idyll", 2.0, 1000),
            run("unit-test-bs", "BS.base", 0.0, 7),
        ]);
        let (hits, misses) = plan(&["unit-test-km", "unit-test-none"]);
        assert_eq!(hits["unit-test-km"].events_processed, 1000);
        assert_eq!(misses, vec![1]);
        let snap = snapshot();
        assert!(snap
            .iter()
            .any(|r| r.label == "KM.idyll" && r.events == 1000));
        let zero = snap
            .iter()
            .find(|r| r.label == "BS.base")
            .expect("recorded");
        assert!(
            zero.events_per_sec().abs() < 1e-12,
            "zero wall time must not divide"
        );
        let json = registry(1_700_000_000).to_json();
        assert!(json.contains("\"grid.schema_version\""));
        assert!(json.contains("\"grid.generated_at_unix_secs\": 1700000000"));
        assert!(json.contains("\"grid.runs\""));
        assert!(json.contains("\"grid.reused\""));
        assert!(json.contains("\"grid.events_per_sec\""));
        assert!(json.contains("KM.idyll.wall_secs"));
        assert!(summary_line().contains(" reused), "));
    }
}
