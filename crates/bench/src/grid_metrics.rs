//! The evaluation ledger: process-wide record of what the figure grids
//! simulated, and the reports they can share.
//!
//! Every grid the [`Harness`](crate::Harness) runs appends one
//! [`RunRecord`] per simulation it actually ran. Spec-level cells are also
//! memoised here: [`store`] keeps each cell's `SimReport` under its
//! `mgpu_system::canon::job_key`, and a later figure that asks for the same
//! cell takes the report from [`plan`] instead of simulating it again.
//! `grid.runs` therefore counts *distinct* simulations, and `grid.reused`
//! the cells served without one (ledger hits plus repeats within a batch).
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
//! covers every `SystemConfig` and `WorkloadSpec` field plus the seed, and
//! lane threads never change a report.

// Event counts are far below 2^52, so u64 → f64 throughput math is exact
// enough for human-facing reporting.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

use mgpu_system::runner::TimedRun;
use mgpu_system::SimReport;
use sim_engine::metrics::MetricsRegistry;

/// Host-side cost of one completed grid job.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Job label with the internal `\u{1}` app/scheme separator replaced by
    /// `.` so it is printable and JSON-friendly (e.g. `KM.idyll`).
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

fn push_records(ledger: &mut Ledger, runs: &[TimedRun]) {
    for run in runs {
        ledger.records.push(RunRecord {
            label: run.scheme.replace('\u{1}', "."),
            wall_secs: run.wall_secs,
            events: run.report.events_processed,
        });
    }
}

/// Appends one record per timed run, without memoising the reports (for
/// jobs that have no job key).
pub fn record(runs: &[TimedRun]) {
    push_records(&mut lock(), runs);
}

/// Plans a batch of cells keyed by job key: returns the reports this
/// evaluation already holds for any of `keys`, and the index of the first
/// cell of every other key, i.e. the cells left to simulate. Every cell not
/// in that list (a ledger hit or a repeat within the batch) counts as
/// reused.
#[must_use]
pub fn plan(keys: &[String]) -> (BTreeMap<String, SimReport>, Vec<usize>) {
    let mut ledger = lock();
    let mut hits = BTreeMap::new();
    let mut misses = Vec::new();
    let mut seen = BTreeSet::new();
    for (i, key) in keys.iter().enumerate() {
        if !seen.insert(key) {
            continue;
        }
        match ledger.reports.get(key) {
            Some(report) => {
                hits.insert(key.clone(), report.clone());
            }
            None => misses.push(i),
        }
    }
    ledger.reused += (keys.len() - misses.len()) as u64;
    (hits, misses)
}

/// Records the runs of a batch's misses and memoises each report under its
/// job key (`keys[i]` belongs to `runs[i]`).
pub fn store(keys: &[String], runs: &[TimedRun]) {
    let mut ledger = lock();
    push_records(&mut ledger, runs);
    for (key, run) in keys.iter().zip(runs) {
        ledger.reports.insert(key.clone(), run.report.clone());
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
/// library deliberately never reads the wall clock itself, so the simlint
/// wall-clock rule holds here without an allow.
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

    fn timed(label: &str, secs: f64, events: u64) -> TimedRun {
        TimedRun {
            scheme: label.to_string(),
            report: SimReport {
                events_processed: events,
                ..Default::default()
            },
            wall_secs: secs,
        }
    }

    // The recorder is process-global and other bench tests run grids in
    // parallel, so assertions are containment/≥-style, never exact counts.
    #[test]
    fn record_sanitizes_labels_and_registry_exports_them() {
        record(&[
            timed("KM\u{1}idyll", 2.0, 1000),
            timed("BS\u{1}base", 0.0, 7),
        ]);
        let snap = snapshot();
        assert!(snap
            .iter()
            .any(|r| r.label == "KM.idyll" && r.events == 1000));
        assert!(
            snap.iter().all(|r| !r.label.contains('\u{1}')),
            "labels must be sanitized"
        );
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
