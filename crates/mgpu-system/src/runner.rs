//! Experiment runner: executes scheme × workload grids (in parallel across
//! OS threads) and formats the paper-style result tables.

use workloads::{AppId, Workload};

use crate::config::SystemConfig;
use crate::metrics::SimReport;
use crate::system::{QueuePool, SimError, System};

/// One (scheme, workload) cell to simulate.
#[derive(Debug, Clone)]
pub struct Job {
    /// Scheme label used in output tables (e.g. "IDYLL", "Baseline").
    pub scheme: String,
    /// System configuration.
    pub config: SystemConfig,
    /// Workload to run.
    pub workload: Workload,
}

/// One completed grid cell with its host-side cost: how long the job took
/// on the wall and how many simulation events it processed. Throughput
/// (events per second) is the grid-regression metric the `all_figures`
/// fan-out exports.
#[derive(Debug, Clone)]
pub struct TimedRun {
    /// Scheme label from the [`Job`].
    pub scheme: String,
    /// The simulation result.
    pub report: SimReport,
    /// Host wall-clock seconds spent constructing and running the system.
    pub wall_secs: f64,
}

impl TimedRun {
    /// Simulation events processed per host second (0 for a zero-length run).
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.report.events_processed as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

fn run_one(job: Job, sim_threads: usize, pool: &mut QueuePool) -> Result<TimedRun, SimError> {
    // Wall-clock measures host throughput for the grid-metrics export; it
    // never feeds simulation state or determinism-tested artifacts.
    // simlint: allow(wall-clock) — harness throughput metric only
    let t0 = std::time::Instant::now();
    let Job {
        scheme,
        config,
        workload,
    } = job;
    let mut sys = System::new_with_pool(config, &workload, pool);
    sys.set_threads(sim_threads.max(1));
    let report = sys.run();
    // Hand the lane heaps back so the worker's next grid cell schedules
    // into pre-grown buffers instead of re-growing from zero.
    sys.recycle(pool);
    let report = report?;
    Ok(TimedRun {
        scheme,
        report,
        wall_secs: t0.elapsed().as_secs_f64(),
    })
}

/// Runs a set of jobs, using up to `threads` OS threads, preserving job
/// order in the result. Workers take the longest job (most trace accesses)
/// first.
///
/// # Errors
/// Propagates the first [`SimError`] encountered.
pub fn run_jobs(jobs: Vec<Job>, threads: usize) -> Result<Vec<(String, SimReport)>, SimError> {
    Ok(run_jobs_timed(jobs, threads, 1)?
        .into_iter()
        .map(|t| (t.scheme, t.report))
        .collect())
}

/// Like [`run_jobs`], but each result carries its wall-clock cost so callers
/// can surface per-run throughput (see `bench`'s grid-metrics export).
/// `sim_threads` drives each simulation's event lanes (0 or 1 = serial);
/// artifacts are byte-identical for any value, only wall-clock changes.
///
/// # Errors
/// Propagates the first [`SimError`] encountered.
///
/// # Panics
/// If a worker thread panics (poisoning the internal queue locks).
pub fn run_jobs_timed(
    jobs: Vec<Job>,
    threads: usize,
    sim_threads: usize,
) -> Result<Vec<TimedRun>, SimError> {
    let threads = threads.max(1);
    if threads == 1 || jobs.len() <= 1 {
        let mut pool = QueuePool::new();
        return jobs
            .into_iter()
            .map(|job| run_one(job, sim_threads, &mut pool))
            .collect();
    }
    let n = jobs.len();
    let mut results: Vec<Option<Result<TimedRun, SimError>>> = (0..n).map(|_| None).collect();
    // Longest first: workers `pop()` from the back, so sort the job with
    // the most trace accesses (ties: lowest input index) to the end. A
    // heavy cell started last would leave every other worker idle.
    let mut jobs: Vec<(usize, Job)> = jobs.into_iter().enumerate().collect();
    jobs.sort_by_key(|(idx, job)| (job.workload.total_accesses(), std::cmp::Reverse(*idx)));
    let queue = std::sync::Mutex::new(jobs);
    let out = std::sync::Mutex::new(&mut results);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| {
                // One heap pool per worker: queues recycle across the grid
                // cells this worker happens to draw.
                let mut pool = QueuePool::new();
                loop {
                    let job = {
                        let mut q = queue.lock().expect("queue lock");
                        q.pop()
                    };
                    let Some((idx, job)) = job else { break };
                    let result = run_one(job, sim_threads, &mut pool);
                    out.lock().expect("out lock")[idx] = Some(result);
                }
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every job ran"))
        .collect()
}

/// Geometric mean of positive values (the paper averages speedups).
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Formats a figure-style table: rows = workloads (paper order), columns =
/// series, cell = formatted value; appends an `Ave.` row using the
/// arithmetic mean (as the paper's figures do).
#[must_use]
pub fn format_table(
    title: &str,
    columns: &[&str],
    rows: &[(&str, Vec<f64>)],
    precision: usize,
) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    s.push_str(title);
    s.push('\n');
    let _ = write!(s, "{:<8}", "app");
    for c in columns {
        let _ = write!(s, "{c:>16}");
    }
    s.push('\n');
    let mut sums = vec![0.0; columns.len()];
    for (app, values) in rows {
        let _ = write!(s, "{app:<8}");
        for (i, v) in values.iter().enumerate() {
            let _ = write!(s, "{v:>16.precision$}");
            sums[i] += v;
        }
        s.push('\n');
    }
    if !rows.is_empty() {
        let _ = write!(s, "{:<8}", "Ave.");
        for sum in sums {
            let avg = sum / rows.len() as f64;
            let _ = write!(s, "{avg:>16.precision$}");
        }
        s.push('\n');
    }
    s
}

/// The paper's workload ordering in every figure.
pub const FIGURE_ORDER: [AppId; 9] = AppId::ALL;

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{Scale, WorkloadSpec};

    #[test]
    fn geomean_and_mean() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-9);
        assert!(geomean(&[]).abs() < 1e-12);
        assert!(mean(&[]).abs() < 1e-12);
    }

    #[test]
    fn format_table_includes_average() {
        let out = format_table(
            "Fig X",
            &["a", "b"],
            &[("MT", vec![1.0, 2.0]), ("MM", vec![3.0, 4.0])],
            2,
        );
        assert!(out.contains("Fig X"));
        assert!(out.contains("MT"));
        assert!(out.contains("Ave."));
        assert!(out.contains("2.00")); // average of column a
        assert!(out.contains("3.00")); // average of column b
    }

    #[test]
    fn run_jobs_single_thread_smoke() {
        let cfg = SystemConfig::test(2);
        let spec = WorkloadSpec::paper_default(AppId::Bs, Scale::Test);
        let wl = workloads::generate(&spec, 2, 3);
        let results = run_jobs(
            vec![Job {
                scheme: "baseline".into(),
                config: cfg,
                workload: wl,
            }],
            1,
        )
        .expect("runs");
        assert_eq!(results.len(), 1);
        assert!(results[0].1.exec_cycles > 0);
    }

    #[test]
    fn run_jobs_parallel_preserves_order() {
        let mut jobs = Vec::new();
        for (i, app) in [AppId::Bs, AppId::Sc].into_iter().enumerate() {
            let cfg = SystemConfig::test(2);
            let wl = workloads::generate(&WorkloadSpec::paper_default(app, Scale::Test), 2, 3);
            jobs.push(Job {
                scheme: format!("job{i}"),
                config: cfg,
                workload: wl,
            });
        }
        let results = run_jobs(jobs, 4).expect("runs");
        assert_eq!(results[0].0, "job0");
        assert_eq!(results[1].0, "job1");
    }

    #[test]
    fn longest_first_dispatch_preserves_order() {
        // One long job in the middle of short ones: it is dispatched first,
        // yet every result still lands at its input index.
        let short = WorkloadSpec::paper_default(AppId::Bs, Scale::Test);
        let long = WorkloadSpec::paper_default(AppId::Pr, Scale::Test).enlarged(2);
        let mut jobs = Vec::new();
        for i in 0..6 {
            let spec = if i == 2 { &long } else { &short };
            jobs.push(Job {
                scheme: format!("job{i}"),
                config: SystemConfig::test(2),
                workload: workloads::generate(spec, 2, i),
            });
        }
        assert!(jobs.iter().all(|j| j.scheme == "job2"
            || j.workload.total_accesses() < jobs[2].workload.total_accesses()));
        let serial = run_jobs(jobs.clone(), 1).expect("runs");
        let parallel = run_jobs(jobs, 3).expect("runs");
        for (i, ((s_label, s), (p_label, p))) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(p_label, &format!("job{i}"));
            assert_eq!(s_label, p_label);
            assert_eq!(s.exec_cycles, p.exec_cycles, "{p_label}");
            assert_eq!(s.events_processed, p.events_processed, "{p_label}");
        }
    }
}
