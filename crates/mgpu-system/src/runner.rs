//! Experiment runner: executes scheme × workload grids (in parallel across
//! OS threads) and formats the paper-style result tables.

use std::collections::BTreeMap;

use sim_engine::prof::Profiler;
use workloads::{AppId, Scale, Workload, WorkloadSpec};

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
    /// Per-phase self-profile, present when the run was observed with
    /// [`RunObserver::profile`] set.
    pub profile: Option<Profiler>,
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

/// Host-side observation knobs for a batch of runs: self-profiling and
/// lane threads. The default observer observes nothing and leaves every
/// run on its single-branch disabled instrumentation paths.
#[derive(Clone, Default)]
pub struct RunObserver {
    /// Install an enabled self-profiler on every run (the per-phase profile
    /// lands in [`TimedRun::profile`]).
    pub profile: bool,
    /// Worker threads driving each simulation's event lanes (0 or 1 =
    /// serial). Artifacts are byte-identical for any value; this only
    /// changes wall-clock. Distinct from the `threads` argument of
    /// [`run_jobs`], which parallelises across *jobs*.
    pub sim_threads: usize,
}

fn run_one(job: Job, obs: &RunObserver, pool: &mut QueuePool) -> Result<TimedRun, SimError> {
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
    sys.set_threads(obs.sim_threads.max(1));
    if obs.profile {
        sys.set_profiler(Profiler::enabled());
    }
    let report = sys.run();
    let profile = obs.profile.then(|| sys.profiler().clone());
    // Hand the lane heaps back so the worker's next grid cell schedules
    // into pre-grown buffers instead of re-growing from zero.
    sys.recycle(pool);
    let report = report?;
    Ok(TimedRun {
        scheme,
        report,
        wall_secs: t0.elapsed().as_secs_f64(),
        profile,
    })
}

/// Runs a set of jobs, using up to `threads` OS threads, preserving job
/// order in the result.
///
/// # Errors
/// Propagates the first [`SimError`] encountered.
pub fn run_jobs(jobs: Vec<Job>, threads: usize) -> Result<Vec<(String, SimReport)>, SimError> {
    Ok(run_jobs_timed(jobs, threads)?
        .into_iter()
        .map(|t| (t.scheme, t.report))
        .collect())
}

/// Like [`run_jobs`], but each result carries its wall-clock cost so callers
/// can surface per-run throughput (see `bench`'s grid-metrics export).
///
/// # Errors
/// Propagates the first [`SimError`] encountered.
///
/// # Panics
/// If a worker thread panics (poisoning the internal queue locks).
pub fn run_jobs_timed(jobs: Vec<Job>, threads: usize) -> Result<Vec<TimedRun>, SimError> {
    run_jobs_timed_observed(jobs, threads, &RunObserver::default())
}

/// Like [`run_jobs_timed`], with host-side observation: `obs` can install a
/// per-run self-profiler and set each simulation's lane threads.
///
/// # Errors
/// Propagates the first [`SimError`] encountered.
///
/// # Panics
/// If a worker thread panics (poisoning the internal queue locks).
pub fn run_jobs_timed_observed(
    jobs: Vec<Job>,
    threads: usize,
    obs: &RunObserver,
) -> Result<Vec<TimedRun>, SimError> {
    let threads = threads.max(1);
    if threads == 1 || jobs.len() <= 1 {
        let mut pool = QueuePool::new();
        return jobs
            .into_iter()
            .map(|job| run_one(job, obs, &mut pool))
            .collect();
    }
    let n = jobs.len();
    let mut results: Vec<Option<Result<TimedRun, SimError>>> = (0..n).map(|_| None).collect();
    let jobs: Vec<(usize, Job)> = jobs.into_iter().enumerate().collect();
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
                    let result = run_one(job, obs, &mut pool);
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

/// Convenience: run all nine Table 3 applications under each named
/// configuration and return `results[app][scheme]`.
///
/// # Errors
/// Propagates the first [`SimError`].
///
/// # Panics
/// If a worker thread panics (see [`run_jobs_timed`]).
pub fn run_matrix(
    schemes: &[(&str, SystemConfig)],
    scale: Scale,
    seed: u64,
    threads: usize,
) -> Result<BTreeMap<String, BTreeMap<String, SimReport>>, SimError> {
    let mut jobs = Vec::new();
    for app in AppId::ALL {
        for (name, cfg) in schemes {
            let spec = WorkloadSpec::paper_default(app, scale);
            let workload = workloads::generate(&spec, cfg.n_gpus, seed);
            jobs.push(Job {
                scheme: format!("{app}\u{1}{name}"),
                config: cfg.clone(),
                workload,
            });
        }
    }
    let results = run_jobs(jobs, threads)?;
    let mut table: BTreeMap<String, BTreeMap<String, SimReport>> = BTreeMap::new();
    for (key, report) in results {
        let (app, scheme) = key.split_once('\u{1}').expect("composite key");
        table
            .entry(app.to_string())
            .or_default()
            .insert(scheme.to_string(), report);
    }
    Ok(table)
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
}
