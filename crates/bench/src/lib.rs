//! Experiment harness: one [`Figure`] per paper table/figure.
//!
//! A figure is its cells (the scheme × workload simulations it needs) plus
//! a pure render of their reports into a text table shaped like the
//! corresponding figure in the paper (rows = applications in figure order,
//! columns = schemes/series, plus the paper's `Ave.` row). [`evaluate`]
//! runs any set of figures through one plan: every cell is keyed by
//! `job_key`, the distinct cells the evaluation has not simulated yet run
//! on one job pool, and each figure renders from its own cells' reports.
//! The `all_figures` binary (`--only <id>` for one figure) and perfbench
//! call into here; EXPERIMENTS.md records the outputs next to the paper's
//! numbers.
//!
//! # Example
//!
//! ```no_run
//! use idyll_bench::{evaluate, Harness, HarnessConfig, FIGURES};
//! let h = Harness::new(HarnessConfig::from_env().expect("valid IDYLL_* variables"));
//! let fig11 = FIGURES.iter().filter(|f| f.id == "fig11").copied();
//! for text in evaluate(&h, &fig11.collect::<Vec<_>>()) {
//!     println!("{}", text.expect("simulation succeeds"));
//! }
//! ```

use std::collections::BTreeMap;

use mgpu_system::canon::job_key;
use mgpu_system::config::{Scheme, SystemConfig};
use mgpu_system::system::SimError;
use mgpu_system::SimReport;
use uvm_driver::policy::MigrationPolicy;
use workloads::{Scale, WorkloadSource};

mod figures;
pub mod grid_metrics;
mod pool;

pub use figures::FIGURES;

/// Harness-wide knobs.
#[derive(Debug, Clone, Copy)]
pub struct HarnessConfig {
    /// Trace scale (defaults to `Small`; set `IDYLL_SCALE=full` for the
    /// larger runs, `IDYLL_SCALE=test` for CI smoke).
    pub scale: Scale,
    /// Worker threads for the run grid (parallelism across jobs).
    pub threads: usize,
    /// Worker threads for each simulation's event lanes (parallelism
    /// within a job; 0 or 1 = serial). Artifacts are byte-identical for
    /// any value.
    pub sim_threads: usize,
    /// Workload seed.
    pub seed: u64,
}

/// Reads `name`: `default` when it is unset, its parsed value when `parse`
/// accepts it, else an error naming the variable and the `accepted` values.
fn env_var<T>(
    name: &str,
    default: T,
    accepted: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<T, String> {
    match std::env::var(name) {
        Err(std::env::VarError::NotPresent) => Ok(default),
        Ok(value) => parse(&value)
            .ok_or_else(|| format!("{name}={value:?} is not valid; accepted: {accepted}")),
        Err(std::env::VarError::NotUnicode(value)) => Err(format!(
            "{name}={value:?} is not valid; accepted: {accepted}"
        )),
    }
}

impl HarnessConfig {
    /// Reads `IDYLL_SCALE`, `IDYLL_THREADS`, `IDYLL_SIM_THREADS` and
    /// `IDYLL_SEED` from the environment; an unset variable keeps its
    /// default (`small`, the available parallelism, 1 and 42).
    ///
    /// # Errors
    /// A set variable whose value is not one of the accepted values, named
    /// in the message.
    pub fn from_env() -> Result<Self, String> {
        let scale = env_var(
            "IDYLL_SCALE",
            Scale::Small,
            "test, small, full",
            |v| match v {
                "test" => Some(Scale::Test),
                "small" => Some(Scale::Small),
                "full" => Some(Scale::Full),
                _ => None,
            },
        )?;
        let parallelism = std::thread::available_parallelism().map_or(4, |n| n.get());
        let count = "a non-negative integer";
        Ok(HarnessConfig {
            scale,
            threads: env_var("IDYLL_THREADS", parallelism, count, |v| v.parse().ok())?,
            sim_threads: env_var("IDYLL_SIM_THREADS", 1, count, |v| v.parse().ok())?,
            seed: env_var("IDYLL_SEED", 42, "an unsigned 64-bit integer", |v| {
                v.parse().ok()
            })?,
        })
    }
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            scale: Scale::Small,
            threads: 8,
            sim_threads: 1,
            seed: 42,
        }
    }
}

/// The experiment harness.
#[derive(Debug, Clone, Copy)]
pub struct Harness {
    cfg: HarnessConfig,
}

impl Harness {
    /// Creates a harness.
    pub fn new(cfg: HarnessConfig) -> Self {
        Harness { cfg }
    }

    /// The configuration in force.
    pub fn config(&self) -> HarnessConfig {
        self.cfg
    }

    /// The scaled access-counter policy standing in for the driver's 256
    /// (see DESIGN.md §6 on threshold scaling).
    pub fn policy(&self) -> MigrationPolicy {
        MigrationPolicy::AccessCounter {
            threshold: self.cfg.scale.counter_threshold(),
        }
    }

    /// The baseline system at `n_gpus` with the scaled policy, running
    /// `scheme`.
    pub fn scheme(&self, n_gpus: usize, scheme: Scheme) -> SystemConfig {
        SystemConfig {
            policy: self.policy(),
            scheme,
            ..SystemConfig::baseline(n_gpus)
        }
    }

    /// [`Harness::scheme`] with [`Scheme::Baseline`].
    pub fn baseline(&self, n_gpus: usize) -> SystemConfig {
        self.scheme(n_gpus, Scheme::Baseline)
    }

    /// [`Harness::scheme`] with [`Scheme::Idyll`].
    pub fn idyll(&self, n_gpus: usize) -> SystemConfig {
        self.scheme(n_gpus, Scheme::Idyll)
    }
}

/// One simulation a figure needs, described by value; its trace is
/// generated on the pool worker that runs it.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The figure row: an application or DNN model name.
    pub row: &'static str,
    /// The scheme (series) within the row.
    pub scheme: String,
    /// The simulated system.
    pub config: SystemConfig,
    /// What the trace is generated from.
    pub source: WorkloadSource,
    /// Workload seed.
    pub seed: u64,
}

/// A figure's reports: one entry per row, in the order its cells first name
/// the row, each holding that row's reports by scheme.
pub type Grid = Vec<(&'static str, BTreeMap<String, SimReport>)>;

/// One table or figure of the paper's evaluation.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// The id `all_figures --only` takes and `results/<id>.txt` is named by.
    pub id: &'static str,
    /// The simulations the figure needs.
    pub cells: fn(&Harness) -> Vec<Cell>,
    /// Renders the figure from its cells' reports.
    pub render: fn(&Harness, &Grid) -> String,
}

/// Evaluates `figures` through one plan and returns each figure's text in
/// order. Every cell is keyed by `job_key`; cells this evaluation already
/// simulated (see [`grid_metrics`]) or that repeat within the plan are
/// reused, and the distinct misses run on one job pool. The reports are
/// assembled from a plan-local map, so a concurrent `grid_metrics::clear`
/// can cost a re-simulation but never a missing report.
///
/// # Errors
/// A figure is `Err` with the first failure among its own cells; the other
/// figures still render.
pub fn evaluate(h: &Harness, figures: &[Figure]) -> Vec<Result<String, SimError>> {
    let planned: Vec<Vec<(String, Cell)>> = figures
        .iter()
        .map(|f| {
            (f.cells)(h)
                .into_iter()
                .map(|c| (job_key(&c.config, &c.source, c.seed), c))
                .collect()
        })
        .collect();
    let flat: Vec<&(String, Cell)> = planned.iter().flatten().collect();
    let keys: Vec<&str> = flat.iter().map(|(key, _)| key.as_str()).collect();
    let (hits, misses) = grid_metrics::plan(&keys);
    let jobs: Vec<&Cell> = misses.iter().map(|&i| &flat[i].1).collect();
    let runs = pool::run_jobs_timed(&jobs, h.cfg.threads, h.cfg.sim_threads);
    grid_metrics::store(misses.iter().zip(&runs).filter_map(|(&i, run)| {
        let run = run.as_ref().ok()?;
        let (key, cell) = flat[i];
        let record = grid_metrics::RunRecord {
            label: format!("{}.{}", cell.row, cell.scheme),
            wall_secs: run.wall_secs,
            events: run.report.events_processed,
        };
        Some((key.clone(), record, run.report.clone()))
    }));
    let mut done: BTreeMap<String, Result<SimReport, SimError>> = hits
        .into_iter()
        .map(|(key, report)| (key, Ok(report)))
        .collect();
    for (&i, run) in misses.iter().zip(runs) {
        done.insert(keys[i].to_string(), run.map(|r| r.report));
    }
    figures
        .iter()
        .zip(&planned)
        .map(|(figure, cells)| {
            let mut grid = Grid::new();
            for (key, cell) in cells {
                let report = done[key.as_str()].clone()?;
                let row = match grid.iter().position(|(row, _)| *row == cell.row) {
                    Some(row) => row,
                    None => {
                        grid.push((cell.row, BTreeMap::new()));
                        grid.len() - 1
                    }
                };
                grid[row].1.insert(cell.scheme.clone(), report);
            }
            Ok((figure.render)(h, &grid))
        })
        .collect()
}

/// A lazily-evaluated figure generator.
pub type FigureFn = fn(&Harness) -> Result<String, SimError>;

/// [`evaluate`] on `FIGURES[I]` alone.
fn evaluate_one<const I: usize>(h: &Harness) -> Result<String, SimError> {
    evaluate(h, &FIGURES[I..=I]).remove(0)
}

/// All figure ids with their generators, each [`evaluate`] on that figure
/// alone; perfbench times them one by one. Lazy, so callers can evaluate
/// and persist each figure incrementally.
pub fn all_figures() -> Vec<(&'static str, FigureFn)> {
    macro_rules! by_index {
        ($($i:literal)*) => {
            vec![$((FIGURES[$i].id, evaluate_one::<$i> as FigureFn)),*]
        };
    }
    by_index!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21)
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
            if let Some(sum) = sums.get_mut(i) {
                *sum += v;
            }
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

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{AppId, WorkloadSpec};

    fn test_harness() -> Harness {
        Harness::new(HarnessConfig {
            scale: Scale::Test,
            threads: 4,
            sim_threads: 1,
            seed: 7,
        })
    }

    fn figure(id: &str) -> Figure {
        *FIGURES.iter().find(|f| f.id == id).expect("known figure")
    }

    #[test]
    fn every_figure_has_one_generator_in_order() {
        let ids: Vec<&str> = all_figures().into_iter().map(|(id, _)| id).collect();
        let expected: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
        assert_eq!(ids, expected);
    }

    #[test]
    fn table2_mentions_key_parameters() {
        let t = evaluate(&test_harness(), &[figure("table2")]).remove(0);
        let t = t.expect("no simulation needed");
        assert!(t.contains("512 entries"));
        assert!(t.contains("8 threads"));
        assert!(t.contains("128 entries"));
    }

    #[test]
    fn fig04_rows_sum_to_100() {
        let out = evaluate(&test_harness(), &[figure("fig04")]).remove(0);
        let out = out.expect("no simulation needed");
        assert!(out.contains("MT"));
        assert!(out.contains("Ave."));
    }

    #[test]
    fn fig11_smoke_at_test_scale() {
        let out = evaluate(&test_harness(), &[figure("fig11")]).remove(0);
        let out = out.expect("runs");
        assert!(out.contains("idyll"));
        assert!(out.contains("Ave."));
        // All nine apps appear.
        for app in AppId::ALL {
            assert!(out.contains(app.name()), "{out}");
        }
    }

    #[test]
    fn a_failed_cell_fails_only_its_own_figure() {
        let failing = Figure {
            id: "failing",
            cells: |h| {
                let mut config = h.baseline(2);
                config.max_events = 1;
                vec![Cell {
                    row: "BS",
                    scheme: "limited".to_string(),
                    config,
                    source: WorkloadSource::App(WorkloadSpec::paper_default(
                        AppId::Bs,
                        h.config().scale,
                    )),
                    seed: h.config().seed,
                }]
            },
            render: |_, _| unreachable!("a figure with a failed cell is not rendered"),
        };
        let out = evaluate(&test_harness(), &[failing, figure("fig12")]);
        assert!(
            matches!(out[0], Err(SimError::EventLimit(_))),
            "{:?}",
            out[0]
        );
        let fig12 = out[1].as_ref().expect("fig12 renders");
        assert!(fig12.starts_with("Figure 12"));
    }

    #[test]
    fn policy_uses_scaled_threshold() {
        let h = test_harness();
        assert_eq!(
            h.policy(),
            MigrationPolicy::AccessCounter {
                threshold: Scale::Test.counter_threshold()
            }
        );
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
}
