//! The job pool: runs a batch of figure cells on OS threads, generating each
//! cell's trace on the worker that simulates it, so a batch holds at most
//! one trace per worker at a time.

use mgpu_system::system::{QueuePool, SimError, System};
use mgpu_system::SimReport;

use crate::Cell;

/// One simulated cell with its host-side cost.
#[derive(Debug, Clone)]
pub struct TimedRun {
    /// The simulation result.
    pub report: SimReport,
    /// Host wall-clock seconds spent constructing and running the system
    /// (trace generation excluded).
    pub wall_secs: f64,
}

fn run_one(cell: &Cell, sim_threads: usize, pool: &mut QueuePool) -> Result<TimedRun, SimError> {
    let workload = cell.source.generate(cell.config.n_gpus, cell.seed);
    // Wall-clock measures host throughput for the grid-metrics export; it
    // never feeds simulation state or determinism-tested artifacts.
    let t0 = std::time::Instant::now();
    let mut sys = System::new_with_pool(cell.config.clone(), &workload, pool);
    // The system keeps its own packed copy of the traces.
    drop(workload);
    sys.set_threads(sim_threads.max(1));
    let report = sys.run();
    // Hand the lane heaps back so the worker's next cell schedules into
    // pre-grown buffers instead of re-growing from zero.
    sys.recycle(pool);
    Ok(TimedRun {
        report: report?,
        wall_secs: t0.elapsed().as_secs_f64(),
    })
}

/// Runs `cells` on up to `threads` OS threads and returns each cell's
/// result at its input index; one cell's failure leaves the others' results
/// intact. Workers take the longest cell (most trace accesses, ties to the
/// lowest index) first. `sim_threads` drives each simulation's event lanes
/// (0 or 1 = serial); reports are byte-identical for any value, only
/// wall-clock changes.
///
/// # Panics
/// If a worker thread panics (poisoning the queue locks).
pub fn run_jobs_timed(
    cells: &[&Cell],
    threads: usize,
    sim_threads: usize,
) -> Vec<Result<TimedRun, SimError>> {
    let threads = threads.max(1).min(cells.len());
    if threads <= 1 {
        let mut pool = QueuePool::new();
        return cells
            .iter()
            .map(|cell| run_one(cell, sim_threads, &mut pool))
            .collect();
    }
    // Workers `pop()` from the back, so sort the longest cell to the end.
    // A heavy cell started last would leave every other worker idle.
    let mut order: Vec<usize> = (0..cells.len()).collect();
    order.sort_by_key(|&i| {
        let cell = cells[i];
        (
            cell.source.total_accesses(cell.config.n_gpus),
            std::cmp::Reverse(i),
        )
    });
    let queue = std::sync::Mutex::new(order);
    let mut results: Vec<Option<Result<TimedRun, SimError>>> =
        (0..cells.len()).map(|_| None).collect();
    let out = std::sync::Mutex::new(&mut results);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                // One heap pool per worker: queues recycle across the cells
                // this worker happens to draw.
                let mut pool = QueuePool::new();
                loop {
                    let next = queue
                        .lock()
                        .expect("no worker panicked holding the queue")
                        .pop();
                    let Some(i) = next else { break };
                    let result = run_one(cells[i], sim_threads, &mut pool);
                    out.lock().expect("no worker panicked holding the results")[i] = Some(result);
                }
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every cell ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_system::config::SystemConfig;
    use workloads::dnn::{DnnModel, DnnSpec};
    use workloads::{AppId, Scale, WorkloadSource, WorkloadSpec};

    fn cell(scheme: &str, source: WorkloadSource, seed: u64) -> Cell {
        Cell {
            row: "row",
            scheme: scheme.to_string(),
            config: SystemConfig::test(2),
            source,
            seed,
        }
    }

    fn app(app: AppId) -> WorkloadSource {
        WorkloadSource::App(WorkloadSpec::paper_default(app, Scale::Test))
    }

    #[test]
    fn single_thread_smoke() {
        let c = cell("baseline", app(AppId::Bs), 3);
        let results = run_jobs_timed(&[&c], 1, 1);
        assert_eq!(results.len(), 1);
        let run = results[0].as_ref().expect("runs");
        assert!(run.report.exec_cycles > 0);
    }

    #[test]
    fn longest_first_dispatch_preserves_order() {
        // The dispatch order comes from the source's access count, which
        // must equal what the generated trace holds.
        let dnn = WorkloadSource::Dnn(DnnSpec::test_default(DnnModel::Vgg16));
        for source in [app(AppId::Km), dnn] {
            for n_gpus in [2, 4] {
                assert_eq!(
                    source.total_accesses(n_gpus),
                    source.generate(n_gpus, 1).total_accesses(),
                    "{source:?} on {n_gpus} GPUs"
                );
            }
        }
        // One long cell in the middle of short ones: it is dispatched first,
        // yet every result still lands at its input index.
        let short = app(AppId::Bs);
        let long =
            WorkloadSource::App(WorkloadSpec::paper_default(AppId::Pr, Scale::Test).enlarged(2));
        let cells: Vec<Cell> = (0..6)
            .map(|i| {
                let source = if i == 2 { &long } else { &short };
                cell(&format!("job{i}"), source.clone(), i)
            })
            .collect();
        assert!(cells
            .iter()
            .all(|c| c.scheme == "job2" || c.source.total_accesses(2) < long.total_accesses(2)));
        let refs: Vec<&Cell> = cells.iter().collect();
        let serial = run_jobs_timed(&refs, 1, 1);
        let parallel = run_jobs_timed(&refs, 3, 1);
        for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            let (s, p) = (s.as_ref().expect("runs"), p.as_ref().expect("runs"));
            let expected = cells[i].source.generate(2, i as u64).total_accesses();
            assert_eq!(p.report.accesses, expected, "job{i}");
            assert_eq!(s.report.exec_cycles, p.report.exec_cycles, "job{i}");
            assert_eq!(
                s.report.events_processed, p.report.events_processed,
                "job{i}"
            );
        }
    }

    #[test]
    fn a_failed_cell_leaves_the_others_intact() {
        let mut failing = cell("fails", app(AppId::Bs), 3);
        failing.config.max_events = 1;
        let ok = cell("ok", app(AppId::Sc), 3);
        let results = run_jobs_timed(&[&ok, &failing, &ok], 2, 1);
        assert!(matches!(results[1], Err(SimError::EventLimit(_))));
        assert!(results[0].is_ok() && results[2].is_ok());
    }
}
