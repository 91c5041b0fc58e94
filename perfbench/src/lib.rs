//! Layered benchmark of the IDYLL evaluation.
//!
//! The product being measured is the paper's figure grid as the
//! `all_figures` binary produces it. The benchmark only times calls into
//! public entry points from the outside: the harness figure functions
//! ([`idyll_bench::all_figures`] on one [`Harness`]), the job pool's
//! per-cell records ([`grid_metrics`]), workload generation, and the
//! `System` build / run / recycle calls.
//!
//! Three workloads stress different layers (see [`Workload`]). A run
//! reports end-to-end metrics with tracing off; a traced run (`trace`)
//! reports per-layer metrics instead, plus the cost of the tracing itself.
//!
//! Every run follows the same protocol:
//! 1. one warm-up repetition, discarded from timing, whose outputs become
//!    the reference every later repetition must reproduce byte for byte;
//! 2. timed repetitions until the time budget is spent (at least one);
//! 3. before each repetition, a few set-up passes (trace generation +
//!    `System::new_with_pool` for each distinct input); `setup_s` is the
//!    median over all of them;
//! 4. traced runs only: one traced repetition and the directly driven
//!    cells that yield the simulator-layer counts.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use idyll_bench::{all_figures, grid_metrics, FigureFn, Harness, HarnessConfig};
use mgpu_system::canon::encode_report;
use mgpu_system::config::SystemConfig;
use mgpu_system::system::QueuePool;
use mgpu_system::{SimReport, System};
use sim_engine::prof::{Phase, Profiler};
use workloads::dnn::{generate_dnn, DnnModel, DnnSpec};
use workloads::{AppId, Scale, WorkloadSpec};

/// Job-level threads for the grid workloads (the 2-CPU reference host's
/// `nproc`); fixed so that a faster or slower host does not change the
/// workload.
pub const JOB_THREADS: usize = 2;

/// Set-up passes before each repetition; `setup_s` is the median of all
/// of them. Host speed drifts over tens of seconds on a shared machine, so
/// spreading the passes across the run steadies the median more than
/// running them back to back.
const SETUP_PASSES_PER_REP: usize = 4;

/// Environment variables the simulator or harness would otherwise read.
/// Cleared at start-up so a shell or a running daemon cannot change the
/// workload.
pub const HERMETIC_ENV: [&str; 6] = [
    "IDYLL_SERVE_ADDR",
    "IDYLL_SCALE",
    "IDYLL_THREADS",
    "IDYLL_SIM_THREADS",
    "IDYLL_SEED",
    "IDYLL_HASH_SEED",
];

/// Removes every [`HERMETIC_ENV`] variable from this process. Call before
/// any thread is spawned.
pub fn clear_environment() {
    for var in HERMETIC_ENV {
        std::env::remove_var(var);
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The evaluation core: table3, fig05, fig07, fig11–fig14 at `small`
    /// scale on 4 GPUs (135 cells, 81 of them repeats of an earlier
    /// figure's cell). Harness planning and the IDYLL paths work here.
    Grid4Gpu,
    /// The evaluation's longest cell, driven directly: PageRank, 32 GPUs,
    /// baseline scheme, `small`, 2 lane threads. Event loop and epoch
    /// barrier only; harness planning does no work here.
    CellPr32,
    /// All 22 entries of `all_figures()` at `test` scale: every
    /// configuration the evaluation uses (replication, Trans-FW, touch
    /// policies, 2 MiB pages, 8–32 GPUs, DNN traces), with small cells, so
    /// set-up and stragglers weigh most.
    GridTest,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [Workload::Grid4Gpu, Workload::CellPr32, Workload::GridTest];

    /// The workload's name on the command line and in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Grid4Gpu => "grid-4gpu",
            Workload::CellPr32 => "cell-pr32",
            Workload::GridTest => "grid-test",
        }
    }

    /// Parses a [`Workload::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scale the workload is defined at.
    #[must_use]
    pub fn scale(self) -> Scale {
        match self {
            Workload::Grid4Gpu | Workload::CellPr32 => Scale::Small,
            Workload::GridTest => Scale::Test,
        }
    }

    /// Event-lane threads inside each simulation.
    #[must_use]
    pub fn lane_threads(self) -> usize {
        match self {
            Workload::CellPr32 => 2,
            Workload::Grid4Gpu | Workload::GridTest => 1,
        }
    }

    fn figures(self) -> Vec<(&'static str, FigureFn)> {
        const GRID_4GPU: [&str; 7] = [
            "table3", "fig05", "fig07", "fig11", "fig12", "fig13", "fig14",
        ];
        let mut figures = all_figures();
        if self == Workload::Grid4Gpu {
            figures.retain(|(id, _)| GRID_4GPU.contains(id));
        }
        figures
    }
}

/// One benchmark run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Workload seed; the same seed gives the same inputs.
    pub seed: u64,
    /// Time budget for the timed repetitions, after set-up and warm-up. At
    /// least one repetition always runs, so 0 means exactly one.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end
    /// metrics.
    pub trace: bool,
    /// Trace scale; [`Workload::scale`] except in the benchmark's self-test.
    pub scale: Scale,
    /// Damage the first timed repetition's output before it is checked, so
    /// a self-test can prove that the check catches a wrong output.
    pub corrupt: bool,
}

impl Options {
    /// Settings for `workload` at its own scale, untraced.
    #[must_use]
    pub fn new(workload: Workload, seed: u64, seconds: f64) -> Options {
        Options {
            workload,
            seed,
            seconds,
            trace: false,
            scale: workload.scale(),
            corrupt: false,
        }
    }
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `wall_s` or `runner.cell_ms.p99`.
    pub name: &'static str,
    /// Unit, e.g. `s` or `count`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    /// A metric; NaN, infinity and `-0` (none of which JSON or a reader
    /// wants) become `0`.
    #[must_use]
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        let value = if value.is_finite() && value != 0.0 {
            value
        } else {
            0.0
        };
        Metric { name, unit, value }
    }
}

/// The result of one benchmark run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted: figures for grids, cells for `cell-pr32`.
    pub attempted: u64,
    /// Operations that failed the correctness check.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Human-readable lines describing the run.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Failed operations ÷ attempted.
    #[must_use]
    pub fn fail_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Counts operations and failures against the reference repetition.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Checks one repetition's outputs against the reference's, pairwise.
    /// An output is `None` when its operation failed outright.
    fn compare(&mut self, reference: &[Option<String>], outputs: &[Option<String>]) {
        for (i, out) in outputs.iter().enumerate() {
            let expected = reference.get(i).and_then(Option::as_ref);
            self.op(out.is_some() && out.as_ref() == expected);
        }
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=1).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Host cost, in nanoseconds, of one `Instant::now()` + `elapsed()` pair:
/// the price of every span this benchmark records.
#[must_use]
pub fn clock_pair_ns() -> f64 {
    const PAIRS: u32 = 200_000;
    let batches = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..PAIRS {
                black_box(black_box(Instant::now()).elapsed());
            }
            t0.elapsed().as_nanos() as f64 / f64::from(PAIRS)
        })
        .collect();
    median(batches)
}

/// Peak resident memory of this process so far, in MiB (Linux).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    use std::ffi::{c_int, c_long};
    /// `struct rusage` on Linux: two `timeval`s, then 14 `long` counters,
    /// the first of which is `ru_maxrss` in KiB.
    #[repr(C)]
    struct RUsage {
        times: [c_long; 4],
        maxrss: c_long,
        rest: [c_long; 13],
    }
    extern "C" {
        fn getrusage(who: c_int, usage: *mut RUsage) -> c_int;
    }
    const RUSAGE_SELF: c_int = 0;
    let mut usage = RUsage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value with the layout of Linux's
    // `struct rusage`, and `getrusage` writes only within that struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage.maxrss as f64 / 1024.0
}

/// Where an input trace comes from.
#[derive(Debug, Clone)]
enum Source {
    App(WorkloadSpec),
    Dnn(DnnSpec),
}

/// One distinct (trace, GPU count) input and the configuration it is
/// driven with directly.
#[derive(Debug, Clone)]
struct Input {
    source: Source,
    n_gpus: usize,
    config: SystemConfig,
}

impl Input {
    fn generate(&self, seed: u64) -> workloads::Workload {
        match &self.source {
            Source::App(spec) => workloads::generate(spec, self.n_gpus, seed),
            Source::Dnn(spec) => generate_dnn(spec, self.n_gpus, seed),
        }
    }
}

/// The distinct (spec, GPU count) traces the workload's figures use (for
/// `cell-pr32`, its one cell's). Grid inputs are driven with full IDYLL so
/// the directly driven cells exercise the lazy-invalidation paths.
fn inputs(workload: Workload, h: &Harness) -> Vec<Input> {
    let scale = h.config().scale;
    let app = |app: AppId, n_gpus: usize, config: SystemConfig| Input {
        source: Source::App(WorkloadSpec::paper_default(app, scale)),
        n_gpus,
        config,
    };
    match workload {
        Workload::CellPr32 => vec![app(AppId::Pr, 32, h.baseline(32))],
        Workload::Grid4Gpu => AppId::ALL.map(|a| app(a, 4, h.idyll(4))).to_vec(),
        Workload::GridTest => {
            // fig01 runs six apps on 2 GPUs; fig18/19 scale to 8, 16, 32.
            let fig01 = [
                AppId::Mt,
                AppId::Mm,
                AppId::Pr,
                AppId::St,
                AppId::Sc,
                AppId::Km,
            ];
            let mut v: Vec<Input> = fig01.map(|a| app(a, 2, h.idyll(2))).to_vec();
            for n in [4, 8, 16, 32] {
                v.extend(AppId::ALL.map(|a| app(a, n, h.idyll(n))));
            }
            // fig21: enlarged inputs on 2 MiB pages.
            v.extend(AppId::ALL.map(|a| Input {
                source: Source::App(WorkloadSpec::paper_default(a, scale).enlarged(4)),
                n_gpus: 4,
                config: h.idyll(4).with_large_pages(),
            }));
            // fig24: DNN training traces.
            v.extend([DnnModel::Vgg16, DnnModel::Resnet18].map(|m| Input {
                source: Source::Dnn(match scale {
                    Scale::Test => DnnSpec::test_default(m),
                    _ => DnnSpec::paper_default(m),
                }),
                n_gpus: 4,
                config: h.idyll(4),
            }));
            v
        }
    }
}

/// Host seconds of one set-up pass, split by layer.
#[derive(Debug, Clone, Copy)]
struct Setup {
    gen_s: f64,
    build_s: f64,
    accesses: u64,
}

/// Generates every input and builds one `System` from each, into a fresh
/// queue pool (the state a new process starts from).
fn setup_pass(inputs: &[Input], seed: u64) -> Setup {
    let mut pool = QueuePool::new();
    let mut s = Setup {
        gen_s: 0.0,
        build_s: 0.0,
        accesses: 0,
    };
    for input in inputs {
        let config = input.config.clone();
        let t = Instant::now();
        let wl = input.generate(seed);
        s.gen_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let sys = System::new_with_pool(config, &wl, &mut pool);
        s.build_s += t.elapsed().as_secs_f64();
        s.accesses += wl.total_accesses();
        sys.recycle(&mut pool);
    }
    s
}

/// One repetition of a workload.
#[derive(Debug, Default)]
struct Rep {
    wall_s: f64,
    /// Figure texts (grids) or encoded reports (cell); `None` on failure.
    outputs: Vec<Option<String>>,
    /// Per-figure seconds (traced grid repetitions only).
    figure_s: Vec<f64>,
    /// The job pool's per-cell records (grids).
    records: Vec<grid_metrics::RunRecord>,
    /// The directly driven cell's layers and result.
    cell: Option<Cell>,
}

/// One directly driven simulation, timed by layer.
#[derive(Debug, Clone)]
struct Cell {
    run_s: f64,
    recycle_s: f64,
    report: Option<SimReport>,
    profile: Profiler,
}

impl Rep {
    /// Simulation events the repetition processed.
    fn events(&self) -> u64 {
        let cell = self.cell.as_ref().and_then(|c| c.report.as_ref());
        cell.map_or(0, |r| r.events_processed) + self.records.iter().map(|r| r.events).sum::<u64>()
    }
}

impl Cell {
    /// The cell's output for the reference comparison: its encoded report,
    /// or `None` if it failed or left a stale translation behind.
    fn output(&self) -> Option<String> {
        self.report
            .as_ref()
            .filter(|r| r.stale_translations == 0)
            .map(encode_report)
    }
}

fn drive_cell(
    input: &Input,
    seed: u64,
    lane_threads: usize,
    profile: bool,
    pool: &mut QueuePool,
) -> Cell {
    let wl = input.generate(seed);
    let mut sys = System::new_with_pool(input.config.clone(), &wl, pool);
    sys.set_threads(lane_threads);
    if profile {
        sys.set_profiler(Profiler::enabled());
    }
    let t = Instant::now();
    let report = sys.run();
    let run_s = t.elapsed().as_secs_f64();
    let profile = sys.profiler().clone();
    let t = Instant::now();
    sys.recycle(pool);
    let recycle_s = t.elapsed().as_secs_f64();
    if let Err(e) = &report {
        eprintln!("perfbench: cell failed: {e}");
    }
    Cell {
        run_s,
        recycle_s,
        report: report.ok(),
        profile,
    }
}

fn grid_rep(h: &Harness, figures: &[(&'static str, FigureFn)], traced: bool) -> Rep {
    grid_metrics::clear();
    let mut rep = Rep::default();
    let t0 = Instant::now();
    for (id, figure) in figures {
        let t = traced.then(Instant::now);
        let out = figure(h);
        if let Some(t) = t {
            rep.figure_s.push(t.elapsed().as_secs_f64());
        }
        match out {
            Ok(text) => rep.outputs.push(Some(text)),
            Err(e) => {
                eprintln!("perfbench: {id} failed: {e}");
                rep.outputs.push(None);
            }
        }
    }
    rep.wall_s = t0.elapsed().as_secs_f64();
    rep.records = grid_metrics::snapshot();
    rep
}

fn cell_rep(
    input: &Input,
    seed: u64,
    lane_threads: usize,
    traced: bool,
    pool: &mut QueuePool,
) -> Rep {
    grid_metrics::clear();
    let t0 = Instant::now();
    let cell = drive_cell(input, seed, lane_threads, traced, pool);
    Rep {
        wall_s: t0.elapsed().as_secs_f64(),
        outputs: vec![cell.output()],
        cell: Some(cell),
        ..Rep::default()
    }
}

/// Runs one benchmark run and returns its metrics.
#[must_use]
pub fn run(opts: &Options) -> Outcome {
    let workload = opts.workload;
    let harness = Harness::new(HarnessConfig {
        scale: opts.scale,
        threads: JOB_THREADS,
        sim_threads: workload.lane_threads(),
        seed: opts.seed,
    });
    let inputs = inputs(workload, &harness);
    let figures = workload.figures();
    let mut pool = QueuePool::new();
    let mut rep = |traced: bool, lane_threads: usize, pool: &mut QueuePool| match workload {
        Workload::CellPr32 => cell_rep(&inputs[0], opts.seed, lane_threads, traced, pool),
        Workload::Grid4Gpu | Workload::GridTest => grid_rep(&harness, &figures, traced),
    };

    let mut setups = Vec::new();
    let setup = |setups: &mut Vec<Setup>| {
        setups.extend((0..SETUP_PASSES_PER_REP).map(|_| setup_pass(&inputs, opts.seed)));
    };

    let mut tally = Tally::default();
    setup(&mut setups);
    let warmup = rep(false, workload.lane_threads(), &mut pool);
    let reference = warmup.outputs;
    for out in &reference {
        tally.op(out.is_some());
    }

    let mut timed = Vec::new();
    let t0 = Instant::now();
    loop {
        setup(&mut setups);
        let mut r = rep(false, workload.lane_threads(), &mut pool);
        if opts.corrupt && timed.is_empty() {
            if let Some(Some(out)) = r.outputs.first_mut() {
                out.push('!');
            }
        }
        tally.compare(&reference, &r.outputs);
        timed.push(r);
        if t0.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    let wall_s = median(timed.iter().map(|r| r.wall_s).collect());
    let setup_s = median(setups.iter().map(|s| s.gen_s + s.build_s).collect());

    let notes = vec![
        format!(
            "perfbench workload={} seed={} nproc={} job_threads={JOB_THREADS} lane_threads={} scale={:?} trace={}",
            workload.name(),
            opts.seed,
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            workload.lane_threads(),
            opts.scale,
            u8::from(opts.trace),
        ),
        format!(
            "repetitions: 1 warm-up + {} timed; wall_s samples {:?}",
            timed.len(),
            timed.iter().map(|r| r.wall_s).collect::<Vec<_>>()
        ),
        format!("events per repetition: {}", timed[0].events()),
        format!(
            "set-up passes: {}; median gen_s {} build_s {}",
            setups.len(),
            median(setups.iter().map(|s| s.gen_s).collect()),
            median(setups.iter().map(|s| s.build_s).collect())
        ),
    ];

    let metrics = if opts.trace {
        layers(
            opts, &inputs, &setups, &timed, wall_s, &mut rep, &reference, &mut tally, &mut pool,
        )
    } else {
        vec![
            Metric::new("wall_s", "s", wall_s),
            Metric::new("setup_s", "s", setup_s),
            Metric::new("peak_rss_mb", "MB", peak_rss_mb()),
        ]
    };
    let mut outcome = Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes,
    };
    outcome.notes.push(format!(
        "fail_rate = {} ({} failed of {} attempted)",
        outcome.fail_rate(),
        outcome.failed,
        outcome.attempted
    ));
    outcome
}

/// Simulator-layer totals over the directly driven cells.
#[derive(Debug, Default)]
struct Direct {
    /// Event-loop seconds at the workload's own lane-thread count.
    run_s: f64,
    /// Serial event-loop seconds ÷ 2-lane event-loop seconds.
    t2_speedup: f64,
    recycle_s: f64,
    events: u64,
    profile: Profiler,
    reports: Vec<SimReport>,
}

/// The traced part of a run: one traced repetition, the directly driven
/// cells, and every per-layer metric.
#[allow(clippy::too_many_arguments)]
fn layers(
    opts: &Options,
    inputs: &[Input],
    setups: &[Setup],
    timed: &[Rep],
    untraced_wall_s: f64,
    rep: &mut impl FnMut(bool, usize, &mut QueuePool) -> Rep,
    reference: &[Option<String>],
    tally: &mut Tally,
    pool: &mut QueuePool,
) -> Vec<Metric> {
    let clock_pair_ns = clock_pair_ns();
    let traced = rep(true, opts.workload.lane_threads(), pool);
    tally.compare(reference, &traced.outputs);

    let mut direct = Direct::default();
    match opts.workload {
        Workload::CellPr32 => {
            // The timed repetitions give the untraced layer times, the
            // traced one the profile; one serial run gives the speed-up and
            // must encode byte-identically to the 2-lane reference.
            let serial = rep(false, 1, pool);
            tally.compare(reference, &serial.outputs);
            let cells: Vec<&Cell> = timed.iter().filter_map(|r| r.cell.as_ref()).collect();
            direct.run_s = median(cells.iter().map(|c| c.run_s).collect());
            direct.recycle_s = median(cells.iter().map(|c| c.recycle_s).collect());
            let serial_run_s = serial.cell.as_ref().map_or(0.0, |c| c.run_s);
            direct.t2_speedup = serial_run_s / direct.run_s;
            if let Some(c) = traced.cell {
                direct.events = c.report.as_ref().map_or(0, |r| r.events_processed);
                direct.profile = c.profile;
                direct.reports.extend(c.report);
            }
        }
        Workload::Grid4Gpu | Workload::GridTest => {
            let mut two_run_s = 0.0;
            for input in inputs {
                let serial = drive_cell(input, opts.seed, 1, false, pool);
                let two = drive_cell(input, opts.seed, 2, false, pool);
                let profiled = drive_cell(input, opts.seed, 1, true, pool);
                let out = serial.output();
                tally.op(out.is_some() && out == two.output() && out == profiled.output());
                direct.run_s += serial.run_s;
                two_run_s += two.run_s;
                direct.recycle_s += serial.recycle_s;
                direct.events += serial.report.as_ref().map_or(0, |r| r.events_processed);
                direct.profile.merge(&profiled.profile);
                direct.reports.extend(profiled.report);
            }
            direct.t2_speedup = direct.run_s / two_run_s;
        }
    }

    // Host layers: harness figures and the job pool (zero for the
    // directly driven cell, which uses neither).
    let mut seen = std::collections::BTreeSet::new();
    let repeats = traced
        .records
        .iter()
        .filter(|r| !seen.insert((r.label.as_str(), r.events)))
        .count();
    let mut cell_ms: Vec<f64> = traced.records.iter().map(|r| r.wall_secs * 1e3).collect();
    cell_ms.sort_by(f64::total_cmp);
    let busy_s: f64 = traced.records.iter().map(|r| r.wall_secs).sum();
    let idle_s = if traced.records.is_empty() {
        0.0
    } else {
        JOB_THREADS as f64 * traced.wall_s - busy_s
    };
    let epochs = direct.profile.count(Phase::Barrier);

    let mut m = Vec::new();
    let mut put = |name: &'static str, unit: &'static str, value: f64| {
        m.push(Metric::new(name, unit, value));
    };
    put("bench.cells", "count", traced.records.len() as f64);
    put("bench.cells_repeat", "count", repeats as f64);
    put(
        "bench.figure_s.max",
        "s",
        traced.figure_s.iter().copied().fold(0.0, f64::max),
    );
    put("runner.busy_s", "s", busy_s);
    put("runner.idle_s", "s", idle_s);
    put("runner.cell_ms.p50", "ms", percentile(&cell_ms, 0.50));
    put("runner.cell_ms.p99", "ms", percentile(&cell_ms, 0.99));
    put(
        "runner.cell_ms.max",
        "ms",
        cell_ms.last().copied().unwrap_or(0.0),
    );
    put(
        "workloads.gen_s",
        "s",
        median(setups.iter().map(|s| s.gen_s).collect()),
    );
    put(
        "workloads.accesses",
        "count",
        setups.first().map_or(0, |s| s.accesses) as f64,
    );
    put(
        "system.build_s",
        "s",
        median(setups.iter().map(|s| s.build_s).collect()),
    );
    put("system.builds", "count", inputs.len() as f64);
    put("system.run_s", "s", direct.run_s);
    put("system.events", "count", direct.events as f64);
    put(
        "system.ns_per_event",
        "ns",
        direct.run_s * 1e9 / direct.events.max(1) as f64,
    );
    put("system.recycle_s", "s", direct.recycle_s);
    put("lanes.epochs", "count", epochs as f64);
    put(
        "lanes.events_per_epoch",
        "count",
        direct.events as f64 / epochs.max(1) as f64,
    );
    put("lanes.t2_speedup", "x", direct.t2_speedup);
    for phase in [
        Phase::HeapPop,
        Phase::TlbLookup,
        Phase::WalkSchedule,
        Phase::MigTransfer,
        Phase::Barrier,
        Phase::Other,
    ] {
        put(
            prof_count_name(phase),
            "count",
            direct.profile.count(phase) as f64,
        );
    }
    let sum = |f: fn(&SimReport) -> u64| direct.reports.iter().map(f).sum::<u64>() as f64;
    put("model.exec_cycles", "cycles", sum(|r| r.exec_cycles));
    put("model.far_faults", "count", sum(|r| r.far_faults));
    put("model.migrations", "count", sum(|r| r.migrations));
    put(
        "model.invalidation_messages",
        "count",
        sum(|r| r.invalidation_messages),
    );
    put("model.walker.demand", "count", sum(|r| r.walker_mix.demand));
    put(
        "model.walker.inval_necessary",
        "count",
        sum(|r| r.walker_mix.invalidation_necessary),
    );
    put(
        "model.walker.inval_unnecessary",
        "count",
        sum(|r| r.walker_mix.invalidation_unnecessary),
    );
    put("model.irmb.inserts", "count", sum(|r| r.irmb_inserts));
    put("model.irmb.bypasses", "count", sum(|r| r.irmb_bypasses));
    put("model.nvlink_bytes", "bytes", sum(|r| r.nvlink_bytes));
    put("model.pcie_bytes", "bytes", sum(|r| r.pcie_bytes));
    put(
        "model.stale_translations",
        "count",
        sum(|r| r.stale_translations),
    );
    put("trace.clock_pair_ns", "ns", clock_pair_ns);
    put(
        "trace.overhead_pct",
        "%",
        (traced.wall_s / untraced_wall_s - 1.0) * 100.0,
    );
    m
}

fn prof_count_name(phase: Phase) -> &'static str {
    match phase {
        Phase::HeapPop => "prof.heap_pop.count",
        Phase::HeapPush => "prof.heap_push.count",
        Phase::TlbLookup => "prof.tlb_lookup.count",
        Phase::WalkSchedule => "prof.walk_schedule.count",
        Phase::MigTransfer => "prof.mig_transfer.count",
        Phase::Other => "prof.other.count",
        Phase::Barrier => "prof.barrier.count",
    }
}
