//! Regenerates every table and figure in the paper's evaluation, writing
//! each to `results/<id>.txt` and echoing to stdout.
//!
//! ```text
//! all_figures                         # every figure
//! all_figures --only fig11           # one figure
//! all_figures --trace t.json --metrics-json m.json
//!     # additionally perform one instrumented reference run (IDYLL, KM)
//!     # and write its Perfetto timeline / metrics registry
//! ```

use idyll_bench::{all_figures, grid_metrics, Harness, HarnessConfig};
use mgpu_system::System;
use sim_engine::trace::Tracer;
use workloads::{AppId, WorkloadSpec};

struct Args {
    only: Option<String>,
    trace_out: Option<String>,
    trace_filter: Option<Tracer>,
    metrics_json: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        only: None,
        trace_out: None,
        trace_filter: None,
        metrics_json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("error: {name} requires a value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--only" => args.only = Some(value("--only")),
            "--trace" => args.trace_out = Some(value("--trace")),
            "--trace-filter" => {
                let filter = value("--trace-filter");
                let tracer = Tracer::with_filter(&filter).unwrap_or_else(|e| {
                    eprintln!("error: --trace-filter: {e}");
                    std::process::exit(2);
                });
                args.trace_filter = Some(tracer);
            }
            "--metrics-json" => args.metrics_json = Some(value("--metrics-json")),
            other => {
                eprintln!(
                    "error: unknown option `{other}` (supported: --only <fig>, \
                     --trace <file>, --trace-filter <cats>, --metrics-json <file>)"
                );
                std::process::exit(2);
            }
        }
    }
    args
}

/// One fully instrumented reference run (IDYLL scheme, KM workload, 4 GPUs
/// at the harness scale) whose timeline and metrics registry are written
/// alongside the figures.
fn observed_run(h: &Harness, args: &Args) {
    let cfg = h.idyll(4);
    let spec = WorkloadSpec::paper_default(AppId::Km, h.config().scale);
    let wl = workloads::generate(&spec, cfg.n_gpus, h.config().seed);
    let mut sys = System::new(cfg, &wl);
    sys.set_tracer(args.trace_filter.clone().unwrap_or_else(Tracer::enabled));
    if let Err(e) = sys.run() {
        eprintln!("observed reference run failed: {e}");
        std::process::exit(1);
    }
    if let Some(path) = &args.trace_out {
        std::fs::write(path, sys.tracer().to_chrome_json()).expect("write trace JSON");
        eprintln!(
            "wrote {path} ({} trace events; open at ui.perfetto.dev)",
            sys.tracer().len()
        );
    }
    if let Some(path) = &args.metrics_json {
        let registry = sys.metrics_registry();
        std::fs::write(path, registry.to_json()).expect("write metrics JSON");
        eprintln!("wrote {path} ({} metrics)", registry.len());
    }
}

fn main() {
    let args = parse_args();
    let h = Harness::new(HarnessConfig::from_env());
    if args.trace_out.is_some() || args.metrics_json.is_some() {
        observed_run(&h, &args);
    }
    std::fs::create_dir_all("results").expect("create results dir");
    let mut failures = 0;
    let mut matched = false;
    for (id, figure) in all_figures() {
        if let Some(only) = &args.only {
            if id != only {
                continue;
            }
        }
        matched = true;
        eprintln!("[{id}] running…");
        match figure(&h) {
            Ok(out) => {
                println!("{out}");
                std::fs::write(format!("results/{id}.txt"), &out).expect("write result");
            }
            Err(e) => {
                eprintln!("{id}: simulation failed: {e}");
                failures += 1;
            }
        }
    }
    if let Some(only) = &args.only {
        if !matched {
            eprintln!("error: no figure named `{only}`");
            failures += 1;
        }
    }
    // Host-side throughput of everything the figures just ran (ROADMAP:
    // per-run wall-clock + events/s from the fan-out).
    let summary = grid_metrics::summary_line();
    if !summary.is_empty() {
        // The timestamp is supplied here at the binary edge so the
        // grid_metrics library itself stays free of wall-clock reads.
        let generated_at = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        std::fs::write(
            "results/grid_metrics.json",
            grid_metrics::registry(generated_at).to_json(),
        )
        .expect("write grid metrics JSON");
        eprintln!("{summary}");
        eprintln!("wrote results/grid_metrics.json");
    }
    if failures > 0 {
        std::process::exit(1);
    }
}
