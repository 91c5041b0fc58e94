//! `mgpu-sim` — command-line front end to the simulator.
//!
//! Run any workload × scheme combination and print the full report:
//!
//! ```text
//! mgpu-sim --app PR --gpus 4 --scheme idyll --scale small --seed 42
//! mgpu-sim --app KM --scheme idyll --trace out.json --metrics-json m.json
//! ```

#![expect(
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::disallowed_methods,
    reason = "the CLI prints the report and writes the exports; the simulation it drives does neither"
)]

use std::process::ExitCode;

use mgpu_system::config::{SystemConfig, SCHEMES};
use mgpu_system::System;
use sim_engine::trace::{Tracer, CATEGORIES};
use uvm_driver::policy::MigrationPolicy;
use workloads::dnn::{generate_dnn, DnnModel, DnnSpec};
use workloads::{AppId, Scale, Workload, WorkloadSpec};

/// The `--help` text. The `--scheme` and `--trace-filter` lines list
/// [`SCHEMES`] and [`CATEGORIES`], the names the parser accepts.
fn usage() -> String {
    format!(
        "\
mgpu-sim — IDYLL multi-GPU translation simulator

USAGE:
    mgpu-sim [OPTIONS]

OPTIONS:
    --app <MT|MM|PR|ST|SC|KM|IM|C2D|BS|VGG16|RESNET18>   workload (default KM)
    --trace <FILE>          write a Chrome-trace/Perfetto timeline JSON
    --trace-filter <CATS>   record only these comma-separated categories:
                            {categories}
    --metrics-json <FILE>   write the flattened metrics registry as JSON
    --progress <N>          print a progress line every N million events
    --gpus <N>              number of GPUs, 1 to 64 (default 4)
    --scheme <NAME>         mechanism set (default baseline), one of:
                            {schemes}
    --policy <NAME>         counter | first-touch | on-touch (default counter)
    --threshold <N>         access-counter threshold (default scaled by --scale)
    --scale <test|small|full>   trace size (default small)
    --seed <N>              workload seed (default 42)
    --threads <N>           worker threads for the event lanes (default 1);
                            artifacts are byte-identical for any value
    --large-pages           use 2 MiB pages
    -h, --help              print this help
",
        categories = listing(&CATEGORIES, ", ", 4),
        schemes = listing(&SCHEMES, " | ", 4),
    )
}

/// Joins `items` with `sep`, `per_line` to a line, continuation lines
/// indented to the help text's description column.
fn listing(items: &[&str], sep: &str, per_line: usize) -> String {
    let lines: Vec<String> = items.chunks(per_line).map(|c| c.join(sep)).collect();
    lines.join(&format!("{}\n{:28}", sep.trim_end(), ""))
}

struct Args {
    app: String,
    trace_out: Option<String>,
    trace_filter: Option<Tracer>,
    metrics_json: Option<String>,
    progress: Option<u64>,
    gpus: usize,
    scheme: String,
    policy: String,
    threshold: Option<u32>,
    scale: Scale,
    seed: u64,
    threads: usize,
    large_pages: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        app: "KM".into(),
        trace_out: None,
        trace_filter: None,
        metrics_json: None,
        progress: None,
        gpus: 4,
        scheme: "baseline".into(),
        policy: "counter".into(),
        threshold: None,
        scale: Scale::Small,
        seed: 42,
        threads: 1,
        large_pages: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--app" => args.app = value("--app")?.to_uppercase(),
            "--trace" => args.trace_out = Some(value("--trace")?),
            "--trace-filter" => {
                let filter = value("--trace-filter")?;
                args.trace_filter =
                    Some(Tracer::with_filter(&filter).map_err(|e| format!("--trace-filter: {e}"))?);
            }
            "--metrics-json" => args.metrics_json = Some(value("--metrics-json")?),
            "--progress" => {
                args.progress = Some(
                    value("--progress")?
                        .parse()
                        .map_err(|e| format!("--progress: {e}"))?,
                )
            }
            "--gpus" => {
                args.gpus = value("--gpus")?
                    .parse()
                    .map_err(|e| format!("--gpus: {e}"))?;
                if !(1..=64).contains(&args.gpus) {
                    return Err(format!("--gpus: {} is out of range 1..=64", args.gpus));
                }
            }
            "--scheme" => args.scheme = value("--scheme")?.to_lowercase(),
            "--policy" => args.policy = value("--policy")?.to_lowercase(),
            "--threshold" => {
                args.threshold = Some(
                    value("--threshold")?
                        .parse()
                        .map_err(|e| format!("--threshold: {e}"))?,
                )
            }
            "--scale" => {
                args.scale = match value("--scale")?.as_str() {
                    "test" => Scale::Test,
                    "small" => Scale::Small,
                    "full" => Scale::Full,
                    other => return Err(format!("unknown scale `{other}`")),
                }
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--threads" => {
                args.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--large-pages" => args.large_pages = true,
            "-h" | "--help" => {
                print!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown option `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn build_workload(args: &Args) -> Result<Workload, String> {
    match args.app.as_str() {
        "VGG16" => Ok(generate_dnn(
            &DnnSpec::paper_default(DnnModel::Vgg16),
            args.gpus,
            args.seed,
        )),
        "RESNET18" => Ok(generate_dnn(
            &DnnSpec::paper_default(DnnModel::Resnet18),
            args.gpus,
            args.seed,
        )),
        name => {
            let app = AppId::from_name(name).ok_or_else(|| format!("unknown app `{name}`"))?;
            Ok(workloads::generate(
                &WorkloadSpec::paper_default(app, args.scale),
                args.gpus,
                args.seed,
            ))
        }
    }
}

fn build_config(args: &Args) -> Result<SystemConfig, String> {
    let mut cfg = SystemConfig::baseline(args.gpus);
    let threshold = args
        .threshold
        .unwrap_or_else(|| args.scale.counter_threshold());
    cfg.policy = match args.policy.as_str() {
        "counter" => MigrationPolicy::AccessCounter { threshold },
        "first-touch" => MigrationPolicy::FirstTouch,
        "on-touch" => MigrationPolicy::OnTouch,
        other => return Err(format!("unknown policy `{other}`")),
    };
    cfg.seed = args.seed;
    cfg.apply_scheme(&args.scheme)?;
    if args.large_pages {
        cfg = cfg.with_large_pages();
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let workload = match build_workload(&args) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cfg = match build_config(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut sys = System::new(cfg, &workload);
    sys.set_threads(args.threads);
    if let Some(tracer) = &args.trace_filter {
        sys.set_tracer(tracer.clone());
    } else if args.trace_out.is_some() {
        sys.set_tracer(Tracer::enabled());
    }
    if let Some(every) = args.progress {
        sys.set_progress_interval(every.max(1) * 1_000_000);
    }
    let report = match sys.run() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("simulation failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.trace_out {
        if let Err(e) = std::fs::write(path, sys.tracer().to_chrome_json()) {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "wrote {path} ({} events; open at ui.perfetto.dev)",
            sys.tracer().len()
        );
    }
    if let Some(path) = &args.metrics_json {
        let registry = sys.metrics_registry();
        if let Err(e) = std::fs::write(path, registry.to_json()) {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path} ({} metrics)", registry.len());
    }
    println!("{}", report.summary());
    println!("  execution cycles        : {}", report.exec_cycles);
    println!("  accesses                : {}", report.accesses);
    println!("  L2 TLB MPKI             : {:.2}", report.mpki());
    println!(
        "  L1/L2 TLB hit rate      : {:.3} / {:.3}",
        sim_engine::stats::hit_rate(report.l1_tlb_hits, report.l1_tlb_misses),
        sim_engine::stats::hit_rate(report.l2_tlb_hits, report.l2_tlb_misses)
    );
    println!(
        "  demand miss latency     : {:.0} avg cycles over {} misses",
        report.demand_miss_latency.mean().unwrap_or(0.0),
        report.demand_miss_latency.count()
    );
    println!("  far faults              : {}", report.far_faults);
    println!("  migrations              : {}", report.migrations);
    println!(
        "  migration waiting       : {:.0} avg cycles",
        report.migration_waiting.mean().unwrap_or(0.0)
    );
    println!(
        "  invalidation messages   : {}",
        report.invalidation_messages
    );
    println!(
        "  walker mix              : {} demand / {} necessary / {} unnecessary invalidations",
        report.walker_mix.demand,
        report.walker_mix.invalidation_necessary,
        report.walker_mix.invalidation_unnecessary
    );
    if report.irmb_inserts > 0 {
        println!(
            "  IRMB                    : {} inserts, {} bypasses, {} evictions, {} superseded",
            report.irmb_inserts,
            report.irmb_bypasses,
            report.irmb_evictions,
            report.irmb_superseded
        );
    }
    if let Some(rate) = report.vm_cache_hit_rate {
        println!("  VM-Cache hit rate       : {rate:.3}");
    }
    if let Some((probes, hits, false_fw)) = report.transfw {
        println!(
            "  Trans-FW                : {probes} probes, {hits} hits, {false_fw} false forwards"
        );
    }
    println!(
        "  NVLink / PCIe bytes     : {} / {}",
        report.nvlink_bytes, report.pcie_bytes
    );
    println!("  PWC hit rate            : {:.3}", report.pwc_hit_rate);
    println!(
        "  coherence audit         : {} stale translations",
        report.stale_translations
    );
    println!("  per-phase latency breakdown:");
    print!("{}", report.latency_breakdown());
    ExitCode::SUCCESS
}
