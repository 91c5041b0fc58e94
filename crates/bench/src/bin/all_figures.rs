//! Regenerates every table and figure in the paper's evaluation through one
//! plan, writing each to `results/<id>.txt` and echoing to stdout.
//!
//! ```text
//! all_figures                         # every figure
//! all_figures --only fig11           # one figure
//! ```
//!
//! A run's timeline and metrics registry come from `mgpu-sim --trace
//! <file> --metrics-json <file>`.

use idyll_bench::{evaluate, grid_metrics, Harness, HarnessConfig, FIGURES};

/// The `--only <id>` value, if given; any other argument exits 2.
fn parse_args() -> Option<String> {
    let mut only = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match (flag.as_str(), it.next()) {
            ("--only", Some(id)) => only = Some(id),
            ("--only", None) => {
                eprintln!("error: --only requires a value");
                std::process::exit(2);
            }
            (other, _) => {
                eprintln!("error: unknown option `{other}` (supported: --only <fig>)");
                std::process::exit(2);
            }
        }
    }
    only
}

fn main() {
    let only = parse_args();
    let config = HarnessConfig::from_env().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let h = Harness::new(config);
    std::fs::create_dir_all("results").expect("create results dir");
    let figures: Vec<_> = FIGURES
        .into_iter()
        .filter(|f| only.as_ref().is_none_or(|only| f.id == only))
        .collect();
    let mut failures = 0;
    if let (Some(only), true) = (&only, figures.is_empty()) {
        eprintln!("error: no figure named `{only}`");
        failures += 1;
    }
    eprintln!("running {} figures in one plan…", figures.len());
    for (figure, out) in figures.iter().zip(evaluate(&h, &figures)) {
        match out {
            Ok(out) => {
                println!("{out}");
                std::fs::write(format!("results/{}.txt", figure.id), &out).expect("write result");
            }
            Err(e) => {
                eprintln!("{}: simulation failed: {e}", figure.id);
                failures += 1;
            }
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
