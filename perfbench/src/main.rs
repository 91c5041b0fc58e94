//! Benchmark command line.
//!
//! ```text
//! perfbench [--workload grid-4gpu|cell-pr32|grid-test|all] [--seed N]
//!           [--seconds S] [--trace 0|1]
//! ```
//!
//! One workload prints its metrics by name and unit, then, as the last
//! line, a JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. `--workload all` (the default) runs every
//! workload in a process of its own, so each peak-memory figure is its own.

use perfbench::{clear_environment, run, Options, Workload};

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\nusage: perfbench [--workload grid-4gpu|cell-pr32|grid-test|all] \
         [--seed N] [--seconds S] [--trace 0|1]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage(&format!("bad value `{value}` for {flag}")))
}

fn main() {
    clear_environment();
    let mut workload = String::from("all");
    let mut seed: u64 = 42;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} requires a value")));
        match flag.as_str() {
            "--workload" => workload = value,
            "--seed" => seed = parse(&flag, &value),
            "--seconds" => seconds = parse(&flag, &value),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(&format!("bad value `{value}` for --trace")),
                }
            }
            _ => usage(&format!("unknown option `{flag}`")),
        }
    }
    if !(seconds.is_finite() && seconds >= 0.0) {
        usage("--seconds must be a non-negative number");
    }

    if workload == "all" {
        let exe = std::env::current_exe().expect("own executable path is readable");
        let mut ok = true;
        for w in Workload::ALL {
            let status = std::process::Command::new(&exe)
                .args(["--workload", w.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .status()
                .expect("spawn a workload process");
            ok &= status.success();
        }
        std::process::exit(i32::from(!ok));
    }

    let Some(workload) = Workload::from_name(&workload) else {
        usage(&format!("unknown workload `{workload}`"))
    };
    let outcome = run(&Options {
        trace,
        ..Options::new(workload, seed, seconds)
    });
    for note in &outcome.notes {
        println!("{note}");
    }
    for m in &outcome.metrics {
        println!("{:<32} {:>20} {}", m.name, m.value, m.unit);
    }
    println!("{}", outcome.to_json());
}
