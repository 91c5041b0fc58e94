//! Self-test of the benchmark at `test` scale with one timed repetition:
//! every metric `BENCHMARK.json` names is emitted with its unit, and a
//! corrupted output makes the failure rate non-zero.

use std::sync::Mutex;

use perfbench::{clear_environment, run, Options, Workload};
use workloads::Scale;

/// Runs share the process-wide grid recorder, so they must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn quick(workload: Workload, trace: bool) -> Options {
    Options {
        trace,
        scale: Scale::Test,
        ..Options::new(workload, 7, 0.0)
    }
}

/// `(name, unit)` of every metric listed in `section` of `BENCHMARK.json`
/// (`end_to_end` or `per_layer`).
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\": \"")).expect("key present") + key.len() + 5;
        entry[at..at + entry[at..].find('"').expect("closing quote")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    clear_environment();
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let want = declared(section);
        assert!(!want.is_empty(), "{section} lists metrics");
        for workload in Workload::ALL {
            let out = run(&quick(workload, trace));
            assert_eq!(
                out.failed,
                0,
                "{} {section}: {:?}",
                workload.name(),
                out.notes
            );
            let got: Vec<(String, String)> = out
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(got, want, "{} {section}", workload.name());
            let json = out.to_json();
            assert!(
                json.starts_with("{\"correct\": true, \"attempted\": "),
                "{json}"
            );
        }
    }
}

#[test]
fn corrupted_output_makes_fail_rate_nonzero() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    clear_environment();
    for workload in [Workload::CellPr32, Workload::Grid4Gpu] {
        let clean = run(&quick(workload, false));
        assert_eq!(clean.fail_rate(), 0.0, "{}", workload.name());
        let corrupt = run(&Options {
            corrupt: true,
            ..quick(workload, false)
        });
        assert_eq!(corrupt.failed, 1, "{}", workload.name());
        assert!(corrupt.fail_rate() > 0.0);
        assert!(corrupt.to_json().starts_with("{\"correct\": false"));
    }
}
