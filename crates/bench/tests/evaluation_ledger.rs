//! The evaluation ledger (`idyll_bench::grid_metrics`) shares simulated
//! cells across figures without changing any figure's text.
//!
//! The ledger is process-global, so everything lives in one `#[test]`: no
//! other test in this binary can clear it or add to it mid-check.

use idyll_bench::{all_figures, grid_metrics, FigureFn, Harness, HarnessConfig};
use workloads::Scale;

fn harness() -> Harness {
    Harness::new(HarnessConfig {
        scale: Scale::Test,
        threads: 2,
        sim_threads: 1,
        seed: 7,
    })
}

fn figure(id: &str) -> FigureFn {
    all_figures()
        .into_iter()
        .find(|(name, _)| *name == id)
        .map(|(_, f)| f)
        .expect("known figure")
}

#[test]
fn ledger_shares_cells_within_an_evaluation_only() {
    let h = harness();
    let ids = [
        "table3", "fig05", "fig11", "fig12", "fig15", "fig18", "fig19",
    ];

    // (a) One evaluation over all figures reads exactly like each figure
    // simulated on its own.
    let alone: Vec<String> = ids
        .iter()
        .map(|id| {
            grid_metrics::clear();
            figure(id)(&h).expect("figure runs")
        })
        .collect();
    grid_metrics::clear();
    for (id, expected) in ids.iter().zip(&alone) {
        let shared = figure(id)(&h).expect("figure runs");
        assert_eq!(
            &shared, expected,
            "{id} changed when run after earlier figures"
        );
    }

    // (b) table3, fig05 and fig12 ask only for cells fig11 also runs, so
    // the ledger simulates fig11's 54 distinct cells and nothing else.
    grid_metrics::clear();
    for id in ["table3", "fig05", "fig11", "fig12"] {
        figure(id)(&h).expect("figure runs");
    }
    assert_eq!(grid_metrics::snapshot().len(), 54);
    // 9 + 9 + 54 + 18 cells asked for, 54 simulated.
    assert_eq!(grid_metrics::reused(), 90 - 54);

    // (c) `clear` is the evaluation boundary: nothing is served across it.
    grid_metrics::clear();
    assert_eq!(grid_metrics::reused(), 0);
    figure("fig12")(&h).expect("figure runs");
    assert_eq!(grid_metrics::snapshot().len(), 18);
    assert_eq!(grid_metrics::reused(), 0);
}
