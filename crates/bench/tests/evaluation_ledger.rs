//! The evaluation ledger (`idyll_bench::grid_metrics`) shares simulated
//! cells across figures without changing any figure's text.
//!
//! The ledger is process-global, so everything lives in one `#[test]`: no
//! other test in this binary can clear it or add to it mid-check.

use idyll_bench::{
    all_figures, evaluate, grid_metrics, Figure, FigureFn, Harness, HarnessConfig, FIGURES,
};
use workloads::Scale;

fn harness() -> Harness {
    Harness::new(HarnessConfig {
        scale: Scale::Test,
        threads: 2,
        sim_threads: 1,
        seed: 7,
    })
}

fn figures(ids: &[&str]) -> Vec<Figure> {
    ids.iter()
        .map(|id| *FIGURES.iter().find(|f| f.id == *id).expect("known figure"))
        .collect()
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

    // ... and so do the same figures evaluated in one plan.
    grid_metrics::clear();
    let planned: Vec<String> = evaluate(&h, &figures(&ids))
        .into_iter()
        .map(|text| text.expect("figure runs"))
        .collect();
    assert_eq!(planned, alone, "one plan changed a figure's text");

    // (b) table3, fig05 and fig12 ask only for cells fig11 also runs, so
    // the ledger simulates fig11's 54 distinct cells and nothing else,
    // whether the figures run one by one or in one plan.
    let shared = ["table3", "fig05", "fig11", "fig12"];
    grid_metrics::clear();
    for id in shared {
        figure(id)(&h).expect("figure runs");
    }
    let sequential = grid_metrics::snapshot();
    assert_eq!(sequential.len(), 54);
    // 9 + 9 + 54 + 18 cells asked for, 54 simulated.
    assert_eq!(grid_metrics::reused(), 90 - 54);
    grid_metrics::clear();
    for text in evaluate(&h, &figures(&shared)) {
        text.expect("figure runs");
    }
    let planned = grid_metrics::snapshot();
    assert_eq!(planned.len(), 54);
    assert_eq!(grid_metrics::reused(), 90 - 54);
    let labels = |records: &[grid_metrics::RunRecord]| {
        records
            .iter()
            .map(|r| (r.label.clone(), r.events))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        labels(&planned),
        labels(&sequential),
        "same runs, same order"
    );

    // (c) `clear` is the evaluation boundary: nothing is served across it.
    grid_metrics::clear();
    assert_eq!(grid_metrics::reused(), 0);
    figure("fig12")(&h).expect("figure runs");
    assert_eq!(grid_metrics::snapshot().len(), 18);
    assert_eq!(grid_metrics::reused(), 0);
}
