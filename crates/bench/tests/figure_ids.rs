//! `all_figures --only <id>` is the one way to regenerate a single table,
//! so every committed table must have exactly one id in the figure list.

use std::collections::BTreeSet;

use idyll_bench::all_figures;

#[test]
fn figure_ids_are_unique_and_match_the_committed_tables() {
    let ids: Vec<&str> = all_figures().into_iter().map(|(id, _)| id).collect();
    let unique: BTreeSet<String> = ids.iter().map(|id| id.to_string()).collect();
    assert_eq!(unique.len(), ids.len(), "duplicate figure id in {ids:?}");

    let results = concat!(env!("CARGO_MANIFEST_DIR"), "/results");
    let committed: BTreeSet<String> = std::fs::read_dir(results)
        .expect("read results/")
        .map(|entry| entry.expect("results/ entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "txt"))
        .map(|path| {
            path.file_stem()
                .expect("table file name")
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    assert_eq!(unique, committed, "figure ids vs results/*.txt");
}
