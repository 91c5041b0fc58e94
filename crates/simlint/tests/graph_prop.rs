//! Property test for the call graph's soundness contract (DESIGN.md §9):
//! a *direct textual call chain* from a GPU-lane handler must never produce
//! a false negative — every function on the chain is reachable, whatever
//! mix of call shapes (bare, qualified, method) and definition kinds (free
//! fn, inherent method) the chain uses. Precision may be conservative;
//! reachability may not be lossy.

use proptest::prelude::*;
use simlint::graph::SymbolGraph;
use simlint::FileAnalysis;

/// Renders a single-file workspace source containing:
/// - `impl GpuLane { fn on_seed }` calling `c0`,
/// - a chain `c0 → c1 → … → c{n-1}` where `shapes[i]` picks both how `c_i`
///   is *defined* and how its caller *spells the call*:
///   `0` bare call to a free fn, `1` path-qualified call to a free fn,
///   `2` `H_i::c_i(..)` to an inherent method, `3` `recv.c_i(..)` to an
///   inherent method, `4` bare call with a nested-expression argument,
/// - `extra` never-called distractor functions `d0..`.
fn render_chain(shapes: &[u8], extra: usize) -> String {
    let call = |i: usize| match shapes[i] % 5 {
        0 => format!("c{i}(v)"),
        1 => format!("helpers::c{i}(v)"),
        2 => format!("H{i}::c{i}(recv, v)"),
        3 => format!("recv.c{i}(v)"),
        _ => format!("c{i}(v + 1)"),
    };
    let mut src = format!(
        "impl GpuLane {{ fn on_seed(&mut self, v: u64) -> u64 {{ {} }} }}\n",
        call(0)
    );
    for i in 0..shapes.len() {
        let body = if i + 1 < shapes.len() {
            call(i + 1)
        } else {
            "v".to_string()
        };
        match shapes[i] % 5 {
            2 | 3 => src.push_str(&format!(
                "impl H{i} {{ fn c{i}(&self, v: u64) -> u64 {{ {body} }} }}\n"
            )),
            _ => src.push_str(&format!("fn c{i}(v: u64) -> u64 {{ {body} }}\n")),
        }
    }
    for j in 0..extra {
        src.push_str(&format!("fn d{j}(v: u64) -> u64 {{ v }}\n"));
    }
    src
}

fn index_of(g: &SymbolGraph, name: &str) -> Option<usize> {
    g.fns.iter().position(|f| f.name == name)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]
    #[test]
    fn direct_chains_are_always_reachable(
        shapes in prop::collection::vec(0u8..5, 1..8),
        extra in 0usize..5,
    ) {
        let src = render_chain(&shapes, extra);
        let fa = FileAnalysis::new("crates/mgpu-system/src/system/chain.rs".into(), &src);
        let files = [&fa];
        let g = SymbolGraph::build(&files);
        let roots = g.fns_of_type("GpuLane");
        prop_assert_eq!(roots.len(), 1, "exactly one lane handler\n{}", src);
        let reach = g.reachable_from(&roots);
        for i in 0..shapes.len() {
            let name = format!("c{i}");
            let idx = index_of(&g, &name);
            prop_assert!(idx.is_some(), "fn {} missing from the symbol index\n{}", name, src);
            let idx = idx.unwrap();
            prop_assert!(
                reach.contains_key(&idx),
                "FALSE NEGATIVE: {} not reachable\n{}",
                name,
                src
            );
            // The witness chain traces back to the GPU-lane root.
            let root = g.root_of(&reach, idx);
            prop_assert_eq!(
                g.fns[root].impl_type.as_deref(),
                Some("GpuLane"),
                "witness for {} must be a lane handler\n{}",
                name,
                src
            );
        }
        // Distractor names are unique, so conservatism has no reason to
        // reach them: uncalled functions stay unreachable.
        for j in 0..extra {
            let name = format!("d{j}");
            let idx = index_of(&g, &name).expect("distractor indexed");
            prop_assert!(
                !reach.contains_key(&idx),
                "uncalled fn {} must stay unreachable\n{}",
                name,
                src
            );
        }
    }
}
