//! Property tests for the effect-inference fixpoint (DESIGN.md §9): on a
//! random call graph — cycles and mutual recursion included — the SCC-based
//! single pass must land exactly on the least fixpoint, i.e. every
//! function's summary equals the union of the *direct* effects of everything
//! it reaches. That one equation subsumes the three guarantees the engine
//! advertises: convergence (the pass terminates with a consistent
//! assignment), monotonicity (`summary(f) ⊇ direct(f)` and
//! `summary(f) ⊇ summary(callee)` along every edge), and the
//! no-false-negatives contract extended from reachability to effects —
//! a trigger anywhere on a direct textual chain shows up in the chain
//! head's summary.

use proptest::prelude::*;
use simlint::effects::{self, EffectSet};
use simlint::graph::SymbolGraph;
use simlint::FileAnalysis;

/// Renders one fixture fn per node: `fn f{i}(v: u64)` calling each of its
/// successors as a bare, arity-matched call, followed by this node's own
/// trigger. Names are unique, so name resolution is exact and the rendered
/// graph's edges are precisely `edges` — cycles, self-loops and all.
fn render_graph(edges: &[(usize, usize)], trigger: &[u8]) -> String {
    let mut src = String::new();
    for (i, &kind) in trigger.iter().enumerate() {
        let mut body = String::new();
        for &(from, to) in edges {
            if from == i {
                body.push_str(&format!("f{to}(v); "));
            }
        }
        body.push_str(match kind % 4 {
            0 => "drop(v);",
            1 => "let s = format!(\"x\"); drop(s);",
            2 => "Some(v).unwrap();",
            _ => "println!(\"{v}\");",
        });
        src.push_str(&format!("fn f{i}(v: u64) {{ {body} }}\n"));
    }
    src
}

fn expected_direct(kind: u8) -> EffectSet {
    match kind % 4 {
        0 => EffectSet::EMPTY,
        1 => EffectSet::ALLOCATES,
        2 => EffectSet::MAY_PANIC,
        _ => EffectSet::DOES_IO,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]
    #[test]
    fn summaries_are_the_least_fixpoint_on_random_graphs(
        trigger in prop::collection::vec(0u8..4, 2..9),
        edge_seed in prop::collection::vec(0usize..64, 0..16),
    ) {
        let n = trigger.len();
        // Derive an arbitrary edge set (duplicates and self-loops allowed —
        // the graph dedups or tolerates them, the fixpoint must not care).
        let edges: Vec<(usize, usize)> = edge_seed
            .iter()
            .map(|&s| (s % n, (s / n) % n))
            .collect();
        let src = render_graph(&edges, &trigger);
        let fa = FileAnalysis::new("crates/mgpu-system/src/fuzz.rs".into(), &src);
        let files = [&fa];
        let g = SymbolGraph::build(&files);
        let e = effects::infer(&g, &files);

        let idx = |name: &str| g.fns.iter().position(|f| f.name == name).unwrap();
        for (i, &kind) in trigger.iter().enumerate() {
            let f = idx(&format!("f{i}"));
            // Direct effects are exactly what the trigger kind planted.
            prop_assert_eq!(
                e.direct[f],
                expected_direct(kind),
                "direct effects of f{} misclassified\n{}",
                i,
                src
            );
            // Least fixpoint == union of direct effects over the reach set.
            let reach = g.reachable_from(&[f]);
            let expected = reach
                .keys()
                .fold(EffectSet::EMPTY, |acc, &r| acc.union(e.direct[r]));
            prop_assert_eq!(
                e.summary[f],
                expected,
                "summary of f{} is not the least fixpoint\n{}",
                i,
                src
            );
            // Monotonicity along every edge (implied by the equation above,
            // asserted separately so a violation names the edge).
            for &(from, to) in &edges {
                if from == i {
                    let t = idx(&format!("f{to}"));
                    prop_assert!(
                        e.summary[f].contains(e.summary[t]),
                        "summary must absorb callee f{} -> f{}\n{}",
                        from,
                        to,
                        src
                    );
                }
            }
        }

        // Determinism: a second inference over a fresh lex reproduces the
        // summaries bit for bit.
        let fa2 = FileAnalysis::new("crates/mgpu-system/src/fuzz.rs".into(), &src);
        let files2 = [&fa2];
        let g2 = SymbolGraph::build(&files2);
        let e2 = effects::infer(&g2, &files2);
        prop_assert_eq!(&e.summary, &e2.summary, "inference must be deterministic\n{}", src);
        prop_assert_eq!(e.scc_count, e2.scc_count);
    }
}
