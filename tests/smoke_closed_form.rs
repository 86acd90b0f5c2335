//! Smoke tests pinning the engine to closed-form subgraph counts, and
//! checking that the interpreted GraphPi executor and every baseline system
//! agree on small fixed graphs.
//!
//! These are the cheapest possible "is counting even right?" checks: if any
//! of them fails, something fundamental (restriction sets, schedules, the
//! interpreter, or a baseline) broke.

use graphpi::baseline::{naive, ExpansionEngine, GraphZeroEngine};
use graphpi::core::engine::{CountOptions, GraphPi, PlanOptions};
use graphpi::graph::builder::GraphBuilder;
use graphpi::graph::{generators, CsrGraph};
use graphpi::pattern::{prefab, Pattern};

/// n choose k as u64.
fn choose(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let mut result = 1u64;
    for i in 0..k {
        result = result * (n - i) / (i + 1);
    }
    result
}

/// Counts with the interpreted executor (sequential enumeration).
fn engine_count(graph: &CsrGraph, pattern: &Pattern) -> u64 {
    GraphPi::new(graph.clone())
        .count_with(
            pattern,
            PlanOptions::default(),
            CountOptions::sequential_enumeration(),
        )
        .expect("planning a prefab pattern on a smoke graph must succeed")
}

#[test]
fn triangle_count_on_complete_graphs_is_n_choose_3() {
    for n in 3..=9u64 {
        let g = generators::complete(n as usize);
        assert_eq!(
            engine_count(&g, &prefab::triangle()),
            choose(n, 3),
            "triangles in K_{n}"
        );
    }
}

#[test]
fn clique_counts_on_complete_graphs_are_binomials() {
    let g = generators::complete(8);
    for k in 3..=5u64 {
        assert_eq!(
            engine_count(&g, &prefab::clique(k as usize)),
            choose(8, k),
            "{k}-cliques in K_8"
        );
    }
}

#[test]
fn edge_count_on_a_path_is_n_minus_1() {
    let edge = prefab::path_pattern(2);
    for n in 2..=12u64 {
        let g = generators::path(n as usize);
        assert_eq!(engine_count(&g, &edge), n - 1, "edges in P_{n}");
    }
}

#[test]
fn path3_count_on_a_path_graph_is_n_minus_2() {
    // A 3-vertex path has one non-trivial automorphism (reversal), so the
    // embedding count on the path graph P_n is exactly its n-2 occurrences.
    let p3 = prefab::path_pattern(3);
    for n in 3..=10u64 {
        let g = generators::path(n as usize);
        assert_eq!(engine_count(&g, &p3), n - 2, "P_3 occurrences in P_{n}");
    }
}

#[test]
fn star_count_on_a_star_graph_is_one() {
    // The star with k leaves occurs exactly once in the star graph of the
    // same size (both `star` and `star_pattern` take the total vertex count).
    for n in 4..=7usize {
        let g = generators::star(n);
        assert_eq!(engine_count(&g, &prefab::star_pattern(n)), 1);
    }
}

/// A small fixed graph with known structure: two houses sharing a wall,
/// i.e. a 2x3 grid with both "floor" diagonals added.
///
/// ```text
///   3 - 4 - 5
///   | x |   |      ("x" marks the diagonals 0-4 and 1-3)
///   0 - 1 - 2
/// ```
fn fixed_graph() -> CsrGraph {
    let mut b = GraphBuilder::new().num_vertices(6);
    for (u, v) in [
        (0, 1),
        (1, 2),
        (3, 4),
        (4, 5),
        (0, 3),
        (1, 4),
        (2, 5),
        (0, 4),
        (1, 3),
    ] {
        b.push_edge(u, v);
    }
    b.build()
}

#[test]
fn prefabs_agree_across_engine_and_baselines_on_fixed_graph() {
    let g = fixed_graph();
    let graphzero = GraphZeroEngine::new(g.clone());
    let expansion = ExpansionEngine::new(g.clone());
    for (name, pattern) in [
        ("triangle", prefab::triangle()),
        ("rectangle", prefab::rectangle()),
        ("house", prefab::house()),
        ("clique4", prefab::clique(4)),
    ] {
        let expected = naive::count_embeddings(&pattern, &g);
        assert_eq!(engine_count(&g, &pattern), expected, "{name}: engine");
        assert_eq!(graphzero.count(&pattern), expected, "{name}: graphzero");
        assert_eq!(
            expansion.count(&pattern).count(),
            Some(expected),
            "{name}: expansion"
        );
    }
}

#[test]
fn fixed_graph_has_the_hand_counted_structure() {
    // Hand-verifiable ground truths for the fixed graph, independent of any
    // engine: 9 edges, and the triangles are exactly {0,1,4}, {0,3,4},
    // {0,1,3} and {1,3,4}.
    let g = fixed_graph();
    assert_eq!(g.num_vertices(), 6);
    assert_eq!(g.num_edges(), 9);
    assert_eq!(engine_count(&g, &prefab::path_pattern(2)), 9);
    assert_eq!(engine_count(&g, &prefab::triangle()), 4);
}

#[test]
fn large_star_counts_do_not_overflow_iep() {
    // Six leaves of a star with L leaves occur C(L, 6) times. With the
    // centre bound first, the six leaves are the IEP suffix and the
    // centre's IEP term is the number of ordered 6-tuples of distinct
    // leaves, about L^6: past 64 bits at 1600 leaves (~1.7e19), and by a
    // factor of 40 at 3000. Both the sequential and the default parallel
    // path must still return the exact count. The configuration is given
    // explicitly (centre first, leaves ordered by id) because planning a
    // 7-vertex star ranks 46,080 candidates.
    use graphpi::core::Schedule;
    use graphpi::pattern::RestrictionSet;
    let star7 = prefab::star_pattern(7);
    let schedule = Schedule::new(&star7, (0..7).collect());
    let leaf_order = RestrictionSet::from_pairs(&[(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]);
    let sequential_iep = CountOptions {
        threads: 1,
        ..CountOptions::default()
    };
    for leaves in [1600u64, 3000] {
        let engine = GraphPi::new(generators::star(leaves as usize + 1));
        for options in [sequential_iep, CountOptions::default()] {
            let count = engine.count_with_configuration(
                schedule.clone(),
                leaf_order.clone(),
                &star7,
                options,
            );
            assert_eq!(
                count,
                choose(leaves, 6),
                "6-leaf stars in a {leaves}-leaf star, threads = {}",
                options.threads
            );
        }
    }
}
