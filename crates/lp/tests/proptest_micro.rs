//! Property tests for the micro-component fast paths: on every generator
//! family, every Δ in the small grid, micro on or off and every thread
//! budget, `solve_partition` must return the exact bits of the general
//! combinatorial path — micro closed forms and the class table's shared
//! solves are pure work-savers, never value-changers.

use ccdp_graph::{generators, CsrGraph, Graph};
use ccdp_lp::{solve_partition, CombinatorialSolver, PolytopeSolver};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random tree: vertex `i ≥ 1` attaches to a uniform earlier vertex.
fn random_tree(n: usize, rng: &mut StdRng) -> Graph {
    let mut g = Graph::new(n);
    for i in 1..n {
        let j = rng.gen_range(0..i);
        g.add_edge(j, i);
    }
    g
}

/// One graph from the named family, deterministic in `seed`.
fn family_graph(family: u8, n: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    match family {
        0 => random_tree(n.max(1), &mut rng),
        1 => generators::cycle(n.max(3)),
        2 => generators::erdos_renyi(n.max(2), 1.4 / n.max(2) as f64, &mut rng),
        3 => generators::barabasi_albert(n.max(4), 2, &mut rng),
        _ => generators::random_geometric(n.max(2), 0.18, &mut rng),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Micro vs the general path: identical value bits and identical
    /// per-edge weight bits (arena order), for every family, Δ and thread
    /// budget.
    #[test]
    fn micro_matches_general_bitwise(
        family in 0u8..5,
        n in 4usize..60,
        seed in 0u64..1u64 << 48,
        delta in 1u8..=4,
    ) {
        let g = family_graph(family, n, seed);
        let arena = CsrGraph::from_graph(&g);
        let part = arena.partition_components();
        let delta = delta as f64;

        let base = solve_partition(&part, delta, 1, false).unwrap();
        for micro in [true, false] {
            for threads in [1usize, 3] {
                let fast = solve_partition(&part, delta, threads, micro).unwrap();
                prop_assert_eq!(
                    base.solution.value.to_bits(),
                    fast.solution.value.to_bits(),
                    "value bits diverged: family={} micro={} threads={}",
                    family, micro, threads
                );
                prop_assert_eq!(
                    base.solution.edge_weights.len(),
                    fast.solution.edge_weights.len()
                );
                for (i, (a, b)) in base
                    .solution
                    .edge_weights
                    .iter()
                    .zip(&fast.solution.edge_weights)
                    .enumerate()
                {
                    prop_assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "weight bits diverged at edge {}: micro={} threads={}",
                        i, micro, threads
                    );
                }
            }
        }
    }

    /// The class table never pairs different labeled components: a graph
    /// made of two independently random components must release each one's
    /// own weights, bit for bit, as solved alone — a false class pairing
    /// would hand one component the other's weights and break this
    /// immediately — and the value of the general solver on the whole graph.
    /// The class/hit counters must also stay consistent with the component
    /// count.
    #[test]
    fn class_table_separates_random_component_pairs(
        fam_a in 0u8..5,
        fam_b in 0u8..5,
        na in 4usize..20,
        nb in 4usize..20,
        seed in 0u64..1u64 << 48,
        delta in 1u8..=4,
    ) {
        let a = family_graph(fam_a, na, seed);
        let b = family_graph(fam_b, nb, seed ^ 0x9E37_79B9);
        // Disjoint union: b's vertices shifted past a's.
        let mut g = Graph::new(a.num_vertices() + b.num_vertices());
        for (u, v) in a.edges() {
            g.add_edge(u, v);
        }
        for (u, v) in b.edges() {
            g.add_edge(a.num_vertices() + u, a.num_vertices() + v);
        }
        let solve = |g: &Graph| {
            let part = CsrGraph::from_graph(g).partition_components();
            solve_partition(&part, delta as f64, 1, true).unwrap()
        };
        let union = solve(&g);
        let general = CombinatorialSolver::new().solve(&g, delta as f64).unwrap();
        prop_assert_eq!(
            general.value.to_bits(),
            union.solution.value.to_bits()
        );
        // a's components come first in the union's arena, then b's.
        let alone: Vec<u64> = [solve(&a), solve(&b)]
            .iter()
            .flat_map(|s| s.solution.edge_weights.iter().map(|w| w.to_bits()))
            .collect();
        let together: Vec<u64> = union.solution.edge_weights.iter().map(|w| w.to_bits()).collect();
        prop_assert_eq!(alone, together);
        let stats = union.stats;
        prop_assert_eq!(stats.dedup_classes + stats.dedup_hits, stats.components);
        prop_assert!(stats.components == 0 || stats.dedup_classes >= 1);
    }
}
