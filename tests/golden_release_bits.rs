//! Golden release bits: the exact `f64` bits and selected Δ̂ that both
//! private estimators release on fixed graphs with fixed seeds.
//!
//! The table was recorded once and must never change. Any refactor of the
//! graph, family, cache or release path that moves a single bit of a release
//! is a behaviour change, not a cleanup. The graphs sit on both sides of
//! n + m = 4096, the size where older versions switched family engines.

use ccdp::prelude::*;

/// One pinned graph: name, expected n + m, then `(value bits, Δ̂)` of the
/// connected-components release (ε = 1, seed 17) and of the spanning-forest
/// release (ε = 0.5, seed 29).
type Golden = (&'static str, usize, (u64, usize), (u64, usize));

#[rustfmt::skip]
const GOLDEN: [Golden; 8] = [
    ("empty", 0, (4626149966001481120, 1), (13846073220239286101, 1)),
    ("star", 81, (4636422243818707436, 8), (13850013869913235285, 2)),
    ("caveman", 263, (4634136871445803992, 8), (4627654810369081686, 4)),
    ("planted-stars", 565, (4643904699081354111, 32), (4639392483200684118, 8)),
    ("er-sub-1k", 998, (4649490059858009790, 16), (4639542630905391147, 4)),
    ("er-super-1k", 1031, (4645646325499751295, 32), (4644398074253649963, 8)),
    ("er-sub-7k", 6985, (4661587815404416696, 32), (4653602623447676165, 4)),
    ("er-super-7k", 7060, (4656389610167909090, 32), (4657815952005313797, 8)),
];

fn er(n: usize, mean_degree: f64, seed: u64) -> Graph {
    generators::erdos_renyi(n, mean_degree / n as f64, &mut StdRng::seed_from_u64(seed))
}

fn graph(name: &str) -> Graph {
    match name {
        "empty" => Graph::new(0),
        "star" => generators::star(40),
        "caveman" => generators::caveman(12, 6),
        "planted-stars" => generators::planted_star_forest(60, 4, 25),
        "er-sub-1k" => er(800, 0.5, 1),
        "er-super-1k" => er(600, 1.5, 2),
        "er-sub-7k" => er(5600, 0.5, 3),
        "er-super-7k" => er(4400, 1.2, 4),
        other => unreachable!("no golden graph {other}"),
    }
}

/// `(value bits, selected Δ̂)` of one release.
fn bits(release: &Release) -> (u64, usize) {
    let d = release.diagnostics(DiagnosticsAccess::acknowledge_non_private());
    (
        release.value().to_bits(),
        d.selected_delta.expect("private releases select a Δ"),
    )
}

#[test]
fn golden_graphs_straddle_the_old_engine_threshold() {
    for (name, work, _, _) in GOLDEN {
        let g = graph(name);
        assert_eq!(g.num_vertices() + g.num_edges(), work, "{name}");
    }
    assert!(GOLDEN.iter().any(|&(_, work, _, _)| work < 4096));
    assert!(GOLDEN.iter().any(|&(_, work, _, _)| work >= 4096));
}

#[test]
fn connected_components_release_bits_are_pinned() {
    let est = PrivateCcEstimator::from_config(EstimatorConfig::new(1.0)).unwrap();
    for (name, _, want, _) in GOLDEN {
        let g = graph(name);
        let release = est.estimate(&g, &mut StdRng::seed_from_u64(17)).unwrap();
        assert_eq!(bits(&release), want, "{name}");
    }
}

#[test]
fn spanning_forest_release_bits_are_pinned() {
    let est = PrivateSpanningForestEstimator::from_config(EstimatorConfig::new(0.5)).unwrap();
    for (name, _, _, want) in GOLDEN {
        let g = graph(name);
        let release = est.estimate(&g, &mut StdRng::seed_from_u64(29)).unwrap();
        assert_eq!(bits(&release), want, "{name}");
    }
}
