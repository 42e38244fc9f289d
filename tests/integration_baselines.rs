//! Baseline-comparison integration tests (the experiment E8 story in test form):
//! the paper's algorithm must beat the naive node-DP baseline by a wide margin on
//! fragmented graphs, and the fixed-Δ ablation shows why adaptive selection
//! matters. All estimators run through the unified `Estimator` trait.

use ccdp::prelude::*;

fn mean_error(est: &dyn Estimator, g: &Graph, trials: usize, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let truth = g.num_connected_components() as f64;
    let g = PreparedGraph::from(g);
    measure_errors(truth, trials, || {
        est.estimate(&g, &mut rng).unwrap().value()
    })
    .mean
}

fn our_estimator(epsilon: f64) -> PrivateCcEstimator {
    PrivateCcEstimator::from_config(EstimatorConfig::new(epsilon)).unwrap()
}

#[test]
fn ordering_of_estimators_on_a_fragmented_graph() {
    let g = generators::planted_star_forest(150, 2, 50);
    let eps = 1.0;
    let non_private = mean_error(&NonPrivateBaseline, &g, 5, 1);
    let edge = mean_error(&EdgeDpBaseline::new(eps).unwrap(), &g, 30, 2);
    let ours = mean_error(&our_estimator(eps), &g, 20, 3);
    let naive = mean_error(&NaiveNodeDpBaseline::new(eps).unwrap(), &g, 30, 4);

    assert_eq!(non_private, 0.0);
    // Edge-DP answers an easier question and should be the most accurate private baseline.
    assert!(edge < ours, "edge-DP ({edge}) should beat node-DP ({ours})");
    // Our node-private algorithm must beat the naive node-DP approach by a wide margin.
    assert!(
        ours * 5.0 < naive,
        "ours ({ours}) should be far better than naive node-DP ({naive})"
    );
}

#[test]
fn fixed_delta_underestimates_when_guess_is_too_small() {
    let g = generators::planted_star_forest(80, 5, 0);
    // Δ* = 5; guessing 1 produces a systematic bias much larger than our adaptive error.
    let fixed_low = mean_error(&FixedDeltaBaseline::new(1.0, 1).unwrap(), &g, 20, 5);
    let ours = mean_error(&our_estimator(1.0), &g, 20, 6);
    assert!(
        ours < fixed_low,
        "adaptive ({ours}) should beat a too-small fixed Δ ({fixed_low})"
    );
}

#[test]
fn fixed_delta_overpays_when_guess_is_too_large() {
    let g = generators::planted_star_forest(200, 1, 0);
    // Δ* = 1; a fixed Δ = 64 adds ~64x more noise than needed.
    let fixed_high = mean_error(&FixedDeltaBaseline::new(1.0, 64).unwrap(), &g, 40, 7);
    let fixed_right = mean_error(&FixedDeltaBaseline::new(1.0, 1).unwrap(), &g, 40, 8);
    assert!(
        fixed_right * 4.0 < fixed_high,
        "right guess ({fixed_right}) should be much better than oversized guess ({fixed_high})"
    );
}

#[test]
fn naive_node_dp_error_grows_linearly_with_n() {
    let small = generators::planted_star_forest(50, 1, 0);
    let large = generators::planted_star_forest(400, 1, 0);
    let est = NaiveNodeDpBaseline::new(1.0).unwrap();
    let err_small = mean_error(&est, &small, 40, 9);
    let err_large = mean_error(&est, &large, 40, 10);
    let ratio = err_large / err_small;
    let n_ratio = large.num_vertices() as f64 / small.num_vertices() as f64;
    assert!(
        ratio > n_ratio / 3.0,
        "naive error should grow with n (ratio {ratio}, n ratio {n_ratio})"
    );
}

#[test]
fn all_estimators_are_finite_on_edge_cases() {
    let mut rng = StdRng::seed_from_u64(11);
    for g in [
        Graph::new(0),
        Graph::new(1),
        Graph::new(5),
        generators::complete(3),
    ] {
        let g = PreparedGraph::from(g);
        for est in [
            Box::new(NonPrivateBaseline) as Box<dyn Estimator>,
            Box::new(EdgeDpBaseline::new(1.0).unwrap()),
            Box::new(NaiveNodeDpBaseline::new(1.0).unwrap()),
            Box::new(FixedDeltaBaseline::new(1.0, 2).unwrap()),
            Box::new(our_estimator(1.0)),
            Box::new(PrivateSpanningForestEstimator::new(1.0).unwrap()),
        ] {
            let v = est.estimate(&g, &mut rng).unwrap().value();
            assert!(
                v.is_finite(),
                "{} produced a non-finite estimate",
                est.name()
            );
        }
    }
}
