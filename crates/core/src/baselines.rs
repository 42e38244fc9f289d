//! Baseline estimators for the number of connected components.
//!
//! The paper motivates its algorithm by contrasting node-privacy with the easier
//! edge-privacy setting and with naive node-private approaches. These baselines
//! make that comparison concrete and are used by experiment E8:
//!
//! * [`NonPrivateBaseline`] — the exact count (no privacy), the accuracy ceiling.
//! * [`EdgeDpBaseline`] — the trivial edge-DP algorithm: `f_cc` changes by at most
//!   1 per edge, so `f_cc(G) + Lap(1/ε)` suffices (Section 1.2).
//! * [`NaiveNodeDpBaseline`] — the naive node-DP algorithm that uses the global
//!   node sensitivity of `f_cc`, which is `n − 1` on `n`-vertex graphs because a
//!   single added node can connect everything; its error swamps the signal, which
//!   is exactly the obstacle described in the introduction.
//! * [`FixedDeltaBaseline`] — an ablation of Algorithm 1 that skips the GEM
//!   selection and uses a fixed, data-independent Δ (spending the whole budget on
//!   the Laplace release). Accurate only if the guess is at least Δ*, and noisier
//!   than necessary if the guess is too large.
//!
//! All four implement the same object-safe [`Estimator`] trait as the private
//! estimators, so experiments can sweep heterogeneous estimators through one
//! `Vec<Box<dyn Estimator>>`.

use crate::config::{ConfigError, EstimatorConfig};
use crate::error::CcdpError;
use crate::estimator::Estimator;
use crate::extension::{evaluate_family, FamilyOptions};
use crate::release::{Diagnostics, Privacy, Release};
use ccdp_dp::laplace::laplace_mechanism;
use ccdp_graph::PreparedGraph;
use rand::RngCore;

/// The exact, non-private count (accuracy ceiling).
#[derive(Clone, Copy, Debug, Default)]
pub struct NonPrivateBaseline;

impl Estimator for NonPrivateBaseline {
    fn name(&self) -> &'static str {
        "non-private"
    }

    fn privacy(&self) -> Privacy {
        Privacy::NonPrivate
    }

    fn estimate(&self, g: &PreparedGraph, _rng: &mut dyn RngCore) -> Result<Release, CcdpError> {
        Ok(Release::new(
            g.num_connected_components() as f64,
            Privacy::NonPrivate,
            self.name(),
            Diagnostics::default(),
        ))
    }
}

/// Edge-differentially private Laplace release (sensitivity 1).
#[derive(Clone, Copy, Debug)]
pub struct EdgeDpBaseline {
    epsilon: f64,
}

impl EdgeDpBaseline {
    /// Creates the baseline with the given edge-DP ε.
    pub fn new(epsilon: f64) -> Result<Self, ConfigError> {
        EstimatorConfig::new(epsilon).validate()?;
        Ok(EdgeDpBaseline { epsilon })
    }

    /// The privacy parameter (with respect to *edge* neighbors).
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }
}

impl Estimator for EdgeDpBaseline {
    fn name(&self) -> &'static str {
        "edge-dp-laplace"
    }

    fn privacy(&self) -> Privacy {
        Privacy::EdgeDp {
            epsilon: self.epsilon,
        }
    }

    fn estimate(&self, g: &PreparedGraph, rng: &mut dyn RngCore) -> Result<Release, CcdpError> {
        let value = laplace_mechanism(g.num_connected_components() as f64, 1.0, self.epsilon, rng);
        Ok(Release::new(
            value,
            self.privacy(),
            self.name(),
            Diagnostics {
                noise_scale: Some(1.0 / self.epsilon),
                ..Diagnostics::default()
            },
        ))
    }
}

/// Naive node-DP Laplace release using the worst-case global sensitivity `n − 1`.
#[derive(Clone, Copy, Debug)]
pub struct NaiveNodeDpBaseline {
    epsilon: f64,
}

impl NaiveNodeDpBaseline {
    /// Creates the baseline with the given node-DP ε.
    pub fn new(epsilon: f64) -> Result<Self, ConfigError> {
        EstimatorConfig::new(epsilon).validate()?;
        Ok(NaiveNodeDpBaseline { epsilon })
    }

    /// The node-DP privacy parameter.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }
}

impl Estimator for NaiveNodeDpBaseline {
    fn name(&self) -> &'static str {
        "naive-node-dp-laplace"
    }

    fn privacy(&self) -> Privacy {
        Privacy::NodeDp {
            epsilon: self.epsilon,
        }
    }

    fn estimate(&self, g: &PreparedGraph, rng: &mut dyn RngCore) -> Result<Release, CcdpError> {
        // Inserting one node with arbitrary edges can merge all components, and the
        // node count itself changes by one, so the global sensitivity over n-vertex
        // databases is n (we use max(n, 1) to keep the mechanism defined).
        let sensitivity = g.num_vertices().max(1) as f64;
        let value = laplace_mechanism(
            g.num_connected_components() as f64,
            sensitivity,
            self.epsilon,
            rng,
        );
        Ok(Release::new(
            value,
            self.privacy(),
            self.name(),
            Diagnostics {
                noise_scale: Some(sensitivity / self.epsilon),
                ..Diagnostics::default()
            },
        ))
    }
}

/// Ablation: Algorithm 1 with a fixed, data-independent Δ instead of GEM.
///
/// Releases `ñ − (f_Δ(G) + Lap(2Δ/ε))` where ñ is a Laplace release of the node
/// count with ε/2 of the budget; the extension release uses the other ε/2 so the
/// whole estimator is ε-node-private by composition.
#[derive(Clone, Copy, Debug)]
pub struct FixedDeltaBaseline {
    epsilon: f64,
    delta: usize,
}

impl FixedDeltaBaseline {
    /// Creates the baseline with the given ε and fixed Δ.
    pub fn new(epsilon: f64, delta: usize) -> Result<Self, ConfigError> {
        EstimatorConfig::new(epsilon).validate()?;
        if delta == 0 {
            return Err(ConfigError::InvalidDelta { value: delta });
        }
        Ok(FixedDeltaBaseline { epsilon, delta })
    }

    /// The node-DP privacy parameter.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The fixed Lipschitz parameter.
    pub fn delta(&self) -> usize {
        self.delta
    }
}

impl Estimator for FixedDeltaBaseline {
    fn name(&self) -> &'static str {
        "fixed-delta-extension"
    }

    fn privacy(&self) -> Privacy {
        Privacy::NodeDp {
            epsilon: self.epsilon,
        }
    }

    fn estimate(&self, g: &PreparedGraph, rng: &mut dyn RngCore) -> Result<Release, CcdpError> {
        let half = self.epsilon / 2.0;
        let node_count = laplace_mechanism(g.num_vertices() as f64, 1.0, half, rng);
        let extension =
            evaluate_family(g, &[self.delta], &FamilyOptions::default(), None)?[0].value;
        let sf = laplace_mechanism(extension, self.delta as f64, half, rng);
        Ok(Release::new(
            node_count - sf,
            self.privacy(),
            self.name(),
            Diagnostics {
                selected_delta: Some(self.delta),
                extension_value: Some(extension),
                noise_scale: Some(self.delta as f64 / half),
                node_count_estimate: Some(node_count),
                spanning_forest_estimate: Some(sf),
                ..Diagnostics::default()
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdp_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mean_abs_error<E: Estimator>(est: &E, g: &PreparedGraph, runs: usize, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let truth = g.num_connected_components() as f64;
        (0..runs)
            .map(|_| (est.estimate(g, &mut rng).unwrap().value() - truth).abs())
            .sum::<f64>()
            / runs as f64
    }

    #[test]
    fn non_private_baseline_is_exact() {
        let mut rng = StdRng::seed_from_u64(0);
        let g = PreparedGraph::from(generators::planted_star_forest(10, 2, 3));
        let v = NonPrivateBaseline.estimate(&g, &mut rng).unwrap().value();
        assert_eq!(v, 13.0);
    }

    #[test]
    fn edge_dp_error_is_small() {
        let g = PreparedGraph::from(generators::planted_star_forest(50, 2, 10));
        let err = mean_abs_error(&EdgeDpBaseline::new(1.0).unwrap(), &g, 200, 1);
        assert!(err < 3.0, "edge-DP error {err} should be about 1/ε");
    }

    #[test]
    fn naive_node_dp_error_scales_with_n() {
        let g = PreparedGraph::from(generators::planted_star_forest(50, 2, 10));
        let err = mean_abs_error(&NaiveNodeDpBaseline::new(1.0).unwrap(), &g, 200, 2);
        let n = g.num_vertices() as f64;
        assert!(
            err > n / 4.0,
            "naive error {err} unexpectedly small for n = {n}"
        );
    }

    #[test]
    fn fixed_delta_with_good_guess_is_accurate() {
        let g = PreparedGraph::from(generators::planted_star_forest(50, 2, 10));
        // Δ* = 2 here, so a fixed guess of 2 is accurate.
        let err = mean_abs_error(&FixedDeltaBaseline::new(1.0, 2).unwrap(), &g, 100, 3);
        assert!(err < 20.0, "fixed-delta error {err} too large");
    }

    #[test]
    fn fixed_delta_with_low_guess_is_biased() {
        // Guessing Δ = 1 on a star forest with stars of size 4 underestimates f_sf
        // and therefore overestimates f_cc by a systematic margin.
        let g = PreparedGraph::from(generators::planted_star_forest(40, 4, 0));
        let mut rng = StdRng::seed_from_u64(4);
        let est = FixedDeltaBaseline::new(1.0, 1).unwrap();
        let truth = g.num_connected_components() as f64;
        let mean: f64 = (0..100)
            .map(|_| est.estimate(&g, &mut rng).unwrap().value())
            .sum::<f64>()
            / 100.0;
        assert!(
            mean - truth > 20.0,
            "expected systematic overestimate, got mean {mean} vs {truth}"
        );
    }

    #[test]
    fn invalid_parameters_are_typed_errors() {
        assert!(matches!(
            EdgeDpBaseline::new(0.0),
            Err(ConfigError::InvalidEpsilon { .. })
        ));
        assert!(matches!(
            NaiveNodeDpBaseline::new(f64::NAN),
            Err(ConfigError::InvalidEpsilon { .. })
        ));
        assert!(matches!(
            FixedDeltaBaseline::new(1.0, 0),
            Err(ConfigError::InvalidDelta { value: 0 })
        ));
    }

    #[test]
    fn baseline_names_and_privacy_levels_are_distinct() {
        let baselines: Vec<Box<dyn Estimator>> = vec![
            Box::new(NonPrivateBaseline),
            Box::new(EdgeDpBaseline::new(1.0).unwrap()),
            Box::new(NaiveNodeDpBaseline::new(1.0).unwrap()),
            Box::new(FixedDeltaBaseline::new(1.0, 2).unwrap()),
        ];
        let names: std::collections::HashSet<_> = baselines.iter().map(|b| b.name()).collect();
        assert_eq!(names.len(), baselines.len());
        assert_eq!(baselines[0].privacy(), Privacy::NonPrivate);
        assert_eq!(baselines[1].privacy(), Privacy::EdgeDp { epsilon: 1.0 });
        assert_eq!(baselines[2].privacy(), Privacy::NodeDp { epsilon: 1.0 });
    }
}
