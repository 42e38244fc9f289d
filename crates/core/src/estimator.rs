//! The unified, object-safe estimator interface.
//!
//! Every estimator in this crate — the paper's private algorithms *and* the
//! non-private / edge-DP / naive baselines — implements [`Estimator`], so a
//! serving loop, bench harness or experiment can hold heterogeneous estimators
//! as `Box<dyn Estimator>` and treat their outputs uniformly as typed
//! [`Release`]s.
//!
//! ```
//! use ccdp_core::baselines::{EdgeDpBaseline, NonPrivateBaseline};
//! use ccdp_core::{Estimator, PrivateCcEstimator};
//! use ccdp_graph::{generators, PreparedGraph};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let fleet: Vec<Box<dyn Estimator>> = vec![
//!     Box::new(NonPrivateBaseline),
//!     Box::new(EdgeDpBaseline::new(1.0).unwrap()),
//!     Box::new(PrivateCcEstimator::new(1.0).unwrap()),
//! ];
//! // Prepare the snapshot once; every estimator reads the same arena.
//! let g = PreparedGraph::from(generators::planted_star_forest(10, 2, 3));
//! let mut rng = StdRng::seed_from_u64(7);
//! for est in &fleet {
//!     let release = est.estimate(&g, &mut rng).unwrap();
//!     println!("{}: {:.1}", est.name(), release.value());
//! }
//! ```

use crate::error::CcdpError;
use crate::release::{Privacy, Release};
use ccdp_graph::PreparedGraph;
use rand::RngCore;

/// An estimator of a graph statistic that produces a typed [`Release`].
///
/// Object-safe by construction: randomness comes in as `&mut dyn RngCore` and
/// results leave as [`Release`] / [`CcdpError`], so implementations with
/// completely different internals share one vtable-friendly signature.
pub trait Estimator {
    /// Stable, human-readable name (used in experiment tables and logs).
    fn name(&self) -> &'static str;

    /// The privacy guarantee this estimator advertises for its releases.
    fn privacy(&self) -> Privacy;

    /// Runs the estimator on the prepared snapshot `g`.
    fn estimate(&self, g: &PreparedGraph, rng: &mut dyn RngCore) -> Result<Release, CcdpError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    // Compile-time proof of object safety (independent of any implementor).
    fn _assert_object_safe(_: &dyn Estimator) {}
}
