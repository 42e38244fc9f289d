//! Prepared snapshots: the one graph representation of the solving hot path.
//!
//! Everything the private release needs from a graph that does not depend on
//! the request — the flat [`CsrGraph`] arena, its structural fingerprint, the
//! maximum degree and the exact spanning-forest size `f_sf` — is fixed once a
//! snapshot is published. [`PreparedGraph`] computes all of it once, at
//! construction, and is then immutable and cheap to clone (one `Arc` bump),
//! so a catalog, a stream, a family cache and an estimator can all hold the
//! same snapshot without rebuilding or re-deriving anything.
//!
//! Two handles built from the same preparation share one arena, which makes
//! "is this the same snapshot?" a pointer comparison
//! ([`PreparedGraph::same_snapshot`]); [`PreparedGraph::matches`] falls back
//! to comparing arenas only for separately prepared graphs.

use crate::csr::CsrGraph;
use crate::graph::Graph;
use std::sync::Arc;

/// An immutable, cheaply clonable graph snapshot with its derived statistics
/// computed once.
#[derive(Clone, Debug)]
pub struct PreparedGraph {
    csr: Arc<CsrGraph>,
    max_degree: usize,
    spanning_forest_size: usize,
    fingerprint: u128,
}

impl PreparedGraph {
    /// Prepares an arena: one O(n + m) pass each for the fingerprint, the
    /// maximum degree and the spanning-forest size.
    pub fn new(csr: CsrGraph) -> Self {
        PreparedGraph {
            max_degree: csr.max_degree(),
            spanning_forest_size: csr.spanning_forest_size(),
            fingerprint: csr.fingerprint(),
            csr: Arc::new(csr),
        }
    }

    /// The flat CSR arena.
    #[inline]
    pub fn csr(&self) -> &CsrGraph {
        &self.csr
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.csr.num_vertices()
    }

    /// Number of edges `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.csr.num_edges()
    }

    /// Maximum degree (0 for the empty graph).
    #[inline]
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// Exact spanning-forest size `f_sf = n − f_cc`.
    #[inline]
    pub fn spanning_forest_size(&self) -> usize {
        self.spanning_forest_size
    }

    /// Exact number of connected components `f_cc`.
    #[inline]
    pub fn num_connected_components(&self) -> usize {
        self.num_vertices() - self.spanning_forest_size
    }

    /// The arena's 128-bit structural fingerprint ([`CsrGraph::fingerprint`]).
    #[inline]
    pub fn fingerprint(&self) -> u128 {
        self.fingerprint
    }

    /// `true` if both handles come from one preparation (pointer identity).
    #[inline]
    pub fn same_snapshot(&self, other: &PreparedGraph) -> bool {
        Arc::ptr_eq(&self.csr, &other.csr)
    }

    /// Structural equality: pointer identity first, then the fingerprint,
    /// then a full arena comparison, so equal fingerprints of different
    /// graphs never match.
    pub fn matches(&self, other: &PreparedGraph) -> bool {
        self.same_snapshot(other)
            || (self.fingerprint == other.fingerprint && self.csr == other.csr)
    }
}

impl From<CsrGraph> for PreparedGraph {
    fn from(csr: CsrGraph) -> Self {
        PreparedGraph::new(csr)
    }
}

impl From<&Graph> for PreparedGraph {
    fn from(g: &Graph) -> Self {
        PreparedGraph::new(CsrGraph::from_graph(g))
    }
}

impl From<Graph> for PreparedGraph {
    fn from(g: Graph) -> Self {
        PreparedGraph::from(&g)
    }
}

impl From<Arc<Graph>> for PreparedGraph {
    fn from(g: Arc<Graph>) -> Self {
        PreparedGraph::from(&*g)
    }
}

/// Another handle to the same snapshot (an `Arc` bump, no copy).
impl From<&PreparedGraph> for PreparedGraph {
    fn from(g: &PreparedGraph) -> Self {
        g.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn statistics_match_the_adjacency_list_graph() {
        for g in [
            Graph::new(0),
            Graph::new(4),
            generators::star(6),
            generators::caveman(3, 4),
            generators::planted_star_forest(5, 3, 2),
        ] {
            let p = PreparedGraph::from(&g);
            assert_eq!(p.num_vertices(), g.num_vertices());
            assert_eq!(p.num_edges(), g.num_edges());
            assert_eq!(p.max_degree(), g.max_degree());
            assert_eq!(p.spanning_forest_size(), g.spanning_forest_size());
            assert_eq!(p.num_connected_components(), g.num_connected_components());
            assert_eq!(p.fingerprint(), CsrGraph::from_graph(&g).fingerprint());
            assert_eq!(p.csr().to_graph(), g);
        }
    }

    #[test]
    fn clones_are_the_same_snapshot_and_separate_preparations_only_match() {
        let g = generators::cycle(7);
        let a = PreparedGraph::from(&g);
        let b = PreparedGraph::from(&g);
        assert!(a.same_snapshot(&a.clone()));
        assert!(a.same_snapshot(&PreparedGraph::from(&a)));
        assert!(!a.same_snapshot(&b));
        assert!(a.matches(&b));
        assert!(!a.matches(&PreparedGraph::from(generators::path(7))));
    }
}
