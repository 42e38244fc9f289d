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
//!
//! Successive snapshots of one evolving graph form a [`Lineage`]. Its owner
//! (a stream) holds the lineage; each snapshot prepared
//! [with it](PreparedGraph::with_lineage) holds only a weak link, through
//! which the solving layer carries state (its component class table) from
//! one snapshot's evaluation to the next. A graph prepared on its own, such
//! as a one-shot ingest, has no lineage and retains nothing.

use crate::csr::CsrGraph;
use crate::graph::Graph;
use std::any::Any;
use std::sync::{Arc, Mutex, MutexGuard, Weak};

/// The state slot a [`Lineage`] shares with its snapshots.
type LineageSlot = Mutex<Option<Box<dyn Any + Send>>>;

/// State retained across the snapshots of one evolving graph.
///
/// The owner holds the only strong handles (clones of this value); snapshots
/// reach the slot through a weak link ([`PreparedGraph::lineage`]), so
/// dropping the owner frees the state even while published snapshots live
/// on. The slot is opaque here: an evaluation [takes](Self::take) the state
/// out, works on it without holding any lock, and [puts](Self::put) it back,
/// so two concurrent evaluations never share one state — the second simply
/// finds the slot empty and starts fresh.
#[derive(Clone, Debug, Default)]
pub struct Lineage {
    slot: Arc<LineageSlot>,
}

impl Lineage {
    /// A lineage with nothing retained.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes the retained state out, leaving the slot empty. `None` if the
    /// slot is empty or holds state of another type (which stays put).
    pub fn take<T: Any + Send>(&self) -> Option<Box<T>> {
        let mut slot = self.lock();
        match slot.take()?.downcast::<T>() {
            Ok(state) => Some(state),
            Err(other) => {
                *slot = Some(other);
                None
            }
        }
    }

    /// Stores `state` as the retained state, replacing any other.
    pub fn put<T: Any + Send>(&self, state: Box<T>) {
        *self.lock() = Some(state);
    }

    /// `true` if some state is retained.
    pub fn is_retaining(&self) -> bool {
        self.lock().is_some()
    }

    fn lock(&self) -> MutexGuard<'_, Option<Box<dyn Any + Send>>> {
        self.slot
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// An immutable, cheaply clonable graph snapshot with its derived statistics
/// computed once.
#[derive(Clone, Debug)]
pub struct PreparedGraph {
    csr: Arc<CsrGraph>,
    max_degree: usize,
    spanning_forest_size: usize,
    fingerprint: u128,
    /// Weak link to the lineage this snapshot belongs to, if any.
    lineage: Option<Weak<LineageSlot>>,
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
            lineage: None,
        }
    }

    /// Links this snapshot to `lineage` by a weak reference: the snapshot
    /// never keeps the lineage's state alive.
    pub fn with_lineage(mut self, lineage: &Lineage) -> Self {
        self.lineage = Some(Arc::downgrade(&lineage.slot));
        self
    }

    /// The lineage this snapshot belongs to, while its owner is alive.
    pub fn lineage(&self) -> Option<Lineage> {
        let slot = self.lineage.as_ref()?.upgrade()?;
        Some(Lineage { slot })
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

    #[test]
    fn snapshots_link_to_their_lineage_only_weakly() {
        assert!(PreparedGraph::from(generators::path(3)).lineage().is_none());
        let lineage = Lineage::new();
        let snap = PreparedGraph::from(generators::path(3)).with_lineage(&lineage);
        snap.lineage().expect("owner alive").put(Box::new(7u32));
        assert!(lineage.is_retaining());
        // A take of another type leaves the state in place.
        assert!(lineage.take::<u64>().is_none());
        assert_eq!(snap.lineage().unwrap().take::<u32>().as_deref(), Some(&7));
        assert!(!lineage.is_retaining());
        lineage.put(Box::new(8u32));
        drop(lineage);
        assert!(
            snap.lineage().is_none(),
            "dropping the owner frees the state"
        );
    }
}
