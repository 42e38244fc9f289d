//! The sharded, lock-striped, version-aware graph catalog behind a serving
//! fleet.
//!
//! A serving tier answers releases over a *catalog* of graphs, so the graphs
//! live in one shared [`GraphRegistry`] rather than being owned by any single
//! estimator. The registry is striped across shards, each guarded by its own
//! `RwLock`, so concurrent lookups of different graphs never contend on one
//! lock. Graphs are stored and handed out as [`PreparedGraph`] snapshots:
//! the CSR arena, fingerprint and spanning-forest size are computed once, on
//! publish and *before* the shard lock is taken, and every request shares
//! them with the registry (a resolve is one `Arc` bump).
//!
//! Each catalog id holds a *history* of immutable snapshot versions (see
//! [`GraphVersion`]): a streaming layer publishes new versions as the graph
//! mutates, requests resolve either a pinned `(id, version)` pair or the
//! latest pointer, and stale versions can be expired without disturbing the
//! frontier. Publishing the same `(id, version)` twice is a typed
//! [`ServeError::VersionExists`] refusal — snapshots are immutable, so
//! re-publishing could only mean two different graphs claiming one identity.
//!
//! The latest version of an id is always stored as its prepared snapshot.
//! A publisher whose versions are successive edits of one graph (a stream)
//! can ask for the version below the latest to be
//! [compacted](GraphRegistry::compact_previous): it is then kept as the
//! [`EdgeDelta`] that restores it from the next newer version, so a retained
//! history costs O(edits) per older version instead of a full arena.
//! Resolving a compacted version rebuilds and prepares it again (O(n + m));
//! it equals the published snapshot but is a new handle, not the same one.

use crate::error::ServeError;
use ccdp_graph::{io, EdgeDelta, GraphVersion, PreparedGraph};
use ccdp_obs::{AuditEvent, AuditJournal, AuditKind};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

pub use crate::ids::GraphId;

/// Default number of lock stripes.
pub const DEFAULT_SHARDS: usize = 16;

/// Default number of snapshot versions retained per graph id. Publishing
/// beyond it silently expires the oldest versions, so an update-style caller
/// that republishes one id forever holds bounded memory; pass `0` to
/// [`GraphRegistry::with_retention`] for unlimited histories.
pub const DEFAULT_VERSION_RETENTION: usize = 8;

/// The version history of one catalog id. The `BTreeMap` keeps versions
/// ordered, so the latest pointer is the last key and range expiry is a
/// split. The latest version is always [`Stored::Prepared`].
type History = BTreeMap<GraphVersion, Stored>;

/// One retained version.
#[derive(Debug)]
enum Stored {
    /// The snapshot as published.
    Prepared(PreparedGraph),
    /// The edges that turn version `newer`'s arena into this version's.
    Delta {
        newer: GraphVersion,
        delta: EdgeDelta,
    },
}

impl Stored {
    fn prepared(&self) -> &PreparedGraph {
        match self {
            Stored::Prepared(g) => g,
            Stored::Delta { .. } => unreachable!("the latest version is always prepared"),
        }
    }
}

/// A version is compacted only when its delta has at most `(n + m) / 8`
/// edges, i.e. costs well under a tenth of its arena.
const COMPACT_DIVISOR: usize = 8;

/// The snapshot of `version`, rebuilt from the next prepared version along
/// its delta chain if it is compacted.
fn materialize(history: &History, version: GraphVersion) -> Option<PreparedGraph> {
    let mut deltas = Vec::new();
    let mut at = version;
    let base = loop {
        match history.get(&at)? {
            Stored::Prepared(g) => break g,
            Stored::Delta { newer, delta } => {
                deltas.push(delta);
                at = *newer;
            }
        }
    };
    let Some((first, rest)) = deltas.split_last() else {
        return Some(base.clone());
    };
    let csr = rest
        .iter()
        .rev()
        .fold(base.csr().patched(first), |csr, delta| csr.patched(delta));
    Some(PreparedGraph::new(csr))
}

/// Removes `version` from `history`, first storing any version compacted
/// against it as a prepared snapshot again.
fn remove_stored(history: &mut History, version: GraphVersion) -> Option<PreparedGraph> {
    let dependents: Vec<GraphVersion> = history
        .iter()
        .filter(|(_, s)| matches!(s, Stored::Delta { newer, .. } if *newer == version))
        .map(|(&v, _)| v)
        .collect();
    for v in dependents {
        let restored = materialize(history, v).expect("a dependent's chain is intact");
        history.insert(v, Stored::Prepared(restored));
    }
    let removed = materialize(history, version);
    history.remove(&version);
    removed
}

type Shard = HashMap<GraphId, History>;

/// A sharded map from [`GraphId`] to a version history of [`PreparedGraph`]
/// snapshots.
#[derive(Debug)]
pub struct GraphRegistry {
    shards: Vec<RwLock<Shard>>,
    /// Per-id history bound enforced on publish (0 = unlimited).
    retention: usize,
    /// Audit journal for `release_published` events (attached by the
    /// serving tier; `None` for a standalone catalog).
    journal: RwLock<Option<Arc<AuditJournal>>>,
}

impl GraphRegistry {
    /// A registry with the default number of shards and version retention.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// A registry striped across `shards` locks (≥ 1), with the default
    /// version retention.
    pub fn with_shards(shards: usize) -> Self {
        Self::with_retention(shards, DEFAULT_VERSION_RETENTION)
    }

    /// A registry keeping at most `retention` snapshot versions per id
    /// (0 = unlimited): publishing past the bound expires the oldest
    /// versions, never the newly published frontier.
    pub fn with_retention(shards: usize, retention: usize) -> Self {
        GraphRegistry {
            shards: (0..shards.max(1))
                .map(|_| RwLock::new(Shard::new()))
                .collect(),
            retention,
            journal: RwLock::new(None),
        }
    }

    /// Attaches the audit journal every publish decision is recorded into
    /// (the serving tier attaches its shared journal at
    /// [`Server::start`](crate::Server::start)).
    pub fn set_journal(&self, journal: Arc<AuditJournal>) {
        *self
            .journal
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner()) = Some(journal);
    }

    /// Records one `release_published` event, if a journal is attached.
    fn audit_publish(&self, id: &GraphId, version: GraphVersion, detail: &str) {
        let guard = self
            .journal
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(journal) = guard.as_ref() {
            journal.record(
                AuditEvent::new(AuditKind::ReleasePublished)
                    .graph(id.as_str(), Some(version.value()))
                    .detail(detail),
            );
        }
    }

    /// The per-id version retention bound (0 = unlimited).
    pub fn retention(&self) -> usize {
        self.retention
    }

    /// Number of lock stripes.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, id: &GraphId) -> usize {
        let mut h = DefaultHasher::new();
        id.hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }

    fn read(&self, id: &GraphId) -> RwLockReadGuard<'_, Shard> {
        self.shards[self.shard_of(id)]
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn write(&self, id: &GraphId) -> RwLockWriteGuard<'_, Shard> {
        self.shards[self.shard_of(id)]
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Publishes `graph` under `id` as the next version after the current
    /// latest ([`GraphVersion::INITIAL`] for a fresh id), returning the
    /// previously latest snapshot if this superseded one. `graph` is a
    /// [`PreparedGraph`] (published as is) or anything that prepares into
    /// one, such as a `Graph` or an `Arc<Graph>`; preparation runs before the
    /// shard lock is taken.
    ///
    /// Prior versions are retained up to the registry's
    /// [`retention`](GraphRegistry::retention) bound — republishing one id
    /// forever holds bounded memory (see also
    /// [`GraphRegistry::evict_versions_below`] and
    /// [`GraphRegistry::retain_latest`] for explicit expiry).
    pub fn insert(
        &self,
        id: impl Into<GraphId>,
        graph: impl Into<PreparedGraph>,
    ) -> Option<PreparedGraph> {
        let id = id.into();
        let graph = graph.into();
        let mut shard = self.write(&id);
        let history = shard.entry(id.clone()).or_default();
        let version = next_version(history);
        let previous = history.last_key_value().map(|(_, g)| g.prepared().clone());
        history.insert(version, Stored::Prepared(graph));
        enforce_retention(history, self.retention);
        drop(shard);
        self.audit_publish(&id, version, "published as next version");
        previous
    }

    /// Publishes `graph` under the exact `(id, version)` pair. Like
    /// [`insert`](Self::insert) it takes a [`PreparedGraph`] — published
    /// without copying — or anything that prepares into one, and prepares
    /// before taking the shard lock.
    ///
    /// # Errors
    /// [`ServeError::VersionExists`] if that snapshot is already published
    /// (snapshots are immutable; nothing is overwritten), and
    /// [`ServeError::VersionExpired`] if the version is a backfill older
    /// than the retention window can hold — accepting it would expire it on
    /// the spot, so `Ok` always means the snapshot is actually resolvable.
    pub fn insert_version(
        &self,
        id: impl Into<GraphId>,
        version: GraphVersion,
        graph: impl Into<PreparedGraph>,
    ) -> Result<PreparedGraph, ServeError> {
        let id = id.into();
        let graph = graph.into();
        let mut shard = self.write(&id);
        let history = shard.entry(id.clone()).or_default();
        if history.contains_key(&version) {
            return Err(ServeError::VersionExists { graph: id, version });
        }
        if self.retention > 0 && history.len() >= self.retention {
            if let Some((&oldest, _)) = history.first_key_value() {
                if version < oldest {
                    return Err(ServeError::VersionExpired {
                        graph: id,
                        version,
                        oldest_retained: oldest,
                    });
                }
            }
        }
        history.insert(version, Stored::Prepared(graph.clone()));
        enforce_retention(history, self.retention);
        drop(shard);
        self.audit_publish(&id, version, "published at explicit version");
        Ok(graph)
    }

    /// Parses `text` as a plain-text edge list (see [`ccdp_graph::io`])
    /// straight into the arena it prepares, and publishes the graph under
    /// `id` at [`GraphVersion::INITIAL`].
    ///
    /// # Errors
    /// [`ServeError::Ingest`] on a malformed edge list, and
    /// [`ServeError::VersionExists`] when `id` already holds an initial
    /// snapshot — re-ingesting an existing id is a typed refusal, never a
    /// silent overwrite.
    pub fn ingest_edge_list(
        &self,
        id: impl Into<GraphId>,
        text: &str,
    ) -> Result<PreparedGraph, ServeError> {
        self.ingest_edge_list_version(id, GraphVersion::INITIAL, text)
    }

    /// [`ingest_edge_list`](Self::ingest_edge_list) at an explicit version.
    pub fn ingest_edge_list_version(
        &self,
        id: impl Into<GraphId>,
        version: GraphVersion,
        text: &str,
    ) -> Result<PreparedGraph, ServeError> {
        let arena = io::from_edge_list_csr(text)?;
        self.insert_version(id, version, arena)
    }

    /// The latest snapshot stored under `id`, if any.
    pub fn get(&self, id: &GraphId) -> Option<PreparedGraph> {
        self.read(id)
            .get(id)
            .and_then(|h| h.last_key_value())
            .map(|(_, g)| g.prepared().clone())
    }

    /// The snapshot stored under `(id, version)`, if any (rebuilt if
    /// compacted).
    pub fn get_version(&self, id: &GraphId, version: GraphVersion) -> Option<PreparedGraph> {
        materialize(self.read(id).get(id)?, version)
    }

    /// The latest published version of `id`, if any.
    pub fn latest_version(&self, id: &GraphId) -> Option<GraphVersion> {
        self.read(id)
            .get(id)
            .and_then(|h| h.last_key_value())
            .map(|(&v, _)| v)
    }

    /// All published versions of `id`, ascending.
    pub fn versions(&self, id: &GraphId) -> Vec<GraphVersion> {
        self.read(id)
            .get(id)
            .map(|h| h.keys().copied().collect())
            .unwrap_or_default()
    }

    /// Resolves the latest snapshot of `id` or reports the typed refusal a
    /// request would get.
    pub fn resolve(&self, id: &GraphId) -> Result<PreparedGraph, ServeError> {
        Ok(self.resolve_latest(id)?.1)
    }

    /// Resolves the latest snapshot of `id` together with its version.
    pub fn resolve_latest(
        &self,
        id: &GraphId,
    ) -> Result<(GraphVersion, PreparedGraph), ServeError> {
        self.read(id)
            .get(id)
            .and_then(|h| h.last_key_value())
            .map(|(&v, g)| (v, g.prepared().clone()))
            .ok_or_else(|| ServeError::UnknownGraph { graph: id.clone() })
    }

    /// Resolves the exact `(id, version)` snapshot, distinguishing an unknown
    /// id ([`ServeError::UnknownGraph`]) from a known id whose requested
    /// version is unpublished or expired ([`ServeError::UnknownVersion`]).
    /// A compacted version is rebuilt and prepared on each call.
    pub fn resolve_version(
        &self,
        id: &GraphId,
        version: GraphVersion,
    ) -> Result<PreparedGraph, ServeError> {
        let shard = self.read(id);
        let history = shard
            .get(id)
            .ok_or_else(|| ServeError::UnknownGraph { graph: id.clone() })?;
        materialize(history, version).ok_or_else(|| ServeError::UnknownVersion {
            graph: id.clone(),
            version,
        })
    }

    /// Expires every snapshot of `id` with a version strictly below
    /// `version`, returning how many were evicted. The latest snapshot is
    /// always kept, even if it falls below the cutoff — expiry prunes
    /// history, it never unpublishes a graph.
    pub fn evict_versions_below(&self, id: &GraphId, version: GraphVersion) -> usize {
        let mut shard = self.write(id);
        let Some(history) = shard.get_mut(id) else {
            return 0;
        };
        let Some((&latest, _)) = history.last_key_value() else {
            return 0;
        };
        let cutoff = version.min(latest);
        let kept = history.split_off(&cutoff);
        let evicted = history.len();
        *history = kept;
        evicted
    }

    /// Keeps only the `keep` most recent snapshots of `id` (≥ 1), returning
    /// how many older ones were evicted.
    pub fn retain_latest(&self, id: &GraphId, keep: usize) -> usize {
        let keep = keep.max(1);
        let mut shard = self.write(id);
        let Some(history) = shard.get_mut(id) else {
            return 0;
        };
        if history.len() <= keep {
            return 0;
        }
        let cutoff = *history.keys().nth_back(keep - 1).expect("len > keep");
        let kept = history.split_off(&cutoff);
        let evicted = history.len();
        *history = kept;
        evicted
    }

    /// Removes and returns exactly one published snapshot, dropping the id
    /// entirely when its history empties.
    ///
    /// Snapshots are normally immutable once published; this exists for the
    /// one caller with a legitimate claim — a publisher rolling back a
    /// version *it just published* that was never served (e.g. the release
    /// scheduler unwinding a publish after queue backpressure refused the
    /// estimate). Concurrent readers that already resolved the snapshot keep
    /// their handle — removal unlists, it never invalidates.
    pub fn remove_version(&self, id: &GraphId, version: GraphVersion) -> Option<PreparedGraph> {
        let mut shard = self.write(id);
        let history = shard.get_mut(id)?;
        let removed = remove_stored(history, version);
        if history.is_empty() {
            shard.remove(id);
        }
        removed
    }

    /// Removes and returns the latest snapshot stored under `id`, dropping
    /// the whole version history.
    pub fn remove(&self, id: &GraphId) -> Option<PreparedGraph> {
        self.write(id)
            .remove(id)
            .and_then(|h| h.into_values().next_back())
            .map(|g| g.prepared().clone())
    }

    /// Stores the version just below the latest of `id` as the
    /// [`EdgeDelta`] that restores it from the latest, if that delta has at
    /// most `(n + m) / 8` edges; returns whether it did. Meant for a
    /// publisher whose versions are successive edits of one graph: after
    /// each publish, the superseded version then costs O(edits) for as long
    /// as it is retained. Handles to it that were already resolved stay
    /// valid; the registry just stops holding its arena.
    pub fn compact_previous(&self, id: &GraphId) -> bool {
        let mut shard = self.write(id);
        let Some(history) = shard.get_mut(id) else {
            return false;
        };
        let mut newest_first = history.iter_mut().rev();
        let (Some((&latest, newer)), Some((_, older))) = (newest_first.next(), newest_first.next())
        else {
            return false;
        };
        let Stored::Prepared(old) = older else {
            return false;
        };
        let delta = newer.prepared().csr().diff(old.csr());
        if delta.len() > (old.num_vertices() + old.num_edges()) / COMPACT_DIVISOR {
            return false;
        }
        *older = Stored::Delta {
            newer: latest,
            delta,
        };
        true
    }

    /// Number of catalog ids across all shards (not versions; see
    /// [`GraphRegistry::num_versions`]).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap_or_else(|p| p.into_inner()).len())
            .sum()
    }

    /// Total number of stored snapshots across all ids and versions.
    pub fn num_versions(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .unwrap_or_else(|p| p.into_inner())
                    .values()
                    .map(BTreeMap::len)
                    .sum::<usize>()
            })
            .sum()
    }

    /// Whether the registry holds no graphs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All graph ids, sorted (stable across shard layouts).
    pub fn ids(&self) -> Vec<GraphId> {
        let mut ids: Vec<GraphId> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.read()
                    .unwrap_or_else(|p| p.into_inner())
                    .keys()
                    .cloned()
                    .collect::<Vec<_>>()
            })
            .collect();
        ids.sort();
        ids
    }
}

/// The version `insert` publishes next: one past the latest, or the initial
/// version for a fresh history.
fn next_version(history: &History) -> GraphVersion {
    history
        .last_key_value()
        .map(|(&v, _)| v.next())
        .unwrap_or(GraphVersion::INITIAL)
}

/// Expires the oldest versions beyond the registry's retention bound
/// (0 = unlimited). Called on every publish, so histories can exceed the
/// bound only between a publish and this sweep — never observably.
fn enforce_retention(history: &mut History, retention: usize) {
    if retention == 0 {
        return;
    }
    while history.len() > retention {
        let oldest = *history.keys().next().expect("len > retention > 0");
        history.remove(&oldest);
    }
}

impl Default for GraphRegistry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdp_graph::generators;

    #[test]
    fn insert_get_remove_round_trip() {
        let reg = GraphRegistry::new();
        assert!(reg.is_empty());
        let g = generators::path(5);
        assert!(reg.insert("p5", g.clone()).is_none());
        assert_eq!(reg.len(), 1);
        let got = reg.get(&GraphId::new("p5")).unwrap();
        assert!(got.csr().matches_graph(&g));
        // Superseding returns the previously latest snapshot.
        let old = reg.insert("p5", generators::star(3)).unwrap();
        assert!(old.same_snapshot(&got));
        assert_eq!(reg.len(), 1);
        assert!(reg.remove(&GraphId::new("p5")).is_some());
        assert!(reg.is_empty());
    }

    #[test]
    fn prepared_snapshots_publish_and_resolve_without_rebuilding() {
        let reg = GraphRegistry::new();
        let id = GraphId::new("g");
        let snapshot = PreparedGraph::from(generators::caveman(3, 4));
        let published = reg
            .insert_version(id.clone(), GraphVersion::new(3), snapshot.clone())
            .unwrap();
        assert!(published.same_snapshot(&snapshot));
        let (version, resolved) = reg.resolve_latest(&id).unwrap();
        assert_eq!(version, GraphVersion::new(3));
        assert!(resolved.same_snapshot(&snapshot));
        assert!(reg
            .resolve_version(&id, GraphVersion::new(3))
            .unwrap()
            .same_snapshot(&snapshot));
    }

    #[test]
    fn insert_advances_the_version_history() {
        let reg = GraphRegistry::new();
        let id = GraphId::new("g");
        reg.insert(id.clone(), generators::path(2));
        reg.insert(id.clone(), generators::path(3));
        reg.insert(id.clone(), generators::path(4));
        assert_eq!(reg.latest_version(&id), Some(GraphVersion::new(2)));
        assert_eq!(
            reg.versions(&id),
            vec![
                GraphVersion::INITIAL,
                GraphVersion::new(1),
                GraphVersion::new(2)
            ]
        );
        assert_eq!(reg.num_versions(), 3);
        assert_eq!(reg.len(), 1);
        // Pinned resolution sees every retained version.
        assert_eq!(
            reg.get_version(&id, GraphVersion::INITIAL)
                .unwrap()
                .num_vertices(),
            2
        );
        assert_eq!(reg.resolve(&id).unwrap().num_vertices(), 4);
        let (v, g) = reg.resolve_latest(&id).unwrap();
        assert_eq!(v, GraphVersion::new(2));
        assert_eq!(g.num_vertices(), 4);
    }

    #[test]
    fn insert_version_refuses_republishing() {
        let reg = GraphRegistry::new();
        let id = GraphId::new("g");
        reg.insert_version(id.clone(), GraphVersion::new(5), generators::path(3))
            .unwrap();
        let err = reg
            .insert_version(id.clone(), GraphVersion::new(5), generators::star(4))
            .unwrap_err();
        assert_eq!(
            err,
            ServeError::VersionExists {
                graph: id.clone(),
                version: GraphVersion::new(5)
            }
        );
        // The original snapshot survived the refused re-publish.
        assert_eq!(
            reg.get_version(&id, GraphVersion::new(5))
                .unwrap()
                .num_vertices(),
            3
        );
    }

    #[test]
    fn resolve_reports_typed_unknown_graph_and_version() {
        let reg = GraphRegistry::new();
        let err = reg.resolve(&GraphId::new("missing")).unwrap_err();
        assert_eq!(
            err,
            ServeError::UnknownGraph {
                graph: GraphId::new("missing")
            }
        );
        // Unknown id vs known id at an unpublished version are distinct
        // refusals.
        let id = GraphId::new("g");
        reg.insert(id.clone(), generators::path(3));
        let err = reg
            .resolve_version(&GraphId::new("missing"), GraphVersion::INITIAL)
            .unwrap_err();
        assert!(matches!(err, ServeError::UnknownGraph { .. }));
        let err = reg.resolve_version(&id, GraphVersion::new(9)).unwrap_err();
        assert_eq!(
            err,
            ServeError::UnknownVersion {
                graph: id,
                version: GraphVersion::new(9)
            }
        );
    }

    #[test]
    fn ingestion_parses_edge_lists_and_rejects_garbage() {
        let reg = GraphRegistry::new();
        let g = reg
            .ingest_edge_list("tri", "# 3 3\n0 1\n1 2\n0 2\n")
            .unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert!(reg.get(&GraphId::new("tri")).is_some());
        let err = reg.ingest_edge_list("bad", "0 1\nnope\n").unwrap_err();
        assert!(matches!(err, ServeError::Ingest(_)));
        assert!(reg.get(&GraphId::new("bad")).is_none());
    }

    #[test]
    fn reingesting_an_existing_id_is_a_typed_refusal_not_an_overwrite() {
        // Regression: this used to silently overwrite the stored graph.
        let reg = GraphRegistry::new();
        reg.ingest_edge_list("g", "# 3 2\n0 1\n1 2\n").unwrap();
        let err = reg.ingest_edge_list("g", "# 2 1\n0 1\n").unwrap_err();
        assert_eq!(
            err,
            ServeError::VersionExists {
                graph: GraphId::new("g"),
                version: GraphVersion::INITIAL
            }
        );
        // The original graph is untouched.
        assert_eq!(reg.get(&GraphId::new("g")).unwrap().num_vertices(), 3);
        assert_eq!(reg.num_versions(), 1);
        // Publishing the same id at a *new* version is fine.
        reg.ingest_edge_list_version("g", GraphVersion::new(1), "# 2 1\n0 1\n")
            .unwrap();
        assert_eq!(reg.get(&GraphId::new("g")).unwrap().num_vertices(), 2);
    }

    #[test]
    fn stale_versions_can_be_expired_without_unpublishing() {
        let reg = GraphRegistry::new();
        let id = GraphId::new("g");
        for n in 2..7 {
            reg.insert(id.clone(), generators::path(n));
        }
        assert_eq!(reg.num_versions(), 5);
        // Expire everything below v3.
        assert_eq!(reg.evict_versions_below(&id, GraphVersion::new(3)), 3);
        assert_eq!(
            reg.versions(&id),
            vec![GraphVersion::new(3), GraphVersion::new(4)]
        );
        // An expired version is a typed UnknownVersion, the frontier remains.
        assert!(matches!(
            reg.resolve_version(&id, GraphVersion::INITIAL),
            Err(ServeError::UnknownVersion { .. })
        ));
        assert!(reg.resolve(&id).is_ok());
        // A cutoff past the latest still keeps the latest snapshot.
        assert_eq!(reg.evict_versions_below(&id, GraphVersion::new(100)), 1);
        assert_eq!(reg.versions(&id), vec![GraphVersion::new(4)]);
        assert_eq!(reg.latest_version(&id), Some(GraphVersion::new(4)));
    }

    /// Six versions of one evolving graph: a few edits apart, with growth.
    fn edited_versions() -> Vec<PreparedGraph> {
        let mut g = generators::caveman(6, 5);
        let mut out = vec![PreparedGraph::from(&g)];
        for step in 0..5 {
            g.add_edge(step, 29 - step);
            g.remove_edge(5 * step + 1, 5 * step + 2);
            if step % 2 == 0 {
                let v = g.add_vertex();
                g.add_edge(v, step);
            }
            out.push(PreparedGraph::from(&g));
        }
        out
    }

    fn assert_same_graph(got: &PreparedGraph, want: &PreparedGraph) {
        assert_eq!(got.csr(), want.csr());
        assert_eq!(got.fingerprint(), want.fingerprint());
        assert_eq!(got.spanning_forest_size(), want.spanning_forest_size());
    }

    #[test]
    fn compacted_versions_resolve_to_their_published_arenas() {
        let reg = GraphRegistry::new();
        let id = GraphId::new("evolving");
        let versions = edited_versions();
        for (v, g) in versions.iter().enumerate() {
            reg.insert_version(id.clone(), GraphVersion::new(v as u64), g.clone())
                .unwrap();
            assert_eq!(reg.compact_previous(&id), v > 0, "version {v}");
            // Already compacted: nothing more to do.
            assert!(!reg.compact_previous(&id));
        }
        let latest = GraphVersion::new(5);
        assert!(reg.get(&id).unwrap().same_snapshot(&versions[5]));
        for (v, g) in versions.iter().enumerate() {
            let version = GraphVersion::new(v as u64);
            assert_same_graph(&reg.resolve_version(&id, version).unwrap(), g);
            assert_same_graph(&reg.get_version(&id, version).unwrap(), g);
        }
        // Unpublishing the latest restores the version compacted against it.
        assert_same_graph(&reg.remove_version(&id, latest).unwrap(), &versions[5]);
        assert_same_graph(&reg.get(&id).unwrap(), &versions[4]);
        // Removing a middle version keeps the older chain resolvable.
        assert_same_graph(
            &reg.remove_version(&id, GraphVersion::new(2)).unwrap(),
            &versions[2],
        );
        for v in [0, 1, 3, 4] {
            assert_same_graph(
                &reg.resolve_version(&id, GraphVersion::new(v)).unwrap(),
                &versions[v as usize],
            );
        }
        assert_eq!(reg.retain_latest(&id, 2), 2);
        assert_same_graph(
            &reg.resolve_version(&id, GraphVersion::new(3)).unwrap(),
            &versions[3],
        );
        assert!(reg.resolve_version(&id, GraphVersion::new(1)).is_err());
    }

    #[test]
    fn unrelated_versions_are_not_compacted() {
        let reg = GraphRegistry::new();
        let id = GraphId::new("g");
        reg.insert(id.clone(), generators::caveman(6, 5));
        assert!(!reg.compact_previous(&id), "a single version");
        reg.insert(id.clone(), generators::star(30));
        assert!(!reg.compact_previous(&id), "the delta is most of the graph");
        assert!(!reg.compact_previous(&GraphId::new("missing")));
    }

    #[test]
    fn retain_latest_bounds_history_depth() {
        let reg = GraphRegistry::new();
        let id = GraphId::new("g");
        for n in 2..10 {
            reg.insert(id.clone(), generators::path(n));
        }
        assert_eq!(reg.retain_latest(&id, 3), 5);
        assert_eq!(
            reg.versions(&id),
            vec![
                GraphVersion::new(5),
                GraphVersion::new(6),
                GraphVersion::new(7)
            ]
        );
        // Already within bound: nothing to do. keep=0 clamps to 1.
        assert_eq!(reg.retain_latest(&id, 3), 0);
        assert_eq!(reg.retain_latest(&id, 0), 2);
        assert_eq!(reg.versions(&id), vec![GraphVersion::new(7)]);
        // Version numbering continues after expiry — versions never recycle.
        reg.insert(id.clone(), generators::path(20));
        assert_eq!(reg.latest_version(&id), Some(GraphVersion::new(8)));
    }

    #[test]
    fn ids_are_sorted_and_cover_all_shards() {
        let reg = GraphRegistry::with_shards(4);
        for i in 0..20 {
            reg.insert(format!("g{i:02}"), generators::path(3));
        }
        let ids = reg.ids();
        assert_eq!(ids.len(), 20);
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted);
        assert_eq!(reg.len(), 20);
    }

    #[test]
    fn shard_striping_distributes_graphs() {
        let reg = GraphRegistry::with_shards(8);
        for i in 0..64 {
            reg.insert(format!("graph-{i}"), generators::path(2));
        }
        // Not a distribution test, just that striping is actually in use: no
        // single shard holds everything.
        let max_shard = reg
            .shards
            .iter()
            .map(|s| s.read().unwrap().len())
            .max()
            .unwrap();
        assert!(max_shard < 64);
    }

    #[test]
    fn concurrent_readers_and_writers_do_not_lose_graphs() {
        let reg = Arc::new(GraphRegistry::new());
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    for i in 0..25 {
                        reg.insert(format!("t{t}-g{i}"), generators::star(3));
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(reg.len(), 100);
    }

    #[test]
    fn default_retention_bounds_update_style_callers() {
        // Republishing one id forever must hold bounded memory: the history
        // stays at the retention bound, always keeping the frontier.
        let reg = GraphRegistry::new();
        let id = GraphId::new("refreshed");
        for n in 2..42 {
            reg.insert(id.clone(), generators::path(n));
        }
        assert_eq!(reg.num_versions(), DEFAULT_VERSION_RETENTION);
        assert_eq!(reg.latest_version(&id), Some(GraphVersion::new(39)));
        assert_eq!(reg.resolve(&id).unwrap().num_vertices(), 41);
        // Retention 0 = unlimited.
        let reg = GraphRegistry::with_retention(4, 0);
        for n in 2..42 {
            reg.insert(id.clone(), generators::path(n));
        }
        assert_eq!(reg.num_versions(), 40);
    }

    #[test]
    fn backfills_behind_the_retention_window_are_refused_not_dropped() {
        // Regression: insert_version used to return Ok while enforce_retention
        // immediately expired the just-inserted backfill.
        let reg = GraphRegistry::with_retention(4, 3);
        let id = GraphId::new("g");
        for v in 1..=3u64 {
            reg.insert_version(id.clone(), GraphVersion::new(v), generators::path(3))
                .unwrap();
        }
        let err = reg
            .insert_version(id.clone(), GraphVersion::new(0), generators::path(3))
            .unwrap_err();
        assert_eq!(
            err,
            ServeError::VersionExpired {
                graph: id.clone(),
                version: GraphVersion::new(0),
                oldest_retained: GraphVersion::new(1),
            }
        );
        assert_eq!(reg.num_versions(), 3);
        // A backfill that fits inside the window (above the current oldest)
        // is accepted and resolvable; the oldest is expired to make room.
        for v in [10u64, 11] {
            reg.insert_version(id.clone(), GraphVersion::new(v), generators::path(3))
                .unwrap();
        }
        let ok = reg.insert_version(id.clone(), GraphVersion::new(9), generators::path(3));
        assert!(ok.is_ok());
        assert!(reg.get_version(&id, GraphVersion::new(9)).is_some());
        assert_eq!(reg.num_versions(), 3);
    }

    #[test]
    fn publishes_land_in_an_attached_audit_journal() {
        let reg = GraphRegistry::new();
        let journal = Arc::new(AuditJournal::new());
        reg.set_journal(Arc::clone(&journal));
        reg.insert("g", generators::path(3));
        reg.insert_version("g", GraphVersion::new(7), generators::path(4))
            .unwrap();
        // A refused re-publish emits nothing: the journal records decisions
        // that changed the catalog, not attempts.
        assert!(reg
            .insert_version("g", GraphVersion::new(7), generators::path(4))
            .is_err());
        let events = journal.snapshot();
        assert_eq!(events.len(), 2, "{events:?}");
        assert!(events
            .iter()
            .all(|e| e.kind == AuditKind::ReleasePublished && e.graph == "g"));
        assert_eq!(events[0].version, Some(0));
        assert_eq!(events[1].version, Some(7));
    }

    #[test]
    fn concurrent_version_publishers_never_collide() {
        // Four writers each publish 25 versions of ONE graph via `insert`;
        // the histories must interleave without ever losing a snapshot.
        let reg = Arc::new(GraphRegistry::with_retention(DEFAULT_SHARDS, 0));
        let writers: Vec<_> = (0..4)
            .map(|_| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    for _ in 0..25 {
                        reg.insert("shared", generators::path(3));
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(reg.num_versions(), 100);
        assert_eq!(
            reg.latest_version(&GraphId::new("shared")),
            Some(GraphVersion::new(99))
        );
    }
}
