//! Property: a registry history whose older versions are compacted into
//! edge deltas resolves every retained version to exactly the arena that
//! was published under it, whatever sequence of publishes, compactions,
//! removals (of the latest, the oldest or one in between) and retention
//! sweeps came before.

use ccdp_graph::{CsrGraph, Graph, GraphVersion, PreparedGraph};
use ccdp_serve::{GraphId, GraphRegistry};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One registry operation: `(kind, edits, pick)`. Kind 0–1 publishes the
/// graph after `edits` (inserts, deletes and vertex growth), 2 compacts the
/// version below the latest, 3 removes the retained version `pick` points
/// at, 4 keeps only the `pick % 3 + 1` newest versions.
fn op() -> impl Strategy<Value = (u8, Vec<(usize, usize, bool)>, usize)> {
    (
        0u8..5,
        vec((0usize..24, 0usize..24, any::<bool>()), 0..6),
        0usize..8,
    )
}

fn apply_edits(g: &mut Graph, edits: &[(usize, usize, bool)]) {
    for &(u, v, insert) in edits {
        if u == v {
            continue;
        }
        while g.num_vertices() <= u.max(v) {
            g.add_vertex();
        }
        if insert {
            g.add_edge(u, v);
        } else {
            g.remove_edge(u, v);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn compacted_histories_resolve_every_retained_version_exactly(
        ops in vec(op(), 1..40),
    ) {
        // A per-id bound of 6 also exercises expiry on publish.
        let reg = GraphRegistry::with_retention(2, 6);
        let id = GraphId::new("evolving");
        let mut g = Graph::new(8);
        let mut model: BTreeMap<u64, CsrGraph> = BTreeMap::new();
        for (kind, edits, pick) in &ops {
            match kind {
                0 | 1 => {
                    apply_edits(&mut g, edits);
                    reg.insert(id.clone(), PreparedGraph::from(&g));
                    let version = model.keys().next_back().map_or(0, |v| v + 1);
                    model.insert(version, CsrGraph::from_graph(&g));
                    while model.len() > 6 {
                        model.pop_first();
                    }
                }
                2 => {
                    reg.compact_previous(&id);
                }
                3 => {
                    let Some(&version) = model.keys().nth(pick % model.len().max(1)) else {
                        continue;
                    };
                    let removed = reg.remove_version(&id, GraphVersion::new(version));
                    let want = model.remove(&version).unwrap();
                    prop_assert_eq!(removed.map(|r| r.csr().clone()), Some(want));
                }
                _ => {
                    let keep = pick % 3 + 1;
                    reg.retain_latest(&id, keep);
                    while model.len() > keep {
                        model.pop_first();
                    }
                }
            }
            let versions: Vec<u64> = reg.versions(&id).iter().map(|v| v.value()).collect();
            prop_assert_eq!(&versions, &model.keys().copied().collect::<Vec<_>>());
            for (&version, want) in &model {
                let got = reg.resolve_version(&id, GraphVersion::new(version)).unwrap();
                prop_assert_eq!(got.csr(), want, "version {}", version);
                prop_assert_eq!(got.fingerprint(), want.fingerprint());
            }
            if let Some((_, latest)) = model.last_key_value() {
                let got = reg.get(&id).unwrap();
                prop_assert_eq!(got.csr(), latest);
            }
        }
    }
}
