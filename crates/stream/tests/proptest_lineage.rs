//! Property: a stream's releases reuse the component class table of the
//! snapshot before, and that reuse never changes a family value. Each
//! release's family must equal, bit for bit and path for path, a fresh
//! evaluation of the same snapshot with no prior table — across merges,
//! splits, vertex growth, a Δmax change and a micro on/off switch between
//! releases, LP counters included. Also pinned
//! here: the table's lifetime (the stream owns it; a published snapshot or an
//! ingested graph keeps none alive) and the cache accounting of stream
//! releases (one miss, no hit each).

use ccdp_core::{evaluate_family, FamilyOptions};
use ccdp_exec::PhaseProfiler;
use ccdp_graph::{generators, Graph, PreparedGraph};
use ccdp_serve::{BudgetLedger, GraphId, GraphRegistry, ServeConfig, Server, TenantId};
use ccdp_stream::{GraphStream, Mutation, ReleasePolicy, ReleaseScheduler, SchedulerConfig};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// The Δ grid `1, 2, 4, …` up to `delta_max`.
fn grid(delta_max: usize) -> Vec<usize> {
    std::iter::successors(Some(1usize), |d| Some(d * 2))
        .take_while(|&d| d <= delta_max)
        .collect()
}

/// The same snapshot prepared on its own: no lineage, so no prior table.
fn without_lineage(g: &PreparedGraph) -> PreparedGraph {
    let fresh = PreparedGraph::new(g.csr().clone());
    assert!(fresh.lineage().is_none());
    fresh
}

/// Family of `g` through its lineage, checked against a fresh evaluation.
fn assert_family_matches_fresh(
    g: &PreparedGraph,
    grid: &[usize],
    options: &FamilyOptions,
    profiler: Option<&PhaseProfiler>,
) -> Result<(), TestCaseError> {
    let got = evaluate_family(g, grid, options, profiler).unwrap();
    let want = evaluate_family(&without_lineage(g), grid, options, None).unwrap();
    prop_assert_eq!(got.len(), want.len());
    for (e, w) in got.iter().zip(&want) {
        prop_assert_eq!(e.delta, w.delta);
        prop_assert_eq!(
            e.value.to_bits(),
            w.value.to_bits(),
            "Δ={}: {} through the lineage vs {} fresh",
            e.delta,
            e.value,
            w.value
        );
        prop_assert_eq!(e.path, w.path);
        // Carried values report the work of the setting that solved them:
        // it must be the work a fresh solve under this setting reports.
        let work = |e: &ccdp_core::ExtensionEvaluation| {
            e.lp.as_ref().map(|lp| {
                (
                    lp.lp_solves,
                    lp.lp_iterations,
                    lp.generated_cuts,
                    lp.lp_fallback_components,
                )
            })
        };
        prop_assert_eq!(work(e), work(w), "Δ={}", e.delta);
    }
    Ok(())
}

/// One scripted edit: endpoints in a universe that grows past the initial
/// graph, plus a delete flag.
fn edit() -> impl Strategy<Value = (usize, usize, bool)> {
    (0usize..40, 0usize..40, any::<bool>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lineage_releases_equal_fresh_evaluations(
        seed in 0u64..1 << 32,
        n0 in 6usize..30,
        releases in vec((vec(edit(), 1..12), 1usize..=3, 1usize..=3, any::<bool>()), 2..8),
    ) {
        // Sparse start: many small trees and a few cycles, so edits merge
        // and split components and many classes survive each release.
        let mut rng = StdRng::seed_from_u64(seed);
        let initial = generators::erdos_renyi(n0, 1.3 / n0 as f64, &mut rng);
        let mut stream = GraphStream::from_graph("prop-lineage", initial);
        let mut time = 0;
        for (edits, delta_exp, threads, micro) in &releases {
            for &(u, v, delete) in edits {
                if u == v {
                    continue;
                }
                time += 1;
                // Inserts may name vertices past the current universe.
                let m = if delete {
                    Mutation::delete(time, u, v)
                } else {
                    Mutation::insert(time, u, v)
                };
                stream.apply(&m).unwrap();
            }
            let snap = stream.snapshot();
            prop_assert!(snap.prepared().lineage().is_some());
            // Δmax moves between 2, 4 and 8 and the micro solver switches on
            // and off from one release to the next.
            let options = FamilyOptions { micro: *micro, threads: *threads };
            assert_family_matches_fresh(snap.prepared(), &grid(1 << delta_exp), &options, None)?;
        }
    }
}

/// Disjoint 5-cycles with one pendant each, in four labelings: a graph with
/// few classes and many components, every one of them on the LP path at
/// Δ = 1.
fn cycles_with_pendants(copies: usize) -> Graph {
    let mut edges = Vec::new();
    for c in 0..copies {
        let b = 6 * c;
        edges.extend((0..5).map(|i| (b + i, b + (i + 1) % 5)));
        edges.push((b + c % 4, b + 5));
    }
    Graph::from_edges(6 * copies, &edges)
}

#[test]
fn a_release_after_a_few_edits_reuses_every_unchanged_class() {
    let profiler = PhaseProfiler::new();
    let mut stream = GraphStream::from_graph("reuse", cycles_with_pendants(200));
    // Δ = 1 is below every component's spanning-tree degree, so it solves.
    let grid = [1];
    let options = FamilyOptions::default();
    let first = stream.snapshot();
    evaluate_family(first.prepared(), &grid, &options, Some(&profiler)).unwrap();
    assert!(stream.lineage().is_retaining());
    let cold = profiler.report_sorted();
    let count = |report: &[ccdp_exec::PhaseReport], name: &str| {
        report
            .iter()
            .find(|p| p.name == name)
            .map_or(0, |p| p.count)
    };
    assert_eq!(count(&cold, "solve/class-reuse"), 0, "nothing to reuse yet");

    // Split one component and grow a new one.
    stream.apply(&Mutation::delete(1, 0, 1)).unwrap();
    stream.apply(&Mutation::insert(2, 1200, 1201)).unwrap();
    let second = stream.snapshot();
    let warm = PhaseProfiler::new();
    assert_family_matches_fresh(second.prepared(), &grid, &options, Some(&warm)).unwrap();
    let warm = warm.report_sorted();
    let classes = count(&warm, "solve/dedup-classes");
    let reused = count(&warm, "solve/class-reuse");
    // Only the split component's class and the new edge's are new; the four
    // labelings of a pendant 5-cycle carry over.
    assert_eq!((classes, reused), (6, 4));
}

#[test]
fn a_micro_switch_between_releases_solves_instead_of_reusing() {
    let mut stream = GraphStream::from_graph("switch", cycles_with_pendants(40));
    let grid = [1];
    let on = FamilyOptions::default();
    let off = FamilyOptions { micro: false, ..on };
    evaluate_family(stream.snapshot().prepared(), &grid, &on, None).unwrap();
    stream.apply(&Mutation::insert(1, 400, 401)).unwrap();
    let profiler = PhaseProfiler::new();
    let snap = stream.snapshot();
    assert_family_matches_fresh(snap.prepared(), &grid, &off, Some(&profiler)).unwrap();
    let report = profiler.report_sorted();
    let count = |name: &str| {
        report
            .iter()
            .find(|p| p.name == name)
            .map_or(0, |p| p.count)
    };
    // Every class is solved again, by the general solver this time.
    assert_eq!(count("solve/class-reuse"), 0);
    assert_eq!(
        count("solve/micro-closed-form") + count("solve/micro-reduced"),
        0
    );
    assert_eq!(
        count("solve/general-fallback"),
        count("solve/dedup-classes")
    );
}

#[test]
fn a_dropped_stream_frees_its_table_and_ingested_graphs_retain_none() {
    let mut stream = GraphStream::from_graph("owner", cycles_with_pendants(8));
    let snap = stream.snapshot();
    let published = snap.clone();
    evaluate_family(snap.prepared(), &[1, 2], &FamilyOptions::default(), None).unwrap();
    assert!(
        stream.lineage().is_retaining(),
        "the stream keeps the table"
    );
    drop(snap);
    assert!(published.prepared().lineage().is_some());
    drop(stream);
    assert!(
        published.prepared().lineage().is_none(),
        "a published snapshot does not keep its stream's table alive"
    );
    // Evaluating an orphaned snapshot still works; it just keeps nothing.
    evaluate_family(published.prepared(), &[1], &FamilyOptions::default(), None).unwrap();

    let registry = GraphRegistry::new();
    registry
        .ingest_edge_list("ingested", "# 4 3\n0 1\n1 2\n2 0\n")
        .unwrap();
    registry.insert("inserted", cycles_with_pendants(2));
    for id in ["ingested", "inserted"] {
        let g = registry.resolve(&GraphId::new(id)).unwrap();
        evaluate_family(&g, &[1], &FamilyOptions::default(), None).unwrap();
        assert!(
            g.lineage().is_none(),
            "{id} has no lineage to retain a table"
        );
    }
}

#[test]
fn stream_releases_miss_once_each_and_never_hit() {
    let registry = Arc::new(GraphRegistry::new());
    let ledger = Arc::new(BudgetLedger::new());
    ledger.register("owner", 1e6).unwrap();
    let server = Arc::new(Server::start(
        ServeConfig::new().with_workers(2).with_delta_max(8),
        registry,
        ledger,
    ));
    let scheduler = ReleaseScheduler::with_server(
        SchedulerConfig::new(ReleasePolicy::EveryKMutations(4))
            .with_epsilon(0.5)
            .with_delta_max(8),
        Arc::clone(&server),
    );
    let tenant = TenantId::new("owner");
    let mut stream = GraphStream::from_graph("live", cycles_with_pendants(50));
    let mut releases = 0;
    if scheduler.observe(&mut stream, &tenant).unwrap().is_some() {
        releases += 1;
    }
    for t in 0..40u64 {
        let (u, v) = (t as usize % 300, 300 + t as usize);
        let m = if t % 2 == 0 {
            Mutation::insert(t + 1, u, v)
        } else {
            Mutation::delete(t + 1, u - 1, v - 1)
        };
        stream.apply(&m).unwrap();
        if scheduler.observe(&mut stream, &tenant).unwrap().is_some() {
            releases += 1;
        }
    }
    assert_eq!(releases, 11);
    let cache = server.cache_stats();
    assert_eq!(cache.misses, releases);
    assert_eq!(cache.hits, 0);
    // The table lives with the stream, never in the cache or registry.
    assert!(stream.lineage().is_retaining());
    let metrics = server.render_metrics();
    let reuse_line = metrics
        .lines()
        .find(|l| l.contains("solve/class-reuse") && !l.starts_with('#'))
        .expect("the class-reuse count is published");
    let reused: f64 = reuse_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(reused > 0.0, "{reuse_line}");
}

#[test]
fn retained_stream_versions_are_kept_as_edits_and_resolve_exactly() {
    let registry = Arc::new(GraphRegistry::new());
    let ledger = Arc::new(BudgetLedger::new());
    ledger.register("owner", 1e6).unwrap();
    let server = Arc::new(Server::start(
        ServeConfig::new().with_workers(2).with_delta_max(8),
        Arc::clone(&registry),
        ledger,
    ));
    let scheduler = ReleaseScheduler::with_server(
        SchedulerConfig::new(ReleasePolicy::EveryKMutations(2))
            .with_epsilon(0.5)
            .with_delta_max(8),
        Arc::clone(&server),
    );
    let tenant = TenantId::new("owner");
    let mut stream = GraphStream::from_graph("kept", cycles_with_pendants(30));
    let mut published = Vec::new();
    let mut record = |stream: &GraphStream, released: Option<ccdp_stream::ReleaseRecord>| {
        if let Some(r) = released {
            published.push((r.version, ccdp_graph::CsrGraph::from_graph(stream.graph())));
        }
    };
    let first = scheduler.observe(&mut stream, &tenant).unwrap();
    record(&stream, first);
    for t in 0..12u64 {
        let (u, v) = (6 * t as usize, 180 + t as usize);
        stream.apply(&Mutation::insert(t + 1, u, v)).unwrap();
        let released = scheduler.observe(&mut stream, &tenant).unwrap();
        record(&stream, released);
    }
    let id = stream.id().clone();
    let retained = registry.versions(&id);
    assert_eq!(retained.len(), 4);
    // The version below the latest was already compacted by the scheduler.
    assert!(!registry.compact_previous(&id));
    for (version, arena) in &published {
        match registry.resolve_version(&id, *version) {
            Ok(g) => {
                assert!(retained.contains(version));
                assert_eq!(g.csr(), arena, "version {version}");
            }
            Err(_) => assert!(!retained.contains(version)),
        }
    }
}
