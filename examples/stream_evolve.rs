//! Drive an evolving 8-graph fleet end-to-end through the streaming tier.
//!
//! Each fleet member is a [`GraphStream`] fed by the deterministic
//! [`MutationSpec`] CI script (mixed insertions and real deletions). A
//! shared [`ReleaseScheduler`] re-releases every k mutations, publishing
//! versioned snapshots into the version-aware registry, charging tenants
//! through the budget ledger, and tagging every family-cache lookup with
//! `(graph, version)`.
//!
//! The run *asserts* the acceptance invariants of the streaming subsystem:
//!
//! * zero hard failures — every scheduled release is granted and finite,
//! * every release is served from the registry snapshot whose version the
//!   release names (and its exact count matches a from-scratch recount of
//!   that snapshot — the incremental maintenance is never wrong),
//! * no cache replay across versions: the shared cache reports exactly one
//!   miss per release, zero hits, and bulk invalidations of superseded
//!   versions,
//! * registry histories stay within the retention bound (stale snapshots
//!   expire without unpublishing the frontier).
//!
//! ```text
//! cargo run --release --example stream_evolve
//! cargo run --release --example stream_evolve -- --mutations 480 --every 32
//! cargo run --release --example stream_evolve -- --json STREAM_summary.json
//! ```

use ccdp::prelude::*;
use ccdp::stream::replay;
use std::sync::Arc;
use std::time::Instant;

/// Mutations applied between scheduler observations.
const BATCH: usize = 8;

/// Registry snapshots retained per graph.
const RETAIN: usize = 6;

fn main() {
    let mut spec = MutationSpec::ci_smoke();
    let mut every_k: u64 = 16;
    let mut json_path: Option<String> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| -> &str {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("flag {} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--graphs" => {
                spec.graphs = value(i).parse().expect("--graphs takes a count");
                i += 2;
            }
            "--mutations" => {
                spec.mutations_per_graph = value(i).parse().expect("--mutations takes a count");
                i += 2;
            }
            "--every" => {
                every_k = value(i).parse().expect("--every takes a mutation count");
                i += 2;
            }
            "--json" => {
                json_path = Some(value(i).to_string());
                i += 2;
            }
            other => panic!("unknown flag `{other}` (try --graphs/--mutations/--every/--json)"),
        }
    }

    println!(
        "stream_evolve: {} streams × {} mutations ({}% deletes), release every {} mutations",
        spec.graphs,
        spec.mutations_per_graph,
        (spec.delete_fraction * 100.0) as u32,
        every_k
    );

    // Shared serving infrastructure: version-aware catalog, tenant quotas,
    // one family cache for the whole fleet.
    let registry = Arc::new(GraphRegistry::new());
    let ledger = Arc::new(BudgetLedger::new());
    let tenants: Vec<TenantId> = ["alpha", "beta", "gamma", "delta"]
        .iter()
        .map(|name| {
            ledger.register(*name, 1e6).unwrap();
            TenantId::new(name)
        })
        .collect();
    let cache = Arc::new(ExtensionCache::new(256));
    let scheduler = ReleaseScheduler::new(
        SchedulerConfig::new(ReleasePolicy::EveryKMutations(every_k))
            .with_epsilon(0.5)
            .with_seed(spec.seed)
            .with_retain_versions(RETAIN),
        Arc::clone(&registry),
        Arc::clone(&ledger),
        Arc::clone(&cache),
    );

    // The replay reader round-trips one member's script — an archived feed
    // is bit-identical to the generated one.
    let archived = replay::to_mutation_list(&spec.mutations(0));
    assert_eq!(
        replay::from_mutation_list(&archived).expect("archived feed parses"),
        spec.mutations(0),
        "replay round-trip must be exact"
    );

    let started = Instant::now();
    let mut streams: Vec<GraphStream> = (0..spec.graphs).map(|i| spec.stream(i)).collect();
    let mut applied: u64 = 0;
    let mut releases: Vec<ReleaseRecord> = Vec::new();

    for (index, stream) in streams.iter_mut().enumerate() {
        let tenant = &tenants[index % tenants.len()];
        let script = spec.mutations(index);
        for batch in script.chunks(BATCH) {
            applied += stream
                .apply_batch(batch)
                .map(|_| batch.len())
                .unwrap_or_else(|e| panic!("stream {index} refused a scripted mutation: {e}"))
                as u64;
            if let Some(record) = scheduler
                .observe(stream, tenant)
                .unwrap_or_else(|e| panic!("release on stream {index} failed: {e}"))
            {
                // The release names an exact snapshot: resolve it back out of
                // the registry and recount from scratch — version match and
                // incremental correctness, at every release point.
                let snapshot = registry
                    .resolve_version(&record.graph, record.version)
                    .expect("released version must be resolvable");
                assert_eq!(
                    snapshot.csr().num_components(),
                    record.true_components,
                    "incremental count diverged on {}@{}",
                    record.graph,
                    record.version
                );
                assert!(record.value.is_finite(), "release value must be finite");
                releases.push(record);
            }
        }
    }
    let wall_clock = started.elapsed();

    // --- Acceptance invariants -------------------------------------------
    let cache_stats = cache.stats();
    assert_eq!(
        cache_stats.misses,
        releases.len() as u64,
        "every release must evaluate its own version exactly once: {cache_stats:?}"
    );
    assert_eq!(
        cache_stats.hits, 0,
        "a release must never replay another version's family: {cache_stats:?}"
    );
    assert!(
        cache_stats.invalidations > 0,
        "superseded versions must be bulk-invalidated: {cache_stats:?}"
    );
    for index in 0..spec.graphs {
        let id = GraphId::new(spec.graph_id(index));
        let versions = registry.versions(&id);
        assert!(
            versions.len() <= RETAIN,
            "{id}: history {} exceeds retention {RETAIN}",
            versions.len()
        );
        assert!(
            registry.resolve(&id).is_ok(),
            "{id}: expiry must never unpublish the frontier"
        );
    }
    let total_grants: usize = ledger.snapshot().iter().map(|a| a.grants).sum();
    assert_eq!(
        total_grants,
        releases.len(),
        "every release maps to exactly one ledger grant"
    );

    let mutation_rate = applied as f64 / wall_clock.as_secs_f64();
    let release_rate = releases.len() as f64 / wall_clock.as_secs_f64();
    let rebuilds: u64 = streams.iter().map(|s| s.stats().rebuilds).sum();
    let deletes: u64 = streams.iter().map(|s| s.stats().edges_deleted).sum();

    println!();
    println!("  mutations applied    {applied:>8}");
    println!("  edges deleted        {deletes:>8}");
    println!("  epoch rebuilds       {rebuilds:>8}");
    println!("  releases             {:>8}", releases.len());
    println!("  registry snapshots   {:>8}", registry.num_versions());
    println!("  wall clock           {:>8.3} s", wall_clock.as_secs_f64());
    println!("  mutation throughput  {mutation_rate:>8.0} mut/s");
    println!("  release rate         {release_rate:>8.1} rel/s");
    println!(
        "  cache                {:>8} misses, {} invalidations, {} evictions",
        cache_stats.misses, cache_stats.invalidations, cache_stats.evictions
    );

    if let Some(path) = json_path {
        let json = format!(
            concat!(
                "{{\n",
                "  \"mutations\": {},\n",
                "  \"releases\": {},\n",
                "  \"rebuilds\": {},\n",
                "  \"wall_clock_s\": {:.6},\n",
                "  \"mutation_throughput\": {:.1},\n",
                "  \"releases_per_sec\": {:.3},\n",
                "  \"cache_misses\": {},\n",
                "  \"cache_invalidations\": {}\n",
                "}}"
            ),
            applied,
            releases.len(),
            rebuilds,
            wall_clock.as_secs_f64(),
            mutation_rate,
            release_rate,
            cache_stats.misses,
            cache_stats.invalidations,
        );
        std::fs::write(&path, json).expect("writing the JSON summary");
        println!("\nwrote {path}");
    }

    println!("\nall streaming invariants held");
}
