//! Per-layer probes: timed calls into each layer's public functions, made
//! from outside the program on the workload's own graphs.

use crate::gen::{self, EdgeList, Rng};
use crate::stats::{mean, median};
use ccdp::prelude::*;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One workload graph as every probe sees it.
pub struct ProbeGraph {
    pub id: String,
    pub edges: EdgeList,
    pub graph: Arc<Graph>,
    pub text: String,
}

impl ProbeGraph {
    pub fn new(id: String, edges: EdgeList) -> Self {
        let graph = Arc::new(edges.to_graph());
        let text = edges.to_text();
        ProbeGraph {
            id,
            edges,
            graph,
            text,
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median wall time of `reps` calls of `f`, in ms.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            ms(t.elapsed())
        })
        .collect();
    median(&times)
}

/// Repetitions that keep one probe of a graph near a few milliseconds of
/// work for small graphs and a handful of calls for large ones.
fn reps_for(g: &ProbeGraph) -> usize {
    (400_000 / (g.edges.n + g.edges.edges.len()).max(1)).clamp(5, 201)
}

/// Graph-layer costs, each the mean over the workload's graphs of the
/// per-graph median (the schedules ask about every graph equally often).
pub struct GraphTimes {
    pub csr_build_ms: f64,
    pub fingerprint_ms: f64,
    pub witness_ms: f64,
    pub components_ms: f64,
    pub edge_list_parse_ms: f64,
}

pub fn graph_layer(graphs: &[&ProbeGraph]) -> GraphTimes {
    let mut rows = Vec::new();
    for g in graphs {
        let reps = reps_for(g);
        let csr = CsrGraph::from_graph(&g.graph);
        rows.push([
            median_ms(reps, || {
                black_box(CsrGraph::from_graph(black_box(&g.graph)));
            }),
            median_ms(reps, || {
                black_box(black_box(&csr).fingerprint());
            }),
            median_ms(reps, || {
                black_box(black_box(&csr).matches_graph(&g.graph));
            }),
            median_ms(reps, || {
                black_box(black_box(&csr).num_components());
            }),
            median_ms(reps, || {
                black_box(
                    io::from_edge_list(black_box(&g.text)).expect("generated edge list parses"),
                );
            }),
        ]);
    }
    let col = |i: usize| mean(&rows.iter().map(|r| r[i]).collect::<Vec<_>>());
    GraphTimes {
        csr_build_ms: col(0),
        fingerprint_ms: col(1),
        witness_ms: col(2),
        components_ms: col(3),
        edge_list_parse_ms: col(4),
    }
}

/// Calls `f` in batches of 64 for about `budget`; returns the median
/// per-call time in µs (batching keeps the clock read out of sub-µs calls).
fn batched_us(budget: Duration, mut f: impl FnMut(usize)) -> f64 {
    let mut per_call = Vec::new();
    let started = Instant::now();
    let mut i = 0;
    while started.elapsed() < budget || per_call.len() < 20 {
        let t = Instant::now();
        for _ in 0..64 {
            f(i);
            i += 1;
        }
        per_call.push(t.elapsed().as_secs_f64() * 1e6 / 64.0);
    }
    median(&per_call)
}

/// `GraphRegistry::resolve_latest` on the server's catalog.
pub fn resolve_us(registry: &GraphRegistry, ids: &[GraphId]) -> f64 {
    batched_us(Duration::from_millis(200), |i| {
        black_box(
            registry
                .resolve_latest(&ids[i % ids.len()])
                .expect("published graph resolves"),
        );
    })
}

/// `BudgetLedger::try_spend` with an audit journal attached, on a ledger of
/// its own so the server's accounts stay as the workload left them.
pub fn ledger_spend_us(ids: &[GraphId]) -> f64 {
    let ledger = BudgetLedger::new();
    ledger.register("probe", 1e15).expect("fresh ledger");
    ledger.set_journal(Arc::new(AuditJournal::new()));
    let tenant = TenantId::new("probe");
    batched_us(Duration::from_millis(200), |i| {
        black_box(
            ledger
                .try_spend(&tenant, ids[i % ids.len()].as_str(), 0.5)
                .expect("funded probe tenant"),
        );
    })
}

/// `GraphRegistry::insert_version` of the workload graphs into a catalog
/// of its own (journal attached, default retention), in ms.
pub fn publish_ms(graphs: &[(String, Arc<Graph>)]) -> f64 {
    let registry = GraphRegistry::new();
    registry.set_journal(Arc::new(AuditJournal::new()));
    let mut times = Vec::new();
    for version in 0..(64 / graphs.len()).max(8) as u64 {
        for (id, graph) in graphs {
            let t = Instant::now();
            registry
                .insert_version(id.as_str(), GraphVersion::new(version), Arc::clone(graph))
                .expect("fresh version publishes");
            times.push(ms(t.elapsed()));
        }
    }
    median(&times)
}

/// One request the in-process probes replay.
#[derive(Clone)]
pub struct Call {
    pub tenant: String,
    pub graph: String,
    pub epsilon: f64,
    pub version: Option<GraphVersion>,
}

/// Runs `calls` round-robin from `threads` closed-loop callers for about
/// `budget`; `f` returns the measured time of one call in ms, or `None`
/// when the call was refused. Returns every measured time.
fn closed_loop(
    threads: usize,
    budget: Duration,
    calls: &[Call],
    f: impl Fn(&Call, u64) -> Option<f64> + Sync,
) -> Vec<f64> {
    let next = AtomicUsize::new(0);
    let times = Mutex::new(Vec::new());
    let deadline = Instant::now() + budget;
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut mine = Vec::new();
                for tries in 0.. {
                    // Ten answered calls per caller at least, unless nearly
                    // everything is refused.
                    if Instant::now() >= deadline && (mine.len() >= 10 || tries >= 10_000) {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if let Some(t) = f(&calls[i % calls.len()], i as u64) {
                        mine.push(t);
                    }
                }
                times.lock().expect("probe sample lock").extend(mine);
            });
        }
    });
    times.into_inner().expect("probe sample lock")
}

/// The schedule through `Server::submit(..).wait()`, with no socket:
/// median answered round trip in ms.
pub fn inproc_ms(server: &Server, threads: usize, budget: Duration, calls: &[Call]) -> f64 {
    let times = closed_loop(threads, budget, calls, |c, _| {
        let mut request = ServeRequest::new(c.tenant.as_str(), c.graph.as_str(), c.epsilon);
        if let Some(v) = c.version {
            request = request.at_version(v);
        }
        let t = Instant::now();
        let response = server.submit(request).ok()?.wait();
        let elapsed = ms(t.elapsed());
        response.result.ok().map(|_| elapsed)
    });
    median(&times)
}

/// `PrivateCcEstimator::estimate` configured as a worker configures it:
/// the server's shared family cache, the `(graph, version)` tag and the
/// Δ cap. With `version: None` the probe resolves the latest snapshot (a
/// warm hit); with a version it tags a fresh one (a cold miss).
pub fn core_estimate_ms(
    registry: &GraphRegistry,
    cache: &Arc<ExtensionCache>,
    delta_max: Option<usize>,
    threads: usize,
    budget: Duration,
    calls: &[Call],
) -> f64 {
    let times = closed_loop(threads, budget, calls, |c, i| {
        let id = GraphId::new(c.graph.as_str());
        let (latest, graph) = registry.resolve_latest(&id).ok()?;
        let version = c.version.unwrap_or(latest);
        let mut config = EstimatorConfig::new(c.epsilon)
            .with_shared_family_cache(Arc::clone(cache))
            .with_graph_tag(c.graph.as_str(), version);
        if let Some(d) = delta_max {
            config = config.with_delta_max(d);
        }
        let mut rng = StdRng::seed_from_u64(i);
        let t = Instant::now();
        let estimator = PrivateCcEstimator::from_config(config).ok()?;
        let release = Estimator::estimate(&estimator, &graph, &mut rng).ok()?;
        let elapsed = ms(t.elapsed());
        black_box(release);
        Some(elapsed)
    });
    median(&times)
}

/// `GraphStream::apply` (µs) and `GraphStream::snapshot` (ms) on a stream
/// over `initial`, fed a 50 % delete script made from `seed`.
pub fn stream_layer(initial: &EdgeList, seed: u64) -> (f64, f64) {
    let script = gen::mutation_script(initial, initial.n, 512, 0.5, &mut Rng::derive(seed, 9));
    let mut stream = GraphStream::from_graph("probe/stream", initial.to_graph());
    let mut apply = Vec::new();
    let mut snapshot = Vec::new();
    for (t, edit) in script.iter().enumerate() {
        let m = to_mutation(t as u64 + 1, *edit);
        let started = Instant::now();
        stream.apply(&m).expect("scripted mutation applies");
        apply.push(started.elapsed().as_secs_f64() * 1e6);
        if t % 16 == 15 {
            let started = Instant::now();
            black_box(stream.snapshot());
            snapshot.push(ms(started.elapsed()));
        }
    }
    (median(&apply), median(&snapshot))
}

pub fn to_mutation(time: u64, edit: gen::Edit) -> Mutation {
    let (u, v) = (edit.u as usize, edit.v as usize);
    if edit.insert {
        Mutation::insert(time, u, v)
    } else {
        Mutation::delete(time, u, v)
    }
}
