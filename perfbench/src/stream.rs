//! The `stream_cold` workload: one evolving graph whose releases are all
//! cold. A `ReleaseScheduler` over the worker pool fires every 16 scripted
//! mutations; each release publishes a new version, invalidates the cache
//! and misses, so the family LP runs on every release.

use crate::gen::{self, EdgeList, Mirror, Rng};
use crate::probes::{self, Call, ProbeGraph};
use crate::report::{object, peak_rss_mb, Report};
use crate::scrape::{Common, Scrape};
use crate::stats::{median, percentile, supports, top_permille};
use crate::Run;
use ccdp::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SETUPS: usize = 7;
const TENANT: &str = "owner";
const EPSILON: f64 = 0.5;
const EVERY: u64 = 16;
const DELTA_MAX: usize = 64;
const MIN_STEPS: usize = 1000;
const MIN_RELEASES: usize = 100;
const MAX_MEASURE: Duration = Duration::from_secs(120);
/// Steps per traced or untraced segment of the traced run.
const SEGMENT: usize = 64;

pub struct Spec {
    initial: EdgeList,
    script: Vec<gen::Edit>,
    seed: u64,
}

/// A near-critical 10^5-vertex graph at average degree 1.05 (see
/// [`gen::NEAR_CRITICAL_BLOCKS`]) and 1600 edits, half of them deletes,
/// inserts within a block so every block stays near-critical.
pub fn spec(seed: u64) -> Spec {
    let n = 100_000;
    let blocks = gen::NEAR_CRITICAL_BLOCKS;
    let initial = gen::erdos_renyi_blocks(n, blocks, 1.05, &mut Rng::derive(seed, 6));
    let script = gen::mutation_script(&initial, n / blocks, 1600, 0.5, &mut Rng::derive(seed, 7));
    Spec {
        initial,
        script,
        seed,
    }
}

struct Live {
    server: Arc<Server>,
    scheduler: ReleaseScheduler,
    tenant: TenantId,
    setup_s: f64,
    /// Releases fired so far, set-up baselines included.
    releases: usize,
}

/// One pass of the script over a fresh stream.
struct Pass {
    stream: GraphStream,
    mirror: Mirror,
    step: usize,
    /// The version the next release must name.
    next_version: u64,
}

fn check_release(record: &ReleaseRecord, pass: &Pass, report: &mut Report) -> Option<f64> {
    let truth = pass.mirror.components();
    let ok = record.value.is_finite()
        && record.graph == *pass.stream.id()
        && record.version.value() == pass.next_version
        && record.true_components == truth;
    report.check(ok, || {
        format!(
            "release {}@{} value {} true_components {}, expected version {} and {truth} components",
            record.graph, record.version, record.value, record.true_components, pass.next_version
        )
    });
    ok.then(|| (record.value - truth as f64).abs())
}

/// Starts a pass: a fresh stream over the initial graph, and its baseline
/// release (the scheduler fires one on first sight of a stream).
fn start_pass(spec: &Spec, live: &mut Live, index: usize, report: &mut Report) -> Pass {
    let mut pass = Pass {
        stream: GraphStream::from_graph(format!("stream/p{index}"), spec.initial.to_graph()),
        mirror: Mirror::new(&spec.initial),
        step: 0,
        next_version: 0,
    };
    report.attempted += 1;
    match live.scheduler.observe(&mut pass.stream, &live.tenant) {
        Ok(Some(record)) => {
            check_release(&record, &pass, report);
            live.releases += 1;
            pass.next_version += 1;
        }
        Ok(None) => report.fail("no baseline release on a new stream".into()),
        Err(e) => report.fail(format!("baseline release: {e}")),
    }
    pass
}

/// Server start, scheduler over its pool, the initial graph loaded into a
/// stream and its baseline release answered.
fn set_up(spec: &Spec, report: &mut Report) -> (Live, Pass) {
    let started = Instant::now();
    let registry = Arc::new(GraphRegistry::new());
    let ledger = Arc::new(BudgetLedger::new());
    ledger
        .register(TENANT, 1e12)
        .expect("fresh ledger registers the owner");
    let server = Arc::new(Server::start(
        ServeConfig::new()
            .with_seed(spec.seed)
            .with_delta_max(DELTA_MAX),
        registry,
        ledger,
    ));
    let scheduler = ReleaseScheduler::with_server(
        SchedulerConfig::new(ReleasePolicy::EveryKMutations(EVERY))
            .with_epsilon(EPSILON)
            .with_seed(spec.seed)
            .with_delta_max(DELTA_MAX),
        Arc::clone(&server),
    );
    let mut live = Live {
        server,
        scheduler,
        tenant: TenantId::new(TENANT),
        setup_s: 0.0,
        releases: 0,
    };
    let pass = start_pass(spec, &mut live, 0, report);
    live.setup_s = started.elapsed().as_secs_f64();
    (live, pass)
}

/// What one measured step (apply one edit, then let the scheduler observe)
/// produced.
#[derive(Default)]
struct Steps {
    secs: f64,
    step_ms: Vec<f64>,
    apply_us: Vec<f64>,
    release_ms: Vec<f64>,
    trigger_apply_ms: Vec<f64>,
    abs_error: Vec<f64>,
}

fn step(spec: &Spec, live: &mut Live, pass: &mut Pass, into: &mut Steps, report: &mut Report) {
    let edit = spec.script[pass.step];
    let m = probes::to_mutation(pass.step as u64 + 1, edit);
    report.attempted += 1;
    let started = Instant::now();
    let applied = pass.stream.apply(&m);
    let apply = started.elapsed();
    let observed = live.scheduler.observe(&mut pass.stream, &live.tenant);
    let total = started.elapsed();
    pass.mirror.apply(edit);
    pass.step += 1;
    into.secs += total.as_secs_f64();
    into.step_ms.push(total.as_secs_f64() * 1e3);
    into.apply_us.push(apply.as_secs_f64() * 1e6);
    if let Err(e) = applied {
        report.fail(format!("scripted mutation {m:?} refused: {e}"));
    }
    match observed {
        Ok(Some(record)) => {
            into.release_ms.push(total.as_secs_f64() * 1e3);
            into.trigger_apply_ms.push(apply.as_secs_f64() * 1e3);
            if let Some(err) = check_release(&record, pass, report) {
                into.abs_error.push(err);
            }
            live.releases += 1;
            pass.next_version += 1;
        }
        Ok(None) => {}
        Err(e) => report.fail(format!("release refused: {e}")),
    }
}

pub fn run(spec: &Spec, run: &Run, report: &mut Report) {
    let (mut live, mut pass) = set_up(spec, report);
    let mut setups = vec![live.setup_s];
    // The traced run also puts a listener in front of the pool, to scrape
    // `/metrics` and to time the wire on this workload's graph.
    let net = run.trace.then(|| {
        NetServer::start(NetConfig::new(), Arc::clone(&live.server))
            .expect("loopback listener binds")
    });
    let mut admin = net.as_ref().map(|n| NetClient::connect(n.local_addr()));
    let scrape = |admin: &mut Option<NetClient>| {
        admin.as_mut().map(|a| {
            Scrape::parse(&a.metrics().expect("GET /metrics answers")).expect("exposition parses")
        })
    };
    let before = scrape(&mut admin);

    let mut plain = Steps::default();
    let mut traced = Steps::default();
    let mut passes = 1;
    let started = Instant::now();
    let mut taken = 0;
    loop {
        // The traced run reports medians only; it splits the time in two.
        let enough = |s: &Steps| {
            if run.trace {
                s.secs >= run.seconds / 2.0 && s.release_ms.len() >= 20
            } else {
                s.secs >= run.seconds
                    && s.step_ms.len() >= MIN_STEPS
                    && s.release_ms.len() >= MIN_RELEASES
            }
        };
        let tracing = run.trace && (taken / SEGMENT) % 2 == 1;
        if taken % SEGMENT == 0 {
            let done = if run.trace {
                enough(&traced) && !tracing
            } else {
                enough(&plain)
            };
            if done || started.elapsed() > MAX_MEASURE {
                break;
            }
            live.server.tracer().set_enabled(tracing);
        }
        if pass.step == spec.script.len() {
            pass = start_pass(spec, &mut live, passes, report);
            passes += 1;
        }
        let into = if tracing { &mut traced } else { &mut plain };
        step(spec, &mut live, &mut pass, into, report);
        taken += 1;
    }
    live.server.tracer().set_enabled(false);
    let after = scrape(&mut admin);
    let rss_mb = peak_rss_mb();

    let cache = live.server.cache_stats();
    report.check(
        cache.misses == live.releases as u64 && cache.hits == 0,
        || {
            format!(
                "{} releases but {} cache misses and {} hits",
                live.releases, cache.misses, cache.hits
            )
        },
    );
    let journal = live.server.journal();
    if journal.dropped() > 0 {
        report.fail("server audit journal wrapped".into());
    } else if let Err(e) = live.server.ledger().verify_replay(journal) {
        report.fail(format!("audit replay: {e}"));
    }

    match (before, after) {
        (Some(before), Some(after)) => {
            let net = net.expect("traced run listens");
            layers(&live, &pass, &plain, &traced, &net, &before, &after, report);
            drop(admin);
            net.shutdown();
        }
        _ => {
            // The other set-ups run after measuring, so the memory they
            // leave behind in the allocator stays out of `peak_rss_mb`.
            drop((live, pass));
            for _ in 1..SETUPS {
                setups.push(set_up(spec, report).0.setup_s);
            }
            let s = &plain;
            report.check(supports(s.step_ms.len(), 990), || {
                format!("{} steps do not support a p99", s.step_ms.len())
            });
            report.check(supports(s.release_ms.len(), 900), || {
                format!("{} releases do not support a p90", s.release_ms.len())
            });
            report.metric("setup_s", median(&setups), "s");
            report.metric("throughput_rps", s.release_ms.len() as f64 / s.secs, "1/s");
            report.metric("latency_p50_ms", median(&s.step_ms), "ms");
            report.metric("latency_p99_ms", percentile(&s.step_ms, 990), "ms");
            report.metric("mutations_per_s", s.step_ms.len() as f64 / s.secs, "1/s");
            report.metric("release_p50_ms", median(&s.release_ms), "ms");
            report.metric("release_p90_ms", percentile(&s.release_ms, 900), "ms");
            report.metric("peak_rss_mb", rss_mb, "MiB");
            report.note(
                "samples",
                object(&[
                    ("latency", s.step_ms.len() as f64),
                    ("latency_top_permille", top_permille(s.step_ms.len())),
                    ("release", s.release_ms.len() as f64),
                    ("release_top_permille", top_permille(s.release_ms.len())),
                    ("passes", passes as f64),
                    ("setups", setups.len() as f64),
                ]),
            );
        }
    }
}

/// The traced run's per-layer split. The whole is the traced segments'
/// release p50: apply the triggering edit ⊃ stream snapshot, registry
/// publish, pool round trip ⊃ core estimate ⊃ graph/lp/dp.
#[allow(clippy::too_many_arguments)]
fn layers(
    live: &Live,
    pass: &Pass,
    plain: &Steps,
    traced: &Steps,
    net: &NetServer,
    before: &Scrape,
    after: &Scrape,
    report: &mut Report,
) {
    let whole = median(&traced.release_ms);
    let current = EdgeList {
        n: pass.mirror.n,
        edges: pass.mirror.edges.clone(),
    };
    let graph = ProbeGraph::new(pass.stream.id().to_string(), current);
    let id = GraphId::new(graph.id.as_str());
    let latest = live
        .server
        .registry()
        .latest_version(&id)
        .expect("the live stream is published");

    // Snapshots and publishes of the live stream's current state.
    let mut snapshots = Vec::new();
    let mut published = Vec::new();
    for k in 0..8 {
        let mut s = pass.stream.clone();
        let t = Instant::now();
        let snap = s.snapshot();
        snapshots.push(t.elapsed().as_secs_f64() * 1e3);
        published.push((format!("probe/s{k}"), Arc::clone(snap.graph())));
    }
    let snapshot_ms = median(&snapshots);
    let publish_ms = probes::publish_ms(&published);

    let cold: Vec<Call> = (0..64)
        .map(|k| Call {
            tenant: TENANT.into(),
            graph: graph.id.clone(),
            epsilon: EPSILON,
            version: Some(GraphVersion::new(1 << 40 | k)),
        })
        .collect();
    let warm = Call {
        version: Some(latest),
        ..cold[0].clone()
    };
    let server = &live.server;
    let inproc = probes::inproc_ms(server, 1, Duration::from_millis(500), &[warm]);
    let core_estimate = probes::core_estimate_ms(
        server.registry(),
        server.cache(),
        Some(DELTA_MAX),
        1,
        Duration::from_millis(1000),
        &cold,
    );
    let g = probes::graph_layer(&[&graph]);

    // The wire on this workload's graph: ingest it, then warm round trips.
    let mut client = NetClient::connect(net.local_addr());
    let mut ingest_ms = Vec::new();
    let wire_id = "probe/wire";
    for _ in 0..3 {
        let t = Instant::now();
        report.attempted += 1;
        if let Err(e) = client.ingest(wire_id, &graph.text, None) {
            report.fail(format!("probe ingest refused: {e}"));
        }
        ingest_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let mut wire_self = Vec::new();
    for i in 0..41 {
        report.attempted += 1;
        let t = Instant::now();
        match client.estimate(TENANT, wire_id, EPSILON, None) {
            Ok(r) if i > 0 => wire_self.push(t.elapsed().as_secs_f64() * 1e3 - r.latency_ms),
            Ok(_) => {}
            Err(e) => report.fail(format!("probe estimate refused: {e}")),
        }
    }
    drop(client);

    let common = Common::read(before, after);
    let served = after
        .delta(before, "ccdp_serve_latency_seconds_count", &[])
        .max(1.0);
    let server_ms = after.delta(before, "ccdp_serve_latency_seconds_sum", &[]) / served * 1e3;
    let lp_ms = common.lp_ms_per_estimate;
    let dp_ms = common.mechanisms_s * 1e3;
    // A miss builds the CSR arena and fingerprints it before evaluating.
    let graph_ms =
        (g.csr_build_ms + g.fingerprint_ms).min((core_estimate - lp_ms - dp_ms).max(0.0));
    let core_ms = (core_estimate - graph_ms - lp_ms - dp_ms).max(0.0);
    let serve_ms = publish_ms + (server_ms - core_estimate).max(0.0);
    let stream_ms = median(&traced.trigger_apply_ms) + snapshot_ms;
    let unattributed = whole - (stream_ms + serve_ms + core_ms + graph_ms + lp_ms + dp_ms);
    let net_stats = net.stats();
    let ids = [id];

    report.metric("whole_ms_p50", whole, "ms");
    report.metric("unattributed_ms", unattributed, "ms");
    report.metric("net.self_ms_p50", median(&wire_self), "ms");
    report.metric("net.ingest_ms_p50", median(&ingest_ms), "ms");
    report.metric("net.requests", net_stats.requests as f64, "count");
    report.metric(
        "net.client_errors",
        net_stats.responses_client_error as f64,
        "count",
    );
    report.metric("serve.self_ms_p50", serve_ms, "ms");
    report.metric("serve.inproc_ms_p50", inproc, "ms");
    report.metric(
        "serve.queue_depth_peak",
        after.get("ccdp_serve_queue_depth_peak", &[]),
        "count",
    );
    report.metric(
        "serve.resolve_us_p50",
        probes::resolve_us(server.registry(), &ids),
        "us",
    );
    report.metric(
        "serve.ledger_spend_us_p50",
        probes::ledger_spend_us(&ids),
        "us",
    );
    report.metric("serve.publish_ms_p50", publish_ms, "ms");
    report.metric("core.self_ms_p50", core_ms, "ms");
    report.metric("core.estimate_ms_p50", core_estimate, "ms");
    common.emit(report);
    report.metric("graph.self_ms", graph_ms, "ms");
    report.metric("graph.csr_build_ms", g.csr_build_ms, "ms");
    report.metric("graph.fingerprint_ms", g.fingerprint_ms, "ms");
    report.metric("graph.witness_ms", g.witness_ms, "ms");
    report.metric("graph.components_ms", g.components_ms, "ms");
    report.metric("graph.edge_list_parse_ms", g.edge_list_parse_ms, "ms");
    report.metric("lp.self_ms", lp_ms, "ms");
    report.metric("dp.self_ms", dp_ms, "ms");
    let errors: Vec<f64> = [&plain.abs_error[..], &traced.abs_error[..]].concat();
    report.metric("dp.abs_error_median", median(&errors), "components");
    report.metric("stream.apply_us_p50", median(&traced.apply_us), "us");
    report.metric("stream.snapshot_ms_p50", snapshot_ms, "ms");
    let rate = |s: &Steps| s.step_ms.len() as f64 / s.secs;
    report.metric(
        "obs.tracing_overhead_ratio",
        rate(traced) / rate(plain),
        "ratio",
    );
    report.metric(
        "obs.trace_dropped",
        after.get("ccdp_obs_trace_dropped_total", &[]),
        "count",
    );
    report.metric(
        "obs.audit_dropped",
        after.get("ccdp_obs_audit_dropped_total", &[]),
        "count",
    );

    report.note(
        "attribution",
        object(&[
            ("whole_ms_p50", whole),
            ("stream", stream_ms),
            ("serve", serve_ms),
            ("core", core_ms),
            ("graph", graph_ms),
            ("lp", lp_ms),
            ("dp", dp_ms),
            ("unattributed", unattributed),
            ("lp_share", lp_ms / whole),
        ]),
    );
    report.note(
        "samples",
        object(&[
            ("traced_releases", traced.release_ms.len() as f64),
            ("traced_steps", traced.step_ms.len() as f64),
            ("untraced_steps", plain.step_ms.len() as f64),
            ("wire_round_trips", wire_self.len() as f64),
        ]),
    );
}
