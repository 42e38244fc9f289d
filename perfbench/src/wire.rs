//! The wire workloads, `fleet_wire` and `large_wire`: a live listener, the
//! catalog ingested over `POST /ingest`, and closed-loop `NetClient`
//! callers on keep-alive connections, each waiting for its reply.

use crate::gen::{self, Ask};
use crate::probes::{self, Call, ProbeGraph};
use crate::report::{object, peak_rss_mb, Report};
use crate::scrape::{Common, Scrape};
use crate::stats::{median, percentile, supports, top_permille};
use crate::Run;
use ccdp::net::EstimateResponse;
use ccdp::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Length of one measurement round; `--trace 1` alternates traced and
/// untraced rounds.
const ROUND: Duration = Duration::from_millis(500);
/// Answered requests a run needs for a p99 with ten samples beyond it.
const MIN_ANSWERED: usize = 1000;
/// A run stops measuring at this wall time even if short of samples.
const MAX_MEASURE: Duration = Duration::from_secs(120);

struct Tenant {
    name: &'static str,
    quota: f64,
    epsilon: f64,
}

impl Tenant {
    /// Grants the ledger owes this tenant before refusing: ε and quota are
    /// binary fractions, so the count is exact.
    fn capacity(&self) -> u64 {
        let grants = self.quota / self.epsilon;
        if grants > 1e9 {
            u64::MAX
        } else {
            (grants + 1e-9).floor() as u64
        }
    }
}

pub struct Spec {
    graphs: Vec<ProbeGraph>,
    truths: Vec<usize>,
    tenants: Vec<Tenant>,
    schedule: Vec<Ask>,
    delta_max: Option<usize>,
    seed: u64,
}

fn spec(
    prefix: &str,
    edges: Vec<gen::EdgeList>,
    tenants: Vec<Tenant>,
    burst: usize,
    delta_max: Option<usize>,
    seed: u64,
) -> Spec {
    let truths = edges.iter().map(gen::EdgeList::components).collect();
    let graphs: Vec<ProbeGraph> = edges
        .into_iter()
        .enumerate()
        .map(|(i, e)| ProbeGraph::new(format!("{prefix}/g{i}"), e))
        .collect();
    let schedule = gen::schedule(seed, 1 << 16, tenants.len(), burst, graphs.len());
    Spec {
        graphs,
        truths,
        tenants,
        schedule,
        delta_max,
        seed,
    }
}

/// 32 small graphs, three funded tenants and the under-provisioned `burst`
/// tenant, which asks one request in eight and is granted eight.
pub fn fleet(seed: u64) -> Spec {
    let funded = |name| Tenant {
        name,
        quota: 1e12,
        epsilon: 0.5,
    };
    let tenants = vec![
        funded("alpha"),
        funded("beta"),
        funded("gamma"),
        Tenant {
            name: "burst",
            quota: 2.0,
            epsilon: 0.25,
        },
    ];
    spec("fleet", gen::fleet_graphs(seed), tenants, 2, None, seed)
}

/// Four near-critical 10^5-vertex graphs, one funded tenant, Δ̂ capped at
/// 64.
pub fn large(seed: u64) -> Spec {
    let tenants = vec![Tenant {
        name: "acme",
        quota: 1e12,
        epsilon: 0.5,
    }];
    spec("large", gen::large_graphs(seed), tenants, 0, Some(64), seed)
}

struct Live {
    server: Arc<Server>,
    net: NetServer,
    versions: Vec<u64>,
    setup_s: f64,
    ingest_ms: Vec<f64>,
}

impl Live {
    fn stop(self) {
        self.net.shutdown();
        drop(self.server);
    }
}

fn is_budget_refusal(answer: &Result<EstimateResponse, NetError>) -> bool {
    matches!(answer, Err(NetError::Api { status: 403, code, .. }) if code == "budget_exhausted")
}

/// An answer must be finite and echo the tenant, graph and published
/// version; returns its absolute error and server-side latency in ms.
fn check_answer(
    spec: &Spec,
    versions: &[u64],
    ask: Ask,
    answer: &Result<EstimateResponse, NetError>,
) -> Result<(f64, f64), String> {
    let tenant = spec.tenants[ask.tenant].name;
    let graph = &spec.graphs[ask.graph].id;
    match answer {
        Ok(r) if !r.value.is_finite() => Err(format!("{graph}: non-finite value {}", r.value)),
        Ok(r) if r.graph != *graph || r.tenant != tenant => Err(format!(
            "asked {tenant}/{graph}, answered {}/{}",
            r.tenant, r.graph
        )),
        Ok(r) if r.version != Some(versions[ask.graph]) => Err(format!(
            "{graph}: answered version {:?}, published {}",
            r.version, versions[ask.graph]
        )),
        Ok(r) => Ok((
            (r.value - spec.truths[ask.graph] as f64).abs(),
            r.latency_ms,
        )),
        Err(e) => Err(format!("{tenant}/{graph}: {e}")),
    }
}

/// Server start, every graph ingested over the wire, one warm-up answer
/// per graph: the work `setup_s` times.
fn set_up(spec: &Spec, clients: usize, report: &mut Report) -> Live {
    let started = Instant::now();
    let registry = Arc::new(GraphRegistry::new());
    let ledger = Arc::new(BudgetLedger::new());
    for t in &spec.tenants {
        ledger
            .register(t.name, t.quota)
            .expect("fresh ledger registers each tenant once");
    }
    let mut config = ServeConfig::new().with_seed(spec.seed);
    if let Some(d) = spec.delta_max {
        config = config.with_delta_max(d);
    }
    let server = Arc::new(Server::start(config, registry, ledger));
    let net = NetServer::start(
        NetConfig::new().with_max_connections(clients + 8),
        Arc::clone(&server),
    )
    .expect("loopback listener binds");
    let mut client = NetClient::connect(net.local_addr());
    let mut versions = Vec::new();
    let mut ingest_ms = Vec::new();
    for g in &spec.graphs {
        let t = Instant::now();
        versions.push(ingest(&mut client, g, report).unwrap_or(u64::MAX));
        ingest_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let warm = &spec.tenants[0];
    for (i, g) in spec.graphs.iter().enumerate() {
        report.attempted += 1;
        let answer = client.estimate(warm.name, &g.id, warm.epsilon, None);
        let ask = Ask {
            tenant: 0,
            graph: i,
        };
        if let Err(e) = check_answer(spec, &versions, ask, &answer) {
            report.fail(format!("warm-up: {e}"));
        }
    }
    let setup_s = started.elapsed().as_secs_f64();
    report.check(server.journal().dropped() == 0, || {
        "server audit journal wrapped during set-up".into()
    });
    if let Err(e) = server.ledger().verify_replay(server.journal()) {
        report.fail(format!("audit replay after set-up: {e}"));
    }
    Live {
        server,
        net,
        versions,
        setup_s,
        ingest_ms,
    }
}

/// `POST /ingest` of one graph as its next version; the answer must echo
/// the id and the vertex and edge counts sent. Returns the version.
fn ingest(client: &mut NetClient, g: &ProbeGraph, report: &mut Report) -> Option<u64> {
    report.attempted += 1;
    match client.ingest(&g.id, &g.text, None) {
        Ok(r) => {
            let ok = r.graph == g.id
                && r.vertices == g.edges.n as u64
                && r.edges == g.edges.edges.len() as u64;
            report.check(ok, || format!("{}: ingest echoed {r:?}", g.id));
            ok.then_some(r.version)
        }
        Err(e) => {
            report.fail(format!("{}: ingest refused: {e}", g.id));
            None
        }
    }
}

/// Edges per second through `POST /ingest`: the catalog republished
/// round-robin from one client for about a second, and its edges divided
/// by the sum of each graph's median round trip (a scheduling stall on one
/// small ingest must not move the rate). It runs after the estimates are
/// measured, since each ingest publishes a new version.
fn ingest_rate(spec: &Spec, live: &Live, report: &mut Report) -> f64 {
    let mut client = NetClient::connect(live.net.local_addr());
    let mut rtts = vec![Vec::new(); spec.graphs.len()];
    let started = Instant::now();
    for (i, g) in spec.graphs.iter().enumerate().cycle().take(1 << 20) {
        if started.elapsed().as_secs_f64() >= 1.0 && rtts[i].len() >= 3 {
            break;
        }
        let t = Instant::now();
        ingest(&mut client, g, report);
        rtts[i].push(t.elapsed().as_secs_f64());
    }
    let edges: usize = spec.graphs.iter().map(|g| g.edges.edges.len()).sum();
    edges as f64 / rtts.iter().map(|r| median(r)).sum::<f64>()
}

/// One answered request.
struct Answered {
    rtt_ms: f64,
    server_ms: f64,
    abs_error: f64,
}

#[derive(Default)]
struct Rounds {
    secs: f64,
    answered: Vec<Answered>,
}

struct Tally {
    attempts: Vec<u64>,
    refusals: Vec<u64>,
    failures: Vec<String>,
}

impl Tally {
    fn new(spec: &Spec) -> Self {
        Tally {
            attempts: vec![0; spec.tenants.len()],
            refusals: vec![0; spec.tenants.len()],
            failures: Vec::new(),
        }
    }
}

/// Closed-loop callers on their keep-alive connections until `deadline`
/// (or until the schedule cursor reaches `stop_at`); each waits for its
/// reply before sending the next request.
#[allow(clippy::too_many_arguments)]
fn round(
    spec: &Spec,
    live: &Live,
    clients: &mut [NetClient],
    next: &AtomicUsize,
    deadline: Instant,
    stop_at: usize,
    into: &mut Rounds,
    tally: &mut Tally,
) {
    let started = Instant::now();
    let results: Vec<(Vec<Answered>, Tally)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                s.spawn(move || {
                    let mut answered = Vec::new();
                    let mut mine = Tally::new(spec);
                    while Instant::now() < deadline {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= stop_at {
                            break;
                        }
                        let ask = spec.schedule[i % spec.schedule.len()];
                        let tenant = &spec.tenants[ask.tenant];
                        let graph = &spec.graphs[ask.graph].id;
                        let t = Instant::now();
                        let answer = client.estimate(tenant.name, graph, tenant.epsilon, None);
                        let rtt_ms = t.elapsed().as_secs_f64() * 1e3;
                        mine.attempts[ask.tenant] += 1;
                        match check_answer(spec, &live.versions, ask, &answer) {
                            Ok((abs_error, server_ms)) => answered.push(Answered {
                                rtt_ms,
                                server_ms,
                                abs_error,
                            }),
                            Err(_) if is_budget_refusal(&answer) => mine.refusals[ask.tenant] += 1,
                            Err(e) => mine.failures.push(e),
                        }
                    }
                    (answered, mine)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    into.secs += started.elapsed().as_secs_f64();
    for (answered, t) in results {
        into.answered.extend(answered);
        for i in 0..spec.tenants.len() {
            tally.attempts[i] += t.attempts[i];
            tally.refusals[i] += t.refusals[i];
        }
        tally.failures.extend(t.failures);
    }
}

/// After the measured rounds: attach a journal large enough for the whole
/// history (`set_journal` checkpoints every past grant and refusal into
/// it), serve a short burst of the schedule (at most `BURST` requests or
/// half a round), and require the journal to
/// replay every tenant's account bit-for-bit.
fn verify_replay(
    spec: &Spec,
    live: &Live,
    clients: &mut [NetClient],
    next: &AtomicUsize,
    tally: &mut Tally,
) {
    const BURST: usize = 2000;
    let ledger = live.server.ledger();
    let history = (ledger.charges() + ledger.refusals()) as usize;
    let journal = Arc::new(AuditJournal::with_capacity(
        history + spec.tenants.len() + 2 * BURST,
    ));
    ledger.set_journal(Arc::clone(&journal));
    let stop_at = next.load(Ordering::Relaxed) + BURST;
    let deadline = Instant::now() + ROUND / 2;
    let mut burst = Rounds::default();
    round(
        spec, live, clients, next, deadline, stop_at, &mut burst, tally,
    );
    if journal.dropped() > 0 {
        tally.failures.push("replay journal wrapped".into());
    } else if let Err(e) = ledger.verify_replay(&journal) {
        tally.failures.push(format!("audit replay: {e}"));
    }
}

/// Refusals must be exactly those the quotas predict.
fn check_refusals(spec: &Spec, tally: &Tally, report: &mut Report) {
    for (i, t) in spec.tenants.iter().enumerate() {
        let attempts = tally.attempts[i];
        let expected = attempts - attempts.min(t.capacity());
        let got = tally.refusals[i];
        if got != expected {
            report.failed += got.abs_diff(expected);
            report.problems.push(format!(
                "tenant {}: {got} budget refusals of {attempts} asks, expected {expected}",
                t.name
            ));
        }
    }
}

pub fn run(spec: &Spec, run: &Run, report: &mut Report) {
    let live = set_up(spec, run.clients, report);
    let mut setups = vec![live.setup_s];
    let mut clients: Vec<NetClient> = (0..run.clients)
        .map(|_| NetClient::connect(live.net.local_addr()))
        .collect();
    let mut admin = NetClient::connect(live.net.local_addr());
    let scrape = |admin: &mut NetClient| {
        Scrape::parse(&admin.metrics().expect("GET /metrics answers")).expect("exposition parses")
    };
    let before = scrape(&mut admin);

    let next = AtomicUsize::new(0);
    let mut tally = Tally::new(spec);
    // Untraced rounds, and with --trace 1 traced rounds in alternation, so
    // the tracing overhead is measured against paired neighbours.
    let mut plain = Rounds::default();
    let mut traced = Rounds::default();
    let started = Instant::now();
    for r in 0.. {
        // The traced run reports medians only; it splits the time in two.
        let done = if run.trace {
            r % 2 == 0 && traced.secs >= run.seconds / 2.0 && traced.answered.len() >= 100
        } else {
            plain.secs >= run.seconds && plain.answered.len() >= MIN_ANSWERED
        };
        if done || started.elapsed() > MAX_MEASURE {
            break;
        }
        let tracing = run.trace && r % 2 == 1;
        live.server.tracer().set_enabled(tracing);
        let into = if tracing { &mut traced } else { &mut plain };
        let deadline = Instant::now() + ROUND;
        round(
            spec,
            &live,
            &mut clients,
            &next,
            deadline,
            usize::MAX,
            into,
            &mut tally,
        );
    }
    live.server.tracer().set_enabled(false);
    let after = scrape(&mut admin);
    let rss_mb = peak_rss_mb();
    verify_replay(spec, &live, &mut clients, &next, &mut tally);
    report.attempted += tally.attempts.iter().sum::<u64>();
    for f in &tally.failures {
        report.fail(f.clone());
    }
    check_refusals(spec, &tally, report);

    if run.trace {
        layers(spec, run, &live, &plain, &traced, &before, &after, report);
        drop((clients, admin));
        live.stop();
        return;
    }
    let ingest_per_s = ingest_rate(spec, &live, report);
    drop((clients, admin));
    live.stop();
    // The other set-ups run after measuring, so the memory they leave
    // behind in the allocator stays out of `peak_rss_mb`.
    for _ in 1..SETUPS {
        let extra = set_up(spec, run.clients, report);
        setups.push(extra.setup_s);
        extra.stop();
    }

    let rtt: Vec<f64> = plain.answered.iter().map(|a| a.rtt_ms).collect();
    let server: Vec<f64> = plain.answered.iter().map(|a| a.server_ms).collect();
    report.check(supports(rtt.len(), 990), || {
        format!("{} answered requests do not support a p99", rtt.len())
    });
    report.metric("setup_s", median(&setups), "s");
    report.metric("throughput_rps", rtt.len() as f64 / plain.secs, "1/s");
    report.metric("latency_p50_ms", median(&rtt), "ms");
    report.metric("latency_p99_ms", percentile(&rtt, 990), "ms");
    report.metric("mutations_per_s", ingest_per_s, "1/s");
    report.metric("release_p50_ms", median(&server), "ms");
    report.metric("release_p90_ms", percentile(&server, 900), "ms");
    report.metric("peak_rss_mb", rss_mb, "MiB");
    report.note(
        "samples",
        object(&[
            ("latency", rtt.len() as f64),
            ("latency_top_permille", top_permille(rtt.len())),
            ("release", server.len() as f64),
            ("release_top_permille", top_permille(server.len())),
            ("setups", setups.len() as f64),
        ]),
    );
}

/// The traced run's per-layer split. The whole is the traced rounds'
/// client round-trip p50; the parts nest wire ⊃ server ⊃ core estimate ⊃
/// graph/lp/dp, each taken as its span minus its children.
#[allow(clippy::too_many_arguments)]
fn layers(
    spec: &Spec,
    run: &Run,
    live: &Live,
    plain: &Rounds,
    traced: &Rounds,
    before: &Scrape,
    after: &Scrape,
    report: &mut Report,
) {
    let rtt: Vec<f64> = traced.answered.iter().map(|a| a.rtt_ms).collect();
    let server_ms: Vec<f64> = traced.answered.iter().map(|a| a.server_ms).collect();
    let wire_self: Vec<f64> = traced
        .answered
        .iter()
        .map(|a| a.rtt_ms - a.server_ms)
        .collect();
    let whole = median(&rtt);

    let ids: Vec<GraphId> = spec
        .graphs
        .iter()
        .map(|g| GraphId::new(g.id.as_str()))
        .collect();
    let calls: Vec<Call> = spec
        .schedule
        .iter()
        .filter(|a| spec.tenants[a.tenant].capacity() == u64::MAX)
        .take(4096)
        .map(|a| Call {
            tenant: spec.tenants[a.tenant].name.to_string(),
            graph: spec.graphs[a.graph].id.clone(),
            epsilon: spec.tenants[a.tenant].epsilon,
            version: None,
        })
        .collect();
    let server = &live.server;
    let budget = Duration::from_millis(1000);
    let inproc = probes::inproc_ms(server, run.clients, budget, &calls);
    let core_estimate = probes::core_estimate_ms(
        server.registry(),
        server.cache(),
        spec.delta_max,
        run.clients,
        budget,
        &calls,
    );
    let graphs: Vec<&ProbeGraph> = spec.graphs.iter().collect();
    let g = probes::graph_layer(&graphs);
    let largest = spec
        .graphs
        .iter()
        .max_by_key(|g| g.edges.n + g.edges.edges.len())
        .expect("non-empty catalog");
    let (apply_us, snapshot_ms) = probes::stream_layer(&largest.edges, spec.seed);
    let published: Vec<(String, Arc<Graph>)> = spec
        .graphs
        .iter()
        .map(|g| (g.id.clone(), Arc::clone(&g.graph)))
        .collect();

    let common = Common::read(before, after);
    // A warm hit redoes the CSR build, fingerprint and witness walk.
    let hit_graph_ms = g.csr_build_ms + g.fingerprint_ms + g.witness_ms;
    let lp_ms = common.lp_ms_per_estimate;
    let dp_ms = common.mechanisms_s * 1e3;
    let graph_ms = hit_graph_ms.min((core_estimate - lp_ms - dp_ms).max(0.0));
    let core_ms = (core_estimate - graph_ms - lp_ms - dp_ms).max(0.0);
    let net_ms = median(&wire_self);
    let serve_ms = (median(&server_ms) - core_estimate).max(0.0);
    let unattributed = whole - (net_ms + serve_ms + core_ms + graph_ms + lp_ms + dp_ms);
    let net_stats = live.net.stats();

    report.metric("whole_ms_p50", whole, "ms");
    report.metric("unattributed_ms", unattributed, "ms");
    report.metric("net.self_ms_p50", net_ms, "ms");
    report.metric("net.ingest_ms_p50", median(&live.ingest_ms), "ms");
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
    report.metric("serve.publish_ms_p50", probes::publish_ms(&published), "ms");
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
    let errors: Vec<f64> = (plain.answered.iter())
        .chain(&traced.answered)
        .map(|a| a.abs_error)
        .collect();
    report.metric("dp.abs_error_median", median(&errors), "components");
    report.metric("stream.apply_us_p50", apply_us, "us");
    report.metric("stream.snapshot_ms_p50", snapshot_ms, "ms");
    let rps = |r: &Rounds| r.answered.len() as f64 / r.secs;
    report.metric(
        "obs.tracing_overhead_ratio",
        rps(traced) / rps(plain),
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
            ("net", net_ms),
            ("serve", serve_ms),
            ("core", core_ms),
            ("graph", graph_ms),
            ("lp", lp_ms),
            ("dp", dp_ms),
            ("unattributed", unattributed),
            ("net_plus_serve_share", (net_ms + serve_ms) / whole),
            ("core_plus_graph_share", (core_ms + graph_ms) / whole),
        ]),
    );
    report.note(
        "samples",
        object(&[
            ("traced_latency", rtt.len() as f64),
            ("untraced_latency", plain.answered.len() as f64),
            ("ingests", live.ingest_ms.len() as f64),
        ]),
    );
}
