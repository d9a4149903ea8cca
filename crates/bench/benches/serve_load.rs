//! Load generator for the `dlm-serve` online forecasting service and
//! the `dlm-router` sharding tier.
//!
//! Starts the serving stack process-internally, replays a synthetic
//! `dlm-data` cascade hour-by-hour from N concurrent TCP clients (each
//! driving its own cascade), and records per-request latencies and
//! overall throughput. Latency percentiles come from the vendored
//! criterion shim's [`SampleStats`].
//!
//! ```text
//! cargo bench -p dlm-bench --bench serve_load                     # one server, full load
//! cargo bench -p dlm-bench --bench serve_load -- --smoke          # reduced, for CI
//! cargo bench -p dlm-bench --bench serve_load -- --transport binary --batch 8
//! cargo bench -p dlm-bench --bench serve_load -- --router         # router + 2 backends
//! cargo bench -p dlm-bench --bench serve_load -- --smoke --router # CI router smoke
//! cargo bench -p dlm-bench --bench serve_load -- --router --kill-one  # elasticity drill
//! cargo bench -p dlm-bench --bench serve_load -- --smoke --scenario broadcast --scenario storm
//! cargo bench -p dlm-bench --bench serve_load -- --digg-dir data/digg # Digg-2009 CSV replay
//! ```
//!
//! Single-server mode writes `BENCH_serve.json`
//! (`dlm-bench/serve/v4`: one entry in `runs` per measured
//! configuration, each carrying server-side per-verb service-time
//! quantiles from the scraped `metrics` histogram snapshot); router
//! mode fronts **two** backend processes' worth of server state with a
//! `dlm-router` tier and writes `BENCH_router.json`
//! (`dlm-bench/router/v3`). Both go through the `dlm_bench::artifact`
//! schema registry, so a malformed artifact fails the run. Gates make
//! every mode a CI check, not just a stopwatch:
//!
//! * **protocol gate** — every request must come back `"ok": true`
//!   (batch sub-responses are unwrapped and checked individually);
//! * **determinism gate (single)** — after streaming identical vote
//!   streams, all clients issue the same forecast and every response's
//!   model section must be byte-identical across clients *and*
//!   bit-identical to an offline fit+predict on the batch-built
//!   observation — whichever framing and batching carried the votes;
//! * **routing gate (router)** — the *entire response stream* each
//!   client sees through the router (opens, ingests, forecasts) must be
//!   byte-identical to what the same request stream gets from a single
//!   direct server, and the router's aggregated `stats` cache counters
//!   must equal the sum over its backends;
//! * **metrics gate** — after the replay each mode scrapes the
//!   `metrics` verb over the wire and the server-side per-verb request
//!   counters must equal the client-side counts exactly (the router
//!   run checks its tier counters); with `DLM_OBS_SCRAPE_OUT` set, the
//!   text exposition is written there (the CI `obs-smoke` artifact);
//! * **scenario soak (`--scenario <regime>`, repeatable, and/or
//!   `--digg-dir <dir>`)** — replays `dlm-scenarios` factory cascades
//!   (or Digg-2009-format CSVs, generating the synthetic fixture when
//!   the directory is empty) through a graph-only direct server *and* a
//!   routed two-backend tier, gating per regime on protocol behavior
//!   (storm regimes' late votes must be *rejected*), routed-vs-direct
//!   byte identity, served-vs-offline bit identity, slice
//!   re-derivation from `(regime, seed, index)`, per-regime metrics
//!   (`dlm_cascades_opened_total`), and an Eq.-8 accuracy floor;
//!   writes `BENCH_scenarios.json` (`dlm-bench/scenarios/v1`);
//! * **elasticity gate (`--kill-one`)** — three backends with
//!   `data_replicas: 2`: after the load phase one backend is drained
//!   (snapshot handoff, `handoff_ms`), a second is killed outright and
//!   `remove`d (`remap_fraction`), and every client's gate forecast is
//!   re-probed after each transition — `lost_responses` must stay 0 and
//!   every probed byte must match the pre-kill answer.
//!
//! The process exits nonzero on any gate failure.

use criterion::SampleStats;
use dlm_bench::artifact;
use dlm_cascade::hops::hop_density_matrix;
use dlm_cluster::ring::{remap_fraction, HashRing};
use dlm_core::evaluate::Parallelism;
use dlm_core::predict::{GrowthFamily, Observation, PredictionRequest};
use dlm_core::registry::{ModelRegistry, ModelSpec};
use dlm_core::AccuracyTable;
use dlm_data::simulate::simulate_story;
use dlm_data::{DiggDataset, SimulationConfig, StoryPreset, SyntheticWorld, Vote, WorldConfig};
use dlm_graph::DiGraph;
use dlm_router::{RouterConfig, RouterState};
use dlm_scenarios::{
    digg_fixture, find_regime, generate_batch, Delivery, DiggFixtureConfig, ScenarioStream,
};
use dlm_serve::server::{DlmServer, ServeConfig, ServerState};
use dlm_serve::{Json, LineClient, Transport};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

const MAX_HOPS: u32 = 4;
const ROUTER_BACKENDS: usize = 2;

/// The latency-focused lineup: the paper's fixed-parameter DL plus the
/// cheap baselines (calibration-heavy specs belong to the evaluation
/// bench; here every request must be servable at interactive latency).
fn lineup() -> Vec<ModelSpec> {
    vec![
        ModelSpec::paper_hops_dl(),
        ModelSpec::LogisticOnly {
            capacity: 25.0,
            growth: GrowthFamily::PaperHops,
        },
        ModelSpec::Naive,
        ModelSpec::LinearTrend,
    ]
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        lineup: lineup(),
        parallelism: Parallelism::Auto,
        ..ServeConfig::default()
    }
}

/// How the clients speak to the server: which framing each connection
/// negotiates and how many logical requests ride one wire line.
#[derive(Clone, Copy)]
struct LoadOpts {
    transport: Transport,
    /// Hour-steps coalesced into one `batch` line (`1` = one request
    /// per line, the pre-batch wire behavior).
    batch: usize,
}

struct Client {
    inner: LineClient,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        Self {
            inner: LineClient::connect(addr).expect("connect"),
        }
    }

    fn connect_with(addr: SocketAddr, transport: Transport) -> Self {
        let mut client = Self::connect(addr);
        client.inner.negotiate(transport).expect("negotiate");
        client
    }

    /// One request/response round trip; returns (raw response, seconds).
    fn round_trip(&mut self, line: &str) -> (String, f64) {
        let start = Instant::now();
        let response = self.inner.send_raw(line).expect("round trip");
        (response, start.elapsed().as_secs_f64())
    }
}

/// What one client replays: one cascade's worth of hour-sliced votes.
struct Scenario<'a> {
    initiator: usize,
    submit: u64,
    horizon: u32,
    votes_by_hour: &'a [Vec<(u64, usize)>],
    gate_hours: &'a [u32],
    observe_through: u32,
}

impl Scenario<'_> {
    fn ingest_item(&self, cascade: &str, hour0: usize) -> String {
        let votes = &self.votes_by_hour[hour0];
        let body: Vec<String> = votes
            .iter()
            .map(|&(ts, voter)| format!("[{ts},{voter}]"))
            .collect();
        format!(
            r#"{{"type":"ingest","cascade":"{cascade}","votes":[{}],"now":{}}}"#,
            body.join(","),
            self.submit + (hour0 as u64 + 1) * 3600,
        )
    }

    fn forecast_item(&self, cascade: &str, hour: u32) -> String {
        format!(r#"{{"type":"forecast","cascade":"{cascade}","hours":[{hour}]}}"#)
    }
}

/// What one client measured.
struct ClientRun {
    ingest_latencies: Vec<f64>,
    forecast_latencies: Vec<f64>,
    /// Every raw response line, in request order — the router gate
    /// byte-compares this whole stream against a direct server's.
    responses: Vec<String>,
    /// The serialized `models` section of the shared gate forecast.
    gate_models: String,
    ok_responses: usize,
    /// Logical requests (batch sub-requests counted individually).
    requests: usize,
    /// Wire round trips (a batch line counts once).
    wire_lines: usize,
}

fn drive_client(addr: SocketAddr, id: usize, scenario: &Scenario, opts: LoadOpts) -> ClientRun {
    let mut client = Client::connect_with(addr, opts.transport);
    let cascade = format!("c{id}");
    let mut run = ClientRun {
        ingest_latencies: Vec::new(),
        forecast_latencies: Vec::new(),
        responses: Vec::new(),
        gate_models: String::new(),
        ok_responses: 0,
        requests: 0,
        wire_lines: 0,
    };
    let check_one = |run: &mut ClientRun, value: &Json, raw: &str| {
        run.requests += 1;
        if value.get("ok").and_then(Json::as_bool) == Some(true) {
            run.ok_responses += 1;
        } else {
            eprintln!("client {id}: NOT OK: {raw}");
        }
    };
    let check = |run: &mut ClientRun, raw: String| {
        run.wire_lines += 1;
        match Json::parse(&raw) {
            Ok(value) => check_one(run, &value, &raw),
            Err(_) => {
                run.requests += 1;
                eprintln!("client {id}: UNPARSEABLE: {raw}");
            }
        }
        run.responses.push(raw);
    };
    // A batch line answers once; its sub-responses are unwrapped and
    // each counted as one logical request.
    let check_batch = |run: &mut ClientRun, raw: String, expected: usize| {
        run.wire_lines += 1;
        let parsed = Json::parse(&raw).ok();
        let results = parsed
            .as_ref()
            .filter(|v| v.get("ok").and_then(Json::as_bool) == Some(true))
            .and_then(|v| v.get("results"))
            .and_then(Json::as_array);
        match results {
            Some(results) if results.len() == expected => {
                for item in results {
                    check_one(run, item, &raw);
                }
            }
            _ => {
                run.requests += expected;
                eprintln!("client {id}: BAD BATCH RESPONSE: {raw}");
            }
        }
        run.responses.push(raw);
    };

    let (raw, _) = client.round_trip(&format!(
        r#"{{"type":"open","cascade":"{cascade}","initiator":{initiator},"max_hops":{MAX_HOPS},"horizon":{horizon},"submit_time":{submit}}}"#,
        initiator = scenario.initiator,
        horizon = scenario.horizon,
        submit = scenario.submit,
    ));
    check(&mut run, raw);

    if opts.batch <= 1 {
        for hour0 in 0..scenario.votes_by_hour.len() {
            let hour = hour0 as u32 + 1;
            let (raw, secs) = client.round_trip(&scenario.ingest_item(&cascade, hour0));
            check(&mut run, raw);
            run.ingest_latencies.push(secs);

            // Forecast the next hour from everything observed so far —
            // the online serving pattern (observations grow, horizon
            // slides).
            let (raw, secs) = client.round_trip(&scenario.forecast_item(&cascade, hour + 1));
            check(&mut run, raw);
            run.forecast_latencies.push(secs);
        }
    } else {
        // Same logical request sequence — ingest hour h, forecast hour
        // h+1, in order — but `batch` hour-steps ride one wire line.
        let hours: Vec<usize> = (0..scenario.votes_by_hour.len()).collect();
        for chunk in hours.chunks(opts.batch) {
            let items: Vec<String> = chunk
                .iter()
                .flat_map(|&hour0| {
                    [
                        scenario.ingest_item(&cascade, hour0),
                        scenario.forecast_item(&cascade, hour0 as u32 + 2),
                    ]
                })
                .collect();
            let (raw, secs) = client.round_trip(&format!(
                r#"{{"type":"batch","requests":[{}]}}"#,
                items.join(",")
            ));
            check_batch(&mut run, raw, items.len());
            run.ingest_latencies.push(secs);
        }
    }

    // The shared determinism gate: identical observation, identical
    // request, so the model section must be byte-identical everywhere.
    // Always a single line (never batched), so the gate isolates the
    // forecast path from the batching machinery.
    let gate_list: Vec<String> = scenario
        .gate_hours
        .iter()
        .map(ToString::to_string)
        .collect();
    let (raw, secs) = client.round_trip(&format!(
        r#"{{"type":"forecast","cascade":"{cascade}","hours":[{}],"through":{}}}"#,
        gate_list.join(","),
        scenario.observe_through,
    ));
    run.forecast_latencies.push(secs);
    let parsed = Json::parse(&raw).expect("gate response parses");
    run.gate_models = parsed
        .get("models")
        .map(ToString::to_string)
        .unwrap_or_default();
    check(&mut run, raw);
    run
}

/// Replays the scenario from `clients` concurrent connections against
/// one address. Returns the per-client measurements and the wall time.
fn replay(
    addr: SocketAddr,
    clients: usize,
    scenario: &Scenario,
    opts: LoadOpts,
) -> (Vec<ClientRun>, f64) {
    let wall = Instant::now();
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|id| scope.spawn(move || drive_client(addr, id, scenario, opts)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    (runs, wall.elapsed().as_secs_f64())
}

fn stats_json(samples: &[f64]) -> String {
    match SampleStats::from_samples(samples) {
        Some(s) => format!(
            "{{\"n\": {}, \"mean_ms\": {:.3}, \"stddev_ms\": {:.3}, \"p50_ms\": {:.3}, \
             \"p95_ms\": {:.3}, \"max_ms\": {:.3}}}",
            s.n,
            s.mean * 1e3,
            s.stddev * 1e3,
            s.p50 * 1e3,
            s.p95 * 1e3,
            s.max * 1e3,
        ),
        None => "null".into(),
    }
}

fn print_latencies(ingest: &[f64], forecast: &[f64]) {
    if let (Some(i), Some(f)) = (
        SampleStats::from_samples(ingest),
        SampleStats::from_samples(forecast),
    ) {
        eprintln!(
            "ingest   p50 {:>8.2} ms  p95 {:>8.2} ms  (n {})\nforecast p50 {:>8.2} ms  p95 {:>8.2} ms  (n {})",
            i.p50 * 1e3,
            i.p95 * 1e3,
            i.n,
            f.p50 * 1e3,
            f.p95 * 1e3,
            f.n,
        );
    }
}

/// One `metrics` scrape over the wire: the parsed response plus its
/// structured snapshot (empty on a malformed response — the caller's
/// counter checks then fail loudly instead of panicking mid-bench).
fn scrape_metrics(addr: SocketAddr) -> (Json, dlm_obs::MetricsSnapshot) {
    let mut client = Client::connect(addr);
    let (raw, _) = client.round_trip(r#"{"type":"metrics"}"#);
    let parsed = Json::parse(&raw).expect("metrics response parses");
    let snapshot = parsed
        .get("snapshot")
        .and_then(|s| dlm_serve::snapshot_from_json(s).ok())
        .unwrap_or_default();
    (parsed, snapshot)
}

/// Appends one labeled text exposition to `DLM_OBS_SCRAPE_OUT` (no-op
/// when unset); `main` truncates the file once per process, so the CI
/// artifact holds exactly this invocation's scrapes.
fn record_scrape(label: &str, response: &Json) {
    let Ok(path) = std::env::var("DLM_OBS_SCRAPE_OUT") else {
        return;
    };
    let exposition = response
        .get("exposition")
        .and_then(Json::as_str)
        .unwrap_or_default();
    use std::io::Write;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .expect("open scrape out");
    write!(file, "# scrape: {label}\n{exposition}\n").expect("write scrape");
    eprintln!("[{label}] scrape appended to {path}");
}

/// The per-verb `service_times` object for the serve artifact:
/// server-side p50/p95 (ms) read from the scraped `dlm_service_micros`
/// histograms, one entry per verb that recorded observations.
fn service_times_json(snapshot: &dlm_obs::MetricsSnapshot) -> String {
    let entries: Vec<String> = dlm_serve::telemetry::VERB_LABELS
        .iter()
        .filter_map(|&verb| {
            let h = snapshot.histogram("dlm_service_micros", &[("verb", verb)])?;
            if h.count == 0 {
                return None;
            }
            let ms = |q: f64| h.quantile(q).unwrap_or(0.0) / 1e3;
            Some(format!(
                "\"{verb}\": {{\"count\": {}, \"p50_ms\": {:.3}, \"p95_ms\": {:.3}}}",
                h.count,
                ms(0.5),
                ms(0.95),
            ))
        })
        .collect();
    format!("{{{}}}", entries.join(", "))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let value_of = |name: &str| {
        args.iter().position(|a| a == name).map(|i| {
            args.get(i + 1).unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                std::process::exit(2);
            })
        })
    };
    let smoke = flag("--smoke");
    let router_mode = flag("--router");
    let kill_one = flag("--kill-one");
    let transport = match value_of("--transport").map(String::as_str) {
        Some("binary") => Transport::Binary,
        Some("lines") | None => Transport::Lines,
        Some(other) => {
            eprintln!("unknown transport `{other}` (lines|binary)");
            std::process::exit(2);
        }
    };
    let batch: usize = value_of("--batch").map_or(1, |v| {
        v.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
            eprintln!("--batch takes a positive integer");
            std::process::exit(2);
        })
    });
    // `--scenario` is repeatable; collect every occurrence in order.
    let scenario_regimes: Vec<String> = args
        .iter()
        .enumerate()
        .filter(|(_, a)| *a == "--scenario")
        .map(|(i, _)| {
            args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("missing value for --scenario");
                std::process::exit(2);
            })
        })
        .collect();
    let digg_dir = value_of("--digg-dir").cloned();
    assert!(
        router_mode || !kill_one,
        "--kill-one requires --router (there is nothing to fail over to)"
    );
    if !scenario_regimes.is_empty() || digg_dir.is_some() {
        assert!(
            !router_mode && batch == 1,
            "--scenario/--digg-dir is its own mode (it drives both tiers itself; \
             deliveries are semantic units, so --batch does not apply)"
        );
        if let Ok(path) = std::env::var("DLM_OBS_SCRAPE_OUT") {
            std::fs::write(&path, "").expect("truncate scrape out");
        }
        run_scenario_soak(&scenario_regimes, digg_dir.as_deref(), smoke, transport);
        return;
    }
    let (scale, clients, horizon) = if smoke {
        (0.06, 4, 5u32)
    } else {
        // Full mode sizes the client herd to the machine so throughput
        // numbers are comparable across runners (recorded alongside
        // `hardware_threads` in the artifact).
        (0.15, artifact::hardware_threads().clamp(8, 16), 8u32)
    };
    let observe_through = 2u32;
    assert!(
        clients >= 4,
        "the load gate requires >= 4 concurrent connections"
    );

    eprintln!("generating synthetic world (scale {scale})...");
    let world = SyntheticWorld::generate(WorldConfig::default().scaled(scale)).expect("world");
    let story = simulate_story(
        &world,
        &StoryPreset::s1(),
        SimulationConfig {
            hours: horizon + 2,
            substeps: 2,
            seed: 13,
        },
    )
    .expect("simulation");
    let submit = story.submit_time();

    // Bucket the vote log per hour for the replay loop.
    let mut votes_by_hour: Vec<Vec<(u64, usize)>> = vec![Vec::new(); horizon as usize];
    for vote in story.votes() {
        let bucket = ((vote.timestamp - submit) / 3600) as usize;
        if bucket < votes_by_hour.len() {
            votes_by_hour[bucket].push((vote.timestamp, vote.voter));
        }
    }
    let replayed: usize = votes_by_hour.iter().map(Vec::len).sum();
    let gate_hours: Vec<u32> = (observe_through + 1..=horizon).collect();
    let scenario = Scenario {
        initiator: story.initiator(),
        submit,
        horizon,
        votes_by_hour: &votes_by_hour,
        gate_hours: &gate_hours,
        observe_through,
    };
    eprintln!("replaying {replayed} votes over {horizon} hours from {clients} concurrent clients");

    // Start the scrape artifact fresh; each run appends its exposition.
    if let Ok(path) = std::env::var("DLM_OBS_SCRAPE_OUT") {
        std::fs::write(&path, "").expect("truncate scrape out");
    }

    let opts = LoadOpts { transport, batch };
    if router_mode {
        run_router_load(&world, &scenario, clients, replayed, smoke, kill_one, opts);
    } else {
        run_single_load(&world, &story, &scenario, clients, replayed, smoke, opts);
    }
}

/// One measured single-server configuration, ready to serialize as an
/// entry of the serve artifact's `runs` array.
struct RunResult {
    label: String,
    opts: LoadOpts,
    requests: usize,
    wire_lines: usize,
    wall_secs: f64,
    throughput: f64,
    ingest: Vec<f64>,
    forecast: Vec<f64>,
    cache: (u64, u64, u64),
    /// Ready-to-embed JSON object: server-side per-verb p50/p95 from
    /// the scraped `dlm_service_micros` histograms.
    service_times: String,
    protocol_ok: bool,
    metrics_ok: bool,
    identical: bool,
}

impl RunResult {
    fn to_json(&self) -> String {
        format!(
            "{{\"label\": \"{label}\", \"transport\": \"{transport}\", \
             \"batch\": {batch}, \"requests\": {requests}, \"wire_lines\": {wire}, \
             \"wall_seconds\": {wall:.3}, \"throughput_rps\": {rps:.2}, \
             \"ingest_latency\": {ingest}, \"forecast_latency\": {forecast}, \
             \"service_times\": {service_times}, \
             \"cache\": {{\"hits\": {hits}, \"misses\": {misses}, \"evictions\": {evictions}}}, \
             \"protocol_ok\": {protocol_ok}, \"metrics_ok\": {metrics_ok}, \
             \"outputs_identical\": {identical}}}",
            label = self.label,
            transport = self.opts.transport.wire_name(),
            batch = self.opts.batch,
            requests = self.requests,
            wire = self.wire_lines,
            wall = self.wall_secs,
            rps = self.throughput,
            ingest = stats_json(&self.ingest),
            forecast = stats_json(&self.forecast),
            service_times = self.service_times,
            hits = self.cache.0,
            misses = self.cache.1,
            evictions = self.cache.2,
            protocol_ok = self.protocol_ok,
            metrics_ok = self.metrics_ok,
            identical = self.identical,
        )
    }

    fn gates_pass(&self) -> bool {
        self.protocol_ok && self.metrics_ok && self.identical
    }
}

/// Binds a fresh server, replays the scenario, and runs the protocol +
/// cross-client + served-vs-offline gates.
fn run_one(
    world: &SyntheticWorld,
    story: &dlm_data::Cascade,
    scenario: &Scenario,
    clients: usize,
    opts: LoadOpts,
) -> RunResult {
    let label = "single";
    let state = ServerState::with_world(serve_config(), world.clone()).expect("server state");
    let mut server = DlmServer::bind("127.0.0.1:0", state).expect("bind");
    eprintln!(
        "[{label}] {transport} transport, batch {batch} on {addr}",
        transport = opts.transport.wire_name(),
        batch = opts.batch,
        addr = server.local_addr(),
    );
    let (runs, wall_secs) = replay(server.local_addr(), clients, scenario, opts);

    // Protocol gate.
    let requests: usize = runs.iter().map(|r| r.requests).sum();
    let wire_lines: usize = runs.iter().map(|r| r.wire_lines).sum();
    let ok_responses: usize = runs.iter().map(|r| r.ok_responses).sum();
    let protocol_ok = requests == ok_responses;
    if !protocol_ok {
        eprintln!("[{label}] PROTOCOL GATE FAILED: {ok_responses}/{requests} responses ok");
    }

    // Cross-client determinism gate.
    let mut identical = runs
        .windows(2)
        .all(|pair| pair[0].gate_models == pair[1].gate_models)
        && !runs[0].gate_models.is_empty();
    if !identical {
        eprintln!("[{label}] DETERMINISM GATE FAILED: gate forecasts differ across clients");
    }

    // Offline bit-identity gate: the served gate forecast must equal a
    // batch fit+predict on the same observation window.
    let batch_matrix =
        hop_density_matrix(world.graph(), story, MAX_HOPS, scenario.horizon).expect("batch matrix");
    let observed_hours: Vec<u32> = (1..=scenario.observe_through).collect();
    let observation =
        Observation::from_matrix(&batch_matrix, &observed_hours).expect("observation");
    let distances: Vec<u32> = (1..=batch_matrix.max_distance()).collect();
    let request =
        PredictionRequest::new(distances.clone(), scenario.gate_hours.to_vec()).expect("request");
    let registry = ModelRegistry::with_builtins();
    let served = Json::parse(&runs[0].gate_models).expect("gate models parse");
    let served = served.as_array().expect("models array");
    for (mi, spec) in lineup().iter().enumerate() {
        let fitted = registry
            .build(spec)
            .expect("registry build")
            .fit(&observation)
            .expect("offline fit");
        let prediction = fitted.predict(&request).expect("offline predict");
        let values = served[mi]
            .get("values")
            .and_then(Json::as_array)
            .expect("values");
        for (di, &d) in distances.iter().enumerate() {
            let row = values[di].as_array().expect("row");
            for (hi, &h) in scenario.gate_hours.iter().enumerate() {
                let served_bits = row[hi].as_f64().map(f64::to_bits);
                let offline_bits = Some(prediction.at(d, h).expect("cell").to_bits());
                if served_bits != offline_bits {
                    eprintln!(
                        "[{label}] DETERMINISM GATE FAILED: {spec} I({d},{h}) served {served_bits:?} != offline {offline_bits:?}"
                    );
                    identical = false;
                }
            }
        }
    }

    let ingest: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.ingest_latencies.clone())
        .collect();
    let forecast: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.forecast_latencies.clone())
        .collect();
    let throughput = requests as f64 / wall_secs.max(1e-9);
    let state = server.state();
    let cache = state.cache().stats();

    // Metrics gate: the server's own counters must equal the client-side
    // counts exactly (a `metrics` request books its own counters only
    // after its snapshot is taken, so the scrape never counts itself).
    let (metrics_response, snapshot) = scrape_metrics(server.local_addr());
    record_scrape(label, &metrics_response);
    let horizon = scenario.votes_by_hour.len();
    let batch_lines = if opts.batch > 1 {
        clients * horizon.div_ceil(opts.batch)
    } else {
        0
    };
    let expected = [
        ("open", clients),
        ("ingest", clients * horizon),
        ("forecast", clients * (horizon + 1)),
        ("batch", batch_lines),
        ("stats", 0),
        ("metrics", 0),
        ("invalid", 0),
    ];
    let mut metrics_ok = true;
    for (verb, want) in expected {
        let got = snapshot.counter("dlm_requests_total", &[("verb", verb)]);
        if got != Some(want as u64) {
            metrics_ok = false;
            eprintln!(
                "[{label}] METRICS GATE FAILED: dlm_requests_total{{verb=\"{verb}\"}} \
                 = {got:?}, want {want}"
            );
        }
    }
    let transport = opts.transport.wire_name();
    let wire_counted = snapshot.counter("dlm_wire_requests_total", &[("transport", transport)]);
    if wire_counted != Some(wire_lines as u64) {
        metrics_ok = false;
        eprintln!(
            "[{label}] METRICS GATE FAILED: dlm_wire_requests_total{{transport=\"{transport}\"}} \
             = {wire_counted:?}, want {wire_lines}"
        );
    }
    let service_times = service_times_json(&snapshot);

    print_latencies(&ingest, &forecast);
    eprintln!(
        "[{label}] {requests} requests ({wire_lines} wire lines) over {clients} connections \
         in {wall_secs:.2}s -> {throughput:.1} req/s"
    );
    server.shutdown();
    RunResult {
        label: label.to_owned(),
        opts,
        requests,
        wire_lines,
        wall_secs,
        throughput,
        ingest,
        forecast,
        cache: (cache.hits, cache.misses, cache.evictions),
        service_times,
        protocol_ok,
        metrics_ok,
        identical,
    }
}

fn write_serve_artifact(
    runs: &[RunResult],
    scenario: &Scenario,
    clients: usize,
    replayed: usize,
    smoke: bool,
) {
    let entries: Vec<String> = runs.iter().map(RunResult::to_json).collect();
    let json = format!(
        "{{\n  \"schema\": \"{schema}\",\n  \"mode\": \"{mode}\",\n  \
         \"hardware_threads\": {threads},\n  \"clients\": {clients},\n  \
         \"hours_streamed\": {horizon},\n  \"votes_replayed_per_client\": {replayed},\n  \
         \"runs\": [\n    {entries}\n  ]\n}}\n",
        schema = artifact::SERVE_SCHEMA,
        mode = if smoke { "smoke" } else { "full" },
        threads = artifact::hardware_threads(),
        horizon = scenario.horizon,
        entries = entries.join(",\n    "),
    );
    let out = artifact::bench_out("BENCH_serve.json");
    artifact::write(&out, &json).expect("valid serve artifact");
    eprintln!("wrote {out}");
}

/// Single-server mode: one configuration, one `runs` entry.
#[allow(clippy::too_many_arguments)]
fn run_single_load(
    world: &SyntheticWorld,
    story: &dlm_data::Cascade,
    scenario: &Scenario,
    clients: usize,
    replayed: usize,
    smoke: bool,
    opts: LoadOpts,
) {
    let run = run_one(world, story, scenario, clients, opts);
    let ok = run.gates_pass();
    write_serve_artifact(&[run], scenario, clients, replayed, smoke);
    if !ok {
        std::process::exit(1);
    }
}

/// Router mode: the same replay through a `dlm-router` tier fronting
/// two backends (three with `--kill-one`, which then drains one node,
/// kills another, and re-probes every client), byte-compared against a
/// direct single-server replay. Writes `BENCH_router.json`.
#[allow(clippy::too_many_arguments)]
fn run_router_load(
    world: &SyntheticWorld,
    scenario: &Scenario,
    clients: usize,
    replayed: usize,
    smoke: bool,
    kill_one: bool,
    opts: LoadOpts,
) {
    // The elasticity drill needs a third node (one to drain, one to
    // kill, one survivor) and a second copy of every cascade so the
    // kill loses nothing.
    let backend_count = if kill_one { 3 } else { ROUTER_BACKENDS };
    let data_replicas = if kill_one { 2 } else { 1 };
    let mut backends: Vec<DlmServer<ServerState>> = (0..backend_count)
        .map(|_| {
            let state =
                ServerState::with_world(serve_config(), world.clone()).expect("backend state");
            DlmServer::bind("127.0.0.1:0", state).expect("bind backend")
        })
        .collect();
    let backend_addrs: Vec<String> = backends
        .iter()
        .map(|b| b.local_addr().to_string())
        .collect();
    let router = RouterState::new(RouterConfig {
        data_replicas,
        // The router's backend pools speak the same framing the clients
        // chose, so a binary run exercises the negotiated transport on
        // both tiers.
        backend_transport: opts.transport,
        ..RouterConfig::new(backend_addrs.clone())
    })
    .expect("router state");
    let shards: Vec<usize> = (0..clients)
        .map(|id| router.shard_of(&format!("c{id}")))
        .collect();
    let front = DlmServer::bind("127.0.0.1:0", router).expect("bind router");
    eprintln!(
        "router on {} over {backend_count} backends (data replicas {data_replicas}, \
         backend transport {transport}); client shards {shards:?}",
        front.local_addr(),
        transport = opts.transport.wire_name(),
    );

    let direct_state =
        ServerState::with_world(serve_config(), world.clone()).expect("direct state");
    let direct = DlmServer::bind("127.0.0.1:0", direct_state).expect("bind direct");

    // The measured run goes through the router; the mirror run replays
    // the identical request streams against one direct server.
    let (routed_runs, wall_secs) = replay(front.local_addr(), clients, scenario, opts);
    let (direct_runs, _) = replay(direct.local_addr(), clients, scenario, opts);

    // Protocol gate (routed run).
    let requests: usize = routed_runs.iter().map(|r| r.requests).sum();
    let ok_responses: usize = routed_runs.iter().map(|r| r.ok_responses).sum();
    let protocol_ok = requests == ok_responses;
    if !protocol_ok {
        eprintln!("PROTOCOL GATE FAILED: {ok_responses}/{requests} responses ok");
    }

    // Routing gate: every response byte a client saw through the router
    // equals what the direct server answered to the same request.
    let mut identical = true;
    for (id, (routed, direct)) in routed_runs.iter().zip(&direct_runs).enumerate() {
        if routed.responses != direct.responses {
            identical = false;
            let diverged = routed
                .responses
                .iter()
                .zip(&direct.responses)
                .position(|(a, b)| a != b);
            eprintln!(
                "ROUTING GATE FAILED: client {id} (shard {}) diverges from the direct server \
                 at response {diverged:?}",
                shards[id],
            );
        }
    }
    // And the cross-client gate still holds through the router.
    let gates_match = routed_runs
        .windows(2)
        .all(|pair| pair[0].gate_models == pair[1].gate_models)
        && !routed_runs[0].gate_models.is_empty();
    if !gates_match {
        identical = false;
        eprintln!("ROUTING GATE FAILED: gate forecasts differ across routed clients");
    }

    // Aggregated stats: cache counters must equal the sum over shards.
    let mut stats_client = Client::connect(front.local_addr());
    let (stats_raw, _) = stats_client.round_trip(r#"{"type":"stats"}"#);
    let stats = Json::parse(&stats_raw).expect("router stats parse");
    let nested = |outer: &str, key: &str| -> u64 {
        stats
            .get("aggregate")
            .and_then(|a| a.get(outer))
            .and_then(|c| c.get(key))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    let shard_sum = |key: &str| -> u64 {
        stats
            .get("backends")
            .and_then(Json::as_array)
            .map(|entries| {
                entries
                    .iter()
                    .filter_map(|e| {
                        e.get("stats")
                            .and_then(|s| s.get("cache"))
                            .and_then(|c| c.get(key))
                            .and_then(Json::as_u64)
                    })
                    .sum()
            })
            .unwrap_or(0)
    };
    for key in ["hits", "misses", "evictions"] {
        if nested("cache", key) != shard_sum(key) {
            identical = false;
            eprintln!(
                "STATS GATE FAILED: aggregate cache.{key} {} != shard sum {}",
                nested("cache", key),
                shard_sum(key)
            );
        }
    }
    let routed_counts: Vec<u64> = stats
        .get("router")
        .and_then(|r| r.get("routed"))
        .and_then(Json::as_array)
        .map(|arr| arr.iter().filter_map(Json::as_u64).collect())
        .unwrap_or_default();

    // Metrics gate (router tier): the router's per-verb counters must
    // equal the client-side counts. The backend aggregate's merge math
    // is pinned by the router's own tests; the bench checks the tier
    // view — scraped before the elasticity drill mutates the cluster.
    let (metrics_response, merged) = scrape_metrics(front.local_addr());
    record_scrape("router", &metrics_response);
    let horizon = scenario.votes_by_hour.len();
    let batch_lines = if opts.batch > 1 {
        clients * horizon.div_ceil(opts.batch)
    } else {
        0
    };
    let expected = [
        ("open", clients),
        ("ingest", clients * horizon),
        ("forecast", clients * (horizon + 1)),
        ("batch", batch_lines),
        ("stats", 1), // the stats gate above sent exactly one line
        ("metrics", 0),
        ("invalid", 0),
    ];
    let mut metrics_ok = true;
    for (verb, want) in expected {
        let got = merged.counter(
            "dlm_router_requests_total",
            &[("verb", verb), ("tier", "router")],
        );
        if got != Some(want as u64) {
            metrics_ok = false;
            eprintln!(
                "METRICS GATE FAILED: dlm_router_requests_total{{verb=\"{verb}\"}} \
                 = {got:?}, want {want}"
            );
        }
    }
    if let Some(unreachable) = metrics_response
        .get("backends_unreachable")
        .and_then(Json::as_u64)
    {
        metrics_ok = false;
        eprintln!("METRICS GATE FAILED: scrape reported {unreachable} unreachable backend(s)");
    }

    // The elasticity drill: drain one node (measured handoff), kill and
    // `remove` another (measured remap), and after every transition
    // re-probe each client's gate forecast. Replication must make the
    // whole sequence lossless: zero lost responses, byte-identical
    // answers throughout.
    let mut lost_responses = 0usize;
    let mut remap = 0.0f64;
    let mut handoff_ms_json = "null".to_owned();
    let mut rejoin_ms_json = "null".to_owned();
    let mut repair_count = 0u64;
    if kill_one {
        let gate_list: Vec<String> = scenario
            .gate_hours
            .iter()
            .map(ToString::to_string)
            .collect();
        let gate_line = |id: usize| {
            format!(
                r#"{{"type":"forecast","cascade":"c{id}","hours":[{}],"through":{}}}"#,
                gate_list.join(","),
                scenario.observe_through,
            )
        };
        let probe_all = |label: &str, lost: &mut usize| {
            for (id, run) in routed_runs.iter().enumerate() {
                let expected = run.responses.last().expect("gate response recorded");
                let answered = LineClient::connect(front.local_addr())
                    .and_then(|mut c| c.send_raw(&gate_line(id)))
                    .ok();
                if answered.as_ref() != Some(expected) {
                    *lost += 1;
                    eprintln!(
                        "ELASTICITY GATE FAILED ({label}): client {id} got {answered:?}, \
                         expected the pre-transition bytes"
                    );
                }
            }
        };
        let mut admin = Client::connect(front.local_addr());

        // 1. Drain the third backend: its cascades hand off while it is
        //    still alive. `handoff_ms` is the routing pause the swap cost.
        let (drain_raw, _) = admin.round_trip(&format!(
            r#"{{"type":"drain","backend":"{}"}}"#,
            backend_addrs[2]
        ));
        let drain = Json::parse(&drain_raw).expect("drain response parse");
        if drain.get("ok").and_then(Json::as_bool) != Some(true) {
            eprintln!("ELASTICITY GATE FAILED: drain rejected: {drain_raw}");
            lost_responses += clients;
        }
        if let Some(ms) = drain.get("handoff_ms").and_then(Json::as_f64) {
            handoff_ms_json = format!("{ms:.3}");
        }
        eprintln!(
            "drained {}: migrated {} evicted {} in {} ms",
            backend_addrs[2],
            drain.get("migrated").and_then(Json::as_u64).unwrap_or(0),
            drain.get("evicted").and_then(Json::as_u64).unwrap_or(0),
            handoff_ms_json,
        );
        probe_all("post-drain", &mut lost_responses);

        // 2. Kill the second backend outright — no goodbye, mid-service.
        //    Reads must fail over to the surviving replica instantly.
        backends[1].shutdown();
        probe_all("post-kill", &mut lost_responses);

        // 3. Fail-stop `remove`: survivors re-replicate, the ring shrinks.
        //    `remap_fraction` is the keyspace share the dead node owned,
        //    computed from the same ring the router routes with.
        let survivors: Vec<String> = vec![backend_addrs[0].clone()];
        let both: Vec<String> = vec![backend_addrs[0].clone(), backend_addrs[1].clone()];
        remap = remap_fraction(
            &HashRing::new(&both, HashRing::DEFAULT_REPLICAS).expect("ring"),
            &both,
            &HashRing::new(&survivors, HashRing::DEFAULT_REPLICAS).expect("ring"),
            &survivors,
        );
        let (remove_raw, _) = admin.round_trip(&format!(
            r#"{{"type":"remove","backend":"{}"}}"#,
            backend_addrs[1]
        ));
        let removal = Json::parse(&remove_raw).expect("remove response parse");
        if removal.get("ok").and_then(Json::as_bool) != Some(true) {
            eprintln!("ELASTICITY GATE FAILED: remove rejected: {remove_raw}");
            lost_responses += clients;
        }
        probe_all("post-remove", &mut lost_responses);
        eprintln!(
            "removed {}: remap fraction {remap:.4}, ring version {}",
            backend_addrs[1],
            removal
                .get("ring_version")
                .and_then(Json::as_u64)
                .unwrap_or(0),
        );

        // 4. Auto-rejoin: the killed node restarts on its old address
        //    and announces itself with the `rejoin` verb — the same
        //    line a `--announce` backend sends on boot — instead of an
        //    operator `join`. Re-admission replicates its share back
        //    under a bumped ring, and every *unaffected* shard must
        //    keep answering the exact pre-rejoin bytes: probe_all
        //    compares against the recorded responses, so any remap of
        //    a surviving shard shows up as a lost response.
        let restarted_state =
            ServerState::with_world(serve_config(), world.clone()).expect("restarted state");
        let restarted =
            DlmServer::bind(&backend_addrs[1], restarted_state).expect("rebind killed backend");
        let (rejoin_raw, _) = admin.round_trip(&format!(
            r#"{{"type":"rejoin","backend":"{}"}}"#,
            backend_addrs[1]
        ));
        let rejoin = Json::parse(&rejoin_raw).expect("rejoin response parse");
        if rejoin.get("ok").and_then(Json::as_bool) != Some(true) {
            eprintln!("ELASTICITY GATE FAILED: rejoin rejected: {rejoin_raw}");
            lost_responses += clients;
        }
        if let Some(ms) = rejoin.get("rejoin_ms").and_then(Json::as_f64) {
            rejoin_ms_json = format!("{ms:.3}");
        }
        repair_count = rejoin.get("repaired").and_then(Json::as_u64).unwrap_or(0);
        eprintln!(
            "rejoined {}: repaired {repair_count} in {rejoin_ms_json} ms, ring version {}",
            backend_addrs[1],
            rejoin
                .get("ring_version")
                .and_then(Json::as_u64)
                .unwrap_or(0),
        );
        probe_all("post-rejoin", &mut lost_responses);
        drop(restarted);

        if lost_responses > 0 {
            identical = false;
            eprintln!("ELASTICITY GATE FAILED: {lost_responses} lost responses (must be 0)");
        }
    }

    let ingest: Vec<f64> = routed_runs
        .iter()
        .flat_map(|r| r.ingest_latencies.clone())
        .collect();
    let forecast: Vec<f64> = routed_runs
        .iter()
        .flat_map(|r| r.forecast_latencies.clone())
        .collect();
    let throughput = requests as f64 / wall_secs.max(1e-9);
    let json = format!(
        "{{\n  \"schema\": \"{schema}\",\n  \"mode\": \"{mode}\",\n  \
         \"backends\": {backend_count},\n  \"clients\": {clients},\n  \
         \"data_replicas\": {data_replicas},\n  \
         \"hardware_threads\": {threads},\n  \"transport\": \"{transport}\",\n  \
         \"hours_streamed\": {horizon},\n  \"votes_replayed_per_client\": {replayed},\n  \
         \"requests\": {requests},\n  \"wall_seconds\": {wall_secs:.3},\n  \
         \"throughput_rps\": {throughput:.2},\n  \"ingest_latency\": {ingest},\n  \
         \"forecast_latency\": {forecast},\n  \"routed_per_backend\": {routed_counts:?},\n  \
         \"aggregate_cache\": {{\"hits\": {hits}, \"misses\": {misses}, \"evictions\": {evictions}}},\n  \
         \"remap_fraction\": {remap:.6},\n  \"handoff_ms\": {handoff_ms_json},\n  \
         \"rejoin_ms\": {rejoin_ms_json},\n  \"repair_count\": {repair_count},\n  \
         \"lost_responses\": {lost_responses},\n  \
         \"protocol_ok\": {protocol_ok},\n  \"routed_identical\": {identical}\n}}\n",
        schema = artifact::ROUTER_SCHEMA,
        mode = if smoke { "smoke" } else { "full" },
        threads = artifact::hardware_threads(),
        transport = opts.transport.wire_name(),
        horizon = scenario.horizon,
        ingest = stats_json(&ingest),
        forecast = stats_json(&forecast),
        hits = nested("cache", "hits"),
        misses = nested("cache", "misses"),
        evictions = nested("cache", "evictions"),
    );
    let out = artifact::bench_out("BENCH_router.json");
    artifact::write(&out, &json).expect("valid router artifact");

    print_latencies(&ingest, &forecast);
    eprintln!(
        "{requests} routed requests over {clients} connections in {wall_secs:.2}s -> \
         {throughput:.1} req/s (routed per backend: {routed_counts:?}) -> {out}"
    );
    drop(front);
    drop(backends);
    if !(protocol_ok && metrics_ok && identical) {
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------------
// Scenario-factory soak: `--scenario <regime>` / `--digg-dir <dir>`
// ---------------------------------------------------------------------------

/// Seed of every `--scenario` stream. Recorded in the artifact so a
/// failing cascade is nameable as `(regime, SCENARIO_SEED, index)` and
/// re-derivable anywhere — see `docs/SCENARIOS.md`.
const SCENARIO_SEED: u64 = 42;

/// Observed hours the soak's gate forecast (and its offline mirror)
/// fits on; gate hours are everything after, up to the horizon.
const SOAK_OBSERVE_THROUGH: u32 = 2;

/// Hours each digg story is replayed and forecast over.
const DIGG_HORIZON: u32 = 8;

/// Per-regime Eq.-8 accuracy floor for the paper's fixed-parameter DL
/// model on the held-out hours. The factory regimes are intentionally
/// adversarial — broadcast and storm shapes are exactly what the DL
/// PDE does *not* model — so the floors encode "never regress below
/// today's behavior", not the paper's 92–99%. `None` = track only.
/// (Measured at seed 42: broadcast ≈ 0.25, viral ≈ 0.22,
/// bridged ≈ 0.34, erdos-viral ≈ 0.17, surge ≈ 0.10, storm ≈ 0.16,
/// digg fixture ≈ 0.23 — the floors sit at roughly half of those.)
fn accuracy_floor(regime: &str) -> Option<f64> {
    match regime {
        "broadcast" => Some(0.12),
        "viral" => Some(0.10),
        "bridged" => Some(0.15),
        "erdos-viral" => Some(0.08),
        "surge" => Some(0.04),
        "storm" => Some(0.07),
        "digg" => Some(0.10),
        _ => None,
    }
}

/// One replayable cascade in wire form — a factory
/// [`dlm_scenarios::ScenarioCascade`] or one story of a Digg dataset.
struct SoakCascade {
    wire_name: String,
    regime_label: &'static str,
    initiator: usize,
    submit: u64,
    horizon: u32,
    deliveries: Vec<Delivery>,
}

impl SoakCascade {
    /// The votes a correct server ends up counting, as batch-side
    /// [`Vote`]s — the offline half of the identity gate.
    fn accepted_votes(&self, story: u32) -> Vec<Vote> {
        self.deliveries
            .iter()
            .filter(|d| !d.late)
            .flat_map(|d| {
                d.votes.iter().map(move |&(timestamp, voter)| Vote {
                    timestamp,
                    voter,
                    story,
                })
            })
            .collect()
    }

    fn clean_deliveries(&self) -> usize {
        self.deliveries.iter().filter(|d| !d.late).count()
    }
}

/// What one soak client observed.
struct SoakRun {
    /// Every raw response line in request order (the routed tier is
    /// byte-compared against the direct tier through this).
    responses: Vec<String>,
    requests: usize,
    /// Responses whose ok-ness contradicted the delivery schedule:
    /// late deliveries must fail, everything else must succeed.
    mismatches: usize,
    late_rejections: usize,
    ingest_latencies: Vec<f64>,
    forecast_latencies: Vec<f64>,
    gate_models: String,
}

fn drive_soak_client(
    addr: SocketAddr,
    cascade: &SoakCascade,
    gate_hours: &[u32],
    transport: Transport,
) -> SoakRun {
    let mut client = Client::connect_with(addr, transport);
    let mut run = SoakRun {
        responses: Vec::new(),
        requests: 0,
        mismatches: 0,
        late_rejections: 0,
        ingest_latencies: Vec::new(),
        forecast_latencies: Vec::new(),
        gate_models: String::new(),
    };
    let name = &cascade.wire_name;
    let expect = |run: &mut SoakRun, raw: String, want_ok: bool| {
        run.requests += 1;
        let ok = Json::parse(&raw)
            .ok()
            .and_then(|v| v.get("ok").and_then(Json::as_bool))
            == Some(true);
        if ok != want_ok {
            run.mismatches += 1;
            eprintln!("[{name}] expected ok={want_ok}, got: {raw}");
        } else if !want_ok {
            run.late_rejections += 1;
        }
        run.responses.push(raw);
    };

    let (raw, _) = client.round_trip(&format!(
        r#"{{"type":"open","cascade":"{name}","initiator":{initiator},"max_hops":{MAX_HOPS},"horizon":{horizon},"submit_time":{submit},"regime":"{regime}"}}"#,
        initiator = cascade.initiator,
        horizon = cascade.horizon,
        submit = cascade.submit,
        regime = cascade.regime_label,
    ));
    expect(&mut run, raw, true);

    let mut closed = 0u32;
    for delivery in &cascade.deliveries {
        let body: Vec<String> = delivery
            .votes
            .iter()
            .map(|&(ts, voter)| format!("[{ts},{voter}]"))
            .collect();
        let (raw, secs) = client.round_trip(&format!(
            r#"{{"type":"ingest","cascade":"{name}","votes":[{}],"now":{}}}"#,
            body.join(","),
            delivery.now,
        ));
        run.ingest_latencies.push(secs);
        expect(&mut run, raw, !delivery.late);
        if delivery.late {
            continue;
        }
        // Forecast the next hour from everything observed so far — the
        // same online pattern the single-server replay drives.
        closed += 1;
        let (raw, secs) = client.round_trip(&format!(
            r#"{{"type":"forecast","cascade":"{name}","hours":[{}]}}"#,
            closed + 1
        ));
        run.forecast_latencies.push(secs);
        expect(&mut run, raw, true);
    }

    // The gate forecast: held-out hours from a fixed observation
    // window, compared bit-for-bit against the offline mirror.
    let gate_list: Vec<String> = gate_hours.iter().map(ToString::to_string).collect();
    let (raw, secs) = client.round_trip(&format!(
        r#"{{"type":"forecast","cascade":"{name}","hours":[{}],"through":{SOAK_OBSERVE_THROUGH}}}"#,
        gate_list.join(","),
    ));
    run.forecast_latencies.push(secs);
    run.gate_models = Json::parse(&raw)
        .ok()
        .and_then(|v| v.get("models").map(|m| m.to_string()))
        .unwrap_or_default();
    expect(&mut run, raw, true);
    run
}

/// Replays every cascade from its own concurrent connection.
fn replay_soak(
    addr: SocketAddr,
    cascades: &[SoakCascade],
    gate_hours: &[u32],
    transport: Transport,
) -> (Vec<SoakRun>, f64) {
    let wall = Instant::now();
    let runs: Vec<SoakRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = cascades
            .iter()
            .map(|c| scope.spawn(move || drive_soak_client(addr, c, gate_hours, transport)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("soak client"))
            .collect()
    });
    (runs, wall.elapsed().as_secs_f64())
}

/// One workload's measured outcome and gates — an entry of the
/// scenarios artifact's `regimes` array (or its `digg` object).
struct RegimeReport {
    regime: String,
    cascades: usize,
    deliveries: usize,
    votes_accepted: usize,
    late_rejections: usize,
    requests: usize,
    wall_secs: f64,
    throughput: f64,
    eq8_mean: Option<f64>,
    floor: Option<f64>,
    accuracy_ok: bool,
    protocol_ok: bool,
    metrics_ok: bool,
    identical: bool,
    routed_identical: bool,
    slice_identical: bool,
}

impl RegimeReport {
    fn to_json(&self) -> String {
        let opt = |v: Option<f64>| v.map_or("null".to_owned(), |x| format!("{x:.6}"));
        format!(
            "{{\"regime\": \"{regime}\", \"cascades\": {cascades}, \"deliveries\": {deliveries}, \
             \"votes_accepted\": {votes}, \"late_rejections\": {late}, \"requests\": {requests}, \
             \"wall_seconds\": {wall:.3}, \"throughput_rps\": {rps:.2}, \
             \"eq8_mean_accuracy\": {eq8}, \"accuracy_floor\": {floor}, \
             \"accuracy_ok\": {accuracy_ok}, \"protocol_ok\": {protocol_ok}, \
             \"metrics_ok\": {metrics_ok}, \"outputs_identical\": {identical}, \
             \"routed_identical\": {routed}, \"slice_identical\": {slice}}}",
            regime = self.regime,
            cascades = self.cascades,
            deliveries = self.deliveries,
            votes = self.votes_accepted,
            late = self.late_rejections,
            requests = self.requests,
            wall = self.wall_secs,
            rps = self.throughput,
            eq8 = opt(self.eq8_mean),
            floor = opt(self.floor),
            accuracy_ok = self.accuracy_ok,
            protocol_ok = self.protocol_ok,
            metrics_ok = self.metrics_ok,
            identical = self.identical,
            routed = self.routed_identical,
            slice = self.slice_identical,
        )
    }

    fn gates_pass(&self) -> bool {
        self.accuracy_ok
            && self.protocol_ok
            && self.metrics_ok
            && self.identical
            && self.routed_identical
            && self.slice_identical
    }
}

/// One metrics-gate counter check; `None` reads as 0 (a counter that
/// never incremented has no series).
fn check_counter(
    label: &str,
    tier: &str,
    series: &str,
    got: Option<u64>,
    want: usize,
    ok: &mut bool,
) {
    if got.unwrap_or(0) != want as u64 {
        *ok = false;
        eprintln!("[{label}] METRICS GATE FAILED ({tier}): {series} = {got:?}, want {want}");
    }
}

/// Replays one workload through a graph-only direct server *and* a
/// routed two-backend tier, then runs every per-workload gate. The
/// slice re-derivation gate is mode-specific — the caller sets it.
fn soak_workload(
    label: &'static str,
    graph: &Arc<DiGraph>,
    cascades: &[SoakCascade],
    transport: Transport,
) -> RegimeReport {
    assert!(!cascades.is_empty(), "a soak workload needs cascades");
    let horizon = cascades[0].horizon;
    let gate_hours: Vec<u32> = (SOAK_OBSERVE_THROUGH + 1..=horizon).collect();
    let n = cascades.len();
    let clean: usize = cascades.iter().map(SoakCascade::clean_deliveries).sum();
    let deliveries: usize = cascades.iter().map(|c| c.deliveries.len()).sum();
    let late = deliveries - clean;
    let votes_accepted: usize = cascades
        .iter()
        .flat_map(|c| c.deliveries.iter())
        .filter(|d| !d.late)
        .map(|d| d.votes.len())
        .sum();

    // Direct tier.
    let state = ServerState::with_graph(serve_config(), graph.clone()).expect("soak server");
    let mut server = DlmServer::bind("127.0.0.1:0", state).expect("bind soak server");
    eprintln!(
        "[{label}] direct tier on {} ({n} cascades, {deliveries} deliveries, horizon {horizon})",
        server.local_addr(),
    );
    let (direct_runs, wall_secs) =
        replay_soak(server.local_addr(), cascades, &gate_hours, transport);
    let requests: usize = direct_runs.iter().map(|r| r.requests).sum();
    let late_rejections: usize = direct_runs.iter().map(|r| r.late_rejections).sum();
    let mut protocol_ok = direct_runs.iter().all(|r| r.mismatches == 0);
    if late_rejections != late {
        protocol_ok = false;
        eprintln!("[{label}] PROTOCOL GATE FAILED: {late_rejections} late rejections, want {late}");
    }

    // Metrics gate, direct tier: per-verb counts, the late-vote error
    // count, and the per-regime open counter must match the schedule.
    let (metrics_response, snapshot) = scrape_metrics(server.local_addr());
    record_scrape(label, &metrics_response);
    let mut metrics_ok = true;
    for (verb, want) in [
        ("open", n),
        ("ingest", deliveries),
        ("forecast", clean + n),
        ("batch", 0),
        ("stats", 0),
        ("metrics", 0),
        ("invalid", 0),
    ] {
        check_counter(
            label,
            "direct",
            &format!("dlm_requests_total{{verb=\"{verb}\"}}"),
            snapshot.counter("dlm_requests_total", &[("verb", verb)]),
            want,
            &mut metrics_ok,
        );
    }
    check_counter(
        label,
        "direct",
        "dlm_request_errors_total{verb=\"ingest\"}",
        snapshot.counter("dlm_request_errors_total", &[("verb", "ingest")]),
        late,
        &mut metrics_ok,
    );
    check_counter(
        label,
        "direct",
        &format!("dlm_cascades_opened_total{{regime=\"{label}\"}}"),
        snapshot.counter("dlm_cascades_opened_total", &[("regime", label)]),
        n,
        &mut metrics_ok,
    );

    // Served-vs-offline bit identity + Eq.-8 accuracy, per cascade.
    let registry = ModelRegistry::with_builtins();
    let observed_hours: Vec<u32> = (1..=SOAK_OBSERVE_THROUGH).collect();
    let mut identical = true;
    let mut accuracies: Vec<f64> = Vec::new();
    for (ci, cascade) in cascades.iter().enumerate() {
        let story = dlm_data::Cascade::from_parts(
            ci as u32 + 1,
            cascade.initiator,
            cascade.submit,
            cascade.accepted_votes(ci as u32 + 1),
        )
        .expect("soak cascade assembles");
        let matrix = hop_density_matrix(graph, &story, MAX_HOPS, horizon).expect("batch matrix");
        let observation = Observation::from_matrix(&matrix, &observed_hours).expect("observation");
        let distances: Vec<u32> = (1..=matrix.max_distance()).collect();
        let request =
            PredictionRequest::new(distances.clone(), gate_hours.clone()).expect("request");
        let parsed = Json::parse(&direct_runs[ci].gate_models).unwrap_or(Json::Null);
        let served_models = parsed.as_array().unwrap_or(&[]);
        for (mi, spec) in lineup().iter().enumerate() {
            let fitted = registry
                .build(spec)
                .expect("registry build")
                .fit(&observation)
                .expect("offline fit");
            let prediction = fitted.predict(&request).expect("offline predict");
            if mi == 0 {
                // The DL model is the accuracy-tracked one; the
                // baselines ride the identity gate only.
                if let Some(acc) = AccuracyTable::score(&prediction, &matrix)
                    .ok()
                    .and_then(|t| t.overall_average())
                {
                    accuracies.push(acc);
                }
            }
            let values = served_models
                .get(mi)
                .and_then(|m| m.get("values"))
                .and_then(Json::as_array);
            for (di, &d) in distances.iter().enumerate() {
                for (hi, &h) in gate_hours.iter().enumerate() {
                    let served_bits = values
                        .and_then(|v| v.get(di))
                        .and_then(Json::as_array)
                        .and_then(|row| row.get(hi))
                        .and_then(Json::as_f64)
                        .map(f64::to_bits);
                    let offline_bits = Some(prediction.at(d, h).expect("cell").to_bits());
                    if served_bits != offline_bits {
                        identical = false;
                        eprintln!(
                            "[{label}] DETERMINISM GATE FAILED: cascade {ci} {spec} I({d},{h}) \
                             served {served_bits:?} != offline {offline_bits:?}"
                        );
                    }
                }
            }
        }
    }
    server.shutdown();

    // Routed tier: the same replay through a router over two graph-only
    // backends must produce byte-identical response streams.
    let backends: Vec<DlmServer<ServerState>> = (0..ROUTER_BACKENDS)
        .map(|_| {
            let state =
                ServerState::with_graph(serve_config(), graph.clone()).expect("backend state");
            DlmServer::bind("127.0.0.1:0", state).expect("bind backend")
        })
        .collect();
    let backend_addrs: Vec<String> = backends
        .iter()
        .map(|b| b.local_addr().to_string())
        .collect();
    let router = RouterState::new(RouterConfig {
        backend_transport: transport,
        ..RouterConfig::new(backend_addrs)
    })
    .expect("router state");
    let front = DlmServer::bind("127.0.0.1:0", router).expect("bind router");
    eprintln!("[{label}] routed tier on {}", front.local_addr());
    let (routed_runs, _) = replay_soak(front.local_addr(), cascades, &gate_hours, transport);
    let mut routed_identical = routed_runs.iter().all(|r| r.mismatches == 0);
    for (ci, (routed, direct)) in routed_runs.iter().zip(&direct_runs).enumerate() {
        if routed.responses != direct.responses {
            routed_identical = false;
            eprintln!("[{label}] ROUTING GATE FAILED: cascade {ci} diverges from the direct tier");
        }
    }

    // Metrics gate, routed tier: the merged scrape's backend aggregate
    // must add up to the same totals across the shards.
    let (router_metrics, merged) = scrape_metrics(front.local_addr());
    record_scrape(&format!("{label}-router"), &router_metrics);
    for (verb, want) in [("open", n), ("ingest", deliveries), ("forecast", clean + n)] {
        check_counter(
            label,
            "router",
            &format!("dlm_requests_total{{verb=\"{verb}\"}}"),
            merged.counter("dlm_requests_total", &[("verb", verb)]),
            want,
            &mut metrics_ok,
        );
    }
    check_counter(
        label,
        "router",
        "dlm_request_errors_total{verb=\"ingest\"}",
        merged.counter("dlm_request_errors_total", &[("verb", "ingest")]),
        late,
        &mut metrics_ok,
    );
    check_counter(
        label,
        "router",
        &format!("dlm_cascades_opened_total{{regime=\"{label}\"}}"),
        merged.counter("dlm_cascades_opened_total", &[("regime", label)]),
        n,
        &mut metrics_ok,
    );
    if let Some(unreachable) = router_metrics
        .get("backends_unreachable")
        .and_then(Json::as_u64)
    {
        metrics_ok = false;
        eprintln!("[{label}] METRICS GATE FAILED: {unreachable} unreachable backend(s)");
    }
    drop(front);
    drop(backends);

    let eq8_mean = if accuracies.is_empty() {
        None
    } else {
        Some(accuracies.iter().sum::<f64>() / accuracies.len() as f64)
    };
    let floor = accuracy_floor(label);
    let accuracy_ok = match (floor, eq8_mean) {
        (None, _) => true,
        (Some(f), Some(m)) => m >= f,
        (Some(_), None) => false,
    };
    if !accuracy_ok {
        eprintln!(
            "[{label}] ACCURACY GATE FAILED: mean Eq.-8 accuracy {eq8_mean:?} under floor {floor:?}"
        );
    }

    let ingest: Vec<f64> = direct_runs
        .iter()
        .flat_map(|r| r.ingest_latencies.clone())
        .collect();
    let forecast: Vec<f64> = direct_runs
        .iter()
        .flat_map(|r| r.forecast_latencies.clone())
        .collect();
    print_latencies(&ingest, &forecast);
    let throughput = requests as f64 / wall_secs.max(1e-9);
    eprintln!(
        "[{label}] {requests} requests over {n} cascades in {wall_secs:.2}s -> \
         {throughput:.1} req/s; {late_rejections} late deliveries rejected; \
         mean Eq.-8 accuracy {}",
        eq8_mean.map_or("undefined".to_owned(), |m| format!("{:.1}%", m * 100.0)),
    );

    RegimeReport {
        regime: label.to_owned(),
        cascades: n,
        deliveries,
        votes_accepted,
        late_rejections,
        requests,
        wall_secs,
        throughput,
        eq8_mean,
        floor,
        accuracy_ok,
        protocol_ok,
        metrics_ok,
        identical,
        routed_identical,
        slice_identical: false,
    }
}

/// The `--digg-dir` end-to-end replay: Digg-2009-format CSVs (the
/// synthetic fixture is generated in place when the directory has
/// none) → loader → follower graph → the same two-tier soak as the
/// factory regimes, one cascade per top story.
fn run_digg_soak(dir: &str, smoke: bool, transport: Transport) -> RegimeReport {
    let votes_path = std::path::Path::new(dir).join("digg_votes.csv");
    let friends_path = std::path::Path::new(dir).join("digg_friends.csv");
    if !votes_path.exists() || !friends_path.exists() {
        std::fs::create_dir_all(dir).expect("create digg dir");
        let fixture = digg_fixture(&DiggFixtureConfig::default()).expect("digg fixture");
        fixture
            .write_votes_csv(std::fs::File::create(&votes_path).expect("create votes csv"))
            .expect("write votes csv");
        fixture
            .write_friends_csv(std::fs::File::create(&friends_path).expect("create friends csv"))
            .expect("write friends csv");
        eprintln!("[digg] no CSVs in {dir}; wrote the synthetic fixture");
    }
    let open = |p: &std::path::Path| std::fs::File::open(p).expect("open digg csv");
    let dataset =
        DiggDataset::read_csv(open(&votes_path), open(&friends_path)).expect("parse digg csvs");
    // Loader determinism — the digg replay's slice gate: parsing the
    // same bytes twice must build the identical dataset.
    let reparsed =
        DiggDataset::read_csv(open(&votes_path), open(&friends_path)).expect("parse digg csvs");
    let slice_identical = dataset == reparsed;
    let graph = Arc::new(dataset.follower_graph());
    let stories: Vec<u32> = dataset
        .stories_by_popularity()
        .into_iter()
        .take(if smoke { 3 } else { 8 })
        .map(|(story, _)| story)
        .collect();
    eprintln!(
        "[digg] {} votes, {} users; replaying stories {stories:?}",
        dataset.votes().len(),
        dataset.user_count(),
    );
    let soak: Vec<SoakCascade> = stories
        .iter()
        .map(|&story| {
            let votes = dataset.story_votes(story);
            let submit = votes.first().expect("story has votes").timestamp;
            let initiator = dataset.initiator(story).expect("story initiator");
            let mut by_hour: Vec<Vec<(u64, usize)>> = vec![Vec::new(); DIGG_HORIZON as usize];
            let mut dropped = 0usize;
            for v in &votes {
                let bucket = ((v.timestamp - submit) / 3600) as usize;
                if bucket < by_hour.len() {
                    by_hour[bucket].push((v.timestamp, v.voter));
                } else {
                    dropped += 1;
                }
            }
            if dropped > 0 {
                eprintln!(
                    "[digg] story {story}: {dropped} votes after hour {DIGG_HORIZON} not replayed"
                );
            }
            let deliveries = by_hour
                .iter()
                .enumerate()
                .map(|(hour0, votes)| Delivery {
                    now: submit + (hour0 as u64 + 1) * 3600,
                    votes: votes.clone(),
                    late: false,
                })
                .collect();
            SoakCascade {
                wire_name: format!("digg-s{story}"),
                regime_label: "digg",
                initiator,
                submit,
                horizon: DIGG_HORIZON,
                deliveries,
            }
        })
        .collect();
    let mut report = soak_workload("digg", &graph, &soak, transport);
    report.slice_identical = slice_identical;
    if !slice_identical {
        eprintln!("[digg] SLICE GATE FAILED: re-parsing the CSVs changed the dataset");
    }
    report
}

/// The soak mode entry point: every requested regime (and the optional
/// digg replay) through both tiers, one `BENCH_scenarios.json`, exit
/// nonzero if any gate failed.
fn run_scenario_soak(
    regime_names: &[String],
    digg_dir: Option<&str>,
    smoke: bool,
    transport: Transport,
) {
    let clients = if smoke { 4 } else { 8 };
    let mut reports: Vec<RegimeReport> = Vec::new();
    for name in regime_names {
        let regime = match find_regime(name) {
            Ok(regime) => regime,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        };
        let mut stream = ScenarioStream::new(regime, SCENARIO_SEED).expect("scenario stream");
        let graph = stream.graph().clone();
        let generated: Vec<dlm_scenarios::ScenarioCascade> =
            stream.by_ref().take(clients).collect();
        let soak: Vec<SoakCascade> = generated
            .iter()
            .enumerate()
            .map(|(i, c)| SoakCascade {
                wire_name: format!("{}-c{i}", regime.name),
                regime_label: regime.name,
                initiator: c.initiator,
                submit: c.submit_time,
                horizon: c.horizon,
                deliveries: c.deliveries.clone(),
            })
            .collect();
        let mut report = soak_workload(regime.name, &graph, &soak, transport);
        // Slice re-derivation gate: the stream's last cascade
        // regenerated cold — fresh graph, different parallelism — must
        // be bit-identical.
        let last = clients as u64 - 1;
        let rederived = generate_batch(regime, SCENARIO_SEED, last, 1, Parallelism::Fixed(2))
            .expect("slice re-derivation");
        report.slice_identical =
            rederived[0].canonical_bytes() == generated[last as usize].canonical_bytes();
        if !report.slice_identical {
            eprintln!(
                "[{name}] SLICE GATE FAILED: ({name}, {SCENARIO_SEED}, {last}) did not \
                 re-derive bit-identically"
            );
        }
        reports.push(report);
    }

    let digg = digg_dir.map(|dir| run_digg_soak(dir, smoke, transport));

    let soak_ok = reports.iter().all(RegimeReport::gates_pass)
        && digg.as_ref().is_none_or(RegimeReport::gates_pass);
    let entries: Vec<String> = reports.iter().map(RegimeReport::to_json).collect();
    let digg_json = digg
        .as_ref()
        .map_or("null".to_owned(), RegimeReport::to_json);
    let json = format!(
        "{{\n  \"schema\": \"{schema}\",\n  \"mode\": \"{mode}\",\n  \
         \"hardware_threads\": {threads},\n  \"clients\": {clients},\n  \
         \"seed\": {seed},\n  \"regimes\": [\n    {entries}\n  ],\n  \
         \"digg\": {digg_json},\n  \"soak_ok\": {soak_ok}\n}}\n",
        schema = artifact::SCENARIOS_SCHEMA,
        mode = if smoke { "smoke" } else { "full" },
        threads = artifact::hardware_threads(),
        seed = SCENARIO_SEED,
        entries = entries.join(",\n    "),
    );
    let out = artifact::bench_out("BENCH_scenarios.json");
    artifact::write(&out, &json).expect("valid scenarios artifact");
    eprintln!("wrote {out}");
    if !soak_ok {
        std::process::exit(1);
    }
}
