//! The traced run: the per-layer breakdown.
//!
//! Spans are recorded only in the benchmark's own code, around its
//! calls into each layer's public functions: the client's view of every
//! request of a traced nominal phase through the real deployment, an
//! in-process replay of the same seeded stream through
//! `ServerState::handle_line` (wire decode, parse, handle, encode), and
//! cold calls into the live-cascade, store, ring, fit, calibration,
//! pool, predict and PDE layers on the stream's own inputs. Each span
//! has a name, start, end and parent, and the spans of one request share
//! its stream id. They stay in memory and are written out as JSON lines
//! at the end; self time (a span's duration minus what its children
//! cover) is derived from them. Counters — fit-cache hits, misses and
//! evictions, calibration objective evaluations, the `metrics` scrape —
//! are read at the same boundaries.

use crate::check::offline_observation;
use crate::e2e::{self, PhaseTally, Warm, CLOSED_LOOP_SECONDS};
use crate::load::{answer_matches, run_phase, Conn, PhaseRun};
use crate::plan::{Class, Expect, Plan, Request, Workload, CLOSE_DEPTH, HORIZON, MAX_HOPS};
use crate::stats::median;
use dlm_cluster::HashRing;
use dlm_core::calibrate::{calibrate_profiles, CalibrationOptions, MultiStartConfig};
use dlm_core::evaluate::Parallelism;
use dlm_core::pde::{self, SolverConfig};
use dlm_core::predict::{
    DiffusionPredictor, FittedPredictor, GrowthFamily, Observation, PredictionRequest,
};
use dlm_core::registry::{ModelRegistry, ModelSpec};
use dlm_core::{DlModel, DlParameters};
use dlm_numerics::pool::parallel_map;
use dlm_obs::{HistogramSnapshot, MetricsSnapshot, SeriesValue};
use dlm_serve::{protocol, wire, CascadeStore, Json, LiveCascade, ServeConfig, ServerState};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::io::Write as _;
use std::net::SocketAddr;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// One per-layer metric: its name, unit, which direction is better, and
/// the end-to-end metric and workload it should move.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Metric name (`<module>.<quantity>`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// `metric@workload` pairs it should move, or `-`.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

const FIT_MOVES: &str = "close_p50_ms,close_p90_ms,cpu_ms_per_req@refit-storm";
const PREDICT_MOVES: &str = "forecast_p50_ms,forecast_p99_ms@forecast-hot";
const TAIL_MOVES: &str =
    "forecast_p99_ms@forecast-hot,ingest_p99_ms@vote-firehose,close_p90_ms@refit-storm";

/// Every per-layer metric of the traced run, in `BENCHMARK.json` order.
pub const PER_LAYER: &[Layer] = &[
    layer(
        "server.forecast_us",
        "us",
        "lower",
        "forecast_p50_ms@forecast-hot",
    ),
    layer(
        "server.ingest_us",
        "us",
        "lower",
        "ingest_p50_ms@vote-firehose",
    ),
    layer("server.close_us", "us", "lower", "close_p50_ms@refit-storm"),
    layer(
        "protocol.parse_us",
        "us",
        "lower",
        "ingest_p50_ms@vote-firehose",
    ),
    layer(
        "json.encode_us",
        "us",
        "lower",
        "forecast_p50_ms,cpu_ms_per_req@forecast-hot",
    ),
    layer(
        "json.response_bytes",
        "bytes",
        "lower",
        "forecast_p50_ms,cpu_ms_per_req@forecast-hot",
    ),
    layer(
        "wire.frame_decode_us",
        "us",
        "lower",
        "ingest_p50_ms@vote-firehose",
    ),
    layer(
        "live.ingest_ns_per_vote",
        "ns",
        "lower",
        "ingest_p50_ms@vote-firehose",
    ),
    layer(
        "live.observation_us",
        "us",
        "lower",
        "forecast_p50_ms@forecast-hot",
    ),
    layer("store.get_ns", "ns", "lower", "ingest_p50_ms@vote-firehose"),
    layer(
        "cache.hit_ratio",
        "fraction",
        "higher",
        "forecast_p50_ms@forecast-hot,close_p50_ms@refit-storm",
    ),
    layer(
        "cache.evictions",
        "count",
        "lower",
        "close_p50_ms@refit-storm",
    ),
    layer("fit.dl_cal_ms", "ms", "lower", FIT_MOVES),
    layer("fit.variable_dl_ms", "ms", "lower", FIT_MOVES),
    layer("fit.dl_ms", "ms", "lower", FIT_MOVES),
    layer("fit.logistic_ms", "ms", "lower", FIT_MOVES),
    layer("fit.si_ms", "ms", "lower", FIT_MOVES),
    layer("fit.sis_ms", "ms", "lower", FIT_MOVES),
    layer("fit.lineup_ms", "ms", "lower", FIT_MOVES),
    layer(
        "calibrate.objective_evals",
        "count",
        "lower",
        "close_p50_ms,cpu_ms_per_req@refit-storm",
    ),
    layer(
        "calibrate.objective_us",
        "us",
        "lower",
        "close_p50_ms,cpu_ms_per_req@refit-storm",
    ),
    layer(
        "pool.refit_speedup",
        "x",
        "higher",
        "close_p50_ms@refit-storm",
    ),
    layer("predict.dl_cal_us", "us", "lower", PREDICT_MOVES),
    layer("predict.dl_us", "us", "lower", PREDICT_MOVES),
    layer("predict.variable_dl_us", "us", "lower", PREDICT_MOVES),
    layer("predict.lineup_us", "us", "lower", PREDICT_MOVES),
    layer(
        "pde.solve_us",
        "us",
        "lower",
        "forecast_p50_ms@forecast-hot,close_p50_ms@refit-storm",
    ),
    layer(
        "pde.steps",
        "count",
        "lower",
        "forecast_p50_ms@forecast-hot,close_p50_ms@refit-storm",
    ),
    layer(
        "ring.route_ns",
        "ns",
        "lower",
        "ingest_p50_ms@vote-firehose",
    ),
    layer(
        "router.hop_us",
        "us",
        "lower",
        "ingest_p50_ms@vote-firehose,forecast_p50_ms@forecast-hot",
    ),
    layer(
        "reactor.overhead_us",
        "us",
        "lower",
        "ingest_p50_ms@vote-firehose",
    ),
    layer("obs.service_p50_us.open", "us", "lower", TAIL_MOVES),
    layer("obs.service_p50_us.ingest", "us", "lower", TAIL_MOVES),
    layer("obs.service_p50_us.forecast", "us", "lower", TAIL_MOVES),
    layer("server.queue_share", "fraction", "lower", TAIL_MOVES),
    layer("decomp.unexplained_us", "us", "lower", "-"),
    layer("client.gen_lag_p99_ms", "ms", "lower", "-"),
    layer("client.sent", "count", "higher", "-"),
    layer("client.ok", "count", "higher", "-"),
    layer("client.failed", "count", "lower", "-"),
    layer("trace.overhead_pct", "%", "lower", "-"),
];

/// In-process replay caps (nominal and probe together): closes and
/// forecasts are costly, and the per-layer medians settle long before
/// the stream ends.
const REPLAY_CLOSES: usize = 8;
const REPLAY_FORECASTS: usize = 120;
/// Stories whose observations feed the cold fit, calibration, predict
/// and PDE timings.
const FIT_STORIES: usize = 3;
/// Requests sent through the router and straight to the owning backend
/// to time the router hop at low load.
const HOP_PROBES: usize = 200;
/// Forecasts sent closed loop through the router for the forecast
/// path's low-load latency.
const FORECAST_PROBES: usize = 40;
/// Stream ids of the benchmark's own probe requests, past any plan's.
const PROBE_IDS: u64 = 1 << 40;
/// Calls per timed loop for operations too short to time one by one.
const TIGHT_LOOP_CALLS: usize = 200_000;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id (1-based; 0 means "no parent").
    pub id: u64,
    /// The span that caused it, or 0.
    pub parent: u64,
    /// The stream id of the request it belongs to (0 for set-up work).
    pub request: u64,
    /// Span name (`<module>.<operation>`).
    pub name: String,
    /// Start, ns since the tracer started.
    pub start_ns: u64,
    /// End, ns since the tracer started.
    pub end_ns: u64,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer started.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its id; [`Tracer::end`] closes it.
    pub fn begin(&mut self, name: impl Into<String>, request: u64, parent: u64) -> u64 {
        let start_ns = self.now_ns();
        self.record(name, request, parent, start_ns, start_ns)
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: u64) {
        let now = self.now_ns();
        self.spans[(id - 1) as usize].end_ns = now;
    }

    /// Records a finished span with explicit times.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        request: u64,
        parent: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            request,
            name: name.into(),
            start_ns,
            end_ns,
        });
        id
    }

    /// Runs `f` inside a span with no children.
    pub fn time<R>(&mut self, name: &str, request: u64, parent: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, request, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Durations (µs) of every span named `name`.
    #[must_use]
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 / 1000.0)
            .collect()
    }

    /// Self time (µs) of every span, grouped by name: its duration minus
    /// the union of its children's intervals.
    #[must_use]
    pub fn self_times_us(&self) -> BTreeMap<&str, Vec<f64>> {
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for s in &self.spans {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
            }
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
            out.entry(s.name.as_str())
                .or_default()
                .push(own as f64 / 1000.0);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// File-system errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                r#"{{"id":{},"parent":{},"request":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The traced run's findings.
#[derive(Debug)]
pub struct Report {
    metrics: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
    spans: BTreeMap<String, (usize, f64, f64)>,
    attempted: usize,
    failed: usize,
}

impl Report {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|l| l.name == name),
            "unlisted metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Prints the span summary, every per-layer metric with the
    /// end-to-end metric it should move, and the JSON result line.
    #[must_use]
    pub fn finish(self) -> ExitCode {
        for note in &self.notes {
            println!("{note}");
        }
        for (name, (count, total_p50, self_p50)) in &self.spans {
            println!(
                "span {name} count={count} total_p50_us={total_p50:.3} self_p50_us={self_p50:.3}"
            );
        }
        let mut json = Vec::new();
        let mut missing = Vec::new();
        for l in PER_LAYER {
            match self.metrics.get(l.name) {
                Some(&value) if value.is_finite() => {
                    println!("layer {} {} {} moves={}", l.name, value, l.unit, l.moves);
                    json.push(format!(
                        r#""{}":{{"value":{value},"unit":"{}"}}"#,
                        l.name, l.unit
                    ));
                }
                _ => missing.push(l.name),
            }
        }
        if !missing.is_empty() {
            eprintln!(
                "perfbench: traced run could not measure {}",
                missing.join(", ")
            );
            return ExitCode::from(1);
        }
        let correct = self.failed == 0;
        println!(
            r#"{{"correct":{correct},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.attempted,
            self.failed,
            json.join(",")
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        }
    }
}

fn p50(samples: &[f64]) -> f64 {
    median(samples).unwrap_or(f64::NAN)
}

/// The client's spans for one phase: a root per request from its
/// intended send time to its answer, with the generator's lateness as a
/// child.
fn record_client(t: &mut Tracer, run: &PhaseRun) {
    let phase_start_ns = u64::try_from(run.started.saturating_duration_since(t.epoch).as_nanos())
        .unwrap_or(u64::MAX);
    let ns = |s: f64| phase_start_ns + (s.max(0.0) * 1e9) as u64;
    for o in run.outcomes.iter().filter(|o| o.latency.is_finite()) {
        let root = t.record(
            format!("client.{}", o.class.name()),
            o.id,
            0,
            ns(o.intended),
            ns(o.intended + o.latency),
        );
        t.record(
            "client.generator_lag",
            o.id,
            root,
            ns(o.intended),
            ns(o.intended + o.lag),
        );
    }
}

/// Runs the traced measurement of `plan`'s workload.
///
/// # Errors
///
/// A deployment that fails to start, a lost connection, an unreadable
/// scrape, or a layer call that fails on the stream's own inputs.
pub fn run(plan: &Plan, bin_dir: &Path, out_dir: &Path) -> Result<Report, String> {
    let workload = plan.workload;
    let primary = workload.shape().primary;
    let mut t = Tracer::new();
    let mut report = Report {
        metrics: BTreeMap::new(),
        notes: Vec::new(),
        spans: BTreeMap::new(),
        attempted: 0,
        failed: 0,
    };

    // The untraced twin of the traced nominal phase, on its own
    // deployment, for `trace.overhead_pct`.
    let untraced_p50 = {
        let mut warm = e2e::warm_up(plan, bin_dir)?;
        let (run, _) = e2e::nominal(plan, &mut warm)?;
        p50(&run.latencies(primary))
    };

    // The traced deployment: set-up, nominal, scrapes around it, then
    // the low-load hop probes.
    let mut warm = e2e::warm_up(plan, bin_dir)?;
    record_client(&mut t, &warm.setup);
    let setup_close_p50 = p50(&warm.setup.latencies(Class::Close));
    let setup_tally = PhaseTally::of(&plan.setup, &warm.setup);
    report.attempted += setup_tally.sent;
    report.failed += setup_tally.failed;
    let before = scrape(warm.deployment.router)?;
    let (nominal, _) = e2e::nominal(plan, &mut warm)?;
    record_client(&mut t, &nominal);
    let after = scrape(warm.deployment.router)?;
    let tally = PhaseTally::of(&plan.nominal, &nominal);
    if let Err(reason) = e2e::validity(plan, &tally, &nominal) {
        report
            .notes
            .push(format!("run valid=false reason={reason}"));
    }
    report.attempted += tally.sent;
    report.failed += tally.failed;
    report.set("client.gen_lag_p99_ms", tally.lag_p99_ms);
    report.set("client.sent", tally.sent as f64);
    report.set("client.ok", tally.ok as f64);
    report.set("client.failed", tally.failed as f64);
    let traced_p50 = p50(&nominal.latencies(primary));
    report.set(
        "trace.overhead_pct",
        100.0 * (traced_p50 / untraced_p50 - 1.0),
    );
    report.notes.push(format!(
        "phase setup sent={} ok={} failed={} gen_lag_p99_ms={:.3}",
        setup_tally.sent, setup_tally.ok, setup_tally.failed, setup_tally.lag_p99_ms
    ));
    report.notes.push(format!(
        "phase nominal sent={} ok={} failed={} gen_lag_p99_ms={:.3}",
        tally.sent, tally.ok, tally.failed, tally.lag_p99_ms
    ));

    // The closed-loop probe, so every verb has been served.
    let probe = run_phase(&mut warm.conns, &plan.probe, CLOSED_LOOP_SECONDS);
    record_client(&mut t, &probe);
    let probe_tally = PhaseTally::of(&plan.probe, &probe);
    report.attempted += probe_tally.sent;
    report.failed += probe_tally.failed;
    let last = scrape(warm.deployment.router)?;

    // Scraped counters: fit-cache lookups over the nominal phase (over
    // the whole run on a mix whose nominal phase looks nothing up).
    let lookups = |a: &MetricsSnapshot, b: Option<&MetricsSnapshot>| {
        let count = |name| gauge_sum(a, name) - b.map_or(0, |b| gauge_sum(b, name));
        (count("dlm_cache_hits"), count("dlm_cache_misses"))
    };
    let (hits, misses) = match lookups(&after, Some(&before)) {
        (0, 0) => lookups(&last, None),
        nominal => nominal,
    };
    report.set(
        "cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    report.set(
        "cache.evictions",
        gauge_sum(&last, "dlm_cache_evictions") as f64,
    );
    for (verb, name) in [
        ("open", "obs.service_p50_us.open"),
        ("ingest", "obs.service_p50_us.ingest"),
        ("forecast", "obs.service_p50_us.forecast"),
    ] {
        // Over the whole run: opens happen only in set-up on two of the
        // three mixes, forecasts only in the probe on the third.
        let h = service_histogram(&last, verb);
        report.set(name, interpolated_quantile(&h, 0.5).unwrap_or(f64::NAN));
    }
    // Queue share of the primary class's verb: 1 − server service p50 /
    // client p50 over the same requests.
    let verb_classes: &[Class] = match primary {
        Class::Forecast => &[Class::Forecast],
        _ => &[Class::Ingest, Class::Close],
    };
    let verb = if primary == Class::Forecast {
        "forecast"
    } else {
        "ingest"
    };
    let client: Vec<f64> = verb_classes
        .iter()
        .flat_map(|&c| nominal.latencies(c))
        .collect();
    let mut h = service_histogram(&after, verb);
    subtract(&mut h, &service_histogram(&before, verb));
    let service_us = interpolated_quantile(&h, 0.5).unwrap_or(f64::NAN);
    report.set(
        "server.queue_share",
        1.0 - service_us / (1e6 * p50(&client)),
    );

    // In-process replay of the same stream through the serving core.
    let mut replay = Replay::new(plan)?;
    for request in plan.setup.requests() {
        replay.request(&mut t, request, workload.binary());
    }
    let (mut closes, mut forecasts) = (0, 0);
    for request in plan.nominal.requests().chain(plan.probe.requests()) {
        let cap = match request.class {
            Class::Close => &mut closes,
            Class::Forecast => &mut forecasts,
            _ => {
                replay.request(&mut t, request, workload.binary());
                continue;
            }
        };
        let limit = if request.class == Class::Close {
            REPLAY_CLOSES
        } else {
            REPLAY_FORECASTS
        };
        if *cap < limit {
            *cap += 1;
            replay.request(&mut t, request, workload.binary());
        }
    }
    report.attempted += replay.replayed;
    report.failed += replay.wrong;
    replay.observations(&mut t, plan);
    for (class, name) in [
        (Class::Forecast, "server.forecast_us"),
        (Class::Ingest, "server.ingest_us"),
        (Class::Close, "server.close_us"),
    ] {
        report.set(name, p50(&replay.handle_us(&t, class)));
    }
    report.set("protocol.parse_us", p50(&t.durations_us("protocol.parse")));
    report.set("json.encode_us", p50(&t.durations_us("json.encode")));
    report.set("json.response_bytes", p50(&replay.response_bytes));
    report.set(
        "wire.frame_decode_us",
        p50(&t.durations_us("wire.frame_decode")),
    );
    let vote_us: f64 = t.durations_us("live.ingest").iter().sum();
    let ingest_ns_per_vote = 1000.0 * vote_us / replay.votes.max(1) as f64;
    report.set("live.ingest_ns_per_vote", ingest_ns_per_vote);
    report.set(
        "live.observation_us",
        p50(&t.durations_us("live.observation")),
    );

    // Router hop and reactor overhead at low load, on cheap requests
    // that can be sent twice; then the forecast path's low-load latency.
    let probes = hop_probes(plan);
    let hop = hop_run(&warm, plan, &probes, &mut t)?;
    report.attempted += hop.sent;
    report.failed += hop.failed;
    let in_process: Vec<f64> = probes
        .iter()
        .map(|r| {
            let line = request_line(r, workload.binary());
            let started = Instant::now();
            black_box(replay.state.handle_line(&line));
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let router_p50 = p50(&hop.router_us);
    let direct_p50 = p50(&hop.direct_us);
    report.set("router.hop_us", router_p50 - direct_p50);
    report.set("reactor.overhead_us", direct_p50 - p50(&in_process));
    let forecast_p50 = p50(&forecast_probe(&warm, plan, &mut t)?);
    drop(warm);

    // Store and ring at the workload's key set.
    let (store_ns, ring_ns) = store_and_ring(plan, &hop.labels, &mut t)?;
    report.set("store.get_ns", store_ns);
    report.set("ring.route_ns", ring_ns);

    // Cold fits, calibration, pool fan-out, predict and PDE on the
    // stream's own stories.
    let refit_wall_us = fit_all(plan, &mut t, &mut report)?;

    // What the isolated layer medians leave unexplained of the primary
    // path's low-load latency.
    let m = &report.metrics;
    let (e2e_us, layers_us) = match workload {
        Workload::ForecastHot => (
            forecast_p50,
            m["router.hop_us"]
                + m["protocol.parse_us"]
                + m["live.observation_us"]
                + m["predict.lineup_us"]
                + m["json.encode_us"],
        ),
        Workload::RefitStorm => (
            1e6 * setup_close_p50,
            m["router.hop_us"]
                + m["protocol.parse_us"]
                + replay.votes_per_close() * ingest_ns_per_vote / 1000.0
                + f64::from(CLOSE_DEPTH) * m["live.observation_us"]
                + refit_wall_us,
        ),
        Workload::VoteFirehose => (
            router_p50,
            m["router.hop_us"]
                + m["wire.frame_decode_us"]
                + m["protocol.parse_us"]
                + m["store.get_ns"] / 1000.0
                + m["ring.route_ns"] / 1000.0
                + replay.votes_per_ingest() * ingest_ns_per_vote / 1000.0,
        ),
    };
    report.set("decomp.unexplained_us", e2e_us - layers_us);

    for (name, times) in t.self_times_us() {
        let total = t.durations_us(name);
        report
            .spans
            .insert(name.to_owned(), (times.len(), p50(&total), p50(&times)));
    }
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("trace-{}-seed{}.jsonl", workload.name(), plan.seed));
    t.write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    report.notes.push(format!(
        "trace spans={} file={}",
        t.spans.len(),
        path.display()
    ));
    Ok(report)
}

/// The request's JSON line (binary frames decoded, untimed).
fn request_line(request: &Request, binary: bool) -> String {
    if binary {
        let (range, _) = wire::try_extract_frame(&request.bytes)
            .ok()
            .flatten()
            .expect("the plan encodes whole frames");
        wire::payload_to_line(&request.bytes[range]).expect("the plan encodes valid frames")
    } else {
        String::from_utf8_lossy(request.bytes.strip_suffix(b"\n").unwrap_or(&request.bytes))
            .into_owned()
    }
}

/// The in-process serving core the stream is replayed through, plus a
/// mirror of every cascade's `LiveCascade` for the live-layer timings.
struct Replay {
    state: ServerState,
    graph: Arc<dlm_graph::DiGraph>,
    live: HashMap<String, LiveCascade>,
    handle_spans: HashMap<Class, Vec<u64>>,
    response_bytes: Vec<f64>,
    votes: usize,
    close_votes: Vec<usize>,
    ingest_votes: Vec<usize>,
    replayed: usize,
    wrong: usize,
}

impl Replay {
    fn new(plan: &Plan) -> Result<Self, String> {
        let state = ServerState::with_world(ServeConfig::default(), (*plan.world).clone())
            .map_err(|e| e.to_string())?;
        Ok(Self {
            state,
            graph: Arc::new(plan.world.graph().clone()),
            live: HashMap::new(),
            handle_spans: HashMap::new(),
            response_bytes: Vec::new(),
            votes: 0,
            close_votes: Vec::new(),
            ingest_votes: Vec::new(),
            replayed: 0,
            wrong: 0,
        })
    }

    fn request(&mut self, t: &mut Tracer, request: &Request, binary: bool) {
        let line = request_line(request, binary);
        let id = request.id;
        let root = t.begin(format!("request.{}", request.class.name()), id, 0);
        let parsed = t.time("protocol.parse", id, root, || {
            protocol::Request::parse_with_trace(&line)
        });
        let span = t.begin("server.handle_line", id, root);
        let response = self.state.handle_line(&line);
        t.end(span);
        self.handle_spans
            .entry(request.class)
            .or_default()
            .push(span);
        self.replayed += 1;
        if !answer_matches(&request.expect, response.as_bytes()) {
            self.wrong += 1;
        }
        match parsed {
            Ok((
                protocol::Request::Open {
                    cascade,
                    initiator: Some(initiator),
                    ..
                },
                _,
            )) => {
                let live = LiveCascade::for_hops(
                    &self.graph,
                    initiator,
                    MAX_HOPS,
                    dlm_data::simulate::SIMULATED_SUBMIT_TIME,
                    HORIZON,
                )
                .expect("the plan opens reachable initiators");
                self.live.insert(cascade, live);
            }
            Ok((
                protocol::Request::Ingest {
                    cascade,
                    votes,
                    now,
                },
                _,
            )) => {
                let frame = wire::encode_frame(&wire::encode_ingest_payload(&cascade, &votes, now));
                t.time("wire.frame_decode", id, root, || {
                    let (range, _) = wire::try_extract_frame(&frame)
                        .ok()
                        .flatten()
                        .expect("a whole frame");
                    black_box(wire::payload_to_line(&frame[range]).expect("a valid frame"))
                });
                if let Some(live) = self.live.get_mut(&cascade) {
                    let span = t.begin("live.ingest", id, root);
                    for &(timestamp, voter) in &votes {
                        let _ = black_box(live.ingest(dlm_data::Vote {
                            timestamp,
                            voter,
                            story: 0,
                        }));
                    }
                    if let Some(now) = now {
                        live.advance_to(now);
                    }
                    t.end(span);
                    self.votes += votes.len();
                    match request.class {
                        Class::Close => self.close_votes.push(votes.len()),
                        _ => self.ingest_votes.push(votes.len()),
                    }
                }
            }
            Ok((protocol::Request::Forecast { .. }, _)) => match Json::parse(&response) {
                Ok(value) => {
                    let text = t.time("json.encode", id, root, || value.to_string());
                    if text != response {
                        self.wrong += 1;
                    }
                    self.response_bytes.push(text.len() as f64);
                }
                Err(_) => self.wrong += 1,
            },
            _ => {}
        }
        t.end(root);
    }

    /// Times the forecast path's observation build (`matrix_snapshot` +
    /// `Observation::from_matrix`) on every warm cascade and window, as
    /// repeated forecasts hit it.
    fn observations(&mut self, t: &mut Tracer, plan: &Plan) {
        for cascade in &plan.warm {
            let Some(live) = self.live.get_mut(&cascade.id) else {
                continue;
            };
            for through in 2..=CLOSE_DEPTH {
                let hours: Vec<u32> = (1..=through).collect();
                for _ in 0..5 {
                    t.time("live.observation", 0, 0, || {
                        let matrix = live.matrix_snapshot(through).expect("closed hours");
                        black_box(
                            Observation::from_matrix(&matrix, &hours).expect("an observation"),
                        )
                    });
                }
            }
        }
    }

    fn handle_us(&self, t: &Tracer, class: Class) -> Vec<f64> {
        self.handle_spans
            .get(&class)
            .into_iter()
            .flatten()
            .map(|&id| {
                let s = &t.spans[(id - 1) as usize];
                (s.end_ns - s.start_ns) as f64 / 1000.0
            })
            .collect()
    }

    fn votes_per_close(&self) -> f64 {
        let v: Vec<f64> = self.close_votes.iter().map(|&n| n as f64).collect();
        p50(&v)
    }

    fn votes_per_ingest(&self) -> f64 {
        let v: Vec<f64> = self.ingest_votes.iter().map(|&n| n as f64).collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    }
}

/// Cheap requests that can be sent twice, for timing the router hop:
/// nominal in-hour vote deliveries on vote-firehose (they close
/// nothing, so a second delivery only counts the votes again), else
/// empty `ingest`s on the warm cascades.
fn hop_probes(plan: &Plan) -> Vec<Request> {
    if plan.workload == Workload::VoteFirehose {
        return plan
            .nominal
            .requests()
            .filter(|r| r.class == Class::Ingest)
            .take(HOP_PROBES)
            .cloned()
            .collect();
    }
    (0..HOP_PROBES)
        .map(|k| {
            let cascade = plan.warm[k % plan.warm.len()].id.clone();
            Request {
                id: PROBE_IDS + k as u64,
                at: 0.0,
                class: Class::Ingest,
                bytes: format!("{{\"type\":\"ingest\",\"cascade\":\"{cascade}\",\"votes\":[]}}\n")
                    .into_bytes(),
                cascade,
                expect: Expect::Ok,
            }
        })
        .collect()
}

struct HopRun {
    router_us: Vec<f64>,
    direct_us: Vec<f64>,
    labels: Vec<String>,
    sent: usize,
    failed: usize,
}

/// Sends each probe through the router and then straight to the backend
/// that owns its cascade, closed loop on fresh connections. Forecast
/// answers must be byte-identical both ways.
fn hop_run(warm: &Warm, plan: &Plan, probes: &[Request], t: &mut Tracer) -> Result<HopRun, String> {
    let binary = plan.workload.binary();
    let labels: Vec<String> = warm
        .deployment
        .backends
        .iter()
        .map(ToString::to_string)
        .collect();
    let ring = HashRing::new(&labels, HashRing::DEFAULT_REPLICAS).map_err(|e| e.to_string())?;
    let connect =
        |addr: SocketAddr| Conn::connect(addr, binary).map_err(|e| format!("connect {addr}: {e}"));
    let mut router = connect(warm.deployment.router)?;
    let mut direct: Vec<Conn> = warm
        .deployment
        .backends
        .iter()
        .map(|&a| connect(a))
        .collect::<Result<_, _>>()?;
    let mut run = HopRun {
        router_us: Vec::new(),
        direct_us: Vec::new(),
        labels,
        sent: 0,
        failed: 0,
    };
    for probe in probes {
        let via_router = {
            let span = t.begin("client.via_router", probe.id, 0);
            let answer = router
                .round_trip(&probe.bytes)
                .map_err(|e| format!("router probe: {e}"))?;
            t.end(span);
            run.router_us.push(t.durations_us_of(span));
            answer
        };
        let owner = ring.route(&probe.cascade);
        let span = t.begin("client.direct", probe.id, 0);
        let answer = direct[owner]
            .round_trip(&probe.bytes)
            .map_err(|e| format!("backend probe: {e}"))?;
        t.end(span);
        run.direct_us.push(t.durations_us_of(span));
        run.sent += 2;
        let ok = |a: &[u8]| a.starts_with(br#"{"ok":true"#);
        let same = probe.class != Class::Forecast || via_router == answer;
        run.failed += usize::from(!ok(&via_router)) + usize::from(!ok(&answer) || !same);
    }
    Ok(run)
}

/// Latencies (µs) of closed-loop forecasts through the router, on a
/// fresh connection once the nominal phase is over.
fn forecast_probe(warm: &Warm, plan: &Plan, t: &mut Tracer) -> Result<Vec<f64>, String> {
    let mut router = Conn::connect(warm.deployment.router, plan.workload.binary())
        .map_err(|e| format!("connect: {e}"))?;
    let mut out = Vec::new();
    for probe in plan
        .nominal
        .requests()
        .chain(plan.probe.requests())
        .filter(|r| r.class == Class::Forecast)
        .take(FORECAST_PROBES)
    {
        let span = t.begin("client.forecast_probe", probe.id, 0);
        let answer = router
            .round_trip(&probe.bytes)
            .map_err(|e| format!("forecast probe: {e}"))?;
        t.end(span);
        if !answer.starts_with(br#"{"ok":true"#) {
            return Err("forecast probe answered with an error".into());
        }
        out.push(t.durations_us_of(span));
    }
    Ok(out)
}

impl Tracer {
    fn durations_us_of(&self, id: u64) -> f64 {
        let s = &self.spans[(id - 1) as usize];
        (s.end_ns - s.start_ns) as f64 / 1000.0
    }
}

/// `CascadeStore::get` at the resident count one backend holds for the
/// workload (set-up and nominal opens routed to it), and
/// `HashRing::route` over the stream's cascade ids, in ns per call.
fn store_and_ring(plan: &Plan, labels: &[String], t: &mut Tracer) -> Result<(f64, f64), String> {
    let ring = HashRing::new(labels, HashRing::DEFAULT_REPLICAS).map_err(|e| e.to_string())?;
    let requests: Vec<&Request> = plan
        .setup
        .requests()
        .chain(plan.nominal.requests())
        .collect();
    let store: CascadeStore<u64> = CascadeStore::new(ServeConfig::DEFAULT_CASCADE_CAPACITY, None);
    for r in requests
        .iter()
        .filter(|r| r.class == Class::Open && ring.route(&r.cascade) == 0)
    {
        store.insert(r.cascade.clone(), r.id);
    }
    let owned: Vec<&str> = requests
        .iter()
        .filter(|r| ring.route(&r.cascade) == 0)
        .map(|r| r.cascade.as_str())
        .collect();
    let ids: Vec<&str> = requests.iter().map(|r| r.cascade.as_str()).collect();
    let rounds = |n: usize| TIGHT_LOOP_CALLS.div_ceil(n.max(1));
    let get_rounds = rounds(owned.len());
    let span = t.begin("store.get_loop", 0, 0);
    for _ in 0..get_rounds {
        for id in &owned {
            black_box(store.get(black_box(id)));
        }
    }
    t.end(span);
    let store_ns = 1000.0 * t.durations_us_of(span) / (get_rounds * owned.len()).max(1) as f64;
    let route_rounds = rounds(ids.len());
    let span = t.begin("ring.route_loop", 0, 0);
    for _ in 0..route_rounds {
        for id in &ids {
            black_box(ring.route(black_box(id)));
        }
    }
    t.end(span);
    let ring_ns = 1000.0 * t.durations_us_of(span) / (route_rounds * ids.len()).max(1) as f64;
    Ok((store_ns, ring_ns))
}

/// Metric key of a lineup predictor's `name()`.
fn key(name: &str) -> String {
    name.replace('-', "_")
}

/// Walls (µs) of the pool fan-out refits one close of `story` runs, one
/// per closed hour.
fn close_refits(
    models: &[Box<dyn DiffusionPredictor>],
    graph: &Arc<dlm_graph::DiGraph>,
    story: &dlm_data::Cascade,
    t: &mut Tracer,
    request: u64,
) -> Vec<f64> {
    (1..=CLOSE_DEPTH)
        .map(|through| {
            let observation = offline_observation(graph, story, through);
            let span = t.begin("pool.parallel_map", request, 0);
            black_box(parallel_map(Parallelism::Auto, models, |_, m| {
                m.fit(&observation)
            }));
            t.end(span);
            t.durations_us_of(span)
        })
        .collect()
}

/// Fits the default lineup cold on the observation a close leaves
/// (hours 1..=3 of [`FIT_STORIES`] stories of the workload), serially per
/// spec and through the pool; calibrates `dl-cal`'s parameters directly;
/// and times predict and the PDE solve on the stream's forecast shapes.
/// Returns the median wall (µs) of one set-up close's refits, for the
/// decomposition.
fn fit_all(plan: &Plan, t: &mut Tracer, report: &mut Report) -> Result<f64, String> {
    let registry = ModelRegistry::with_builtins();
    let models: Vec<Box<dyn DiffusionPredictor>> = ModelSpec::default_lineup()
        .iter()
        .map(|spec| registry.build(spec).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let graph = Arc::new(plan.world.graph().clone());
    let warm: Vec<&dlm_data::Cascade> = (0..FIT_STORIES.min(plan.warm.len()))
        .map(|w| plan.warm_story(w))
        .collect();
    let stories: Vec<&dlm_data::Cascade> = if plan.workload == Workload::RefitStorm {
        plan.fresh
            .iter()
            .filter_map(|c| c.story.as_ref())
            .take(FIT_STORIES)
            .collect()
    } else {
        warm.clone()
    };
    let shapes: Vec<(u32, Vec<u32>)> = plan
        .nominal
        .requests()
        .chain(plan.probe.requests())
        .filter_map(|r| match &r.expect {
            Expect::Forecast { through, hours, .. } => Some((*through, hours.clone())),
            _ => None,
        })
        .take(24)
        .collect();
    let mut per_spec: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let (mut serial_ms, mut speedups, mut close_walls) = (Vec::new(), Vec::new(), Vec::new());
    let (mut evals, mut objective_us) = (Vec::new(), Vec::new());
    let (mut solve_us, mut steps) = (Vec::new(), Vec::new());
    for (k, story) in stories.iter().enumerate() {
        let request = k as u64;
        let walls = close_refits(&models, &graph, story, t, request);
        close_walls.push(walls.iter().sum::<f64>());
        let wall = walls[walls.len() - 1];
        let observation = offline_observation(&graph, story, CLOSE_DEPTH);
        let root = t.begin("fit.lineup", request, 0);
        let mut fits: Vec<(&'static str, Box<dyn FittedPredictor>)> = Vec::new();
        for m in &models {
            let span = t.begin(format!("fit.{}", key(m.name())), request, root);
            let fit = m
                .fit(&observation)
                .map_err(|e| format!("{} fit: {e}", m.name()))?;
            t.end(span);
            per_spec
                .entry(key(m.name()))
                .or_default()
                .push(t.durations_us_of(span) / 1000.0);
            fits.push((m.name(), fit));
        }
        t.end(root);
        let serial = t.durations_us_of(root);
        serial_ms.push(serial / 1000.0);
        speedups.push(serial / wall);

        let (evaluations, micros) = calibrate(t, request, &observation, &fits)?;
        evals.push(evaluations as f64);
        objective_us.push(micros / evaluations.max(1) as f64);

        let distances: Vec<u32> = (1..=observation.max_distance()).collect();
        let model =
            DlModel::paper_hops(observation.initial_profile()).map_err(|e| e.to_string())?;
        for (_, hours) in &shapes {
            let request_hours = PredictionRequest::new(distances.clone(), hours.clone())
                .map_err(|e| e.to_string())?;
            let root = t.begin("predict.lineup", request, 0);
            for (name, fit) in &fits {
                let span = t.begin(format!("predict.{}", key(name)), request, root);
                let _ = black_box(fit.predict(&request_hours));
                t.end(span);
            }
            t.end(root);
            let solver = SolverConfig::default();
            let t_end = f64::from(*hours.iter().max().expect("nonempty hours"));
            let t0 = model.initial_time();
            let span = t.begin("pde.solve", request, 0);
            pde::solve(
                model.params(),
                model.growth(),
                model.phi(),
                t0,
                t_end,
                &solver,
            )
            .map_err(|e| format!("pde solve: {e}"))?;
            t.end(span);
            solve_us.push(t.durations_us_of(span));
            steps.push(((t_end - t0) / solver.dt).round());
        }
    }
    for (name, metric) in [
        ("dl_cal", "fit.dl_cal_ms"),
        ("variable_dl", "fit.variable_dl_ms"),
        ("dl", "fit.dl_ms"),
        ("logistic", "fit.logistic_ms"),
        ("si", "fit.si_ms"),
        ("sis", "fit.sis_ms"),
    ] {
        report.set(
            metric,
            p50(per_spec.get(name).map_or(&[][..], Vec::as_slice)),
        );
    }
    report.set("fit.lineup_ms", p50(&serial_ms));
    report.set("pool.refit_speedup", p50(&speedups));
    report.set("calibrate.objective_evals", p50(&evals));
    report.set("calibrate.objective_us", p50(&objective_us));
    for (name, metric) in [
        ("predict.dl_cal", "predict.dl_cal_us"),
        ("predict.dl", "predict.dl_us"),
        ("predict.variable_dl", "predict.variable_dl_us"),
        ("predict.lineup", "predict.lineup_us"),
    ] {
        report.set(metric, p50(&t.durations_us(name)));
    }
    report.set("pde.solve_us", p50(&solve_us));
    report.set("pde.steps", p50(&steps));
    // The decomposition times set-up closes, which replay warm stories.
    if plan.workload == Workload::RefitStorm {
        close_walls = warm
            .iter()
            .enumerate()
            .map(|(k, story)| {
                close_refits(&models, &graph, story, t, k as u64)
                    .iter()
                    .sum()
            })
            .collect();
    }
    Ok(p50(&close_walls))
}

/// Runs `dl-cal`'s calibration directly with the inputs its fit uses,
/// returning the objective evaluations and the wall time (µs). Its
/// objective must equal the fitted `dl-cal`'s bit for bit, or the
/// counts describe some other search.
fn calibrate(
    t: &mut Tracer,
    request: u64,
    observation: &Observation,
    fits: &[(&'static str, Box<dyn FittedPredictor>)],
) -> Result<(usize, f64), String> {
    let targets: Vec<(u32, Vec<f64>)> = observation
        .hours()
        .iter()
        .zip(observation.profiles())
        .skip(1)
        .map(|(&h, p)| (h, p.clone()))
        .collect();
    let ModelSpec::DlCalibrated {
        seed_diffusion,
        seed_capacity,
        seed_growth,
        fit_capacity,
        max_evals,
        starts,
        multi_start_seed,
    } = ModelSpec::calibrated_dl()
    else {
        unreachable!("calibrated_dl builds a DlCalibrated spec")
    };
    let seed = DlParameters::new(
        seed_diffusion,
        seed_capacity,
        1.0,
        f64::from(observation.max_distance()),
    )
    .map_err(|e| e.to_string())?;
    let options = CalibrationOptions {
        fit_capacity,
        max_evals,
        multi_start: MultiStartConfig {
            starts,
            seed: multi_start_seed,
            parallelism: Parallelism::Serial,
            ..MultiStartConfig::default()
        },
        ..CalibrationOptions::default()
    };
    let growth: GrowthFamily = seed_growth;
    let span = t.begin("calibrate.search", request, 0);
    let calibration = calibrate_profiles(
        observation.initial_hour(),
        observation.initial_profile(),
        &targets,
        seed,
        growth.exp_decay(),
        &options,
    )
    .map_err(|e| format!("calibration: {e}"))?;
    t.end(span);
    let served = fits
        .iter()
        .find(|(name, _)| *name == "dl-cal")
        .and_then(|(_, fit)| fit.params().last().copied());
    if served.map(f64::to_bits) != Some(calibration.objective.to_bits()) {
        return Err("direct calibration disagrees with the dl-cal fit".into());
    }
    Ok((calibration.evaluations, t.durations_us_of(span)))
}

/// The cluster-wide `metrics` snapshot, scraped through the router.
fn scrape(router: SocketAddr) -> Result<MetricsSnapshot, String> {
    let mut conn = Conn::connect(router, false).map_err(|e| format!("scrape connect: {e}"))?;
    let answer = conn
        .round_trip(b"{\"type\":\"metrics\"}\n")
        .map_err(|e| format!("scrape: {e}"))?;
    let text = String::from_utf8(answer).map_err(|_| "scrape: not UTF-8".to_owned())?;
    let value = Json::parse(&text).map_err(|e| format!("scrape: {e}"))?;
    let snapshot = value.get("snapshot").ok_or("scrape: no snapshot")?;
    dlm_serve::snapshot_from_json(snapshot).map_err(|e| format!("scrape: {e}"))
}

/// A gauge summed over every series of that name (one per backend).
fn gauge_sum(snapshot: &MetricsSnapshot, name: &str) -> i64 {
    snapshot
        .series
        .iter()
        .filter(|s| s.name == name)
        .map(|s| match s.value {
            SeriesValue::Gauge(v) => v,
            SeriesValue::Counter(v) => i64::try_from(v).unwrap_or(i64::MAX),
            SeriesValue::Histogram(_) => 0,
        })
        .sum()
}

/// The backends' `dlm_service_micros{verb}` histograms, merged.
fn service_histogram(snapshot: &MetricsSnapshot, verb: &str) -> HistogramSnapshot {
    let mut merged = HistogramSnapshot::empty();
    for s in &snapshot.series {
        let labelled = s.labels.iter().any(|(k, v)| k == "verb" && v == verb);
        if let (true, true, SeriesValue::Histogram(h)) =
            (s.name == "dlm_service_micros", labelled, &s.value)
        {
            merged.merge_from(h);
        }
    }
    merged
}

/// `after − before`, bucket-wise (the observations in between).
fn subtract(after: &mut HistogramSnapshot, before: &HistogramSnapshot) {
    for (a, b) in after.buckets.iter_mut().zip(&before.buckets) {
        *a = a.saturating_sub(*b);
    }
    after.count = after.count.saturating_sub(before.count);
    after.sum = after.sum.saturating_sub(before.sum);
}

/// A quantile of a log2-bucket histogram, interpolated linearly inside
/// the bucket that holds it (bucket `i ≥ 1` spans `[2^(i−1), 2^i − 1]`).
fn interpolated_quantile(h: &HistogramSnapshot, q: f64) -> Option<f64> {
    let count: u64 = h.buckets.iter().sum();
    if count == 0 {
        return None;
    }
    let rank = q * count as f64;
    let mut seen = 0.0;
    for (i, &n) in h.buckets.iter().enumerate() {
        let n = n as f64;
        if n > 0.0 && seen + n >= rank {
            if i == 0 {
                return Some(0.0);
            }
            let low = (1u64 << (i - 1)) as f64;
            let high = ((1u64 << i) - 1) as f64;
            return Some(low + (high - low) * ((rank - seen) / n).clamp(0.0, 1.0));
        }
        seen += n;
    }
    None
}
