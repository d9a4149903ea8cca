//! The online forecasting service: server state, the refit scheduler,
//! and the JSON-lines-over-TCP front end.
//!
//! [`ServerState`] is the transport-free core — requests in, response
//! lines out — so in-process embedding (examples, tests) and the TCP
//! front end ([`DlmServer`]) share one implementation. The serving path
//! is the exact code path of the batch [`EvaluationPipeline`]
//! counterpart: observations built from the same density matrices,
//! predictors built from the same [`ModelSpec`] registry, fits cached in
//! the same bounded [`FittedModelCache`] — which is what makes served
//! forecasts byte-identical to offline evaluation on the same prefix.
//!
//! ## Refit scheduling
//!
//! When an ingest batch closes one or more hours, the server enqueues
//! one fit job per registered model for each newly closed hour onto the
//! work-stealing executor in [`dlm_numerics::pool`] and stores the
//! outcomes in the cache. A subsequent `forecast` for those hours is
//! then a pure cache replay; a `forecast` that raced ahead of the
//! scheduler simply fits on demand through the same
//! [`FittedModelCache::get_or_fit`] path and gets the identical result.
//!
//! [`EvaluationPipeline`]: dlm_core::evaluate::EvaluationPipeline

use crate::error::{Result, ServeError};
use crate::json::Json;
use crate::live::LiveCascade;
use crate::protocol::{batch_response, error_response, OpenMetric, Request};
use crate::reactor::ReactorHandle;
use crate::store::CascadeStore;
use crate::telemetry::{
    self, metrics_response, response_is_error, verb_label, RefitMetrics, RequestMetrics,
    VERB_LABELS,
};
use dlm_cascade::interest_groups::interest_groups;
use dlm_cluster::{hash64, hex, CascadeSnapshot};
use dlm_core::evaluate::{FitOutcome, FittedModelCache, Parallelism};
use dlm_core::predict::{DiffusionPredictor, GraphContext, Observation, PredictionRequest};
use dlm_core::registry::{ModelRegistry, ModelSpec};
use dlm_data::SyntheticWorld;
use dlm_graph::DiGraph;
use dlm_numerics::pool::parallel_map;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tuning knobs for [`ServerState`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The model lineup served by default (and refit on hour close).
    pub lineup: Vec<ModelSpec>,
    /// Bound on the fitted-model cache.
    pub cache_capacity: usize,
    /// Bound on the live-cascade store: opening a cascade past this
    /// bound evicts the least-recently-touched one.
    pub cascade_capacity: usize,
    /// Idle TTL for live cascades: a cascade untouched for longer than
    /// this is expired on the next store access. `None` disables expiry
    /// (the capacity bound still holds).
    pub cascade_ttl: Option<Duration>,
    /// Parallelism of the refit scheduler's fit fan-out.
    pub parallelism: Parallelism,
    /// Whether closing an hour schedules lineup refits eagerly. With
    /// `false`, fits happen lazily on the first forecast that needs
    /// them — same results, different latency profile.
    pub prewarm: bool,
    /// Directory for cascade snapshot persistence. With a directory
    /// configured, every cascade's full ingest state is written there
    /// (one `<hex id>.snap` file per cascade, atomically replaced) after
    /// each mutation, and existing snapshots are replayed at startup —
    /// a restarted server serves byte-identical forecasts with the same
    /// late-vote watermarks, no re-`open` and no vote replay required.
    ///
    /// The directory tracks the live store exactly: a cascade shed by
    /// the `cascade_capacity` bound or the `cascade_ttl` sweep takes
    /// its snapshot file with it (replay must not resurrect it), and
    /// startup fails fast when the directory holds more snapshots than
    /// `cascade_capacity` instead of silently dropping some of them
    /// mid-replay.
    pub snapshot_dir: Option<PathBuf>,
}

impl ServeConfig {
    /// Default bound on concurrently resident live cascades.
    pub const DEFAULT_CASCADE_CAPACITY: usize = 4096;
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            lineup: ModelSpec::default_lineup(),
            cache_capacity: FittedModelCache::DEFAULT_CAPACITY,
            cascade_capacity: Self::DEFAULT_CASCADE_CAPACITY,
            cascade_ttl: None,
            parallelism: Parallelism::Auto,
            prewarm: true,
            snapshot_dir: None,
        }
    }
}

/// One cascade under observation plus its optional graph context.
#[derive(Debug)]
struct Slot {
    live: LiveCascade,
    /// Follower graph + initiator for epidemic predictors.
    graph: Option<(Arc<DiGraph>, usize)>,
}

impl Slot {
    /// The observation over hours `1..=through` — the same window the
    /// offline `EvaluationCase::forecast(_, matrix, 1, through, _)`
    /// exposes to predictors. The matrix comes from the cascade's
    /// copy-on-close snapshot cache, so repeated forecasts at the same
    /// watermark re-derive nothing.
    fn observation(&mut self, through: u32) -> Result<Observation> {
        let matrix = self.live.matrix_snapshot(through)?;
        let hours: Vec<u32> = (1..=through).collect();
        let observation = Observation::from_matrix(&matrix, &hours)?;
        Ok(match &self.graph {
            Some((graph, initiator)) => observation.with_graph(GraphContext::new(
                Arc::clone(graph),
                *initiator,
                self.live.hour1_voters().to_vec(),
            )),
            None => observation,
        })
    }
}

/// The transport-free service core: owns the cascades, the model
/// lineup, and the bounded fitted-model cache.
#[derive(Debug)]
pub struct ServerState {
    /// (canonical spec string, predictor), in lineup order.
    models: Vec<(String, Box<dyn DiffusionPredictor>)>,
    registry: ModelRegistry,
    cache: FittedModelCache,
    parallelism: Parallelism,
    prewarm: bool,
    universe: Option<Universe>,
    /// Live cascades, bounded and TTL-swept; see [`crate::store`].
    /// Slots are `Arc<Mutex<_>>` so an in-flight request keeps its
    /// cascade alive across an eviction.
    cascades: CascadeStore<Arc<Mutex<Slot>>>,
    snapshot_dir: Option<PathBuf>,
    requests: AtomicU64,
    refit_jobs: AtomicU64,
    hours_closed: AtomicU64,
    /// The ring version last pushed by a routing tier (`ring` verb);
    /// `0` means never pushed, and `stats` omits the field entirely so
    /// a standalone server's responses are unchanged.
    ring_version: AtomicU64,
    /// Per-instance metrics registry plus the pre-registered hot-path
    /// handles. Per-instance (not a global static) because tests bind
    /// many servers in one process and their counters must not bleed.
    metrics_registry: dlm_obs::Registry,
    request_metrics: RequestMetrics,
    refit_metrics: RefitMetrics,
}

/// What the server knows about the social universe its cascades spread
/// over. A full synthetic world enables `open` by story ordinal and the
/// interest metric; a bare graph is enough for hop-metric opens by
/// explicit initiator — which is all the scenario factory and real-log
/// replay need, and spares every backend the cost (and the obligation)
/// of regenerating a world it never uses.
#[derive(Debug)]
enum Universe {
    /// Synthetic world plus its graph (shared, not re-cloned per open).
    /// Boxed: a world is hundreds of bytes, a bare graph handle is one
    /// pointer, and graph-only servers shouldn't pay the larger slot.
    World(Box<SyntheticWorld>, Arc<DiGraph>),
    /// Just a follower graph.
    Graph(Arc<DiGraph>),
}

impl Universe {
    fn graph(&self) -> &Arc<DiGraph> {
        match self {
            Self::World(_, graph) | Self::Graph(graph) => graph,
        }
    }

    fn world(&self) -> Option<&SyntheticWorld> {
        match self {
            Self::World(world, _) => Some(world),
            Self::Graph(_) => None,
        }
    }
}

impl ServerState {
    /// Creates a server core without a universe: cascades must be
    /// opened with an explicit initiator via [`ServerState::insert_cascade`]
    /// (protocol `open` needs at least a graph).
    ///
    /// # Errors
    ///
    /// Propagates registry construction errors for the configured
    /// lineup.
    pub fn new(config: ServeConfig) -> Result<Self> {
        Self::build(config, None)
    }

    /// Creates a server core around a synthetic world, enabling protocol
    /// `open` requests by story ordinal or explicit initiator.
    ///
    /// # Errors
    ///
    /// Propagates registry construction errors.
    pub fn with_world(config: ServeConfig, world: SyntheticWorld) -> Result<Self> {
        let graph = Arc::new(world.graph().clone());
        Self::build(config, Some(Universe::World(Box::new(world), graph)))
    }

    /// Creates a server core around a bare follower graph: protocol
    /// `open` works with an explicit `initiator` and the hop metric —
    /// the shape scenario replay and real-log (`--digg-dir`) replay
    /// use. Story-ordinal and interest-metric opens still require
    /// [`ServerState::with_world`].
    ///
    /// # Errors
    ///
    /// Propagates registry construction errors.
    pub fn with_graph(config: ServeConfig, graph: Arc<DiGraph>) -> Result<Self> {
        Self::build(config, Some(Universe::Graph(graph)))
    }

    fn build(config: ServeConfig, universe: Option<Universe>) -> Result<Self> {
        if config.lineup.is_empty() {
            return Err(ServeError::InvalidParameter {
                name: "lineup",
                reason: "need at least one model spec".into(),
            });
        }
        let registry = ModelRegistry::with_builtins();
        let models = config
            .lineup
            .iter()
            .map(|spec| Ok((spec.to_string(), registry.build(spec)?)))
            .collect::<Result<Vec<_>>>()?;
        let mut cascades = CascadeStore::new(config.cascade_capacity, config.cascade_ttl);
        if let Some(dir) = config.snapshot_dir.clone() {
            // A capacity- or TTL-shed cascade must take its snapshot
            // file with it, or a restart would resurrect state the
            // store already dropped. Best-effort: a missing file just
            // means nothing was persisted yet.
            cascades.set_shed_hook(move |id| {
                let _ = std::fs::remove_file(snapshot_path(&dir, id));
            });
        }
        let obs_registry = dlm_obs::Registry::new();
        let request_metrics = RequestMetrics::new(&obs_registry, "dlm", VERB_LABELS);
        let lineup_specs: Vec<String> = models.iter().map(|(s, _)| s.clone()).collect();
        let refit_metrics = RefitMetrics::new(&obs_registry, &lineup_specs);
        let state = Self {
            models,
            registry,
            cache: FittedModelCache::new(config.cache_capacity),
            parallelism: config.parallelism,
            prewarm: config.prewarm,
            universe,
            cascades,
            snapshot_dir: config.snapshot_dir,
            requests: AtomicU64::new(0),
            refit_jobs: AtomicU64::new(0),
            hours_closed: AtomicU64::new(0),
            ring_version: AtomicU64::new(0),
            metrics_registry: obs_registry,
            request_metrics,
            refit_metrics,
        };
        state.replay_snapshots()?;
        Ok(state)
    }

    /// Replays every `*.snap` file in the configured snapshot directory
    /// (in sorted filename order, so replay is deterministic) into the
    /// cascade store. Corrupt or inconsistent snapshots fail the build —
    /// silently dropping persisted cascade state would break the
    /// restart-identity guarantee — and so does a directory holding
    /// more snapshots than `cascade_capacity`, which would otherwise
    /// LRU-shed (and, with the shed hook, delete) persisted cascades
    /// mid-replay.
    fn replay_snapshots(&self) -> Result<()> {
        let Some(dir) = &self.snapshot_dir else {
            return Ok(());
        };
        std::fs::create_dir_all(dir)?;
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|e| e == "snap"))
            .collect();
        if paths.len() > self.cascades.capacity() {
            return Err(ServeError::InvalidParameter {
                name: "snapshot_dir",
                reason: format!(
                    "{} snapshot files exceed cascade_capacity {}; raise the capacity \
                     or prune the directory instead of silently dropping persisted cascades",
                    paths.len(),
                    self.cascades.capacity()
                ),
            });
        }
        paths.sort();
        for path in paths {
            let bytes = std::fs::read(&path)?;
            let snap = CascadeSnapshot::decode(&bytes)?;
            let live = LiveCascade::from_snapshot(&snap)?;
            let graph = self.graph_context_for(snap.initiator)?;
            // Insert directly — re-persisting what was just read would
            // only churn the files.
            self.cascades
                .insert(snap.id.clone(), Arc::new(Mutex::new(Slot { live, graph })));
        }
        Ok(())
    }

    /// Resolves the graph context a snapshot's recorded initiator needs:
    /// hop-metric cascades carry `Some(initiator)` and require this
    /// server to share the origin's graph, or the epidemic predictors
    /// would silently serve different forecasts.
    fn graph_context_for(&self, initiator: Option<u64>) -> Result<Option<(Arc<DiGraph>, usize)>> {
        let Some(u) = initiator else { return Ok(None) };
        let graph =
            self.universe
                .as_ref()
                .map(Universe::graph)
                .ok_or(ServeError::InvalidParameter {
                    name: "snapshot",
                    reason: "snapshot carries a graph initiator but this server has no graph"
                        .into(),
                })?;
        let u = usize::try_from(u).map_err(|_| ServeError::InvalidParameter {
            name: "snapshot",
            reason: format!("initiator {u} does not fit usize"),
        })?;
        if u >= graph.node_count() {
            return Err(ServeError::InvalidParameter {
                name: "snapshot",
                reason: format!("initiator {u} outside graph of {}", graph.node_count()),
            });
        }
        Ok(Some((Arc::clone(graph), u)))
    }

    /// Writes `slot`'s snapshot into the configured snapshot directory
    /// (write-to-temp + rename, so a crash mid-write never leaves a
    /// torn file where replay would find it). A no-op without a
    /// configured directory. Callers hold the slot lock, which also
    /// serializes writers of the same cascade's file.
    fn persist(&self, id: &str, slot: &Slot) -> Result<()> {
        let Some(dir) = &self.snapshot_dir else {
            return Ok(());
        };
        let initiator = slot.graph.as_ref().map(|&(_, u)| u as u64);
        let bytes = slot.live.to_snapshot(id, initiator).encode();
        let path = snapshot_path(dir, id);
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, &path)?;
        Ok(())
    }

    /// The canonical spec strings of the served lineup, in order.
    #[must_use]
    pub fn lineup(&self) -> Vec<String> {
        self.models.iter().map(|(s, _)| s.clone()).collect()
    }

    /// The fitted-model cache (lifetime counters, bound).
    #[must_use]
    pub fn cache(&self) -> &FittedModelCache {
        &self.cache
    }

    /// Registers a cascade built by the caller (any distance metric,
    /// any group construction), with optional graph context for the
    /// epidemic predictors. Inserting past the configured cascade
    /// capacity evicts the least-recently-touched cascade.
    ///
    /// # Errors
    ///
    /// [`ServeError::DuplicateCascade`] when the id is taken.
    pub fn insert_cascade(
        &self,
        id: impl Into<String>,
        live: LiveCascade,
        graph: Option<(Arc<DiGraph>, usize)>,
    ) -> Result<()> {
        let id = id.into();
        let slot = Arc::new(Mutex::new(Slot { live, graph }));
        if !self.cascades.insert(id.clone(), Arc::clone(&slot)) {
            return Err(ServeError::DuplicateCascade(id));
        }
        let guard = slot.lock().expect("cascade slot poisoned");
        self.persist(&id, &guard)
    }

    /// Looks up a live cascade, touching its recency.
    fn slot(&self, cascade: &str) -> Result<Arc<Mutex<Slot>>> {
        self.cascades
            .get(cascade)
            .ok_or_else(|| ServeError::UnknownCascade(cascade.to_owned()))
    }

    /// Handles one protocol line, returning the response line (without
    /// the trailing newline). Never panics on malformed input — protocol
    /// and domain errors become `{"ok":false,...}` responses.
    pub fn handle_line(&self, line: &str) -> String {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let (verb, trace, response) = match Request::parse_with_trace(line) {
            // Batches are answered at the line layer: sub-responses are
            // composed as strings so the wrapper is byte-identical to
            // what a routing tier splices from relayed backend lines.
            Ok((Request::Batch { requests }, trace)) => {
                ("batch", trace, self.handle_batch(&requests))
            }
            Ok((request, trace)) => (
                verb_label(&request),
                trace,
                self.handle(&request)
                    .unwrap_or_else(|e| error_response(&e.to_string()))
                    .to_string(),
            ),
            Err(e) => ("invalid", None, error_response(&e.to_string()).to_string()),
        };
        let elapsed = started.elapsed();
        self.request_metrics
            .count(verb, response_is_error(&response));
        self.request_metrics.observe_service(verb, elapsed);
        if elapsed >= telemetry::SLOW_REQUEST && dlm_obs::enabled(dlm_obs::Level::Warn) {
            dlm_obs::log(
                dlm_obs::Level::Warn,
                "dlm-serve",
                &format!(
                    "slow request verb={verb} micros={} trace={}",
                    elapsed.as_micros(),
                    trace.as_deref().unwrap_or("-"),
                ),
            );
        }
        response
    }

    /// Answers a `batch` line: each item is parsed and handled
    /// independently, in order, and the serialized sub-responses are
    /// spliced into one [`batch_response`] line. Only the
    /// cascade-scoped data verbs may ride in a batch — admin verbs
    /// (`stats`, `restore`, `cascades`, `evict`) and nested batches get
    /// per-item errors, keeping batch semantics identical on a single
    /// server and across the routing tier.
    fn handle_batch(&self, items: &[Json]) -> String {
        let results: Vec<String> = items
            .iter()
            .map(|item| {
                let mut verb = "invalid";
                let result = Request::from_value(item)
                    .and_then(|request| {
                        verb = verb_label(&request);
                        match request {
                            Request::Open { .. }
                            | Request::Ingest { .. }
                            | Request::Forecast { .. }
                            | Request::Snapshot { .. } => self.handle(&request),
                            _ => Err(ServeError::Protocol(
                                "batch items must be open/ingest/forecast/snapshot".into(),
                            )),
                        }
                    })
                    .unwrap_or_else(|e| error_response(&e.to_string()))
                    .to_string();
                // Count each item under its own verb: per-verb counters
                // track logical operations, whether they rode a batch
                // or their own line.
                self.request_metrics.count(verb, response_is_error(&result));
                result
            })
            .collect();
        batch_response(&results)
    }

    /// Handles one parsed request.
    ///
    /// # Errors
    ///
    /// Returns the domain error the request ran into; the TCP layer
    /// renders it as an `{"ok":false,...}` line.
    pub fn handle(&self, request: &Request) -> Result<Json> {
        match request {
            Request::Open {
                cascade,
                initiator,
                story,
                metric,
                horizon,
                submit_time,
                regime,
            } => self.handle_open(
                cascade,
                *initiator,
                *story,
                *metric,
                *horizon,
                *submit_time,
                regime.as_deref(),
            ),
            Request::Ingest {
                cascade,
                votes,
                now,
            } => self.handle_ingest(cascade, votes, *now),
            Request::Forecast {
                cascade,
                hours,
                distances,
                models,
                through,
            } => self.handle_forecast(
                cascade,
                hours,
                distances.as_deref(),
                models.as_deref(),
                *through,
            ),
            Request::Stats => Ok(self.handle_stats()),
            Request::Snapshot { cascade } => self.handle_snapshot(cascade),
            Request::Restore { snapshot } => self.handle_restore(snapshot),
            Request::Cascades => Ok(self.handle_cascades()),
            Request::Checksums => self.handle_checksums(),
            Request::Evict { cascade } => self.handle_evict(cascade),
            Request::Metrics => Ok(self.handle_metrics()),
            Request::Ring { version } => Ok(self.handle_ring(*version)),
            // Reachable only through direct `handle` calls —
            // `handle_line` intercepts batches before this dispatch.
            Request::Batch { .. } => Err(ServeError::Protocol(
                "batch requests are answered at the line layer".into(),
            )),
        }
    }

    /// The `metrics` verb: refreshes the scrape-time derived gauges
    /// (cache and store occupancy — state that lives in its own
    /// structures rather than in hot-path counters), freezes the
    /// registry, and renders the response.
    fn handle_metrics(&self) -> Json {
        let cache = self.cache.stats();
        let store = self.cascades.stats();
        let set = |name: &str, v: i64| self.metrics_registry.gauge(name, &[]).set(v);
        set("dlm_cache_hits", cache.hits as i64);
        set("dlm_cache_misses", cache.misses as i64);
        set("dlm_cache_evictions", cache.evictions as i64);
        set("dlm_cache_entries", self.cache.len() as i64);
        set("dlm_cascades_resident", self.cascades.len() as i64);
        set("dlm_cascade_evictions", store.evictions as i64);
        set("dlm_cascade_expirations", store.expirations as i64);
        set(
            "dlm_hours_closed",
            self.hours_closed.load(Ordering::Relaxed) as i64,
        );
        metrics_response(&self.metrics_registry.snapshot())
    }

    /// The `ring` verb: a routing tier pushing its committed topology
    /// version. Echoed back by `stats` so the router's scatter-gather
    /// can detect a backend that missed a rebalance.
    fn handle_ring(&self, version: u64) -> Json {
        let previous = self.ring_version.swap(version, Ordering::Relaxed);
        if previous != version && dlm_obs::enabled(dlm_obs::Level::Info) {
            dlm_obs::log(
                dlm_obs::Level::Info,
                "dlm-serve",
                &format!("ring version {previous} -> {version}"),
            );
        }
        Json::Obj(vec![
            ("ok".to_owned(), Json::Bool(true)),
            ("ring_version".to_owned(), Json::num(version as f64)),
        ])
    }

    /// This instance's metrics registry — how embedding tests and the
    /// TCP front end (which registers transport metrics) reach the
    /// telemetry without a global static.
    #[must_use]
    pub fn metrics_registry(&self) -> &dlm_obs::Registry {
        &self.metrics_registry
    }

    fn handle_snapshot(&self, cascade: &str) -> Result<Json> {
        let slot = self.slot(cascade)?;
        let slot = slot.lock().expect("cascade slot poisoned");
        let initiator = slot.graph.as_ref().map(|&(_, u)| u as u64);
        let snap = slot.live.to_snapshot(cascade, initiator);
        Ok(Json::Obj(vec![
            ("ok".to_owned(), Json::Bool(true)),
            ("cascade".to_owned(), Json::str(cascade)),
            (
                "format".to_owned(),
                Json::num(f64::from(dlm_cluster::FORMAT_VERSION)),
            ),
            (
                "closed_hours".to_owned(),
                Json::num(f64::from(slot.live.closed_hours())),
            ),
            (
                "snapshot".to_owned(),
                Json::Str(hex::encode(&snap.encode())),
            ),
        ]))
    }

    fn handle_restore(&self, snapshot: &str) -> Result<Json> {
        let bytes = hex::decode(snapshot)?;
        let snap = CascadeSnapshot::decode(&bytes)?;
        let live = LiveCascade::from_snapshot(&snap)?;
        let graph = self.graph_context_for(snap.initiator)?;
        let closed = live.closed_hours();
        let counted = live.counted_votes();
        self.insert_cascade(snap.id.clone(), live, graph)?;
        Ok(Json::Obj(vec![
            ("ok".to_owned(), Json::Bool(true)),
            ("cascade".to_owned(), Json::str(snap.id)),
            ("closed_hours".to_owned(), Json::num(f64::from(closed))),
            ("counted".to_owned(), Json::num(counted as f64)),
        ]))
    }

    fn handle_cascades(&self) -> Json {
        Json::Obj(vec![
            ("ok".to_owned(), Json::Bool(true)),
            (
                "cascades".to_owned(),
                Json::Arr(self.cascades.ids().into_iter().map(Json::Str).collect()),
            ),
        ])
    }

    /// The `checksums` verb: one content hash per resident cascade, in
    /// id order. Each hash is `hash64` over the cascade's encoded
    /// snapshot bytes — the same bytes `snapshot`/`restore` carry — so
    /// two replicas agree on a checksum exactly when a restore from one
    /// would be a byte-identical no-op on the other. Hashes ride as
    /// 16-digit hex strings because JSON numbers are doubles (exact
    /// only to 2^53) and a truncated `u64` cannot be compared.
    fn handle_checksums(&self) -> Result<Json> {
        let mut entries = Vec::new();
        for id in self.cascades.ids() {
            // A cascade may be evicted between `ids()` and `slot()`;
            // skipping it is correct — it is no longer resident.
            let Ok(slot) = self.slot(&id) else { continue };
            let slot = slot.lock().expect("cascade slot poisoned");
            let initiator = slot.graph.as_ref().map(|&(_, u)| u as u64);
            let digest = hash64(&slot.live.to_snapshot(&id, initiator).encode());
            drop(slot);
            entries.push(Json::Arr(vec![
                Json::Str(id),
                Json::Str(format!("{digest:016x}")),
            ]));
        }
        Ok(Json::Obj(vec![
            ("ok".to_owned(), Json::Bool(true)),
            ("count".to_owned(), Json::num(entries.len() as f64)),
            ("checksums".to_owned(), Json::Arr(entries)),
        ]))
    }

    fn handle_evict(&self, cascade: &str) -> Result<Json> {
        let evicted = self.cascades.remove(cascade);
        if evicted {
            if let Some(dir) = &self.snapshot_dir {
                // Missing-file errors are fine (nothing persisted yet);
                // anything else would leave a ghost cascade for replay.
                if let Err(e) = std::fs::remove_file(snapshot_path(dir, cascade)) {
                    if e.kind() != std::io::ErrorKind::NotFound {
                        return Err(e.into());
                    }
                }
            }
        }
        Ok(Json::Obj(vec![
            ("ok".to_owned(), Json::Bool(true)),
            ("cascade".to_owned(), Json::str(cascade)),
            ("evicted".to_owned(), Json::Bool(evicted)),
        ]))
    }

    #[allow(clippy::too_many_arguments)] // mirrors the wire verb's field set
    fn handle_open(
        &self,
        cascade: &str,
        initiator: Option<usize>,
        story: Option<u32>,
        metric: OpenMetric,
        horizon: u32,
        submit_time: Option<u64>,
        regime: Option<&str>,
    ) -> Result<Json> {
        let universe = self.universe.as_ref().ok_or(ServeError::InvalidParameter {
            name: "open",
            reason: "this server has no graph; register cascades with insert_cascade".into(),
        })?;
        let graph = universe.graph();
        // Story ordinals and the interest metric are defined in terms
        // of the synthetic world; everything else needs only the graph.
        let world_for = |what: &str| {
            universe
                .world()
                .ok_or_else(|| ServeError::InvalidParameter {
                    name: "open",
                    reason: format!(
                        "{what} requires a synthetic world, this server has only a graph"
                    ),
                })
        };
        let initiator = match (initiator, story) {
            (Some(u), None) => {
                if u >= graph.node_count() {
                    return Err(ServeError::InvalidParameter {
                        name: "initiator",
                        reason: format!("user {u} outside graph of {}", graph.node_count()),
                    });
                }
                u
            }
            (None, Some(0)) => {
                return Err(ServeError::InvalidParameter {
                    name: "story",
                    reason: "story ordinals are 1-based".into(),
                })
            }
            (None, Some(s)) => world_for("`story`")?.story_initiator((s - 1) as usize)?,
            _ => {
                return Err(ServeError::Protocol(
                    "open needs exactly one of `initiator` or `story`".into(),
                ))
            }
        };
        // Simulated cascades all submit at the simulator's fixed epoch;
        // explicit submit_time overrides for replayed real logs.
        let submit_time = submit_time.unwrap_or(dlm_data::simulate::SIMULATED_SUBMIT_TIME);
        let (live, graph_context, metric_name) = match metric {
            OpenMetric::Hops { max_hops } => (
                LiveCascade::for_hops(graph.as_ref(), initiator, max_hops, submit_time, horizon)?,
                // Epidemic predictors walk the follower graph from the
                // hour-1 seed set; only the hop metric gives them that.
                Some((Arc::clone(graph), initiator)),
                "hops",
            ),
            OpenMetric::Interest { groups, strategy } => {
                let world = world_for("`metric: interest`")?;
                let groups = interest_groups(
                    world.profile(),
                    initiator,
                    world.user_count(),
                    groups,
                    strategy,
                )?;
                (
                    LiveCascade::new(&groups, submit_time, horizon)?,
                    None,
                    "interest",
                )
            }
        };
        let distances = live.max_distance();
        self.insert_cascade(cascade, live, graph_context)?;
        if let Some(regime) = regime {
            // Per-regime open counts for soak runs. Sanitized so a
            // hostile tag can't explode series cardinality shapes or
            // corrupt the exposition; each distinct input still maps
            // to a stable label.
            self.metrics_registry
                .counter(
                    "dlm_cascades_opened_total",
                    &[("regime", &dlm_obs::sanitize_label_value(regime))],
                )
                .inc();
        }
        Ok(Json::Obj(vec![
            ("ok".to_owned(), Json::Bool(true)),
            ("cascade".to_owned(), Json::str(cascade)),
            ("metric".to_owned(), Json::str(metric_name)),
            ("initiator".to_owned(), Json::num(initiator as f64)),
            ("distances".to_owned(), Json::num(f64::from(distances))),
            ("horizon".to_owned(), Json::num(f64::from(horizon))),
            ("submit_time".to_owned(), Json::num(submit_time as f64)),
        ]))
    }

    fn handle_ingest(
        &self,
        cascade: &str,
        votes: &[(u64, usize)],
        now: Option<u64>,
    ) -> Result<Json> {
        // Apply the batch under the table lock (cheap integer updates),
        // and capture the observations for any newly closed hours so
        // the expensive refits run after the lock is dropped. A vote
        // rejected mid-batch (e.g. a late arrival) stops the batch at
        // that vote per the documented partial-apply contract — but the
        // accounting and refit scheduling for hours the applied prefix
        // already closed must still happen, or the scheduler and the
        // `hours_closed` counter silently fall out of step.
        let mut batch_error: Option<ServeError> = None;
        let slot = self.slot(cascade)?;
        let (before, after, counted, ignored, refit_observations, persisted) = {
            let mut slot = slot.lock().expect("cascade slot poisoned");
            let slot = &mut *slot;
            let before = slot.live.closed_hours();
            for &(timestamp, voter) in votes {
                if let Err(e) = slot.live.ingest(dlm_data::Vote {
                    timestamp,
                    voter,
                    story: 0,
                }) {
                    batch_error = Some(e);
                    break;
                }
            }
            if batch_error.is_none() {
                if let Some(now) = now {
                    slot.live.advance_to(now);
                }
            }
            let after = slot.live.closed_hours();
            let refit_observations: Vec<Observation> = if self.prewarm {
                (before + 1..=after)
                    .map(|k| slot.observation(k))
                    .collect::<Result<_>>()?
            } else {
                Vec::new()
            };
            // Persist even when the batch stopped early: the applied
            // prefix is real state a restart must not lose.
            let persisted = self.persist(cascade, slot);
            (
                before,
                after,
                slot.live.counted_votes(),
                slot.live.ignored_votes(),
                refit_observations,
                persisted,
            )
        };
        self.hours_closed
            .fetch_add(u64::from(after - before), Ordering::Relaxed);
        for observation in &refit_observations {
            self.refit(observation);
        }
        if let Some(e) = batch_error {
            return Err(e);
        }
        persisted?;
        Ok(Json::Obj(vec![
            ("ok".to_owned(), Json::Bool(true)),
            ("cascade".to_owned(), Json::str(cascade)),
            ("closed_hours".to_owned(), Json::num(f64::from(after))),
            (
                "newly_closed".to_owned(),
                Json::num(f64::from(after - before)),
            ),
            ("counted".to_owned(), Json::num(counted as f64)),
            ("ignored".to_owned(), Json::num(ignored as f64)),
        ]))
    }

    /// The refit scheduler: one fit job per lineup model on the
    /// work-stealing pool, outcomes cached. Already-cached fits are
    /// replayed, not recomputed.
    fn refit(&self, observation: &Observation) {
        self.refit_jobs
            .fetch_add(self.models.len() as u64, Ordering::Relaxed);
        self.refit_metrics
            .fits_started
            .add(self.models.len() as u64);
        let outcomes = parallel_map(self.parallelism, &self.models, |i, (spec, predictor)| {
            let started = Instant::now();
            let outcome = self.cache.get_or_fit(predictor.as_ref(), spec, observation);
            // Cache hits land in the lowest buckets; the histogram is a
            // service-time distribution, not a pure solver profile.
            self.refit_metrics.lineup_fit[i].observe_duration(started.elapsed());
            outcome
        });
        self.refit_metrics.fits_completed.add(outcomes.len() as u64);
        self.refit_metrics
            .fit_failures
            .add(outcomes.iter().filter(|o| o.is_err()).count() as u64);
    }

    fn handle_forecast(
        &self,
        cascade: &str,
        hours: &[u32],
        distances: Option<&[u32]>,
        models: Option<&[String]>,
        through: Option<u32>,
    ) -> Result<Json> {
        let slot = self.slot(cascade)?;
        let (observation, max_distance, through) = {
            let mut slot = slot.lock().expect("cascade slot poisoned");
            let through = through.unwrap_or_else(|| slot.live.closed_hours());
            (
                slot.observation(through)?,
                slot.live.max_distance(),
                through,
            )
        };
        let distances: Vec<u32> = match distances {
            Some(d) => d.to_vec(),
            None => (1..=max_distance).collect(),
        };
        let request = PredictionRequest::new(distances.clone(), hours.to_vec())?;

        // Resolve the served model set: lineup entries are prebuilt;
        // ad-hoc spec strings build through the registry and key the
        // cache by their canonical form. `adhoc` owns the built
        // predictors; `picks` records where each requested model lives.
        enum Pick {
            Lineup(usize),
            Adhoc(usize),
        }
        let mut adhoc: Vec<(String, Box<dyn DiffusionPredictor>)> = Vec::new();
        let picks: Vec<Pick> = match models {
            None => (0..self.models.len()).map(Pick::Lineup).collect(),
            Some(names) => names
                .iter()
                .map(|name| {
                    if let Some(i) = self.models.iter().position(|(s, _)| s == name) {
                        Ok(Pick::Lineup(i))
                    } else {
                        let spec: ModelSpec = name
                            .parse()
                            .map_err(|e: dlm_core::DlError| ServeError::Protocol(e.to_string()))?;
                        adhoc.push((spec.to_string(), self.registry.build(&spec)?));
                        Ok(Pick::Adhoc(adhoc.len() - 1))
                    }
                })
                .collect::<Result<_>>()?,
        };
        let selected: Vec<(&str, &dyn DiffusionPredictor)> = picks
            .iter()
            .map(|pick| {
                let (s, p) = match *pick {
                    Pick::Lineup(i) => &self.models[i],
                    Pick::Adhoc(i) => &adhoc[i],
                };
                (s.as_str(), p.as_ref())
            })
            .collect();

        // Fit-time histograms for the selected specs: lineup picks
        // reuse the pre-registered handles; ad-hoc specs get-or-create
        // (cold next to the fit itself).
        let fit_hists: Vec<dlm_obs::Histogram> = picks
            .iter()
            .map(|pick| match *pick {
                Pick::Lineup(i) => self.refit_metrics.lineup_fit[i].clone(),
                Pick::Adhoc(i) => self.refit_metrics.fit_histogram(&adhoc[i].0),
            })
            .collect();
        let fits: Vec<FitOutcome> =
            parallel_map(self.parallelism, &selected, |i, &(spec, predictor)| {
                let started = Instant::now();
                let outcome = self.cache.get_or_fit(predictor, spec, &observation);
                fit_hists[i].observe_duration(started.elapsed());
                outcome
            });
        let mut model_entries = Vec::with_capacity(selected.len());
        for (&(spec, _), fit) in selected.iter().zip(fits) {
            let entry = match fit {
                Ok(fitted) => match fitted.predict(&request) {
                    Ok(prediction) => {
                        let values: Vec<Json> = distances
                            .iter()
                            .map(|&d| {
                                Json::Arr(
                                    hours
                                        .iter()
                                        .map(|&h| prediction.at(d, h).map_or(Json::Null, Json::Num))
                                        .collect(),
                                )
                            })
                            .collect();
                        Json::Obj(vec![
                            ("spec".to_owned(), Json::str(spec)),
                            (
                                "param_names".to_owned(),
                                Json::Arr(
                                    fitted.param_names().into_iter().map(Json::Str).collect(),
                                ),
                            ),
                            ("params".to_owned(), Json::nums(&fitted.params())),
                            ("values".to_owned(), Json::Arr(values)),
                        ])
                    }
                    Err(e) => Json::Obj(vec![
                        ("spec".to_owned(), Json::str(spec)),
                        ("error".to_owned(), Json::str(e.to_string())),
                    ]),
                },
                Err(message) => Json::Obj(vec![
                    ("spec".to_owned(), Json::str(spec)),
                    ("error".to_owned(), Json::str(message)),
                ]),
            };
            model_entries.push(entry);
        }
        Ok(Json::Obj(vec![
            ("ok".to_owned(), Json::Bool(true)),
            ("cascade".to_owned(), Json::str(cascade)),
            ("observed_through".to_owned(), Json::num(f64::from(through))),
            (
                "distances".to_owned(),
                Json::Arr(distances.iter().map(|&d| Json::num(f64::from(d))).collect()),
            ),
            (
                "hours".to_owned(),
                Json::Arr(hours.iter().map(|&h| Json::num(f64::from(h))).collect()),
            ),
            ("models".to_owned(), Json::Arr(model_entries)),
        ]))
    }

    fn handle_stats(&self) -> Json {
        let stats = self.cache.stats();
        let store = self.cascades.stats();
        let cascades = self.cascades.len();
        let ring_version = self.ring_version.load(Ordering::Relaxed);
        let mut fields = vec![
            ("ok".to_owned(), Json::Bool(true)),
            (
                "cache".to_owned(),
                Json::Obj(vec![
                    ("hits".to_owned(), Json::num(stats.hits as f64)),
                    ("misses".to_owned(), Json::num(stats.misses as f64)),
                    ("evictions".to_owned(), Json::num(stats.evictions as f64)),
                    ("len".to_owned(), Json::num(self.cache.len() as f64)),
                    (
                        "capacity".to_owned(),
                        Json::num(self.cache.capacity() as f64),
                    ),
                ]),
            ),
            ("cascades".to_owned(), Json::num(cascades as f64)),
            (
                "cascade_evictions".to_owned(),
                Json::num(store.evictions as f64),
            ),
            (
                "cascade_expirations".to_owned(),
                Json::num(store.expirations as f64),
            ),
            (
                "requests".to_owned(),
                Json::num(self.requests.load(Ordering::Relaxed) as f64),
            ),
            (
                "refit_jobs".to_owned(),
                Json::num(self.refit_jobs.load(Ordering::Relaxed) as f64),
            ),
            (
                "hours_closed".to_owned(),
                Json::num(self.hours_closed.load(Ordering::Relaxed) as f64),
            ),
            (
                "models".to_owned(),
                Json::Arr(self.lineup().into_iter().map(Json::Str).collect()),
            ),
        ];
        // Only routed backends (a router pushed a `ring` version) carry
        // the field: a standalone server's stats line is unchanged.
        if ring_version != 0 {
            let at = fields.len() - 1;
            fields.insert(
                at,
                ("ring_version".to_owned(), Json::num(ring_version as f64)),
            );
        }
        Json::Obj(fields)
    }
}

/// The on-disk location of one cascade's snapshot: the id is
/// hex-armored so arbitrary client-chosen ids (slashes, dots, `..`)
/// cannot escape or collide inside the snapshot directory.
fn snapshot_path(dir: &Path, id: &str) -> PathBuf {
    dir.join(format!("{}.snap", hex::encode(id.as_bytes())))
}

/// A transport-free line-protocol service: one request line in, one
/// response line out.
///
/// Implemented by [`ServerState`] (the forecasting core) and by the
/// router tier's state in `dlm-router`, so both speak JSON lines over
/// TCP through the exact same [`DlmServer`] front end — framing bounds,
/// connection registry, and shutdown semantics live in one place.
pub trait LineService: Send + Sync + 'static {
    /// Handles one request line, returning the response line (without
    /// the trailing newline). Must never panic on malformed input.
    fn handle_line(&self, line: &str) -> String;

    /// The service's metrics registry, if it keeps one. The TCP front
    /// end uses it to register transport and reactor metrics next to
    /// the service's own; `None` (the default) serves uninstrumented.
    fn metrics_registry(&self) -> Option<&dlm_obs::Registry> {
        None
    }
}

impl LineService for ServerState {
    fn handle_line(&self, line: &str) -> String {
        ServerState::handle_line(self, line)
    }

    fn metrics_registry(&self) -> Option<&dlm_obs::Registry> {
        Some(ServerState::metrics_registry(self))
    }
}

/// The TCP front end, serving one [`LineService`] (a [`ServerState`] by
/// default; the router tier plugs in its own) through the nonblocking
/// readiness reactor (the private `reactor` module): a fixed pool of
/// I/O workers multiplexing every connection, each of which speaks
/// JSON lines until a `hello` negotiates the binary framing of
/// [`crate::wire`].
#[derive(Debug)]
pub struct DlmServer<S: LineService = ServerState> {
    addr: SocketAddr,
    state: Arc<S>,
    reactor: ReactorHandle,
}

impl<S: LineService> DlmServer<S> {
    /// Binds the server (use port 0 for an OS-assigned port) and starts
    /// accepting connections with an auto-sized I/O worker pool.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind(addr: impl ToSocketAddrs, state: S) -> Result<Self> {
        Self::bind_shared(addr, Arc::new(state))
    }

    /// Like [`DlmServer::bind`], for a service the caller also keeps a
    /// handle to.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind_shared(addr: impl ToSocketAddrs, state: Arc<S>) -> Result<Self> {
        Self::bind_with(addr, state, 0)
    }

    /// Binds with an explicit I/O worker count; `0` sizes the pool from
    /// [`std::thread::available_parallelism`].
    ///
    /// # Errors
    ///
    /// Propagates socket errors, including a failure to create a
    /// worker's wake channel.
    pub fn bind_with(addr: impl ToSocketAddrs, state: Arc<S>, io_threads: usize) -> Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let reactor = crate::reactor::spawn(listener, Arc::clone(&state), io_threads)?;
        Ok(Self {
            addr,
            state,
            reactor,
        })
    }

    /// The bound address (with the OS-assigned port resolved).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared handle to the service core (counters, cache, in-process
    /// requests).
    #[must_use]
    pub fn state(&self) -> Arc<S> {
        Arc::clone(&self.state)
    }

    /// Stops accepting, joins the accept loop, and wakes and joins every
    /// I/O worker (dropping its connections). Called automatically on
    /// drop.
    pub fn shutdown(&mut self) {
        self.reactor.shutdown(self.addr);
    }
}

impl<S: LineService> Drop for DlmServer<S> {
    fn drop(&mut self) {
        self.shutdown();
    }
}
