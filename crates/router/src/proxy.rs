//! The routing tier: deterministic cascade placement over N backends,
//! pooled proxy connections, live membership, replicated writes, and
//! scatter-gather `stats`.
//!
//! [`RouterState`] implements [`dlm_serve::LineService`], so the exact
//! TCP front end that serves a single `dlm-serve` process
//! ([`dlm_serve::DlmServer`]) also serves the router — clients cannot
//! tell the difference, which is the point: `open`, `ingest`, and
//! `forecast` lines are forwarded **verbatim** to the backend(s) that
//! own the cascade id on the [`dlm_cluster::HashRing`], and a backend's
//! response line is relayed **verbatim** back. The router never
//! re-serializes a routed payload, so a routed forecast is trivially
//! byte-identical to the same forecast served directly — the
//! `router_roundtrip` integration test and the `serve_load --router`
//! gate both check exactly that over real sockets.
//!
//! ## Replicated placement and failover
//!
//! With [`RouterConfig::data_replicas`] `= N > 1`, every write (`open`,
//! `ingest`) is sent to the cascade's first `N` distinct owners on the
//! ring ([`HashRing::route_n`]) — all replicas apply the same votes in
//! the same order (one router handler per client connection), so they
//! hold bit-identical cascade state. A write that lands on some owners
//! but not all is *not* reported as a clean success: the applied
//! response is relayed with `"degraded":true` and the missed addresses
//! appended, because the replicas may now diverge until the missed
//! node is `remove`d and re-replicated. Reads (`forecast`, `snapshot`)
//! try the owners in ring order and relay the first `{"ok":true,...}`
//! response — a transport failure *or* an application-level rejection
//! (a replica that missed a write answers `unknown cascade`) falls
//! through to the next owner, and only when every owner rejects is the
//! first rejection relayed. Because the owner walk is deterministic
//! from labels alone, failover needs no coordination: when a backend
//! dies mid-load, its keys' surviving replicas answer with
//! byte-identical forecasts and no response is lost.
//!
//! ## Live membership: `join` / `drain` / `rejoin` / `remove`
//!
//! The topology (membership + ring + backend pools) lives behind one
//! `RwLock`; requests take it for read, and admin transitions are
//! serialized by a separate admin mutex so they never interleave with
//! each other. Planned transitions (`join`, `drain`, `rejoin` of an
//! unknown label) rebalance **incrementally**: a drained node is
//! marked [`dlm_cluster::NodeStatus::Draining`] in the live membership
//! — its ring placement, and therefore every read and write, is
//! untouched, and the ring version does not bump — the cascade
//! inventory is split into chunks, and each chunk's snapshot→restore
//! handoffs run with the topology write lock held only for that chunk.
//! The lock is released between chunks, so reads interleave with a
//! full-node handoff instead of pausing for it. Writes keep routing to
//! the *old* owners the whole time, so a copy migrated in an early
//! chunk can go stale; the final commit takes the write lock once,
//! re-compares every migrated copy against its source by snapshot
//! checksum (the `checksums` verb — one round trip per node), fetches
//! and re-pushes the handful that changed, and only then swaps the new
//! topology in and bumps `ring_version`. A failed chunk aborts the
//! whole transition: landed restores are rolled back, the `Draining`
//! marker is reverted, and both the topology and every cascade's
//! placement are exactly as they were. `remove` is the fail-stop verb
//! for a dead node and still runs synchronously under the write lock:
//! survivors re-replicate what they still hold, and nothing waits on a
//! node that cannot answer. `rejoin` is the self-service re-admission
//! verb a restarted `--snapshot-dir` backend announces itself with
//! (`dlm-serve --announce`): an unknown label joins through the
//! incremental path, while a label that is still a member gets an
//! anti-entropy sweep instead — its replayed copies are
//! checksum-compared against their trusted replicas and refreshed
//! where they diverge, with no ring change at all. See
//! `docs/PROTOCOL.md` §6.
//!
//! ## Anti-entropy repair
//!
//! A replicated write that lands on some owners but not all is relayed
//! with `"degraded":true` — and then the router repairs the divergence
//! instead of waiting for an operator `remove`: it compares the
//! cascade's checksum on each missed owner against the owner that
//! holds the acked write (the miss may have been a connection that
//! died *after* delivery, in which case the copies already agree and
//! nothing is re-sent) and re-pushes the committed snapshot where they
//! differ. Repair outcomes are counted in
//! `dlm_router_repairs_total{outcome}`; a backend that fails repair
//! `REPAIR_STRIKES` times in a row gets its idle pool closed eagerly,
//! exactly like a backend that left the topology.
//!
//! ## Connection pooling and failure surfacing
//!
//! Each backend keeps a small pool of idle [`LineClient`] connections.
//! A request checks one out (or dials a fresh one — bounded by
//! [`RouterConfig::connect_timeout`], so a blackholed backend fails
//! fast and degrades only its shard instead of pinning a handler
//! thread), and returns it on success. A *pure read* (`forecast`,
//! `snapshot`, `stats`) that fails on a pooled connection is retried
//! once on a freshly dialed connection — the usual stale-keepalive
//! case. State-changing requests are **never** re-sent: once the bytes
//! may have reached the backend, a retried `ingest` could double-count
//! votes and a retried `open` whose first attempt was applied would be
//! answered with a misleading `duplicate cascade` error — both surface
//! the mid-request failure as state-unknown instead. When a backend
//! leaves the topology (or a fresh dial to it fails), its idle pool is
//! closed eagerly, so no later request burns its one retry on a
//! connection the router already knows is dead. Failures surface as
//! `{"ok":false,...}` responses carrying a `"backend"` field naming the
//! primary shard, so one dead backend degrades only its own cascades
//! while every other shard keeps serving.
//!
//! ## `stats` scatter-gather
//!
//! `stats` fans out to every backend concurrently on the
//! [`dlm_numerics::pool`] executor and aggregates the shard counters
//! into one cluster view: counts are summed (cache hit/miss/eviction
//! counters merge through [`dlm_core::cache::CacheStats`]), per-backend
//! round-trip latencies are reported with their max, and unreachable
//! backends are listed per shard while the reachable remainder still
//! aggregates (`"degraded": true`). The `router` object also reports
//! the current `ring_version` and each backend's ownership fraction
//! (its share of [`HashRing::OWNERSHIP_PROBES`] probe keys).

use dlm_cluster::{hash64, hex, HashRing, Membership, NodeStatus};
use dlm_core::cache::CacheStats;
use dlm_core::evaluate::Parallelism;
use dlm_numerics::pool::parallel_map;
use dlm_obs::{Counter, Histogram, MetricsSnapshot, Registry};
use dlm_serve::protocol::{batch_response, error_response};
use dlm_serve::telemetry::{response_is_error, verb_label, RequestMetrics, SLOW_REQUEST};
use dlm_serve::{
    metrics_response, snapshot_from_json, Json, LineClient, LineService, Request, Result,
    ServeError, Transport,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Every verb label the router's request-path metrics use. The
/// backend-scoped verbs the router rejects (`restore`, `cascades`,
/// `checksums`, `evict`) count under the trailing `invalid` fallback,
/// like any other line the tier refuses to route.
const ROUTER_VERB_LABELS: &[&str] = &[
    "open", "ingest", "forecast", "stats", "snapshot", "batch", "metrics", "join", "drain",
    "rejoin", "remove", "invalid",
];

/// Cascades migrated per chunk of an incremental rebalance. The
/// topology write lock is held for one chunk's handoffs and released
/// between chunks, so this bounds how long a read can queue behind a
/// drain regardless of how many cascades the node holds.
pub const REBALANCE_CHUNK: usize = 32;

/// Consecutive anti-entropy repair failures after which a backend's
/// idle pool is closed eagerly — the same treatment a departed backend
/// gets, because two straight failed restores mean the pooled sockets
/// are at best stale.
const REPAIR_STRIKES: u64 = 2;

/// The router-tier verb label for a request `type` string.
fn router_verb(kind: &str) -> &'static str {
    ROUTER_VERB_LABELS
        .iter()
        .find(|v| **v == kind)
        .copied()
        .unwrap_or("invalid")
}

/// Tuning knobs for [`RouterState`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Backend addresses (`host:port`), each a running `dlm-serve`.
    /// Their textual form is the ring label, so keep it stable across
    /// restarts.
    pub backends: Vec<String>,
    /// Virtual nodes per backend on the consistent-hash ring.
    pub replicas: usize,
    /// Distinct backends every cascade is written to (`1` = classic
    /// single-owner sharding). With `N >= 2`, killing one backend loses
    /// nothing: reads fail over to the surviving owners, which hold
    /// bit-identical state.
    pub data_replicas: usize,
    /// Parallelism of the `stats` scatter-gather fan-out.
    pub parallelism: Parallelism,
    /// Idle proxy connections kept per backend; checked-out connections
    /// beyond this are closed on return instead of pooled.
    pub max_idle_per_backend: usize,
    /// Bound on every fresh backend dial. A blackholed backend (dropped
    /// SYNs, no RST) fails after this long and degrades only its shard,
    /// instead of pinning a router handler thread for the OS connect
    /// timeout. See `docs/PROTOCOL.md` §5.
    pub connect_timeout: Duration,
    /// Framing negotiated on every backend connection
    /// (`docs/PROTOCOL.md` §2-bis). Responses are byte-identical either
    /// way — the binary framing only changes how the same lines ride
    /// the socket — so relayed responses stay exact under both.
    pub backend_transport: Transport,
}

impl RouterConfig {
    /// Default bound on fresh backend dials.
    pub const DEFAULT_CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

    /// A config routing to `backends` with default tuning.
    #[must_use]
    pub fn new(backends: Vec<String>) -> Self {
        Self {
            backends,
            replicas: HashRing::DEFAULT_REPLICAS,
            data_replicas: 1,
            parallelism: Parallelism::Auto,
            max_idle_per_backend: 8,
            connect_timeout: Self::DEFAULT_CONNECT_TIMEOUT,
            backend_transport: Transport::Lines,
        }
    }
}

/// One backend shard: its address, its idle-connection pool, and its
/// routing/error counters.
#[derive(Debug)]
struct Backend {
    addr: String,
    idle: Mutex<Vec<LineClient>>,
    max_idle: usize,
    /// Bound on fresh dials (see [`RouterConfig::connect_timeout`]).
    connect_timeout: Duration,
    /// Framing negotiated on every fresh dial (pooled connections have
    /// already negotiated it).
    transport: Transport,
    /// Requests routed to this backend (including retries' successes).
    routed: AtomicU64,
    /// Requests that failed against this backend after any retry.
    errors: AtomicU64,
    /// Consecutive anti-entropy repair failures; reset by any repair
    /// success (or a clean comparison). At [`REPAIR_STRIKES`] the idle
    /// pool is closed eagerly.
    repair_failures: AtomicU64,
    /// Per-backend exposition counters (shared cells across topology
    /// generations, because the `Arc<Backend>` itself is reused).
    metrics: BackendMetrics,
}

/// Per-backend counters exposed through the router's `metrics` verb,
/// labeled with the backend address.
#[derive(Debug)]
struct BackendMetrics {
    requests: Counter,
    errors: Counter,
    /// Stale-pooled-connection retries on read-only requests.
    retries: Counter,
    /// Reads this owner failed or rejected, sending the owner walk on
    /// to the next replica.
    failovers: Counter,
    /// Replicated writes that missed this owner (the relayed response
    /// carried `"degraded":true`).
    degraded_writes: Counter,
}

impl BackendMetrics {
    fn new(registry: &Registry, addr: &str) -> Self {
        let labels = [("backend", addr)];
        Self {
            requests: registry.counter("dlm_router_backend_requests_total", &labels),
            errors: registry.counter("dlm_router_backend_errors_total", &labels),
            retries: registry.counter("dlm_router_backend_retries_total", &labels),
            failovers: registry.counter("dlm_router_backend_failovers_total", &labels),
            degraded_writes: registry.counter("dlm_router_degraded_writes_total", &labels),
        }
    }
}

impl Backend {
    fn new(
        addr: String,
        max_idle: usize,
        connect_timeout: Duration,
        transport: Transport,
        registry: &Registry,
    ) -> Self {
        let metrics = BackendMetrics::new(registry, &addr);
        Self {
            addr,
            idle: Mutex::new(Vec::new()),
            max_idle,
            connect_timeout,
            transport,
            routed: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            repair_failures: AtomicU64::new(0),
            metrics,
        }
    }

    fn checkout(&self) -> Option<LineClient> {
        self.idle.lock().expect("backend pool poisoned").pop()
    }

    fn checkin(&self, client: LineClient) {
        let mut idle = self.idle.lock().expect("backend pool poisoned");
        if idle.len() < self.max_idle {
            idle.push(client);
        }
    }

    /// Drops every idle pooled connection. Called when the backend
    /// leaves the topology or a fresh dial to it just failed — the
    /// pooled sockets are dead or about to be, and keeping them would
    /// make the next read burn its one retry on a known-bad connection.
    fn close_idle(&self) {
        self.idle.lock().expect("backend pool poisoned").clear();
    }

    /// One request line out, one response line back, with the
    /// stale-pooled-connection retry described in the module docs.
    ///
    /// `retriable` must be `false` for requests that mutate backend
    /// state (`ingest`, `open`, `restore`): a pooled connection that
    /// dies *after* the write may have delivered the request, and a
    /// blind re-send would apply it twice (or report a spurious
    /// duplicate) — the failure is surfaced as state-unknown instead.
    fn round_trip(&self, line: &str, retriable: bool) -> std::result::Result<String, String> {
        self.routed.fetch_add(1, Ordering::Relaxed);
        self.metrics.requests.inc();
        // First try a pooled connection, if any survived.
        if let Some(mut client) = self.checkout() {
            match client.send_raw(line) {
                Ok(response) => {
                    self.checkin(client);
                    return Ok(response);
                }
                Err(e) => {
                    drop(client); // dead either way
                    if !retriable {
                        self.errors.fetch_add(1, Ordering::Relaxed);
                        self.metrics.errors.inc();
                        return Err(format!(
                            "{e} (pooled connection failed mid-request; not retried — \
                             the backend may or may not have applied it)"
                        ));
                    }
                    // Stale keepalive on a read-only request: retry
                    // fresh below.
                    self.metrics.retries.inc();
                }
            }
        }
        let fresh = || -> dlm_serve::Result<(LineClient, String)> {
            let mut client = LineClient::connect_timeout(self.addr.as_str(), self.connect_timeout)?;
            client.negotiate(self.transport)?;
            let response = client.send_raw(line)?;
            Ok((client, response))
        };
        match fresh() {
            Ok((client, response)) => {
                self.checkin(client);
                Ok(response)
            }
            Err(e) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                self.metrics.errors.inc();
                // The backend would not even accept a fresh dial —
                // anything idling in the pool is at best stale.
                self.close_idle();
                Err(e.to_string())
            }
        }
    }
}

/// One immutable generation of the cluster shape: the membership list,
/// the ring built from its active labels, and the backend pools in ring
/// label order. Swapped wholesale under the topology write lock, so a
/// request that grabbed its owners keeps a consistent view even while
/// an admin verb rebuilds everything.
#[derive(Debug)]
struct Topology {
    membership: Membership,
    ring: HashRing,
    backends: Vec<Arc<Backend>>,
}

impl Topology {
    /// Builds the topology for `membership`, reusing the existing
    /// `Arc<Backend>` (pool, counters) of every surviving address so a
    /// membership change does not sever live connection pools.
    fn build(
        membership: Membership,
        ring_replicas: usize,
        reuse: &[Arc<Backend>],
        max_idle: usize,
        connect_timeout: Duration,
        transport: Transport,
        registry: &Registry,
    ) -> Result<Self> {
        let labels = membership.active_labels();
        let ring = HashRing::new(&labels, ring_replicas)?;
        let backends = labels
            .iter()
            .map(|addr| {
                reuse
                    .iter()
                    .find(|b| &b.addr == addr)
                    .map(Arc::clone)
                    .unwrap_or_else(|| {
                        Arc::new(Backend::new(
                            addr.clone(),
                            max_idle,
                            connect_timeout,
                            transport,
                            registry,
                        ))
                    })
            })
            .collect();
        Ok(Self {
            membership,
            ring,
            backends,
        })
    }

    /// The first `n` owners of `cascade`, primary first.
    fn owners_of(&self, cascade: &str, n: usize) -> Vec<Arc<Backend>> {
        self.ring
            .route_n(cascade, n)
            .into_iter()
            .map(|i| Arc::clone(&self.backends[i]))
            .collect()
    }
}

/// What one admin rebalance did.
#[derive(Debug, Default, Clone, Copy)]
struct HandoffReport {
    /// Snapshot→restore handoffs that landed a cascade at a new owner.
    migrated: u64,
    /// Copies evicted from members that are no longer owners.
    evicted: u64,
    /// Handoffs that failed (source unreadable or target rejected).
    failed: u64,
}

/// The sharding tier: a [`LineService`] that owns the live topology and
/// the backend pools.
#[derive(Debug)]
pub struct RouterState {
    topology: RwLock<Topology>,
    /// Serializes admin transitions (`join`/`drain`/`rejoin`/`remove`).
    /// An incremental rebalance releases the topology write lock
    /// between chunks, so the topology lock alone no longer implies
    /// one-admin-at-a-time — this mutex does, without ever making the
    /// data path queue behind an admin verb.
    admin: Mutex<()>,
    data_replicas: usize,
    ring_replicas: usize,
    max_idle: usize,
    connect_timeout: Duration,
    backend_transport: Transport,
    parallelism: Parallelism,
    requests: AtomicU64,
    /// The router's own telemetry (`dlm_router_*` series, plus whatever
    /// the front end registers when this state is served over TCP).
    metrics: Registry,
    request_metrics: RequestMetrics,
    /// Items per routed batch line (the tier's fan-out width).
    batch_fanout: Histogram,
    /// Wall time of each committed admin rebalance.
    handoff_micros: Histogram,
    /// Topology commits (ring version bumps).
    ring_bumps: Counter,
    /// Anti-entropy repair outcomes (`dlm_router_repairs_total`).
    repairs: RepairCounters,
}

/// `dlm_router_repairs_total{outcome}`: what each anti-entropy
/// comparison concluded. `clean` — the checksums already agreed (the
/// "missed" write had in fact been delivered); `repaired` — a diverged
/// copy was re-pushed to bit-identity; `failed` — the diverged owner
/// could not be repaired (usually: it is down).
#[derive(Debug)]
struct RepairCounters {
    clean: Counter,
    repaired: Counter,
    failed: Counter,
}

impl RepairCounters {
    fn new(registry: &Registry) -> Self {
        let of =
            |outcome: &str| registry.counter("dlm_router_repairs_total", &[("outcome", outcome)]);
        Self {
            clean: of("clean"),
            repaired: of("repaired"),
            failed: of("failed"),
        }
    }
}

impl RouterState {
    /// Builds the router. Backends are dialed lazily on first use, so
    /// the router comes up even while backends are still starting.
    ///
    /// # Errors
    ///
    /// Ring/membership-construction errors: no backends, duplicate
    /// addresses, zero replicas, or zero data replicas.
    pub fn new(config: RouterConfig) -> Result<Self> {
        if config.data_replicas == 0 {
            return Err(ServeError::Cluster(
                dlm_cluster::ClusterError::InvalidParameter {
                    name: "data_replicas",
                    reason: "must be positive".into(),
                },
            ));
        }
        let membership = Membership::new(&config.backends)?;
        let metrics = Registry::new();
        let topology = Topology::build(
            membership,
            config.replicas,
            &[],
            config.max_idle_per_backend,
            config.connect_timeout,
            config.backend_transport,
            &metrics,
        )?;
        let request_metrics = RequestMetrics::new(&metrics, "dlm_router", ROUTER_VERB_LABELS);
        let batch_fanout = metrics.histogram("dlm_router_batch_fanout", &[]);
        let handoff_micros = metrics.histogram("dlm_router_handoff_micros", &[]);
        let ring_bumps = metrics.counter("dlm_router_ring_bumps_total", &[]);
        let repairs = RepairCounters::new(&metrics);
        let state = Self {
            topology: RwLock::new(topology),
            admin: Mutex::new(()),
            data_replicas: config.data_replicas,
            ring_replicas: config.replicas,
            max_idle: config.max_idle_per_backend,
            connect_timeout: config.connect_timeout,
            backend_transport: config.backend_transport,
            parallelism: config.parallelism,
            requests: AtomicU64::new(0),
            metrics,
            request_metrics,
            batch_fanout,
            handoff_micros,
            ring_bumps,
            repairs,
        };
        // Seed every backend with the initial ring version so their
        // `stats` lines carry it for skew detection. Best-effort:
        // backends may still be starting (they dial lazily).
        state.push_ring_version();
        Ok(state)
    }

    /// Pushes the committed ring version to every active backend so a
    /// later `stats` scatter-gather can detect a backend that missed a
    /// topology change. Best-effort by design — an unreachable backend
    /// shows up as skew (or as unreachable) rather than blocking the
    /// commit.
    fn push_ring_version(&self) {
        let (backends, version) = {
            let topology = self.topology();
            (topology.backends.clone(), topology.membership.version())
        };
        let line = format!("{{\"type\":\"ring\",\"version\":{version}}}");
        for backend in backends {
            if let Err(reason) = backend.round_trip(&line, false) {
                dlm_obs::debug!(
                    "dlm-router",
                    "ring version push to {} failed: {reason}",
                    backend.addr
                );
            }
        }
    }

    /// The router's metrics registry (the `metrics` verb merges this
    /// with every backend's snapshot).
    #[must_use]
    pub fn metrics_registry(&self) -> &Registry {
        &self.metrics
    }

    fn topology(&self) -> std::sync::RwLockReadGuard<'_, Topology> {
        self.topology.read().expect("topology lock poisoned")
    }

    /// Backend addresses of the current topology, in ring label order.
    #[must_use]
    pub fn backend_addrs(&self) -> Vec<String> {
        self.topology().membership.active_labels()
    }

    /// The current ring version: bumps exactly when an admin verb
    /// changes the active backend set.
    #[must_use]
    pub fn ring_version(&self) -> u64 {
        self.topology().membership.version()
    }

    /// Data replicas every cascade is written to.
    #[must_use]
    pub fn data_replicas(&self) -> usize {
        self.data_replicas
    }

    /// The backend index that owns `cascade` on the current ring.
    #[must_use]
    pub fn shard_of(&self, cascade: &str) -> usize {
        self.topology().ring.route(cascade)
    }

    /// Handles one protocol line: `stats` scatter-gathers, the admin
    /// verbs mutate the topology, everything else forwards to the
    /// owning shard(s). Mirrors
    /// [`dlm_serve::ServerState::handle_line`]'s contract — malformed
    /// input becomes an `{"ok":false,...}` line, never a panic.
    pub fn handle_line(&self, line: &str) -> String {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let (verb, trace, routed) = match Json::parse(line) {
            Ok(value) => {
                let verb = value
                    .get("type")
                    .and_then(Json::as_str)
                    .map_or("invalid", router_verb);
                let trace = value.get("trace").and_then(Json::as_str).map(str::to_owned);
                (verb, trace, self.route_value(&value, line))
            }
            Err(e) => ("invalid", None, Err(ServeError::Protocol(e))),
        };
        let response = match routed {
            // A relayed backend response is passed through untouched —
            // this is what keeps routed forecasts byte-identical to
            // direct ones.
            Ok(Routed::Relayed(raw)) => raw,
            Ok(Routed::Synthesized(value)) => value.to_string(),
            Err(e) => error_response(&e.to_string()).to_string(),
        };
        self.request_metrics
            .count(verb, response_is_error(&response));
        let elapsed = started.elapsed();
        self.request_metrics.observe_service(verb, elapsed);
        if elapsed >= SLOW_REQUEST {
            dlm_obs::warn!(
                "dlm-router",
                "slow request verb={verb} micros={} trace={}",
                elapsed.as_micros(),
                trace.as_deref().unwrap_or("-")
            );
        }
        response
    }

    fn route_value(&self, value: &Json, line: &str) -> Result<Routed> {
        let kind = value
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| ServeError::Protocol("missing field `type`".into()))?;
        match kind {
            "stats" => Ok(Routed::Synthesized(self.handle_stats())),
            "metrics" => Ok(Routed::Synthesized(self.handle_metrics())),
            "join" | "drain" | "rejoin" | "remove" => {
                let backend = value
                    .get("backend")
                    .and_then(Json::as_str)
                    .ok_or_else(|| ServeError::Protocol("missing field `backend`".into()))?;
                self.handle_admin(kind, backend)
            }
            // Backend-scoped maintenance verbs make no sense through the
            // sharding tier: `restore` would need an owner decision the
            // snapshot already encodes, and `cascades`/`checksums`/
            // `evict` address one node's store, not the cluster's (the
            // router issues them itself during rebalance and repair).
            "restore" | "cascades" | "checksums" | "evict" => Err(ServeError::Protocol(format!(
                "request type `{kind}` is backend-scoped; send it to a backend directly"
            ))),
            "open" | "ingest" | "forecast" | "snapshot" => {
                let cascade = value
                    .get("cascade")
                    .and_then(Json::as_str)
                    .ok_or_else(|| ServeError::Protocol("missing field `cascade`".into()))?;
                let owners = self.topology().owners_of(cascade, self.data_replicas);
                // Only pure reads (`forecast`, `snapshot`) are retried
                // on a stale pooled connection and fail over between
                // owners; writes go to ALL owners — that is what keeps
                // the replicas identical — and a partial landing is
                // surfaced, never silently reported as a clean success.
                if matches!(kind, "forecast" | "snapshot") {
                    Ok(route_read(&owners, line))
                } else {
                    Ok(self.route_write_repairing(&owners, cascade, line))
                }
            }
            // A batch is unpacked at the tier: each item routes to its
            // own shard(s) independently, and the serialized
            // sub-responses are spliced back through the same
            // [`batch_response`] wrapper the serving core uses — which
            // is what keeps a routed batch byte-identical to a direct
            // one even when its items land on different backends.
            "batch" => {
                let requests = value
                    .get("requests")
                    .ok_or_else(|| ServeError::Protocol("missing field `requests`".into()))?
                    .as_array()
                    .ok_or_else(|| ServeError::Protocol("`requests` must be an array".into()))?;
                if requests.is_empty() {
                    return Err(ServeError::Protocol(
                        "`requests` must hold at least one request".into(),
                    ));
                }
                self.batch_fanout.observe(requests.len() as u64);
                let results: Vec<String> = requests
                    .iter()
                    .map(|item| self.route_batch_item(item))
                    .collect();
                Ok(Routed::Relayed(batch_response(&results)))
            }
            other => Err(ServeError::Protocol(format!(
                "unknown request type `{other}`"
            ))),
        }
    }

    /// Routes one batch item and serializes its response. Mirrors the
    /// serving core's per-item contract exactly: items are parsed
    /// independently, only the cascade-scoped data verbs are allowed
    /// (same error text as `ServerState`), and a failed item errors in
    /// place without poisoning its neighbors.
    fn route_batch_item(&self, item: &Json) -> String {
        let mut verb = "invalid";
        let routed = Request::from_value(item).and_then(|request| {
            verb = verb_label(&request);
            let (cascade, read) = match &request {
                Request::Open { cascade, .. } | Request::Ingest { cascade, .. } => {
                    (cascade.clone(), false)
                }
                Request::Forecast { cascade, .. } | Request::Snapshot { cascade } => {
                    (cascade.clone(), true)
                }
                _ => {
                    return Err(ServeError::Protocol(
                        "batch items must be open/ingest/forecast/snapshot".into(),
                    ))
                }
            };
            let owners = self.topology().owners_of(&cascade, self.data_replicas);
            let line = item.to_string();
            Ok(if read {
                route_read(&owners, &line)
            } else {
                self.route_write_repairing(&owners, &cascade, &line)
            })
        });
        let response = match routed {
            Ok(Routed::Relayed(raw)) => raw,
            Ok(Routed::Synthesized(value)) => value.to_string(),
            Err(e) => error_response(&e.to_string()).to_string(),
        };
        // Items count under their own verb, mirroring the serving
        // core: per-verb counters track logical operations.
        self.request_metrics
            .count(verb, response_is_error(&response));
        response
    }

    /// Admin dispatch. `remove` keeps the original synchronous
    /// under-write-lock rebalance (its source node is dead; reads to
    /// its shards are failing over already, so pausing routing for the
    /// re-replication sweep is the cheapest correct thing). The
    /// planned transitions — `join`, `drain`, and `rejoin` of an
    /// unknown label — run the incremental chunked path; `rejoin` of a
    /// label that is still an active member becomes an anti-entropy
    /// sweep with no ring change. The admin mutex serializes
    /// transitions end-to-end so two verbs can never interleave their
    /// chunks, without the data path ever queuing behind one.
    fn handle_admin(&self, verb: &str, label: &str) -> Result<Routed> {
        let _admin = self.admin.lock().expect("admin lock poisoned");
        match verb {
            "remove" => self.admin_remove(label),
            "join" | "drain" => self.admin_incremental(verb, label),
            "rejoin" => {
                if self.topology().membership.status(label) == Some(NodeStatus::Active) {
                    self.admin_rejoin_member(label)
                } else {
                    self.admin_incremental(verb, label)
                }
            }
            _ => unreachable!("route_value only dispatches admin verbs here"),
        }
    }

    /// The fail-stop path: membership transition, full re-replication
    /// sweep, and commit under one topology write-lock hold. Never
    /// aborts — the dead node's copies are gone either way, and a
    /// partial re-replication is strictly better than none.
    fn admin_remove(&self, label: &str) -> Result<Routed> {
        let start = Instant::now();
        let mut topology = self.topology.write().expect("topology lock poisoned");
        let mut membership = topology.membership.clone();
        membership.remove(label)?;
        let next = Topology::build(
            membership,
            self.ring_replicas,
            &topology.backends,
            self.max_idle,
            self.connect_timeout,
            self.backend_transport,
            &self.metrics,
        )?;
        let plan = migrate_cascades(&topology.backends, &next, self.data_replicas);
        let mut report = plan.report;
        let departed: Vec<Arc<Backend>> = topology
            .backends
            .iter()
            .filter(|b| !next.membership.contains(&b.addr))
            .map(Arc::clone)
            .collect();
        let ring_version = next.membership.version();
        let backends = next.membership.active_labels();
        *topology = next;
        drop(topology);
        self.finish_commit(departed, plan.trims, &mut report);
        self.handoff_micros.observe_duration(start.elapsed());
        dlm_obs::info!(
            "dlm-router",
            "remove `{label}` committed: ring_version={ring_version} migrated={} evicted={} ms={:.1}",
            report.migrated,
            report.evicted,
            start.elapsed().as_secs_f64() * 1e3
        );
        Ok(admin_response(
            "remove",
            label,
            ring_version,
            backends,
            &report,
            start,
        ))
    }

    /// One incremental (chunked) rebalance for a planned transition.
    ///
    /// 1. **Stage** (brief write-lock hold): validate the transition on
    ///    a scratch membership, build the planned topology, and — for
    ///    `drain` — mark the live node `Draining`. The live ring is
    ///    untouched: reads and writes keep routing to the old owners,
    ///    and `ring_version` does not move.
    /// 2. **Migrate in chunks**: the old holders' inventory is walked
    ///    [`REBALANCE_CHUNK`] cascades at a time, the write lock held
    ///    per chunk and released between chunks, so a read queued
    ///    behind a full-node drain waits for at most one chunk. Any
    ///    failed handoff aborts the whole transition.
    /// 3. **Commit** (one write-lock hold): the inventory is taken
    ///    again — a cascade opened mid-rebalance was never staged and
    ///    is migrated now — then every migrated copy is
    ///    checksum-compared against its source — writes kept landing on
    ///    the old owners between chunks, so an early-chunk copy can be
    ///    stale — refreshed where they differ, and only then is the new
    ///    topology swapped in and `ring_version` bumped.
    ///
    /// An abort evicts the restores that landed and reverts the
    /// `Draining` marker: the topology and every cascade's placement
    /// are exactly as they were.
    fn admin_incremental(&self, verb: &str, label: &str) -> Result<Routed> {
        let start = Instant::now();
        let draining = verb == "drain";
        let (old_backends, next) = {
            let mut topology = self.topology.write().expect("topology lock poisoned");
            let mut planned = topology.membership.clone();
            if draining {
                planned.begin_drain(label)?;
                planned.complete_drain(label)?;
            } else {
                planned.join(label)?;
            }
            let next = Topology::build(
                planned,
                self.ring_replicas,
                &topology.backends,
                self.max_idle,
                self.connect_timeout,
                self.backend_transport,
                &self.metrics,
            )?;
            if draining {
                // Mark the live membership only now that the planned
                // topology is known-buildable. The marker blocks
                // re-entry and records the in-flight handoff; the ring
                // — already built — keeps routing to the node.
                topology
                    .membership
                    .begin_drain(label)
                    .expect("staged drain validated above");
            }
            (topology.backends.clone(), next)
        };

        // Inventory runs lock-free (read-only round trips); migration
        // holds the lock per chunk only.
        let holders = inventory(&old_backends);
        let entries: Vec<(&String, &Vec<Arc<Backend>>)> = holders.iter().collect();
        let mut plan = MigratePlan::new();
        for chunk in entries.chunks(REBALANCE_CHUNK) {
            {
                let _guard = self.topology.write().expect("topology lock poisoned");
                for (id, holder_backends) in chunk {
                    migrate_one(
                        id,
                        holder_backends,
                        &next,
                        self.data_replicas,
                        None,
                        &mut plan,
                    );
                }
            }
            if plan.report.failed > 0 {
                break;
            }
            // Releasing the guard alone is not enough for foreground
            // traffic: readers woken by the release race the immediate
            // re-acquire below and can lose every round. A rebalance is
            // background maintenance — one millisecond per chunk is
            // noise next to the chunk's own socket work and lets the
            // queued readers drain through.
            std::thread::sleep(Duration::from_millis(1));
        }

        let mut report = plan.report;
        if report.failed == 0 {
            let mut topology = self.topology.write().expect("topology lock poisoned");
            // Cascades opened after the lock-free inventory snapshot
            // were never staged — a write racing the rebalance can
            // create one on the old owners between chunks. No write is
            // in flight while the lock is held, so a second inventory
            // is final: migrate the late arrivals under the same hold
            // the refresh runs in. Their copies are fresh by
            // construction, and `holders` keeps only pre-migration
            // sources, so the refresh below skips them.
            for (id, holder_backends) in &inventory(&old_backends) {
                if !holders.contains_key(id) {
                    migrate_one(
                        id,
                        holder_backends,
                        &next,
                        self.data_replicas,
                        None,
                        &mut plan,
                    );
                }
            }
            report = plan.report;
            // No write is in flight while we hold the lock, so the
            // sources' checksums are final.
            let refresh = if report.failed == 0 {
                refresh_landed(&plan, &holders)
            } else {
                Err(0) // a failed late handoff aborts like a failed chunk
            };
            match refresh {
                Err(stale_failures) => report.failed += stale_failures,
                Ok(refreshed) => {
                    let departed: Vec<Arc<Backend>> = topology
                        .backends
                        .iter()
                        .filter(|b| !next.membership.contains(&b.addr))
                        .map(Arc::clone)
                        .collect();
                    let ring_version = next.membership.version();
                    let backends = next.membership.active_labels();
                    *topology = next;
                    drop(topology);
                    self.finish_commit(departed, plan.trims, &mut report);
                    self.handoff_micros.observe_duration(start.elapsed());
                    dlm_obs::info!(
                        "dlm-router",
                        "{verb} `{label}` committed: ring_version={ring_version} migrated={} \
                         refreshed={refreshed} evicted={} ms={:.1}",
                        report.migrated,
                        report.evicted,
                        start.elapsed().as_secs_f64() * 1e3
                    );
                    return Ok(admin_response(
                        verb,
                        label,
                        ring_version,
                        backends,
                        &report,
                        start,
                    ));
                }
            }
        }
        // Abort. Planned transitions must be lossless: no copy has
        // been evicted (trims run only after commit), so the old
        // topology still holds every cascade. Evict the restores that
        // did land so a retried verb does not fight stale copies, and
        // revert the drain marker.
        for (target, id) in plan.landed {
            let _ = target.round_trip(&evict_line(&id), false);
        }
        if draining {
            let mut topology = self.topology.write().expect("topology lock poisoned");
            topology
                .membership
                .abort_drain(label)
                .expect("marked draining above");
        }
        Ok(Routed::Synthesized(error_response(&format!(
            "{verb} `{label}` aborted: {} cascade handoffs failed; topology unchanged",
            report.failed
        ))))
    }

    /// Re-admission of a label that is still an active member — the
    /// restarted-backend case where no `remove` ever ran. The ring is
    /// already correct, so there is no membership change and no version
    /// bump; what the restarted node needs is anti-entropy. Its
    /// `--snapshot-dir` replay may predate writes that landed while it
    /// was down, so its resident copies are distrusted: every cascade
    /// is checksum-compared against a trusted replica and re-pushed
    /// where it diverges (or is missing), chunk by chunk under the same
    /// per-chunk lock discipline as a drain. Finishes by re-pushing the
    /// committed ring version — a restarted backend reports version 0,
    /// which `stats` would otherwise flag as ring skew forever.
    fn admin_rejoin_member(&self, label: &str) -> Result<Routed> {
        let start = Instant::now();
        let (backends, ring_version) = {
            let topology = self.topology();
            (topology.backends.clone(), topology.membership.version())
        };
        let rejoiner = backends
            .iter()
            .find(|b| b.addr == label)
            .map(Arc::clone)
            .expect("caller checked the label is an active member");
        let Some(rejoiner_sums) = backend_checksums(&rejoiner) else {
            return Ok(Routed::Synthesized(error_response(&format!(
                "rejoin `{label}` failed: backend unreachable"
            ))));
        };
        let holders = inventory(&backends);
        let entries: Vec<(&String, &Vec<Arc<Backend>>)> = holders.iter().collect();
        let mut plan = MigratePlan::new();
        for chunk in entries.chunks(REBALANCE_CHUNK) {
            {
                // Per-chunk write-lock hold: a repair restore never
                // races a write, and between chunks both copies advance
                // identically (the member is in the ring, so writes
                // reach it too).
                let topology = self.topology.write().expect("topology lock poisoned");
                for (id, holder_backends) in chunk {
                    migrate_one(
                        id,
                        holder_backends,
                        &topology,
                        self.data_replicas,
                        Some((label, &rejoiner_sums)),
                        &mut plan,
                    );
                }
            }
            // Same foreground-traffic yield as the incremental path.
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut report = plan.report;
        // The topology did not change, so there is no commit to wait
        // for: trim the stale copies of cascades the node no longer
        // owns immediately.
        for (holder, id) in plan.trims {
            if holder.round_trip(&evict_line(&id), false).is_ok() {
                report.evicted += 1;
            }
        }
        self.push_ring_version();
        self.handoff_micros.observe_duration(start.elapsed());
        dlm_obs::info!(
            "dlm-router",
            "rejoin `{label}` (member) repaired: ring_version={ring_version} repaired={} \
             evicted={} failed={} ms={:.1}",
            report.migrated,
            report.evicted,
            report.failed,
            start.elapsed().as_secs_f64() * 1e3
        );
        let backends_list = self.topology().membership.active_labels();
        Ok(admin_response(
            "rejoin",
            label,
            ring_version,
            backends_list,
            &report,
            start,
        ))
    }

    /// Post-commit tail shared by every topology-changing verb: close
    /// departed pools eagerly (nothing routes there again under this
    /// membership, and a later `join` must start from fresh dials),
    /// execute the planned trims — every one belongs to a cascade whose
    /// full new owner set is in place, so a trim can no longer strand a
    /// cascade — and re-push the committed ring version so `stats` can
    /// detect stragglers.
    fn finish_commit(
        &self,
        departed: Vec<Arc<Backend>>,
        trims: Vec<(Arc<Backend>, String)>,
        report: &mut HandoffReport,
    ) {
        for backend in departed {
            backend.close_idle();
        }
        for (holder, id) in trims {
            if holder.round_trip(&evict_line(&id), false).is_ok() {
                report.evicted += 1;
            }
        }
        self.push_ring_version();
        self.ring_bumps.inc();
    }

    /// Routes a write and, when it lands degraded, runs the
    /// anti-entropy repair inline: compare each missed owner's checksum
    /// against the owner holding the acked write and re-push the
    /// committed snapshot where they diverge. Inline (rather than
    /// deferred) keeps healing deterministic — by the time the degraded
    /// response reaches the client, repair has been attempted exactly
    /// once per missed owner.
    fn route_write_repairing(&self, owners: &[Arc<Backend>], cascade: &str, line: &str) -> Routed {
        let outcome = route_write(owners, line);
        if let Some(reference) = &outcome.applied {
            if !outcome.missed.is_empty() {
                self.repair_degraded(cascade, reference, &outcome.missed);
            }
        }
        outcome.routed
    }

    /// The post-degraded-write anti-entropy pass for one cascade.
    fn repair_degraded(&self, cascade: &str, reference: &Arc<Backend>, missed: &[Arc<Backend>]) {
        let Some(want) = backend_checksums(reference).and_then(|m| m.get(cascade).cloned()) else {
            // Without reference bytes there is nothing to repair from;
            // the degraded marker on the response stands.
            return;
        };
        let mut restore_line: Option<Option<String>> = None;
        for backend in missed {
            let have = backend_checksums(backend).and_then(|m| m.get(cascade).cloned());
            if have.as_ref() == Some(&want) {
                // The "missed" write was delivered after all (the
                // connection died after the bytes landed): the copies
                // agree, nothing to re-send.
                self.repairs.clean.inc();
                backend.repair_failures.store(0, Ordering::Relaxed);
                continue;
            }
            let line = restore_line
                .get_or_insert_with(|| {
                    fetch_snapshot_hex(reference, cascade)
                        .map(|hex| Request::Restore { snapshot: hex }.to_json().to_string())
                })
                .clone();
            let repaired = line.is_some_and(|l| restore_landed(backend, &l, cascade));
            self.note_repair(backend, repaired, cascade);
        }
    }

    /// Counts one repair outcome and applies the two-strikes eager
    /// idle-pool close.
    fn note_repair(&self, backend: &Arc<Backend>, repaired: bool, cascade: &str) {
        if repaired {
            self.repairs.repaired.inc();
            backend.repair_failures.store(0, Ordering::Relaxed);
            dlm_obs::info!(
                "dlm-router",
                "anti-entropy repaired `{cascade}` on {}",
                backend.addr
            );
        } else {
            self.repairs.failed.inc();
            let strikes = backend.repair_failures.fetch_add(1, Ordering::Relaxed) + 1;
            if strikes >= REPAIR_STRIKES {
                // The same eager close a departed backend gets: after
                // two straight failed repairs nothing pooled to this
                // node is trustworthy.
                backend.close_idle();
                dlm_obs::warn!(
                    "dlm-router",
                    "anti-entropy repair of `{cascade}` on {} failed {strikes} times in a row; \
                     closing idle pool",
                    backend.addr
                );
            }
        }
    }

    /// One anti-entropy pass over `cascade`'s owner set, usable by
    /// drills and operators (the degraded-write path runs the same
    /// comparison automatically). Every owner's copy is
    /// checksum-compared; when they disagree, the copy with the most
    /// ingested state wins — votes are append-only and replicas apply
    /// them in the same order, so the longest encoded snapshot is the
    /// one every acked write landed in — and it is re-pushed to the
    /// rest. Returns `(diverged, repaired)`: owners whose copy differed
    /// from the reference (a missing copy counts), and how many of
    /// those were restored to bit-identity.
    pub fn repair_cascade(&self, cascade: &str) -> (usize, usize) {
        let owners = {
            let topology = self.topology();
            topology.owners_of(cascade, self.data_replicas)
        };
        let sums: Vec<Option<String>> = owners
            .iter()
            .map(|b| backend_checksums(b).and_then(|m| m.get(cascade).cloned()))
            .collect();
        // Distinct checksums, in ring order.
        let mut groups: Vec<(String, usize)> = Vec::new();
        for (i, sum) in sums.iter().enumerate() {
            if let Some(sum) = sum {
                if !groups.iter().any(|(g, _)| g == sum) {
                    groups.push((sum.clone(), i));
                }
            }
        }
        if groups.is_empty() {
            // No owner holds the cascade: nothing to repair from.
            return (0, 0);
        }
        if groups.len() == 1 && sums.iter().all(Option::is_some) {
            self.repairs.clean.inc();
            return (0, 0);
        }
        // Reference: the longest encoded copy among the distinct ones.
        let mut reference: Option<(String, String)> = None; // (hex, checksum)
        for (sum, idx) in &groups {
            let Some(snapshot_hex) = fetch_snapshot_hex(&owners[*idx], cascade) else {
                continue;
            };
            if reference
                .as_ref()
                .is_none_or(|(best, _)| snapshot_hex.len() > best.len())
            {
                reference = Some((snapshot_hex, sum.clone()));
            }
        }
        let Some((snapshot_hex, ref_sum)) = reference else {
            // Divergence detected but no copy could be fetched.
            let first = &groups[0].0;
            let diverged = sums
                .iter()
                .filter(|s| s.as_deref() != Some(first.as_str()))
                .count();
            return (diverged, 0);
        };
        let restore_line = Request::Restore {
            snapshot: snapshot_hex,
        }
        .to_json()
        .to_string();
        let mut diverged = 0;
        let mut repaired = 0;
        for (owner, sum) in owners.iter().zip(&sums) {
            if sum.as_ref() == Some(&ref_sum) {
                continue;
            }
            diverged += 1;
            let ok = restore_landed(owner, &restore_line, cascade);
            if ok {
                repaired += 1;
            }
            self.note_repair(owner, ok, cascade);
        }
        (diverged, repaired)
    }

    /// Fans `{"type":"stats"}` out to every backend and folds the shard
    /// counters into one cluster view.
    fn handle_stats(&self) -> Json {
        let (backends_snapshot, ring_version, ownership) = {
            let topology = self.topology();
            (
                topology.backends.clone(),
                topology.membership.version(),
                topology.ring.ownership_fractions(),
            )
        };
        let indices: Vec<usize> = (0..backends_snapshot.len()).collect();
        let gathered: Vec<(f64, std::result::Result<Json, String>)> =
            parallel_map(self.parallelism, &indices, |_, &i| {
                let start = Instant::now();
                let outcome = backends_snapshot[i]
                    .round_trip(r#"{"type":"stats"}"#, true)
                    .and_then(|raw| {
                        Json::parse(&raw).map_err(|e| format!("bad stats response: {e}"))
                    });
                (start.elapsed().as_secs_f64() * 1e3, outcome)
            });

        let mut backends = Vec::with_capacity(backends_snapshot.len());
        let mut cache = CacheStats::default();
        let mut sums = Sums::default();
        let mut models: Option<Json> = None;
        let mut reachable = 0usize;
        let mut slowest_ms = 0f64;
        let mut skewed: Vec<String> = Vec::new();
        for (backend, (ms, outcome)) in backends_snapshot.iter().zip(gathered) {
            let mut entry = vec![("addr".to_owned(), Json::str(backend.addr.clone()))];
            match outcome {
                Ok(stats) => {
                    reachable += 1;
                    slowest_ms = slowest_ms.max(ms);
                    // A backend that reports a ring version (it omits the
                    // field until a router pushes one) must agree with
                    // the committed topology; a straggler either missed
                    // a push or belongs to another router's ring.
                    if let Some(reported) = stats.get("ring_version").and_then(Json::as_u64) {
                        if reported != ring_version {
                            skewed.push(format!("{}={reported}", backend.addr));
                        }
                    }
                    cache += CacheStats {
                        hits: nested_u64(&stats, "cache", "hits"),
                        misses: nested_u64(&stats, "cache", "misses"),
                        evictions: nested_u64(&stats, "cache", "evictions"),
                    };
                    sums.absorb(&stats);
                    if models.is_none() {
                        models = stats.get("models").cloned();
                    }
                    entry.push(("ok".to_owned(), Json::Bool(true)));
                    entry.push(("ms".to_owned(), Json::num(ms)));
                    entry.push(("stats".to_owned(), stats));
                }
                Err(reason) => {
                    entry.push(("ok".to_owned(), Json::Bool(false)));
                    entry.push(("error".to_owned(), Json::str(reason)));
                }
            }
            backends.push(Json::Obj(entry));
        }

        if reachable == 0 {
            return Json::Obj(vec![
                ("ok".to_owned(), Json::Bool(false)),
                ("error".to_owned(), Json::str("no backend reachable")),
                ("backends".to_owned(), Json::Arr(backends)),
            ]);
        }

        let aggregate = Json::Obj(vec![
            (
                "cache".to_owned(),
                Json::Obj(vec![
                    ("hits".to_owned(), Json::num(cache.hits as f64)),
                    ("misses".to_owned(), Json::num(cache.misses as f64)),
                    ("evictions".to_owned(), Json::num(cache.evictions as f64)),
                    ("len".to_owned(), Json::num(sums.cache_len as f64)),
                    ("capacity".to_owned(), Json::num(sums.cache_capacity as f64)),
                ]),
            ),
            ("cascades".to_owned(), Json::num(sums.cascades as f64)),
            (
                "cascade_evictions".to_owned(),
                Json::num(sums.cascade_evictions as f64),
            ),
            (
                "cascade_expirations".to_owned(),
                Json::num(sums.cascade_expirations as f64),
            ),
            ("requests".to_owned(), Json::num(sums.requests as f64)),
            ("refit_jobs".to_owned(), Json::num(sums.refit_jobs as f64)),
            (
                "hours_closed".to_owned(),
                Json::num(sums.hours_closed as f64),
            ),
            ("models".to_owned(), models.unwrap_or(Json::Arr(Vec::new()))),
        ]);
        let router = Json::Obj(vec![
            (
                "requests".to_owned(),
                Json::num(self.requests.load(Ordering::Relaxed) as f64),
            ),
            ("ring_version".to_owned(), Json::num(ring_version as f64)),
            (
                "data_replicas".to_owned(),
                Json::num(self.data_replicas as f64),
            ),
            (
                "routed".to_owned(),
                Json::Arr(
                    backends_snapshot
                        .iter()
                        .map(|b| Json::num(b.routed.load(Ordering::Relaxed) as f64))
                        .collect(),
                ),
            ),
            (
                "backend_errors".to_owned(),
                Json::Arr(
                    backends_snapshot
                        .iter()
                        .map(|b| Json::num(b.errors.load(Ordering::Relaxed) as f64))
                        .collect(),
                ),
            ),
            (
                "ownership".to_owned(),
                Json::Arr(ownership.into_iter().map(Json::Num).collect()),
            ),
            ("replicas".to_owned(), Json::num(self.ring_replicas as f64)),
        ]);
        let mut fields = vec![
            ("ok".to_owned(), Json::Bool(true)),
            ("role".to_owned(), Json::str("router")),
            (
                "degraded".to_owned(),
                Json::Bool(reachable < backends_snapshot.len()),
            ),
        ];
        if !skewed.is_empty() {
            dlm_obs::warn!(
                "dlm-router",
                "ring skew: router ring_version={ring_version}, backends disagree: {}",
                skewed.join(", ")
            );
            fields.push(("ring_skew".to_owned(), Json::Bool(true)));
        }
        fields.extend([
            ("aggregate".to_owned(), aggregate),
            ("slowest_backend_ms".to_owned(), Json::num(slowest_ms)),
            ("router".to_owned(), router),
            ("backends".to_owned(), Json::Arr(backends)),
        ]);
        Json::Obj(fields)
    }

    /// Fans `{"type":"metrics"}` out to every backend and merges the
    /// structured snapshots into one cluster-wide exposition holding
    /// three disjoint groups of series:
    ///
    /// * the **aggregate**: every backend snapshot merged identity-wise
    ///   (counters sum, histograms merge bucket by bucket), no extra
    ///   labels — the cluster total;
    /// * **per-backend** series, the same snapshots tagged
    ///   `backend="addr"` — attribution;
    /// * the **router's own** series, tagged `tier="router"` so the
    ///   front-end wire/reactor counters this state registers never
    ///   fold into the backend aggregate.
    fn handle_metrics(&self) -> Json {
        let backends_snapshot = { self.topology().backends.clone() };
        let indices: Vec<usize> = (0..backends_snapshot.len()).collect();
        let line = r#"{"type":"metrics"}"#;
        let gathered: Vec<std::result::Result<MetricsSnapshot, String>> =
            parallel_map(self.parallelism, &indices, |_, &i| {
                backends_snapshot[i]
                    .round_trip(line, true)
                    .and_then(|raw| {
                        Json::parse(&raw).map_err(|e| format!("bad metrics response: {e}"))
                    })
                    .and_then(|parsed| {
                        let snapshot = parsed
                            .get("snapshot")
                            .ok_or_else(|| "metrics response missing `snapshot`".to_owned())?;
                        snapshot_from_json(snapshot).map_err(|e| e.to_string())
                    })
            });
        let mut merged = self.metrics.snapshot().with_label("tier", "router");
        let mut aggregate = MetricsSnapshot::default();
        let mut unreachable = 0usize;
        for (backend, outcome) in backends_snapshot.iter().zip(gathered) {
            match outcome {
                Ok(snapshot) => {
                    aggregate.merge(&snapshot);
                    merged.merge(&snapshot.with_label("backend", &backend.addr));
                }
                Err(reason) => {
                    unreachable += 1;
                    dlm_obs::warn!(
                        "dlm-router",
                        "metrics scrape of {} failed: {reason}",
                        backend.addr
                    );
                }
            }
        }
        merged.merge(&aggregate);
        let response = metrics_response(&merged);
        let Json::Obj(mut fields) = response else {
            unreachable!("metrics_response builds an object");
        };
        if unreachable > 0 {
            fields.push((
                "backends_unreachable".to_owned(),
                Json::num(unreachable as f64),
            ));
        }
        Json::Obj(fields)
    }
}

/// The migrate phase's full outcome: the handoff counters, the
/// restores that landed (rollback targets if the verb aborts), and the
/// evictions to run only once the new topology is committed.
struct MigratePlan {
    report: HandoffReport,
    /// (target, cascade) of every restore that landed.
    landed: Vec<(Arc<Backend>, String)>,
    /// (holder, cascade) copies to evict after commit — only cascades
    /// whose migration fully succeeded are ever planned for trimming.
    trims: Vec<(Arc<Backend>, String)>,
}

impl MigratePlan {
    fn new() -> Self {
        Self {
            report: HandoffReport::default(),
            landed: Vec::new(),
            trims: Vec::new(),
        }
    }
}

/// Every reachable backend lists its resident cascades (`cascades`
/// verb) into a deterministic `id → holders` map. A dead node simply
/// lists nothing — its cascades are sourced from surviving replicas,
/// which is exactly the `remove` re-replication path.
fn inventory(backends: &[Arc<Backend>]) -> BTreeMap<String, Vec<Arc<Backend>>> {
    let mut holders: BTreeMap<String, Vec<Arc<Backend>>> = BTreeMap::new();
    let list_line = Request::Cascades.to_json().to_string();
    for backend in backends {
        let Ok(raw) = backend.round_trip(&list_line, true) else {
            continue; // unreachable: remove-path source loss
        };
        let Ok(parsed) = Json::parse(&raw) else {
            continue;
        };
        let Some(ids) = parsed.get("cascades").and_then(Json::as_array) else {
            continue;
        };
        for id in ids.iter().filter_map(Json::as_str) {
            holders
                .entry(id.to_owned())
                .or_default()
                .push(Arc::clone(backend));
        }
    }
    holders
}

/// Migrates one cascade toward its owner set under `next`, appending
/// handoffs and planned trims to `plan` — copies are added, never
/// removed (evictions are planned, not executed), so the caller can
/// abort losslessly. Owners that do not already hold the cascade
/// receive a `restore` of a snapshot fetched once from the first
/// trusted holder that answers; the snapshot carries the full ingest
/// state, so this is a handoff (watermark preserved), not a re-`open`.
///
/// `distrusted` names a rejoined backend whose resident copies may be
/// stale (its snapshot-dir replay can predate writes it missed while
/// down): it is never used as a snapshot source, and when it is an
/// owner-and-holder its copy is checksum-verified against the trusted
/// bytes (the map is the rejoiner's scraped `checksums` output) and
/// re-pushed on mismatch.
///
/// Trims — holders that remain members of `next` but are no longer
/// owners — are planned only when every restore landed, so a partially
/// migrated cascade keeps all of its old copies. A departing node is
/// never trimmed; it is leaving the topology anyway.
fn migrate_one(
    id: &str,
    holder_backends: &[Arc<Backend>],
    next: &Topology,
    data_replicas: usize,
    distrusted: Option<(&str, &BTreeMap<String, String>)>,
    plan: &mut MigratePlan,
) {
    let next_labels = next.membership.active_labels();
    let holder_addrs: Vec<&str> = holder_backends.iter().map(|b| b.addr.as_str()).collect();
    let owner_addrs: Vec<&str> = next
        .ring
        .route_n(id, data_replicas)
        .into_iter()
        .map(|i| next_labels[i].as_str())
        .collect();
    let sources: Vec<&Arc<Backend>> = holder_backends
        .iter()
        .filter(|b| distrusted.is_none_or(|(label, _)| b.addr != label))
        .collect();
    let mut needed: Vec<&Arc<Backend>> = owner_addrs
        .iter()
        .filter(|addr| !holder_addrs.contains(addr))
        .filter_map(|addr| next.backends.iter().find(|b| b.addr == **addr))
        .collect();
    // A distrusted owner-and-holder is verified below, once reference
    // bytes are in hand — but only if a trusted copy exists to verify
    // against.
    let verify = distrusted.filter(|(label, _)| {
        owner_addrs.contains(label) && holder_addrs.contains(label) && !sources.is_empty()
    });
    if needed.is_empty() && verify.is_none() {
        plan_trims(id, &holder_addrs, &owner_addrs, &next_labels, next, plan);
        return;
    }
    // Fetch the snapshot once from the first trusted holder that
    // answers (any holder when no trusted source exists — a rejoiner's
    // copy beats no copy); every trusted copy is bit-identical.
    let fetch_from: Vec<&Arc<Backend>> = if sources.is_empty() {
        holder_backends.iter().collect()
    } else {
        sources
    };
    let Some(snapshot_hex) = fetch_from.iter().find_map(|b| fetch_snapshot_hex(b, id)) else {
        plan.report.failed += (needed.len() + usize::from(verify.is_some())) as u64;
        // Old copies are this cascade's only complete placement now;
        // they must all survive, owners or not: no trims.
        return;
    };
    if let Some((label, sums)) = verify {
        if sums.get(id) != snapshot_hash(&snapshot_hex).as_ref() {
            if let Some(backend) = next.backends.iter().find(|b| b.addr == label) {
                needed.push(backend);
            }
        }
    }
    let restore_line = Request::Restore {
        snapshot: snapshot_hex,
    }
    .to_json()
    .to_string();
    let mut cascade_failed = false;
    for target in needed {
        if restore_landed(target, &restore_line, id) {
            plan.report.migrated += 1;
            plan.landed.push((Arc::clone(target), id.to_owned()));
        } else {
            plan.report.failed += 1;
            cascade_failed = true;
        }
    }
    if !cascade_failed {
        plan_trims(id, &holder_addrs, &owner_addrs, &next_labels, next, plan);
    }
}

/// Queues post-commit evictions for `id`: holders that remain members
/// under `next` but no longer own it. Only called for cascades whose
/// owner set is fully in place, so a trim can never strand a cascade.
fn plan_trims(
    id: &str,
    holder_addrs: &[&str],
    owner_addrs: &[&str],
    next_labels: &[String],
    next: &Topology,
    plan: &mut MigratePlan,
) {
    for &holder in holder_addrs {
        if next_labels.iter().any(|l| l == holder) && !owner_addrs.contains(&holder) {
            if let Some(backend) = next.backends.iter().find(|b| b.addr == holder) {
                plan.trims.push((Arc::clone(backend), id.to_owned()));
            }
        }
    }
}

/// The full migrate phase of a synchronous (`remove`) rebalance:
/// inventory the old backends, then [`migrate_one`] every cascade
/// toward its owners under `next`, trusting every resident copy.
fn migrate_cascades(
    old_backends: &[Arc<Backend>],
    next: &Topology,
    data_replicas: usize,
) -> MigratePlan {
    let holders = inventory(old_backends);
    let mut plan = MigratePlan::new();
    for (id, holder_backends) in &holders {
        migrate_one(id, holder_backends, next, data_replicas, None, &mut plan);
    }
    plan
}

/// Commit-time anti-entropy over an incremental rebalance's landed
/// restores. Between chunks the topology lock was released and writes
/// kept routing to the old owners, so a copy migrated in an early chunk
/// may be stale. Called under the commit write-lock hold (no write is
/// in flight, so the sources' checksums are final): compares every
/// landed `(target, cascade)` pair against a source holder — one
/// `checksums` round trip per distinct node, regardless of cascade
/// count — and re-pushes the snapshot where they differ. Returns the
/// number of copies refreshed, or `Err` with the number of failures
/// (unreachable node, vanished source copy, failed re-push), in which
/// case the caller aborts the transition.
fn refresh_landed(
    plan: &MigratePlan,
    holders: &BTreeMap<String, Vec<Arc<Backend>>>,
) -> std::result::Result<u64, u64> {
    if plan.landed.is_empty() {
        return Ok(0);
    }
    fn scraped<'a>(
        sums: &'a mut BTreeMap<String, Option<BTreeMap<String, String>>>,
        backend: &Arc<Backend>,
    ) -> &'a Option<BTreeMap<String, String>> {
        if !sums.contains_key(&backend.addr) {
            sums.insert(backend.addr.clone(), backend_checksums(backend));
        }
        &sums[&backend.addr]
    }
    let mut sums: BTreeMap<String, Option<BTreeMap<String, String>>> = BTreeMap::new();
    let mut failures = 0u64;
    let mut refreshed = 0u64;
    for (target, id) in &plan.landed {
        let Some(source) = holders
            .get(id)
            .and_then(|hs| hs.iter().find(|h| h.addr != target.addr))
        else {
            // No independent source holder: the landed copy is the only
            // lineage this cascade has; nothing to compare against.
            continue;
        };
        let source_sum = scraped(&mut sums, source)
            .as_ref()
            .map(|m| m.get(id.as_str()).cloned());
        let target_sum = scraped(&mut sums, target)
            .as_ref()
            .map(|m| m.get(id.as_str()).cloned());
        match (source_sum, target_sum) {
            // A node whose `checksums` scrape failed, or a source whose
            // copy vanished mid-transition, is a failure: the copy
            // cannot be proven fresh.
            (None, _) | (_, None) | (Some(None), _) => failures += 1,
            (Some(Some(s)), Some(t)) if t.as_ref() == Some(&s) => {}
            (Some(Some(_)), Some(_)) => {
                // The source moved on since this chunk: re-push.
                let ok = fetch_snapshot_hex(source, id)
                    .map(|hex| Request::Restore { snapshot: hex }.to_json().to_string())
                    .is_some_and(|line| restore_landed(target, &line, id));
                if ok {
                    refreshed += 1;
                } else {
                    failures += 1;
                }
            }
        }
    }
    if failures > 0 {
        Err(failures)
    } else {
        Ok(refreshed)
    }
}

/// Fetches one cascade's hex-armored snapshot from `backend`, or
/// `None` when the backend is unreachable or rejects.
fn fetch_snapshot_hex(backend: &Arc<Backend>, id: &str) -> Option<String> {
    let line = Request::Snapshot {
        cascade: id.to_owned(),
    }
    .to_json()
    .to_string();
    let raw = backend.round_trip(&line, true).ok()?;
    let parsed = Json::parse(&raw).ok()?;
    if parsed.get("ok") != Some(&Json::Bool(true)) {
        return None;
    }
    parsed
        .get("snapshot")
        .and_then(Json::as_str)
        .map(str::to_owned)
}

/// One `checksums` round trip: `backend`'s resident cascades and their
/// snapshot hashes (16-digit hex strings), or `None` when the backend
/// is unreachable or answers something that is not a checksum listing.
fn backend_checksums(backend: &Arc<Backend>) -> Option<BTreeMap<String, String>> {
    let raw = backend
        .round_trip(&Request::Checksums.to_json().to_string(), true)
        .ok()?;
    let parsed = Json::parse(&raw).ok()?;
    if parsed.get("ok") != Some(&Json::Bool(true)) {
        return None;
    }
    let mut map = BTreeMap::new();
    for entry in parsed.get("checksums")?.as_array()? {
        let pair = entry.as_array().filter(|p| p.len() == 2)?;
        match (pair[0].as_str(), pair[1].as_str()) {
            (Some(id), Some(sum)) => {
                map.insert(id.to_owned(), sum.to_owned());
            }
            _ => return None,
        }
    }
    Some(map)
}

/// The checksum a backend's `checksums` verb would report for
/// hex-armored snapshot bytes: `hash64` over the decoded encoding,
/// rendered as the same 16-digit hex string.
fn snapshot_hash(snapshot_hex: &str) -> Option<String> {
    let bytes = hex::decode(snapshot_hex).ok()?;
    Some(format!("{:016x}", hash64(&bytes)))
}

/// The uniform admin success response. `drain` reports the transition
/// wall time as `handoff_ms` (its historical name); `rejoin` reports
/// the same measurement as `rejoin_ms` plus the `repaired` copy count.
fn admin_response(
    verb: &str,
    label: &str,
    ring_version: u64,
    backends: Vec<String>,
    report: &HandoffReport,
    start: Instant,
) -> Routed {
    let mut fields = vec![
        ("ok".to_owned(), Json::Bool(true)),
        ("verb".to_owned(), Json::str(verb)),
        ("backend".to_owned(), Json::str(label)),
        ("ring_version".to_owned(), Json::num(ring_version as f64)),
        (
            "backends".to_owned(),
            Json::Arr(backends.into_iter().map(Json::Str).collect()),
        ),
        ("migrated".to_owned(), Json::num(report.migrated as f64)),
        ("evicted".to_owned(), Json::num(report.evicted as f64)),
        ("failed".to_owned(), Json::num(report.failed as f64)),
    ];
    match verb {
        "drain" => fields.push((
            "handoff_ms".to_owned(),
            Json::num(start.elapsed().as_secs_f64() * 1e3),
        )),
        "rejoin" => {
            fields.push(("repaired".to_owned(), Json::num(report.migrated as f64)));
            fields.push((
                "rejoin_ms".to_owned(),
                Json::num(start.elapsed().as_secs_f64() * 1e3),
            ));
        }
        _ => {}
    }
    Routed::Synthesized(Json::Obj(fields))
}

/// Sends one `restore` to `target`, returning whether it landed. An
/// `already open` rejection means a copy is already resident — e.g.
/// left behind by an aborted transition whose rollback could not reach
/// this node: the stale copy is evicted and the restore retried once,
/// so the target ends up holding the snapshot's bytes, not the stale
/// ones.
fn restore_landed(target: &Arc<Backend>, restore_line: &str, id: &str) -> bool {
    match try_restore(target, restore_line) {
        RestoreOutcome::Landed => true,
        RestoreOutcome::AlreadyOpen => {
            target.round_trip(&evict_line(id), false).is_ok()
                && matches!(try_restore(target, restore_line), RestoreOutcome::Landed)
        }
        RestoreOutcome::Failed => false,
    }
}

enum RestoreOutcome {
    Landed,
    AlreadyOpen,
    Failed,
}

fn try_restore(target: &Arc<Backend>, restore_line: &str) -> RestoreOutcome {
    let Ok(raw) = target.round_trip(restore_line, false) else {
        return RestoreOutcome::Failed;
    };
    let Ok(parsed) = Json::parse(&raw) else {
        return RestoreOutcome::Failed;
    };
    if parsed.get("ok") == Some(&Json::Bool(true)) {
        return RestoreOutcome::Landed;
    }
    if parsed
        .get("error")
        .and_then(Json::as_str)
        .is_some_and(|e| e.contains("already open"))
    {
        return RestoreOutcome::AlreadyOpen;
    }
    RestoreOutcome::Failed
}

fn evict_line(id: &str) -> String {
    Request::Evict {
        cascade: id.to_owned(),
    }
    .to_json()
    .to_string()
}

/// Routes a pure read (`forecast`, `snapshot`): owners are tried in
/// ring order and the first `{"ok":true,...}` response is relayed
/// verbatim. Both transport failures *and* application-level
/// rejections fall through to the next owner — a replica that missed a
/// write (or was never re-replicated after a `remove`) answers
/// `unknown cascade` even though a surviving owner holds the cascade.
/// Only when every owner rejects is the first rejection relayed, so an
/// error a direct server would produce still reaches the client
/// byte-identical.
fn route_read(owners: &[Arc<Backend>], line: &str) -> Routed {
    let mut rejected: Option<String> = None;
    let mut first_error: Option<String> = None;
    for backend in owners {
        match backend.round_trip(line, true) {
            Ok(response) => {
                if response_is_ok(&response) {
                    return Routed::Relayed(response);
                }
                backend.metrics.failovers.inc();
                if rejected.is_none() {
                    rejected = Some(response);
                }
            }
            Err(reason) => {
                backend.metrics.failovers.inc();
                if first_error.is_none() {
                    first_error = Some(reason);
                }
            }
        }
    }
    match rejected {
        Some(response) => Routed::Relayed(response),
        None => unavailable_response(&owners[0].addr, first_error),
    }
}

/// What [`route_write`] produced: the response to relay, the first
/// owner that applied the write (the anti-entropy reference), and the
/// owners the write missed (the repair candidates).
struct WriteOutcome {
    routed: Routed,
    applied: Option<Arc<Backend>>,
    missed: Vec<Arc<Backend>>,
}

/// Routes a state-changing verb (`open`, `ingest`) to ALL owners —
/// that is what keeps the replicas identical — relaying the first
/// owner's response (the primary's, unless the primary is down). A
/// write that lands on some owners but not all is surfaced, not
/// silently reported as a clean success: the relayed response gains
/// `"degraded":true` plus the missed addresses. The caller runs the
/// anti-entropy comparison over `missed` so the divergence is healed
/// rather than left until the missed node is `remove`d.
fn route_write(owners: &[Arc<Backend>], line: &str) -> WriteOutcome {
    let mut relayed: Option<String> = None;
    let mut applied: Option<Arc<Backend>> = None;
    let mut missed: Vec<Arc<Backend>> = Vec::new();
    let mut first_error: Option<String> = None;
    for backend in owners {
        match backend.round_trip(line, false) {
            Ok(response) => {
                if relayed.is_none() {
                    relayed = Some(response);
                    applied = Some(Arc::clone(backend));
                }
            }
            Err(reason) => {
                backend.metrics.degraded_writes.inc();
                missed.push(Arc::clone(backend));
                if first_error.is_none() {
                    first_error = Some(reason);
                }
            }
        }
    }
    let routed = match relayed {
        Some(response) if missed.is_empty() => Routed::Relayed(response),
        Some(response) => match Json::parse(&response) {
            Ok(Json::Obj(mut fields)) => {
                fields.push(("degraded".to_owned(), Json::Bool(true)));
                fields.push((
                    "missed_backends".to_owned(),
                    Json::Arr(missed.iter().map(|b| Json::str(b.addr.clone())).collect()),
                ));
                if let Some(reason) = first_error {
                    fields.push(("missed_error".to_owned(), Json::str(reason)));
                }
                Routed::Synthesized(Json::Obj(fields))
            }
            // A non-object response line has nowhere to carry the
            // degradation marker; relay it untouched.
            _ => Routed::Relayed(response),
        },
        None => unavailable_response(&owners[0].addr, first_error),
    };
    WriteOutcome {
        routed,
        applied,
        missed,
    }
}

/// Whether a backend response line is a success. Every server success
/// line serializes `"ok":true` first, so the prefix check keeps the
/// read-failover path from re-parsing large forecast bodies; the full
/// parse covers any other field order.
fn response_is_ok(response: &str) -> bool {
    response.starts_with(r#"{"ok":true"#)
        || Json::parse(response)
            .ok()
            .is_some_and(|r| r.get("ok") == Some(&Json::Bool(true)))
}

/// The router-originated failure line for a request no owner could
/// serve, naming the primary shard.
fn unavailable_response(primary: &str, reason: Option<String>) -> Routed {
    let reason = reason.unwrap_or_else(|| "no owners".into());
    Routed::Synthesized(Json::Obj(vec![
        ("ok".to_owned(), Json::Bool(false)),
        (
            "error".to_owned(),
            Json::str(format!("backend `{primary}` unavailable: {reason}")),
        ),
        ("backend".to_owned(), Json::str(primary.to_owned())),
    ]))
}

impl LineService for RouterState {
    fn handle_line(&self, line: &str) -> String {
        RouterState::handle_line(self, line)
    }

    fn metrics_registry(&self) -> Option<&Registry> {
        Some(&self.metrics)
    }
}

/// What routing one line produced: a backend's bytes relayed verbatim,
/// or a response the router synthesized itself (stats aggregate, admin
/// responses, routing errors).
enum Routed {
    Relayed(String),
    Synthesized(Json),
}

/// Scalar counters summed across backends in the `stats` aggregate.
#[derive(Default)]
struct Sums {
    cache_len: u64,
    cache_capacity: u64,
    cascades: u64,
    cascade_evictions: u64,
    cascade_expirations: u64,
    requests: u64,
    refit_jobs: u64,
    hours_closed: u64,
}

impl Sums {
    fn absorb(&mut self, stats: &Json) {
        self.cache_len += nested_u64(stats, "cache", "len");
        self.cache_capacity += nested_u64(stats, "cache", "capacity");
        self.cascades += top_u64(stats, "cascades");
        self.cascade_evictions += top_u64(stats, "cascade_evictions");
        self.cascade_expirations += top_u64(stats, "cascade_expirations");
        self.requests += top_u64(stats, "requests");
        self.refit_jobs += top_u64(stats, "refit_jobs");
        self.hours_closed += top_u64(stats, "hours_closed");
    }
}

fn top_u64(stats: &Json, key: &str) -> u64 {
    stats.get(key).and_then(Json::as_u64).unwrap_or(0)
}

fn nested_u64(stats: &Json, outer: &str, key: &str) -> u64 {
    stats
        .get(outer)
        .and_then(|o| o.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}
