//! Serve-tier telemetry: pre-registered metric handles for the request
//! path, the reactor, and the refit scheduler, plus the JSON codec that
//! carries [`MetricsSnapshot`]s across the wire for the router's
//! cluster-wide merge.
//!
//! Everything here is built on [`dlm_obs`]: handles are registered once
//! (cold path, under the registry mutex) and every hot-path touch is a
//! relaxed atomic op. Nothing in this module alters a response byte —
//! the `metrics` verb is the only place the state becomes visible.

use crate::error::{Result, ServeError};
use crate::json::Json;
use dlm_obs::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Registry, Series, SeriesValue,
};
use std::time::Duration;

/// Requests slower than this log one correlated `warn` line (with the
/// request's `trace` id when the client sent one).
pub const SLOW_REQUEST: Duration = Duration::from_millis(250);

/// Every verb label the serving core's request-path metrics use,
/// including the `invalid` bucket for lines that fail to parse. The
/// last entry must be the fallback label.
pub const VERB_LABELS: &[&str] = &[
    "open",
    "ingest",
    "forecast",
    "stats",
    "snapshot",
    "restore",
    "cascades",
    "checksums",
    "evict",
    "batch",
    "metrics",
    "ring",
    "invalid",
];

/// The verb label of a parsed request.
#[must_use]
pub fn verb_label(request: &crate::protocol::Request) -> &'static str {
    use crate::protocol::Request;
    match request {
        Request::Open { .. } => "open",
        Request::Ingest { .. } => "ingest",
        Request::Forecast { .. } => "forecast",
        Request::Stats => "stats",
        Request::Snapshot { .. } => "snapshot",
        Request::Restore { .. } => "restore",
        Request::Cascades => "cascades",
        Request::Checksums => "checksums",
        Request::Evict { .. } => "evict",
        Request::Batch { .. } => "batch",
        Request::Metrics => "metrics",
        Request::Ring { .. } => "ring",
    }
}

/// Per-verb request-path handles: one counter, one error counter, one
/// service-time histogram per verb, pre-registered so the hot path
/// never takes the registry mutex.
#[derive(Debug)]
pub struct RequestMetrics {
    verbs: &'static [&'static str],
    requests: Vec<Counter>,
    errors: Vec<Counter>,
    service: Vec<Histogram>,
}

impl RequestMetrics {
    /// Registers the per-verb families under `prefix` (`dlm` for the
    /// serving core, `dlm_router` for the routing tier) for `verbs`,
    /// whose last entry is the fallback for unknown verb strings.
    #[must_use]
    pub fn new(registry: &Registry, prefix: &str, verbs: &'static [&'static str]) -> Self {
        let mut requests = Vec::with_capacity(verbs.len());
        let mut errors = Vec::with_capacity(verbs.len());
        let mut service = Vec::with_capacity(verbs.len());
        for verb in verbs {
            let labels = [("verb", *verb)];
            requests.push(registry.counter(&format!("{prefix}_requests_total"), &labels));
            errors.push(registry.counter(&format!("{prefix}_request_errors_total"), &labels));
            service.push(registry.histogram(&format!("{prefix}_service_micros"), &labels));
        }
        Self {
            verbs,
            requests,
            errors,
            service,
        }
    }

    fn index(&self, verb: &str) -> usize {
        self.verbs
            .iter()
            .position(|v| *v == verb)
            .unwrap_or(self.verbs.len() - 1)
    }

    /// Counts one request of `verb` (batch items included, so per-verb
    /// counters track logical operations, not wire lines).
    pub fn count(&self, verb: &str, is_error: bool) {
        let i = self.index(verb);
        self.requests[i].inc();
        if is_error {
            self.errors[i].inc();
        }
    }

    /// Records one request's service time.
    pub fn observe_service(&self, verb: &str, elapsed: Duration) {
        self.service[self.index(verb)].observe_duration(elapsed);
    }
}

/// Whether a serialized response line is an error response. Every
/// error line the serving core and the router produce serializes
/// `"ok":false` first, so the prefix check never re-parses a body.
#[must_use]
pub fn response_is_error(response: &str) -> bool {
    response.starts_with("{\"ok\":false")
}

/// Per-transport wire counters. Each front-end thread builds its own
/// copy; the registry's get-or-create semantics make every copy share
/// the same cells.
#[derive(Debug)]
pub(crate) struct WireMetrics {
    rx: [Counter; 2],
    tx: [Counter; 2],
    requests: [Counter; 2],
}

impl WireMetrics {
    pub(crate) fn new(registry: &Registry) -> Self {
        let of = |name: &str, transport: &str| registry.counter(name, &[("transport", transport)]);
        Self {
            rx: [
                of("dlm_wire_rx_bytes_total", "lines"),
                of("dlm_wire_rx_bytes_total", "binary"),
            ],
            tx: [
                of("dlm_wire_tx_bytes_total", "lines"),
                of("dlm_wire_tx_bytes_total", "binary"),
            ],
            requests: [
                of("dlm_wire_requests_total", "lines"),
                of("dlm_wire_requests_total", "binary"),
            ],
        }
    }

    fn lane(transport: crate::wire::Transport) -> usize {
        match transport {
            crate::wire::Transport::Lines => 0,
            crate::wire::Transport::Binary => 1,
        }
    }

    pub(crate) fn add_rx(&self, transport: crate::wire::Transport, bytes: usize) {
        self.rx[Self::lane(transport)].add(bytes as u64);
    }

    pub(crate) fn add_tx(&self, transport: crate::wire::Transport, bytes: usize) {
        self.tx[Self::lane(transport)].add(bytes as u64);
    }

    pub(crate) fn count_request(&self, transport: crate::wire::Transport) {
        self.requests[Self::lane(transport)].inc();
    }
}

/// Per-worker reactor handles.
#[derive(Debug)]
pub(crate) struct ReactorWorkerMetrics {
    /// Connections handed to this worker by the acceptor.
    pub(crate) accepted: Counter,
    /// Connections currently multiplexed by this worker.
    pub(crate) active: Gauge,
    /// Duration of each pass over the ready connections.
    pub(crate) sweep: Histogram,
    /// Returns from `poll`.
    pub(crate) polls: Counter,
}

impl ReactorWorkerMetrics {
    pub(crate) fn new(registry: &Registry, worker: usize) -> Self {
        let worker = worker.to_string();
        let labels = [("worker", worker.as_str())];
        Self {
            accepted: registry.counter("dlm_reactor_accepted_total", &labels),
            active: registry.gauge("dlm_reactor_active_connections", &labels),
            sweep: registry.histogram("dlm_reactor_sweep_micros", &labels),
            polls: registry.counter("dlm_reactor_polls_total", &labels),
        }
    }
}

/// Refit-scheduler handles: job counters plus one fit-duration
/// histogram per model spec (lineup specs pre-registered; ad-hoc
/// forecast specs register on first use).
#[derive(Debug)]
pub(crate) struct RefitMetrics {
    registry: Registry,
    pub(crate) fits_started: Counter,
    pub(crate) fits_completed: Counter,
    pub(crate) fit_failures: Counter,
    /// Lineup fit histograms, parallel to the lineup order.
    pub(crate) lineup_fit: Vec<Histogram>,
}

impl RefitMetrics {
    pub(crate) fn new(registry: &Registry, lineup: &[String]) -> Self {
        Self {
            fits_started: registry.counter("dlm_refit_fits_started_total", &[]),
            fits_completed: registry.counter("dlm_refit_fits_completed_total", &[]),
            fit_failures: registry.counter("dlm_refit_fit_failures_total", &[]),
            lineup_fit: lineup
                .iter()
                .map(|spec| registry.histogram("dlm_fit_micros", &[("model", spec)]))
                .collect(),
            registry: registry.clone(),
        }
    }

    /// The fit histogram for an ad-hoc spec (cold path; get-or-create).
    pub(crate) fn fit_histogram(&self, spec: &str) -> Histogram {
        self.registry
            .histogram("dlm_fit_micros", &[("model", spec)])
    }
}

/// Encodes a snapshot as the JSON the `metrics` verb carries alongside
/// the text exposition, so a routing tier can merge backend snapshots
/// bucket-wise without parsing exposition text.
#[must_use]
pub fn snapshot_to_json(snapshot: &MetricsSnapshot) -> Json {
    let series = snapshot
        .series
        .iter()
        .map(|s| {
            let labels = Json::Arr(
                s.labels
                    .iter()
                    .map(|(k, v)| Json::Arr(vec![Json::str(k.clone()), Json::str(v.clone())]))
                    .collect(),
            );
            let mut fields = vec![
                ("name".to_owned(), Json::str(s.name.clone())),
                ("labels".to_owned(), labels),
            ];
            match &s.value {
                SeriesValue::Counter(v) => {
                    fields.push(("kind".to_owned(), Json::str("counter")));
                    fields.push(("value".to_owned(), Json::num(*v as f64)));
                }
                SeriesValue::Gauge(v) => {
                    fields.push(("kind".to_owned(), Json::str("gauge")));
                    fields.push(("value".to_owned(), Json::num(*v as f64)));
                }
                SeriesValue::Histogram(h) => {
                    fields.push(("kind".to_owned(), Json::str("histogram")));
                    fields.push((
                        "buckets".to_owned(),
                        Json::Arr(h.buckets.iter().map(|&b| Json::num(b as f64)).collect()),
                    ));
                    fields.push(("count".to_owned(), Json::num(h.count as f64)));
                    fields.push(("sum".to_owned(), Json::num(h.sum as f64)));
                }
            }
            Json::Obj(fields)
        })
        .collect();
    Json::Obj(vec![("series".to_owned(), Json::Arr(series))])
}

/// Decodes a snapshot from its wire form — the router's half of the
/// cluster-wide `metrics` merge.
///
/// # Errors
///
/// [`ServeError::Protocol`] when the value does not have the shape
/// [`snapshot_to_json`] produces.
pub fn snapshot_from_json(value: &Json) -> Result<MetricsSnapshot> {
    let bad = |what: &str| ServeError::Protocol(format!("malformed metrics snapshot: {what}"));
    let series = value
        .get("series")
        .and_then(Json::as_array)
        .ok_or_else(|| bad("missing `series` array"))?;
    let mut out = Vec::with_capacity(series.len());
    for s in series {
        let name = s
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("series missing `name`"))?
            .to_owned();
        let labels = s
            .get("labels")
            .and_then(Json::as_array)
            .ok_or_else(|| bad("series missing `labels`"))?
            .iter()
            .map(|pair| {
                let pair = pair.as_array().filter(|p| p.len() == 2);
                match pair {
                    Some(p) => match (p[0].as_str(), p[1].as_str()) {
                        (Some(k), Some(v)) => Ok((k.to_owned(), v.to_owned())),
                        _ => Err(bad("label pair must be two strings")),
                    },
                    None => Err(bad("labels must be [key, value] pairs")),
                }
            })
            .collect::<Result<Vec<_>>>()?;
        let kind = s
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("series missing `kind`"))?;
        let value = match kind {
            "counter" => SeriesValue::Counter(
                s.get("value")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("counter missing `value`"))?,
            ),
            "gauge" => SeriesValue::Gauge(
                s.get("value")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| bad("gauge missing `value`"))? as i64,
            ),
            "histogram" => {
                let buckets = s
                    .get("buckets")
                    .and_then(Json::as_array)
                    .ok_or_else(|| bad("histogram missing `buckets`"))?
                    .iter()
                    .map(|b| b.as_u64().ok_or_else(|| bad("bucket must be an integer")))
                    .collect::<Result<Vec<_>>>()?;
                SeriesValue::Histogram(HistogramSnapshot {
                    buckets,
                    count: s
                        .get("count")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| bad("histogram missing `count`"))?,
                    sum: s
                        .get("sum")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| bad("histogram missing `sum`"))?,
                })
            }
            other => return Err(bad(&format!("unknown series kind `{other}`"))),
        };
        out.push(Series {
            name,
            labels,
            value,
        });
    }
    let mut snapshot = MetricsSnapshot { series: out };
    // Re-canonicalize defensively: merge correctness relies on order.
    let empty = MetricsSnapshot::default();
    snapshot.merge(&empty);
    Ok(snapshot)
}

/// Builds the uniform `metrics` response line: the rendered text
/// exposition plus the structured snapshot.
#[must_use]
pub fn metrics_response(snapshot: &MetricsSnapshot) -> Json {
    Json::Obj(vec![
        ("ok".to_owned(), Json::Bool(true)),
        ("exposition".to_owned(), Json::str(snapshot.render())),
        ("snapshot".to_owned(), snapshot_to_json(snapshot)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trips_through_json() {
        let reg = Registry::new();
        reg.counter("reqs", &[("verb", "open")]).add(7);
        reg.gauge("depth", &[]).set(-3);
        let h = reg.histogram("lat", &[("verb", "open")]);
        h.observe(5);
        h.observe(1 << 20);
        let snap = reg.snapshot();
        let json = snapshot_to_json(&snap);
        let back = snapshot_from_json(&Json::parse(&json.to_string()).unwrap()).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.render(), snap.render());
    }

    #[test]
    fn malformed_snapshots_are_protocol_errors() {
        for bad in [
            "{}",
            r#"{"series":[{}]}"#,
            r#"{"series":[{"name":"x","labels":[],"kind":"mystery"}]}"#,
            r#"{"series":[{"name":"x","labels":[["a"]],"kind":"counter","value":1}]}"#,
            r#"{"series":[{"name":"x","labels":[],"kind":"histogram","buckets":[1]}]}"#,
        ] {
            let value = Json::parse(bad).unwrap();
            assert!(snapshot_from_json(&value).is_err(), "`{bad}` should fail");
        }
    }
}
