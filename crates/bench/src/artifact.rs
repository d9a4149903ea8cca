//! Bench artifact schemas: every `BENCH_*.json` the harness writes
//! declares a `schema` string, and this module is the single registry
//! of what each schema promises — which top-level keys must be present
//! and that every number in the document is finite. Writers go through
//! [`write()`] so a malformed artifact fails the bench run itself, and
//! the tier-1 `bench_schema` test exercises the same [`validate`] so a
//! writer/registry drift fails `cargo test` before it fails CI's
//! artifact consumers.

use dlm_serve::Json;

/// Single-server load runs (`BENCH_serve.json`). `runs` holds one entry
/// per measured configuration. `v3` added `service_times` (server-side
/// per-verb p50/p95 from the scraped `metrics` histogram snapshot) and
/// `metrics_ok` (the scrape's counters matched the client-side counts)
/// to every run entry; `v4` drops the per-run front-end name and the
/// front-end comparison headline, since the server has one front end.
pub const SERVE_SCHEMA: &str = "dlm-bench/serve/v4";

/// Routed load runs (`BENCH_router.json`), including the `--kill-one`
/// elasticity drill. `v3` added `hardware_threads` and `transport` to
/// the shared load fields; `v4` adds the auto-rejoin leg of the drill
/// — `rejoin_ms` (wall time of the re-admission sweep, `null` without
/// `--kill-one`) and `repair_count` (cascade copies re-pushed to the
/// restarted node).
pub const ROUTER_SCHEMA: &str = "dlm-bench/router/v4";

/// Scenario-factory soak runs (`BENCH_scenarios.json`): each requested
/// regime replayed through the direct tier and a routed tier with
/// per-regime Eq.-8 accuracy, served-vs-offline bit identity, and
/// slice re-derivation gates, plus the optional `--digg-dir` CSV
/// end-to-end replay as the `digg` object (`null` when not requested).
pub const SCENARIOS_SCHEMA: &str = "dlm-bench/scenarios/v1";

/// Offline evaluation-pipeline timings (`BENCH_evaluation.json`).
pub const EVALUATION_SCHEMA: &str = "dlm-bench/evaluation/v1";

/// Calibration / multi-start timings (`BENCH_calibration.json`).
pub const CALIBRATION_SCHEMA: &str = "dlm-bench/calibration/v1";

/// Keys every element of a serve artifact's `runs` array must carry.
pub const SERVE_RUN_KEYS: &[&str] = &[
    "label",
    "transport",
    "batch",
    "requests",
    "wire_lines",
    "wall_seconds",
    "throughput_rps",
    "ingest_latency",
    "forecast_latency",
    "service_times",
    "protocol_ok",
    "metrics_ok",
    "outputs_identical",
];

/// Keys every element of a scenarios artifact's `regimes` array (and
/// its `digg` object, when present) must carry.
pub const SCENARIO_REGIME_KEYS: &[&str] = &[
    "regime",
    "cascades",
    "deliveries",
    "votes_accepted",
    "late_rejections",
    "requests",
    "wall_seconds",
    "throughput_rps",
    "eq8_mean_accuracy",
    "accuracy_floor",
    "accuracy_ok",
    "protocol_ok",
    "metrics_ok",
    "outputs_identical",
    "routed_identical",
    "slice_identical",
];

/// The registry: declared schema → required top-level keys. Adding a
/// writer means adding its schema here and covering it in the tier-1
/// `bench_schema` test.
#[must_use]
pub fn required_keys(schema: &str) -> Option<&'static [&'static str]> {
    match schema {
        s if s == SERVE_SCHEMA => Some(&[
            "schema",
            "mode",
            "hardware_threads",
            "clients",
            "hours_streamed",
            "votes_replayed_per_client",
            "runs",
        ]),
        s if s == ROUTER_SCHEMA => Some(&[
            "schema",
            "mode",
            "backends",
            "clients",
            "data_replicas",
            "hardware_threads",
            "transport",
            "hours_streamed",
            "votes_replayed_per_client",
            "requests",
            "wall_seconds",
            "throughput_rps",
            "ingest_latency",
            "forecast_latency",
            "routed_per_backend",
            "aggregate_cache",
            "remap_fraction",
            "handoff_ms",
            "rejoin_ms",
            "repair_count",
            "lost_responses",
            "protocol_ok",
            "routed_identical",
        ]),
        s if s == SCENARIOS_SCHEMA => Some(&[
            "schema",
            "mode",
            "hardware_threads",
            "clients",
            "seed",
            "regimes",
            "digg",
            "soak_ok",
        ]),
        s if s == EVALUATION_SCHEMA => Some(&[
            "schema",
            "mode",
            "hardware_threads",
            "workers",
            "models",
            "cases",
            "grid_cells",
            "serial_cold",
            "serial_warm",
            "parallel_cold",
            "parallel_warm",
            "speedup_parallel_cold",
            "speedup_parallel_warm",
            "speedup_warm_cache",
            "outputs_identical",
        ]),
        s if s == CALIBRATION_SCHEMA => Some(&[
            "schema",
            "mode",
            "hardware_threads",
            "workers",
            "fixtures",
            "starts",
            "evals_per_start",
            "single_start",
            "multi_serial",
            "multi_parallel",
            "speedup_parallel_multi",
            "objective_improvement_geomean",
            "objective_never_worse",
            "outputs_identical",
        ]),
        _ => None,
    }
}

/// The machine's hardware thread count, as recorded in artifacts so
/// throughput numbers are comparable across runners.
#[must_use]
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Where a `BENCH_*.json` lands: `DLM_BENCH_OUT` when set, else
/// `default_name` at the workspace root (benches run with the package
/// dir as cwd, so the default is anchored, not relative).
#[must_use]
pub fn bench_out(default_name: &str) -> String {
    std::env::var("DLM_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../{default_name}", env!("CARGO_MANIFEST_DIR")))
}

/// Validates one artifact document against its declared schema: it must
/// parse, declare a registered `schema`, carry every required key, and
/// contain only finite numbers (a NaN/Inf would not have parsed as
/// JSON, but a writer interpolating `{x}` with a non-finite float
/// produces exactly that — this is the guard the tier-1 test leans on).
///
/// # Errors
///
/// A human-readable description of the first violation.
pub fn validate(text: &str) -> Result<(), String> {
    let value = Json::parse(text).map_err(|e| format!("artifact is not valid JSON: {e}"))?;
    let Json::Obj(_) = &value else {
        return Err("artifact root must be a JSON object".into());
    };
    let schema = value
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("artifact is missing the `schema` string")?;
    let required = required_keys(schema)
        .ok_or_else(|| format!("schema `{schema}` is not in the artifact registry"))?;
    for key in required {
        if value.get(key).is_none() {
            return Err(format!("schema `{schema}` requires key `{key}`"));
        }
    }
    if schema == SERVE_SCHEMA {
        let runs = value
            .get("runs")
            .and_then(Json::as_array)
            .ok_or("`runs` must be an array")?;
        if runs.is_empty() {
            return Err("`runs` must hold at least one run".into());
        }
        for (i, run) in runs.iter().enumerate() {
            for key in SERVE_RUN_KEYS {
                if run.get(key).is_none() {
                    return Err(format!("runs[{i}] is missing key `{key}`"));
                }
            }
        }
    }
    if schema == SCENARIOS_SCHEMA {
        // `regimes` may be empty (a `--digg-dir`-only run), but every
        // entry — and the `digg` object when it is not null — carries
        // the full gate record.
        let regimes = value
            .get("regimes")
            .and_then(Json::as_array)
            .ok_or("`regimes` must be an array")?;
        for (i, entry) in regimes.iter().enumerate() {
            for key in SCENARIO_REGIME_KEYS {
                if entry.get(key).is_none() {
                    return Err(format!("regimes[{i}] is missing key `{key}`"));
                }
            }
        }
        let digg = value.get("digg").expect("required key checked above");
        if !matches!(digg, Json::Null) {
            for key in SCENARIO_REGIME_KEYS {
                if digg.get(key).is_none() {
                    return Err(format!("`digg` is missing key `{key}`"));
                }
            }
        }
        if regimes.is_empty() && matches!(digg, Json::Null) {
            return Err("a scenarios artifact must record at least one replay".into());
        }
    }
    check_finite(&value, "$")
}

fn check_finite(value: &Json, path: &str) -> Result<(), String> {
    match value {
        Json::Num(x) if !x.is_finite() => Err(format!("non-finite number at {path}: {x}")),
        Json::Arr(items) => items
            .iter()
            .enumerate()
            .try_for_each(|(i, v)| check_finite(v, &format!("{path}[{i}]"))),
        Json::Obj(fields) => fields
            .iter()
            .try_for_each(|(k, v)| check_finite(v, &format!("{path}.{k}"))),
        _ => Ok(()),
    }
}

/// Validates `text` and writes it to `path` — the only way bench
/// writers should emit an artifact.
///
/// # Errors
///
/// Validation failures (see [`validate`]) or the I/O error.
pub fn write(path: &str, text: &str) -> Result<(), String> {
    validate(text)?;
    std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serve_doc(run_extra: &str, top_extra: &str) -> String {
        let run = format!(
            "{{\"label\":\"single\",\"transport\":\"binary\",\
             \"batch\":64,\"requests\":100,\"wire_lines\":10,\"wall_seconds\":0.5,\
             \"throughput_rps\":200.0,\"ingest_latency\":null,\"forecast_latency\":null,\
             \"service_times\":{{\"ingest\":{{\"count\":40,\"p50_ms\":0.5,\"p95_ms\":2.0}}}},\
             \"protocol_ok\":true,\"metrics_ok\":true,\"outputs_identical\":true{run_extra}}}"
        );
        format!(
            "{{\"schema\":\"{SERVE_SCHEMA}\",\"mode\":\"smoke\",\"hardware_threads\":8,\
             \"clients\":4,\"hours_streamed\":5,\"votes_replayed_per_client\":100,\
             \"runs\":[{run}]{top_extra}}}"
        )
    }

    const SCENARIO_ENTRY: &str = "{\"regime\":\"broadcast\",\"cascades\":4,\"deliveries\":20,\
         \"votes_accepted\":160,\"late_rejections\":0,\"requests\":50,\
         \"wall_seconds\":0.8,\"throughput_rps\":62.5,\"eq8_mean_accuracy\":0.91,\
         \"accuracy_floor\":0.5,\"accuracy_ok\":true,\"protocol_ok\":true,\
         \"metrics_ok\":true,\"outputs_identical\":true,\"routed_identical\":true,\
         \"slice_identical\":true}";

    fn scenarios_doc(regimes: &str, digg: &str) -> String {
        format!(
            "{{\"schema\":\"{SCENARIOS_SCHEMA}\",\"mode\":\"smoke\",\"hardware_threads\":8,\
             \"clients\":4,\"seed\":42,\"regimes\":[{regimes}],\"digg\":{digg},\"soak_ok\":true}}"
        )
    }

    #[test]
    fn valid_artifacts_pass() {
        validate(&serve_doc("", "")).expect("serve doc validates");
        validate(&scenarios_doc(SCENARIO_ENTRY, "null")).expect("scenarios doc validates");
        validate(&scenarios_doc("", SCENARIO_ENTRY)).expect("digg-only scenarios doc validates");
    }

    #[test]
    fn missing_keys_and_unknown_schemas_fail() {
        let missing = serve_doc("", "").replace("\"mode\":\"smoke\",", "");
        assert!(validate(&missing).unwrap_err().contains("`mode`"));
        let unknown = serve_doc("", "").replace(SERVE_SCHEMA, "dlm-bench/other/v9");
        assert!(validate(&unknown).unwrap_err().contains("registry"));
        assert!(validate("[1,2,3]").is_err());
        assert!(validate("{\"a\":1}").is_err());
    }

    #[test]
    fn run_entries_are_validated_too() {
        let missing_run_key = serve_doc("", "").replace("\"batch\":64,", "");
        assert!(validate(&missing_run_key)
            .unwrap_err()
            .contains("runs[0] is missing key `batch`"));
    }

    #[test]
    fn scenario_regime_entries_are_validated_too() {
        let missing = scenarios_doc(SCENARIO_ENTRY, "null").replace("\"late_rejections\":0,", "");
        assert!(validate(&missing)
            .unwrap_err()
            .contains("regimes[0] is missing key `late_rejections`"));
        // A non-null `digg` object must carry the same gate record.
        assert!(
            validate(&scenarios_doc(SCENARIO_ENTRY, "{\"regime\":\"digg\"}"))
                .unwrap_err()
                .contains("`digg` is missing key")
        );
        // An artifact that replayed nothing at all is a writer bug.
        assert!(validate(&scenarios_doc("", "null"))
            .unwrap_err()
            .contains("at least one"));
    }

    #[test]
    fn non_finite_numbers_are_rejected() {
        // What a writer interpolating a NaN float actually produces.
        let bad = serve_doc("", ",\"extra\":NaN");
        assert!(validate(&bad).is_err());
    }
}
