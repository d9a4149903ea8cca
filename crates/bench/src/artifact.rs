//! Bench artifact schemas: every `BENCH_*.json` the harness writes
//! declares a `schema` string, and this module is the single registry
//! of what each schema promises — which top-level keys must be present
//! and that every number in the document is finite. Writers go through
//! [`write()`] so a malformed artifact fails the bench run itself, and
//! the tier-1 `bench_schema` test exercises the same [`validate`] so a
//! writer/registry drift fails `cargo test` before it fails CI's
//! artifact consumers.

use dlm_serve::Json;

/// `serve_load` gate runs (`BENCH_serve.json`). `runs` holds one entry
/// per run-table row executed. `v5` folds the routed and scenario-soak
/// artifacts into this one: every run replays through both tiers and
/// carries the full gate record, plus a `drill` object (`null` unless
/// the run drains, kills and rejoins a backend); the wall-time,
/// throughput and latency fields are gone (`perfbench` owns
/// performance).
pub const SERVE_SCHEMA: &str = "dlm-bench/serve/v5";

/// Offline evaluation-pipeline timings (`BENCH_evaluation.json`).
pub const EVALUATION_SCHEMA: &str = "dlm-bench/evaluation/v1";

/// Calibration / multi-start timings (`BENCH_calibration.json`).
pub const CALIBRATION_SCHEMA: &str = "dlm-bench/calibration/v1";

/// Keys every element of a serve artifact's `runs` array must carry.
/// `slice_identical` may be `null` (no stream to re-derive); `drill` is
/// `null` or an object carrying [`SERVE_DRILL_KEYS`].
pub const SERVE_RUN_KEYS: &[&str] = &[
    "name",
    "workload",
    "transport",
    "batch",
    "cascades",
    "deliveries",
    "votes_accepted",
    "late_rejections",
    "requests",
    "wire_lines",
    "eq8_mean_accuracy",
    "accuracy_floor",
    "accuracy_ok",
    "protocol_ok",
    "metrics_ok",
    "outputs_identical",
    "routed_identical",
    "slice_identical",
    "drill",
];

/// Keys a run entry's non-null `drill` object must carry.
pub const SERVE_DRILL_KEYS: &[&str] = &[
    "remap_fraction",
    "handoff_ms",
    "rejoin_ms",
    "repair_count",
    "lost_responses",
];

/// The registry: declared schema → required top-level keys. Adding a
/// writer means adding its schema here and covering it in the tier-1
/// `bench_schema` test.
#[must_use]
pub fn required_keys(schema: &str) -> Option<&'static [&'static str]> {
    match schema {
        s if s == SERVE_SCHEMA => Some(&["schema", "seed", "runs", "ok"]),
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
            match run.get("drill") {
                Some(Json::Null) => {}
                Some(drill @ Json::Obj(_)) => {
                    for key in SERVE_DRILL_KEYS {
                        if drill.get(key).is_none() {
                            return Err(format!("runs[{i}].drill is missing key `{key}`"));
                        }
                    }
                }
                _ => return Err(format!("runs[{i}].drill must be null or an object")),
            }
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

    const DRILL: &str = "{\"remap_fraction\":0.5,\"handoff_ms\":1.2,\"rejoin_ms\":null,\
         \"repair_count\":3,\"lost_responses\":0}";

    fn run_entry(slice: &str, drill: &str) -> String {
        format!(
            "{{\"name\":\"story-binary-batch3\",\"workload\":\"story\",\"transport\":\"binary\",\
             \"batch\":3,\"cascades\":4,\"deliveries\":20,\"votes_accepted\":160,\
             \"late_rejections\":0,\"requests\":48,\"wire_lines\":16,\
             \"eq8_mean_accuracy\":0.91,\"accuracy_floor\":null,\"accuracy_ok\":true,\
             \"protocol_ok\":true,\"metrics_ok\":true,\"outputs_identical\":true,\
             \"routed_identical\":true,\"slice_identical\":{slice},\"drill\":{drill}}}"
        )
    }

    fn serve_doc(run: &str, top_extra: &str) -> String {
        format!(
            "{{\"schema\":\"{SERVE_SCHEMA}\",\"seed\":42,\"runs\":[{run}],\"ok\":true{top_extra}}}"
        )
    }

    #[test]
    fn valid_artifacts_pass() {
        validate(&serve_doc(&run_entry("true", "null"), "")).expect("serve doc validates");
    }

    #[test]
    fn missing_keys_and_unknown_schemas_fail() {
        let doc = serve_doc(&run_entry("true", "null"), "");
        let missing = doc.replace("\"seed\":42,", "");
        assert!(validate(&missing).unwrap_err().contains("`seed`"));
        let unknown = doc.replace(SERVE_SCHEMA, "dlm-bench/other/v9");
        assert!(validate(&unknown).unwrap_err().contains("registry"));
        assert!(validate("[1,2,3]").is_err());
        assert!(validate("{\"a\":1}").is_err());
    }

    #[test]
    fn run_entries_are_validated_too() {
        let missing_run_key = serve_doc(&run_entry("true", "null"), "").replace("\"batch\":3,", "");
        assert!(validate(&missing_run_key)
            .unwrap_err()
            .contains("runs[0] is missing key `batch`"));
    }

    #[test]
    fn scenario_regime_entries_are_validated_too() {
        // A run with no stream to re-derive records a `null` slice gate,
        // and a drill run records its drill object.
        validate(&serve_doc(&run_entry("null", DRILL), "")).expect("drill run validates");
        let missing =
            serve_doc(&run_entry("true", "null"), "").replace("\"late_rejections\":0,", "");
        assert!(validate(&missing)
            .unwrap_err()
            .contains("runs[0] is missing key `late_rejections`"));
        // A drill object must carry the full drill record.
        let partial = run_entry("null", DRILL).replace("\"lost_responses\":0", "\"lost\":0");
        assert!(validate(&serve_doc(&partial, ""))
            .unwrap_err()
            .contains("drill is missing key `lost_responses`"));
        assert!(validate(&serve_doc(&run_entry("true", "7"), ""))
            .unwrap_err()
            .contains("null or an object"));
        // An artifact that ran nothing at all is a writer bug.
        assert!(validate(&serve_doc("", ""))
            .unwrap_err()
            .contains("at least one"));
    }

    #[test]
    fn non_finite_numbers_are_rejected() {
        // What a writer interpolating a NaN float actually produces.
        let bad = serve_doc(&run_entry("true", "null"), ",\"extra\":NaN");
        assert!(validate(&bad).is_err());
    }
}
