//! Tier-1 gate for the bench artifact contract: every `BENCH_*.json`
//! writer declares a schema from `dlm_bench::artifact`, and this test
//! pins the registry — shape fixtures mirroring each writer's exact
//! output must validate, tampered documents must not, and any artifact
//! actually present at the workspace root (left by a local or CI bench
//! run) must pass the same validation the writers enforce.

use dlm_bench::artifact;

/// A document shaped exactly like `serve_load`'s single-server writer.
fn serve_fixture() -> String {
    let run = r#"{"label": "single", "transport": "binary", "batch": 4,
        "requests": 48, "wire_lines": 16, "wall_seconds": 0.084, "throughput_rps": 573.02,
        "ingest_latency": {"n": 8, "mean_ms": 24.1, "stddev_ms": 9.0, "p50_ms": 22.0,
                           "p95_ms": 40.0, "max_ms": 41.2},
        "forecast_latency": null,
        "service_times": {"ingest": {"count": 40, "p50_ms": 16.4, "p95_ms": 32.8},
                          "forecast": {"count": 36, "p50_ms": 4.1, "p95_ms": 8.2}},
        "cache": {"hits": 12, "misses": 20, "evictions": 0},
        "protocol_ok": true, "metrics_ok": true, "outputs_identical": true}"#;
    format!(
        r#"{{"schema": "{}", "mode": "smoke", "hardware_threads": 8, "clients": 4,
            "hours_streamed": 5, "votes_replayed_per_client": 163,
            "runs": [{run}]}}"#,
        artifact::SERVE_SCHEMA
    )
}

/// A document shaped exactly like `serve_load`'s router writer.
fn router_fixture() -> String {
    format!(
        r#"{{"schema": "{}", "mode": "smoke", "backends": 2, "clients": 4,
            "data_replicas": 1, "hardware_threads": 8, "transport": "lines",
            "hours_streamed": 5, "votes_replayed_per_client": 163, "requests": 48,
            "wall_seconds": 0.1, "throughput_rps": 482.7, "ingest_latency": null,
            "forecast_latency": null, "routed_per_backend": [13, 37],
            "aggregate_cache": {{"hits": 5, "misses": 40, "evictions": 0}},
            "remap_fraction": 0.0, "handoff_ms": null, "rejoin_ms": null,
            "repair_count": 0, "lost_responses": 0,
            "protocol_ok": true, "routed_identical": true}}"#,
        artifact::ROUTER_SCHEMA
    )
}

/// A document shaped exactly like `serve_load`'s scenario-soak writer.
fn scenarios_fixture() -> String {
    let entry = |regime: &str| {
        format!(
            r#"{{"regime": "{regime}", "cascades": 4, "deliveries": 32, "votes_accepted": 260,
                "late_rejections": 5, "requests": 92, "wall_seconds": 0.14,
                "throughput_rps": 650.2, "eq8_mean_accuracy": 0.163, "accuracy_floor": 0.07,
                "accuracy_ok": true, "protocol_ok": true, "metrics_ok": true,
                "outputs_identical": true, "routed_identical": true, "slice_identical": true}}"#
        )
    };
    format!(
        r#"{{"schema": "{}", "mode": "smoke", "hardware_threads": 8, "clients": 4,
            "seed": 42, "regimes": [{}, {}], "digg": {}, "soak_ok": true}}"#,
        artifact::SCENARIOS_SCHEMA,
        entry("broadcast"),
        entry("storm"),
        entry("digg"),
    )
}

/// A document shaped exactly like the evaluation bench writer.
fn evaluation_fixture() -> String {
    let leg = r#"{"ms": 100.0, "cache_hits": 1, "cache_misses": 2, "cache_evictions": 0}"#;
    format!(
        r#"{{"schema": "{}", "mode": "smoke", "hardware_threads": 8, "workers": 8,
            "models": 8, "cases": 12, "grid_cells": 96,
            "serial_cold": {leg}, "serial_warm": {leg},
            "parallel_cold": {leg}, "parallel_warm": {leg},
            "speedup_parallel_cold": 3.1, "speedup_parallel_warm": 2.9,
            "speedup_warm_cache": 4.0, "outputs_identical": true}}"#,
        artifact::EVALUATION_SCHEMA
    )
}

/// A document shaped exactly like the calibration bench writer.
fn calibration_fixture() -> String {
    let run = r#"{"ms": 250.0, "mean_objective": 1.5e-3}"#;
    format!(
        r#"{{"schema": "{}", "mode": "smoke", "hardware_threads": 8, "workers": 8,
            "fixtures": 4, "starts": 6, "evals_per_start": 120,
            "single_start": {run}, "multi_serial": {run}, "multi_parallel": {run},
            "speedup_parallel_multi": 2.8, "objective_improvement_geomean": 0.97,
            "objective_never_worse": true, "outputs_identical": true}}"#,
        artifact::CALIBRATION_SCHEMA
    )
}

#[test]
fn every_writer_schema_is_registered_and_its_shape_validates() {
    for (schema, doc) in [
        (artifact::SERVE_SCHEMA, serve_fixture()),
        (artifact::ROUTER_SCHEMA, router_fixture()),
        (artifact::SCENARIOS_SCHEMA, scenarios_fixture()),
        (artifact::EVALUATION_SCHEMA, evaluation_fixture()),
        (artifact::CALIBRATION_SCHEMA, calibration_fixture()),
    ] {
        assert!(
            artifact::required_keys(schema).is_some(),
            "schema `{schema}` missing from the registry"
        );
        artifact::validate(&doc).unwrap_or_else(|e| panic!("{schema} fixture rejected: {e}"));
    }
}

#[test]
fn dropping_any_required_key_fails_validation() {
    for doc in [
        serve_fixture(),
        router_fixture(),
        scenarios_fixture(),
        evaluation_fixture(),
        calibration_fixture(),
    ] {
        let schema = dlm_serve::Json::parse(&doc)
            .expect("fixture parses")
            .get("schema")
            .and_then(|s| s.as_str().map(str::to_owned))
            .expect("fixture declares a schema");
        for key in artifact::required_keys(&schema).expect("registered") {
            if *key == "schema" {
                continue; // removing `schema` fails earlier, tested below
            }
            let needle = format!("\"{key}\"");
            let start = doc.find(&needle).expect("fixture carries the key");
            // Rename the key in place: same JSON shape, required key gone.
            let tampered = format!("{}\"_{}{}", &doc[..start], &key[..1], &doc[start + 2..]);
            assert!(
                artifact::validate(&tampered).is_err(),
                "{schema} accepted a document missing `{key}`"
            );
        }
    }
}

#[test]
fn unknown_schemas_and_nonfinite_numbers_fail_validation() {
    let unknown = serve_fixture().replace(artifact::SERVE_SCHEMA, "dlm-bench/mystery/v1");
    assert!(artifact::validate(&unknown)
        .unwrap_err()
        .contains("registry"));

    // What a writer interpolating a NaN/Inf float emits — not JSON at all.
    let nan = serve_fixture().replace("573.02", "NaN");
    assert!(artifact::validate(&nan).is_err());
    let inf = serve_fixture().replace("573.02", "inf");
    assert!(artifact::validate(&inf).is_err());

    assert!(artifact::validate("[]").is_err());
    assert!(artifact::validate(r#"{"mode": "smoke"}"#).is_err());
}

#[test]
fn serve_runs_entries_are_validated_individually() {
    let missing_run_key = serve_fixture().replace("\"wire_lines\"", "\"wire_lanes\"");
    let err = artifact::validate(&missing_run_key).unwrap_err();
    assert!(err.contains("runs[0]"), "unexpected error: {err}");

    let empty_runs = serve_fixture();
    let start = empty_runs.find("\"runs\": [").expect("runs key");
    let end = empty_runs[start..].find(']').expect("array close") + start;
    let empty_runs = format!("{}\"runs\": [{}", &empty_runs[..start], &empty_runs[end..]);
    assert!(artifact::validate(&empty_runs).is_err());
}

#[test]
fn artifacts_left_at_the_workspace_root_validate() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0usize;
    for entry in std::fs::read_dir(root).expect("workspace root") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            let text = std::fs::read_to_string(entry.path()).expect("read artifact");
            artifact::validate(&text).unwrap_or_else(|e| panic!("{name} invalid: {e}"));
            checked += 1;
        }
    }
    eprintln!("validated {checked} artifact(s) at the workspace root");
}
