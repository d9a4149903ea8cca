//! The benchmark's own tests: the seeded stream is a pure function of
//! the workload and seed, and the metric names the benchmark prints are
//! exactly the ones `BENCHMARK.json` declares.

use perfbench::e2e::{latency_source, Source, END_TO_END};
use perfbench::plan::{world, Class, Plan, Workload};
use perfbench::trace::PER_LAYER;
use std::sync::Arc;

/// A short run's stream: the same shape as a full one, fewer requests.
const SECONDS: f64 = 2.0;

fn stream_bytes(plan: &Plan) -> Vec<u8> {
    let mut out = Vec::new();
    for phase in plan.phases() {
        out.extend_from_slice(phase.name.as_bytes());
        for (c, requests) in phase.conns.iter().enumerate() {
            for r in requests {
                out.push(c as u8);
                out.extend_from_slice(&r.at.to_bits().to_le_bytes());
                out.extend_from_slice(&r.bytes);
            }
        }
    }
    out
}

#[test]
fn same_seed_same_stream_other_seed_other_stream() {
    let world = Arc::new(world());
    for workload in Workload::ALL {
        let a = Plan::generate_in(Arc::clone(&world), workload, 7, SECONDS);
        let b = Plan::generate_in(Arc::clone(&world), workload, 7, SECONDS);
        let c = Plan::generate_in(Arc::clone(&world), workload, 8, SECONDS);
        assert_eq!(
            stream_bytes(&a),
            stream_bytes(&b),
            "{}: seed 7 twice",
            workload.name()
        );
        assert_eq!(a.stream_hash(), b.stream_hash(), "{}", workload.name());
        assert_ne!(
            stream_bytes(&a),
            stream_bytes(&c),
            "{}: seeds 7 and 8",
            workload.name()
        );
        assert_ne!(a.stream_hash(), c.stream_hash(), "{}", workload.name());
    }
}

#[test]
fn every_phase_sends_what_its_workload_needs() {
    let world = Arc::new(world());
    for workload in Workload::ALL {
        let plan = Plan::generate_in(Arc::clone(&world), workload, 3, 10.0);
        for class in [Class::Forecast, Class::Ingest, Class::Close] {
            let phase = match latency_source(workload, class) {
                Source::Nominal => &plan.nominal,
                Source::Setup => &plan.setup,
                Source::Probe => &plan.probe,
            };
            assert!(
                phase.requests().any(|r| r.class == class),
                "{}: no {} requests in the {} phase",
                workload.name(),
                class.name(),
                phase.name
            );
        }
        assert!(
            !plan.nominal.is_empty()
                && plan
                    .ladder
                    .iter()
                    .all(|(rung, retry)| !rung.is_empty() && !retry.is_empty())
        );
        let ids: std::collections::HashSet<u64> = plan
            .phases()
            .flat_map(|p| p.requests())
            .map(|r| r.id)
            .collect();
        let total: usize = plan.phases().map(|p| p.len()).sum();
        assert_eq!(
            ids.len(),
            total,
            "{}: request ids are unique",
            workload.name()
        );
    }
}

/// The `"name": "..."` values of one array in `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("string closes");
        rest[open..close].to_owned()
    };
    body.split('{')
        .skip(1)
        .map(|obj| {
            let unit = if section == "workloads" {
                String::new()
            } else {
                field(obj, "unit")
            };
            let better = if section == "workloads" {
                String::new()
            } else {
                field(obj, "better")
            };
            (field(obj, "name"), unit, better)
        })
        .collect()
}

#[test]
fn benchmark_json_declares_what_the_benchmark_prints() {
    let workloads: Vec<String> = declared("workloads").into_iter().map(|(n, ..)| n).collect();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);

    let per_layer: Vec<(String, String, String)> = PER_LAYER
        .iter()
        .map(|l| (l.name.to_owned(), l.unit.to_owned(), l.better.to_owned()))
        .collect();
    assert_eq!(declared("per_layer"), per_layer);

    let end_to_end: Vec<(String, String)> = declared("end_to_end")
        .into_iter()
        .map(|(n, u, _)| (n, u))
        .collect();
    let printed: Vec<(String, String)> = END_TO_END
        .iter()
        .filter(|m| m.gated)
        .map(|m| (m.name.to_owned(), m.unit.to_owned()))
        .collect();
    assert_eq!(end_to_end, printed);
}
