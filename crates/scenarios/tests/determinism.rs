//! The factory's determinism contract, pinned property-wise:
//!
//! 1. any slice of any regime stream regenerates byte-identically, no
//!    matter which [`Parallelism`] fans the generation out;
//! 2. how a cascade's accepted vote stream is regrouped into ingest
//!    batches never changes the server's snapshot bytes;
//! 3. storm schedules are rejected/accepted by a live server exactly
//!    as the pure [`ScenarioCascade::accepted_votes`] classifier says,
//!    and the surviving state matches the offline batch builder bit
//!    for bit.
//!
//! These are the invariants the `serve_load` regime soak gates
//! lean on; here they get adversarial inputs instead of one seed.

use dlm_cascade::hops::hop_density_matrix;
use dlm_data::Cascade;
use dlm_numerics::pool::Parallelism;
use dlm_scenarios::{
    catalog, find_regime, generate_batch, Regime, ScenarioCascade, ScenarioStream,
    SCENARIO_MAX_HOPS,
};
use dlm_serve::{Json, ServeConfig, ServerState};
use proptest::prelude::*;
use std::sync::Arc;

fn any_regime() -> impl Strategy<Value = &'static Regime> {
    (0usize..catalog().len()).prop_map(|i| &catalog()[i])
}

/// A server core ready to replay one cascade over `graph` — lazy fits
/// (these tests never forecast, so no model work should run at all).
fn server_for(graph: &Arc<dlm_graph::DiGraph>) -> ServerState {
    let config = ServeConfig {
        prewarm: false,
        ..ServeConfig::default()
    };
    ServerState::with_graph(config, Arc::clone(graph)).expect("default lineup builds")
}

fn open_line(cascade: &ScenarioCascade) -> String {
    format!(
        r#"{{"type":"open","cascade":"c","initiator":{},"max_hops":{SCENARIO_MAX_HOPS},"horizon":{},"submit_time":{}}}"#,
        cascade.initiator, cascade.horizon, cascade.submit_time
    )
}

fn ingest_line(votes: &[(u64, usize)], now: Option<u64>) -> String {
    let votes: Vec<String> = votes
        .iter()
        .map(|&(ts, voter)| format!("[{ts},{voter}]"))
        .collect();
    match now {
        Some(now) => format!(
            r#"{{"type":"ingest","cascade":"c","votes":[{}],"now":{now}}}"#,
            votes.join(",")
        ),
        None => format!(
            r#"{{"type":"ingest","cascade":"c","votes":[{}]}}"#,
            votes.join(",")
        ),
    }
}

fn response_ok(line: &str) -> bool {
    Json::parse(line)
        .expect("server responses are JSON")
        .get("ok")
        .and_then(Json::as_bool)
        .expect("server responses carry `ok`")
}

/// Replays `chunks` of one cascade's accepted votes into a fresh server
/// (no per-chunk clocks — hours close from the votes themselves), then
/// advances to the end of the horizon and returns the full `snapshot`
/// response line.
fn snapshot_after(
    graph: &Arc<dlm_graph::DiGraph>,
    cascade: &ScenarioCascade,
    chunks: &[&[(u64, usize)]],
) -> String {
    let state = server_for(graph);
    assert!(response_ok(&state.handle_line(&open_line(cascade))));
    for chunk in chunks {
        assert!(
            response_ok(&state.handle_line(&ingest_line(chunk, None))),
            "a clean, ordered chunk was rejected"
        );
    }
    let end = cascade.submit_time + u64::from(cascade.horizon) * 3600;
    assert!(response_ok(
        &state.handle_line(&ingest_line(&[], Some(end)))
    ));
    state.handle_line(r#"{"type":"snapshot","cascade":"c"}"#)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Contract 1: `Serial`, `Fixed(n)`, and a streamed prefix all
    /// produce the same bytes for the same `(regime, seed, index)`
    /// coordinates — a slice can be re-derived anywhere, any way.
    #[test]
    fn slices_regenerate_identically_across_parallelism(
        regime in any_regime(),
        seed in 0u64..1_000_000,
        start in 0u64..40,
        count in 1usize..5,
        threads in 2usize..5,
    ) {
        let serial = generate_batch(regime, seed, start, count, Parallelism::Serial).unwrap();
        let fanned = generate_batch(regime, seed, start, count, Parallelism::Fixed(threads)).unwrap();
        prop_assert_eq!(serial.len(), fanned.len());
        for (s, f) in serial.iter().zip(&fanned) {
            prop_assert_eq!(s.canonical_bytes(), f.canonical_bytes());
        }
        let streamed: Vec<ScenarioCascade> = ScenarioStream::new(regime, seed)
            .unwrap()
            .skip(start as usize)
            .take(count)
            .collect();
        for (s, st) in serial.iter().zip(&streamed) {
            prop_assert_eq!(s.canonical_bytes(), st.canonical_bytes());
            prop_assert_eq!(s.index, st.index);
        }
    }

    /// Contract 2: the chunk boundaries a client happens to pick for
    /// its ingest batches are invisible — any regrouping of any prefix
    /// of the accepted vote stream leaves the server's snapshot bytes
    /// identical to the single-batch replay of that prefix.
    #[test]
    fn ingest_regrouping_never_changes_snapshot_bytes(
        regime in any_regime(),
        seed in 0u64..1_000_000,
        index in 0u64..30,
        prefix in 0usize..500,
        cuts in prop::collection::vec(0usize..500, 0..6),
    ) {
        let stream = ScenarioStream::new(regime, seed).unwrap();
        let graph = Arc::clone(stream.graph());
        let cascade = regime.cascade(&graph, seed, index).unwrap();

        let votes = cascade.accepted_votes();
        let votes = &votes[..prefix % (votes.len() + 1)];

        // Arbitrary, order-preserving chunk boundaries over the prefix.
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (votes.len() + 1)).collect();
        bounds.push(0);
        bounds.push(votes.len());
        bounds.sort_unstable();
        bounds.dedup();
        let chunks: Vec<&[(u64, usize)]> = bounds
            .windows(2)
            .map(|w| &votes[w[0]..w[1]])
            .collect();

        let one_shot = snapshot_after(&graph, &cascade, &[votes]);
        let regrouped = snapshot_after(&graph, &cascade, &chunks);
        prop_assert!(response_ok(&one_shot));
        prop_assert_eq!(one_shot, regrouped);
    }

    /// Contract 3: replaying a storm schedule delivery-by-delivery, the
    /// server rejects exactly the deliveries the schedule marks late,
    /// and what it counted is bit-identical to the batch builder fed
    /// the pure classifier's accepted votes.
    #[test]
    fn storm_rejections_match_the_batch_classifier(
        seed in 0u64..1_000_000,
        index in 0u64..30,
    ) {
        let regime = find_regime("storm").unwrap();
        let graph = Arc::new(regime.graph(seed).unwrap());
        let cascade = regime.cascade(&graph, seed, index).unwrap();

        let state = server_for(&graph);
        prop_assert!(response_ok(&state.handle_line(&open_line(&cascade))));
        for (i, delivery) in cascade.deliveries.iter().enumerate() {
            let ok = response_ok(
                &state.handle_line(&ingest_line(&delivery.votes, Some(delivery.now))),
            );
            prop_assert_eq!(
                ok,
                !delivery.late,
                "delivery {} (late={}) answered {}",
                i,
                delivery.late,
                ok
            );
        }

        // What survived must be exactly the classifier's accepted set:
        // decode the server's own snapshot and compare densities bit
        // for bit against the offline pipeline on `accepted_votes`.
        let response = state.handle_line(r#"{"type":"snapshot","cascade":"c"}"#);
        let hex = Json::parse(&response)
            .expect("snapshot response is JSON")
            .get("snapshot")
            .and_then(Json::as_str)
            .expect("snapshot response carries hex bytes")
            .to_owned();
        let snap = dlm_cluster::CascadeSnapshot::decode_hex(&hex).unwrap();
        let live = dlm_serve::LiveCascade::from_snapshot(&snap).unwrap();
        prop_assert_eq!(live.closed_hours(), cascade.horizon);

        let offline = Cascade::from_parts(
            1,
            cascade.initiator,
            cascade.submit_time,
            cascade.accepted_as_votes(1),
        )
        .unwrap();
        let batch =
            hop_density_matrix(&graph, &offline, SCENARIO_MAX_HOPS, cascade.horizon).unwrap();
        let served = live.matrix().unwrap();
        prop_assert_eq!(served.max_distance(), batch.max_distance());
        for d in 1..=batch.max_distance() {
            for h in 1..=cascade.horizon {
                prop_assert_eq!(
                    served.at(d, h).unwrap().to_bits(),
                    batch.at(d, h).unwrap().to_bits(),
                    "d={} h={}",
                    d,
                    h
                );
            }
        }
    }
}
