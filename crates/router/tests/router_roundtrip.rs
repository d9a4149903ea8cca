//! End-to-end contract of the routing tier, over real sockets:
//!
//! * **byte-identity** — every `open`/`ingest`/`forecast` response a
//!   client receives through `dlm-router` (two backend processes'
//!   worth of `ServerState`s) is byte-identical to the response the
//!   same request sequence gets from one direct `dlm-serve` server,
//!   for the full 8-model default lineup and for both distance
//!   metrics;
//! * **stats aggregation** — the router's scatter-gather `stats`
//!   aggregate equals the field-wise sum of the per-backend stats it
//!   embeds in the same response;
//! * **failure isolation** — killing one backend surfaces a
//!   per-backend error for cascades on its shard while every other
//!   shard keeps serving identical bytes.

use dlm_cluster::HashRing;
use dlm_core::evaluate::Parallelism;
use dlm_data::simulate::simulate_story;
use dlm_data::{SimulationConfig, StoryPreset, SyntheticWorld, WorldConfig};
use dlm_router::{RouterConfig, RouterState};
use dlm_serve::server::{DlmServer, ServeConfig, ServerState};
use dlm_serve::{Json, LineClient};
use std::sync::Arc;

const MAX_HOPS: u32 = 4;
const HORIZON: u32 = 5;
const OBSERVE_THROUGH: u32 = 2;

/// World + story fixture shared by the smaller scenarios: (world,
/// submit_time, initiator, votes JSON, close_at).
fn fixture() -> (SyntheticWorld, u64, usize, String, u64) {
    let world = SyntheticWorld::generate(WorldConfig::default().scaled(0.1)).unwrap();
    let story = simulate_story(
        &world,
        &StoryPreset::s1(),
        SimulationConfig {
            hours: HORIZON + 2,
            substeps: 2,
            seed: 13,
        },
    )
    .unwrap();
    let submit = story.submit_time();
    let initiator = story.initiator();
    let votes: Vec<String> = story
        .votes()
        .iter()
        .map(|v| format!("[{},{}]", v.timestamp, v.voter))
        .collect();
    let close_at = submit + u64::from(HORIZON) * 3600;
    (world, submit, initiator, votes.join(","), close_at)
}

fn backend_state(world: &SyntheticWorld) -> ServerState {
    ServerState::with_world(
        ServeConfig {
            parallelism: Parallelism::Fixed(2),
            ..ServeConfig::default()
        },
        world.clone(),
    )
    .expect("server state")
}

fn u(value: &Json, key: &str) -> u64 {
    value
        .get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("missing counter `{key}` in {value}"))
}

#[test]
fn routed_cluster_matches_single_server_and_degrades_per_shard() {
    let world = SyntheticWorld::generate(WorldConfig::default().scaled(0.1)).unwrap();
    let story = simulate_story(
        &world,
        &StoryPreset::s1(),
        SimulationConfig {
            hours: HORIZON + 2,
            substeps: 2,
            seed: 13,
        },
    )
    .unwrap();
    let submit = story.submit_time();
    let initiator = story.initiator();
    let votes_json: Vec<String> = story
        .votes()
        .iter()
        .map(|v| format!("[{},{}]", v.timestamp, v.voter))
        .collect();
    let votes = votes_json.join(",");
    let close_at = submit + u64::from(HORIZON) * 3600;

    // Two backend shards, one direct twin, one router in front.
    let mut b0 = DlmServer::bind("127.0.0.1:0", backend_state(&world)).unwrap();
    let b1 = DlmServer::bind("127.0.0.1:0", backend_state(&world)).unwrap();
    let direct = DlmServer::bind("127.0.0.1:0", backend_state(&world)).unwrap();
    let addrs = vec![b0.local_addr().to_string(), b1.local_addr().to_string()];
    let router = Arc::new(
        RouterState::new(RouterConfig {
            parallelism: Parallelism::Fixed(2),
            ..RouterConfig::new(addrs.clone())
        })
        .unwrap(),
    );
    let front = DlmServer::bind_shared("127.0.0.1:0", Arc::clone(&router)).unwrap();

    // Pick cascade ids deterministically so each shard owns three.
    let mut ids: Vec<String> = Vec::new();
    let mut per_shard = [0usize; 2];
    for i in 0..64 {
        let id = format!("c{i}");
        let shard = router.shard_of(&id);
        if per_shard[shard] < 3 {
            per_shard[shard] += 1;
            ids.push(id);
        }
        if ids.len() == 6 {
            break;
        }
    }
    assert_eq!(per_shard, [3, 3], "both shards must own cascades");

    let mut routed = LineClient::connect(front.local_addr()).unwrap();
    let mut single = LineClient::connect(direct.local_addr()).unwrap();
    let gate_hours: Vec<String> = (OBSERVE_THROUGH + 1..=HORIZON)
        .map(|h| h.to_string())
        .collect();
    let gate_hours = gate_hours.join(",");

    // The same request stream through the router and through one direct
    // server must produce byte-identical response lines — the hop metric
    // with the full 8-model lineup, plus one interest-metric cascade.
    let mut forecast_lines = Vec::new();
    for id in &ids {
        let mut requests = vec![
            format!(
                r#"{{"type":"open","cascade":"{id}","initiator":{initiator},"max_hops":{MAX_HOPS},"horizon":{HORIZON},"submit_time":{submit}}}"#
            ),
            format!(r#"{{"type":"ingest","cascade":"{id}","votes":[{votes}],"now":{close_at}}}"#),
            format!(
                r#"{{"type":"forecast","cascade":"{id}","hours":[{gate_hours}],"through":{OBSERVE_THROUGH}}}"#
            ),
        ];
        if id == &ids[0] {
            let interest_id = format!("{id}-interest");
            requests.push(format!(
                r#"{{"type":"open","cascade":"{interest_id}","initiator":{initiator},"metric":"interest","groups":5,"strategy":"width","horizon":{HORIZON},"submit_time":{submit}}}"#
            ));
            requests.push(format!(
                r#"{{"type":"ingest","cascade":"{interest_id}","votes":[{votes}],"now":{close_at}}}"#
            ));
            requests.push(format!(
                r#"{{"type":"forecast","cascade":"{interest_id}","hours":[{gate_hours}],"through":{OBSERVE_THROUGH}}}"#
            ));
        }
        for line in &requests {
            let via_router = routed.send_raw(line).unwrap();
            let via_single = single.send_raw(line).unwrap();
            assert_eq!(
                via_router, via_single,
                "routed and direct bytes diverge for `{line}`"
            );
            if line.contains(r#""type":"forecast""#) {
                let parsed = Json::parse(&via_router).unwrap();
                assert_eq!(
                    parsed.get("ok").and_then(Json::as_bool),
                    Some(true),
                    "{via_router}"
                );
                assert_eq!(
                    parsed
                        .get("models")
                        .and_then(Json::as_array)
                        .map(<[_]>::len),
                    Some(8),
                    "full lineup must be served: {via_router}"
                );
                forecast_lines.push((line.clone(), via_router));
            }
        }
    }

    // Scatter-gather stats: the aggregate must equal the field-wise sum
    // of the per-backend stats embedded in the same response.
    let stats = Json::parse(&routed.send_raw(r#"{"type":"stats"}"#).unwrap()).unwrap();
    assert_eq!(stats.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(stats.get("degraded").and_then(Json::as_bool), Some(false));
    let aggregate = stats.get("aggregate").expect("aggregate");
    let backends = stats.get("backends").and_then(Json::as_array).unwrap();
    assert_eq!(backends.len(), 2);
    let shard_stats: Vec<&Json> = backends
        .iter()
        .map(|b| {
            assert_eq!(b.get("ok").and_then(Json::as_bool), Some(true), "{b}");
            b.get("stats").expect("embedded shard stats")
        })
        .collect();
    for key in [
        "cascades",
        "cascade_evictions",
        "cascade_expirations",
        "requests",
        "refit_jobs",
        "hours_closed",
    ] {
        let sum: u64 = shard_stats.iter().map(|s| u(s, key)).sum();
        assert_eq!(u(aggregate, key), sum, "aggregate `{key}` is not the sum");
    }
    let agg_cache = aggregate.get("cache").expect("aggregate cache");
    for key in ["hits", "misses", "evictions", "len", "capacity"] {
        let sum: u64 = shard_stats
            .iter()
            .map(|s| u(s.get("cache").expect("shard cache"), key))
            .sum();
        assert_eq!(u(agg_cache, key), sum, "cache `{key}` is not the sum");
    }
    // Both hop shards closed every hour once per owned cascade; the
    // interest cascade adds one more close cycle on its shard.
    assert_eq!(u(aggregate, "hours_closed"), u64::from(HORIZON) * 7);
    let routed_counts = stats
        .get("router")
        .and_then(|r| r.get("routed"))
        .and_then(Json::as_array)
        .unwrap();
    assert!(
        routed_counts
            .iter()
            .all(|c| c.as_u64().is_some_and(|n| n > 0)),
        "every shard should have received traffic: {routed_counts:?}"
    );

    // Kill shard 0. Its cascades surface a per-backend error; shard 1
    // keeps serving byte-identical forecasts, and stats degrade instead
    // of failing.
    b0.shutdown();
    drop(b0);
    let shard_of = |id: &str| router.shard_of(id);
    let (dead_line, _) = forecast_lines
        .iter()
        .find(|(line, _)| {
            let id = Json::parse(line.as_str())
                .unwrap()
                .get("cascade")
                .and_then(Json::as_str)
                .unwrap()
                .to_owned();
            shard_of(&id) == 0
        })
        .expect("some forecast lives on shard 0");
    let response = Json::parse(&routed.send_raw(dead_line).unwrap()).unwrap();
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        response.get("backend").and_then(Json::as_str),
        Some(addrs[0].as_str()),
        "the failing shard must be named: {response}"
    );
    assert!(
        response
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("unavailable"),
        "{response}"
    );
    for (line, before) in forecast_lines
        .iter()
        .filter(|(line, _)| {
            let parsed = Json::parse(line.as_str()).unwrap();
            shard_of(parsed.get("cascade").and_then(Json::as_str).unwrap()) == 1
        })
        .take(2)
    {
        let after = routed.send_raw(line).unwrap();
        assert_eq!(&after, before, "surviving shard diverged after the kill");
    }
    let degraded = Json::parse(&routed.send_raw(r#"{"type":"stats"}"#).unwrap()).unwrap();
    assert_eq!(degraded.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(degraded.get("degraded").and_then(Json::as_bool), Some(true));
    let entries = degraded.get("backends").and_then(Json::as_array).unwrap();
    assert_eq!(entries[0].get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(entries[1].get("ok").and_then(Json::as_bool), Some(true));

    drop(front);
}

#[test]
fn kill_and_rebalance_loses_nothing_with_replication() {
    // Three backends, every cascade written to two of them
    // (`data_replicas: 2`). Killing one backend mid-run must lose
    // nothing: every forecast keeps serving, byte-identical to the
    // direct mirror, and the `remove` admin verb re-replicates the
    // survivors' copies under a bumped ring version.
    let world = SyntheticWorld::generate(WorldConfig::default().scaled(0.1)).unwrap();
    let story = simulate_story(
        &world,
        &StoryPreset::s1(),
        SimulationConfig {
            hours: HORIZON + 2,
            substeps: 2,
            seed: 13,
        },
    )
    .unwrap();
    let submit = story.submit_time();
    let initiator = story.initiator();
    let votes: Vec<String> = story
        .votes()
        .iter()
        .map(|v| format!("[{},{}]", v.timestamp, v.voter))
        .collect();
    let votes = votes.join(",");
    let close_at = submit + u64::from(HORIZON) * 3600;

    let b0 = DlmServer::bind("127.0.0.1:0", backend_state(&world)).unwrap();
    let mut b1 = DlmServer::bind("127.0.0.1:0", backend_state(&world)).unwrap();
    let b2 = DlmServer::bind("127.0.0.1:0", backend_state(&world)).unwrap();
    let direct = DlmServer::bind("127.0.0.1:0", backend_state(&world)).unwrap();
    let addrs = vec![
        b0.local_addr().to_string(),
        b1.local_addr().to_string(),
        b2.local_addr().to_string(),
    ];
    let router = Arc::new(
        RouterState::new(RouterConfig {
            parallelism: Parallelism::Fixed(2),
            data_replicas: 2,
            ..RouterConfig::new(addrs.clone())
        })
        .unwrap(),
    );
    let front = DlmServer::bind_shared("127.0.0.1:0", Arc::clone(&router)).unwrap();
    assert_eq!(router.ring_version(), 1);

    let mut routed = LineClient::connect(front.local_addr()).unwrap();
    let mut single = LineClient::connect(direct.local_addr()).unwrap();
    let ids: Vec<String> = (0..4).map(|i| format!("repl-{i}")).collect();
    let mut forecast_lines = Vec::new();
    for id in &ids {
        for line in [
            format!(
                r#"{{"type":"open","cascade":"{id}","initiator":{initiator},"max_hops":{MAX_HOPS},"horizon":{HORIZON},"submit_time":{submit}}}"#
            ),
            format!(r#"{{"type":"ingest","cascade":"{id}","votes":[{votes}],"now":{close_at}}}"#),
            format!(
                r#"{{"type":"forecast","cascade":"{id}","hours":[{HORIZON}],"through":{OBSERVE_THROUGH}}}"#
            ),
        ] {
            let via_router = routed.send_raw(&line).unwrap();
            let via_single = single.send_raw(&line).unwrap();
            assert_eq!(via_router, via_single, "diverged on `{line}`");
            if line.contains(r#""type":"forecast""#) {
                forecast_lines.push((line, via_router));
            }
        }
    }

    // Kill one backend. Every forecast must still come back — the
    // surviving replica answers for cascades the dead node owned — and
    // every byte must match the direct mirror. Zero lost responses.
    b1.shutdown();
    drop(b1);
    for (line, before) in &forecast_lines {
        let after = routed.send_raw(line).unwrap();
        assert_eq!(&after, before, "replicated forecast diverged after kill");
        let parsed = Json::parse(&after).unwrap();
        assert_eq!(
            parsed.get("ok").and_then(Json::as_bool),
            Some(true),
            "forecast lost after kill: {after}"
        );
    }

    // Fail-stop removal: survivors re-replicate what they hold, the
    // ring version bumps, and the dead node leaves the topology.
    let removal = Json::parse(
        &routed
            .send_raw(&format!(r#"{{"type":"remove","backend":"{}"}}"#, addrs[1]))
            .unwrap(),
    )
    .unwrap();
    assert_eq!(
        removal.get("ok").and_then(Json::as_bool),
        Some(true),
        "{removal}"
    );
    assert_eq!(removal.get("ring_version").and_then(Json::as_u64), Some(2));
    assert_eq!(u(&removal, "failed"), 0, "re-replication failed: {removal}");
    assert_eq!(
        removal
            .get("backends")
            .and_then(Json::as_array)
            .map(<[_]>::len),
        Some(2),
        "{removal}"
    );
    assert_eq!(router.backend_addrs().len(), 2);

    // Post-removal, reads and writes keep matching the direct mirror —
    // including a brand-new cascade on the shrunken ring.
    for (line, before) in &forecast_lines {
        let after = routed.send_raw(line).unwrap();
        assert_eq!(&after, before, "forecast diverged after removal");
    }
    for line in [
        format!(
            r#"{{"type":"open","cascade":"post-remove","initiator":{initiator},"max_hops":{MAX_HOPS},"horizon":{HORIZON},"submit_time":{submit}}}"#
        ),
        format!(
            r#"{{"type":"ingest","cascade":"post-remove","votes":[{votes}],"now":{close_at}}}"#
        ),
        format!(
            r#"{{"type":"forecast","cascade":"post-remove","hours":[{HORIZON}],"through":{OBSERVE_THROUGH}}}"#
        ),
    ] {
        let via_router = routed.send_raw(&line).unwrap();
        let via_single = single.send_raw(&line).unwrap();
        assert_eq!(via_router, via_single, "post-removal diverged on `{line}`");
    }

    // The stats `router` object reports the new epoch and the ownership
    // split of the surviving ring.
    let stats = Json::parse(&routed.send_raw(r#"{"type":"stats"}"#).unwrap()).unwrap();
    assert_eq!(stats.get("ok").and_then(Json::as_bool), Some(true));
    let router_obj = stats.get("router").expect("router stats");
    assert_eq!(u(router_obj, "ring_version"), 2);
    assert_eq!(u(router_obj, "data_replicas"), 2);
    let ownership = router_obj
        .get("ownership")
        .and_then(Json::as_array)
        .expect("ownership fractions");
    assert_eq!(ownership.len(), 2);
    let total: f64 = ownership.iter().filter_map(Json::as_f64).sum();
    assert!(
        (total - 1.0).abs() < 1e-9,
        "fractions must sum to 1: {total}"
    );

    drop(front);
    drop(b0);
    drop(b2);
}

#[test]
fn drain_hands_off_cascades_without_reopening_them() {
    // `drain` must stream each owned cascade's snapshot to its new
    // owner before the node leaves: the new owner serves byte-identical
    // forecasts (gate D) and keeps the hour watermark — a late vote is
    // still rejected, which a naive re-`open` would silently accept.
    let world = SyntheticWorld::generate(WorldConfig::default().scaled(0.1)).unwrap();
    let story = simulate_story(
        &world,
        &StoryPreset::s1(),
        SimulationConfig {
            hours: HORIZON + 2,
            substeps: 2,
            seed: 13,
        },
    )
    .unwrap();
    let submit = story.submit_time();
    let initiator = story.initiator();
    let votes: Vec<String> = story
        .votes()
        .iter()
        .map(|v| format!("[{},{}]", v.timestamp, v.voter))
        .collect();
    let votes = votes.join(",");
    let close_at = submit + u64::from(HORIZON) * 3600;

    let b0 = DlmServer::bind("127.0.0.1:0", backend_state(&world)).unwrap();
    let b1 = DlmServer::bind("127.0.0.1:0", backend_state(&world)).unwrap();
    let direct = DlmServer::bind("127.0.0.1:0", backend_state(&world)).unwrap();
    let addrs = vec![b0.local_addr().to_string(), b1.local_addr().to_string()];
    let router = Arc::new(
        RouterState::new(RouterConfig {
            parallelism: Parallelism::Fixed(2),
            ..RouterConfig::new(addrs.clone())
        })
        .unwrap(),
    );
    let front = DlmServer::bind_shared("127.0.0.1:0", Arc::clone(&router)).unwrap();
    let mut routed = LineClient::connect(front.local_addr()).unwrap();
    let mut single = LineClient::connect(direct.local_addr()).unwrap();

    // Cascades on both shards, so the drain moves a real subset.
    let mut ids: Vec<String> = Vec::new();
    let mut per_shard = [0usize; 2];
    for i in 0..64 {
        let id = format!("drain-{i}");
        let shard = router.shard_of(&id);
        if per_shard[shard] < 2 {
            per_shard[shard] += 1;
            ids.push(id);
        }
        if ids.len() == 4 {
            break;
        }
    }
    assert_eq!(per_shard, [2, 2], "both shards must own cascades");
    let on_drained = per_shard[0] as u64;

    let mut forecast_lines = Vec::new();
    for id in &ids {
        for line in [
            format!(
                r#"{{"type":"open","cascade":"{id}","initiator":{initiator},"max_hops":{MAX_HOPS},"horizon":{HORIZON},"submit_time":{submit}}}"#
            ),
            format!(r#"{{"type":"ingest","cascade":"{id}","votes":[{votes}],"now":{close_at}}}"#),
            format!(
                r#"{{"type":"forecast","cascade":"{id}","hours":[{HORIZON}],"through":{OBSERVE_THROUGH}}}"#
            ),
        ] {
            let via_router = routed.send_raw(&line).unwrap();
            let via_single = single.send_raw(&line).unwrap();
            assert_eq!(via_router, via_single, "diverged on `{line}`");
            if line.contains(r#""type":"forecast""#) {
                forecast_lines.push((line, via_router));
            }
        }
    }

    // Drain shard 0: its cascades hand off to shard 1 before it leaves.
    let drain = Json::parse(
        &routed
            .send_raw(&format!(r#"{{"type":"drain","backend":"{}"}}"#, addrs[0]))
            .unwrap(),
    )
    .unwrap();
    assert_eq!(
        drain.get("ok").and_then(Json::as_bool),
        Some(true),
        "{drain}"
    );
    assert_eq!(drain.get("verb").and_then(Json::as_str), Some("drain"));
    assert_eq!(drain.get("ring_version").and_then(Json::as_u64), Some(2));
    assert_eq!(u(&drain, "migrated"), on_drained, "{drain}");
    assert_eq!(u(&drain, "failed"), 0, "{drain}");
    assert!(
        drain.get("handoff_ms").and_then(Json::as_f64).is_some(),
        "drain must report its pause: {drain}"
    );
    assert_eq!(router.backend_addrs(), vec![addrs[1].clone()]);

    // Every forecast — including the migrated cascades' — must be
    // byte-identical to its pre-drain answer and to the direct mirror.
    for (line, before) in &forecast_lines {
        let after = routed.send_raw(line).unwrap();
        assert_eq!(&after, before, "handoff changed forecast bytes");
    }

    // The watermark survived the handoff: a vote for hour 1 is still a
    // late vote on the new owner. A re-`open` would have accepted it.
    for id in &ids {
        let late = format!(
            r#"{{"type":"ingest","cascade":"{id}","votes":[[{},0]]}}"#,
            submit + 10
        );
        let response = Json::parse(&routed.send_raw(&late).unwrap()).unwrap();
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
        assert!(
            response
                .get("error")
                .and_then(Json::as_str)
                .unwrap()
                .contains("late vote"),
            "watermark lost in handoff: {response}"
        );
    }

    drop(front);
    drop(b0);
    drop(b1);
}

#[test]
fn aborted_join_keeps_every_cascade_servable() {
    // Joining an unreachable node must abort the transition WITHOUT
    // touching cascade placement: the old owner keeps its copy even
    // though it would no longer own the cascade under the joined ring.
    // (A one-phase rebalance that evicts as it goes would strand the
    // cascade on no node here — permanent data loss.)
    let (world, submit, initiator, votes, close_at) = fixture();
    let b0 = DlmServer::bind("127.0.0.1:0", backend_state(&world)).unwrap();
    let addr = b0.local_addr().to_string();
    let router = Arc::new(
        RouterState::new(RouterConfig {
            parallelism: Parallelism::Fixed(2),
            connect_timeout: std::time::Duration::from_millis(250),
            ..RouterConfig::new(vec![addr.clone()])
        })
        .unwrap(),
    );
    let front = DlmServer::bind_shared("127.0.0.1:0", Arc::clone(&router)).unwrap();
    let mut routed = LineClient::connect(front.local_addr()).unwrap();

    // Pick an id the unreachable joiner would own, so the (aborted)
    // rebalance really tries — and fails — to move it. Port 1 on
    // loopback refuses the dial immediately.
    const DEAD: &str = "127.0.0.1:1";
    let next_ring =
        HashRing::new(&[addr.clone(), DEAD.to_owned()], HashRing::DEFAULT_REPLICAS).unwrap();
    let id = (0..256)
        .map(|i| format!("abort-{i}"))
        .find(|id| next_ring.route(id) == 1)
        .expect("some id lands on the joiner");

    for line in [
        format!(
            r#"{{"type":"open","cascade":"{id}","initiator":{initiator},"max_hops":{MAX_HOPS},"horizon":{HORIZON},"submit_time":{submit}}}"#
        ),
        format!(r#"{{"type":"ingest","cascade":"{id}","votes":[{votes}],"now":{close_at}}}"#),
    ] {
        let response = Json::parse(&routed.send_raw(&line).unwrap()).unwrap();
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(true),
            "{response}"
        );
    }
    let forecast = format!(
        r#"{{"type":"forecast","cascade":"{id}","hours":[{HORIZON}],"through":{OBSERVE_THROUGH}}}"#
    );
    let before = routed.send_raw(&forecast).unwrap();
    assert!(before.starts_with(r#"{"ok":true"#), "{before}");

    let join = Json::parse(
        &routed
            .send_raw(&format!(r#"{{"type":"join","backend":"{DEAD}"}}"#))
            .unwrap(),
    )
    .unwrap();
    assert_eq!(
        join.get("ok").and_then(Json::as_bool),
        Some(false),
        "{join}"
    );
    assert!(
        join.get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("aborted"),
        "{join}"
    );
    assert_eq!(
        router.ring_version(),
        1,
        "aborted join must not bump the epoch"
    );
    assert_eq!(router.backend_addrs(), vec![addr]);

    let after = routed.send_raw(&forecast).unwrap();
    assert_eq!(after, before, "aborted join lost or changed cascade state");

    drop(front);
    drop(b0);
}

#[test]
fn partial_writes_are_surfaced_as_degraded() {
    // With `data_replicas: 2` and one owner dead, a write that lands on
    // the surviving owner must not come back as a clean success: the
    // replicas have diverged, and the response says so.
    let (world, submit, initiator, votes, close_at) = fixture();
    let b0 = DlmServer::bind("127.0.0.1:0", backend_state(&world)).unwrap();
    let mut b1 = DlmServer::bind("127.0.0.1:0", backend_state(&world)).unwrap();
    let addrs = vec![b0.local_addr().to_string(), b1.local_addr().to_string()];
    let router = Arc::new(
        RouterState::new(RouterConfig {
            parallelism: Parallelism::Fixed(2),
            data_replicas: 2,
            connect_timeout: std::time::Duration::from_millis(250),
            ..RouterConfig::new(addrs.clone())
        })
        .unwrap(),
    );
    let front = DlmServer::bind_shared("127.0.0.1:0", Arc::clone(&router)).unwrap();
    let mut routed = LineClient::connect(front.local_addr()).unwrap();

    let open = format!(
        r#"{{"type":"open","cascade":"pw","initiator":{initiator},"max_hops":{MAX_HOPS},"horizon":{HORIZON},"submit_time":{submit}}}"#
    );
    let opened = Json::parse(&routed.send_raw(&open).unwrap()).unwrap();
    assert_eq!(opened.get("ok").and_then(Json::as_bool), Some(true));
    assert!(
        opened.get("degraded").is_none(),
        "healthy write must not be degraded: {opened}"
    );

    b1.shutdown();
    drop(b1);
    let ingest =
        format!(r#"{{"type":"ingest","cascade":"pw","votes":[{votes}],"now":{close_at}}}"#);
    let response = Json::parse(&routed.send_raw(&ingest).unwrap()).unwrap();
    assert_eq!(
        response.get("ok").and_then(Json::as_bool),
        Some(true),
        "the surviving owner applied the write: {response}"
    );
    assert_eq!(
        response.get("degraded").and_then(Json::as_bool),
        Some(true),
        "partial write must be flagged: {response}"
    );
    let missed = response
        .get("missed_backends")
        .and_then(Json::as_array)
        .expect("missed_backends");
    assert_eq!(
        missed.iter().filter_map(Json::as_str).collect::<Vec<_>>(),
        vec![addrs[1].as_str()],
        "{response}"
    );

    // The applied replica still serves the written state.
    let forecast = format!(
        r#"{{"type":"forecast","cascade":"pw","hours":[{HORIZON}],"through":{OBSERVE_THROUGH}}}"#
    );
    let served = Json::parse(&routed.send_raw(&forecast).unwrap()).unwrap();
    assert_eq!(served.get("ok").and_then(Json::as_bool), Some(true));

    drop(front);
    drop(b0);
}

#[test]
fn reads_fail_over_past_application_level_rejections() {
    // A replica that missed a write answers `unknown cascade` with a
    // healthy transport; the router must try the next owner instead of
    // relaying that rejection while a surviving owner holds the
    // cascade.
    let (world, submit, initiator, votes, close_at) = fixture();
    let b0 = DlmServer::bind("127.0.0.1:0", backend_state(&world)).unwrap();
    let b1 = DlmServer::bind("127.0.0.1:0", backend_state(&world)).unwrap();
    let addrs = vec![b0.local_addr().to_string(), b1.local_addr().to_string()];
    let router = Arc::new(
        RouterState::new(RouterConfig {
            parallelism: Parallelism::Fixed(2),
            data_replicas: 2,
            ..RouterConfig::new(addrs)
        })
        .unwrap(),
    );
    let front = DlmServer::bind_shared("127.0.0.1:0", Arc::clone(&router)).unwrap();
    let mut routed = LineClient::connect(front.local_addr()).unwrap();

    // Install the cascade ONLY on the secondary owner (directly, past
    // the router) — the primary answering `unknown cascade` is exactly
    // the missed-write / not-yet-re-replicated shape.
    let id = "failover-0";
    let labels = router.backend_addrs();
    let primary = labels[router.shard_of(id)].clone();
    let secondary = labels
        .into_iter()
        .find(|l| *l != primary)
        .expect("two owners");
    let mut direct = LineClient::connect(secondary.as_str()).unwrap();
    for line in [
        format!(
            r#"{{"type":"open","cascade":"{id}","initiator":{initiator},"max_hops":{MAX_HOPS},"horizon":{HORIZON},"submit_time":{submit}}}"#
        ),
        format!(r#"{{"type":"ingest","cascade":"{id}","votes":[{votes}],"now":{close_at}}}"#),
    ] {
        let response = Json::parse(&direct.send_raw(&line).unwrap()).unwrap();
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(true),
            "{response}"
        );
    }
    let forecast = format!(
        r#"{{"type":"forecast","cascade":"{id}","hours":[{HORIZON}],"through":{OBSERVE_THROUGH}}}"#
    );
    let via_secondary = direct.send_raw(&forecast).unwrap();
    let via_router = routed.send_raw(&forecast).unwrap();
    assert_eq!(
        via_router, via_secondary,
        "router must fail over past the primary's rejection"
    );
    assert!(via_router.starts_with(r#"{"ok":true"#), "{via_router}");

    // When EVERY owner rejects, the first rejection is relayed verbatim
    // — the same bytes a direct server would send, no `backend` field.
    let missing = Json::parse(
        &routed
            .send_raw(r#"{"type":"forecast","cascade":"nobody","hours":[2]}"#)
            .unwrap(),
    )
    .unwrap();
    assert_eq!(missing.get("ok").and_then(Json::as_bool), Some(false));
    assert!(
        missing
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("unknown cascade"),
        "{missing}"
    );
    assert!(
        missing.get("backend").is_none(),
        "an all-owner rejection is relayed, not synthesized: {missing}"
    );

    drop(front);
    drop(b0);
    drop(b1);
}

#[test]
fn admin_verbs_validate_membership_transitions() {
    // No live backends needed: these all fail in the membership state
    // machine (or the parser) before any handoff traffic.
    let router = RouterState::new(RouterConfig::new(vec![
        "127.0.0.1:9".into(),
        "127.0.0.1:10".into(),
    ]))
    .unwrap();
    for (line, needle) in [
        (r#"{"type":"join"}"#, "missing field `backend`"),
        (
            r#"{"type":"join","backend":"127.0.0.1:9"}"#,
            "already a member",
        ),
        (
            r#"{"type":"drain","backend":"127.0.0.1:99"}"#,
            "is not a member",
        ),
        (
            r#"{"type":"remove","backend":"127.0.0.1:99"}"#,
            "is not a member",
        ),
        (r#"{"type":"restore","snapshot":"00"}"#, "backend-scoped"),
        (r#"{"type":"cascades"}"#, "backend-scoped"),
        (r#"{"type":"evict","cascade":"x"}"#, "backend-scoped"),
    ] {
        let response = Json::parse(&router.handle_line(line)).unwrap();
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(false),
            "{line}"
        );
        let message = response.get("error").and_then(Json::as_str).unwrap();
        assert!(message.contains(needle), "`{line}` -> `{message}`");
    }
    // Rejected transitions must not bump the epoch.
    assert_eq!(router.ring_version(), 1);

    // Draining everything is refused: the last active node has nowhere
    // to send its cascades.
    let drained =
        Json::parse(&router.handle_line(r#"{"type":"drain","backend":"127.0.0.1:9"}"#)).unwrap();
    assert_eq!(
        drained.get("ok").and_then(Json::as_bool),
        Some(true),
        "{drained}"
    );
    let last =
        Json::parse(&router.handle_line(r#"{"type":"drain","backend":"127.0.0.1:10"}"#)).unwrap();
    assert_eq!(last.get("ok").and_then(Json::as_bool), Some(false));
    assert!(
        last.get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("last active"),
        "{last}"
    );
}

#[test]
fn dials_are_bounded_by_the_connect_timeout() {
    // A shard whose backend never answers the dial must come back as a
    // router-originated error in bounded time, not pin the handler
    // thread for the OS connect timeout (minutes). 192.0.2.1 is
    // TEST-NET-1 (RFC 5737): never routable, so the dial either fails
    // immediately (network unreachable) or blackholes until the
    // configured timeout fires — both well under the generous bound
    // asserted here, neither anywhere near the OS default.
    let state = RouterState::new(RouterConfig {
        connect_timeout: std::time::Duration::from_millis(250),
        ..RouterConfig::new(vec!["192.0.2.1:7878".into()])
    })
    .expect("router state");
    let start = std::time::Instant::now();
    let response =
        Json::parse(&state.handle_line(r#"{"type":"forecast","cascade":"c1","hours":[2]}"#))
            .expect("response json");
    let elapsed = start.elapsed();
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        response.get("backend").and_then(Json::as_str),
        Some("192.0.2.1:7878")
    );
    assert!(
        elapsed < std::time::Duration::from_secs(10),
        "dead dial took {elapsed:?}; connect timeout did not bound it"
    );
}

#[test]
fn merged_metrics_are_the_bucket_wise_sum_of_backend_snapshots() {
    // The router's `metrics` scatter-gather returns three disjoint
    // series groups: the unlabeled cluster aggregate, each backend's
    // snapshot tagged `backend=addr`, and the router's own series
    // tagged `tier=router`. The PR's acceptance gate: the aggregate is
    // bit-for-bit the bucket-wise sum of the embedded backend
    // snapshots, and the deterministic counters match the traffic sent.
    use dlm_obs::MetricsSnapshot;
    use dlm_serve::snapshot_from_json;

    let (world, submit, initiator, votes, close_at) = fixture();
    let b0 = DlmServer::bind("127.0.0.1:0", backend_state(&world)).unwrap();
    let b1 = DlmServer::bind("127.0.0.1:0", backend_state(&world)).unwrap();
    let addrs = vec![b0.local_addr().to_string(), b1.local_addr().to_string()];
    let router = Arc::new(
        RouterState::new(RouterConfig {
            parallelism: Parallelism::Fixed(2),
            ..RouterConfig::new(addrs.clone())
        })
        .unwrap(),
    );
    let front = DlmServer::bind_shared("127.0.0.1:0", Arc::clone(&router)).unwrap();
    let mut routed = LineClient::connect(front.local_addr()).unwrap();

    // Cascades on both shards, so both backends carry real counts.
    let mut ids: Vec<String> = Vec::new();
    let mut per_shard = [0usize; 2];
    for i in 0..64 {
        let id = format!("obs-{i}");
        let shard = router.shard_of(&id);
        if per_shard[shard] < 2 {
            per_shard[shard] += 1;
            ids.push(id);
        }
        if ids.len() == 4 {
            break;
        }
    }
    assert_eq!(per_shard, [2, 2], "both shards must own cascades");
    for id in &ids {
        for line in [
            format!(
                r#"{{"type":"open","cascade":"{id}","initiator":{initiator},"max_hops":{MAX_HOPS},"horizon":{HORIZON},"submit_time":{submit}}}"#
            ),
            format!(r#"{{"type":"ingest","cascade":"{id}","votes":[{votes}],"now":{close_at}}}"#),
            format!(
                r#"{{"type":"forecast","cascade":"{id}","hours":[{HORIZON}],"through":{OBSERVE_THROUGH}}}"#
            ),
        ] {
            let response = Json::parse(&routed.send_raw(&line).unwrap()).unwrap();
            assert_eq!(
                response.get("ok").and_then(Json::as_bool),
                Some(true),
                "{response}"
            );
        }
    }

    let scrape = Json::parse(&routed.send_raw(r#"{"type":"metrics"}"#).unwrap()).unwrap();
    assert_eq!(scrape.get("ok").and_then(Json::as_bool), Some(true));
    assert!(
        scrape.get("backends_unreachable").is_none(),
        "every backend was reachable: {scrape}"
    );
    let exposition = scrape.get("exposition").unwrap().as_str().unwrap();
    assert!(exposition.contains("# TYPE dlm_requests_total counter"));
    assert!(exposition.contains("# TYPE dlm_router_requests_total counter"));
    let merged = snapshot_from_json(scrape.get("snapshot").unwrap()).unwrap();

    // Rebuild the sum from the backend-tagged copies in the same
    // response and compare it to the unlabeled aggregate bit-for-bit
    // (counters add, histogram buckets add element-wise via `merge`).
    let tagged = |labels: &[(String, String)], key: &str| labels.iter().any(|(k, _)| k == key);
    let mut summed = MetricsSnapshot::default();
    for addr in &addrs {
        let backend_series: Vec<_> = merged
            .series
            .iter()
            .filter(|s| {
                !tagged(&s.labels, "tier")
                    && s.labels.iter().any(|(k, v)| k == "backend" && v == addr)
            })
            .cloned()
            .map(|mut s| {
                s.labels.retain(|(k, _)| k != "backend");
                s
            })
            .collect();
        assert!(
            !backend_series.is_empty(),
            "backend {addr} snapshot missing from the merge"
        );
        summed.merge(&MetricsSnapshot {
            series: backend_series,
        });
    }
    let aggregate = MetricsSnapshot {
        series: merged
            .series
            .iter()
            .filter(|s| !tagged(&s.labels, "backend") && !tagged(&s.labels, "tier"))
            .cloned()
            .collect(),
    };
    assert!(!aggregate.series.is_empty(), "aggregate group missing");
    assert_eq!(
        aggregate, summed,
        "aggregate is not the bucket-wise sum of the backend snapshots"
    );

    // Deterministic cluster totals: one open/ingest/forecast per
    // cascade, one startup ring push per backend, zero errors. The
    // fan-out scrape itself counts only after its own snapshot.
    for (verb, n) in [
        ("open", 4),
        ("ingest", 4),
        ("forecast", 4),
        ("ring", 2),
        ("metrics", 0),
        ("invalid", 0),
    ] {
        assert_eq!(
            aggregate.counter("dlm_requests_total", &[("verb", verb)]),
            Some(n),
            "cluster dlm_requests_total verb={verb}"
        );
        assert_eq!(
            aggregate.counter("dlm_request_errors_total", &[("verb", verb)]),
            Some(0),
            "cluster dlm_request_errors_total verb={verb}"
        );
    }
    // The router's own tier counts the same client traffic once.
    for (verb, n) in [("open", 4), ("ingest", 4), ("forecast", 4), ("metrics", 0)] {
        assert_eq!(
            merged.counter(
                "dlm_router_requests_total",
                &[("verb", verb), ("tier", "router")]
            ),
            Some(n),
            "router dlm_router_requests_total verb={verb}"
        );
    }
    for addr in &addrs {
        let routed_to = merged
            .counter(
                "dlm_router_backend_requests_total",
                &[("backend", addr), ("tier", "router")],
            )
            .unwrap_or_else(|| panic!("missing backend counter for {addr}"));
        assert!(routed_to > 0, "backend {addr} should have received traffic");
    }

    drop(front);
    drop(b0);
    drop(b1);
}

#[test]
fn stats_flag_ring_skew_when_a_backend_disagrees() {
    // A backend whose ring version diverges from the router's committed
    // epoch is routing-inconsistent; the scatter-gather `stats` must
    // surface that as `"ring_skew":true` — and only then.
    let world = SyntheticWorld::generate(WorldConfig::default().scaled(0.1)).unwrap();
    let b0 = DlmServer::bind("127.0.0.1:0", backend_state(&world)).unwrap();
    let b1 = DlmServer::bind("127.0.0.1:0", backend_state(&world)).unwrap();
    let addrs = vec![b0.local_addr().to_string(), b1.local_addr().to_string()];
    let router = Arc::new(
        RouterState::new(RouterConfig {
            parallelism: Parallelism::Fixed(2),
            ..RouterConfig::new(addrs.clone())
        })
        .unwrap(),
    );
    let front = DlmServer::bind_shared("127.0.0.1:0", Arc::clone(&router)).unwrap();
    let mut routed = LineClient::connect(front.local_addr()).unwrap();

    // Healthy cluster: the startup push aligned every backend with
    // epoch 1, so the field is absent entirely.
    let healthy = Json::parse(&routed.send_raw(r#"{"type":"stats"}"#).unwrap()).unwrap();
    assert_eq!(healthy.get("ok").and_then(Json::as_bool), Some(true));
    assert!(
        healthy.get("ring_skew").is_none(),
        "aligned backends must not report skew: {healthy}"
    );

    // Push a rogue epoch directly to one backend, behind the router's
    // back — the missed-update / split-brain shape.
    let mut direct = LineClient::connect(addrs[0].as_str()).unwrap();
    let rogue = Json::parse(&direct.send_raw(r#"{"type":"ring","version":99}"#).unwrap()).unwrap();
    assert_eq!(rogue.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(rogue.get("ring_version").and_then(Json::as_u64), Some(99));

    let skewed = Json::parse(&routed.send_raw(r#"{"type":"stats"}"#).unwrap()).unwrap();
    assert_eq!(skewed.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        skewed.get("ring_skew").and_then(Json::as_bool),
        Some(true),
        "diverged backend must flag skew: {skewed}"
    );
    // The embedded per-backend stats carry the rogue epoch for triage.
    let backends = skewed.get("backends").and_then(Json::as_array).unwrap();
    let reported: Vec<Option<u64>> = backends
        .iter()
        .map(|b| {
            b.get("stats")
                .and_then(|s| s.get("ring_version"))
                .and_then(Json::as_u64)
        })
        .collect();
    assert_eq!(reported, vec![Some(99), Some(1)], "{skewed}");

    // Re-aligning the backend clears the flag.
    let healed_push =
        Json::parse(&direct.send_raw(r#"{"type":"ring","version":1}"#).unwrap()).unwrap();
    assert_eq!(healed_push.get("ok").and_then(Json::as_bool), Some(true));
    let healed = Json::parse(&routed.send_raw(r#"{"type":"stats"}"#).unwrap()).unwrap();
    assert!(
        healed.get("ring_skew").is_none(),
        "re-aligned backend must clear the flag: {healed}"
    );

    drop(front);
    drop(b0);
    drop(b1);
}

#[test]
fn router_front_end_rejects_what_it_cannot_route() {
    // No live backends needed: these requests fail before any dial.
    let router = RouterState::new(RouterConfig::new(vec!["127.0.0.1:9".into()])).unwrap();
    for (line, needle) in [
        ("not json", "protocol error"),
        (r#"{"cascade":"x"}"#, "missing field `type`"),
        (r#"{"type":"warp"}"#, "unknown request type"),
        (
            r#"{"type":"forecast","hours":[2]}"#,
            "missing field `cascade`",
        ),
    ] {
        let response = Json::parse(&router.handle_line(line)).unwrap();
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(false),
            "{line}"
        );
        let message = response.get("error").and_then(Json::as_str).unwrap();
        assert!(message.contains(needle), "`{line}` -> `{message}`");
    }
    // A routable request against a dead backend surfaces the shard.
    let response =
        Json::parse(&router.handle_line(r#"{"type":"ingest","cascade":"x","votes":[]}"#)).unwrap();
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        response.get("backend").and_then(Json::as_str),
        Some("127.0.0.1:9")
    );
}

#[test]
fn admin_verbs_racing_the_data_path_keep_responses_whole() {
    // `join` / `drain` / `rejoin` run while readers and writers soak
    // the data path from their own connections. The contract under the
    // race: every data-path response is a whole, parseable line that
    // matches the direct mirror byte for byte (no torn responses, no
    // transient errors), and the ring version observed through `stats`
    // never regresses.
    let (world, submit, initiator, votes, close_at) = fixture();
    let backends: Vec<_> = (0..4)
        .map(|_| DlmServer::bind("127.0.0.1:0", backend_state(&world)).unwrap())
        .collect();
    let direct = DlmServer::bind("127.0.0.1:0", backend_state(&world)).unwrap();
    let addrs: Vec<String> = backends
        .iter()
        .map(|b| b.local_addr().to_string())
        .collect();
    // The fourth backend starts outside the cluster; the admin
    // sequence joins and drains it repeatedly while traffic flows.
    let spare = addrs[3].clone();
    let router = Arc::new(
        RouterState::new(RouterConfig {
            parallelism: Parallelism::Fixed(2),
            data_replicas: 2,
            ..RouterConfig::new(addrs[..3].to_vec())
        })
        .unwrap(),
    );
    let front = DlmServer::bind_shared("127.0.0.1:0", Arc::clone(&router)).unwrap();

    // Seed a read-only working set and record its expected bytes.
    let mut seeding = LineClient::connect(front.local_addr()).unwrap();
    let mut mirror = LineClient::connect(direct.local_addr()).unwrap();
    let mut frozen: Vec<(String, String)> = Vec::new();
    for i in 0..12 {
        let id = format!("race-{i}");
        for line in [
            format!(
                r#"{{"type":"open","cascade":"{id}","initiator":{initiator},"max_hops":{MAX_HOPS},"horizon":{HORIZON},"submit_time":{submit}}}"#
            ),
            format!(r#"{{"type":"ingest","cascade":"{id}","votes":[{votes}],"now":{close_at}}}"#),
        ] {
            assert_eq!(
                seeding.send_raw(&line).unwrap(),
                mirror.send_raw(&line).unwrap(),
                "seeding diverged on `{line}`"
            );
        }
        let forecast = format!(
            r#"{{"type":"forecast","cascade":"{id}","hours":[{HORIZON}],"through":{OBSERVE_THROUGH}}}"#
        );
        let expected = mirror.send_raw(&forecast).unwrap();
        assert_eq!(seeding.send_raw(&forecast).unwrap(), expected);
        frozen.push((forecast, expected));
    }

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let front_addr = front.local_addr();
    let reader = {
        let stop = Arc::clone(&stop);
        let frozen = frozen.clone();
        std::thread::spawn(move || {
            let mut client = LineClient::connect(front_addr).unwrap();
            let mut served = 0u64;
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                for (line, expected) in &frozen {
                    let got = client.send_raw(line).expect("read during admin verb");
                    assert_eq!(&got, expected, "torn or diverged read: `{line}`");
                    served += 1;
                }
            }
            served
        })
    };
    let writer = {
        let stop = Arc::clone(&stop);
        let direct_addr = direct.local_addr();
        let votes = votes.clone();
        std::thread::spawn(move || {
            let mut routed = LineClient::connect(front_addr).unwrap();
            let mut mirror = LineClient::connect(direct_addr).unwrap();
            let mut written = 0u64;
            for i in 0.. {
                if stop.load(std::sync::atomic::Ordering::SeqCst) {
                    break;
                }
                let id = format!("race-w{i}");
                for line in [
                    format!(
                        r#"{{"type":"open","cascade":"{id}","initiator":{initiator},"max_hops":{MAX_HOPS},"horizon":{HORIZON},"submit_time":{submit}}}"#
                    ),
                    format!(
                        r#"{{"type":"ingest","cascade":"{id}","votes":[{votes}],"now":{close_at}}}"#
                    ),
                ] {
                    let via_router = routed.send_raw(&line).expect("write during admin verb");
                    let via_mirror = mirror.send_raw(&line).unwrap();
                    assert_eq!(
                        via_router, via_mirror,
                        "torn or degraded write under race: `{line}`"
                    );
                    written += 1;
                }
            }
            written
        })
    };
    let versions = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut client = LineClient::connect(front_addr).unwrap();
            let mut last = 0u64;
            let mut polls = 0u64;
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                let stats = Json::parse(&client.send_raw(r#"{"type":"stats"}"#).unwrap()).unwrap();
                let version = u(stats.get("router").expect("router stats"), "ring_version");
                assert!(
                    version >= last,
                    "ring version regressed mid-race: {last} -> {version}"
                );
                last = version;
                polls += 1;
            }
            polls
        })
    };

    // The admin storm, from the main connection: a member rejoin
    // (anti-entropy sweep, no bump), two join/drain cycles of the
    // spare — one of them via the `rejoin` spelling a restarted
    // non-member announces with — each an incremental, chunked
    // rebalance racing the threads above.
    let mut admin = LineClient::connect(front.local_addr()).unwrap();
    let sequence: [(String, u64); 5] = [
        (
            format!(r#"{{"type":"rejoin","backend":"{}"}}"#, addrs[0]),
            1,
        ),
        (format!(r#"{{"type":"join","backend":"{spare}"}}"#), 2),
        (format!(r#"{{"type":"drain","backend":"{spare}"}}"#), 3),
        (format!(r#"{{"type":"rejoin","backend":"{spare}"}}"#), 4),
        (format!(r#"{{"type":"drain","backend":"{spare}"}}"#), 5),
    ];
    for (line, want_version) in &sequence {
        let response = Json::parse(&admin.send_raw(line).unwrap()).unwrap();
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(true),
            "`{line}` -> {response}"
        );
        assert_eq!(u(&response, "failed"), 0, "{response}");
        assert_eq!(
            u(&response, "ring_version"),
            *want_version,
            "wrong epoch after `{line}`: {response}"
        );
    }

    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let served = reader.join().expect("reader thread");
    let written = writer.join().expect("writer thread");
    let polls = versions.join().expect("version monitor thread");
    assert!(served > 0, "reader never completed a request");
    assert!(written > 0, "writer never completed a request");
    assert!(polls > 0, "version monitor never polled");

    // After the storm: the frozen set still serves the recorded bytes
    // and the ring settled where the sequence left it.
    for (line, expected) in &frozen {
        assert_eq!(
            &seeding.send_raw(line).unwrap(),
            expected,
            "post-race read diverged: `{line}`"
        );
    }
    assert_eq!(router.ring_version(), 5);
    drop(front);
    drop(backends);
}
