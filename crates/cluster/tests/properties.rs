//! Properties of the snapshot codec and the snapshot↔[`LiveCascade`]
//! round trip — the determinism contract the drain handoff and the
//! `--snapshot-dir` restart path both lean on (gate D in
//! `docs/ARCHITECTURE.md`).
//!
//! 1. For *arbitrary* vote streams on *arbitrary* graphs, a cascade
//!    restored from its own snapshot is a bit-identical twin: same
//!    density matrix bits, same watermark, same late-vote accounting,
//!    and the same behaviour on the next event.
//! 2. The byte codec round-trips arbitrary snapshot structs exactly and
//!    rejects every single-byte corruption.
//! 3. The body decoder never panics on a mutated snapshot whose
//!    checksum was re-sealed to match, and anything it accepts
//!    re-encodes to exactly the bytes it read.

use dlm_cluster::{hash64, CascadeSnapshot};
use dlm_data::simulate::SIMULATED_SUBMIT_TIME;
use dlm_data::Vote;
use dlm_graph::GraphBuilder;
use dlm_serve::LiveCascade;
use proptest::prelude::*;

const HORIZON: u32 = 6;

/// A random digraph in which node 0 (the initiator) reaches someone.
fn graph_strategy() -> impl Strategy<Value = dlm_graph::DiGraph> {
    (
        6usize..32,
        prop::collection::vec((0usize..32, 0usize..32), 0..80),
    )
        .prop_map(|(n, edges)| {
            let mut builder = GraphBuilder::new(n);
            builder.add_edge(0, 1).expect("n >= 2");
            for (u, v) in edges {
                let (u, v) = (u % n, v % n);
                if u != v {
                    builder.add_edge(u, v).expect("in range");
                }
            }
            builder.build()
        })
}

/// Random votes: (seconds offset, voter), including pre-submit,
/// beyond-horizon, and outside-every-group events — the snapshot must
/// carry the *accounting* of ignored votes too, not just the matrix.
fn votes_strategy() -> impl Strategy<Value = Vec<(i64, usize)>> {
    prop::collection::vec((-3600i64..i64::from(HORIZON + 2) * 3600, 0usize..40), 0..60)
}

fn matrix_bits(live: &LiveCascade) -> Vec<u64> {
    if live.closed_hours() == 0 {
        return Vec::new();
    }
    let matrix = live.matrix().expect("closed hours exist");
    (1..=matrix.max_distance())
        .flat_map(|d| {
            matrix
                .series(d)
                .expect("in range")
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn restored_cascade_is_a_bit_identical_twin(
        graph in graph_strategy(),
        raw_votes in votes_strategy(),
        max_hops in 1u32..6,
        next in (0u64..u64::from(HORIZON + 1) * 3600, 0usize..40),
    ) {
        let submit = SIMULATED_SUBMIT_TIME;
        let mut votes: Vec<Vote> = raw_votes
            .iter()
            .map(|&(offset, voter)| Vote {
                timestamp: submit.saturating_add_signed(offset),
                voter,
                story: 1,
            })
            .collect();
        votes.sort_unstable();

        let Ok(mut live) = LiveCascade::for_hops(&graph, 0, max_hops, submit, HORIZON) else {
            // Initiator reaching nobody: nothing to snapshot.
            return Ok(());
        };
        for vote in &votes {
            live.ingest(*vote).unwrap();
        }

        // Snapshot → bytes → snapshot → cascade, through the same codec
        // the drain handoff streams over the wire.
        let snap = live.to_snapshot("prop-cascade", Some(0));
        let decoded = CascadeSnapshot::decode(&snap.encode()).unwrap();
        prop_assert_eq!(&decoded, &snap);
        let mut twin = LiveCascade::from_snapshot(&decoded).unwrap();

        prop_assert_eq!(twin.closed_hours(), live.closed_hours());
        prop_assert_eq!(twin.counted_votes(), live.counted_votes());
        prop_assert_eq!(twin.ignored_votes(), live.ignored_votes());
        prop_assert_eq!(twin.hour1_voters(), live.hour1_voters());
        prop_assert_eq!(matrix_bits(&twin), matrix_bits(&live));

        // Same next-event behaviour: counted, ignored, and late votes
        // must be classified identically by original and twin.
        let (offset, voter) = next;
        let vote = Vote { timestamp: submit + offset, voter, story: 1 };
        let original_outcome = format!("{:?}", live.ingest(vote));
        let twin_outcome = format!("{:?}", twin.ingest(vote));
        prop_assert_eq!(twin_outcome, original_outcome);
        prop_assert_eq!(twin.closed_hours(), live.closed_hours());
        prop_assert_eq!(matrix_bits(&twin), matrix_bits(&live));
    }

    #[test]
    fn codec_round_trips_arbitrary_snapshots(
        // Non-ASCII id: the codec length-prefixes UTF-8 bytes, not chars.
        id in any::<u64>().prop_map(|n| format!("c☂-{n:x}")),
        initiator in any::<u64>().prop_map(|n| (n & 1 == 1).then_some(n >> 1)),
        submit_time in any::<u64>(),
        horizon in any::<u32>(),
        closed in any::<u32>(),
        counted in any::<u64>(),
        ignored in any::<u64>(),
        sizes in prop::collection::vec(any::<u64>(), 0..6),
        group_of in prop::collection::vec(any::<u32>(), 0..40).prop_map(|v| {
            // Half `None`, half `Some(g)` with g < 2^31 (the encoded
            // sentinel u32::MAX is reserved for `None`).
            v.into_iter()
                .map(|g| (g & 1 == 1).then_some(g >> 1))
                .collect::<Vec<_>>()
        }),
        counts in prop::collection::vec(
            prop::collection::vec(any::<u64>(), 0..8),
            0..6,
        ),
        hour1_voters in prop::collection::vec(any::<u64>(), 0..20),
    ) {
        // The codec is a pure byte layout: it round-trips any struct
        // exactly, consistent or not (consistency is `from_snapshot`'s
        // job, checked separately).
        let snap = CascadeSnapshot {
            id,
            initiator,
            submit_time,
            horizon,
            closed,
            counted,
            ignored,
            sizes,
            group_of,
            counts,
            hour1_voters,
        };
        let bytes = snap.encode();
        prop_assert_eq!(&CascadeSnapshot::decode(&bytes).unwrap(), &snap);
        prop_assert_eq!(
            &CascadeSnapshot::decode_hex(&snap.encode_hex()).unwrap(),
            &snap
        );

        // Every single-byte corruption is caught — by the checksum at
        // worst, by a structural check sooner.
        let index = (submit_time % bytes.len().max(1) as u64) as usize;
        let mut corrupt = bytes.clone();
        corrupt[index] ^= 0x01;
        prop_assert!(CascadeSnapshot::decode(&corrupt).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn resealed_mutations_never_panic_the_decoder(
        counts in prop::collection::vec(prop::collection::vec(0u64..4, 0..4), 0..4),
        group_of in prop::collection::vec(0u32..3, 0..8),
        edits in prop::collection::vec((0usize..1 << 16, 0u32..256, 0u32..4), 1..6),
    ) {
        let snap = CascadeSnapshot {
            id: "c☂".into(),
            initiator: Some(7),
            submit_time: 1_250_000_000,
            horizon: 6,
            closed: 2,
            counted: 9,
            ignored: 1,
            sizes: vec![3, 5],
            group_of: group_of.into_iter().map(|g| g.checked_sub(1)).collect(),
            counts,
            hour1_voters: vec![4, 2],
        };
        let bytes = snap.encode();
        let mut payload = bytes[..bytes.len() - 8].to_vec();
        // Overwrite, insert, or delete a byte, or cut the tail — past the
        // magic, which is checked before the checksum.
        for (at, byte, kind) in edits {
            let at = 4 + at % (payload.len() - 3);
            match kind {
                0 if at < payload.len() => payload[at] = byte as u8,
                1 => payload.insert(at, byte as u8),
                2 if at < payload.len() => {
                    payload.remove(at);
                }
                _ => payload.truncate(at),
            }
        }
        let checksum = hash64(&payload);
        payload.extend_from_slice(&checksum.to_le_bytes());
        if let Ok(decoded) = CascadeSnapshot::decode(&payload) {
            prop_assert_eq!(decoded.encode(), payload);
        }
    }
}
