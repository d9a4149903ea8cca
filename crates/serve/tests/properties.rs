//! Properties of the serving core's pure parts:
//!
//! 1. For random vote streams on random graphs, the streaming
//!    [`LiveCascade`]'s rolling density matrix is bit-identical to the
//!    batch [`hop_density_matrix`] built on the same prefix, at every
//!    hour boundary.
//! 2. The decoders that face the network — [`Json::parse`],
//!    [`wire::try_extract_frame`] and [`wire::payload_to_line`] — never
//!    panic on arbitrary bytes, and any JSON that parses re-parses
//!    equal from its own `to_string()`.

use dlm_cascade::hops::hop_density_matrix;
use dlm_cascade::DensityMatrix;
use dlm_data::simulate::{Cascade, SIMULATED_SUBMIT_TIME};
use dlm_data::Vote;
use dlm_graph::GraphBuilder;
use dlm_serve::{wire, Json, LiveCascade};
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

/// Random votes: (seconds offset into the horizon + a beyond-horizon
/// tail, voter). Some voters are deliberately out of range of every hop
/// group and some offsets beyond the horizon, because the batch builder
/// ignores both and the live one must too.
fn votes_strategy() -> impl Strategy<Value = Vec<(u64, usize)>> {
    prop::collection::vec((0u64..u64::from(HORIZON + 2) * 3600, 0usize..40), 0..60)
}

/// Arbitrary bytes, up to `max` of them.
fn bytes_strategy(max: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u32..256, 0..max).prop_map(|v| v.into_iter().map(|b| b as u8).collect())
}

/// Fragments JSON text is made of, so that random sequences of them
/// parse often enough to exercise the round trip and fail in every
/// interesting way otherwise.
const JSON_PIECES: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    " ",
    "\"",
    "\"k\"",
    "\"\\n\\u00e9\\ud83d\\ude00\"",
    "\\",
    "\"\\ud800\"",
    "null",
    "true",
    "false",
    "0",
    "-1",
    "2.5e-3",
    "1e308",
    "1e999",
    "-0",
    "12345678901234567890",
    ".",
    "e",
    "+",
    "\u{0}",
    "\n",
    "☂",
    "\"\u{1}\"",
    "\u{feff}",
];

fn bits(matrix: &DensityMatrix) -> Vec<u64> {
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
    fn rolling_matrix_matches_batch_at_every_hour_boundary(
        graph in graph_strategy(),
        raw_votes in votes_strategy(),
        max_hops in 1u32..6,
    ) {
        let submit = SIMULATED_SUBMIT_TIME;
        let mut votes: Vec<Vote> = raw_votes
            .iter()
            .map(|&(offset, voter)| Vote {
                timestamp: submit + offset,
                voter,
                story: 1,
            })
            .collect();
        votes.sort_unstable();

        // The live side consumes the stream one event at a time.
        let mut live = match LiveCascade::for_hops(&graph, 0, max_hops, submit, HORIZON) {
            Ok(live) => live,
            // Initiator reaching nobody is rejected identically by the
            // batch path; nothing further to compare.
            Err(_) => {
                prop_assert!(hop_density_matrix(
                    &graph,
                    &Cascade::from_parts(1, 0, submit, votes).unwrap(),
                    max_hops,
                    HORIZON,
                )
                .is_err());
                return Ok(());
            }
        };
        for vote in &votes {
            live.ingest(*vote).unwrap();
        }
        live.advance_to(submit + u64::from(HORIZON) * 3600);
        prop_assert_eq!(live.closed_hours(), HORIZON);

        // The batch side sees the whole stream at once; truncating its
        // span to `k` hours is exactly "the same prefix", because votes
        // beyond hour `k` never enter the first `k` columns.
        let cascade = Cascade::from_parts(1, 0, submit, votes).unwrap();
        for k in 1..=HORIZON {
            let batch = hop_density_matrix(&graph, &cascade, max_hops, k).unwrap();
            let rolling = live.matrix_through(k).unwrap();
            prop_assert_eq!(rolling.max_distance(), batch.max_distance());
            prop_assert_eq!(rolling.max_hour(), batch.max_hour());
            prop_assert_eq!(
                bits(&rolling),
                bits(&batch),
                "bit divergence at hour boundary {}",
                k
            );
            for d in 1..=batch.max_distance() {
                prop_assert_eq!(
                    rolling.group_size(d).unwrap(),
                    batch.group_size(d).unwrap()
                );
            }
        }
    }

    #[test]
    fn interleaved_advance_does_not_change_the_matrix(
        graph in graph_strategy(),
        raw_votes in votes_strategy(),
    ) {
        let submit = SIMULATED_SUBMIT_TIME;
        let mut votes: Vec<Vote> = raw_votes
            .iter()
            .map(|&(offset, voter)| Vote {
                timestamp: submit + offset,
                voter,
                story: 1,
            })
            .collect();
        votes.sort_unstable();
        let Ok(mut eager) = LiveCascade::for_hops(&graph, 0, 4, submit, HORIZON) else {
            return Ok(());
        };
        let mut lazy = eager.clone();
        // One stream advances the clock after every event, the other
        // only at the end — closed hours may differ mid-stream, but the
        // final matrices must not.
        for vote in &votes {
            eager.ingest(*vote).unwrap();
            eager.advance_to(vote.timestamp);
            lazy.ingest(*vote).unwrap();
        }
        let end = submit + u64::from(HORIZON) * 3600;
        eager.advance_to(end);
        lazy.advance_to(end);
        prop_assert_eq!(eager.closed_hours(), lazy.closed_hours());
        let a = eager.matrix().unwrap();
        let b = lazy.matrix().unwrap();
        prop_assert_eq!(bits(&a), bits(&b));
    }
}

proptest! {
    // The decoders are cheap; many more cases than the cascade
    // properties above.
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn json_parse_never_panics_and_reparses_its_own_output(
        raw in bytes_strategy(64),
        pieces in prop::collection::vec(0usize..JSON_PIECES.len(), 0..40),
        depth in 0usize..300,
    ) {
        let soup: String = pieces.iter().map(|&i| JSON_PIECES[i]).collect();
        let nested = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        for text in [String::from_utf8_lossy(&raw).into_owned(), soup, nested] {
            if let Ok(value) = Json::parse(&text) {
                let printed = value.to_string();
                prop_assert_eq!(Json::parse(&printed), Ok(value), "{} printed as {}", text, printed);
            }
        }
    }

    #[test]
    fn frame_decoders_never_panic_on_arbitrary_bytes(
        raw in bytes_strategy(64),
        declared in 0u32..80,
        tag in 0u32..3,
        flip in (0usize..64, 0u32..256),
        votes in prop::collection::vec((any::<u64>(), 0usize..1 << 20), 0..4),
        now in any::<u64>(),
    ) {
        // A plausible header over arbitrary bytes, and arbitrary bytes
        // alone (whose header mostly declares an oversized frame).
        let mut framed = declared.to_le_bytes().to_vec();
        framed.extend_from_slice(&raw);
        for buf in [&raw, &framed] {
            if let Ok(Some((payload, consumed))) = wire::try_extract_frame(buf) {
                prop_assert!(payload.end == consumed && consumed <= buf.len());
                let _ = wire::payload_to_line(&buf[payload]);
            }
        }

        // Arbitrary payloads under every tag, and a well-formed binary
        // ingest with one byte overwritten.
        let mut tagged = vec![tag as u8];
        tagged.extend_from_slice(&raw);
        if let Ok(line) = wire::payload_to_line(&tagged) {
            if tag == u32::from(wire::TAG_JSON) {
                prop_assert_eq!(line.as_bytes(), &raw[..]);
            }
        }
        let mut ingest = wire::encode_ingest_payload("c☂", &votes, (now & 1 == 1).then_some(now));
        let (at, byte) = flip;
        let at = at % ingest.len();
        ingest[at] = byte as u8;
        let _ = wire::payload_to_line(&ingest);
    }
}
