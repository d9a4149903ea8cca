//! Tier-1 gate for the Digg CSV replay path the scenario soak drives:
//! the synthetic fixture written to the real on-disk CSV format and
//! re-read through the loader must be the same dataset, and streaming
//! each story's votes through [`dlm::serve::LiveCascade`] must produce
//! density matrices bit-identical to the batch
//! [`dlm::cascade::hops::hop_density_matrix`] builder at every closed
//! hour boundary — the invariant the `--digg-dir` soak's
//! served-vs-offline gate rests on.

use dlm::cascade::hops::hop_density_matrix;
use dlm::data::{Cascade, DiggDataset, Vote};
use dlm::scenarios::{digg_fixture, DiggFixtureConfig, SCENARIO_MAX_HOPS};
use dlm::serve::LiveCascade;
use std::fs::File;
use std::path::PathBuf;

const HORIZON: u32 = 8;

/// Writes the fixture through the CSV writers into a scratch directory
/// and reads it back through the file-based loader path — the exact
/// bytes-on-disk round trip `serve_load`'s `digg` run performs.
fn fixture_through_disk() -> (DiggDataset, DiggDataset) {
    let dataset = digg_fixture(&DiggFixtureConfig::default()).expect("fixture generates");
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "dlm-digg-replay-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let votes_path = dir.join("digg_votes.csv");
    let friends_path = dir.join("digg_friends.csv");
    dataset
        .write_votes_csv(&mut File::create(&votes_path).expect("create votes csv"))
        .expect("write votes csv");
    dataset
        .write_friends_csv(&mut File::create(&friends_path).expect("create friends csv"))
        .expect("write friends csv");
    let reread = DiggDataset::read_csv(
        File::open(&votes_path).expect("open votes csv"),
        File::open(&friends_path).expect("open friends csv"),
    )
    .expect("loader parses its own output");
    let _ = std::fs::remove_dir_all(&dir);
    (dataset, reread)
}

#[test]
fn fixture_survives_the_on_disk_csv_round_trip() {
    let (dataset, reread) = fixture_through_disk();
    assert_eq!(dataset, reread, "CSV writers and loader disagree");
    assert_eq!(reread.story_ids().len(), 6);
}

#[test]
fn live_ingest_matches_batch_builder_at_every_hour_boundary() {
    let (_, dataset) = fixture_through_disk();
    let graph = dataset.follower_graph();
    let mut hours_checked = 0usize;

    for story in dataset.story_ids() {
        let votes = dataset.story_votes(story);
        let initiator = dataset.initiator(story).expect("story has votes");
        let submit = votes[0].timestamp;

        // Streaming twin: one ingest per vote, in log order. The loader
        // hands votes back timestamp-sorted, so no vote is ever late.
        let mut live = LiveCascade::for_hops(&graph, initiator, SCENARIO_MAX_HOPS, submit, HORIZON)
            .expect("initiator reaches the graph");
        for vote in &votes {
            live.ingest(*vote)
                .unwrap_or_else(|e| panic!("story {story}: sorted replay rejected a vote: {e}"));
        }
        live.advance_to(submit + u64::from(HORIZON) * 3600);
        assert_eq!(live.closed_hours(), HORIZON);
        assert!(live.counted_votes() > 0, "story {story} counted nothing");

        // Batch twin: the offline pipeline on the same votes.
        let batch_votes: Vec<Vote> = votes.clone();
        let cascade = Cascade::from_parts(story, initiator, submit, batch_votes)
            .expect("loader votes start at submission");

        for hour in 1..=HORIZON {
            let streamed = live.matrix_through(hour).expect("hour is closed");
            let batch = hop_density_matrix(&graph, &cascade, SCENARIO_MAX_HOPS, hour)
                .expect("batch builder");
            assert_eq!(streamed.max_distance(), batch.max_distance());
            assert_eq!(streamed.max_hour(), batch.max_hour());
            for d in 1..=streamed.max_distance() {
                for h in 1..=hour {
                    let s = streamed.at(d, h).expect("streamed cell");
                    let b = batch.at(d, h).expect("batch cell");
                    assert_eq!(
                        s.to_bits(),
                        b.to_bits(),
                        "story {story} d={d} h={h}: streamed {s} != batch {b}"
                    );
                }
            }
            hours_checked += 1;
        }
    }
    assert_eq!(hours_checked, 6 * HORIZON as usize);
}
