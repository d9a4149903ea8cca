//! Integration tests for the beyond-the-paper extensions: the
//! variable-coefficient model, vote timelines, density
//! confidence intervals, and connectivity validation — all running on the
//! same simulated cascades as the headline experiments.

use dlm::cascade::confidence::density_intervals;
use dlm::cascade::hops::hop_density_matrix;
use dlm::cascade::timeline::VoteTimeline;
use dlm::cascade::ObservationSplit;
use dlm::core::predict::{
    DiffusionPredictor, FitConfig, GrowthFamily, Observation, PredictionRequest,
};
use dlm::core::zoo::VariableDlPredictor;
use dlm::data::simulate::simulate_story;
use dlm::data::{SimulationConfig, StoryPreset, SyntheticWorld, WorldConfig};
use dlm::graph::components::{strongly_connected_components, weakly_connected_components};

fn world() -> SyntheticWorld {
    SyntheticWorld::generate(WorldConfig::default().scaled(0.2)).unwrap()
}

#[test]
fn synthetic_world_is_one_giant_weak_component() {
    let w = world();
    let wcc = weakly_connected_components(w.graph());
    assert!(
        wcc.giant_fraction() > 0.99,
        "follower graph fragmented: {}",
        wcc.giant_fraction()
    );
    // SCC structure is a refinement of WCC.
    let scc = strongly_connected_components(w.graph());
    assert!(scc.count() >= wcc.count());
}

#[test]
fn variable_model_predicts_simulated_interest_densities() {
    use dlm::cascade::interest_groups::{interest_density_matrix, GroupingStrategy};
    let w = world();
    let cascade = simulate_story(&w, &StoryPreset::s1(), SimulationConfig::default()).unwrap();
    let observed = interest_density_matrix(
        w.profile(),
        w.user_count(),
        &cascade,
        5,
        6,
        GroupingStrategy::EqualWidth,
    )
    .unwrap();
    let split = ObservationSplit::paper_protocol(&observed).unwrap();
    let distances: Vec<u32> = (1..=split.distance_count() as u32).collect();

    // The per-distance refinement through the unified predictor trait:
    // fit calibrates one growth curve per distance group.
    let predictor = VariableDlPredictor::new(
        0.01,
        80.0,
        true,
        FitConfig {
            growth: GrowthFamily::PaperInterest,
            ..FitConfig::default()
        },
    );
    let observation = Observation::from_matrix(&observed, &[1, 2, 3, 4, 5, 6]).unwrap();
    let fitted = predictor.fit(&observation).unwrap();
    let request = PredictionRequest::new(distances.clone(), split.target_hours().to_vec()).unwrap();
    let pred = fitted.predict(&request).unwrap();
    // Per-distance growth must track each group within a generous margin.
    for &d in &distances {
        for &h in split.target_hours() {
            let actual = split.target_at(h).unwrap()[(d - 1) as usize];
            if actual < 1.0 {
                continue; // sparse group noise
            }
            let p = pred.at(d, h).unwrap();
            let rel = (p - actual).abs() / actual;
            // Generous margin: this runs at reduced scale where the far
            // groups hold few voters (the full-scale run lands at ~99%
            // accuracy), and the exact value depends on the RNG stream
            // behind the synthetic world.
            assert!(rel < 0.6, "d={d} h={h}: predicted {p} vs actual {actual}");
        }
    }
}

#[test]
fn vote_timeline_matches_density_saturation() {
    let w = world();
    let cascade = simulate_story(&w, &StoryPreset::s1(), SimulationConfig::default()).unwrap();
    let timeline = VoteTimeline::from_votes(cascade.votes(), cascade.submit_time(), 50).unwrap();
    assert_eq!(timeline.total(), cascade.vote_count());
    // 95% of votes must arrive by the density saturation hour (same signal,
    // two codepaths).
    let observed = hop_density_matrix(w.graph(), &cascade, 5, 50).unwrap();
    let summary = dlm::cascade::PatternSummary::from_matrix(&observed).unwrap();
    let sat = summary.story_saturation_hour().unwrap();
    let mass_hour = timeline.hour_of_mass(0.95).unwrap();
    assert!(
        mass_hour <= sat + 3,
        "timeline 95% at {mass_hour}, density saturation at {sat}"
    );
}

#[test]
fn confidence_intervals_are_tighter_for_larger_groups() {
    let w = world();
    let cascade = simulate_story(&w, &StoryPreset::s1(), SimulationConfig::default()).unwrap();
    let observed = hop_density_matrix(w.graph(), &cascade, 5, 6).unwrap();
    let intervals = density_intervals(&observed).unwrap();
    // Find the largest and smallest groups and compare interval widths at
    // comparable (nonzero) densities.
    let sizes: Vec<usize> = (1..=observed.max_distance())
        .map(|d| observed.group_size(d).unwrap())
        .collect();
    let (big_idx, _) = sizes.iter().enumerate().max_by_key(|&(_, &s)| s).unwrap();
    let (small_idx, _) = sizes.iter().enumerate().min_by_key(|&(_, &s)| s).unwrap();
    if big_idx != small_idx && sizes[big_idx] > 4 * sizes[small_idx] {
        let hw_big = intervals[big_idx].last().unwrap().half_width();
        let hw_small = intervals[small_idx].last().unwrap().half_width();
        assert!(
            hw_small > hw_big,
            "small group (n={}) hw {} !> big group (n={}) hw {}",
            sizes[small_idx],
            hw_small,
            sizes[big_idx],
            hw_big
        );
    }
}
