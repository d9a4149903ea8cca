//! Determinism and never-worse contracts of the multi-start calibration
//! engine.
//!
//! Two gates, mirroring `parallel_determinism.rs` for the evaluation
//! grid:
//!
//! * **Byte identity.** A multi-start calibration — both the direct
//!   `calibrate` path and the full model-zoo lineup run through
//!   `EvaluationPipeline` with multi-start `dl-cal`/`variable-dl`
//!   specs — produces bit-identical results under
//!   `Serial`/`Fixed(2)`/`Auto` scheduling of the starts.
//! * **Never worse.** Because the caller's seed always runs as start 0
//!   and the winner is the minimum over starts, the multi-start
//!   objective is `<=` the single-start objective on every fixture.

use dlm_core::calibrate::{calibrate, CalibrationOptions, MultiStartConfig};
use dlm_core::evaluate::{EvaluationCase, EvaluationPipeline, Parallelism};
use dlm_core::fixtures::{calibration_bits, dl_ground_truth_matrix};
use dlm_core::growth::ExpDecayGrowth;
use dlm_core::params::DlParameters;
use dlm_core::predict::GraphContext;
use dlm_core::registry::ModelSpec;
use dlm_graph::GraphBuilder;
use std::sync::Arc;

fn fixtures() -> Vec<dlm_cascade::DensityMatrix> {
    vec![
        dl_ground_truth_matrix(0.01, &ExpDecayGrowth::new(1.2, 1.3, 0.3), 25.0),
        dl_ground_truth_matrix(0.03, &ExpDecayGrowth::new(1.0, 0.8, 0.2), 25.0),
        dl_ground_truth_matrix(0.005, &ExpDecayGrowth::new(1.6, 1.8, 0.4), 25.0),
    ]
}

#[test]
fn multi_start_calibration_is_bit_identical_across_parallelism_modes() {
    for (i, observed) in fixtures().iter().enumerate() {
        let run_with = |parallelism: Parallelism| {
            calibrate(
                observed,
                1,
                &[2, 3, 4, 5, 6],
                DlParameters::paper_hops(6).unwrap(),
                ExpDecayGrowth::paper_hops(),
                &CalibrationOptions {
                    fit_capacity: true,
                    max_evals: 150,
                    multi_start: MultiStartConfig {
                        starts: 4,
                        seed: 11,
                        parallelism,
                    },
                    ..CalibrationOptions::default()
                },
            )
            .unwrap()
        };
        let serial = calibration_bits(&run_with(Parallelism::Serial));
        for mode in [Parallelism::Fixed(2), Parallelism::Auto] {
            let parallel = calibration_bits(&run_with(mode));
            assert_eq!(
                serial, parallel,
                "fixture {i}: {mode:?} diverged from serial"
            );
        }
    }
}

#[test]
fn multi_start_objective_is_never_worse_than_single_start() {
    for (i, observed) in fixtures().iter().enumerate() {
        let run_with = |multi_start: MultiStartConfig| {
            calibrate(
                observed,
                1,
                &[2, 3, 4],
                DlParameters::paper_hops(6).unwrap(),
                ExpDecayGrowth::paper_hops(),
                &CalibrationOptions {
                    fit_capacity: true,
                    max_evals: 120,
                    multi_start,
                    ..CalibrationOptions::default()
                },
            )
            .unwrap()
        };
        let single = run_with(MultiStartConfig::single());
        assert_eq!(single.starts, 1);
        assert_eq!(single.best_start, 0);
        for starts in [2, 4, 6] {
            let multi = run_with(MultiStartConfig {
                starts,
                seed: 23,
                ..MultiStartConfig::default()
            });
            assert_eq!(multi.starts, starts);
            assert!(
                multi.objective <= single.objective,
                "fixture {i}, {starts} starts: objective {} worse than single-start {}",
                multi.objective,
                single.objective
            );
        }
    }
}

#[test]
fn full_lineup_with_multi_start_specs_is_byte_identical_across_modes() {
    // The full 8-kind lineup, with the two calibrating specs upgraded to
    // multi-start (budgets reduced to keep the grid fast). Both the
    // pipeline's grid scheduling and the nested per-fit start fan-out
    // vary with the mode; the report must not.
    let specs: Vec<ModelSpec> = ModelSpec::default_lineup()
        .into_iter()
        .map(|spec| match spec.kind() {
            // Reduced budget via the text form; starts via the shared
            // rewrite helper.
            "dl-cal" => "dl-cal(evals=150,starts=3,mseed=7)"
                .parse()
                .expect("spec text"),
            "variable-dl" => spec.with_multi_start(2, 7),
            _ => spec,
        })
        .collect();
    assert_eq!(specs.len(), 8, "lineup must stay the full zoo");

    let graph = {
        let n = 40;
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(i, i + 1).unwrap();
            b.add_edge(i, (i * 5 + 2) % n).unwrap();
        }
        Arc::new(b.build())
    };
    let cases: Vec<EvaluationCase> = fixtures()
        .into_iter()
        .enumerate()
        .map(|(i, matrix)| {
            let ctx = GraphContext::new(Arc::clone(&graph), 0, vec![0, 1 + i]);
            EvaluationCase::new(format!("fixture{i}"), matrix, 1, 5)
                .unwrap()
                .with_graph(ctx)
        })
        .take(2)
        .collect();

    let run_with = |mode: Parallelism| {
        EvaluationPipeline::new()
            .models(specs.clone())
            .parallelism(mode)
            .run(&cases)
            .unwrap()
    };
    let serial = run_with(Parallelism::Serial);
    for (mi, spec) in serial.specs().iter().enumerate() {
        for ci in 0..cases.len() {
            let outcome = serial.outcome(mi, ci).unwrap();
            assert!(
                outcome.error.is_none(),
                "{spec} failed on case {ci}: {:?}",
                outcome.error
            );
        }
    }
    for mode in [Parallelism::Fixed(2), Parallelism::Auto] {
        let parallel = run_with(mode);
        assert_eq!(serial, parallel, "{mode:?} diverged from serial");
        assert_eq!(serial.cache_stats(), parallel.cache_stats());
        assert_eq!(serial.to_string(), parallel.to_string());
    }
}
