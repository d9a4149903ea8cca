//! Solver-order validation: the discretizations must converge at their
//! textbook rates on the paper's actual problem, measured with the
//! Richardson tooling from `dlm-numerics`.

use dlm_cascade::hops::hop_density_matrix;
use dlm_cascade::DensityMatrix;
use dlm_core::growth::ExpDecayGrowth;
use dlm_core::initial::{InitialDensity, PhiConstruction};
use dlm_core::model::{DlModelBuilder, Prediction};
use dlm_core::params::DlParameters;
use dlm_core::pde::{
    solve, solve_sensitivities, Parameter, PdeSolution, SolverConfig, SolverMethod,
};
use dlm_core::predict::{Observation, PredictionRequest};
use dlm_core::registry::{ModelRegistry, ModelSpec};
use dlm_core::variable::{
    ConstantField, PerDistanceGrowth, SeparableField, TimeOnlyField, VariableDlModel,
    VariableDlModelBuilder,
};
use dlm_data::simulate::simulate_story;
use dlm_data::{SimulationConfig, StoryPreset, SyntheticWorld, WorldConfig};
use dlm_numerics::convergence::convergence_study;
use proptest::prelude::*;
use std::sync::OnceLock;

const OBS: [f64; 6] = [2.1, 0.7, 0.9, 0.5, 0.3, 0.2];

fn probe(method: SolverMethod, intervals: usize, dt: f64) -> f64 {
    let params = DlParameters::paper_hops(6).unwrap();
    let phi =
        InitialDensity::from_observations(&params, &OBS, PhiConstruction::SplineFlat).unwrap();
    let growth = ExpDecayGrowth::paper_hops();
    let config = SolverConfig {
        method,
        space_intervals: intervals,
        dt,
    };
    let sol = solve(&params, &growth, &phi, 1.0, 6.0, &config).unwrap();
    sol.value_at(3.0, 6.0).unwrap()
}

#[test]
fn crank_nicolson_observed_order_is_two() {
    let s = convergence_study(
        probe(SolverMethod::CrankNicolson, 25, 0.08),
        probe(SolverMethod::CrankNicolson, 50, 0.04),
        probe(SolverMethod::CrankNicolson, 100, 0.02),
        2.0,
    )
    .unwrap();
    assert!(
        (s.observed_order - 2.0).abs() < 0.35,
        "CN order {} (expected ~2)",
        s.observed_order
    );
    assert!(
        s.fine_error_estimate < 1e-2,
        "error estimate {}",
        s.fine_error_estimate
    );
}

#[test]
fn backward_euler_observed_order_is_one() {
    // BE is first order in time; keep dx fixed and fine so the temporal
    // error dominates the study.
    let probe_dt = |dt: f64| probe(SolverMethod::BackwardEuler, 200, dt);
    let s = convergence_study(probe_dt(0.2), probe_dt(0.1), probe_dt(0.05), 2.0).unwrap();
    assert!(
        (s.observed_order - 1.0).abs() < 0.3,
        "BE order {} (expected ~1)",
        s.observed_order
    );
}

#[test]
fn all_methods_extrapolate_to_the_same_limit() {
    // Richardson limits from CN and RK4 must agree to solver tolerance.
    let cn = convergence_study(
        probe(SolverMethod::CrankNicolson, 25, 0.08),
        probe(SolverMethod::CrankNicolson, 50, 0.04),
        probe(SolverMethod::CrankNicolson, 100, 0.02),
        2.0,
    )
    .unwrap();
    let rk = convergence_study(
        probe(SolverMethod::Rk4, 25, 0.02),
        probe(SolverMethod::Rk4, 50, 0.01),
        probe(SolverMethod::Rk4, 100, 0.005),
        2.0,
    )
    .unwrap();
    assert!(
        (cn.extrapolated - rk.extrapolated).abs() < 5e-3,
        "CN limit {} vs RK4 limit {}",
        cn.extrapolated,
        rk.extrapolated
    );
}

#[test]
fn variable_solver_converges_to_classic_limit() {
    // The finite-volume generalized solver with constant coefficients must
    // approach the classic solver's extrapolated limit as it refines.
    let classic = convergence_study(
        probe(SolverMethod::CrankNicolson, 25, 0.08),
        probe(SolverMethod::CrankNicolson, 50, 0.04),
        probe(SolverMethod::CrankNicolson, 100, 0.02),
        2.0,
    )
    .unwrap();
    let variable_probe = |intervals: usize, dt: f64| -> f64 {
        let model = VariableDlModelBuilder::new(1.0, 6.0)
            .unwrap()
            .diffusion(ConstantField(0.01))
            .growth(TimeOnlyField(ExpDecayGrowth::paper_hops()))
            .capacity(ConstantField(25.0))
            .resolution(intervals, dt)
            .build(&OBS)
            .unwrap();
        model.solve_until(6.0).unwrap().value_at(3.0, 6.0).unwrap()
    };
    let fine = variable_probe(200, 0.01);
    assert!(
        (fine - classic.extrapolated).abs() < 5e-3,
        "variable solver {} vs classic limit {}",
        fine,
        classic.extrapolated
    );
}

/// FNV-1a over the bit patterns of a stream of floats: any change to any
/// bit of any value changes the hash.
fn fnv1a_bits(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn solution_hash(sol: &PdeSolution) -> u64 {
    fnv1a_bits(
        sol.times()
            .iter()
            .chain(sol.values().iter().flatten())
            .copied(),
    )
}

/// (space intervals, dt, t_end) of the pinned reference solves.
const PINNED_SETTINGS: [(usize, f64, f64); 4] = [
    (100, 0.01, 6.0),
    (100, 0.01, 8.0),
    (50, 0.02, 3.0),
    (200, 0.005, 5.0),
];

/// The bits each implicit method produced on [`PINNED_SETTINGS`] when
/// these hashes were taken. A stepper rewrite that reorders a single
/// floating-point operation breaks one of them; a deliberate numeric
/// re-baseline must update them and say so.
const PINNED_SOLVES: [(SolverMethod, [u64; 4]); 2] = [
    (
        SolverMethod::CrankNicolson,
        [
            0x64df_3fa1_ebd6_3045,
            0xf57b_5a48_e206_e58e,
            0x4a57_8ff0_b0e9_f0cf,
            0x94b4_2caf_7e92_4714,
        ],
    ),
    (
        SolverMethod::BackwardEuler,
        [
            0x7081_2d1f_0645_f1cf,
            0x7940_9346_c52a_86ea,
            0x28a7_1ea3_008b_65c3,
            0xceb4_53d2_042c_c199,
        ],
    ),
];

#[test]
fn implicit_solves_are_bit_stable() {
    let params = DlParameters::paper_hops(6).unwrap();
    let phi =
        InitialDensity::from_observations(&params, &OBS, PhiConstruction::SplineFlat).unwrap();
    let growth = ExpDecayGrowth::paper_hops();
    for (method, hashes) in PINNED_SOLVES {
        for ((space_intervals, dt, t_end), pinned) in PINNED_SETTINGS.into_iter().zip(hashes) {
            let config = SolverConfig {
                method,
                space_intervals,
                dt,
            };
            let sol = solve(&params, &growth, &phi, 1.0, t_end, &config).unwrap();
            let hash = solution_hash(&sol);
            assert_eq!(
                hash, pinned,
                "{method:?} intervals={space_intervals} dt={dt} t_end={t_end}: {hash:#018x}"
            );
        }
    }
}

/// The §V variable-coefficient model under one coefficient mix at one
/// [`PINNED_SETTINGS`] resolution.
fn variable_model(mix: &str, space_intervals: usize, dt: f64) -> VariableDlModel {
    let builder = VariableDlModelBuilder::new(1.0, 6.0)
        .unwrap()
        .resolution(space_intervals, dt);
    // s(x)·1: a purely spatial field through the given knots.
    let spatial = |xs: &[f64], scales: &[f64]| {
        SeparableField::new(xs, scales, ExpDecayGrowth::new(0.0, 0.0, 1.0)).unwrap()
    };
    let builder = match mix {
        "constant" => builder
            .diffusion(ConstantField(0.01))
            .growth(TimeOnlyField(ExpDecayGrowth::paper_hops()))
            .capacity(ConstantField(25.0)),
        // Zero faces on the left, large ones on the right.
        "diffusion(x)" => {
            builder.diffusion(spatial(&[1.0, 3.5, 3.501, 6.0], &[0.0, 0.0, 0.8, 0.8]))
        }
        "capacity(x)" => builder.capacity(spatial(&[1.0, 3.0, 6.0], &[25.0, 25.0, 5.0])),
        "per-distance growth" => builder.growth(
            PerDistanceGrowth::new(
                1.0,
                (0..6)
                    .map(|i| ExpDecayGrowth::new(1.0 + 0.3 * f64::from(i), 1.5, 0.25))
                    .collect(),
            )
            .unwrap(),
        ),
        other => panic!("unknown mix {other}"),
    };
    builder.build(&OBS).unwrap()
}

/// The bits `VariableDlModel::solve_until` produced per coefficient mix
/// on [`PINNED_SETTINGS`] when these hashes were taken.
const PINNED_VARIABLE_SOLVES: [(&str, [u64; 4]); 4] = [
    (
        "constant",
        [
            0xb9d8_01af_1e4e_b6c7,
            0x9287_a266_946a_0aca,
            0x5038_d678_870e_bd75,
            0xa170_2915_fc22_157e,
        ],
    ),
    (
        "diffusion(x)",
        [
            0x849a_1011_757f_11ce,
            0x0813_f558_1548_92bc,
            0xd6f6_731d_08bc_2fa4,
            0xd880_1ead_a9c9_8dc8,
        ],
    ),
    (
        "capacity(x)",
        [
            0x4b86_8eb4_5f92_7aef,
            0xa12a_528b_3a24_3928,
            0x5c45_2a0a_f4dc_cb0c,
            0x16f2_73b8_305f_6d3e,
        ],
    ),
    (
        "per-distance growth",
        [
            0x18f1_76ff_d53c_2b71,
            0xd1c6_4726_0edc_dd3e,
            0xbfb3_ec28_1a22_619a,
            0xd402_ea32_e2da_bfc4,
        ],
    ),
];

#[test]
fn variable_solves_are_bit_stable() {
    for (mix, hashes) in PINNED_VARIABLE_SOLVES {
        for ((space_intervals, dt, t_end), pinned) in PINNED_SETTINGS.into_iter().zip(hashes) {
            let model = variable_model(mix, space_intervals, dt);
            let hash = solution_hash(&model.solve_until(t_end).unwrap());
            assert_eq!(
                hash, pinned,
                "{mix} intervals={space_intervals} dt={dt} t_end={t_end}: {hash:#018x}"
            );
        }
    }
}

/// The last row of a plain solve of Eq. 4 at `(d, K, a, b, c)`.
fn last_row(p: [f64; 5], config: &SolverConfig, t_end: f64) -> Vec<f64> {
    let params = DlParameters::new(p[3], p[4], 1.0, 6.0).unwrap();
    let phi =
        InitialDensity::from_observations(&params, &OBS, PhiConstruction::SplineFlat).unwrap();
    let growth = ExpDecayGrowth::new(p[0], p[1], p[2]);
    let sol = solve(&params, &growth, &phi, 1.0, t_end, config).unwrap();
    sol.values().last().unwrap().clone()
}

#[test]
fn sensitivities_match_central_differences_of_the_same_solve() {
    // (a, b, c, d, K), the order of `Parameter`'s variants below.
    let at = [1.2, 1.3, 0.3, 0.03, 25.0];
    let wrt = [
        Parameter::Amplitude,
        Parameter::Decay,
        Parameter::Floor,
        Parameter::Diffusion,
        Parameter::Capacity,
    ];
    for method in [SolverMethod::CrankNicolson, SolverMethod::BackwardEuler] {
        for (space_intervals, dt, t_end) in [(40, 0.05, 4.0), (100, 0.01, 3.0)] {
            let config = SolverConfig {
                method,
                space_intervals,
                dt,
            };
            let params = DlParameters::new(at[3], at[4], 1.0, 6.0).unwrap();
            let phi = InitialDensity::from_observations(&params, &OBS, PhiConstruction::SplineFlat)
                .unwrap();
            let growth = ExpDecayGrowth::new(at[0], at[1], at[2]);
            let tangent =
                solve_sensitivities(&params, &growth, &phi, 1.0, t_end, &config, &wrt).unwrap();
            let field_bits: Vec<u64> = tangent.field().iter().map(|v| v.to_bits()).collect();
            let plain_bits: Vec<u64> = last_row(at, &config, t_end)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(field_bits, plain_bits, "{method:?}: the field moved");
            for (q, parameter) in wrt.iter().enumerate() {
                let h = 1e-4 * at[q];
                let (mut up, mut down) = (at, at);
                up[q] += h;
                down[q] -= h;
                let (hi, lo) = (last_row(up, &config, t_end), last_row(down, &config, t_end));
                let central: Vec<f64> = hi
                    .iter()
                    .zip(&lo)
                    .map(|(a, b)| (a - b) / (2.0 * h))
                    .collect();
                let scale = central.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                let err = tangent
                    .partial(q)
                    .iter()
                    .zip(&central)
                    .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
                assert!(
                    scale > 0.0 && err <= 1e-6 * scale,
                    "{method:?} {space_intervals}x{dt} {parameter:?}: error {err:e} vs scale {scale:e}"
                );
            }
        }
    }
    // Explicit methods have no θ-step to differentiate.
    let params = DlParameters::paper_hops(6).unwrap();
    let phi =
        InitialDensity::from_observations(&params, &OBS, PhiConstruction::SplineFlat).unwrap();
    let rk4 = SolverConfig {
        method: SolverMethod::Rk4,
        ..SolverConfig::default()
    };
    assert!(solve_sensitivities(
        &params,
        &ExpDecayGrowth::paper_hops(),
        &phi,
        1.0,
        2.0,
        &rk4,
        &wrt
    )
    .is_err());
}

/// Three observed hours over six distances, shaped like a Digg cascade.
fn pinned_observation() -> Observation {
    Observation::new(
        vec![1, 2, 3],
        vec![
            vec![2.1, 0.7, 0.9, 0.5, 0.3, 0.2],
            vec![4.0, 1.5, 1.6, 0.9, 0.5, 0.3],
            vec![6.2, 2.4, 2.3, 1.3, 0.7, 0.4],
        ],
    )
    .unwrap()
}

#[test]
fn served_lineup_fits_are_bit_stable() {
    let registry = ModelRegistry::with_builtins();
    let observation = pinned_observation();

    let spec: ModelSpec = "variable-dl(perdist=true)".parse().unwrap();
    let fitted = registry.build(&spec).unwrap().fit(&observation).unwrap();
    let distances: Vec<u32> = (1..=6).collect();
    let hours: Vec<u32> = (1..=6).collect();
    let request = PredictionRequest::new(distances.clone(), hours.clone()).unwrap();
    let prediction = fitted.predict(&request).unwrap();
    let values = distances
        .iter()
        .flat_map(|&d| hours.iter().map(move |&h| (d, h)))
        .map(|(d, h)| prediction.at(d, h).unwrap());
    let hash = fnv1a_bits(fitted.params().into_iter().chain(values));
    assert_eq!(
        hash, 0x0d44_f303_c6fe_c734,
        "variable-dl(perdist=true): {hash:#018x}"
    );

    let spec: ModelSpec = "dl-cal".parse().unwrap();
    let fitted = registry.build(&spec).unwrap().fit(&observation).unwrap();
    let hash = fnv1a_bits(fitted.params());
    assert_eq!(hash, 0xcece_ae87_f80e_acdb, "dl-cal: {hash:#018x}");
}

/// Latest hour the prefix pins request.
const PIN_HORIZON: u32 = 9;

/// Hop-density matrices of stories s1 and s2 over hours 1–5, each
/// simulated once on a small synthetic world, with the first hour each
/// carries signal at: s2 reaches the front page only at hour 2.
fn story_matrices() -> &'static [(DensityMatrix, u32); 2] {
    static MATRICES: OnceLock<[(DensityMatrix, u32); 2]> = OnceLock::new();
    MATRICES.get_or_init(|| {
        let world = SyntheticWorld::generate(WorldConfig::default().scaled(0.12)).unwrap();
        let config = SimulationConfig {
            hours: 5,
            substeps: 2,
            seed: 13,
        };
        [(StoryPreset::s1(), 1), (StoryPreset::s2(), 2)].map(|(preset, first)| {
            let cascade = simulate_story(&world, &preset, config).unwrap();
            (
                hop_density_matrix(world.graph(), &cascade, 5, 5).unwrap(),
                first,
            )
        })
    })
}

/// Bit patterns of every cell of a prediction, distance-major.
fn cell_bits(prediction: &Prediction) -> Vec<(u32, u32, u64)> {
    prediction
        .distances()
        .iter()
        .flat_map(|&d| prediction.hours().iter().map(move |&h| (d, h)))
        .map(|(d, h)| (d, h, prediction.at(d, h).unwrap().to_bits()))
        .collect()
}

/// A result's cells or its error, in a form two results compare on bit
/// for bit (an `OutOfDomain` error keeps its axis, value and range).
fn outcome(result: dlm_core::Result<Prediction>) -> Result<Vec<(u32, u32, u64)>, String> {
    result.as_ref().map(cell_bits).map_err(|e| format!("{e:?}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A fitted DL model answers the same bits whatever it was asked
    /// before: every default-lineup DL spec, warmed by a random sequence
    /// of longer and shorter requests (plus one out-of-domain distance
    /// and one pre-initial hour), must agree with fresh fits on every
    /// cell and on every error.
    #[test]
    fn warm_predictions_match_fresh_fits(
        story in 0usize..2,
        observed in 1u32..=3,
        requests in prop::collection::vec(prop::collection::vec(1u32..=PIN_HORIZON, 1..6), 1..6),
        h_offset in 0u32..PIN_HORIZON,
        bad_at in 0usize..6,
    ) {
        let registry = ModelRegistry::with_builtins();
        let (matrix, first) = &story_matrices()[story];
        let through = first + observed;
        let hours: Vec<u32> = (*first..=through).collect();
        let observation = Observation::from_matrix(matrix, &hours).unwrap();
        let distances: Vec<u32> = (1..=observation.max_distance()).collect();
        let h = through + 1 + h_offset % (PIN_HORIZON - through);
        let request =
            |ds: &[u32], hs: &[u32]| PredictionRequest::new(ds.to_vec(), hs.to_vec()).unwrap();
        // Request hours in random order from the initial hour on,
        // duplicates dropped; a request ending at the initial hour is a φ
        // readback, not a solve, so each one reaches past it.
        let mut sequence: Vec<PredictionRequest> = requests
            .iter()
            .map(|hs| {
                let mut unique: Vec<u32> = Vec::new();
                for x in hs.iter().map(|&x| x.max(*first)) {
                    if !unique.contains(&x) {
                        unique.push(x);
                    }
                }
                if unique == [*first] {
                    unique.push(first + 1);
                }
                request(&distances, &unique)
            })
            .collect();
        let beyond = observation.max_distance() + 1;
        let bad = [
            request(&[1, beyond], &[PIN_HORIZON, 2]),
            request(&distances, &[0, PIN_HORIZON - 1]),
        ];
        let at = bad_at.min(sequence.len());
        sequence.splice(at..at, bad.iter().cloned());

        for spec in ModelSpec::default_lineup() {
            let predictor = registry.build(&spec).unwrap();
            if !["dl", "dl-cal", "variable-dl"].contains(&predictor.name()) {
                continue;
            }
            let fit = || predictor.fit(&observation);
            let warm = fit().unwrap();
            let everything: Vec<u32> = (*first..=PIN_HORIZON).collect();
            let reference = fit().unwrap().predict(&request(&distances, &everything)).unwrap();
            for req in &sequence {
                let got = outcome(warm.predict(req));
                if bad.contains(req) {
                    prop_assert_eq!(&got, &outcome(fit().unwrap().predict(req)), "{spec}: {req:?}");
                    continue;
                }
                for (d, hour, bits) in got.unwrap() {
                    prop_assert_eq!(
                        bits,
                        reference.at(d, hour).unwrap().to_bits(),
                        "{spec}: ({d}, {hour}) in {req:?}"
                    );
                }
            }
            let single = request(&distances, &[h]);
            let warm_h = cell_bits(&warm.predict(&single).unwrap());
            let fresh_h = cell_bits(&fit().unwrap().predict(&single).unwrap());
            prop_assert_eq!(&warm_h, &fresh_h, "{spec}: h = {h}");
            let tail: Vec<u32> = (through + 1..=PIN_HORIZON).collect();
            let fresh_tail = fit().unwrap().predict(&request(&distances, &tail)).unwrap();
            for (d, hour, bits) in warm_h {
                let fresh = fresh_tail.at(d, hour).unwrap().to_bits();
                prop_assert_eq!(bits, fresh, "{spec}: tail ({d}, {hour})");
            }
        }

        // The paper's models, asked the same sequence, against a fresh
        // recorded solve read cell by cell: the absolute reference, which
        // also pins the errors' ranges.
        let initial = observation.initial_profile();
        let dl = DlModelBuilder::new(DlParameters::paper_hops(observation.max_distance()).unwrap())
            .initial_time(f64::from(*first))
            .build(initial)
            .unwrap();
        let variable = VariableDlModelBuilder::new(1.0, f64::from(observation.max_distance()))
            .unwrap()
            .initial_time(f64::from(*first))
            .build(initial)
            .unwrap();
        for req in &sequence {
            let t_end = f64::from(req.max_hour());
            prop_assert_eq!(
                outcome(dl.predict(req.distances(), req.hours())),
                recorded(dl.solve_until(t_end), req),
                "dl model: {:?}", req
            );
            prop_assert_eq!(
                outcome(variable.predict(req.distances(), req.hours())),
                recorded(variable.solve_until(t_end), req),
                "variable model: {:?}", req
            );
        }
    }
}

/// What `predict` answers from a fresh solve to the request's latest
/// hour: every cell read with `value_at`, distance-major, stopping at the
/// first error.
fn recorded(
    solution: dlm_core::Result<PdeSolution>,
    request: &PredictionRequest,
) -> Result<Vec<(u32, u32, u64)>, String> {
    let solution = solution.map_err(|e| format!("{e:?}"))?;
    let mut cells = Vec::new();
    for &d in request.distances() {
        for &h in request.hours() {
            let value = solution
                .value_at(f64::from(d), f64::from(h))
                .map_err(|e| format!("{e:?}"))?;
            cells.push((d, h, value.to_bits()));
        }
    }
    Ok(cells)
}
