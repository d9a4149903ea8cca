//! Solver-order validation: the discretizations must converge at their
//! textbook rates on the paper's actual problem, measured with the
//! Richardson tooling from `dlm-numerics`.

use dlm_core::growth::ExpDecayGrowth;
use dlm_core::initial::{InitialDensity, PhiConstruction};
use dlm_core::params::DlParameters;
use dlm_core::pde::{solve, PdeSolution, SolverConfig, SolverMethod};
use dlm_core::predict::{Observation, PredictionRequest};
use dlm_core::registry::{ModelRegistry, ModelSpec};
use dlm_core::variable::{
    ConstantField, PerDistanceGrowth, SeparableField, TimeOnlyField, VariableDlModel,
    VariableDlModelBuilder,
};
use dlm_numerics::convergence::convergence_study;

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
        hash, 0x3aca_dc53_ba95_07a8,
        "variable-dl(perdist=true): {hash:#018x}"
    );

    let spec: ModelSpec = "dl-cal".parse().unwrap();
    let fitted = registry.build(&spec).unwrap().fit(&observation).unwrap();
    let hash = fnv1a_bits(fitted.params());
    assert_eq!(hash, 0x9bfc_9837_8a9a_62f8, "dl-cal: {hash:#018x}");
}
