//! Criterion benches for the numerical core: the PDE time-stepper
//! ablation (Crank–Nicolson vs explicit method-of-lines, see the
//! `dlm_core::pde` module docs), the variable-coefficient model and
//! the underlying kernels (tridiagonal solve, spline construction), and
//! a repeated predict on one fitted model (its readout table).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dlm_core::growth::ExpDecayGrowth;
use dlm_core::initial::{InitialDensity, PhiConstruction};
use dlm_core::model::DlModel;
use dlm_core::params::DlParameters;
use dlm_core::pde::{solve, SolverConfig, SolverMethod};
use dlm_core::variable::{ConstantField, PerDistanceGrowth, TimeOnlyField, VariableDlModelBuilder};
use dlm_numerics::spline::CubicSpline;
use dlm_numerics::tridiag::{solve_thomas, TridiagonalMatrix};
use std::hint::black_box;

fn bench_pde_solvers(c: &mut Criterion) {
    let params = DlParameters::paper_hops(6).expect("params");
    let phi = InitialDensity::from_observations(
        &params,
        &[2.1, 0.7, 0.9, 0.5, 0.3, 0.2],
        PhiConstruction::SplineFlat,
    )
    .expect("phi");
    let growth = ExpDecayGrowth::paper_hops();

    let mut group = c.benchmark_group("pde_solvers");
    for method in [
        SolverMethod::CrankNicolson,
        SolverMethod::BackwardEuler,
        SolverMethod::Rk4,
        SolverMethod::DormandPrince45,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{method:?}")),
            &method,
            |b, &method| {
                let config = SolverConfig {
                    method,
                    space_intervals: 100,
                    dt: 0.01,
                };
                b.iter(|| {
                    solve(
                        black_box(&params),
                        black_box(&growth),
                        black_box(&phi),
                        1.0,
                        6.0,
                        &config,
                    )
                    .expect("solve")
                });
            },
        );
    }
    group.finish();
}

fn bench_grid_resolution(c: &mut Criterion) {
    let params = DlParameters::paper_hops(6).expect("params");
    let phi = InitialDensity::from_observations(
        &params,
        &[2.1, 0.7, 0.9, 0.5, 0.3, 0.2],
        PhiConstruction::SplineFlat,
    )
    .expect("phi");
    let growth = ExpDecayGrowth::paper_hops();
    let mut group = c.benchmark_group("pde_grid_resolution");
    for intervals in [25usize, 100, 400] {
        group.bench_with_input(
            BenchmarkId::from_parameter(intervals),
            &intervals,
            |b, &intervals| {
                let config = SolverConfig {
                    space_intervals: intervals,
                    ..SolverConfig::default()
                };
                b.iter(|| solve(&params, &growth, &phi, 1.0, 6.0, &config).expect("solve"));
            },
        );
    }
    group.finish();
}

fn bench_tridiagonal(c: &mut Criterion) {
    let mut group = c.benchmark_group("tridiagonal_solve");
    for n in [101usize, 1001] {
        let sub = vec![-1.0; n - 1];
        let sup = vec![-1.0; n - 1];
        let diag = vec![4.0; n];
        let rhs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
        let matrix =
            TridiagonalMatrix::new(sub.clone(), diag.clone(), sup.clone()).expect("matrix");
        group.bench_with_input(BenchmarkId::new("thomas", n), &n, |b, _| {
            b.iter(|| solve_thomas(black_box(&sub), &diag, &sup, &rhs).expect("thomas"));
        });
        group.bench_with_input(BenchmarkId::new("pivoted_lu", n), &n, |b, _| {
            b.iter(|| matrix.solve(black_box(&rhs)).expect("lu"));
        });
    }
    group.finish();
}

fn bench_spline_construction(c: &mut Criterion) {
    let xs: Vec<f64> = (0..200).map(|i| i as f64).collect();
    let ys: Vec<f64> = xs.iter().map(|x| (x / 13.0).sin() + 2.0).collect();
    c.bench_function("spline_clamped_flat_200_knots", |b| {
        b.iter(|| CubicSpline::clamped_flat(black_box(&xs), black_box(&ys)).expect("spline"));
    });
}

fn bench_variable_coefficient_solver(c: &mut Criterion) {
    // The generalized (finite-volume) solver on the classic
    // constant-coefficient problem (the price of generality), and with
    // the per-distance growth field the served `variable-dl(perdist=true)`
    // fits: six exp-decay curves blended linearly in x.
    let per_distance = PerDistanceGrowth::new(
        1.0,
        (0..6)
            .map(|d| {
                let s = 1.0 + 0.15 * f64::from(d);
                ExpDecayGrowth::new(1.4 / s, 1.5 * s, 0.25 / s)
            })
            .collect(),
    )
    .expect("curves");
    let builder = VariableDlModelBuilder::new(1.0, 6.0)
        .expect("domain")
        .diffusion(ConstantField(0.01))
        .capacity(ConstantField(25.0))
        .resolution(100, 0.01);
    let observed = [2.1, 0.7, 0.9, 0.5, 0.3, 0.2];
    let time_only = builder
        .clone()
        .growth(TimeOnlyField(ExpDecayGrowth::paper_hops()))
        .build(&observed)
        .expect("model");
    let per_distance = builder
        .growth(per_distance)
        .build(&observed)
        .expect("model");

    let mut group = c.benchmark_group("variable_coefficient_solver");
    for (name, model) in [("time_only", &time_only), ("per_distance", &per_distance)] {
        group.bench_with_input(BenchmarkId::from_parameter(name), model, |b, model| {
            b.iter(|| black_box(model).solve_until(6.0).expect("solve"));
        });
    }
    group.finish();
}

fn bench_predict_repeat(c: &mut Criterion) {
    // One served-shape forecast (six distances, hours 2–6) on the paper's
    // model: the first predict solves and fills the readout table (a
    // clone starts with an empty one); a repeat reads its cells.
    let model = DlModel::paper_hops(&[2.1, 0.7, 0.9, 0.5, 0.3, 0.2]).expect("model");
    let (distances, hours) = ([1, 2, 3, 4, 5, 6], [2, 3, 4, 5, 6]);
    model.predict(&distances, &hours).expect("predict");
    let mut group = c.benchmark_group("predict_repeat");
    group.bench_function("first", |b| {
        b.iter(|| {
            black_box(&model)
                .clone()
                .predict(&distances, &hours)
                .expect("predict")
        });
    });
    group.bench_function("warm", |b| {
        b.iter(|| {
            black_box(&model)
                .predict(&distances, &hours)
                .expect("predict")
        });
    });
    group.finish();
}

criterion_group!(
    solvers,
    bench_pde_solvers,
    bench_grid_resolution,
    bench_tridiagonal,
    bench_spline_construction,
    bench_variable_coefficient_solver,
    bench_predict_repeat
);
criterion_main!(solvers);
