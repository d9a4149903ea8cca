//! Property-based tests for the numerical substrate.
//!
//! These check algebraic invariants that must hold for *any* valid input,
//! complementing the example-based unit tests in each module.

use dlm_numerics::interp::LinearInterp;
use dlm_numerics::linalg::Matrix;
use dlm_numerics::ode::rk4;
use dlm_numerics::optimize::stratified_starts;
use dlm_numerics::spline::{CubicSpline, Pchip};
use dlm_numerics::stats::{mean, prediction_accuracy};
use dlm_numerics::tridiag::{solve_thomas, solve_thomas_into, TridiagonalMatrix};
use proptest::prelude::*;

/// Strictly increasing knot vector with values in a tame range.
fn knots(min_len: usize, max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.01f64..2.0, min_len..=max_len).prop_map(|gaps| {
        let mut acc = 0.0;
        gaps.iter()
            .map(|g| {
                acc += g;
                acc
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn thomas_solution_satisfies_system(
        n in 3usize..40,
        seed in any::<u64>(),
    ) {
        // Diagonally dominant random system: Thomas must return a vector
        // whose residual is tiny.
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64) / ((1u64 << 31) as f64) - 0.5
        };
        let sub: Vec<f64> = (0..n - 1).map(|_| next()).collect();
        let sup: Vec<f64> = (0..n - 1).map(|_| next()).collect();
        let diag: Vec<f64> = (0..n).map(|_| next() + 4.0).collect();
        let rhs: Vec<f64> = (0..n).map(|_| next() * 3.0).collect();
        let x = solve_thomas(&sub, &diag, &sup, &rhs).unwrap();
        let m = TridiagonalMatrix::new(sub, diag, sup).unwrap();
        let ax = m.mul_vec(&x).unwrap();
        let res = ax.iter().zip(&rhs).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
        prop_assert!(res < 1e-8, "residual {res}");
    }

    #[test]
    fn thomas_into_ignores_stale_workspace(
        n in 1usize..40,
        seed in any::<u64>(),
    ) {
        // NaN-prefilled scratch and output must not leak into the result:
        // the in-place solve equals the allocating one bit for bit.
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64) / ((1u64 << 31) as f64) - 0.5
        };
        let sub: Vec<f64> = (0..n - 1).map(|_| next()).collect();
        let sup: Vec<f64> = (0..n - 1).map(|_| next()).collect();
        let diag: Vec<f64> = (0..n).map(|_| next() + 3.0).collect();
        let rhs: Vec<f64> = (0..n).map(|_| next() * 5.0).collect();
        let mut c_scratch = vec![f64::NAN; n];
        let mut out = vec![f64::NAN; n];
        solve_thomas_into(&sub, &diag, &sup, &rhs, &mut c_scratch, &mut out).unwrap();
        let x = solve_thomas(&sub, &diag, &sup, &rhs).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&out), bits(&x));
    }

    #[test]
    fn pivoted_and_thomas_agree_on_dominant_systems(
        n in 2usize..30,
        seed in any::<u64>(),
    ) {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64) / ((1u64 << 31) as f64) - 0.5
        };
        let sub: Vec<f64> = (0..n - 1).map(|_| next()).collect();
        let sup: Vec<f64> = (0..n - 1).map(|_| next()).collect();
        let diag: Vec<f64> = (0..n).map(|_| next() + 5.0).collect();
        let rhs: Vec<f64> = (0..n).map(|_| next()).collect();
        let x1 = solve_thomas(&sub, &diag, &sup, &rhs).unwrap();
        let m = TridiagonalMatrix::new(sub, diag, sup).unwrap();
        let x2 = m.solve(&rhs).unwrap();
        for (a, b) in x1.iter().zip(&x2) {
            prop_assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn spline_interpolates_all_knots(xs in knots(3, 12)) {
        let n = xs.len();
        let ys: Vec<f64> = (0..n).map(|i| ((i * 37) % 11) as f64 - 5.0).collect();
        let s = CubicSpline::natural(&xs, &ys).unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            prop_assert!((s.value(*x) - y).abs() < 1e-8);
        }
    }

    #[test]
    fn clamped_flat_spline_end_slopes_vanish(
        xs in knots(3, 10),
        scale in 0.1f64..20.0,
    ) {
        let n = xs.len();
        let ys: Vec<f64> = (0..n).map(|i| scale * (((i * 13) % 7) as f64)).collect();
        let s = CubicSpline::clamped_flat(&xs, &ys).unwrap();
        let (lo, hi) = s.domain();
        prop_assert!(s.derivative(lo).abs() < 1e-6 * scale.max(1.0));
        prop_assert!(s.derivative(hi).abs() < 1e-6 * scale.max(1.0));
    }

    #[test]
    fn pchip_never_overshoots_data_range(xs in knots(3, 10)) {
        let n = xs.len();
        let ys: Vec<f64> = (0..n).map(|i| (((i * 29) % 13) as f64) - 6.0).collect();
        let p = Pchip::new(&xs, &ys).unwrap();
        let (ymin, ymax) = ys.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
        let (dlo, dhi) = p.domain();
        for k in 0..200 {
            let t = dlo + (dhi - dlo) * k as f64 / 199.0;
            let v = p.value(t);
            prop_assert!(v >= ymin - 1e-9 && v <= ymax + 1e-9, "t = {t}, v = {v}");
        }
    }

    #[test]
    fn linear_interp_is_bounded_by_neighbouring_knots(xs in knots(2, 10)) {
        let n = xs.len();
        let ys: Vec<f64> = (0..n).map(|i| ((i * 17) % 9) as f64).collect();
        let f = LinearInterp::new(&xs, &ys).unwrap();
        let (lo, hi) = f.domain();
        let (ymin, ymax) = ys.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), &v| {
            (a.min(v), b.max(v))
        });
        for k in 0..100 {
            let t = lo + (hi - lo) * k as f64 / 99.0;
            let v = f.value(t);
            prop_assert!(v >= ymin - 1e-12 && v <= ymax + 1e-12);
        }
    }

    #[test]
    fn rk4_linear_system_matches_exponential(lambda in -3.0f64..0.5, y0 in 0.1f64..5.0) {
        let sys = (move |_t: f64, y: &[f64], dy: &mut [f64]| dy[0] = lambda * y[0], 1usize);
        let traj = rk4(&sys, 0.0, 2.0, &[y0], 400).unwrap();
        let (_, y) = traj.last().unwrap();
        let exact = y0 * (lambda * 2.0).exp();
        prop_assert!((y[0] - exact).abs() < 1e-6 * exact.abs().max(1.0));
    }

    #[test]
    fn dense_lu_solve_has_small_residual(n in 2usize..15, seed in any::<u64>()) {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64) / ((1u64 << 31) as f64) - 0.5
        };
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = next();
            }
            a[(i, i)] += 8.0;
        }
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let x = a.solve(&b).unwrap();
        let ax = a.mul_vec(&x).unwrap();
        let res = ax.iter().zip(&b).map(|(p, q)| (p - q).abs()).fold(0.0, f64::max);
        prop_assert!(res < 1e-9);
    }

    #[test]
    fn mean_lies_within_range(xs in prop::collection::vec(-100.0f64..100.0, 1..50)) {
        let m = mean(&xs).unwrap();
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
    }

    #[test]
    fn prediction_accuracy_in_unit_interval(pred in -100.0f64..100.0, actual in 0.01f64..100.0) {
        let a = prediction_accuracy(pred, actual).unwrap();
        prop_assert!((0.0..=1.0).contains(&a));
        // Perfect prediction is the unique maximizer.
        let perfect = prediction_accuracy(actual, actual).unwrap();
        prop_assert!(perfect >= a);
    }

    #[test]
    fn multi_start_seeding_stays_inside_bounds(
        seed in any::<u64>(),
        count in 1usize..24,
        raw in prop::collection::vec((-50.0f64..50.0, 0.0f64..100.0), 1..6),
    ) {
        // Arbitrary finite boxes (including degenerate zero-width axes):
        // every generated start coordinate must lie inside its bound,
        // each axis must be stratified (no two starts in one stratum),
        // and the grid must be a pure function of (bounds, count, seed).
        let bounds: Vec<(f64, f64)> = raw.iter().map(|&(lo, w)| (lo, lo + w)).collect();
        let starts = stratified_starts(&bounds, count, seed).unwrap();
        prop_assert_eq!(starts.len(), count);
        for point in &starts {
            prop_assert_eq!(point.len(), bounds.len());
            for (x, &(lo, hi)) in point.iter().zip(&bounds) {
                prop_assert!(*x >= lo && *x <= hi, "{} outside [{lo}, {hi}]", x);
            }
        }
        for (dim, &(lo, hi)) in bounds.iter().enumerate() {
            if hi <= lo {
                continue; // degenerate axis: everything pinned to lo
            }
            let mut strata: Vec<usize> = starts
                .iter()
                .map(|p| ((((p[dim] - lo) / (hi - lo)) * count as f64) as usize).min(count - 1))
                .collect();
            strata.sort_unstable();
            let expect: Vec<usize> = (0..count).collect();
            prop_assert_eq!(strata, expect, "dimension {} not stratified", dim);
        }
        let replay = stratified_starts(&bounds, count, seed).unwrap();
        prop_assert_eq!(starts, replay);
    }

    #[test]
    fn spline_integral_additivity(xs in knots(3, 8)) {
        let n = xs.len();
        let ys: Vec<f64> = (0..n).map(|i| ((i * 31) % 17) as f64 * 0.3).collect();
        let s = CubicSpline::natural(&xs, &ys).unwrap();
        let (lo, hi) = s.domain();
        let mid = 0.5 * (lo + hi);
        let whole = s.integral(lo, hi);
        let parts = s.integral(lo, mid) + s.integral(mid, hi);
        prop_assert!((whole - parts).abs() < 1e-8);
    }
}
