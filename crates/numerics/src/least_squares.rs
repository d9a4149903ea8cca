//! Nonlinear least squares by Levenberg–Marquardt, inside a box.
//!
//! [`levenberg_marquardt_in_box`] minimizes `‖r(p)‖²` over an
//! axis-aligned box for a [`JacobianProblem`], one that evaluates its
//! residuals and their Jacobian together. `dlm-core::calibrate` fits the
//! `dl-cal` parameters `(a, b, c, d[, K])` with it, taking the Jacobian
//! from forward sensitivities of the Crank–Nicolson solve, so one PDE
//! solve yields both; `dlm-core::variable` fits each distance's growth
//! curve `(a, b, c)` the same way, through the tangent of its RK4 steps.

use crate::error::{NumericsError, Result};
use crate::linalg::Matrix;
use crate::optimize::Minimum;

/// A least-squares problem that evaluates its residuals and their
/// Jacobian in one call, the form [`levenberg_marquardt_in_box`] fits.
pub trait JacobianProblem {
    /// Number of residuals `m`. It may be smaller than the parameter
    /// count: the damping keeps a rank-deficient fit well posed.
    fn residual_count(&self) -> usize;

    /// Number of parameters `n`.
    fn parameter_count(&self) -> usize;

    /// Writes `r(p)` into `residuals` (length `m`) and `∂r_i/∂p_j` into
    /// `jacobian` (`m × n`). A point where the residuals cannot be
    /// evaluated reports a non-finite residual; its Jacobian is not read.
    fn evaluate(&mut self, p: &[f64], residuals: &mut [f64], jacobian: &mut Matrix);
}

/// Options for [`levenberg_marquardt_in_box`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LmConfig {
    /// Stop once the last [`LmConfig::window`] accepted steps together
    /// lowered the sum of squares by no more than
    /// `f_tol + f_rel · (its value before them)`.
    pub f_tol: f64,
    /// The relative part of the [`LmConfig::f_tol`] test.
    pub f_rel: f64,
    /// Accepted steps the [`LmConfig::f_tol`] test looks back over (at
    /// least 1). A longer window lets a fit that gains slowly but steadily
    /// continue past a single small step.
    pub window: usize,
    /// Stop after an accepted step that moves no parameter by more than
    /// `x_tol · (|p_i| + x_tol)`.
    pub x_tol: f64,
    /// Maximum number of outer iterations (Jacobians stepped from).
    pub max_iter: usize,
    /// Maximum number of [`JacobianProblem::evaluate`] calls, the seed's
    /// included.
    pub max_evals: usize,
    /// Initial damping parameter λ.
    pub initial_lambda: f64,
}

impl Default for LmConfig {
    fn default() -> Self {
        Self {
            f_tol: 1e-14,
            f_rel: 0.0,
            window: 1,
            x_tol: 1e-12,
            max_iter: 200,
            max_evals: usize::MAX,
            initial_lambda: 1e-3,
        }
    }
}

/// Outcome of a Levenberg–Marquardt fit.
#[derive(Debug, Clone, PartialEq)]
pub struct LmFit {
    /// Fitted parameters.
    pub parameters: Vec<f64>,
    /// Final sum of squared residuals.
    pub sum_squares: f64,
    /// Outer iterations performed.
    pub iterations: usize,
    /// Residual-and-Jacobian evaluations, the seed's included.
    pub evaluations: usize,
    /// Whether a tolerance, a vanished step or saturated damping (rather
    /// than a budget) stopped the fit.
    pub converged: bool,
}

/// Minimizes `‖r(p)‖²` over the box `bounds` (one `(lo, hi)` per
/// parameter; infinite edges allowed) by projected Levenberg–Marquardt.
///
/// The seed is projected into the box first. Each iteration solves the
/// damped normal equations `(JᵀJ + λ·diag(JᵀJ))·δ = −Jᵀr` over the free
/// parameters: a parameter on a bound whose descent direction points out
/// of the box is held there. The trial `p + δ` is projected into the box
/// and evaluated with its Jacobian, so an accepted trial is stepped from
/// without another evaluation. λ follows Nielsen's gain-ratio rule: it
/// shrinks by up to 3× after a step the quadratic model predicted well
/// and doubles, then quadruples, and so on, after each rejected one. The
/// fit stops on the first of: the last `window` accepted steps together
/// gaining no more than `f_tol + f_rel · ‖r‖²`; an accepted step
/// moving no parameter by more than `x_tol` of itself; a zero projected
/// gradient; a step the box reduces to nothing; damping past `1e16` with
/// no improving step; `max_iter` iterations or `max_evals` evaluations.
/// Deterministic: the same problem, seed, box and config give the same
/// bits.
///
/// Fewer residuals than parameters is allowed; the damping keeps the
/// normal equations nonsingular.
///
/// # Errors
///
/// * [`NumericsError::DimensionMismatch`] — `p0` or `bounds` length
///   differs from the parameter count.
/// * [`NumericsError::InvalidParameter`] — a NaN or inverted bound, or a
///   non-finite seed coordinate.
/// * [`NumericsError::NonFiniteValue`] — residuals non-finite at the
///   projected seed.
///
/// # Examples
///
/// ```
/// use dlm_numerics::least_squares::{levenberg_marquardt_in_box, JacobianProblem, LmConfig};
/// use dlm_numerics::linalg::Matrix;
///
/// # fn main() -> Result<(), dlm_numerics::NumericsError> {
/// // r = (p0 − 3, p1 + 1) with p0 ≤ 2: the fit stops on the bound.
/// struct Shifted;
/// impl JacobianProblem for Shifted {
///     fn residual_count(&self) -> usize { 2 }
///     fn parameter_count(&self) -> usize { 2 }
///     fn evaluate(&mut self, p: &[f64], r: &mut [f64], jac: &mut Matrix) {
///         r[0] = p[0] - 3.0;
///         r[1] = p[1] + 1.0;
///         jac[(0, 0)] = 1.0;
///         jac[(0, 1)] = 0.0;
///         jac[(1, 0)] = 0.0;
///         jac[(1, 1)] = 1.0;
///     }
/// }
/// let bounds = [(0.0, 2.0), (f64::NEG_INFINITY, f64::INFINITY)];
/// let fit = levenberg_marquardt_in_box(&mut Shifted, &[0.5, 0.0], &bounds, LmConfig::default())?;
/// assert_eq!(fit.parameters[0], 2.0);
/// assert!((fit.parameters[1] + 1.0).abs() < 1e-8);
/// # Ok(())
/// # }
/// ```
pub fn levenberg_marquardt_in_box<P: JacobianProblem + ?Sized>(
    problem: &mut P,
    p0: &[f64],
    bounds: &[(f64, f64)],
    cfg: LmConfig,
) -> Result<LmFit> {
    let (m, n) = (problem.residual_count(), problem.parameter_count());
    for (what, len) in [("parameters", p0.len()), ("bounds", bounds.len())] {
        if len != n {
            return Err(NumericsError::DimensionMismatch {
                expected: format!("{n} {what}"),
                actual: len,
            });
        }
    }
    for &(lo, hi) in bounds {
        if !(lo <= hi) {
            return Err(NumericsError::InvalidParameter {
                name: "bounds",
                reason: format!("need lo <= hi, got [{lo}, {hi}]"),
            });
        }
    }
    if p0.iter().any(|v| !v.is_finite()) {
        return Err(NumericsError::InvalidParameter {
            name: "p0",
            reason: "seed coordinates must be finite".into(),
        });
    }
    let project = |p: &mut [f64]| {
        for (v, &(lo, hi)) in p.iter_mut().zip(bounds) {
            *v = v.max(lo).min(hi);
        }
    };

    let mut p = p0.to_vec();
    project(&mut p);
    let (mut r, mut jac) = (vec![0.0; m], Matrix::zeros(m, n));
    problem.evaluate(&p, &mut r, &mut jac);
    let mut evaluations = 1;
    let mut ss = sum_squares(&r);
    if !ss.is_finite() {
        return Err(NumericsError::NonFiniteValue {
            context: "residuals at seed".into(),
        });
    }

    let (mut r_trial, mut jac_trial) = (vec![0.0; m], Matrix::zeros(m, n));
    let mut trial = vec![0.0; n];
    let mut lambda = cfg.initial_lambda;
    let mut nu = 2.0;
    let mut iterations = 0;
    let mut converged = false;
    // The sum of squares before each accepted step, for the window test.
    let mut history = vec![ss];
    'outer: while iterations < cfg.max_iter {
        iterations += 1;
        let (gradient, normal) = normal_equations(&jac, &r);
        // A parameter on a bound whose descent direction leaves the box
        // is held there for this iteration.
        let free: Vec<bool> = (0..n)
            .map(|i| {
                let (lo, hi) = bounds[i];
                !((p[i] <= lo && gradient[i] > 0.0) || (p[i] >= hi && gradient[i] < 0.0))
            })
            .collect();
        if (0..n).all(|i| !free[i] || gradient[i] == 0.0) {
            converged = true;
            break;
        }
        loop {
            if evaluations >= cfg.max_evals {
                break 'outer;
            }
            if let Some(delta) = damped_step(&normal, &gradient, &free, lambda)? {
                for i in 0..n {
                    trial[i] = p[i] + delta[i];
                }
                project(&mut trial);
                if trial == p {
                    // The box leaves nothing of the step.
                    converged = true;
                    break 'outer;
                }
                problem.evaluate(&trial, &mut r_trial, &mut jac_trial);
                evaluations += 1;
                let ss_trial = sum_squares(&r_trial);
                if ss_trial < ss {
                    // Nielsen's update from the gain ratio against the
                    // model's predicted decrease along the step taken.
                    let step: Vec<f64> = (0..n).map(|i| trial[i] - p[i]).collect();
                    let rho = (ss - ss_trial) / predicted_decrease(&normal, &gradient, &step);
                    lambda *= if rho.is_finite() && rho > 0.0 {
                        (1.0 - (2.0 * rho - 1.0).powi(3)).max(1.0 / 3.0)
                    } else {
                        1.0 / 3.0
                    };
                    nu = 2.0;
                    let small_step =
                        (0..n).all(|i| step[i].abs() <= cfg.x_tol * (p[i].abs() + cfg.x_tol));
                    std::mem::swap(&mut p, &mut trial);
                    std::mem::swap(&mut r, &mut r_trial);
                    std::mem::swap(&mut jac, &mut jac_trial);
                    ss = ss_trial;
                    history.push(ss);
                    let before = history[history.len().saturating_sub(cfg.window.max(1) + 1)];
                    if small_step || before - ss <= cfg.f_tol + cfg.f_rel * before {
                        converged = true;
                        break 'outer;
                    }
                    continue 'outer;
                }
            }
            lambda *= nu;
            nu *= 2.0;
            if lambda > 1e16 {
                // No damping finds a lower point: a (local) minimum.
                converged = true;
                break 'outer;
            }
        }
    }

    Ok(LmFit {
        parameters: p,
        sum_squares: ss,
        iterations,
        evaluations,
        converged,
    })
}

/// [`levenberg_marquardt_in_box`] as the local search of
/// [`crate::optimize::multi_start`]: the minimum's value is the fit's sum
/// of squares. A start whose seed has no finite residuals ends there,
/// projected into the box, at `+∞` rather than failing every start.
///
/// # Errors
///
/// As [`levenberg_marquardt_in_box`], except
/// [`NumericsError::NonFiniteValue`].
pub fn local_search_in_box<P: JacobianProblem + ?Sized>(
    problem: &mut P,
    seed: &[f64],
    bounds: &[(f64, f64)],
    cfg: LmConfig,
) -> Result<Minimum> {
    match levenberg_marquardt_in_box(problem, seed, bounds, cfg) {
        Ok(fit) => Ok(Minimum {
            x: fit.parameters,
            value: fit.sum_squares,
            evaluations: fit.evaluations,
            converged: fit.converged,
        }),
        Err(NumericsError::NonFiniteValue { .. }) => Ok(Minimum {
            x: seed
                .iter()
                .zip(bounds)
                .map(|(v, &(lo, hi))| v.max(lo).min(hi))
                .collect(),
            value: f64::INFINITY,
            evaluations: 1,
            converged: false,
        }),
        Err(e) => Err(e),
    }
}

/// The damped Gauss–Newton step `(JᵀJ + λ·diag(JᵀJ))·δ = −Jᵀr` over
/// the free parameters (the others stay put), or `None` when the damped
/// matrix is singular or the step not finite.
fn damped_step(
    normal: &Matrix,
    gradient: &[f64],
    free: &[bool],
    lambda: f64,
) -> Result<Option<Vec<f64>>> {
    let n = gradient.len();
    let mut damped = Matrix::identity(n);
    let mut rhs = vec![0.0; n];
    for i in (0..n).filter(|&i| free[i]) {
        for j in (0..n).filter(|&j| free[j]) {
            damped[(i, j)] = normal[(i, j)];
        }
        let d = normal[(i, i)];
        damped[(i, i)] = d + lambda * d.max(1e-12);
        rhs[i] = -gradient[i];
    }
    match damped.solve(&rhs) {
        Ok(delta) => Ok(delta.iter().all(|v| v.is_finite()).then_some(delta)),
        Err(NumericsError::SingularMatrix { .. }) => Ok(None),
        Err(e) => Err(e),
    }
}

/// The decrease of `‖r‖²` the linearized model predicts for `step`:
/// `−(2·gᵀs + sᵀ·JᵀJ·s)` with `g = Jᵀr`.
fn predicted_decrease(normal: &Matrix, gradient: &[f64], step: &[f64]) -> f64 {
    let n = gradient.len();
    -(0..n)
        .map(|i| {
            let quad: f64 = (0..n).map(|j| normal[(i, j)] * step[j]).sum();
            step[i] * (2.0 * gradient[i] + quad)
        })
        .sum::<f64>()
}

/// `Σ r_i²` in residual order; NaN anywhere makes it `+∞`.
fn sum_squares(r: &[f64]) -> f64 {
    let mut ss = 0.0;
    for v in r {
        ss += v * v;
    }
    if ss.is_nan() {
        f64::INFINITY
    } else {
        ss
    }
}

/// The gradient half `Jᵀr` and the Gauss–Newton matrix `JᵀJ`.
fn normal_equations(jac: &Matrix, r: &[f64]) -> (Vec<f64>, Matrix) {
    let (m, n) = (jac.rows(), jac.cols());
    let mut gradient = vec![0.0; n];
    let mut normal = Matrix::zeros(n, n);
    for i in 0..m {
        for a in 0..n {
            let ja = jac[(i, a)];
            gradient[a] += ja * r[i];
            for b in 0..n {
                normal[(a, b)] += ja * jac[(i, b)];
            }
        }
    }
    (gradient, normal)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A problem from a closure that writes the residuals and their
    /// analytic Jacobian.
    struct Analytic<F> {
        m: usize,
        n: usize,
        f: F,
    }

    impl<F: FnMut(&[f64], &mut [f64], &mut Matrix)> JacobianProblem for Analytic<F> {
        fn residual_count(&self) -> usize {
            self.m
        }

        fn parameter_count(&self) -> usize {
            self.n
        }

        fn evaluate(&mut self, p: &[f64], r: &mut [f64], jac: &mut Matrix) {
            (self.f)(p, r, jac);
        }
    }

    /// Fits `m` residuals in `n` parameters with no bounds.
    fn fit_unbounded(
        m: usize,
        n: usize,
        f: impl FnMut(&[f64], &mut [f64], &mut Matrix),
        p0: &[f64],
    ) -> Result<LmFit> {
        levenberg_marquardt_in_box(
            &mut Analytic { m, n, f },
            p0,
            &vec![(f64::NEG_INFINITY, f64::INFINITY); n],
            LmConfig::default(),
        )
    }

    /// Residuals `a·x_i + b − y_i` of a straight line.
    fn line(xs: Vec<f64>, ys: Vec<f64>) -> impl FnMut(&[f64], &mut [f64], &mut Matrix) {
        move |p, r, jac| {
            for i in 0..xs.len() {
                r[i] = p[0] * xs[i] + p[1] - ys[i];
                jac[(i, 0)] = xs[i];
                jac[(i, 1)] = 1.0;
            }
        }
    }

    #[test]
    fn fits_linear_model_exactly() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.5 * x - 2.0).collect();
        let fit = fit_unbounded(xs.len(), 2, line(xs, ys), &[1.0, 0.0]).unwrap();
        assert!(fit.converged);
        assert!((fit.parameters[0] - 3.5).abs() < 1e-8);
        assert!((fit.parameters[1] + 2.0).abs() < 1e-8);
        assert!(fit.sum_squares < 1e-14);
    }

    #[test]
    fn fits_paper_growth_rate_family() {
        // Recover r(t) = a·e^{−b(t−1)} + c with the paper's constants
        // a = 1.4, b = 1.5, c = 0.25 from noiseless samples (Fig. 6 curve).
        let ts: Vec<f64> = (0..40).map(|i| 1.0 + i as f64 * 0.125).collect();
        let ys: Vec<f64> = ts
            .iter()
            .map(|t| 1.4 * (-1.5 * (t - 1.0)).exp() + 0.25)
            .collect();
        let m = ts.len();
        let growth = move |p: &[f64], r: &mut [f64], jac: &mut Matrix| {
            for i in 0..m {
                let decay = (-p[1] * (ts[i] - 1.0)).exp();
                r[i] = p[0] * decay + p[2] - ys[i];
                jac[(i, 0)] = decay;
                jac[(i, 1)] = -p[0] * (ts[i] - 1.0) * decay;
                jac[(i, 2)] = 1.0;
            }
        };
        let fit = fit_unbounded(m, 3, growth, &[1.0, 1.0, 0.0]).unwrap();
        assert!(
            (fit.parameters[0] - 1.4).abs() < 1e-5,
            "{:?}",
            fit.parameters
        );
        assert!((fit.parameters[1] - 1.5).abs() < 1e-5);
        assert!((fit.parameters[2] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn fits_logistic_curve() {
        // Recover (r, K) of the logistic closed form from samples.
        let y0 = 2.0;
        let ts: Vec<f64> = (0..30).map(|i| i as f64 * 0.5).collect();
        let truth = |t: f64| 25.0 / (1.0 + (25.0 / y0 - 1.0) * (-0.8 * t).exp());
        let ys: Vec<f64> = ts.iter().map(|&t| truth(t)).collect();
        let m = ts.len();
        let logistic = move |p: &[f64], r: &mut [f64], jac: &mut Matrix| {
            let (rate, k) = (p[0], p[1]);
            for i in 0..m {
                let e = (-rate * ts[i]).exp();
                let denom = 1.0 + (k / y0 - 1.0) * e;
                r[i] = k / denom - ys[i];
                jac[(i, 0)] = k * (k / y0 - 1.0) * ts[i] * e / (denom * denom);
                jac[(i, 1)] = 1.0 / denom - k * e / (y0 * denom * denom);
            }
        };
        let fit = fit_unbounded(m, 2, logistic, &[0.3, 10.0]).unwrap();
        assert!((fit.parameters[0] - 0.8).abs() < 1e-5);
        assert!((fit.parameters[1] - 25.0).abs() < 1e-4);
    }

    #[test]
    fn handles_noisy_data_gracefully() {
        // Deterministic "noise" so the test is reproducible.
        let xs: Vec<f64> = (0..50).map(|i| i as f64 * 0.2).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 2.0 * x + 1.0 + 0.01 * ((i * 2654435761) % 100) as f64 / 100.0)
            .collect();
        let fit = fit_unbounded(xs.len(), 2, line(xs, ys), &[0.0, 0.0]).unwrap();
        assert!((fit.parameters[0] - 2.0).abs() < 0.01);
        assert!((fit.parameters[1] - 1.0).abs() < 0.02);
    }

    #[test]
    fn rejects_wrong_parameter_length() {
        let zero = |_: &[f64], r: &mut [f64], jac: &mut Matrix| {
            r[0] = 0.0;
            jac[(0, 0)] = 0.0;
        };
        let err = fit_unbounded(1, 1, zero, &[1.0, 2.0]).unwrap_err();
        assert!(matches!(err, NumericsError::DimensionMismatch { .. }));
    }

    #[test]
    fn rejects_non_finite_seed_residuals() {
        let nan = |_: &[f64], r: &mut [f64], _: &mut Matrix| r[0] = f64::NAN;
        let err = fit_unbounded(1, 1, nan, &[1.0]).unwrap_err();
        assert!(matches!(err, NumericsError::NonFiniteValue { .. }));
    }

    /// The Rosenbrock valley as residuals `(1 − x, 10·(y − x²))`,
    /// recording every point it is evaluated at.
    struct Valley {
        seen: Vec<Vec<f64>>,
    }

    impl JacobianProblem for Valley {
        fn residual_count(&self) -> usize {
            2
        }

        fn parameter_count(&self) -> usize {
            2
        }

        fn evaluate(&mut self, p: &[f64], r: &mut [f64], jac: &mut Matrix) {
            self.seen.push(p.to_vec());
            r[0] = 1.0 - p[0];
            r[1] = 10.0 * (p[1] - p[0] * p[0]);
            jac[(0, 0)] = -1.0;
            jac[(0, 1)] = 0.0;
            jac[(1, 0)] = -20.0 * p[0];
            jac[(1, 1)] = 10.0;
        }
    }

    #[test]
    fn trial_steps_stay_inside_the_box() {
        // The unconstrained minimum (1, 1) lies outside the box, and the
        // seed starts outside it too: every evaluated point must lie
        // inside, and the fit must end on the box's corner (0.5, 0.25)
        // nearest the valley floor.
        let bounds = [(-2.0, 0.5), (-1.0, 3.0)];
        let mut problem = Valley { seen: Vec::new() };
        let fit =
            levenberg_marquardt_in_box(&mut problem, &[-3.0, 4.0], &bounds, LmConfig::default())
                .unwrap();
        assert!(problem.seen.len() > 3, "{} evaluations", problem.seen.len());
        assert_eq!(problem.seen.len(), fit.evaluations);
        for p in &problem.seen {
            for (v, &(lo, hi)) in p.iter().zip(&bounds) {
                assert!((lo..=hi).contains(v), "{p:?} left the box");
            }
        }
        assert_eq!(fit.parameters[0], 0.5);
        assert!((fit.parameters[1] - 0.25).abs() < 1e-8, "{fit:?}");
        assert!(fit.converged);
    }

    #[test]
    fn rank_deficient_fits_do_not_error() {
        // One residual, three parameters: any point on the plane
        // p0 + 2·p1 − p2 = 4 is a minimum.
        struct Plane;
        impl JacobianProblem for Plane {
            fn residual_count(&self) -> usize {
                1
            }
            fn parameter_count(&self) -> usize {
                3
            }
            fn evaluate(&mut self, p: &[f64], r: &mut [f64], jac: &mut Matrix) {
                r[0] = p[0] + 2.0 * p[1] - p[2] - 4.0;
                jac[(0, 0)] = 1.0;
                jac[(0, 1)] = 2.0;
                jac[(0, 2)] = -1.0;
            }
        }
        let bounds = [(0.0, f64::INFINITY); 3];
        let fit =
            levenberg_marquardt_in_box(&mut Plane, &[0.5, 0.5, 0.5], &bounds, LmConfig::default())
                .unwrap();
        assert!(fit.sum_squares < 1e-20, "{fit:?}");
        assert!(fit.parameters.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn evaluation_budget_is_a_hard_cap() {
        for max_evals in [1, 2, 5] {
            let mut problem = Valley { seen: Vec::new() };
            let fit = levenberg_marquardt_in_box(
                &mut problem,
                &[-1.2, 1.0],
                &[(f64::NEG_INFINITY, f64::INFINITY); 2],
                LmConfig {
                    max_evals,
                    ..LmConfig::default()
                },
            )
            .unwrap();
            assert_eq!(fit.evaluations, max_evals);
            assert_eq!(problem.seen.len(), max_evals);
            assert!(!fit.converged);
        }
    }

    #[test]
    fn infeasible_trials_are_rejected_not_fatal() {
        // r = atan(10·(x − 0.75)) saturates, so the Gauss–Newton step
        // from x = 1 overshoots to x ≈ 0.14, where the residual is not
        // finite (x < 0.5). The fit must back off and still reach the
        // root at x = 0.75.
        struct Wall;
        impl JacobianProblem for Wall {
            fn residual_count(&self) -> usize {
                1
            }
            fn parameter_count(&self) -> usize {
                1
            }
            fn evaluate(&mut self, p: &[f64], r: &mut [f64], jac: &mut Matrix) {
                let z = 10.0 * (p[0] - 0.75);
                r[0] = if p[0] < 0.5 { f64::NAN } else { z.atan() };
                jac[(0, 0)] = 10.0 / (1.0 + z * z);
            }
        }
        let fit = levenberg_marquardt_in_box(
            &mut Wall,
            &[1.0],
            &[(f64::NEG_INFINITY, f64::INFINITY)],
            LmConfig::default(),
        )
        .unwrap();
        assert!((fit.parameters[0] - 0.75).abs() < 1e-8, "{fit:?}");
    }

    #[test]
    fn a_local_search_from_a_non_finite_seed_ends_there() {
        let bounds = [(0.0, 1.0)];
        let nan = |_: &[f64], r: &mut [f64], _: &mut Matrix| r[0] = f64::NAN;
        let mut problem = Analytic { m: 1, n: 1, f: nan };
        let stuck =
            local_search_in_box(&mut problem, &[3.0], &bounds, LmConfig::default()).unwrap();
        assert_eq!(stuck.x, [1.0]);
        assert_eq!(stuck.value, f64::INFINITY);
        assert_eq!(stuck.evaluations, 1);
        assert!(!stuck.converged);
        // A finite seed runs the fit, whose sum of squares is the value.
        let line = |p: &[f64], r: &mut [f64], jac: &mut Matrix| {
            r[0] = p[0] - 0.25;
            jac[(0, 0)] = 1.0;
        };
        let mut problem = Analytic {
            m: 1,
            n: 1,
            f: line,
        };
        let fit = local_search_in_box(&mut problem, &[3.0], &bounds, LmConfig::default()).unwrap();
        assert!(
            (fit.x[0] - 0.25).abs() < 1e-8 && fit.value < 1e-16,
            "{fit:?}"
        );
    }

    #[test]
    fn already_converged_seed_terminates_quickly() {
        let xs = [0.0, 1.0, 2.0];
        let slope = move |p: &[f64], r: &mut [f64], jac: &mut Matrix| {
            for i in 0..3 {
                r[i] = p[0] * xs[i] - 2.0 * xs[i];
                jac[(i, 0)] = xs[i];
            }
        };
        let fit = fit_unbounded(3, 1, slope, &[2.0]).unwrap();
        assert!(fit.converged);
        assert!(fit.sum_squares < 1e-20);
        assert!(fit.iterations <= 3);
    }
}
