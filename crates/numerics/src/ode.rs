//! Initial-value-problem integrators for systems of ODEs.
//!
//! The diffusive logistic PDE is solved in `dlm-core` by the method of lines:
//! discretize space, then integrate the resulting ODE system `y′ = f(t, y)`
//! in time. Two explicit integrators are provided, trading cost for
//! accuracy control:
//!
//! * [`rk4`] — classic fixed-step 4th-order Runge–Kutta;
//! * [`DormandPrince45`] — adaptive embedded 4(5) pair with PI step control
//!   (the default for non-stiff method-of-lines runs).
//!
//! Stiff fine-grid runs use `dlm-core`'s implicit θ-stepper instead.
//!
//! All integrators work on `&[f64]` state vectors and a user-supplied
//! right-hand side `f(t, y, dy)` that writes the derivative into `dy`.

use crate::error::{NumericsError, Result};

/// Right-hand side of an ODE system: writes `y′(t)` into `dy`.
pub trait OdeSystem {
    /// Evaluates the derivative at `(t, y)`, storing it in `dy`.
    fn eval(&self, t: f64, y: &[f64], dy: &mut [f64]);

    /// Dimension of the state vector.
    fn dim(&self) -> usize;
}

impl<F> OdeSystem for (F, usize)
where
    F: Fn(f64, &[f64], &mut [f64]),
{
    fn eval(&self, t: f64, y: &[f64], dy: &mut [f64]) {
        (self.0)(t, y, dy);
    }

    fn dim(&self) -> usize {
        self.1
    }
}

/// A dense solution trajectory: states recorded at requested times.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    times: Vec<f64>,
    states: Vec<Vec<f64>>,
}

impl Trajectory {
    fn new() -> Self {
        Self {
            times: Vec::new(),
            states: Vec::new(),
        }
    }

    fn push(&mut self, t: f64, y: Vec<f64>) {
        self.times.push(t);
        self.states.push(y);
    }

    /// Recorded sample times.
    #[must_use]
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Recorded states, parallel to [`Trajectory::times`].
    #[must_use]
    pub fn states(&self) -> &[Vec<f64>] {
        &self.states
    }

    /// The final state, if any step was recorded.
    #[must_use]
    pub fn last(&self) -> Option<(&f64, &[f64])> {
        match (self.times.last(), self.states.last()) {
            (Some(t), Some(s)) => Some((t, s.as_slice())),
            _ => None,
        }
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the trajectory holds no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }
}

fn validate_span(t0: f64, t1: f64, y0: &[f64], dim: usize) -> Result<()> {
    if !(t0.is_finite() && t1.is_finite()) || t1 <= t0 {
        return Err(NumericsError::InvalidParameter {
            name: "time span",
            reason: format!("need finite t0 < t1, got [{t0}, {t1}]"),
        });
    }
    if y0.len() != dim {
        return Err(NumericsError::DimensionMismatch {
            expected: format!("state length {dim}"),
            actual: y0.len(),
        });
    }
    if y0.iter().any(|v| !v.is_finite()) {
        return Err(NumericsError::NonFiniteValue {
            context: "initial state".into(),
        });
    }
    Ok(())
}

/// Integrates `y′ = f(t, y)` from `t0` to `t1` with classic RK4 using
/// `steps` equal steps, recording every step (including the initial state).
///
/// # Errors
///
/// * [`NumericsError::InvalidParameter`] — non-finite span, `t1 <= t0`, or
///   `steps == 0`.
/// * [`NumericsError::DimensionMismatch`] / [`NumericsError::NonFiniteValue`]
///   — malformed initial state.
/// * [`NumericsError::NonFiniteValue`] — the solution blew up mid-run.
///
/// # Examples
///
/// ```
/// use dlm_numerics::ode::rk4;
///
/// # fn main() -> Result<(), dlm_numerics::NumericsError> {
/// // y' = -y, y(0) = 1  ⇒  y(1) = e⁻¹.
/// let sys = (|_t: f64, y: &[f64], dy: &mut [f64]| dy[0] = -y[0], 1usize);
/// let traj = rk4(&sys, 0.0, 1.0, &[1.0], 100)?;
/// let (_, y) = traj.last().expect("nonempty");
/// assert!((y[0] - (-1.0f64).exp()).abs() < 1e-8);
/// # Ok(())
/// # }
/// ```
pub fn rk4<S: OdeSystem + ?Sized>(
    sys: &S,
    t0: f64,
    t1: f64,
    y0: &[f64],
    steps: usize,
) -> Result<Trajectory> {
    validate_span(t0, t1, y0, sys.dim())?;
    if steps == 0 {
        return Err(NumericsError::InvalidParameter {
            name: "steps",
            reason: "must be positive".into(),
        });
    }
    let n = y0.len();
    let h = (t1 - t0) / steps as f64;
    let mut y = y0.to_vec();
    let mut traj = Trajectory::new();
    traj.push(t0, y.clone());

    let mut k1 = vec![0.0; n];
    let mut k2 = vec![0.0; n];
    let mut k3 = vec![0.0; n];
    let mut k4 = vec![0.0; n];
    let mut tmp = vec![0.0; n];

    for s in 0..steps {
        let t = t0 + s as f64 * h;
        sys.eval(t, &y, &mut k1);
        for i in 0..n {
            tmp[i] = y[i] + 0.5 * h * k1[i];
        }
        sys.eval(t + 0.5 * h, &tmp, &mut k2);
        for i in 0..n {
            tmp[i] = y[i] + 0.5 * h * k2[i];
        }
        sys.eval(t + 0.5 * h, &tmp, &mut k3);
        for i in 0..n {
            tmp[i] = y[i] + h * k3[i];
        }
        sys.eval(t + h, &tmp, &mut k4);
        for i in 0..n {
            y[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
        if y.iter().any(|v| !v.is_finite()) {
            return Err(NumericsError::NonFiniteValue {
                context: format!("rk4 state at t = {:.6}", t + h),
            });
        }
        traj.push(t + h, y.clone());
    }
    Ok(traj)
}

/// Configuration for the adaptive Dormand–Prince 4(5) integrator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Relative tolerance on the local error estimate.
    pub rel_tol: f64,
    /// Absolute tolerance on the local error estimate.
    pub abs_tol: f64,
    /// Initial step size (will be adapted immediately).
    pub initial_step: f64,
    /// Smallest permissible step before [`NumericsError::StepSizeUnderflow`].
    pub min_step: f64,
    /// Largest permissible step.
    pub max_step: f64,
    /// Hard cap on accepted + rejected steps.
    pub max_steps: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            rel_tol: 1e-8,
            abs_tol: 1e-10,
            initial_step: 1e-3,
            min_step: 1e-12,
            max_step: f64::INFINITY,
            max_steps: 1_000_000,
        }
    }
}

/// Adaptive Dormand–Prince 4(5) integrator (the method behind MATLAB's
/// `ode45`).
///
/// # Examples
///
/// ```
/// use dlm_numerics::ode::{AdaptiveConfig, DormandPrince45};
///
/// # fn main() -> Result<(), dlm_numerics::NumericsError> {
/// let sys = (|_t: f64, y: &[f64], dy: &mut [f64]| dy[0] = y[0], 1usize);
/// let solver = DormandPrince45::new(AdaptiveConfig::default());
/// let traj = solver.integrate(&sys, 0.0, 1.0, &[1.0])?;
/// let (_, y) = traj.last().expect("nonempty");
/// assert!((y[0] - 1.0f64.exp()).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DormandPrince45 {
    config: AdaptiveConfig,
}

impl Default for DormandPrince45 {
    fn default() -> Self {
        Self::new(AdaptiveConfig::default())
    }
}

impl DormandPrince45 {
    /// Creates a solver with the given adaptive-step configuration.
    #[must_use]
    pub fn new(config: AdaptiveConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &AdaptiveConfig {
        &self.config
    }

    /// Integrates from `t0` to `t1`, recording every *accepted* step.
    ///
    /// # Errors
    ///
    /// * [`NumericsError::InvalidParameter`] — bad span or tolerances.
    /// * [`NumericsError::StepSizeUnderflow`] — error control forced the
    ///   step below `min_step` (usually a stiff problem; use an implicit
    ///   scheme).
    /// * [`NumericsError::NoConvergence`] — `max_steps` exhausted.
    /// * [`NumericsError::NonFiniteValue`] — solution blew up.
    pub fn integrate<S: OdeSystem + ?Sized>(
        &self,
        sys: &S,
        t0: f64,
        t1: f64,
        y0: &[f64],
    ) -> Result<Trajectory> {
        validate_span(t0, t1, y0, sys.dim())?;
        let cfg = &self.config;
        if cfg.rel_tol <= 0.0 || cfg.abs_tol <= 0.0 {
            return Err(NumericsError::InvalidParameter {
                name: "tolerance",
                reason: "rel_tol and abs_tol must be positive".into(),
            });
        }

        // Dormand–Prince coefficients.
        const C: [f64; 7] = [0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0];
        const A: [[f64; 6]; 7] = [
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [1.0 / 5.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [3.0 / 40.0, 9.0 / 40.0, 0.0, 0.0, 0.0, 0.0],
            [44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0, 0.0, 0.0, 0.0],
            [
                19372.0 / 6561.0,
                -25360.0 / 2187.0,
                64448.0 / 6561.0,
                -212.0 / 729.0,
                0.0,
                0.0,
            ],
            [
                9017.0 / 3168.0,
                -355.0 / 33.0,
                46732.0 / 5247.0,
                49.0 / 176.0,
                -5103.0 / 18656.0,
                0.0,
            ],
            [
                35.0 / 384.0,
                0.0,
                500.0 / 1113.0,
                125.0 / 192.0,
                -2187.0 / 6784.0,
                11.0 / 84.0,
            ],
        ];
        // 5th-order solution weights (same as A[6]) and 4th-order embedded weights.
        const B5: [f64; 7] = [
            35.0 / 384.0,
            0.0,
            500.0 / 1113.0,
            125.0 / 192.0,
            -2187.0 / 6784.0,
            11.0 / 84.0,
            0.0,
        ];
        const B4: [f64; 7] = [
            5179.0 / 57600.0,
            0.0,
            7571.0 / 16695.0,
            393.0 / 640.0,
            -92097.0 / 339200.0,
            187.0 / 2100.0,
            1.0 / 40.0,
        ];

        let n = y0.len();
        let mut t = t0;
        let mut y = y0.to_vec();
        let mut h = cfg.initial_step.min(t1 - t0).min(cfg.max_step);
        let mut traj = Trajectory::new();
        traj.push(t, y.clone());

        let mut k = vec![vec![0.0; n]; 7];
        let mut tmp = vec![0.0; n];
        let mut y5 = vec![0.0; n];
        let mut steps_taken = 0usize;
        // PI controller memory.
        let mut err_prev: f64 = 1.0;

        while t < t1 {
            if steps_taken >= cfg.max_steps {
                return Err(NumericsError::NoConvergence {
                    algorithm: "dormand-prince45",
                    iterations: steps_taken,
                    residual: t1 - t,
                });
            }
            steps_taken += 1;
            h = h.min(t1 - t);

            // Evaluate the seven stages: tmp = y + h·Σ_{j<s} A[s][j]·k[j].
            for s in 0..7 {
                for i in 0..n {
                    let mut acc = 0.0;
                    for (j, kj) in k.iter().enumerate().take(s) {
                        acc += A[s][j] * kj[i];
                    }
                    tmp[i] = y[i] + h * acc;
                }
                let t_stage = t + C[s] * h;
                let (_, rest) = k.split_at_mut(s);
                sys.eval(t_stage, &tmp, &mut rest[0]);
            }

            // 5th-order candidate and embedded error estimate.
            let mut err_norm: f64 = 0.0;
            for i in 0..n {
                let mut acc5 = 0.0;
                let mut acc4 = 0.0;
                for s in 0..7 {
                    acc5 += B5[s] * k[s][i];
                    acc4 += B4[s] * k[s][i];
                }
                y5[i] = y[i] + h * acc5;
                let e = h * (acc5 - acc4);
                let scale = cfg.abs_tol + cfg.rel_tol * y[i].abs().max(y5[i].abs());
                let r = e / scale;
                err_norm += r * r;
            }
            err_norm = (err_norm / n as f64).sqrt();

            if !err_norm.is_finite() {
                return Err(NumericsError::NonFiniteValue {
                    context: format!("dp45 error estimate at t = {t:.6}"),
                });
            }

            if err_norm <= 1.0 {
                // Accept.
                t += h;
                y.copy_from_slice(&y5);
                traj.push(t, y.clone());
                // PI step control (0.7/0.4 exponents, Hairer–Nørsett–Wanner).
                let fac = 0.9
                    * err_norm.max(1e-10).powf(-0.7 / 5.0)
                    * err_prev.max(1e-10).powf(0.4 / 5.0);
                h = (h * fac.clamp(0.2, 5.0)).min(cfg.max_step);
                err_prev = err_norm.max(1e-10);
            } else {
                // Reject: shrink.
                let fac = (0.9 * err_norm.powf(-0.2)).clamp(0.1, 0.9);
                h *= fac;
            }
            if h < cfg.min_step {
                return Err(NumericsError::StepSizeUnderflow { t, step: h });
            }
        }
        Ok(traj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// y' = λy has solution e^{λt}.
    fn exp_system(lambda: f64) -> impl OdeSystem {
        (
            move |_t: f64, y: &[f64], dy: &mut [f64]| dy[0] = lambda * y[0],
            1usize,
        )
    }

    /// Logistic ODE y' = r·y·(1 − y/k) with closed form solution.
    fn logistic_system(r: f64, k: f64) -> impl OdeSystem {
        (
            move |_t: f64, y: &[f64], dy: &mut [f64]| dy[0] = r * y[0] * (1.0 - y[0] / k),
            1usize,
        )
    }

    fn logistic_exact(t: f64, y0: f64, r: f64, k: f64) -> f64 {
        k / (1.0 + (k / y0 - 1.0) * (-r * t).exp())
    }

    #[test]
    fn rk4_exponential_decay_converges_4th_order() {
        let sys = exp_system(-1.0);
        let exact = (-1.0f64).exp();
        let e100 = {
            let t = rk4(&sys, 0.0, 1.0, &[1.0], 100).unwrap();
            (t.last().unwrap().1[0] - exact).abs()
        };
        let e200 = {
            let t = rk4(&sys, 0.0, 1.0, &[1.0], 200).unwrap();
            (t.last().unwrap().1[0] - exact).abs()
        };
        // Halving the step should shrink the error by ~2⁴ = 16.
        assert!(e100 / e200 > 12.0, "observed ratio {}", e100 / e200);
    }

    #[test]
    fn rk4_logistic_matches_closed_form() {
        let (r, k, y0) = (0.8, 25.0, 2.0);
        let sys = logistic_system(r, k);
        let traj = rk4(&sys, 0.0, 10.0, &[y0], 1000).unwrap();
        for (t, y) in traj.times().iter().zip(traj.states()) {
            let exact = logistic_exact(*t, y0, r, k);
            assert!((y[0] - exact).abs() < 1e-6, "t = {t}");
        }
    }

    #[test]
    fn rk4_harmonic_oscillator_conserves_energy_approximately() {
        // y'' = -y as a 2-system; energy drift over 10 periods stays tiny.
        let sys = (
            |_t: f64, y: &[f64], dy: &mut [f64]| {
                dy[0] = y[1];
                dy[1] = -y[0];
            },
            2usize,
        );
        let traj = rk4(&sys, 0.0, 20.0 * std::f64::consts::PI, &[1.0, 0.0], 20_000).unwrap();
        let (_, last) = traj.last().unwrap();
        let energy = last[0] * last[0] + last[1] * last[1];
        assert!((energy - 1.0).abs() < 1e-6);
    }

    #[test]
    fn rk4_rejects_zero_steps() {
        let sys = exp_system(1.0);
        assert!(rk4(&sys, 0.0, 1.0, &[1.0], 0).is_err());
    }

    #[test]
    fn rk4_rejects_reversed_span() {
        let sys = exp_system(1.0);
        assert!(rk4(&sys, 1.0, 0.0, &[1.0], 10).is_err());
    }

    #[test]
    fn rk4_rejects_wrong_state_length() {
        let sys = exp_system(1.0);
        assert!(rk4(&sys, 0.0, 1.0, &[1.0, 2.0], 10).is_err());
    }

    #[test]
    fn rk4_detects_blowup() {
        // y' = y² from y(0) = 1 blows up at t = 1.
        let sys = (
            |_t: f64, y: &[f64], dy: &mut [f64]| dy[0] = y[0] * y[0],
            1usize,
        );
        let err = rk4(&sys, 0.0, 2.0, &[1.0], 50).unwrap_err();
        assert!(matches!(err, NumericsError::NonFiniteValue { .. }));
    }

    #[test]
    fn dp45_exponential_growth_high_accuracy() {
        let sys = exp_system(1.0);
        let solver = DormandPrince45::default();
        let traj = solver.integrate(&sys, 0.0, 1.0, &[1.0]).unwrap();
        let (_, y) = traj.last().unwrap();
        assert!((y[0] - 1.0f64.exp()).abs() < 1e-7);
    }

    #[test]
    fn dp45_logistic_matches_closed_form() {
        let (r, k, y0) = (1.2, 60.0, 0.5);
        let sys = logistic_system(r, k);
        let solver = DormandPrince45::default();
        let traj = solver.integrate(&sys, 0.0, 12.0, &[y0]).unwrap();
        let (t, y) = traj.last().unwrap();
        assert!((t - 12.0).abs() < 1e-12);
        assert!((y[0] - logistic_exact(12.0, y0, r, k)).abs() < 1e-5);
    }

    #[test]
    fn dp45_adapts_step_count_to_tolerance() {
        let sys = exp_system(-2.0);
        let loose = DormandPrince45::new(AdaptiveConfig {
            rel_tol: 1e-4,
            abs_tol: 1e-6,
            ..AdaptiveConfig::default()
        });
        let tight = DormandPrince45::new(AdaptiveConfig {
            rel_tol: 1e-11,
            abs_tol: 1e-13,
            ..AdaptiveConfig::default()
        });
        let n_loose = loose.integrate(&sys, 0.0, 5.0, &[1.0]).unwrap().len();
        let n_tight = tight.integrate(&sys, 0.0, 5.0, &[1.0]).unwrap().len();
        assert!(n_tight > n_loose, "{n_tight} vs {n_loose}");
    }

    #[test]
    fn dp45_reaches_exact_endpoint() {
        let sys = exp_system(0.3);
        let traj = DormandPrince45::default()
            .integrate(&sys, 1.0, 7.5, &[2.0])
            .unwrap();
        let (t, _) = traj.last().unwrap();
        assert!((t - 7.5).abs() < 1e-12);
    }

    #[test]
    fn dp45_rejects_nonpositive_tolerances() {
        let solver = DormandPrince45::new(AdaptiveConfig {
            rel_tol: 0.0,
            ..AdaptiveConfig::default()
        });
        let sys = exp_system(1.0);
        assert!(solver.integrate(&sys, 0.0, 1.0, &[1.0]).is_err());
    }

    #[test]
    fn trajectory_accessors_consistent() {
        let sys = exp_system(0.0);
        let traj = rk4(&sys, 0.0, 1.0, &[5.0], 4).unwrap();
        assert_eq!(traj.len(), 5);
        assert!(!traj.is_empty());
        assert_eq!(traj.times().len(), traj.states().len());
        assert_eq!(traj.last().unwrap().1[0], 5.0);
    }
}
