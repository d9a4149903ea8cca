//! Numerical solution of the diffusive logistic equation (Eq. 4).
//!
//! ```text
//! ∂I/∂t = d ∂²I/∂x² + r(t)·I·(1 − I/K),   x ∈ [l, L], t ≥ 1
//! I(x, 1) = φ(x)
//! ∂I/∂x(l, t) = ∂I/∂x(L, t) = 0            (Neumann: no flux)
//! ```
//!
//! Space is discretized on a uniform grid with the standard second-order
//! Laplacian; the Neumann boundary uses ghost-node reflection, preserving
//! second-order accuracy. Four time steppers are available:
//!
//! * [`SolverMethod::CrankNicolson`] *(default)* — second order in time,
//!   A-stable; each step solves the nonlinear system with damped Newton
//!   and an O(n) tridiagonal factorization.
//! * [`SolverMethod::BackwardEuler`] — first order, L-stable; robustness
//!   fallback for stiff fine grids.
//! * [`SolverMethod::Rk4`] / [`SolverMethod::DormandPrince45`] — explicit
//!   method-of-lines via [`dlm_numerics::ode`]; used to cross-validate the
//!   implicit schemes (see the `pde_solvers` ablation bench).
//!
//! Both implicit schemes, and the §V variable-coefficient model in
//! [`crate::variable`], run through one θ-stepper. It takes the Laplacian
//! in one of two floating-point forms: `d/Δx²` times the standard stencil
//! for Eq. 4, or conservative face diffusivities `d_{j+1/2}` for §V. It
//! is generic over how growth and capacity are stored: one scalar for
//! Eq. 4, one value per node for §V. The stepper allocates its workspace
//! once per solve and evaluates coefficients once per step, so the step
//! loop allocates nothing. It records no rows either: it hands each step
//! to an observer. [`solve`] records them all; the prediction readout in
//! [`crate::model`] keeps only the integer-hour cells and the last state,
//! and can resume stepping from that state; the calibration objective
//! keeps only its target cells. With a tangent the stepper also carries
//! the forward sensitivities of the θ-scheme in Eq. 4's parameters
//! ([`solve_sensitivities`]): after each converged step it refactors
//! the Newton Jacobian at the converged field once and back-substitutes
//! one right-hand side per parameter, with no second Newton loop. The
//! calibration objective takes its Jacobian from them. Its output is
//! pinned bit for bit:
//! `tests/solver_validation.rs` hashes every time and value bit of
//! reference solves of both models and of served-lineup fits, and pins
//! resumed readouts against fresh solves. A stepper change that moves any
//! bit must re-baseline those hashes deliberately.

use crate::error::{DlError, Result};
use crate::growth::{ExpDecayGrowth, GrowthRate};
use crate::initial::InitialDensity;
use crate::params::DlParameters;
use dlm_numerics::ode::{rk4, AdaptiveConfig, DormandPrince45};
use dlm_numerics::tridiag::{solve_tridiagonal_into, solve_tridiagonal_many_into};

/// Time-stepping scheme for the method-of-lines system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverMethod {
    /// Crank–Nicolson with damped Newton (the default).
    #[default]
    CrankNicolson,
    /// Backward Euler with damped Newton.
    BackwardEuler,
    /// Classic fixed-step RK4 on the semi-discrete system.
    Rk4,
    /// Adaptive Dormand–Prince 4(5) on the semi-discrete system.
    DormandPrince45,
}

/// Spatial/temporal resolution of the solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverConfig {
    /// Time-stepping scheme.
    pub method: SolverMethod,
    /// Number of grid *intervals* (grid points = intervals + 1).
    pub space_intervals: usize,
    /// Time step (hours). Explicit methods subdivide further if needed for
    /// stability.
    pub dt: f64,
}

impl SolverMethod {
    /// Whether the method runs on the implicit θ-stepper (CN or BE).
    #[must_use]
    pub(crate) fn is_theta(self) -> bool {
        matches!(self, Self::CrankNicolson | Self::BackwardEuler)
    }
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            method: SolverMethod::CrankNicolson,
            space_intervals: 100,
            dt: 0.01,
        }
    }
}

/// A solved space–time field `I(x, t)` on the discretization grid.
#[derive(Debug, Clone, PartialEq)]
pub struct PdeSolution {
    xs: Vec<f64>,
    times: Vec<f64>,
    /// values[k][j] = I(xs[j], times[k]).
    values: Vec<Vec<f64>>,
}

impl PdeSolution {
    /// Grid abscissae.
    #[must_use]
    pub fn grid(&self) -> &[f64] {
        &self.xs
    }

    /// Recorded times (starting at the initial time).
    #[must_use]
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Raw field values, one row per recorded time.
    #[must_use]
    pub fn values(&self) -> &[Vec<f64>] {
        &self.values
    }

    /// Bilinear interpolation of `I(x, t)` anywhere inside the solved
    /// rectangle.
    ///
    /// # Errors
    ///
    /// Returns [`DlError::OutOfDomain`] for queries outside the grid.
    pub fn value_at(&self, x: f64, t: f64) -> Result<f64> {
        let (x0, x1) = (self.xs[0], *self.xs.last().expect("nonempty grid"));
        // Negated so that NaN fails both checks.
        if !(x >= x0 - 1e-9 && x <= x1 + 1e-9) {
            return Err(DlError::OutOfDomain {
                axis: "distance",
                value: x,
                range: (x0, x1),
            });
        }
        let (t0, t1) = (self.times[0], *self.times.last().expect("nonempty times"));
        if !(t >= t0 - 1e-9 && t <= t1 + 1e-9) {
            return Err(DlError::OutOfDomain {
                axis: "time",
                value: t,
                range: (t0, t1),
            });
        }
        let x = x.clamp(x0, x1);
        let t = t.clamp(t0, t1);

        // Locate time bracket.
        let ti = match self.times.binary_search_by(|v| v.total_cmp(&t)) {
            Ok(i) => return Ok(interp_row(&self.xs, &self.values[i], x)),
            Err(i) => i.clamp(1, self.times.len() - 1),
        };
        Ok(Step {
            xs: &self.xs,
            now: (self.times[ti - 1], &self.values[ti - 1]),
            next: (self.times[ti], &self.values[ti]),
            sens: None,
        }
        .value(x, t))
    }

    /// The spatial profile at the recorded time nearest to `t`.
    #[must_use]
    pub fn profile_near(&self, t: f64) -> &[f64] {
        let idx = self
            .times
            .iter()
            .enumerate()
            .min_by(|a, b| (a.1 - t).abs().total_cmp(&(b.1 - t).abs()))
            .map(|(i, _)| i)
            .expect("nonempty times");
        &self.values[idx]
    }

    /// Global maximum of the solved field.
    #[must_use]
    pub fn max_value(&self) -> f64 {
        self.values
            .iter()
            .flatten()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Global minimum of the solved field.
    #[must_use]
    pub fn min_value(&self) -> f64 {
        self.values
            .iter()
            .flatten()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }
}

/// `I(x)` on one row of grid values by linear interpolation, for `x`
/// already clamped to the grid.
pub(crate) fn interp_row(xs: &[f64], row: &[f64], x: f64) -> f64 {
    let n = xs.len();
    if x <= xs[0] {
        return row[0];
    }
    if x >= xs[n - 1] {
        return row[n - 1];
    }
    let dx = xs[1] - xs[0];
    let j = (((x - xs[0]) / dx).floor() as usize).min(n - 2);
    let w = (x - xs[j]) / dx;
    row[j] * (1.0 - w) + row[j + 1] * w
}

/// One step of a solve, as its observer sees it: the grid and the
/// field at the step's start and end times, and with a [`Tangent`] the
/// sensitivities at both (one row per parameter, back to back).
pub(crate) struct Step<'a> {
    pub(crate) xs: &'a [f64],
    pub(crate) now: (f64, &'a [f64]),
    pub(crate) next: (f64, &'a [f64]),
    pub(crate) sens: Option<(&'a [f64], &'a [f64])>,
}

impl Step<'_> {
    /// `I(x, t)` for `t` in `(now, next]` and `x` clamped to the grid:
    /// bit for bit what [`PdeSolution::value_at`] reads from a recorded
    /// trajectory that holds this step.
    pub(crate) fn value(&self, x: f64, t: f64) -> f64 {
        self.read(self.now.1, self.next.1, x, t)
    }

    /// `∂I/∂p_q` at `(x, t)`, read with the weights of [`Step::value`]:
    /// the readout is linear in the field, so this is its exact
    /// derivative. Needs a step of a solve with a tangent.
    pub(crate) fn partial(&self, q: usize, x: f64, t: f64) -> f64 {
        let (now, next) = self.sens.expect("a step of a solve with a tangent");
        let rows = q * self.xs.len()..(q + 1) * self.xs.len();
        self.read(&now[rows.clone()], &next[rows], x, t)
    }

    fn read(&self, va: &[f64], vb: &[f64], x: f64, t: f64) -> f64 {
        let (ta, tb) = (self.now.0, self.next.0);
        if t == tb {
            return interp_row(self.xs, vb, x);
        }
        let w = if tb > ta { (t - ta) / (tb - ta) } else { 0.0 };
        interp_row(self.xs, va, x) * (1.0 - w) + interp_row(self.xs, vb, x) * w
    }
}

/// The observer a solve hands each step to.
pub(crate) type Observer<'o> = &'o mut dyn FnMut(&Step<'_>);

/// Builds the uniform grid of `config.space_intervals` intervals over
/// `[lower, upper]` and returns it with its spacing and φ on it, after
/// checking the resolution and time span every solver in this crate
/// needs.
///
/// # Errors
///
/// [`DlError::InvalidParameter`] for fewer than 2 intervals, a
/// non-positive (or NaN) `dt`, or `t_end ≤ t_start`.
pub(crate) fn start(
    lower: f64,
    upper: f64,
    phi: &InitialDensity,
    config: &SolverConfig,
    t_start: f64,
    t_end: f64,
) -> Result<(Vec<f64>, f64, Vec<f64>)> {
    let m = config.space_intervals;
    if m < 2 {
        return Err(DlError::InvalidParameter {
            name: "space_intervals",
            reason: "need at least 2 intervals".into(),
        });
    }
    if !(config.dt > 0.0) {
        return Err(DlError::InvalidParameter {
            name: "dt",
            reason: format!("must be positive, got {}", config.dt),
        });
    }
    if !(t_end > t_start) {
        return Err(DlError::InvalidParameter {
            name: "t_end",
            reason: format!("need t_end > t_start, got [{t_start}, {t_end}]"),
        });
    }
    let dx = (upper - lower) / m as f64;
    let xs: Vec<f64> = (0..=m).map(|j| lower + j as f64 * dx).collect();
    let u0 = xs.iter().map(|&x| phi.value(x)).collect();
    Ok((xs, dx, u0))
}

/// Solves the DL equation from `t_start` to `t_end`, recording the field at
/// every time step.
///
/// # Errors
///
/// * [`DlError::InvalidParameter`] — degenerate config (fewer than 2
///   intervals, non-positive `dt`, `t_end ≤ t_start`).
/// * Propagates Newton/tridiagonal failures from the implicit schemes and
///   integrator failures from the explicit ones.
pub fn solve(
    params: &DlParameters,
    growth: &dyn GrowthRate,
    phi: &InitialDensity,
    t_start: f64,
    t_end: f64,
    config: &SolverConfig,
) -> Result<PdeSolution> {
    let (xs, dx, u0) = start(params.lower(), params.upper(), phi, config, t_start, t_end)?;
    let d_over_dx2 = params.diffusion() / (dx * dx);
    let sys = MolSystem {
        growth,
        d_over_dx2,
        k: params.capacity(),
        dim: xs.len(),
    };
    let traj = match config.method {
        SolverMethod::CrankNicolson | SolverMethod::BackwardEuler => {
            return record(xs, u0, t_start, |xs, u, observe| {
                step_eq4(
                    params, growth, config, xs, dx, u, 0, t_start, t_end, None, observe,
                )
            });
        }
        SolverMethod::Rk4 => {
            let steps = ((t_end - t_start) / config.dt).ceil() as usize;
            rk4(&sys, t_start, t_end, &u0, steps.max(1))?
        }
        SolverMethod::DormandPrince45 => DormandPrince45::new(AdaptiveConfig {
            rel_tol: 1e-8,
            abs_tol: 1e-10,
            initial_step: config.dt,
            ..AdaptiveConfig::default()
        })
        .integrate(&sys, t_start, t_end, &u0)?,
    };
    Ok(PdeSolution {
        xs,
        times: traj.times().to_vec(),
        values: traj.states().to_vec(),
    })
}

/// Eq. 4 on the θ-stepper (CN or BE, from `config.method`): steps the
/// field `u` on the grid `xs` from step `first_step` of a solve from
/// `t_start` on to `t_end`, and the sensitivities of `tangent` with it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn step_eq4(
    params: &DlParameters,
    growth: &dyn GrowthRate,
    config: &SolverConfig,
    xs: &[f64],
    dx: f64,
    u: &mut Vec<f64>,
    first_step: usize,
    t_start: f64,
    t_end: f64,
    tangent: Option<&mut Tangent<'_>>,
    observe: Observer<'_>,
) -> Result<()> {
    // Implicit weight: CN splits the operator evenly; BE is fully
    // implicit.
    let theta = if config.method == SolverMethod::CrankNicolson {
        0.5
    } else {
        1.0
    };
    let k = params.capacity();
    solve_theta(
        xs,
        u,
        first_step,
        t_start,
        t_end,
        config.dt,
        theta,
        UniformDiffusion(params.diffusion() / (dx * dx)),
        |t, r: &mut f64, capacity: &mut f64| {
            *r = growth.rate(t);
            *capacity = k;
        },
        tangent,
        observe,
    )
}

/// Runs `run` from `u0` at `t_start` (step 0) and records every step it
/// observes: the full trajectory of a θ-solve.
pub(crate) fn record(
    xs: Vec<f64>,
    u0: Vec<f64>,
    t_start: f64,
    run: impl FnOnce(&[f64], &mut Vec<f64>, Observer<'_>) -> Result<()>,
) -> Result<PdeSolution> {
    let mut times = vec![t_start];
    let mut values = vec![u0.clone()];
    let mut u = u0;
    run(&xs, &mut u, &mut |step| {
        times.push(step.next.0);
        values.push(step.next.1.to_vec());
    })?;
    Ok(PdeSolution { xs, times, values })
}

/// Method-of-lines right-hand side shared by the explicit steppers.
struct MolSystem<'a> {
    growth: &'a dyn GrowthRate,
    d_over_dx2: f64,
    k: f64,
    dim: usize,
}

impl dlm_numerics::ode::OdeSystem for MolSystem<'_> {
    fn eval(&self, t: f64, y: &[f64], dy: &mut [f64]) {
        UniformDiffusion(self.d_over_dx2).apply(y, dy);
        let r = self.growth.rate(t);
        for (dyj, &yj) in dy.iter_mut().zip(y) {
            *dyj += r * yj * (1.0 - yj / self.k);
        }
    }

    fn dim(&self) -> usize {
        self.dim
    }
}

/// The discrete Neumann-closed Laplacian `Lap` of the θ-stepper, in the
/// floating-point form of the model that owns it. Each form is its own
/// type, so a stepper instance compiles only its own stencil.
pub(crate) trait Diffusion {
    /// `out = Lap u`, closed by ghost-node reflection at both walls.
    fn apply(&self, u: &[f64], out: &mut [f64]);

    /// For implicit weight `w = dt·θ`, the `n − 1` couplings `−w·Lap`
    /// between neighbours and the `n` diagonal entries of `I − w·Lap`,
    /// before ghost-node reflection doubles the two boundary couplings.
    fn implicit_parts(&self, n: usize, w: f64) -> (Vec<f64>, Vec<f64>);
}

/// Eq. 4's constant diffusion: `d/Δx²` times the standard stencil.
pub(crate) struct UniformDiffusion(pub(crate) f64);

impl Diffusion for UniformDiffusion {
    fn apply(&self, u: &[f64], out: &mut [f64]) {
        let (d_over_dx2, n) = (self.0, u.len());
        out[0] = d_over_dx2 * 2.0 * (u[1] - u[0]);
        for j in 1..n - 1 {
            out[j] = d_over_dx2 * (u[j - 1] - 2.0 * u[j] + u[j + 1]);
        }
        out[n - 1] = d_over_dx2 * 2.0 * (u[n - 2] - u[n - 1]);
    }

    fn implicit_parts(&self, n: usize, w: f64) -> (Vec<f64>, Vec<f64>) {
        // Laplacian diagonal is −2a at every node (boundary rows differ
        // only in their off-diagonal).
        let a = w * self.0;
        (vec![-a; n - 1], vec![1.0 + 2.0 * a; n])
    }
}

/// §V's conservative finite-volume form: face diffusivities
/// `d_{j+1/2}` and `1/Δx²`.
pub(crate) struct FaceDiffusion<'a>(pub(crate) &'a [f64], pub(crate) f64);

impl Diffusion for FaceDiffusion<'_> {
    // Left to itself the compiler calls this stencil out of line, which
    // costs the variable-coefficient solve about 5%.
    #[inline(always)]
    fn apply(&self, u: &[f64], out: &mut [f64]) {
        let (faces, inv_dx2, n) = (self.0, self.1, u.len());
        out[0] = 2.0 * faces[0] * (u[1] - u[0]) * inv_dx2;
        for j in 1..n - 1 {
            out[j] = (faces[j] * (u[j + 1] - u[j]) - faces[j - 1] * (u[j] - u[j - 1])) * inv_dx2;
        }
        out[n - 1] = 2.0 * faces[n - 2] * (u[n - 2] - u[n - 1]) * inv_dx2;
    }

    fn implicit_parts(&self, n: usize, w: f64) -> (Vec<f64>, Vec<f64>) {
        let (faces, a) = (self.0, w * self.1);
        let diag = (0..n)
            .map(|j| {
                let lap_diag = if j == 0 {
                    2.0 * faces[0]
                } else if j == n - 1 {
                    2.0 * faces[n - 2]
                } else {
                    faces[j] + faces[j - 1]
                };
                1.0 + a * lap_diag
            })
            .collect();
        (faces.iter().map(|&f| -a * f).collect(), diag)
    }
}

/// Growth or capacity at every grid node at one time: one `f64` shared
/// by every node for Eq. 4, one value per node for §V.
pub(crate) trait NodeValues {
    /// Storage for `n` nodes before the first fill.
    fn zeros(n: usize) -> Self;

    /// The value at node `j`.
    fn at(&self, j: usize) -> f64;
}

impl NodeValues for f64 {
    fn zeros(_n: usize) -> Self {
        0.0
    }

    fn at(&self, _j: usize) -> f64 {
        *self
    }
}

impl NodeValues for Vec<f64> {
    fn zeros(n: usize) -> Self {
        vec![0.0; n]
    }

    fn at(&self, j: usize) -> f64 {
        self[j]
    }
}

/// Newton iterations per implicit step before the solve gives up.
const NEWTON_ITERATIONS: usize = 30;

/// Max-norm Newton residual below which an implicit step is accepted.
const NEWTON_TOLERANCE: f64 = 1e-11;

/// The θ-stepper's step count and step over `[t_start, t_end]`: the
/// fewest steps of at most `dt`, shrunk to land on `t_end`.
fn theta_steps(t_start: f64, t_end: f64, dt: f64) -> (usize, f64) {
    let steps = ((t_end - t_start) / dt).ceil() as usize;
    (steps, (t_end - t_start) / steps as f64)
}

/// The time of step `s` of a θ-solve from `t_start` with step `dt`.
fn step_time(t_start: f64, s: usize, dt: f64) -> f64 {
    t_start + s as f64 * dt
}

/// The step count of a θ-solve from `t_start` to `t_end` and the last
/// time it records, or `None` unless that solve steps on exactly the
/// times `t_start + s·dt` and does not stop short of `t_end`.
///
/// The θ-stepper's times depend on `t_end` only through the shrunk
/// step. When that step is `dt` bit for bit, every solve from `t_start`
/// that passes this test steps through the same times with the same
/// fields, so a longer one reads any time up to `t_end` from the same two
/// rows with the same weight as this one. It holds for integer `t_start`
/// and `t_end` at the default `dt`; a readout that resumes a solve checks
/// it per request.
pub(crate) fn shared_time_grid(t_start: f64, t_end: f64, dt: f64) -> Option<(usize, f64)> {
    let (steps, step) = theta_steps(t_start, t_end, dt);
    if t_start.fract() != 0.0 || step.to_bits() != dt.to_bits() || steps == 0 {
        return None;
    }
    let last = step_time(t_start, steps - 1, dt) + dt;
    (last >= t_end).then_some((steps, last))
}

/// `forcing(t, I, out)` writes `∂F(t, I)/∂p_q` for every parameter `q`,
/// in the layout of [`Tangent`]'s sensitivities.
pub(crate) type Forcing<'f> = &'f mut dyn FnMut(f64, &[f64], &mut [f64]);

/// Forward sensitivities `S_q = ∂I/∂p_q` of a θ-solve, stepped by
/// [`solve_theta`] alongside the field.
///
/// Differentiating one step's system
/// `v − w_i·F(t₊, v) = u + w_e·F(t, u)`, with `F = Lap I + f` and weights
/// `w_i = θ·Δt`, `w_e = (1 − θ)·Δt`, gives
///
/// ```text
/// J·S₊ = S + w_e·(Lap S + f_I(t, u)·S) + w_e·∂_q F(t, u) + w_i·∂_q F(t₊, v)
/// ```
///
/// where `J = I − w_i·(Lap + f_I(t₊, v))` is the step's Newton Jacobian
/// at its converged field. These are the derivatives of the discrete
/// solve itself, not of the PDE, so they match finite differences of the
/// same solve.
pub(crate) struct Tangent<'f> {
    /// Sensitivities at the step's start and end: one row of grid values
    /// per parameter, back to back. The start is zero: φ depends on no
    /// fitted parameter.
    now: Vec<f64>,
    next: Vec<f64>,
    forcing: Forcing<'f>,
    f_now: Vec<f64>,
    f_next: Vec<f64>,
    explicit_diag: Vec<f64>,
    jacobian_diag: Vec<f64>,
    c_scratch: Vec<f64>,
    inv_pivots: Vec<f64>,
}

impl<'f> Tangent<'f> {
    /// A zero tangent in `params` parameters on a grid of `n` nodes.
    pub(crate) fn new(params: usize, n: usize, forcing: Forcing<'f>) -> Self {
        Self {
            now: vec![0.0; params * n],
            next: vec![0.0; params * n],
            forcing,
            f_now: vec![0.0; params * n],
            f_next: vec![0.0; params * n],
            explicit_diag: vec![0.0; n],
            jacobian_diag: vec![0.0; n],
            c_scratch: vec![0.0; n],
            inv_pivots: vec![0.0; n],
        }
    }
}

/// A parameter of Eq. 4 with the growth rate `r(t) = a·e^{−b(t−1)} + c`
/// that [`solve_sensitivities`] differentiates by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parameter {
    /// The growth amplitude `a`.
    Amplitude,
    /// The growth decay `b`.
    Decay,
    /// The growth floor `c`.
    Floor,
    /// The diffusion rate `d`.
    Diffusion,
    /// The carrying capacity `K`.
    Capacity,
}

/// The field of a θ-solve of Eq. 4 at its last time, with its forward
/// sensitivities there.
#[derive(Debug, Clone, PartialEq)]
pub struct Sensitivities {
    field: Vec<f64>,
    partials: Vec<Vec<f64>>,
}

impl Sensitivities {
    /// `I(x, t_end)` on the grid: bit for bit the last row of [`solve`].
    #[must_use]
    pub fn field(&self) -> &[f64] {
        &self.field
    }

    /// `∂I(x, t_end)/∂p` on the grid for the `i`-th requested parameter.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below the number of requested parameters.
    #[must_use]
    pub fn partial(&self, i: usize) -> &[f64] {
        &self.partials[i]
    }
}

/// Solves Eq. 4 with the growth rate `r(t) = a·e^{−b(t−1)} + c` on the
/// θ-stepper, as [`solve`] does, and steps the forward sensitivities of
/// the discrete solve in each parameter of `wrt` with it. The field is
/// bit for bit [`solve`]'s; each sensitivity costs one back-substitution
/// per step against the step's Newton Jacobian, factored once.
///
/// # Errors
///
/// * [`DlError::InvalidParameter`] — an explicit method (the sensitivities
///   are those of the θ-scheme), or the degenerate configs [`solve`]
///   rejects.
/// * Propagates Newton/tridiagonal failures.
///
/// # Examples
///
/// ```
/// use dlm_core::growth::ExpDecayGrowth;
/// use dlm_core::initial::{InitialDensity, PhiConstruction};
/// use dlm_core::params::DlParameters;
/// use dlm_core::pde::{solve_sensitivities, Parameter, SolverConfig};
///
/// # fn main() -> Result<(), dlm_core::DlError> {
/// let params = DlParameters::paper_hops(6)?;
/// let phi = InitialDensity::from_observations(
///     &params,
///     &[2.1, 0.7, 0.9, 0.5, 0.3, 0.2],
///     PhiConstruction::SplineFlat,
/// )?;
/// let growth = ExpDecayGrowth::paper_hops();
/// let s = solve_sensitivities(&params, &growth, &phi, 1.0, 3.0,
///     &SolverConfig::default(), &[Parameter::Floor, Parameter::Capacity])?;
/// // A larger floor of the growth rate grows every node faster.
/// assert!(s.partial(0).iter().all(|&v| v > 0.0));
/// # Ok(())
/// # }
/// ```
pub fn solve_sensitivities(
    params: &DlParameters,
    growth: &ExpDecayGrowth,
    phi: &InitialDensity,
    t_start: f64,
    t_end: f64,
    config: &SolverConfig,
    wrt: &[Parameter],
) -> Result<Sensitivities> {
    let (xs, dx, mut field) = start(params.lower(), params.upper(), phi, config, t_start, t_end)?;
    let sens = solve_tangent(
        params,
        growth,
        config,
        &xs,
        dx,
        &mut field,
        t_start,
        t_end,
        wrt,
        &mut |_| {},
    )?;
    let partials = sens.chunks_exact(xs.len()).map(<[f64]>::to_vec).collect();
    Ok(Sensitivities { field, partials })
}

/// Eq. 4 with exponential-decay growth on the θ-stepper from `u` (φ on
/// the grid `xs` at `t_start`) to `t_end`, with the tangent in `wrt`:
/// hands every step to `observe` and returns the final sensitivities,
/// one row per parameter.
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve_tangent(
    params: &DlParameters,
    growth: &ExpDecayGrowth,
    config: &SolverConfig,
    xs: &[f64],
    dx: f64,
    u: &mut Vec<f64>,
    t_start: f64,
    t_end: f64,
    wrt: &[Parameter],
    observe: Observer<'_>,
) -> Result<Vec<f64>> {
    if !config.method.is_theta() {
        return Err(DlError::InvalidParameter {
            name: "method",
            reason: "sensitivities follow the θ-scheme: use CrankNicolson or BackwardEuler".into(),
        });
    }
    let n = xs.len();
    let (a, b, c, k) = (
        growth.amplitude(),
        growth.decay(),
        growth.floor(),
        params.capacity(),
    );
    let (unit, inv_k) = (UniformDiffusion(1.0 / (dx * dx)), 1.0 / k);
    let mut logistic = vec![0.0; n];
    let mut forcing = |t: f64, field: &[f64], out: &mut [f64]| {
        // ∂F/∂p for F = (d/Δx²)·stencil(I) + r(t)·I·(1 − I/K), with
        // r(t) = a·e^{−b(t−1)} + c, the expression `growth.rate` computes.
        let decay = (-b * (t - 1.0)).exp();
        let r = a * decay + c;
        for (l, &v) in logistic.iter_mut().zip(field) {
            *l = v * (1.0 - v * inv_k);
        }
        for (&p, row) in wrt.iter().zip(out.chunks_exact_mut(n)) {
            let dr = match p {
                Parameter::Diffusion => {
                    unit.apply(field, row);
                    continue;
                }
                Parameter::Capacity => {
                    let scale = r * inv_k * inv_k;
                    for (o, &v) in row.iter_mut().zip(field) {
                        *o = scale * v * v;
                    }
                    continue;
                }
                Parameter::Amplitude => decay,
                Parameter::Decay => -a * (t - 1.0) * decay,
                Parameter::Floor => 1.0,
            };
            for (o, &l) in row.iter_mut().zip(&logistic) {
                *o = dr * l;
            }
        }
    };
    let mut tangent = Tangent::new(wrt.len(), n, &mut forcing);
    step_eq4(
        params,
        growth,
        config,
        xs,
        dx,
        u,
        0,
        t_start,
        t_end,
        Some(&mut tangent),
        observe,
    )?;
    Ok(tangent.now)
}

/// The θ-scheme (½: Crank–Nicolson, 1: backward Euler) for
/// `∂I/∂t = Lap I + r·I·(1 − I/K)` on the grid `xs` of [`start`]: steps
/// `state`, the field after step `first_step` of a solve from `t_start`
/// to `t_end`, on to `t_end`, and hands every step to `observe`.
/// `reaction(t, r, k)` fills growth and capacity at `t`; each step solves
/// its nonlinear system with damped Newton over the tridiagonal Jacobian.
/// With a `tangent`, each converged step also refactors that Jacobian at
/// the converged field and steps the sensitivities through it. On an
/// error `state` is left empty.
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve_theta<C: NodeValues>(
    xs: &[f64],
    state: &mut Vec<f64>,
    first_step: usize,
    t_start: f64,
    t_end: f64,
    dt: f64,
    theta: f64,
    diffusion: impl Diffusion,
    mut reaction: impl FnMut(f64, &mut C, &mut C),
    mut tangent: Option<&mut Tangent<'_>>,
    observe: Observer<'_>,
) -> Result<()> {
    let n = xs.len();
    // Stepped as a local: indexing through the `&mut Vec` costs the step
    // loop a few percent.
    let mut u = std::mem::take(state);
    let (steps, dt) = theta_steps(t_start, t_end, dt);
    let explicit_weight = dt * (1.0 - theta);
    let implicit_weight = dt * theta;
    // The Jacobian's off-diagonals and the Laplacian part of its
    // diagonal are built once per solve; ghost-node reflection doubles
    // the boundary coupling.
    let (coupling, diag_base) = diffusion.implicit_parts(n, implicit_weight);
    let mut sub = coupling.clone();
    let mut sup = coupling;
    sup[0] *= 2.0;
    sub[n - 2] *= 2.0;

    // Per-solve workspace: the step loop allocates nothing.
    let (mut r_now, mut k_now) = (C::zeros(n), C::zeros(n));
    let (mut r_next, mut k_next) = (C::zeros(n), C::zeros(n));
    let mut lap = vec![0.0; n];
    let mut rhs = vec![0.0; n];
    let mut v = vec![0.0; n];
    let mut g = vec![0.0; n];
    let mut trial = vec![0.0; n];
    let mut diag = vec![0.0; n];
    let mut delta = vec![0.0; n];
    let mut c_scratch = vec![0.0; n];

    // Writes G(v) = v − dt·θ·(Lap v + f(t_next, v)) − rhs into `out` and
    // returns its max-norm; `r` and `k` are taken at t_next.
    let residual = |v: &[f64], r: &C, k: &C, rhs: &[f64], lap: &mut [f64], out: &mut [f64]| {
        diffusion.apply(v, lap);
        let mut norm = 0.0;
        for j in 0..n {
            let f = r.at(j) * v[j] * (1.0 - v[j] / k.at(j));
            out[j] = v[j] - implicit_weight * (lap[j] + f) - rhs[j];
            norm = f64::max(norm, out[j].abs());
        }
        norm
    };

    for s in first_step..steps {
        let t_now = step_time(t_start, s, dt);
        let t_next = t_now + dt;
        reaction(t_now, &mut r_now, &mut k_now);
        reaction(t_next, &mut r_next, &mut k_next);

        // Explicit part of the right-hand side.
        diffusion.apply(&u, &mut lap);
        for j in 0..n {
            let f = r_now.at(j) * u[j] * (1.0 - u[j] / k_now.at(j));
            rhs[j] = u[j] + explicit_weight * (lap[j] + f);
        }

        // Newton solve for: v − dt·θ·(Lap v + f(t_next, v)) = rhs.
        v.copy_from_slice(&u);
        let mut res = residual(&v, &r_next, &k_next, &rhs, &mut lap, &mut g);
        let mut converged = false;
        for _ in 0..NEWTON_ITERATIONS {
            if res < NEWTON_TOLERANCE {
                converged = true;
                break;
            }
            for j in 0..n {
                let fprime = r_next.at(j) * (1.0 - 2.0 * v[j] / k_next.at(j));
                diag[j] = diag_base[j] - implicit_weight * fprime;
            }
            solve_tridiagonal_into(&sub, &diag, &sup, &g, &mut c_scratch, &mut delta)?;
            // Damped update. `g` is free once `delta` is solved, so each
            // trial writes its residual there: the accepted trial's is the
            // next iteration's.
            let mut lambda = 1.0;
            let mut accepted = false;
            for _ in 0..6 {
                for j in 0..n {
                    trial[j] = v[j] - lambda * delta[j];
                }
                let trial_res = residual(&trial, &r_next, &k_next, &rhs, &mut lap, &mut g);
                if trial_res.is_finite() && trial_res < res {
                    std::mem::swap(&mut v, &mut trial);
                    res = trial_res;
                    accepted = true;
                    break;
                }
                lambda *= 0.5;
            }
            if !accepted {
                for j in 0..n {
                    v[j] -= delta[j];
                }
                res = residual(&v, &r_next, &k_next, &rhs, &mut lap, &mut g);
            }
        }
        if !converged {
            return Err(DlError::Numerics(
                dlm_numerics::NumericsError::NoConvergence {
                    algorithm: if theta < 1.0 {
                        "crank-nicolson newton"
                    } else {
                        "backward-euler newton"
                    },
                    iterations: NEWTON_ITERATIONS,
                    residual: res,
                },
            ));
        }
        if let Some(tangent) = tangent.as_deref_mut() {
            // The Newton Jacobian's diagonal at the converged field, and
            // the explicit half's `I + w_e·f_I(t, u)`.
            for j in 0..n {
                let fprime_next = r_next.at(j) * (1.0 - 2.0 * v[j] / k_next.at(j));
                tangent.jacobian_diag[j] = diag_base[j] - implicit_weight * fprime_next;
                let fprime_now = r_now.at(j) * (1.0 - 2.0 * u[j] / k_now.at(j));
                tangent.explicit_diag[j] = 1.0 + explicit_weight * fprime_now;
            }
            (tangent.forcing)(t_now, &u, &mut tangent.f_now);
            (tangent.forcing)(t_next, &v, &mut tangent.f_next);
            for q in 0..tangent.now.len() / n {
                let rows = q * n..(q + 1) * n;
                let s_now = &tangent.now[rows.clone()];
                diffusion.apply(s_now, &mut lap);
                let (f_now, f_next) = (&tangent.f_now[rows.clone()], &tangent.f_next[rows.clone()]);
                for (j, out) in tangent.next[rows].iter_mut().enumerate() {
                    *out = tangent.explicit_diag[j] * s_now[j]
                        + explicit_weight * (lap[j] + f_now[j])
                        + implicit_weight * f_next[j];
                }
            }
            solve_tridiagonal_many_into(
                &sub,
                &tangent.jacobian_diag,
                &sup,
                &mut tangent.next,
                &mut tangent.c_scratch,
                &mut tangent.inv_pivots,
            )?;
        }
        std::mem::swap(&mut u, &mut v);
        observe(&Step {
            xs,
            now: (t_now, &v),
            next: (t_next, &u),
            sens: tangent.as_deref().map(|t| (&t.now[..], &t.next[..])),
        });
        if let Some(tangent) = tangent.as_deref_mut() {
            std::mem::swap(&mut tangent.now, &mut tangent.next);
        }
    }
    *state = u;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::growth::ExpDecayGrowth;
    use crate::initial::PhiConstruction;

    fn params() -> DlParameters {
        DlParameters::paper_hops(6).unwrap()
    }

    fn phi(p: &DlParameters) -> InitialDensity {
        InitialDensity::from_observations(
            p,
            &[2.1, 0.7, 0.9, 0.5, 0.3, 0.2],
            PhiConstruction::SplineFlat,
        )
        .unwrap()
    }

    fn logistic_exact(t: f64, y0: f64, r: f64, k: f64) -> f64 {
        k / (1.0 + (k / y0 - 1.0) * (-r * (t - 1.0)).exp())
    }

    #[test]
    fn zero_diffusion_flat_profile_matches_logistic_closed_form() {
        // With d = 0 and a spatially constant initial condition the PDE
        // reduces exactly to the logistic ODE at every grid point.
        let p = DlParameters::new(0.0, 25.0, 1.0, 6.0).unwrap();
        let flat =
            InitialDensity::from_observations(&p, &[2.0; 6], PhiConstruction::SplineFlat).unwrap();
        let growth = ExpDecayGrowth::new(0.0, 0.0, 0.8);
        for method in [
            SolverMethod::CrankNicolson,
            SolverMethod::BackwardEuler,
            SolverMethod::Rk4,
            SolverMethod::DormandPrince45,
        ] {
            let config = SolverConfig {
                method,
                space_intervals: 20,
                dt: 0.005,
            };
            let sol = solve(&p, &growth, &flat, 1.0, 6.0, &config).unwrap();
            let got = sol.value_at(3.0, 6.0).unwrap();
            let want = logistic_exact(6.0, 2.0, 0.8, 25.0);
            let tol = if method == SolverMethod::BackwardEuler {
                0.05
            } else {
                1e-3
            };
            assert!((got - want).abs() < tol, "{method:?}: {got} vs {want}");
        }
    }

    #[test]
    fn pure_diffusion_conserves_mass_and_flattens() {
        // With r = 0 the equation is the heat equation with no-flux walls:
        // total mass is conserved and the profile flattens to its mean.
        let p = DlParameters::new(0.5, 25.0, 1.0, 6.0).unwrap();
        let phi = phi(&p);
        let growth = ExpDecayGrowth::new(0.0, 0.0, 0.0);
        let config = SolverConfig::default();
        let sol = solve(&p, &growth, &phi, 1.0, 80.0, &config).unwrap();
        let first = &sol.values()[0];
        let last = sol.values().last().unwrap();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        // Mass conservation (trapezoid weight differences at walls are
        // second-order; compare interior sums).
        assert!(
            (mean(first) - mean(last)).abs() < 0.02,
            "{} vs {}",
            mean(first),
            mean(last)
        );
        // Flattened: final spread tiny.
        let spread = last.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - last.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread < 1e-3, "spread {spread}");
    }

    #[test]
    fn crank_nicolson_matches_dp45_reference() {
        // Cross-validation of the implicit scheme against the adaptive
        // explicit integrator on the paper's actual setting.
        let p = params();
        let phi = phi(&p);
        let growth = ExpDecayGrowth::paper_hops();
        let cn = solve(
            &p,
            &growth,
            &phi,
            1.0,
            6.0,
            &SolverConfig {
                method: SolverMethod::CrankNicolson,
                space_intervals: 100,
                dt: 0.002,
            },
        )
        .unwrap();
        let dp = solve(
            &p,
            &growth,
            &phi,
            1.0,
            6.0,
            &SolverConfig {
                method: SolverMethod::DormandPrince45,
                space_intervals: 100,
                dt: 0.002,
            },
        )
        .unwrap();
        for x in [1.0, 2.0, 3.5, 5.0, 6.0] {
            let a = cn.value_at(x, 6.0).unwrap();
            let b = dp.value_at(x, 6.0).unwrap();
            assert!((a - b).abs() < 1e-3, "x = {x}: {a} vs {b}");
        }
    }

    #[test]
    fn solution_respects_unique_property_bounds() {
        // §II.C Unique Property: 0 ≤ I ≤ K.
        let p = params();
        let phi = phi(&p);
        let growth = ExpDecayGrowth::paper_hops();
        let sol = solve(&p, &growth, &phi, 1.0, 50.0, &SolverConfig::default()).unwrap();
        assert!(sol.min_value() >= -1e-9, "min {}", sol.min_value());
        assert!(
            sol.max_value() <= p.capacity() + 1e-6,
            "max {}",
            sol.max_value()
        );
    }

    #[test]
    fn solution_is_strictly_increasing_in_time() {
        // §II.C Strictly Increasing Property (φ is a lower solution here).
        let p = params();
        let phi = phi(&p);
        let growth = ExpDecayGrowth::paper_hops();
        assert!(phi.is_lower_solution(&p, &growth, 1e-9));
        let sol = solve(&p, &growth, &phi, 1.0, 10.0, &SolverConfig::default()).unwrap();
        for rows in sol.values().windows(2) {
            for (a, b) in rows[0].iter().zip(&rows[1]) {
                assert!(b >= &(a - 1e-9), "decreasing: {a} -> {b}");
            }
        }
    }

    #[test]
    fn capacity_is_an_equilibrium() {
        let p = params();
        let at_k =
            InitialDensity::from_observations(&p, &[25.0; 6], PhiConstruction::SplineFlat).unwrap();
        let growth = ExpDecayGrowth::paper_hops();
        let sol = solve(&p, &growth, &at_k, 1.0, 5.0, &SolverConfig::default()).unwrap();
        let last = sol.values().last().unwrap();
        for v in last {
            assert!((v - 25.0).abs() < 1e-8, "drifted from K: {v}");
        }
    }

    #[test]
    fn finer_grid_converges() {
        // Self-convergence: halving dx/dt changes the answer by o(coarse).
        let p = params();
        let phi = phi(&p);
        let growth = ExpDecayGrowth::paper_hops();
        let coarse = solve(
            &p,
            &growth,
            &phi,
            1.0,
            6.0,
            &SolverConfig {
                space_intervals: 25,
                dt: 0.04,
                ..SolverConfig::default()
            },
        )
        .unwrap();
        let fine = solve(
            &p,
            &growth,
            &phi,
            1.0,
            6.0,
            &SolverConfig {
                space_intervals: 200,
                dt: 0.005,
                ..SolverConfig::default()
            },
        )
        .unwrap();
        let very_fine = solve(
            &p,
            &growth,
            &phi,
            1.0,
            6.0,
            &SolverConfig {
                space_intervals: 400,
                dt: 0.0025,
                ..SolverConfig::default()
            },
        )
        .unwrap();
        let probe = |s: &PdeSolution| s.value_at(3.0, 6.0).unwrap();
        let err_coarse = (probe(&coarse) - probe(&very_fine)).abs();
        let err_fine = (probe(&fine) - probe(&very_fine)).abs();
        assert!(err_fine < err_coarse, "{err_fine} !< {err_coarse}");
    }

    #[test]
    fn value_at_rejects_out_of_domain() {
        let p = params();
        let phi = phi(&p);
        let growth = ExpDecayGrowth::paper_hops();
        let sol = solve(&p, &growth, &phi, 1.0, 6.0, &SolverConfig::default()).unwrap();
        assert!(matches!(
            sol.value_at(0.0, 3.0).unwrap_err(),
            DlError::OutOfDomain {
                axis: "distance",
                ..
            }
        ));
        assert!(matches!(
            sol.value_at(3.0, 0.5).unwrap_err(),
            DlError::OutOfDomain { axis: "time", .. }
        ));
        assert!(sol.value_at(6.0, 6.0).is_ok());
    }

    #[test]
    fn value_at_rejects_non_finite_queries() {
        let p = params();
        let sol = solve(
            &p,
            &ExpDecayGrowth::paper_hops(),
            &phi(&p),
            1.0,
            6.0,
            &SolverConfig::default(),
        )
        .unwrap();
        for (x, t, want) in [
            (f64::NAN, 3.0, "distance"),
            (f64::INFINITY, 3.0, "distance"),
            (3.0, f64::NAN, "time"),
            (3.0, f64::NEG_INFINITY, "time"),
        ] {
            match sol.value_at(x, t) {
                Err(DlError::OutOfDomain { axis, .. }) => assert_eq!(axis, want, "({x}, {t})"),
                other => panic!("({x}, {t}): expected OutOfDomain, got {other:?}"),
            }
        }
    }

    #[test]
    fn served_time_grids_are_shared() {
        // The registry builds every DL model with the default solver
        // config and an integer initial hour; the other steps are the
        // usual alternatives. Every span of up to a week passes the guard.
        for (dt, starts) in [
            (SolverConfig::default().dt, 0..=48),
            (0.005, 1..=3),
            (0.02, 1..=3),
            (0.05, 1..=3),
            (0.1, 1..=3),
        ] {
            for t_start in starts {
                let t_start = f64::from(t_start);
                for span in 1..=168 {
                    let t_end = t_start + f64::from(span);
                    let (steps, step) = theta_steps(t_start, t_end, dt);
                    assert_eq!(
                        step.to_bits(),
                        dt.to_bits(),
                        "dt {dt}: [{t_start}, {t_end}]"
                    );
                    let (shared_steps, last) = shared_time_grid(t_start, t_end, dt)
                        .unwrap_or_else(|| panic!("dt {dt}: [{t_start}, {t_end}]"));
                    assert_eq!(shared_steps, steps);
                    assert!(
                        last >= t_end,
                        "dt {dt}: [{t_start}, {t_end}] stops at {last}"
                    );
                }
            }
        }
        // The last time is the one a solve records.
        let p = params();
        for t_end in [2.0, 5.0, 9.0] {
            let sol = solve(
                &p,
                &ExpDecayGrowth::paper_hops(),
                &phi(&p),
                1.0,
                t_end,
                &SolverConfig::default(),
            )
            .unwrap();
            let (steps, last) = shared_time_grid(1.0, t_end, 0.01).unwrap();
            assert_eq!(sol.times().len(), steps + 1);
            assert_eq!(sol.times().last().unwrap().to_bits(), last.to_bits());
        }
        // A fractional start, a step that does not divide the span, or a
        // degenerate step each fail it.
        assert!(shared_time_grid(1.5, 3.0, 0.01).is_none());
        assert!(shared_time_grid(1.0, 2.0, 0.3).is_none());
        assert!(shared_time_grid(1.0, 2.0, f64::NAN).is_none());
        assert!(shared_time_grid(1.0, 2.0, f64::INFINITY).is_none());
    }

    #[test]
    fn profile_near_picks_nearest_time() {
        let p = params();
        let phi = phi(&p);
        let growth = ExpDecayGrowth::paper_hops();
        let sol = solve(
            &p,
            &growth,
            &phi,
            1.0,
            3.0,
            &SolverConfig {
                dt: 0.5,
                ..SolverConfig::default()
            },
        )
        .unwrap();
        let prof = sol.profile_near(2.1);
        // Nearest recorded time to 2.1 is 2.0; its first grid value equals
        // value_at(l, 2.0).
        let expected = sol.value_at(p.lower(), 2.0).unwrap();
        assert!((prof[0] - expected).abs() < 1e-12);
    }

    #[test]
    fn rejects_degenerate_config() {
        let p = params();
        let phi = phi(&p);
        let growth = ExpDecayGrowth::paper_hops();
        assert!(solve(
            &p,
            &growth,
            &phi,
            1.0,
            6.0,
            &SolverConfig {
                space_intervals: 1,
                ..SolverConfig::default()
            }
        )
        .is_err());
        assert!(solve(
            &p,
            &growth,
            &phi,
            1.0,
            6.0,
            &SolverConfig {
                dt: 0.0,
                ..SolverConfig::default()
            }
        )
        .is_err());
        assert!(solve(&p, &growth, &phi, 6.0, 1.0, &SolverConfig::default()).is_err());
    }

    #[test]
    fn diffusion_smooths_profile_over_time() {
        // Relative spatial variation must shrink under diffusion.
        let p = DlParameters::new(0.3, 25.0, 1.0, 6.0).unwrap();
        let phi = phi(&p);
        let growth = ExpDecayGrowth::new(0.0, 0.0, 0.2);
        let sol = solve(&p, &growth, &phi, 1.0, 20.0, &SolverConfig::default()).unwrap();
        let rel_spread = |v: &[f64]| {
            let hi = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
            (hi - lo) / hi.max(1e-12)
        };
        let first = rel_spread(&sol.values()[0]);
        let last = rel_spread(sol.values().last().unwrap());
        assert!(last < first, "{last} !< {first}");
    }

    #[test]
    fn non_convergence_reports_the_last_residual() {
        // An absurd step with huge d and r: the residual stalls at the
        // round-off floor of million-scale terms, far above the tolerance.
        let p = DlParameters::new(1e6, 25.0, 1.0, 6.0).unwrap();
        let phi = phi(&p);
        let config = SolverConfig {
            space_intervals: 20,
            dt: 1e3,
            ..SolverConfig::default()
        };
        let err = solve(
            &p,
            &ExpDecayGrowth::new(0.0, 0.0, 1e6),
            &phi,
            1.0,
            1001.0,
            &config,
        )
        .unwrap_err();
        match err {
            DlError::Numerics(dlm_numerics::NumericsError::NoConvergence {
                algorithm,
                iterations,
                residual,
            }) => {
                assert_eq!(algorithm, "crank-nicolson newton");
                assert_eq!(iterations, NEWTON_ITERATIONS);
                assert!(
                    residual.is_finite() && residual >= NEWTON_TOLERANCE,
                    "residual {residual}"
                );
            }
            other => panic!("expected NoConvergence, got {other:?}"),
        }
    }
}
