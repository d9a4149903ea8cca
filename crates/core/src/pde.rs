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
//! loop allocates nothing but the recorded rows. Its output is pinned bit
//! for bit: `tests/solver_validation.rs` hashes every time and value bit
//! of reference solves of both models and of served-lineup fits, and a
//! stepper change that moves any bit must re-baseline those hashes
//! deliberately.

use crate::error::{DlError, Result};
use crate::growth::GrowthRate;
use crate::initial::InitialDensity;
use crate::params::DlParameters;
use dlm_numerics::ode::{rk4, AdaptiveConfig, DormandPrince45};
use dlm_numerics::tridiag::solve_tridiagonal_into;

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
        if x < x0 - 1e-9 || x > x1 + 1e-9 {
            return Err(DlError::OutOfDomain {
                axis: "distance",
                value: x,
                range: (x0, x1),
            });
        }
        let (t0, t1) = (self.times[0], *self.times.last().expect("nonempty times"));
        if t < t0 - 1e-9 || t > t1 + 1e-9 {
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
            Ok(i) => return Ok(self.space_interp(i, x)),
            Err(i) => i.clamp(1, self.times.len() - 1),
        };
        let (ta, tb) = (self.times[ti - 1], self.times[ti]);
        let w = if tb > ta { (t - ta) / (tb - ta) } else { 0.0 };
        let va = self.space_interp(ti - 1, x);
        let vb = self.space_interp(ti, x);
        Ok(va * (1.0 - w) + vb * w)
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

    fn space_interp(&self, time_idx: usize, x: f64) -> f64 {
        let row = &self.values[time_idx];
        let n = self.xs.len();
        if x <= self.xs[0] {
            return row[0];
        }
        if x >= self.xs[n - 1] {
            return row[n - 1];
        }
        let dx = self.xs[1] - self.xs[0];
        let j = (((x - self.xs[0]) / dx).floor() as usize).min(n - 2);
        let w = (x - self.xs[j]) / dx;
        row[j] * (1.0 - w) + row[j + 1] * w
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

/// Builds the uniform grid of `config.space_intervals` intervals over
/// `[lower, upper]` and returns it with its spacing, after checking the
/// resolution and time span every solver in this crate needs.
///
/// # Errors
///
/// [`DlError::InvalidParameter`] for fewer than 2 intervals, a
/// non-positive (or NaN) `dt`, or `t_end ≤ t_start`.
pub(crate) fn grid(
    lower: f64,
    upper: f64,
    config: &SolverConfig,
    t_start: f64,
    t_end: f64,
) -> Result<(Vec<f64>, f64)> {
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
    Ok(((0..=m).map(|j| lower + j as f64 * dx).collect(), dx))
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
    let (xs, dx) = grid(params.lower(), params.upper(), config, t_start, t_end)?;
    let u0: Vec<f64> = xs.iter().map(|&x| phi.value(x)).collect();
    let d_over_dx2 = params.diffusion() / (dx * dx);
    let k = params.capacity();
    let sys = MolSystem {
        growth,
        d_over_dx2,
        k,
        dim: xs.len(),
    };
    let traj = match config.method {
        SolverMethod::CrankNicolson | SolverMethod::BackwardEuler => {
            // Implicit weight: CN splits the operator evenly; BE is fully
            // implicit.
            let theta = if config.method == SolverMethod::CrankNicolson {
                0.5
            } else {
                1.0
            };
            return solve_theta(
                &xs,
                u0,
                t_start,
                t_end,
                config.dt,
                theta,
                UniformDiffusion(d_over_dx2),
                |t, r: &mut f64, capacity: &mut f64| {
                    *r = growth.rate(t);
                    *capacity = k;
                },
            );
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

/// The θ-scheme (½: Crank–Nicolson, 1: backward Euler) for
/// `∂I/∂t = Lap I + r·I·(1 − I/K)` on the [`grid`] `xs` from `u0` at
/// `t_start` to `t_end`, recording every step. `reaction(t, r, k)` fills
/// growth and capacity at `t`; each step solves its nonlinear system
/// with damped Newton over the tridiagonal Jacobian.
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve_theta<C: NodeValues>(
    xs: &[f64],
    u0: Vec<f64>,
    t_start: f64,
    t_end: f64,
    dt: f64,
    theta: f64,
    diffusion: impl Diffusion,
    mut reaction: impl FnMut(f64, &mut C, &mut C),
) -> Result<PdeSolution> {
    let n = xs.len();
    let steps = ((t_end - t_start) / dt).ceil() as usize;
    let dt = (t_end - t_start) / steps as f64;
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

    let mut u = u0;
    let mut times = Vec::with_capacity(steps + 1);
    let mut values = Vec::with_capacity(steps + 1);
    times.push(t_start);
    values.push(u.clone());

    // Per-solve workspace: the step loop allocates nothing but the
    // recorded rows.
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

    for s in 0..steps {
        let t_now = t_start + s as f64 * dt;
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
        std::mem::swap(&mut u, &mut v);
        times.push(t_next);
        values.push(u.clone());
    }
    Ok(PdeSolution {
        xs: xs.to_vec(),
        times,
        values,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::growth::{ConstantGrowth, ExpDecayGrowth};
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
        let growth = ConstantGrowth::new(0.8);
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
        let growth = ConstantGrowth::new(0.0);
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
        let growth = ConstantGrowth::new(0.2);
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
        let err = solve(&p, &ConstantGrowth::new(1e6), &phi, 1.0, 1001.0, &config).unwrap_err();
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
