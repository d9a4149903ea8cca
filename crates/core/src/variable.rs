//! The paper's stated future work (§V): a generalized DL equation whose
//! **diffusion rate, growth rate and carrying capacity are functions of
//! time and distance**:
//!
//! ```text
//! ∂I/∂t = ∂/∂x( d(x) ∂I/∂x ) + r(x, t)·I·(1 − I/K(x))
//! ```
//!
//! The paper motivates this concretely: in its Table II the interest-
//! distance group 5 "drops faster at time 2 to 5", which a single global
//! `r(t)` cannot track — "the model can be refined by choosing a function
//! of both distance and time for growth rate r, which we will explore as
//! future work". This module implements that refinement:
//!
//! * [`SpatialField`] — coefficient fields over `(x, t)`;
//! * [`VariableDlModel`] — the generalized model with a conservative
//!   finite-volume discretization of the heterogeneous diffusion term,
//!   stepped by the same θ-stepper as Eq. 4 (see [`crate::pde`]): only
//!   the Laplacian's form and the per-node growth and capacity differ;
//! * [`calibrate_per_distance_growth`] — fits an independent growth curve
//!   per integer distance and assembles a piecewise-linear-in-x `r(x, t)`.

use crate::error::{DlError, Result};
use crate::growth::ExpDecayGrowth;
use crate::initial::InitialDensity;
use crate::model::{Prediction, Readout, Resumable};
use crate::params::DlParameters;
use crate::pde::{record, solve_theta, start, FaceDiffusion, Observer, PdeSolution, SolverConfig};
use crate::predict::FitConfig;
use dlm_cascade::DensityMatrix;
use dlm_numerics::interp::LinearInterp;
use dlm_numerics::least_squares::{local_search_in_box, JacobianProblem, LmConfig};
use dlm_numerics::linalg::Matrix;
use dlm_numerics::optimize::{self, MultiStartConfig};
use std::fmt;
use std::sync::Arc;

/// A scalar coefficient field over space and time.
///
/// Implementations must be finite on the solved domain; the diffusion
/// field must be non-negative and the capacity field strictly positive.
pub trait SpatialField: fmt::Debug + Send + Sync {
    /// Evaluates the field at `(x, t)`.
    fn value(&self, x: f64, t: f64) -> f64;

    /// Evaluates the field at every node `xs[j]` at time `t` into
    /// `out[j]`. Overrides hoist the time-dependent part out of the node
    /// loop but must equal per-node [`SpatialField::value`] bit for bit.
    fn fill(&self, xs: &[f64], t: f64, out: &mut [f64]) {
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = self.value(x, t);
        }
    }
}

/// A constant field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantField(pub f64);

impl SpatialField for ConstantField {
    fn value(&self, _x: f64, _t: f64) -> f64 {
        self.0
    }
}

/// A time-only field wrapping a classic growth curve: `r(x, t) = r(t)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeOnlyField(pub ExpDecayGrowth);

impl SpatialField for TimeOnlyField {
    fn value(&self, _x: f64, t: f64) -> f64 {
        use crate::growth::GrowthRate;
        self.0.rate(t)
    }
}

/// A separable field `f(x, t) = s(x)·r(t)` with `s` piecewise linear
/// through per-distance knots — the concrete refinement the paper
/// sketches for Table II's distance-5 problem.
#[derive(Debug, Clone)]
pub struct SeparableField {
    spatial: LinearInterp,
    temporal: ExpDecayGrowth,
}

impl SeparableField {
    /// Creates the field from spatial knots `(x_i, s_i)` and a temporal
    /// growth curve.
    ///
    /// # Errors
    ///
    /// Propagates interpolation-construction errors.
    pub fn new(xs: &[f64], scales: &[f64], temporal: ExpDecayGrowth) -> Result<Self> {
        Ok(Self {
            spatial: LinearInterp::new(xs, scales)?,
            temporal,
        })
    }
}

impl SpatialField for SeparableField {
    fn value(&self, x: f64, t: f64) -> f64 {
        use crate::growth::GrowthRate;
        self.spatial.value(x) * self.temporal.rate(t)
    }
}

/// A fully tabulated field: independent exp-decay growth curves at each
/// integer distance, linearly blended in between. Produced by
/// [`calibrate_per_distance_growth`].
#[derive(Debug, Clone)]
pub struct PerDistanceGrowth {
    lower: f64,
    curves: Vec<ExpDecayGrowth>,
}

impl PerDistanceGrowth {
    /// Creates the field from one growth curve per integer distance
    /// starting at `lower`.
    ///
    /// # Errors
    ///
    /// Returns [`DlError::InvalidParameter`] if fewer than 2 curves.
    pub fn new(lower: f64, curves: Vec<ExpDecayGrowth>) -> Result<Self> {
        if curves.len() < 2 {
            return Err(DlError::InvalidParameter {
                name: "curves",
                reason: "need at least 2 per-distance growth curves".into(),
            });
        }
        Ok(Self { lower, curves })
    }

    /// The fitted per-distance curves.
    #[must_use]
    pub fn curves(&self) -> &[ExpDecayGrowth] {
        &self.curves
    }

    /// The curves blended at `x` and the weight of the right one.
    fn bracket(&self, x: f64) -> (usize, usize, f64) {
        let pos = (x - self.lower).max(0.0);
        let i = (pos.floor() as usize).min(self.curves.len() - 1);
        let j = (i + 1).min(self.curves.len() - 1);
        let w = (pos - i as f64).clamp(0.0, 1.0);
        (i, j, w)
    }
}

impl SpatialField for PerDistanceGrowth {
    fn value(&self, x: f64, t: f64) -> f64 {
        use crate::growth::GrowthRate;
        let (i, j, w) = self.bracket(x);
        self.curves[i].rate(t) * (1.0 - w) + self.curves[j].rate(t) * w
    }

    fn fill(&self, xs: &[f64], t: f64, out: &mut [f64]) {
        use crate::growth::GrowthRate;
        // Remembering the last two curves' rates means an ascending grid
        // computes each curve's rate once, not twice per node.
        let mut memo = [(usize::MAX, 0.0); 2];
        let mut rate = |c: usize| {
            if let Some(&(_, r)) = memo.iter().find(|(m, _)| *m == c) {
                return r;
            }
            let r = self.curves[c].rate(t);
            memo = [memo[1], (c, r)];
            r
        };
        for (o, &x) in out.iter_mut().zip(xs) {
            let (i, j, w) = self.bracket(x);
            *o = rate(i) * (1.0 - w) + rate(j) * w;
        }
    }
}

/// The generalized DL model with variable coefficients.
#[derive(Debug, Clone)]
pub struct VariableDlModel {
    domain: (f64, f64),
    diffusion: Arc<dyn SpatialField>,
    growth: Arc<dyn SpatialField>,
    capacity: Arc<dyn SpatialField>,
    phi: InitialDensity,
    initial_time: f64,
    /// Resolution; the method is always Crank–Nicolson.
    solver: SolverConfig,
    readout: Readout,
}

/// Builder for [`VariableDlModel`].
///
/// Scalar fitting options (φ construction, solver resolution, growth
/// family, initial time) come from the same [`FitConfig`] the classic
/// [`crate::model::DlModelBuilder`] uses; the spatial coefficient fields
/// are set individually. The config's growth family becomes a
/// time-only field `r(x, t) = r(t)` unless overridden by
/// [`VariableDlModelBuilder::growth`].
#[derive(Debug, Clone)]
pub struct VariableDlModelBuilder {
    domain: (f64, f64),
    config: FitConfig,
    diffusion: Arc<dyn SpatialField>,
    growth_override: Option<Arc<dyn SpatialField>>,
    capacity: Arc<dyn SpatialField>,
}

impl VariableDlModelBuilder {
    /// Starts a builder on the domain `[lower, upper]` with the paper's
    /// constant-coefficient defaults (d = 0.01, Eq.-7 r(t), K = 25).
    ///
    /// # Errors
    ///
    /// Returns [`DlError::InvalidParameter`] for an empty domain.
    pub fn new(lower: f64, upper: f64) -> Result<Self> {
        if !(upper > lower) || !lower.is_finite() || !upper.is_finite() {
            return Err(DlError::InvalidParameter {
                name: "domain",
                reason: format!("need finite lower < upper, got [{lower}, {upper}]"),
            });
        }
        Ok(Self {
            domain: (lower, upper),
            config: FitConfig::default(),
            diffusion: Arc::new(ConstantField(0.01)),
            growth_override: None,
            capacity: Arc::new(ConstantField(25.0)),
        })
    }

    /// Replaces the shared scalar fit configuration (solver resolution,
    /// φ construction, growth family, initial time). A growth field set
    /// with [`VariableDlModelBuilder::growth`] keeps overriding the
    /// config's family, whichever call comes first.
    #[must_use]
    pub fn fit_config(mut self, config: FitConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the diffusion field `d(x)` (time argument is ignored by
    /// convention — Fickian diffusion with time-varying d is not part of
    /// the paper's roadmap).
    #[must_use]
    pub fn diffusion(mut self, field: impl SpatialField + 'static) -> Self {
        self.diffusion = Arc::new(field);
        self
    }

    /// Sets the growth field `r(x, t)`, overriding the config's
    /// (time-only) growth family.
    #[must_use]
    pub fn growth(mut self, field: impl SpatialField + 'static) -> Self {
        self.growth_override = Some(Arc::new(field));
        self
    }

    /// Sets the capacity field `K(x)`.
    #[must_use]
    pub fn capacity(mut self, field: impl SpatialField + 'static) -> Self {
        self.capacity = Arc::new(field);
        self
    }

    /// Sets the initial observation time (default 1.0).
    #[must_use]
    pub fn initial_time(mut self, t: f64) -> Self {
        self.config.initial_time = t;
        self
    }

    /// Sets the solver resolution.
    #[must_use]
    pub fn resolution(mut self, space_intervals: usize, dt: f64) -> Self {
        self.config.solver.space_intervals = space_intervals;
        self.config.solver.dt = dt;
        self
    }

    /// Builds the model from the initial integer-distance observations.
    ///
    /// # Errors
    ///
    /// Propagates φ-construction errors and validates the coefficient
    /// fields on the grid.
    pub fn build(self, observed_initial: &[f64]) -> Result<VariableDlModel> {
        let params = DlParameters::new(0.0, 1.0, self.domain.0, self.domain.1)?;
        let phi = InitialDensity::from_observations(&params, observed_initial, self.config.phi)?;
        let growth = self
            .growth_override
            .unwrap_or_else(|| Arc::new(TimeOnlyField(self.config.growth.exp_decay())));
        let model = VariableDlModel {
            domain: self.domain,
            diffusion: self.diffusion,
            growth,
            capacity: self.capacity,
            phi,
            initial_time: self.config.initial_time,
            solver: self.config.solver,
            readout: Readout::default(),
        };
        model.validate_fields()?;
        Ok(model)
    }
}

impl VariableDlModel {
    fn validate_fields(&self) -> Result<()> {
        let (lo, hi) = self.domain;
        for i in 0..=20 {
            let x = lo + (hi - lo) * f64::from(i) / 20.0;
            let d = self.diffusion.value(x, self.initial_time);
            if !d.is_finite() || d < 0.0 {
                return Err(DlError::InvalidParameter {
                    name: "diffusion",
                    reason: format!("d({x}) = {d} must be finite and >= 0"),
                });
            }
            let k = self.capacity.value(x, self.initial_time);
            if !k.is_finite() || k <= 0.0 {
                return Err(DlError::InvalidParameter {
                    name: "capacity",
                    reason: format!("K({x}) = {k} must be finite and positive"),
                });
            }
            let r = self.growth.value(x, self.initial_time);
            if !r.is_finite() || r < 0.0 {
                return Err(DlError::InvalidParameter {
                    name: "growth",
                    reason: format!("r({x}, t0) = {r} must be finite and >= 0"),
                });
            }
        }
        Ok(())
    }

    /// Solves the generalized equation to `t_end` with Crank–Nicolson and
    /// a conservative face-centred discretization of
    /// `∂/∂x(d(x) ∂I/∂x)` under Neumann boundaries.
    ///
    /// # Errors
    ///
    /// * [`DlError::InvalidParameter`] — fewer than 2 space intervals, a
    ///   non-positive time step, or `t_end` not after the initial time.
    /// * Propagates Newton/tridiagonal failures.
    pub fn solve_until(&self, t_end: f64) -> Result<PdeSolution> {
        let (xs, dx, u0) = self.start(t_end)?;
        record(xs, u0, self.initial_time, |xs, u, observe| {
            self.advance(xs, dx, u, 0, t_end, observe)
        })
    }

    /// Predicts densities at integer distances and hours, like
    /// [`crate::model::DlModel::predict`], and keeps the cells it solved
    /// for the same way.
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::model::DlModel::predict`].
    pub fn predict(&self, distances: &[u32], hours: &[u32]) -> Result<Prediction> {
        self.readout.predict(self, distances, hours)
    }
}

impl Resumable for VariableDlModel {
    fn initial_time(&self) -> f64 {
        self.initial_time
    }

    fn theta_dt(&self) -> Option<f64> {
        Some(self.solver.dt)
    }

    fn solve_until(&self, t_end: f64) -> Result<PdeSolution> {
        VariableDlModel::solve_until(self, t_end)
    }

    fn start(&self, t_end: f64) -> Result<(Vec<f64>, f64, Vec<f64>)> {
        let (lo, hi) = self.domain;
        start(lo, hi, &self.phi, &self.solver, self.initial_time, t_end)
    }

    fn advance(
        &self,
        xs: &[f64],
        dx: f64,
        u: &mut Vec<f64>,
        first_step: usize,
        t_end: f64,
        observe: Observer<'_>,
    ) -> Result<()> {
        // Face-centred diffusivities d_{j+1/2}, constant in time.
        let faces: Vec<f64> = xs
            .windows(2)
            .map(|w| self.diffusion.value(0.5 * (w[0] + w[1]), self.initial_time))
            .collect();
        solve_theta(
            xs,
            u,
            first_step,
            self.initial_time,
            t_end,
            self.solver.dt,
            0.5,
            FaceDiffusion(&faces, 1.0 / (dx * dx)),
            |t, r: &mut Vec<f64>, k: &mut Vec<f64>| {
                self.growth.fill(xs, t, r);
                self.capacity.fill(xs, t, k);
            },
            None,
            observe,
        )
    }
}

/// Fits an independent `r_d(t) = a·e^{−b(t−1)} + c` per integer distance
/// against the observed density series (with a shared capacity), then
/// assembles them into a [`PerDistanceGrowth`] field — the refinement the
/// paper proposes for its Table II distance-5 failure.
///
/// # Errors
///
/// * [`DlError::InvalidParameter`] — fewer than 2 distances observed.
/// * Propagates optimizer errors.
pub fn calibrate_per_distance_growth(
    observed: &DensityMatrix,
    capacity: f64,
    last_hour: u32,
) -> Result<PerDistanceGrowth> {
    let series: Vec<Vec<f64>> = (1..=observed.max_distance())
        .map(|d| observed.series(d).map(<[f64]>::to_vec))
        .collect::<dlm_cascade::Result<_>>()?;
    // Matrix series always start at hour 1 and carry one entry per hour.
    calibrate_per_distance_growth_series(&series, capacity, 1, last_hour.min(observed.max_hour()))
}

/// [`calibrate_per_distance_growth`] over raw hourly series — the form the
/// [`crate::predict::DiffusionPredictor`] layer uses. `series[i]` is the
/// observed density of distance group `i + 1` at the consecutive absolute
/// hours `initial_hour, initial_hour + 1, …`; the objective integrates in
/// absolute time so the fitted curves evaluate correctly wherever the
/// observation window starts. `fit_hours` caps how many leading entries
/// of each series the fit uses.
///
/// # Errors
///
/// * [`DlError::InvalidParameter`] — fewer than 2 distance series, or
///   fewer than 2 usable observed hours per distance.
/// * Propagates optimizer errors.
pub fn calibrate_per_distance_growth_series(
    series: &[Vec<f64>],
    capacity: f64,
    initial_hour: u32,
    fit_hours: u32,
) -> Result<PerDistanceGrowth> {
    calibrate_per_distance_growth_series_multi(
        series,
        capacity,
        initial_hour,
        fit_hours,
        MultiStartConfig::default(),
    )
}

/// The classic seed `(a, b, c)` of every per-distance fit: start 0 of its
/// multi-start, and the curve a distance with nothing to fit keeps.
const PER_DISTANCE_SEED: [f64; 3] = [1.0, 1.0, 0.2];

/// [`calibrate_per_distance_growth_series`] with an explicit multi-start
/// strategy: each distance's growth-curve fit runs `multi_start.starts`
/// independent box-constrained Levenberg–Marquardt searches (the classic
/// `[1, 1, 0.2]` seed as start 0 plus stratified restarts over the
/// `(a, b, c)` seeding box, see `docs/CALIBRATION.md`), fanned onto the
/// [`dlm_numerics::pool`] executor, keeping the best objective per
/// distance under the bitwise total-order tie-break. Each start may spend
/// 2 000 evaluations, each a closed-form solve with its tangent. A distance
/// with no positive observation after its first hour has nothing to fit
/// and keeps the seed curve without a search.
///
/// # Errors
///
/// Same conditions as [`calibrate_per_distance_growth_series`].
pub fn calibrate_per_distance_growth_series_multi(
    series: &[Vec<f64>],
    capacity: f64,
    initial_hour: u32,
    fit_hours: u32,
    multi_start: MultiStartConfig,
) -> Result<PerDistanceGrowth> {
    if series.len() < 2 {
        return Err(DlError::InvalidParameter {
            name: "observed",
            reason: "need at least 2 distance groups".into(),
        });
    }
    let shortest = series.iter().map(Vec::len).min().unwrap_or(0);
    let fit_hours = fit_hours.min(shortest as u32);
    if fit_hours < 2 {
        return Err(DlError::InvalidParameter {
            name: "observed",
            reason: "need at least 2 observed hours per distance".into(),
        });
    }
    // The search keeps a, b, c ≥ 0; the seeding box only shapes where
    // the restarts begin.
    let search_box = [(0.0, f64::INFINITY); 3];
    let seeding_box = [(0.0, 4.0), (0.0, 4.0), (0.0, 2.0)];
    let lm = LmConfig {
        max_iter: usize::MAX,
        max_evals: 2_000,
        ..LmConfig::default()
    };
    let mut curves = Vec::with_capacity(series.len());
    for series in series {
        let fit = GrowthSeries::new(&series[..fit_hours as usize], capacity, initial_hour);
        let best = if fit.residual_count() == 0 {
            PER_DISTANCE_SEED.to_vec()
        } else {
            let search =
                |seed: &[f64]| local_search_in_box(&mut fit.clone(), seed, &search_box, lm);
            optimize::multi_start(&PER_DISTANCE_SEED, &seeding_box, &multi_start, search)?
                .best
                .x
        };
        curves.push(ExpDecayGrowth::new(best[0], best[1], best[2]));
    }
    PerDistanceGrowth::new(1.0, curves)
}

/// One distance's fit as least squares: the logistic ODE
/// `dy/dt = r(t)·y·(1 − y/K)` with a candidate `r(t) = a·e^{−b(t−1)} + c`,
/// solved in closed form from the first observation, against every later
/// positive observation. Residual `k` is `(y_k − obs_k)/obs_k/√count`, so
/// the sum of squares is the mean squared relative error.
#[derive(Debug, Clone)]
struct GrowthSeries<'a> {
    target: &'a [f64],
    y0: f64,
    capacity: f64,
    /// Absolute time of `target[0]`.
    t0: f64,
    /// `1/√count` over the positive observations after the first.
    weight: f64,
    count: usize,
}

impl<'a> GrowthSeries<'a> {
    fn new(target: &'a [f64], capacity: f64, initial_hour: u32) -> Self {
        let count = target[1..].iter().filter(|&&obs| obs > 0.0).count();
        Self {
            target,
            y0: target[0].max(1e-6),
            capacity,
            t0: f64::from(initial_hour),
            weight: 1.0 / (count as f64).sqrt(),
            count,
        }
    }
}

impl JacobianProblem for GrowthSeries<'_> {
    fn residual_count(&self) -> usize {
        self.count
    }

    fn parameter_count(&self) -> usize {
        3
    }

    fn evaluate(&mut self, p: &[f64], residuals: &mut [f64], jacobian: &mut Matrix) {
        let (a, b, c) = (p[0], p[1], p[2]);
        if !(p.iter().all(|v| v.is_finite()) && a >= 0.0 && b >= 0.0 && c >= 0.0 && a + c < 20.0) {
            residuals.fill(f64::NAN);
            return;
        }
        let growth = ExpDecayGrowth::new(a, b, c);
        let mut k = 0;
        for (hour, &obs) in self.target.iter().enumerate().skip(1) {
            if obs > 0.0 {
                // Series entry `hour` sits at absolute time t0 + hour.
                let (y, tangent) =
                    growth.logistic(self.y0, self.capacity, self.t0, self.t0 + hour as f64);
                let scale = self.weight / obs;
                residuals[k] = (y - obs) * scale;
                for (j, &s) in tangent.iter().enumerate() {
                    jacobian[(k, j)] = s * scale;
                }
                k += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::growth::GrowthRate;

    const OBS: [f64; 6] = [2.1, 0.7, 0.9, 0.5, 0.3, 0.2];

    #[test]
    fn constant_fields_reduce_to_classic_model() {
        // With constant coefficients the generalized solver must agree
        // with the classic one.
        let classic = crate::model::DlModel::paper_hops(&OBS).unwrap();
        let general = VariableDlModelBuilder::new(1.0, 6.0)
            .unwrap()
            .diffusion(ConstantField(0.01))
            .growth(TimeOnlyField(ExpDecayGrowth::paper_hops()))
            .capacity(ConstantField(25.0))
            .build(&OBS)
            .unwrap();
        let dists = [1u32, 3, 6];
        let hours = [3u32, 6];
        let a = classic.predict(&dists, &hours).unwrap();
        let b = general.predict(&dists, &hours).unwrap();
        for &d in &dists {
            for &h in &hours {
                let va = a.at(d, h).unwrap();
                let vb = b.at(d, h).unwrap();
                assert!((va - vb).abs() < 1e-6, "d={d} h={h}: {va} vs {vb}");
            }
        }
    }

    #[test]
    fn spatially_varying_growth_changes_profile_shape() {
        // Boost growth only near x = 6: the far end must outgrow the near
        // end relative to the uniform model.
        let uniform = VariableDlModelBuilder::new(1.0, 6.0)
            .unwrap()
            .build(&[1.0; 6])
            .unwrap();
        let boosted = VariableDlModelBuilder::new(1.0, 6.0)
            .unwrap()
            .growth(
                SeparableField::new(
                    &[1.0, 5.0, 6.0],
                    &[1.0, 1.0, 3.0],
                    ExpDecayGrowth::paper_hops(),
                )
                .unwrap(),
            )
            .build(&[1.0; 6])
            .unwrap();
        let pu = uniform.predict(&[6], &[4]).unwrap().at(6, 4).unwrap();
        let pb = boosted.predict(&[6], &[4]).unwrap().at(6, 4).unwrap();
        assert!(pb > pu + 0.1, "boosted {pb} !> uniform {pu}");
    }

    #[test]
    fn spatially_varying_capacity_caps_locally() {
        // K(x) low at the far end: with no diffusion the dynamics are
        // pointwise logistic, so the far end must respect its local K
        // exactly. (With d > 0 diffusion legitimately pushes the low-K
        // region slightly above K at steady state — influx balances the
        // logistic sink.)
        let model = VariableDlModelBuilder::new(1.0, 6.0)
            .unwrap()
            .diffusion(ConstantField(0.0))
            .capacity(
                SeparableField::new(
                    &[1.0, 3.0, 6.0],
                    &[25.0, 25.0, 5.0],
                    ExpDecayGrowth::new(0.0, 0.0, 1.0), // s(x)*1.0: pure spatial K
                )
                .unwrap(),
            )
            .build(&[2.0; 6])
            .unwrap();
        let sol = model.solve_until(60.0).unwrap();
        let last = sol.values().last().unwrap();
        let x6 = sol.grid().len() - 1;
        assert!(
            last[x6] <= 5.0 + 1e-6,
            "far end exceeded its local K: {}",
            last[x6]
        );
        assert!(last[0] > 20.0, "near end should approach 25: {}", last[0]);
    }

    #[test]
    fn variable_diffusion_transports_where_d_is_large() {
        // d(x) = 0 on the left half, large on the right: the right half
        // must flatten while the left half keeps its shape.
        let model = VariableDlModelBuilder::new(1.0, 7.0)
            .unwrap()
            .diffusion(
                SeparableField::new(
                    &[1.0, 4.0, 4.001, 7.0],
                    &[0.0, 0.0, 0.8, 0.8],
                    ExpDecayGrowth::new(0.0, 0.0, 1.0),
                )
                .unwrap(),
            )
            .growth(TimeOnlyField(ExpDecayGrowth::new(0.0, 0.0, 0.0))) // no reaction
            .capacity(ConstantField(25.0))
            .build(&[4.0, 1.0, 4.0, 1.0, 4.0, 1.0, 4.0])
            .unwrap();
        let sol = model.solve_until(30.0).unwrap();
        let last = sol.values().last().unwrap();
        let xs = sol.grid();
        let spread = |lo: f64, hi: f64| {
            let vals: Vec<f64> = xs
                .iter()
                .zip(last)
                .filter(|(x, _)| **x >= lo && **x <= hi)
                .map(|(_, v)| *v)
                .collect();
            vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
                - vals.iter().cloned().fold(f64::INFINITY, f64::min)
        };
        assert!(
            spread(5.0, 7.0) < 0.1,
            "right half not flattened: {}",
            spread(5.0, 7.0)
        );
        assert!(
            spread(1.0, 3.5) > 1.0,
            "left half should keep its bumps: {}",
            spread(1.0, 3.5)
        );
    }

    #[test]
    fn per_distance_growth_interpolates_between_curves() {
        let slow = ExpDecayGrowth::new(0.5, 1.0, 0.1);
        let fast = ExpDecayGrowth::new(2.0, 1.0, 0.4);
        let field = PerDistanceGrowth::new(1.0, vec![slow, fast]).unwrap();
        assert!((field.value(1.0, 1.0) - slow.rate(1.0)).abs() < 1e-12);
        assert!((field.value(2.0, 1.0) - fast.rate(1.0)).abs() < 1e-12);
        let mid = field.value(1.5, 1.0);
        assert!((mid - 0.5 * (slow.rate(1.0) + fast.rate(1.0))).abs() < 1e-12);
        // Clamped beyond the table.
        assert_eq!(field.value(99.0, 2.0), fast.rate(2.0));
        assert_eq!(field.value(0.0, 2.0), slow.rate(2.0));
    }

    #[test]
    fn per_distance_calibration_recovers_heterogeneous_rates() {
        // Build observations where distance 1 grows fast and distance 2
        // grows slowly; the fitted field must preserve that ordering.
        let capacity = 25.0;
        let logistic = |t: f64, y0: f64, r: f64| {
            capacity / (1.0 + (capacity / y0 - 1.0) * (-r * (t - 1.0)).exp())
        };
        let pop = 100_000usize;
        let counts: Vec<Vec<usize>> = [(2.0, 1.2f64), (2.0, 0.3f64)]
            .iter()
            .map(|&(y0, r)| {
                (1..=6)
                    .map(|h| ((logistic(f64::from(h), y0, r) / 100.0) * pop as f64) as usize)
                    .collect()
            })
            .collect();
        let observed = DensityMatrix::from_counts(&counts, &[pop; 2]).unwrap();
        let field = calibrate_per_distance_growth(&observed, capacity, 6).unwrap();
        // Effective early rate at distance 1 must exceed distance 2's.
        assert!(
            field.value(1.0, 1.5) > field.value(2.0, 1.5) + 0.2,
            "{} vs {}",
            field.value(1.0, 1.5),
            field.value(2.0, 1.5)
        );
    }

    #[test]
    fn a_distance_with_nothing_to_fit_keeps_the_seed_curve() {
        // Distance 1 has no positive observation after its first hour, so
        // its fit has no residual: it keeps the seed curve, unsearched,
        // while distance 2 is fitted.
        let series = [vec![0.5, 0.0, 0.0, 0.0], vec![1.0, 2.0, 3.5, 5.0]];
        let field = calibrate_per_distance_growth_series(&series, 25.0, 1, 4).unwrap();
        let [a, b, c] = PER_DISTANCE_SEED;
        assert_eq!(field.curves()[0], ExpDecayGrowth::new(a, b, c));
        assert_ne!(field.curves()[1], field.curves()[0]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The closed-form tangent is the derivative of the closed-form
        /// solution: fourth-order differences of `y` agree with it to a
        /// tight relative tolerance, over the seeding box and at decays
        /// near and at 0.
        #[test]
        fn closed_form_tangent_matches_finite_differences(
            a in 0.0f64..4.0,
            b in 0.0f64..4.0,
            c in 0.0f64..2.0,
            y0 in 0.01f64..20.0,
            start in 1u32..6,
        ) {
            let t0 = f64::from(start);
            for b in [b, 1e-4, 1e-8, 1e-12, 0.0] {
                let p = [a, b, c];
                let solve = |q: [f64; 3], t: f64| {
                    ExpDecayGrowth::new(q[0], q[1], q[2]).logistic(y0, 25.0, t0, t)
                };
                for hours in 1..=3 {
                    let t = t0 + f64::from(hours);
                    let (y, tangent) = solve(p, t);
                    for j in 0..3 {
                        // `y` varies with `b` on the time scale 1/(t − 1).
                        let h = 1e-3 * p[j].max(1.0) / t;
                        let at = |offset: f64| {
                            let mut q = p;
                            q[j] += offset * h;
                            solve(q, t).0
                        };
                        // Central differences where the stencil stays in
                        // the non-negative box, forward ones at its edge.
                        let difference = if p[j] >= 2.0 * h {
                            (8.0 * (at(1.0) - at(-1.0)) - (at(2.0) - at(-2.0))) / (12.0 * h)
                        } else {
                            (-25.0 * y + 48.0 * at(1.0) - 36.0 * at(2.0) + 16.0 * at(3.0)
                                - 3.0 * at(4.0))
                                / (12.0 * h)
                        };
                        // Relative 1e-6, plus the rounding of `y` the
                        // difference quotient divides by `h`.
                        let tolerance = 1e-6 * tangent[j].abs() + 100.0 * f64::EPSILON * y / h;
                        proptest::prop_assert!(
                            (difference - tangent[j]).abs() <= tolerance,
                            "∂y/∂p{j} at t {t}: tangent {} vs differences {difference} at {p:?}",
                            tangent[j]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn builder_rejects_bad_inputs() {
        assert!(VariableDlModelBuilder::new(6.0, 1.0).is_err());
        let b = VariableDlModelBuilder::new(1.0, 6.0).unwrap();
        assert!(b
            .clone()
            .diffusion(ConstantField(-1.0))
            .build(&OBS)
            .is_err());
        assert!(b.clone().capacity(ConstantField(0.0)).build(&OBS).is_err());
        let m = b.build(&OBS).unwrap();
        assert!(m.solve_until(0.5).is_err());
        assert!(m.predict(&[], &[2]).is_err());
    }

    #[test]
    fn degenerate_resolution_is_an_invalid_parameter() {
        let builder = VariableDlModelBuilder::new(1.0, 6.0).unwrap();
        for (space_intervals, dt) in [(0, 0.01), (1, 0.01), (10, 0.0), (10, f64::NAN), (10, -1.0)] {
            let model = builder
                .clone()
                .resolution(space_intervals, dt)
                .build(&OBS)
                .unwrap();
            for result in [
                model.solve_until(6.0).map(|_| ()),
                model.predict(&[1, 6], &[2, 6]).map(|_| ()),
            ] {
                assert!(
                    matches!(result, Err(DlError::InvalidParameter { .. })),
                    "({space_intervals}, {dt}): {result:?}"
                );
            }
        }
    }

    #[test]
    fn calibration_rejects_single_distance() {
        let observed = DensityMatrix::from_counts(&[vec![1, 2, 3]], &[100]).unwrap();
        assert!(calibrate_per_distance_growth(&observed, 25.0, 3).is_err());
    }

    #[test]
    fn series_calibration_is_anchored_in_absolute_time() {
        // Generate series at absolute hours 4..=7 from a known decaying
        // growth curve; the fitted curves must reproduce the trajectory
        // over the SAME absolute window. A fit that
        // silently re-anchors the series at hour 1 sees a much steeper
        // effective decay and fails this round trip.
        let capacity = 25.0;
        let truth = ExpDecayGrowth::new(2.0, 1.0, 0.2);
        let series_from = |y0: f64| -> Vec<f64> {
            (4..=7)
                .map(|hour| truth.logistic(y0, capacity, 4.0, f64::from(hour)).0)
                .collect()
        };
        let series = [series_from(2.0), series_from(1.0)];
        let field = calibrate_per_distance_growth_series(&series, capacity, 4, 4).unwrap();
        for (s, curve) in series.iter().zip(field.curves()) {
            let got = curve.logistic(s[0], capacity, 4.0, 7.0).0;
            let want = s[3];
            assert!(
                (got - want).abs() / want < 0.05,
                "{curve:?}: fitted trajectory {got} vs observed {want}"
            );
        }
    }

    #[test]
    fn non_convergence_reports_the_last_residual() {
        // An absurd step with huge d and r: the residual stalls at the
        // round-off floor of million-scale terms, far above the tolerance.
        let model = VariableDlModelBuilder::new(1.0, 6.0)
            .unwrap()
            .diffusion(ConstantField(1e6))
            .growth(ConstantField(1e6))
            .resolution(20, 1e3)
            .build(&OBS)
            .unwrap();
        match model.solve_until(1001.0).unwrap_err() {
            DlError::Numerics(dlm_numerics::NumericsError::NoConvergence {
                algorithm,
                iterations,
                residual,
            }) => {
                // The θ-stepper's Newton budget and tolerance in `pde.rs`.
                assert_eq!(algorithm, "crank-nicolson newton");
                assert_eq!(iterations, 30);
                assert!(
                    residual.is_finite() && residual >= 1e-11,
                    "residual {residual}"
                );
            }
            other => panic!("expected NoConvergence, got {other:?}"),
        }
    }
}
