//! The [`DlModel`] facade: the paper's end-to-end prediction pipeline.
//!
//! Construct a model from hour-1 observations (building φ per §II.D),
//! solve the DL equation forward, and read off predicted densities at the
//! integer distances and hours the evaluation compares against ("in online
//! social networks, the density is only meaningful when distance is
//! integer"). A fitted model keeps the cells it has read in a readout
//! table and resumes its solve for later hours instead of re-solving.

use crate::error::{DlError, Result};
use crate::growth::{ExpDecayGrowth, GrowthRate};
use crate::initial::{InitialDensity, PhiConstruction};
use crate::params::DlParameters;
use crate::pde::{
    self, interp_row, shared_time_grid, solve, step_eq4, Observer, PdeSolution, SolverConfig,
};
use crate::predict::FitConfig;
use std::fmt;
use std::sync::{Arc, Mutex};

/// A configured diffusive logistic model, ready to solve and predict.
///
/// Build with [`DlModelBuilder`]; the two paper presets are available as
/// [`DlModel::paper_hops`] and [`DlModel::paper_interest`].
///
/// # Examples
///
/// ```
/// use dlm_core::model::DlModel;
///
/// # fn main() -> Result<(), dlm_core::DlError> {
/// // Hour-1 densities at distances 1..=6, as in Figure 7a's lowest line.
/// let observed = [2.1, 0.7, 0.9, 0.5, 0.3, 0.2];
/// let model = DlModel::paper_hops(&observed)?;
/// let prediction = model.predict(&[1, 2, 3, 4, 5, 6], &[2, 3, 4, 5, 6])?;
/// // Densities grow over time (strictly increasing property).
/// assert!(prediction.at(1, 6)? > prediction.at(1, 2)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DlModel {
    params: DlParameters,
    growth: Arc<dyn GrowthRate + Send + Sync>,
    phi: InitialDensity,
    solver: SolverConfig,
    initial_time: f64,
    readout: Readout,
}

/// Builder for [`DlModel`].
///
/// All scalar fitting options live in a shared [`FitConfig`] (the same
/// struct [`crate::variable::VariableDlModelBuilder`] consumes); the
/// individual setters below are conveniences writing through to it. An
/// explicit [`DlModelBuilder::growth`] call overrides the config's
/// [`crate::predict::GrowthFamily`] with an arbitrary [`GrowthRate`]
/// implementation.
#[derive(Debug, Clone)]
pub struct DlModelBuilder {
    params: DlParameters,
    config: FitConfig,
    growth_override: Option<Arc<dyn GrowthRate + Send + Sync>>,
}

impl DlModelBuilder {
    /// Starts a builder with the given scalar parameters and the default
    /// [`FitConfig`] (paper growth, flat-ended spline φ, default solver,
    /// initial time 1).
    #[must_use]
    pub fn new(params: DlParameters) -> Self {
        Self {
            params,
            config: FitConfig::default(),
            growth_override: None,
        }
    }

    /// Replaces the fit configuration. A growth curve set with
    /// [`DlModelBuilder::growth`] keeps overriding the config's family,
    /// whichever call comes first.
    #[must_use]
    pub fn fit_config(mut self, config: FitConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the growth-rate function `r(t)`, overriding the config's
    /// growth family (accepts arbitrary implementations, e.g.
    /// [`crate::growth::FnGrowth`]).
    #[must_use]
    pub fn growth(mut self, growth: impl GrowthRate + Send + Sync + 'static) -> Self {
        self.growth_override = Some(Arc::new(growth));
        self
    }

    /// Sets the φ interpolation scheme.
    #[must_use]
    pub fn phi_construction(mut self, construction: PhiConstruction) -> Self {
        self.config.phi = construction;
        self
    }

    /// Sets the PDE solver configuration.
    #[must_use]
    pub fn solver(mut self, solver: SolverConfig) -> Self {
        self.config.solver = solver;
        self
    }

    /// Sets the time of the initial observation (default 1.0 — the
    /// paper's first hour).
    #[must_use]
    pub fn initial_time(mut self, t: f64) -> Self {
        self.config.initial_time = t;
        self
    }

    /// Builds the model from the hour-`initial_time` density observations
    /// at integer distances `l, l+1, …`.
    ///
    /// # Errors
    ///
    /// Propagates φ-construction validation errors.
    pub fn build(self, observed_initial: &[f64]) -> Result<DlModel> {
        let phi =
            InitialDensity::from_observations(&self.params, observed_initial, self.config.phi)?;
        let growth = self
            .growth_override
            .unwrap_or_else(|| self.config.growth.build());
        Ok(DlModel {
            params: self.params,
            growth,
            phi,
            solver: self.config.solver,
            initial_time: self.config.initial_time,
            readout: Readout::default(),
        })
    }
}

/// Predicted densities at integer distances and hours.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    distances: Vec<u32>,
    hours: Vec<u32>,
    /// values[di][hi] — prediction for distances[di] at hours[hi].
    values: Vec<Vec<f64>>,
}

impl Prediction {
    /// Reads `I(d, h)` with `value_at(d, h)` at every distance × hour
    /// pair, distance-major, stopping at the first error.
    fn read(
        distances: &[u32],
        hours: &[u32],
        value_at: impl Fn(f64, f64) -> Result<f64>,
    ) -> Result<Self> {
        let values = distances
            .iter()
            .map(|&d| {
                hours
                    .iter()
                    .map(|&h| value_at(f64::from(d), f64::from(h)))
                    .collect()
            })
            .collect::<Result<_>>()?;
        Ok(Self {
            distances: distances.to_vec(),
            hours: hours.to_vec(),
            values,
        })
    }

    /// Assembles a prediction from raw values: `values[di][hi]` is the
    /// density predicted for `distances[di]` at `hours[hi]`. Used by the
    /// baseline predictors in [`crate::baselines`].
    ///
    /// # Errors
    ///
    /// Returns [`DlError::InvalidParameter`] for empty or ragged inputs.
    pub fn from_values(
        distances: Vec<u32>,
        hours: Vec<u32>,
        values: Vec<Vec<f64>>,
    ) -> Result<Self> {
        if distances.is_empty() || hours.is_empty() {
            return Err(DlError::InvalidParameter {
                name: "distances/hours",
                reason: "must be nonempty".into(),
            });
        }
        if values.len() != distances.len() || values.iter().any(|row| row.len() != hours.len()) {
            return Err(DlError::InvalidParameter {
                name: "values",
                reason: format!("need {} rows of {} values", distances.len(), hours.len()),
            });
        }
        Ok(Self {
            distances,
            hours,
            values,
        })
    }

    /// Distances covered by the prediction.
    #[must_use]
    pub fn distances(&self) -> &[u32] {
        &self.distances
    }

    /// Hours covered by the prediction.
    #[must_use]
    pub fn hours(&self) -> &[u32] {
        &self.hours
    }

    /// Predicted density at `(distance, hour)`.
    ///
    /// # Errors
    ///
    /// Returns [`DlError::OutOfDomain`] if the pair was not requested.
    pub fn at(&self, distance: u32, hour: u32) -> Result<f64> {
        let di =
            self.distances
                .iter()
                .position(|&d| d == distance)
                .ok_or(DlError::OutOfDomain {
                    axis: "distance",
                    value: f64::from(distance),
                    range: (
                        f64::from(*self.distances.first().unwrap_or(&0)),
                        f64::from(*self.distances.last().unwrap_or(&0)),
                    ),
                })?;
        let hi = self
            .hours
            .iter()
            .position(|&h| h == hour)
            .ok_or(DlError::OutOfDomain {
                axis: "time",
                value: f64::from(hour),
                range: (
                    f64::from(*self.hours.first().unwrap_or(&0)),
                    f64::from(*self.hours.last().unwrap_or(&0)),
                ),
            })?;
        Ok(self.values[di][hi])
    }

    /// Predicted spatial profile (one value per distance) at `hour`.
    ///
    /// # Errors
    ///
    /// Returns [`DlError::OutOfDomain`] if `hour` was not requested.
    pub fn profile_at(&self, hour: u32) -> Result<Vec<f64>> {
        let hi = self
            .hours
            .iter()
            .position(|&h| h == hour)
            .ok_or(DlError::OutOfDomain {
                axis: "time",
                value: f64::from(hour),
                range: (
                    f64::from(*self.hours.first().unwrap_or(&0)),
                    f64::from(*self.hours.last().unwrap_or(&0)),
                ),
            })?;
        Ok(self.values.iter().map(|row| row[hi]).collect())
    }
}

/// A model whose solve a [`Readout`] can run and resume: Eq. 4
/// ([`DlModel`]) or §V ([`crate::variable::VariableDlModel`]).
pub(crate) trait Resumable {
    /// The time of the initial observation, where every solve starts.
    fn initial_time(&self) -> f64;

    /// The step of the θ-stepper the model is solved with, or `None` for
    /// an explicit method.
    fn theta_dt(&self) -> Option<f64>;

    /// Solves to `t_end`, recording every step.
    fn solve_until(&self, t_end: f64) -> Result<PdeSolution>;

    /// The grid, its spacing and φ on it, for a solve to `t_end`.
    fn start(&self, t_end: f64) -> Result<(Vec<f64>, f64, Vec<f64>)>;

    /// Steps `u`, the field after step `first_step` of a solve to
    /// `t_end`, on to `t_end`, handing each step to `observe`.
    fn advance(
        &self,
        xs: &[f64],
        dx: f64,
        u: &mut Vec<f64>,
        first_step: usize,
        t_end: f64,
        observe: Observer<'_>,
    ) -> Result<()>;
}

/// A fitted model's readout table: `I(d, h)` at every integer distance on
/// the grid and every integer hour from the initial time up to the
/// latest hour asked for so far, plus the θ-stepper's state at the end
/// of that solve.
///
/// A request within the table reads cells and runs no PDE step; one past
/// it resumes the solve from the stored state and never re-steps earlier
/// hours. Either way the cells are bit for bit what
/// [`PdeSolution::value_at`] returns on a fresh solve to the request's
/// latest hour: [`shared_time_grid`] guards each request, and a request
/// it rejects (a non-integer initial time, another `dt`, an explicit
/// method) is answered by such a fresh solve. A fill that fails or
/// panics leaves an empty table, so the next request re-fills from φ.
/// A clone starts empty.
#[derive(Default)]
pub(crate) struct Readout(Mutex<Option<Table>>);

/// The cells and stepper state behind a [`Readout`].
struct Table {
    xs: Vec<f64>,
    dx: f64,
    /// The field after `steps` steps.
    state: Vec<f64>,
    steps: usize,
    /// The first integer distance `value_at` accepts; `width` follow it.
    first_distance: u32,
    width: usize,
    /// Hour-major cells of the hours `t0, t0 + 1, …, t0 + hours − 1`.
    cells: Vec<f64>,
    hours: usize,
}

impl Clone for Readout {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl fmt::Debug for Readout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Readout").finish_non_exhaustive()
    }
}

impl Readout {
    /// Predicts densities at the given integer distances and hours of
    /// `model`, through the table when the request's time grid allows.
    pub(crate) fn predict(
        &self,
        model: &impl Resumable,
        distances: &[u32],
        hours: &[u32],
    ) -> Result<Prediction> {
        if distances.is_empty() || hours.is_empty() {
            return Err(DlError::InvalidParameter {
                name: "distances/hours",
                reason: "must be nonempty".into(),
            });
        }
        let t0 = model.initial_time();
        let t_max = f64::from(*hours.iter().max().expect("nonempty"));
        if t_max <= t0 {
            return Err(DlError::InvalidParameter {
                name: "hours",
                reason: format!("latest requested hour {t_max} must exceed the initial time {t0}"),
            });
        }
        let Some((steps, t_last)) = model
            .theta_dt()
            .and_then(|dt| shared_time_grid(t0, t_max, dt))
        else {
            let solution = model.solve_until(t_max)?;
            return Prediction::read(distances, hours, |x, t| solution.value_at(x, t));
        };
        let mut slot = self.0.lock().unwrap_or_else(|poisoned| {
            self.0.clear_poison();
            poisoned.into_inner()
        });
        // Out of the slot while it grows: an error or a panic leaves it
        // empty, so a slot recovered from a poisoned lock is always valid.
        let mut table = match slot.take() {
            Some(table) => table,
            None => Table::start(model, t_max)?,
        };
        table.fill(model, t_max, steps)?;
        let prediction =
            Prediction::read(distances, hours, |x, t| table.value_at(t0, t_last, x, t));
        *slot = Some(table);
        prediction
    }
}

impl Table {
    /// A table holding the initial hour's cells, read off φ.
    fn start(model: &impl Resumable, t_end: f64) -> Result<Self> {
        let (xs, dx, u0) = model.start(t_end)?;
        let lo = (xs[0] - 1e-9).ceil().max(0.0);
        let hi = (xs[xs.len() - 1] + 1e-9).floor();
        let width = if hi >= lo { (hi - lo) as usize + 1 } else { 0 };
        let mut table = Self {
            xs,
            dx,
            state: u0,
            steps: 0,
            first_distance: lo as u32,
            width,
            cells: Vec::new(),
            hours: 1,
        };
        table.cells = (0..width)
            .map(|i| interp_row(&table.xs, &table.state, table.distance(i)))
            .collect();
        Ok(table)
    }

    /// The `i`-th readable distance, clamped to the grid as `value_at`
    /// clamps it.
    fn distance(&self, i: usize) -> f64 {
        f64::from(self.first_distance + i as u32).clamp(self.xs[0], self.xs[self.xs.len() - 1])
    }

    /// Resumes the solve to `t_end` (`steps` steps), reading each integer
    /// hour past the table as the stepper passes it.
    fn fill(&mut self, model: &impl Resumable, t_end: f64, steps: usize) -> Result<()> {
        let t0 = model.initial_time();
        let mut next = t0 + self.hours as f64;
        if next > t_end {
            return Ok(());
        }
        let mut cells = std::mem::take(&mut self.cells);
        let distances: Vec<f64> = (0..self.width).map(|i| self.distance(i)).collect();
        model.advance(
            &self.xs,
            self.dx,
            &mut self.state,
            self.steps,
            t_end,
            &mut |step| {
                while next <= t_end && next <= step.next.0 {
                    cells.extend(distances.iter().map(|&x| step.value(x, next)));
                    next += 1.0;
                }
            },
        )?;
        self.cells = cells;
        self.steps = steps;
        self.hours = (next - t0) as usize;
        Ok(())
    }

    /// The cell `value_at(x, t)` reads from a solve from `t0` whose last
    /// recorded time is `t_last`, with its domain errors.
    fn value_at(&self, t0: f64, t_last: f64, x: f64, t: f64) -> Result<f64> {
        let (x0, x1) = (self.xs[0], self.xs[self.xs.len() - 1]);
        if !(x >= x0 - 1e-9 && x <= x1 + 1e-9) {
            return Err(DlError::OutOfDomain {
                axis: "distance",
                value: x,
                range: (x0, x1),
            });
        }
        if !(t >= t0 - 1e-9 && t <= t_last + 1e-9) {
            return Err(DlError::OutOfDomain {
                axis: "time",
                value: t,
                range: (t0, t_last),
            });
        }
        let row = (t - t0) as usize;
        let column = (x as u32 - self.first_distance) as usize;
        Ok(self.cells[row * self.width + column])
    }
}

impl Resumable for DlModel {
    fn initial_time(&self) -> f64 {
        self.initial_time
    }

    fn theta_dt(&self) -> Option<f64> {
        self.solver.method.is_theta().then_some(self.solver.dt)
    }

    fn solve_until(&self, t_end: f64) -> Result<PdeSolution> {
        DlModel::solve_until(self, t_end)
    }

    fn start(&self, t_end: f64) -> Result<(Vec<f64>, f64, Vec<f64>)> {
        let (lower, upper) = (self.params.lower(), self.params.upper());
        pde::start(
            lower,
            upper,
            &self.phi,
            &self.solver,
            self.initial_time,
            t_end,
        )
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
        step_eq4(
            &self.params,
            self.growth.as_ref(),
            &self.solver,
            xs,
            dx,
            u,
            first_step,
            self.initial_time,
            t_end,
            None,
            observe,
        )
    }
}

impl DlModel {
    /// The paper's friendship-hop configuration: `d = 0.01`, `K = 25`,
    /// Eq.-7 growth, domain `[1, observed.len()]`.
    ///
    /// # Errors
    ///
    /// Propagates parameter/φ validation errors.
    pub fn paper_hops(observed_initial: &[f64]) -> Result<Self> {
        let params = DlParameters::paper_hops(observed_initial.len() as u32)?;
        DlModelBuilder::new(params)
            .growth(ExpDecayGrowth::paper_hops())
            .build(observed_initial)
    }

    /// The paper's shared-interest configuration: `d = 0.05`, `K = 60`,
    /// `r(t) = 1.6·e^{−(t−1)} + 0.1`.
    ///
    /// # Errors
    ///
    /// Propagates parameter/φ validation errors.
    pub fn paper_interest(observed_initial: &[f64]) -> Result<Self> {
        let params = DlParameters::paper_interest(observed_initial.len() as u32)?;
        DlModelBuilder::new(params)
            .growth(ExpDecayGrowth::paper_interest())
            .build(observed_initial)
    }

    /// The scalar parameters.
    #[must_use]
    pub fn params(&self) -> &DlParameters {
        &self.params
    }

    /// The growth-rate function.
    #[must_use]
    pub fn growth(&self) -> &(dyn GrowthRate + Send + Sync) {
        self.growth.as_ref()
    }

    /// The initial density function φ.
    #[must_use]
    pub fn phi(&self) -> &InitialDensity {
        &self.phi
    }

    /// The time of the initial observation.
    #[must_use]
    pub fn initial_time(&self) -> f64 {
        self.initial_time
    }

    /// Solves the PDE from the initial time up to `t_end`.
    ///
    /// # Errors
    ///
    /// Propagates solver errors; `t_end` must exceed the initial time.
    pub fn solve_until(&self, t_end: f64) -> Result<PdeSolution> {
        solve(
            &self.params,
            self.growth.as_ref(),
            &self.phi,
            self.initial_time,
            t_end,
            &self.solver,
        )
    }

    /// Predicts densities at the given integer distances and hours.
    ///
    /// # Errors
    ///
    /// * [`DlError::InvalidParameter`] — empty distance/hour lists, or
    ///   hours at/before the initial time.
    /// * [`DlError::OutOfDomain`] — a distance outside `[l, L]`.
    /// * Propagates solver errors.
    ///
    /// The model keeps the cells it has solved for: a later request
    /// reads them, and one reaching past them resumes the solve, with the
    /// same bits a fresh model returns.
    pub fn predict(&self, distances: &[u32], hours: &[u32]) -> Result<Prediction> {
        self.readout.predict(self, distances, hours)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::growth::FnGrowth;
    use crate::pde::SolverMethod;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    const OBS: [f64; 6] = [2.1, 0.7, 0.9, 0.5, 0.3, 0.2];

    /// The paper's Eq.-7 growth, `r(t) = 1.4·e^{−1.5(t−1)} + 0.25`.
    fn eq7(t: f64) -> f64 {
        1.4 * (-1.5 * (t - 1.0)).exp() + 0.25
    }

    fn bits(prediction: &Prediction) -> Vec<u64> {
        prediction
            .values
            .iter()
            .flatten()
            .map(|v| v.to_bits())
            .collect()
    }

    #[test]
    fn paper_hops_preset_predicts_growth() {
        let model = DlModel::paper_hops(&OBS).unwrap();
        let p = model
            .predict(&[1, 2, 3, 4, 5, 6], &[2, 3, 4, 5, 6])
            .unwrap();
        for d in 1..=6 {
            let mut prev = 0.0;
            for h in 2..=6 {
                let v = p.at(d, h).unwrap();
                assert!(v > prev, "not increasing at d={d}, h={h}");
                assert!(v <= 25.0 + 1e-6, "exceeded K");
                prev = v;
            }
        }
    }

    #[test]
    fn paper_interest_preset_has_its_parameters() {
        let model = DlModel::paper_interest(&OBS[..5]).unwrap();
        assert_eq!(model.params().diffusion(), 0.05);
        assert_eq!(model.params().capacity(), 60.0);
        assert!(model.growth().describe().contains("1.6"));
    }

    #[test]
    fn prediction_interpolates_initial_condition_forward() {
        // At hour 2 with tiny growth and diffusion, the profile is close to φ.
        let params = DlParameters::new(1e-6, 25.0, 1.0, 6.0).unwrap();
        let model = DlModelBuilder::new(params)
            .growth(ExpDecayGrowth::new(0.0, 0.0, 1e-6))
            .build(&OBS)
            .unwrap();
        let p = model.predict(&[1, 2, 3, 4, 5, 6], &[2]).unwrap();
        for (i, &obs) in OBS.iter().enumerate() {
            assert!((p.at(i as u32 + 1, 2).unwrap() - obs).abs() < 1e-3);
        }
    }

    #[test]
    fn builder_options_apply() {
        let params = DlParameters::paper_hops(6).unwrap();
        let model = DlModelBuilder::new(params)
            .growth(ExpDecayGrowth::new(0.0, 0.0, 0.3))
            .phi_construction(crate::initial::PhiConstruction::Linear)
            .solver(SolverConfig {
                method: SolverMethod::Rk4,
                space_intervals: 50,
                dt: 0.002,
            })
            .initial_time(2.0)
            .build(&OBS)
            .unwrap();
        assert_eq!(model.initial_time(), 2.0);
        assert_eq!(
            model.phi().construction(),
            crate::initial::PhiConstruction::Linear
        );
        let p = model.predict(&[1, 3], &[3, 4]).unwrap();
        assert!(p.at(1, 4).unwrap() > 0.0);
    }

    #[test]
    fn predict_rejects_bad_requests() {
        let model = DlModel::paper_hops(&OBS).unwrap();
        assert!(model.predict(&[], &[2]).is_err());
        assert!(model.predict(&[1], &[]).is_err());
        assert!(model.predict(&[1], &[1]).is_err()); // not beyond initial time
        assert!(model.predict(&[99], &[3]).is_err()); // outside [1, 6]
    }

    #[test]
    fn prediction_accessors() {
        let model = DlModel::paper_hops(&OBS).unwrap();
        let p = model.predict(&[1, 2], &[2, 3]).unwrap();
        assert_eq!(p.distances(), &[1, 2]);
        assert_eq!(p.hours(), &[2, 3]);
        let profile = p.profile_at(3).unwrap();
        assert_eq!(profile.len(), 2);
        assert!(p.at(3, 2).is_err());
        assert!(p.at(1, 9).is_err());
        assert!(p.profile_at(9).is_err());
    }

    #[test]
    fn solve_until_exposes_full_field() {
        let model = DlModel::paper_hops(&OBS).unwrap();
        let sol = model.solve_until(6.0).unwrap();
        assert!(sol.times().first().copied().unwrap() == 1.0);
        assert!((sol.times().last().copied().unwrap() - 6.0).abs() < 1e-9);
        assert!(sol.max_value() <= 25.0 + 1e-6);
    }

    #[test]
    fn profile_at_reports_the_requested_hours() {
        let model = DlModel::paper_hops(&OBS).unwrap();
        let p = model.predict(&[1, 2], &[3, 5]).unwrap();
        match p.profile_at(9).unwrap_err() {
            DlError::OutOfDomain { axis, value, range } => {
                assert_eq!((axis, value, range), ("time", 9.0, (3.0, 5.0)));
            }
            other => panic!("expected OutOfDomain, got {other:?}"),
        }
    }

    #[test]
    fn later_requests_resume_the_solve() {
        // Each θ-step evaluates r(t) twice: at its start and its end.
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let counted = |initial_time: f64| {
            DlModelBuilder::new(DlParameters::paper_hops(6).unwrap())
                .growth(FnGrowth::new(
                    |t| {
                        CALLS.fetch_add(1, Ordering::Relaxed);
                        eq7(t)
                    },
                    "counted eq7",
                ))
                .initial_time(initial_time)
                .build(&OBS)
                .unwrap()
        };
        let calls_of = |run: &dyn Fn()| {
            let before = CALLS.load(Ordering::Relaxed);
            run();
            CALLS.load(Ordering::Relaxed) - before
        };
        let model = counted(1.0);
        let early = model.predict(&[1, 6], &[3]).unwrap();
        assert_eq!(calls_of(&|| drop(model.predict(&[2], &[2, 3]).unwrap())), 0);
        assert_eq!(
            calls_of(&|| drop(model.predict(&[1, 6], &[5, 3]).unwrap())),
            2 * 200
        );
        assert_eq!(
            bits(&early),
            bits(&counted(1.0).predict(&[1, 6], &[3]).unwrap())
        );
        // A fractional initial hour solves per request.
        let model = counted(1.5);
        model.predict(&[1], &[3]).unwrap();
        assert_eq!(
            calls_of(&|| drop(model.predict(&[1], &[3]).unwrap())),
            2 * 150
        );
    }

    #[test]
    fn a_panicking_fill_leaves_a_fresh_table() {
        static ARMED: AtomicBool = AtomicBool::new(false);
        let build = || {
            DlModelBuilder::new(DlParameters::paper_hops(6).unwrap())
                .growth(FnGrowth::new(
                    |t| {
                        assert!(
                            !ARMED.load(Ordering::Relaxed),
                            "growth evaluated while armed"
                        );
                        eq7(t)
                    },
                    "armed eq7",
                ))
                .build(&OBS)
                .unwrap()
        };
        let (distances, hours) = ([1, 3, 6], [2, 4, 6]);
        let model = build();
        model.predict(&distances, &[3]).unwrap();
        ARMED.store(true, Ordering::Relaxed);
        let filled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            model.predict(&distances, &hours)
        }));
        ARMED.store(false, Ordering::Relaxed);
        assert!(filled.is_err(), "the fill must have panicked");
        let fresh = build().predict(&distances, &hours).unwrap();
        assert_eq!(
            bits(&model.predict(&distances, &hours).unwrap()),
            bits(&fresh)
        );
        assert!(!model.readout.0.is_poisoned());
    }

    #[test]
    fn model_is_send_sync() {
        fn assert_bounds<T: Send + Sync>() {}
        assert_bounds::<DlModel>();
    }
}
