//! Automated parameter calibration.
//!
//! The paper selects `d`, `K` and the growth-rate coefficients by hand
//! from inspection of the data, and names "developing new models that
//! consider diffusion rate, growth rate and carrying capacity as functions
//! of time and distance" as future work. This module automates the scalar
//! part: it fits `(a, b, c, d[, K])` — with `r(t) = a·e^{−b(t−1)} + c` —
//! minimizing the mean squared *relative* error of the DL solution against
//! observed density profiles on a short calibration window.
//!
//! The search is Levenberg–Marquardt over the box `a, b, c ≥ 0`,
//! `0 ≤ d ≤ max_diffusion`, `1.05·max φ observation ≤ K ≤ max_capacity`
//! ([`dlm_numerics::least_squares::levenberg_marquardt_in_box`]). Each
//! residual is one target cell's relative error, and its Jacobian comes
//! from the forward sensitivities of the Crank–Nicolson solve
//! ([`crate::pde::solve_sensitivities`]'s tangent), so one θ-solve gives
//! the residuals and the Jacobian together. [`CalibrationOptions::max_evals`]
//! caps those solves per start.
//!
//! Levenberg–Marquardt is a *local* search; with
//! [`MultiStartConfig::starts`] above 1 it restarts from a deterministic
//! stratified grid of seed points inside the parameter bounds and the
//! independent starts run in parallel on the [`dlm_numerics::pool`]
//! executor. The result is byte-identical under every
//! [`Parallelism`](dlm_numerics::pool::Parallelism) setting and its
//! objective is never worse than the single-start fit from the same
//! seed (the caller's seed always runs as start 0). The objective,
//! boxes, stopping rule, budgets and determinism contract are specified
//! normatively in `docs/CALIBRATION.md`.
//!
//! # Examples
//!
//! Multi-start calibration against profiles, through the shared
//! [`MultiStartConfig`]:
//!
//! ```
//! use dlm_core::calibrate::{calibrate_profiles, CalibrationOptions, MultiStartConfig};
//! use dlm_core::growth::ExpDecayGrowth;
//! use dlm_core::params::DlParameters;
//!
//! # fn main() -> Result<(), dlm_core::DlError> {
//! let initial = [2.0, 1.1, 0.6, 0.3];
//! let targets = vec![(2, vec![3.4, 1.9, 1.1, 0.6]), (3, vec![5.1, 3.0, 1.8, 1.0])];
//! let options = CalibrationOptions {
//!     max_evals: 60, // per-start budget of θ-solves
//!     multi_start: MultiStartConfig { starts: 3, seed: 7, ..MultiStartConfig::default() },
//!     ..CalibrationOptions::default()
//! };
//! let seed = DlParameters::new(0.01, 25.0, 1.0, 4.0)?;
//! let single = calibrate_profiles(1, &initial, &targets, seed,
//!     ExpDecayGrowth::paper_hops(), &CalibrationOptions { max_evals: 60,
//!         ..CalibrationOptions::default() })?;
//! let multi = calibrate_profiles(1, &initial, &targets, seed,
//!     ExpDecayGrowth::paper_hops(), &options)?;
//! // The caller's seed runs as start 0, so more starts never hurt.
//! assert!(multi.objective <= single.objective);
//! assert_eq!(multi.starts, 3);
//! # Ok(())
//! # }
//! ```

use crate::error::{DlError, Result};
use crate::growth::ExpDecayGrowth;
use crate::initial::{InitialDensity, PhiConstruction};
use crate::model::{DlModel, DlModelBuilder};
use crate::params::DlParameters;
use crate::pde::{interp_row, solve_tangent, start, Parameter, SolverConfig};
use dlm_cascade::DensityMatrix;
use dlm_numerics::least_squares::{local_search_in_box, JacobianProblem, LmConfig};
use dlm_numerics::linalg::Matrix;
use dlm_numerics::optimize::multi_start;
pub use dlm_numerics::optimize::{MultiStartConfig, MultiStartOutcome};

/// What the calibration is allowed to vary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationOptions {
    /// Fit the diffusion rate `d` (else keep the seed's value).
    pub fit_diffusion: bool,
    /// Fit the carrying capacity `K` (else keep the seed's value).
    pub fit_capacity: bool,
    /// Upper bound for `d` during the search.
    pub max_diffusion: f64,
    /// Upper bound for `K` during the search.
    pub max_capacity: f64,
    /// Budget of θ-solves **per start**; each solve yields the residuals
    /// and their Jacobian at one point.
    pub max_evals: usize,
    /// Solver resolution used inside the objective (coarser than the final
    /// solve for speed). Must be a θ method (Crank–Nicolson or backward
    /// Euler): the Jacobian is that scheme's tangent.
    pub solver: SolverConfig,
    /// Multi-start strategy: start count, deterministic seeding, and
    /// scheduling of the independent starts on the work-stealing pool.
    /// The single-start default runs one search from the caller's seed.
    pub multi_start: MultiStartConfig,
}

impl Default for CalibrationOptions {
    fn default() -> Self {
        Self {
            fit_diffusion: true,
            fit_capacity: false,
            max_diffusion: 1.0,
            max_capacity: 100.0,
            max_evals: 400,
            solver: SolverConfig {
                space_intervals: 40,
                dt: 0.05,
                ..SolverConfig::default()
            },
            multi_start: MultiStartConfig::default(),
        }
    }
}

/// Levenberg–Marquardt stopping rule of every start (see
/// `docs/CALIBRATION.md` §2). A window with more residual cells than
/// parameters stops once its last [`STALL_WINDOW`] accepted steps together
/// lowered the objective by no more than [`STALL_GAIN`] plus
/// [`STALL_SHARE`] of itself. One with no more cells than parameters
/// cannot identify every parameter, so it stops at the first accepted
/// step that lowers the objective by no more than
/// [`UNDERDETERMINED_SHARE`] of itself, close to its seed. Either also
/// stops on an accepted step that moves no parameter by more than
/// [`STEP_TOLERANCE`] of itself.
const STALL_WINDOW: usize = 20;
/// See [`STALL_WINDOW`].
const STALL_GAIN: f64 = 1e-10;
/// See [`STALL_WINDOW`].
const STALL_SHARE: f64 = 1e-3;
/// See [`STALL_WINDOW`].
const UNDERDETERMINED_SHARE: f64 = 1e-4;
/// See [`STALL_WINDOW`].
const STEP_TOLERANCE: f64 = 1e-10;

/// The outcome of a calibration run.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// Fitted scalar parameters.
    pub params: DlParameters,
    /// Fitted growth-rate curve.
    pub growth: ExpDecayGrowth,
    /// Final objective value (mean squared relative error).
    pub objective: f64,
    /// θ-solves consumed (across all starts).
    pub evaluations: usize,
    /// θ-solves of the costliest start. Parallel starts cannot finish
    /// sooner than it, so `evaluations / largest_start_evaluations` caps
    /// the speedup of fanning the starts out.
    pub largest_start_evaluations: usize,
    /// Number of starts searched.
    pub starts: usize,
    /// Index of the winning start (`0` is the caller's seed; `1..` are
    /// the stratified grid points, see `docs/CALIBRATION.md`).
    pub best_start: usize,
}

impl Calibration {
    /// Builds a ready-to-predict [`DlModel`] from the fitted parameters
    /// and the observed hour-`initial_hour` profile.
    ///
    /// # Errors
    ///
    /// Propagates model-construction errors.
    pub fn into_model(self, initial_profile: &[f64], initial_hour: u32) -> Result<DlModel> {
        DlModelBuilder::new(self.params)
            .growth(self.growth)
            .initial_time(f64::from(initial_hour))
            .build(initial_profile)
    }
}

/// Calibrates DL parameters against observed densities in a
/// [`DensityMatrix`].
///
/// Thin wrapper over [`calibrate_profiles`] that extracts the initial and
/// target profiles from the matrix.
///
/// # Errors
///
/// * [`DlError::InvalidParameter`] — empty/invalid `fit_hours`.
/// * Propagates observation access and optimizer errors.
pub fn calibrate(
    observed: &DensityMatrix,
    initial_hour: u32,
    fit_hours: &[u32],
    seed_params: DlParameters,
    seed_growth: ExpDecayGrowth,
    options: &CalibrationOptions,
) -> Result<Calibration> {
    if fit_hours.is_empty() {
        return Err(DlError::InvalidParameter {
            name: "fit_hours",
            reason: "must be nonempty".into(),
        });
    }
    let initial_profile = observed.profile_at(initial_hour)?;
    let targets: Vec<(u32, Vec<f64>)> = fit_hours
        .iter()
        .map(|&h| observed.profile_at(h).map(|p| (h, p)))
        .collect::<dlm_cascade::Result<_>>()?;
    calibrate_profiles(
        initial_hour,
        &initial_profile,
        &targets,
        seed_params,
        seed_growth,
        options,
    )
}

/// Calibrates DL parameters against raw observed profiles — the form the
/// [`crate::predict::DiffusionPredictor`] layer uses, where observations
/// arrive as profiles rather than a full matrix.
///
/// φ is built from `initial_profile` (observed at `initial_hour`); the
/// objective compares the DL solution against each `(hour, profile)` in
/// `targets` (every hour must be after `initial_hour`). `seed_params` /
/// `seed_growth` seed the search (the paper presets are good seeds); a
/// seed outside the search box is projected into it first, so a seed
/// capacity at or below the data starts at `1.05·max φ observation`.
///
/// # Errors
///
/// * [`DlError::InvalidParameter`] — empty/invalid targets, or an
///   explicit solver method.
/// * Propagates φ-construction, grid and optimizer errors.
pub fn calibrate_profiles(
    initial_hour: u32,
    initial_profile: &[f64],
    targets: &[(u32, Vec<f64>)],
    seed_params: DlParameters,
    seed_growth: ExpDecayGrowth,
    options: &CalibrationOptions,
) -> Result<Calibration> {
    if targets.is_empty() {
        return Err(DlError::InvalidParameter {
            name: "fit_hours",
            reason: "must be nonempty".into(),
        });
    }
    if targets.iter().any(|&(h, _)| h <= initial_hour) {
        return Err(DlError::InvalidParameter {
            name: "fit_hours",
            reason: format!("every fit hour must exceed the initial hour {initial_hour}"),
        });
    }
    if !options.solver.method.is_theta() {
        return Err(DlError::InvalidParameter {
            name: "solver",
            reason: "calibration differentiates the θ-scheme: use CrankNicolson or \
                     BackwardEuler"
                .into(),
        });
    }
    let t_start = f64::from(initial_hour);
    let t_end = f64::from(targets.iter().map(|&(h, _)| h).max().expect("nonempty"));
    // φ depends only on the profile and the domain, which no fitted
    // parameter moves: one grid and one initial field serve every solve.
    let phi = InitialDensity::from_observations(
        &seed_params,
        initial_profile,
        PhiConstruction::SplineFlat,
    )?;
    let (xs, dx, u0) = start(
        seed_params.lower(),
        seed_params.upper(),
        &phi,
        &options.solver,
        t_start,
        t_end,
    )?;
    let max_obs = initial_profile.iter().cloned().fold(0.0, f64::max);

    // Parameter vector: [a, b, c, d?, K?] depending on options, with the
    // box the search stays in and the seeding box of its restarts
    // (docs/CALIBRATION.md §1 and §3). A non-finite cap (a caller
    // disabling the `d`/`K` constraint with `f64::INFINITY`) leaves the
    // search box open on that side and falls back to a seed-derived
    // seeding edge.
    let mut wrt = vec![Parameter::Amplitude, Parameter::Decay, Parameter::Floor];
    let mut x0 = vec![
        seed_growth.amplitude(),
        seed_growth.decay(),
        seed_growth.floor(),
    ];
    let mut search_box = vec![(0.0, f64::INFINITY); 3];
    let mut seeding_box = vec![
        (0.0, 2.0 * seed_growth.amplitude().max(1.0)),
        (0.0, 2.0 * seed_growth.decay().max(1.0)),
        (0.0, 2.0 * seed_growth.floor().max(0.5)),
    ];
    if options.fit_diffusion {
        wrt.push(Parameter::Diffusion);
        x0.push(seed_params.diffusion());
        search_box.push((0.0, options.max_diffusion));
        let d_hi = if options.max_diffusion.is_finite() {
            options.max_diffusion
        } else {
            (2.0 * seed_params.diffusion()).max(1.0)
        };
        seeding_box.push((0.0, d_hi));
    }
    if options.fit_capacity {
        wrt.push(Parameter::Capacity);
        x0.push(seed_params.capacity());
        let k_lo = (1.05 * max_obs).max(1e-3).min(options.max_capacity);
        search_box.push((k_lo, options.max_capacity));
        let k_hi = if options.max_capacity.is_finite() {
            options.max_capacity
        } else {
            (2.0 * seed_params.capacity()).max(4.0 * max_obs).max(1.0)
        };
        seeding_box.push((k_lo.min(k_hi), k_hi));
    }

    let setup = Setup {
        xs,
        dx,
        u0,
        t_start,
        t_end,
        targets,
        cells: targets
            .iter()
            .enumerate()
            .flat_map(|(target, (_, profile))| {
                profile
                    .iter()
                    .enumerate()
                    .filter(|&(_, &actual)| actual != 0.0)
                    .map(move |(i, &actual)| Cell {
                        target,
                        x: seed_params.lower() + i as f64,
                        actual,
                    })
            })
            .collect(),
        wrt,
        seed_params,
        max_obs,
        options,
    };
    let (m, n) = (setup.cells.len(), setup.wrt.len());
    let lm = LmConfig {
        x_tol: STEP_TOLERANCE,
        max_iter: usize::MAX,
        max_evals: options.max_evals,
        ..if m > n {
            LmConfig {
                // In the sum of squares, `m` times the objective.
                f_tol: STALL_GAIN * m as f64,
                f_rel: STALL_SHARE,
                window: STALL_WINDOW,
                ..LmConfig::default()
            }
        } else {
            LmConfig {
                f_tol: 0.0,
                f_rel: UNDERDETERMINED_SHARE,
                ..LmConfig::default()
            }
        }
    };
    let search = |seed: &[f64]| {
        let mut minimum = local_search_in_box(&mut Residuals::new(&setup), seed, &search_box, lm)?;
        // The objective is the mean of the squared residuals.
        minimum.value = if setup.cells.is_empty() {
            f64::INFINITY
        } else {
            minimum.value / setup.cells.len() as f64
        };
        Ok(minimum)
    };
    let outcome = multi_start(&x0, &seeding_box, &options.multi_start, search)?;
    let best = &outcome.best.x;
    let (d, k) = setup.unpack(best);
    Ok(Calibration {
        params: DlParameters::new(d, k, seed_params.lower(), seed_params.upper())?,
        growth: ExpDecayGrowth::new(best[0], best[1], best[2]),
        objective: outcome.best.value,
        evaluations: outcome.evaluations,
        largest_start_evaluations: outcome.start_evaluations.iter().copied().max().unwrap_or(0),
        starts: outcome.start_values.len(),
        best_start: outcome.best_start,
    })
}

/// One nonzero observed cell of a target profile.
struct Cell {
    target: usize,
    x: f64,
    actual: f64,
}

/// Everything every objective evaluation shares.
struct Setup<'a> {
    xs: Vec<f64>,
    dx: f64,
    u0: Vec<f64>,
    t_start: f64,
    t_end: f64,
    targets: &'a [(u32, Vec<f64>)],
    /// The residuals' cells, target by target, in distance order.
    cells: Vec<Cell>,
    wrt: Vec<Parameter>,
    seed_params: DlParameters,
    max_obs: f64,
    options: &'a CalibrationOptions,
}

impl Setup<'_> {
    /// `(d, K)` of a parameter vector: fitted or the seed's.
    fn unpack(&self, p: &[f64]) -> (f64, f64) {
        let d = if self.options.fit_diffusion {
            p[3]
        } else {
            self.seed_params.diffusion()
        };
        let k = if self.options.fit_capacity {
            p[p.len() - 1]
        } else {
            self.seed_params.capacity()
        };
        (d, k)
    }
}

/// The objective as least-squares residuals: one relative error
/// `(I_pred − I_obs)/I_obs` per nonzero target cell, whose mean square is
/// the objective, with its Jacobian from the solve's tangent.
struct Residuals<'s, 'a> {
    setup: &'s Setup<'a>,
    /// Per cell: the prediction, then its partials in `wrt` order.
    read: Vec<f64>,
    reached: Vec<bool>,
}

impl<'s, 'a> Residuals<'s, 'a> {
    fn new(setup: &'s Setup<'a>) -> Self {
        Self {
            read: vec![0.0; setup.cells.len() * (1 + setup.wrt.len())],
            reached: vec![false; setup.targets.len()],
            setup,
        }
    }

    /// Solves at `p` and reads every cell's prediction and partials into
    /// `read`, or returns `None` where the objective is `+∞`.
    fn solve(&mut self, p: &[f64]) -> Option<()> {
        let s = self.setup;
        let opts = s.options;
        let (a, b, c) = (p[0], p[1], p[2]);
        let (d, k) = s.unpack(p);
        // Hard constraints: the box, and a capacity above the data.
        if !(p.iter().all(|v| v.is_finite())
            && a >= 0.0
            && b >= 0.0
            && c >= 0.0
            && (0.0..=opts.max_diffusion).contains(&d)
            && k > 0.0
            && k <= opts.max_capacity
            && k > s.max_obs)
        {
            return None;
        }
        let params = DlParameters::new(d, k, s.seed_params.lower(), s.seed_params.upper()).ok()?;
        let growth = ExpDecayGrowth::new(a, b, c);
        let (x0, x1) = (s.xs[0], s.xs[s.xs.len() - 1]);
        if s.cells
            .iter()
            .any(|cell| !(cell.x >= x0 - 1e-9 && cell.x <= x1 + 1e-9))
        {
            return None;
        }
        let width = 1 + s.wrt.len();
        let (read, reached) = (&mut self.read, &mut self.reached);
        reached.fill(false);
        // Each target profile is read as the solve passes its hour, as
        // `PdeSolution::value_at` reads it, so no step's row is kept.
        let mut t_last = s.t_start;
        let mut u = s.u0.clone();
        let sens = solve_tangent(
            &params,
            &growth,
            &opts.solver,
            &s.xs,
            s.dx,
            &mut u,
            s.t_start,
            s.t_end,
            &s.wrt,
            &mut |step| {
                t_last = step.next.0;
                for (target, (h, _)) in s.targets.iter().enumerate() {
                    let t = f64::from(*h);
                    if reached[target] || t > t_last {
                        continue;
                    }
                    reached[target] = true;
                    for (cell, out) in s.cells.iter().zip(read.chunks_exact_mut(width)) {
                        if cell.target == target {
                            let x = cell.x.clamp(x0, x1);
                            out[0] = step.value(x, t);
                            for (q, o) in out[1..].iter_mut().enumerate() {
                                *o = step.partial(q, x, t);
                            }
                        }
                    }
                }
            },
        )
        .ok()?;
        // A target hour the last step stops just short of reads the last
        // row.
        let n = s.xs.len();
        for (cell, out) in s.cells.iter().zip(read.chunks_exact_mut(width)) {
            if reached[cell.target] {
                continue;
            }
            if f64::from(s.targets[cell.target].0) > t_last + 1e-9 {
                return None;
            }
            let x = cell.x.clamp(x0, x1);
            out[0] = interp_row(&s.xs, &u, x);
            for (q, o) in out[1..].iter_mut().enumerate() {
                *o = interp_row(&s.xs, &sens[q * n..(q + 1) * n], x);
            }
        }
        Some(())
    }
}

impl JacobianProblem for Residuals<'_, '_> {
    fn residual_count(&self) -> usize {
        self.setup.cells.len()
    }

    fn parameter_count(&self) -> usize {
        self.setup.wrt.len()
    }

    fn evaluate(&mut self, p: &[f64], residuals: &mut [f64], jacobian: &mut Matrix) {
        if self.solve(p).is_none() {
            residuals.fill(f64::INFINITY);
            return;
        }
        let width = 1 + self.setup.wrt.len();
        for (i, (cell, read)) in self
            .setup
            .cells
            .iter()
            .zip(self.read.chunks_exact(width))
            .enumerate()
        {
            residuals[i] = (read[0] - cell.actual) / cell.actual;
            for (q, &partial) in read[1..].iter().enumerate() {
                jacobian[(i, q)] = partial / cell.actual;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::growth::GrowthRate;

    /// Builds a synthetic observation matrix from a known DL solution so
    /// calibration has a recoverable ground truth (the shared fixture
    /// generator the determinism gates also use).
    fn synthetic_observations(d: f64, growth: &ExpDecayGrowth) -> DensityMatrix {
        crate::fixtures::dl_ground_truth_matrix(d, growth, 25.0)
    }

    #[test]
    fn recovers_growth_curve_from_dl_generated_data() {
        let truth = ExpDecayGrowth::new(1.2, 1.3, 0.3);
        let observed = synthetic_observations(0.01, &truth);
        let cal = calibrate(
            &observed,
            1,
            &[2, 3, 4, 5, 6],
            DlParameters::paper_hops(6).unwrap(),
            ExpDecayGrowth::paper_hops(), // seed away from the truth
            &CalibrationOptions::default(),
        )
        .unwrap();
        assert!(cal.objective < 1e-3, "objective {}", cal.objective);
        // The fitted curve should match the truth pointwise on the window.
        for h in [2.0, 3.0, 4.0, 5.0, 6.0] {
            let got = cal.growth.rate(h);
            let want = truth.rate(h);
            assert!((got - want).abs() < 0.08, "r({h}): {got} vs {want}");
        }
    }

    #[test]
    fn calibrated_model_predicts_well() {
        let truth = ExpDecayGrowth::new(1.0, 1.0, 0.2);
        let observed = synthetic_observations(0.02, &truth);
        let cal = calibrate(
            &observed,
            1,
            &[2, 3],
            DlParameters::paper_hops(6).unwrap(),
            ExpDecayGrowth::paper_hops(),
            &CalibrationOptions::default(),
        )
        .unwrap();
        let initial = observed.profile_at(1).unwrap();
        let model = cal.into_model(&initial, 1).unwrap();
        let pred = model.predict(&[1, 2, 3, 4, 5, 6], &[4, 5, 6]).unwrap();
        // Held-out hours 4-6 must be close (fit only saw 2-3).
        for d in 1..=6u32 {
            for h in [4u32, 5, 6] {
                let actual = observed.at(d, h).unwrap();
                let p = pred.at(d, h).unwrap();
                assert!(
                    (p - actual).abs() / actual < 0.15,
                    "d={d} h={h}: {p} vs {actual}"
                );
            }
        }
    }

    #[test]
    fn rejects_bad_fit_hours() {
        let observed = synthetic_observations(0.01, &ExpDecayGrowth::paper_hops());
        let seed = DlParameters::paper_hops(6).unwrap();
        let g = ExpDecayGrowth::paper_hops();
        assert!(calibrate(&observed, 1, &[], seed, g, &CalibrationOptions::default()).is_err());
        assert!(calibrate(&observed, 2, &[2], seed, g, &CalibrationOptions::default()).is_err());
        assert!(calibrate(&observed, 1, &[99], seed, g, &CalibrationOptions::default()).is_err());
    }

    #[test]
    fn non_finite_caps_stay_calibratable() {
        // Callers may disable the d/K constraints with infinity; the
        // seeding boxes must fall back to finite seed-derived edges
        // instead of failing grid generation — single- and multi-start.
        let observed = synthetic_observations(0.01, &ExpDecayGrowth::new(1.2, 1.3, 0.3));
        for starts in [1, 3] {
            let cal = calibrate(
                &observed,
                1,
                &[2, 3],
                DlParameters::paper_hops(6).unwrap(),
                ExpDecayGrowth::paper_hops(),
                &CalibrationOptions {
                    fit_capacity: true,
                    max_diffusion: f64::INFINITY,
                    max_capacity: f64::INFINITY,
                    max_evals: 120,
                    multi_start: MultiStartConfig {
                        starts,
                        ..MultiStartConfig::default()
                    },
                    ..CalibrationOptions::default()
                },
            )
            .unwrap();
            assert!(cal.objective.is_finite(), "starts {starts}: {cal:?}");
            assert_eq!(cal.starts, starts);
        }
    }

    #[test]
    fn a_seed_capacity_below_the_data_starts_inside_the_box() {
        // The hour-1 peak (33.3) exceeds the `dl-cal` seed K0 = 25, where
        // the objective is +∞. The seed must be projected to
        // K = 1.05 · 33.3 before the search, so the fit ends finite with K
        // above the data.
        let initial = [33.3, 14.0, 9.0, 5.0, 3.0, 2.0];
        let truth = DlParameters::new(0.02, 80.0, 1.0, 6.0).unwrap();
        let phi = InitialDensity::from_observations(&truth, &initial, PhiConstruction::SplineFlat)
            .unwrap();
        let sol = crate::pde::solve(
            &truth,
            &ExpDecayGrowth::new(0.9, 1.1, 0.2),
            &phi,
            1.0,
            3.0,
            &SolverConfig::default(),
        )
        .unwrap();
        let targets: Vec<(u32, Vec<f64>)> = [2u32, 3]
            .iter()
            .map(|&h| {
                let profile = (1..=6)
                    .map(|x| sol.value_at(f64::from(x), f64::from(h)).unwrap())
                    .collect();
                (h, profile)
            })
            .collect();
        let seed = DlParameters::new(0.01, 25.0, 1.0, 6.0).unwrap();
        let options = CalibrationOptions {
            fit_capacity: true,
            max_evals: 800,
            ..CalibrationOptions::default()
        };
        for through in [1, 2] {
            let cal = calibrate_profiles(
                1,
                &initial,
                &targets[..through],
                seed,
                ExpDecayGrowth::paper_hops(),
                &options,
            )
            .unwrap();
            assert!(cal.objective.is_finite(), "through {through}: {cal:?}");
            assert!(cal.params.capacity() > 33.3, "through {through}: {cal:?}");
            assert!(cal.evaluations > 1, "through {through}: {cal:?}");
        }
    }

    #[test]
    fn fewer_cells_than_parameters_do_not_error() {
        // A `through = 2` window over three distances: three residuals
        // for the five parameters (a, b, c, d, K).
        let seed = DlParameters::new(0.01, 25.0, 1.0, 3.0).unwrap();
        let cal = calibrate_profiles(
            1,
            &[2.1, 0.7, 0.9],
            &[(2, vec![3.4, 1.2, 1.3])],
            seed,
            ExpDecayGrowth::paper_hops(),
            &CalibrationOptions {
                fit_capacity: true,
                max_evals: 800,
                ..CalibrationOptions::default()
            },
        )
        .unwrap();
        assert!(cal.objective.is_finite(), "{cal:?}");
        assert!(cal.evaluations <= 800, "{cal:?}");
    }

    #[test]
    fn explicit_solvers_are_rejected() {
        let observed = synthetic_observations(0.01, &ExpDecayGrowth::paper_hops());
        let err = calibrate(
            &observed,
            1,
            &[2, 3],
            DlParameters::paper_hops(6).unwrap(),
            ExpDecayGrowth::paper_hops(),
            &CalibrationOptions {
                solver: SolverConfig {
                    method: crate::pde::SolverMethod::Rk4,
                    ..CalibrationOptions::default().solver
                },
                ..CalibrationOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            DlError::InvalidParameter { name: "solver", .. }
        ));
    }

    #[test]
    fn capacity_fitting_stays_above_data() {
        let truth = ExpDecayGrowth::new(1.0, 1.2, 0.25);
        let observed = synthetic_observations(0.01, &truth);
        let options = CalibrationOptions {
            fit_capacity: true,
            max_evals: 300,
            ..CalibrationOptions::default()
        };
        let cal = calibrate(
            &observed,
            1,
            &[2, 3, 4],
            DlParameters::paper_hops(6).unwrap(),
            ExpDecayGrowth::paper_hops(),
            &options,
        )
        .unwrap();
        let max_obs = observed
            .profile_at(1)
            .unwrap()
            .iter()
            .cloned()
            .fold(0.0, f64::max);
        assert!(cal.params.capacity() > max_obs);
    }
}
