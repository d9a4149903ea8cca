//! Derivative-free minimization: Nelder–Mead simplex, golden-section line
//! search, grid search, and deterministic multi-start search.
//!
//! `dlm-core::variable` fits per-distance growth curves with Nelder–Mead
//! (MATLAB's `fminsearch`, the authors' likely companion). Because a local
//! search can strand in a poor basin, [`multi_start`] restarts any local
//! search — Nelder–Mead through [`multi_start_nelder_mead`], or the
//! Levenberg–Marquardt fit behind `dlm-core::calibrate` — from a
//! deterministic stratified grid of seed points ([`stratified_starts`])
//! and fans the independent starts onto the work-stealing executor in
//! [`crate::pool`]. Selection is a total order
//! (objective bits, then start index), so the outcome is byte-identical
//! under every [`Parallelism`] setting. The fitting semantics are
//! specified normatively in `docs/CALIBRATION.md`.

use crate::error::{NumericsError, Result};
use crate::mix::splitmix64_next;
use crate::pool::{parallel_map, Parallelism};

/// Result of a minimization run.
#[derive(Debug, Clone, PartialEq)]
pub struct Minimum {
    /// Location of the best point found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub value: f64,
    /// Number of objective evaluations consumed.
    pub evaluations: usize,
    /// Whether the tolerance criterion (rather than the budget) stopped us.
    pub converged: bool,
}

/// Options for [`nelder_mead`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NelderMeadConfig {
    /// Terminate when the simplex's objective spread falls below this.
    pub f_tol: f64,
    /// Terminate when the simplex diameter falls below this.
    pub x_tol: f64,
    /// Maximum number of objective evaluations.
    pub max_evals: usize,
    /// Relative size of the initial simplex around the seed point.
    pub initial_scale: f64,
}

impl Default for NelderMeadConfig {
    fn default() -> Self {
        Self {
            f_tol: 1e-10,
            x_tol: 1e-10,
            max_evals: 20_000,
            initial_scale: 0.1,
        }
    }
}

/// Minimizes `f` with the Nelder–Mead downhill simplex method.
///
/// `x0` seeds the simplex; coordinates equal to zero get an absolute
/// perturbation. Non-finite objective values are treated as `+∞`, which lets
/// callers impose hard constraints by returning `f64::INFINITY` outside the
/// feasible region.
///
/// # Errors
///
/// * [`NumericsError::DimensionMismatch`] — empty `x0`.
/// * [`NumericsError::InvalidParameter`] — non-finite seed or bad config.
///
/// # Examples
///
/// ```
/// use dlm_numerics::optimize::{nelder_mead, NelderMeadConfig};
///
/// # fn main() -> Result<(), dlm_numerics::NumericsError> {
/// // Rosenbrock's banana function, minimum at (1, 1).
/// let rosen = |p: &[f64]| {
///     let (x, y) = (p[0], p[1]);
///     (1.0 - x).powi(2) + 100.0 * (y - x * x).powi(2)
/// };
/// let m = nelder_mead(rosen, &[-1.2, 1.0], NelderMeadConfig::default())?;
/// assert!((m.x[0] - 1.0).abs() < 1e-4 && (m.x[1] - 1.0).abs() < 1e-4);
/// # Ok(())
/// # }
/// ```
pub fn nelder_mead<F: FnMut(&[f64]) -> f64>(
    mut f: F,
    x0: &[f64],
    cfg: NelderMeadConfig,
) -> Result<Minimum> {
    let n = x0.len();
    if n == 0 {
        return Err(NumericsError::DimensionMismatch {
            expected: "at least one dimension".into(),
            actual: 0,
        });
    }
    if x0.iter().any(|v| !v.is_finite()) {
        return Err(NumericsError::InvalidParameter {
            name: "x0",
            reason: "seed must be finite".into(),
        });
    }
    if cfg.max_evals == 0 {
        return Err(NumericsError::InvalidParameter {
            name: "max_evals",
            reason: "must be positive".into(),
        });
    }

    // Standard coefficients.
    const ALPHA: f64 = 1.0; // reflection
    const GAMMA: f64 = 2.0; // expansion
    const RHO: f64 = 0.5; // contraction
    const SIGMA: f64 = 0.5; // shrink

    let mut evals = 0usize;
    let mut eval = |p: &[f64], evals: &mut usize| -> f64 {
        *evals += 1;
        let v = f(p);
        if v.is_finite() {
            v
        } else {
            f64::INFINITY
        }
    };

    // Build the initial simplex: x0 plus n perturbed vertices.
    let mut simplex: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
    simplex.push(x0.to_vec());
    for i in 0..n {
        let mut v = x0.to_vec();
        let delta = if v[i] != 0.0 {
            cfg.initial_scale * v[i].abs()
        } else {
            cfg.initial_scale
        };
        v[i] += delta;
        simplex.push(v);
    }
    let mut values: Vec<f64> = simplex.iter().map(|v| eval(v, &mut evals)).collect();

    let mut converged = false;
    while evals < cfg.max_evals {
        // Order vertices by objective.
        let mut order: Vec<usize> = (0..=n).collect();
        order.sort_by(|&a, &b| {
            values[a]
                .partial_cmp(&values[b])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let best = order[0];
        let worst = order[n];
        let second_worst = order[n - 1];

        // Convergence tests.
        let f_spread = values[worst] - values[best];
        let x_spread = (0..n)
            .map(|i| {
                simplex
                    .iter()
                    .map(|v| v[i])
                    .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), x| {
                        (lo.min(x), hi.max(x))
                    })
            })
            .map(|(lo, hi)| hi - lo)
            .fold(0.0, f64::max);
        // fminsearch-style criterion: require BOTH spreads small. Using
        // "either" stops prematurely whenever two vertices tie in objective.
        if f_spread.is_finite() && f_spread <= cfg.f_tol && x_spread <= cfg.x_tol {
            converged = true;
            break;
        }

        // Centroid of all but the worst vertex.
        let mut centroid = vec![0.0; n];
        for (idx, v) in simplex.iter().enumerate() {
            if idx == worst {
                continue;
            }
            for i in 0..n {
                centroid[i] += v[i] / n as f64;
            }
        }

        // Reflection.
        let reflected: Vec<f64> = (0..n)
            .map(|i| centroid[i] + ALPHA * (centroid[i] - simplex[worst][i]))
            .collect();
        let f_reflected = eval(&reflected, &mut evals);

        if f_reflected < values[best] {
            // Expansion.
            let expanded: Vec<f64> = (0..n)
                .map(|i| centroid[i] + GAMMA * (reflected[i] - centroid[i]))
                .collect();
            let f_expanded = eval(&expanded, &mut evals);
            if f_expanded < f_reflected {
                simplex[worst] = expanded;
                values[worst] = f_expanded;
            } else {
                simplex[worst] = reflected;
                values[worst] = f_reflected;
            }
        } else if f_reflected < values[second_worst] {
            simplex[worst] = reflected;
            values[worst] = f_reflected;
        } else {
            // Contraction (outside if the reflection improved on the worst).
            let (base, f_base) = if f_reflected < values[worst] {
                (&reflected, f_reflected)
            } else {
                (&simplex[worst].clone(), values[worst])
            };
            let contracted: Vec<f64> = (0..n)
                .map(|i| centroid[i] + RHO * (base[i] - centroid[i]))
                .collect();
            let f_contracted = eval(&contracted, &mut evals);
            if f_contracted < f_base {
                simplex[worst] = contracted;
                values[worst] = f_contracted;
            } else {
                // Shrink toward the best vertex.
                let best_v = simplex[best].clone();
                for (idx, v) in simplex.iter_mut().enumerate() {
                    if idx == best {
                        continue;
                    }
                    for i in 0..n {
                        v[i] = best_v[i] + SIGMA * (v[i] - best_v[i]);
                    }
                }
                for idx in 0..=n {
                    if idx != best {
                        values[idx] = eval(&simplex[idx].clone(), &mut evals);
                    }
                }
            }
        }
    }

    let (best_idx, _) = values
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .expect("simplex nonempty");
    Ok(Minimum {
        x: simplex[best_idx].clone(),
        value: values[best_idx],
        evaluations: evals,
        converged,
    })
}

/// Minimizes a unimodal scalar function on `[lo, hi]` by golden-section
/// search.
///
/// # Errors
///
/// Returns [`NumericsError::InvalidParameter`] if the interval is empty or
/// not finite.
pub fn golden_section<F: FnMut(f64) -> f64>(
    mut f: F,
    lo: f64,
    hi: f64,
    x_tol: f64,
) -> Result<(f64, f64)> {
    if !(lo.is_finite() && hi.is_finite()) || hi <= lo {
        return Err(NumericsError::InvalidParameter {
            name: "interval",
            reason: format!("need finite lo < hi, got [{lo}, {hi}]"),
        });
    }
    let inv_phi = (5.0f64.sqrt() - 1.0) / 2.0;
    let (mut a, mut b) = (lo, hi);
    let mut c = b - inv_phi * (b - a);
    let mut d = a + inv_phi * (b - a);
    let mut fc = f(c);
    let mut fd = f(d);
    while (b - a).abs() > x_tol {
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - inv_phi * (b - a);
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + inv_phi * (b - a);
            fd = f(d);
        }
    }
    let x = 0.5 * (a + b);
    let v = f(x);
    Ok((x, v))
}

/// Exhaustive grid search over axis-aligned parameter ranges.
///
/// `ranges` gives `(lo, hi)` per dimension; `points_per_dim` grid points are
/// placed on each axis (inclusive of both ends). Returns the best grid point.
/// Intended for coarse seeding of [`nelder_mead`].
///
/// # Errors
///
/// * [`NumericsError::DimensionMismatch`] — empty `ranges`.
/// * [`NumericsError::InvalidParameter`] — `points_per_dim < 2` or a bad
///   range.
pub fn grid_search<F: FnMut(&[f64]) -> f64>(
    mut f: F,
    ranges: &[(f64, f64)],
    points_per_dim: usize,
) -> Result<Minimum> {
    if ranges.is_empty() {
        return Err(NumericsError::DimensionMismatch {
            expected: "at least one range".into(),
            actual: 0,
        });
    }
    if points_per_dim < 2 {
        return Err(NumericsError::InvalidParameter {
            name: "points_per_dim",
            reason: "need at least 2 points per dimension".into(),
        });
    }
    for &(lo, hi) in ranges {
        if !(lo.is_finite() && hi.is_finite()) || hi < lo {
            return Err(NumericsError::InvalidParameter {
                name: "ranges",
                reason: format!("bad range [{lo}, {hi}]"),
            });
        }
    }

    let dims = ranges.len();
    let mut idx = vec![0usize; dims];
    let mut best_x = vec![0.0; dims];
    let mut best_v = f64::INFINITY;
    let mut evals = 0usize;
    let total = points_per_dim.pow(dims as u32);

    for _ in 0..total {
        let x: Vec<f64> = (0..dims)
            .map(|i| {
                let (lo, hi) = ranges[i];
                lo + (hi - lo) * idx[i] as f64 / (points_per_dim - 1) as f64
            })
            .collect();
        let v = f(&x);
        evals += 1;
        if v.is_finite() && v < best_v {
            best_v = v;
            best_x = x;
        }
        // Odometer increment.
        for digit in idx.iter_mut() {
            *digit += 1;
            if *digit < points_per_dim {
                break;
            }
            *digit = 0;
        }
    }
    Ok(Minimum {
        x: best_x,
        value: best_v,
        evaluations: evals,
        converged: true,
    })
}

/// Options for [`multi_start`] and [`multi_start_nelder_mead`]: how many
/// independent local searches to run, how their seed points are
/// generated, the per-start Nelder–Mead settings, and how the starts are
/// scheduled.
///
/// The default is a **single** start — exactly one local search from the
/// caller's seed — so threading this config through an existing fitting
/// path changes nothing until a caller raises `starts`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiStartConfig {
    /// Total number of starts, *including* the caller's seed point
    /// (which always runs as start 0). Values below 1 are treated as 1.
    pub starts: usize,
    /// Seed of the deterministic stratified start grid (see
    /// [`stratified_starts`]). Two searches with equal seeds, bounds and
    /// start counts use identical start points.
    pub seed: u64,
    /// The Nelder–Mead configuration [`multi_start_nelder_mead`] applies
    /// to **each** start: the total objective budget is
    /// `starts × local.max_evals`. [`multi_start`] does not read it.
    pub local: NelderMeadConfig,
    /// How the independent starts are scheduled on [`crate::pool`].
    /// Purely a wall-clock knob: the outcome is byte-identical across
    /// every setting.
    pub parallelism: Parallelism,
}

impl Default for MultiStartConfig {
    fn default() -> Self {
        Self {
            starts: 1,
            seed: 0,
            local: NelderMeadConfig::default(),
            parallelism: Parallelism::Auto,
        }
    }
}

impl MultiStartConfig {
    /// A config running `starts` starts with default seeding, budget and
    /// scheduling.
    #[must_use]
    pub fn new(starts: usize) -> Self {
        Self {
            starts,
            ..Self::default()
        }
    }

    /// The single-start config: plain Nelder–Mead from the caller's
    /// seed.
    #[must_use]
    pub fn single() -> Self {
        Self::default()
    }
}

/// The outcome of a [`multi_start`] search.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiStartOutcome {
    /// The winning local minimum.
    pub best: Minimum,
    /// Index of the winning start (`0` is the caller's seed point;
    /// `1..` are [`stratified_starts`] points in grid order).
    pub best_start: usize,
    /// The objective value each start converged to, in start order.
    pub start_values: Vec<f64>,
    /// Objective evaluations consumed across all starts.
    pub evaluations: usize,
}

/// A uniform draw in `[0, 1)` from the SplitMix64 stream.
fn unit(state: &mut u64) -> f64 {
    (splitmix64_next(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Generates `count` seed points inside the axis-aligned box `bounds`
/// with Latin-hypercube-style stratification: per dimension, the range
/// is split into `count` equal strata, each point lands in a distinct
/// stratum (jittered uniformly within it), and the stratum-to-point
/// assignment is an independent deterministic permutation per dimension.
/// No two points share a stratum on any axis, so the starts cover every
/// coordinate range evenly instead of clumping the way independent
/// uniform draws would.
///
/// Fully deterministic in (`bounds`, `count`, `seed`) — no global RNG —
/// and every generated coordinate lies in `[lo, hi]` (a degenerate
/// `lo == hi` axis pins the coordinate to `lo`).
///
/// # Errors
///
/// Returns [`NumericsError::InvalidParameter`] for a non-finite or
/// inverted (`hi < lo`) bound.
///
/// # Examples
///
/// ```
/// use dlm_numerics::optimize::stratified_starts;
///
/// # fn main() -> Result<(), dlm_numerics::NumericsError> {
/// let starts = stratified_starts(&[(0.0, 1.0), (-2.0, 2.0)], 4, 42)?;
/// assert_eq!(starts.len(), 4);
/// for p in &starts {
///     assert!((0.0..=1.0).contains(&p[0]) && (-2.0..=2.0).contains(&p[1]));
/// }
/// // Stratification: the four first coordinates land in the four
/// // distinct quarters of [0, 1].
/// let mut quarters: Vec<usize> = starts.iter().map(|p| (p[0] * 4.0) as usize).collect();
/// quarters.sort_unstable();
/// assert_eq!(quarters, [0, 1, 2, 3]);
/// # Ok(())
/// # }
/// ```
pub fn stratified_starts(bounds: &[(f64, f64)], count: usize, seed: u64) -> Result<Vec<Vec<f64>>> {
    for &(lo, hi) in bounds {
        if !(lo.is_finite() && hi.is_finite()) || hi < lo {
            return Err(NumericsError::InvalidParameter {
                name: "bounds",
                reason: format!("need finite lo <= hi, got [{lo}, {hi}]"),
            });
        }
    }
    let mut points = vec![vec![0.0; bounds.len()]; count];
    for (dim, &(lo, hi)) in bounds.iter().enumerate() {
        // One independent deterministic stream per dimension, so the
        // grid for dimension k never depends on how many earlier
        // dimensions there are draws for.
        let mut state = seed ^ (dim as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F);
        // Fisher–Yates permutation of the strata.
        let mut strata: Vec<usize> = (0..count).collect();
        for i in (1..count).rev() {
            let j = (splitmix64_next(&mut state) % (i as u64 + 1)) as usize;
            strata.swap(i, j);
        }
        for (point, &stratum) in points.iter_mut().zip(&strata) {
            let frac = (stratum as f64 + unit(&mut state)) / count as f64;
            point[dim] = (lo + (hi - lo) * frac).clamp(lo, hi);
        }
    }
    Ok(points)
}

/// Minimizes `f` by running independent Nelder–Mead searches from the
/// caller's seed `x0` (start 0) plus `cfg.starts - 1` stratified points
/// inside `bounds`, through [`multi_start`], and returns the best local
/// minimum found.
///
/// Since start 0 *is* the plain single-start search, the multi-start
/// objective value is never worse than `nelder_mead(f, x0, cfg.local)`'s.
/// `bounds` only shapes the seeding; it imposes no constraint on the
/// local searches — express hard constraints in `f` by returning
/// `f64::INFINITY` outside the feasible region, exactly as with
/// [`nelder_mead`].
///
/// # Errors
///
/// As [`multi_start`], plus a non-finite seed or a bad local config
/// (propagated from [`nelder_mead`]).
///
/// # Examples
///
/// ```
/// use dlm_numerics::optimize::{multi_start_nelder_mead, MultiStartConfig};
///
/// # fn main() -> Result<(), dlm_numerics::NumericsError> {
/// // A double well: local minimum at x = -1 (value 0.5), global
/// // minimum at x = 2 (value 0). Seeded at -1.2, the single start
/// // settles in the wrong basin; the stratified restarts escape it.
/// let f = |p: &[f64]| {
///     let x = p[0];
///     ((x + 1.0).powi(2) + 0.5).min((x - 2.0).powi(2))
/// };
/// let outcome =
///     multi_start_nelder_mead(f, &[-1.2], &[(-4.0, 4.0)], MultiStartConfig::new(6))?;
/// assert!((outcome.best.x[0] - 2.0).abs() < 1e-3);
/// assert_eq!(outcome.start_values.len(), 6);
/// // The winner is at least as good as the caller's seed basin.
/// assert!(outcome.best.value <= outcome.start_values[0]);
/// # Ok(())
/// # }
/// ```
pub fn multi_start_nelder_mead<F>(
    f: F,
    x0: &[f64],
    bounds: &[(f64, f64)],
    cfg: MultiStartConfig,
) -> Result<MultiStartOutcome>
where
    F: Fn(&[f64]) -> f64 + Sync,
{
    multi_start(x0, bounds, &cfg, |seed| nelder_mead(&f, seed, cfg.local))
}

/// Runs the local search `search` from the caller's seed `x0` (start 0)
/// plus `cfg.starts - 1` stratified points inside `bounds`
/// ([`stratified_starts`] keyed by `cfg.seed`), and returns the best
/// local minimum found. `cfg.local` is not read: `search` carries its
/// own settings.
///
/// The starts are scheduled on the work-stealing executor in
/// [`crate::pool`] under `cfg.parallelism`; because each start is an
/// independent pure computation and the winner is selected by a **total
/// order** — ascending [`f64::total_cmp`] on the objective value
/// (i.e. its bit pattern for the finite values that occur), ties broken
/// by the lowest start index — the outcome is byte-identical across
/// [`Parallelism::Serial`], [`Parallelism::Fixed`] and
/// [`Parallelism::Auto`], given a `search` that is a pure function of its
/// seed point.
///
/// # Errors
///
/// * [`NumericsError::DimensionMismatch`] — `bounds` length differs
///   from `x0`'s.
/// * [`NumericsError::InvalidParameter`] — invalid bounds (only
///   checked when `cfg.starts > 1`, since a single start generates no
///   grid).
/// * The first error any start's `search` returns, in start order.
pub fn multi_start<S>(
    x0: &[f64],
    bounds: &[(f64, f64)],
    cfg: &MultiStartConfig,
    search: S,
) -> Result<MultiStartOutcome>
where
    S: Fn(&[f64]) -> Result<Minimum> + Sync,
{
    if bounds.len() != x0.len() {
        return Err(NumericsError::DimensionMismatch {
            expected: format!("{} bounds (one per seed coordinate)", x0.len()),
            actual: bounds.len(),
        });
    }
    let starts = cfg.starts.max(1);
    let mut seeds = Vec::with_capacity(starts);
    seeds.push(x0.to_vec());
    if starts > 1 {
        seeds.extend(stratified_starts(bounds, starts - 1, cfg.seed)?);
    }

    let minima: Vec<Minimum> = parallel_map(cfg.parallelism, &seeds, |_, seed| search(seed))
        .into_iter()
        .collect::<Result<_>>()?;

    // Total-order selection: strictly smaller under `total_cmp` wins,
    // so equal objective bits keep the earliest start. (Not
    // `Iterator::min_by`, which keeps the *last* of equal elements.)
    let mut best_start = 0;
    for (i, m) in minima.iter().enumerate().skip(1) {
        if m.value.total_cmp(&minima[best_start].value) == std::cmp::Ordering::Less {
            best_start = i;
        }
    }
    Ok(MultiStartOutcome {
        best: minima[best_start].clone(),
        best_start,
        start_values: minima.iter().map(|m| m.value).collect(),
        evaluations: minima.iter().map(|m| m.evaluations).sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nelder_mead_quadratic_bowl() {
        let m = nelder_mead(
            |p| (p[0] - 3.0).powi(2) + (p[1] + 1.0).powi(2),
            &[0.0, 0.0],
            NelderMeadConfig::default(),
        )
        .unwrap();
        assert!(m.converged);
        assert!((m.x[0] - 3.0).abs() < 1e-5);
        assert!((m.x[1] + 1.0).abs() < 1e-5);
    }

    #[test]
    fn nelder_mead_rosenbrock() {
        let m = nelder_mead(
            |p| (1.0 - p[0]).powi(2) + 100.0 * (p[1] - p[0] * p[0]).powi(2),
            &[-1.2, 1.0],
            NelderMeadConfig::default(),
        )
        .unwrap();
        assert!((m.x[0] - 1.0).abs() < 1e-4, "{:?}", m.x);
        assert!((m.x[1] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn nelder_mead_1d() {
        let m = nelder_mead(
            |p| (p[0] - 0.5).powi(2) + 2.0,
            &[10.0],
            NelderMeadConfig::default(),
        )
        .unwrap();
        assert!((m.x[0] - 0.5).abs() < 1e-4);
        assert!((m.value - 2.0).abs() < 1e-8);
    }

    #[test]
    fn nelder_mead_respects_infinity_constraints() {
        // Constrain x >= 1 by returning infinity below it; minimum of (x-0)² then sits at 1.
        let m = nelder_mead(
            |p| {
                if p[0] < 1.0 {
                    f64::INFINITY
                } else {
                    p[0] * p[0]
                }
            },
            &[3.0],
            NelderMeadConfig::default(),
        )
        .unwrap();
        assert!((m.x[0] - 1.0).abs() < 1e-4, "{:?}", m.x);
    }

    #[test]
    fn nelder_mead_budget_is_respected() {
        let cfg = NelderMeadConfig {
            max_evals: 40,
            f_tol: 0.0,
            x_tol: 0.0,
            ..NelderMeadConfig::default()
        };
        let m = nelder_mead(
            |p| (1.0 - p[0]).powi(2) + 100.0 * (p[1] - p[0] * p[0]).powi(2),
            &[-1.2, 1.0],
            cfg,
        )
        .unwrap();
        assert!(!m.converged);
        assert!(m.evaluations <= 45); // small overshoot within one iteration allowed
    }

    #[test]
    fn nelder_mead_rejects_empty_seed() {
        assert!(nelder_mead(|_| 0.0, &[], NelderMeadConfig::default()).is_err());
    }

    #[test]
    fn nelder_mead_rejects_nan_seed() {
        assert!(nelder_mead(|p| p[0], &[f64::NAN], NelderMeadConfig::default()).is_err());
    }

    #[test]
    fn golden_section_parabola() {
        let (x, v) = golden_section(|x| (x - 2.0).powi(2) + 1.0, -10.0, 10.0, 1e-10).unwrap();
        // Golden section cannot localize a quadratic minimum below ~sqrt(eps).
        assert!((x - 2.0).abs() < 1e-6);
        assert!((v - 1.0).abs() < 1e-12);
    }

    #[test]
    fn golden_section_asymmetric_function() {
        let (x, _) = golden_section(|x: f64| x.exp() - 2.0 * x, 0.0, 2.0, 1e-10).unwrap();
        assert!((x - (2.0f64).ln()).abs() < 1e-7);
    }

    #[test]
    fn golden_section_rejects_bad_interval() {
        assert!(golden_section(|x| x, 1.0, 1.0, 1e-8).is_err());
    }

    #[test]
    fn grid_search_finds_best_cell() {
        let m = grid_search(
            |p| (p[0] - 0.5).powi(2) + (p[1] - 0.25).powi(2),
            &[(0.0, 1.0), (0.0, 1.0)],
            5,
        )
        .unwrap();
        assert_eq!(m.evaluations, 25);
        assert!((m.x[0] - 0.5).abs() < 1e-12); // 0.5 is exactly on the 5-point grid
        assert!((m.x[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn grid_search_then_nelder_mead_refinement() {
        let f = |p: &[f64]| (p[0] - 0.013).powi(2) + (p[1] - 24.7).powi(2);
        let coarse = grid_search(f, &[(0.0, 0.1), (0.0, 100.0)], 6).unwrap();
        let fine = nelder_mead(f, &coarse.x, NelderMeadConfig::default()).unwrap();
        // Nelder-Mead x-precision scales like sqrt(f_tol) on quadratics.
        assert!((fine.x[0] - 0.013).abs() < 1e-4);
        assert!((fine.x[1] - 24.7).abs() < 1e-4);
    }

    #[test]
    fn grid_search_rejects_degenerate() {
        assert!(grid_search(|_| 0.0, &[], 3).is_err());
        assert!(grid_search(|_| 0.0, &[(0.0, 1.0)], 1).is_err());
    }

    #[test]
    fn stratified_starts_cover_each_axis_without_collisions() {
        let bounds = [(0.0, 10.0), (-1.0, 1.0), (5.0, 5.0)];
        let starts = stratified_starts(&bounds, 8, 123).unwrap();
        assert_eq!(starts.len(), 8);
        for dim in 0..2 {
            let (lo, hi) = bounds[dim];
            let mut strata: Vec<usize> = starts
                .iter()
                .map(|p| {
                    assert!((lo..=hi).contains(&p[dim]), "{} outside bounds", p[dim]);
                    (((p[dim] - lo) / (hi - lo) * 8.0) as usize).min(7)
                })
                .collect();
            strata.sort_unstable();
            assert_eq!(
                strata,
                (0..8).collect::<Vec<_>>(),
                "dim {dim} not stratified"
            );
        }
        // A degenerate axis pins every point.
        assert!(starts.iter().all(|p| p[2] == 5.0));
        // Deterministic in the seed; different seeds differ.
        assert_eq!(starts, stratified_starts(&bounds, 8, 123).unwrap());
        assert_ne!(starts, stratified_starts(&bounds, 8, 124).unwrap());
    }

    #[test]
    fn stratified_starts_reject_bad_bounds() {
        assert!(stratified_starts(&[(1.0, 0.0)], 3, 0).is_err());
        assert!(stratified_starts(&[(0.0, f64::NAN)], 3, 0).is_err());
        assert!(stratified_starts(&[], 3, 0)
            .unwrap()
            .iter()
            .all(Vec::is_empty));
        assert!(stratified_starts(&[(0.0, 1.0)], 0, 0).unwrap().is_empty());
    }

    #[test]
    fn multi_start_escapes_a_local_basin() {
        // Double well: x = -1 is local (value 0.5), x = 2 global (0).
        let f = |p: &[f64]| ((p[0] + 1.0).powi(2) + 0.5).min((p[0] - 2.0).powi(2));
        let single =
            multi_start_nelder_mead(f, &[-1.2], &[(-4.0, 4.0)], MultiStartConfig::single())
                .unwrap();
        assert!((single.best.x[0] + 1.0).abs() < 1e-3, "{:?}", single.best.x);
        assert_eq!(single.best_start, 0);
        assert_eq!(single.start_values.len(), 1);
        let multi =
            multi_start_nelder_mead(f, &[-1.2], &[(-4.0, 4.0)], MultiStartConfig::new(6)).unwrap();
        assert!((multi.best.x[0] - 2.0).abs() < 1e-3, "{:?}", multi.best.x);
        assert!(multi.best_start > 0);
        assert!(multi.best.value <= single.best.value);
        assert_eq!(multi.start_values.len(), 6);
        assert!(multi.evaluations > single.evaluations);
    }

    #[test]
    fn multi_start_is_identical_across_parallelism_modes() {
        let f = |p: &[f64]| (p[0].sin() * 3.0 + p[0] * p[0] * 0.05) + (p[1] - 1.0).powi(2);
        let bounds = [(-10.0, 10.0), (-3.0, 5.0)];
        let run = |parallelism: Parallelism| {
            multi_start_nelder_mead(
                f,
                &[0.0, 0.0],
                &bounds,
                MultiStartConfig {
                    starts: 7,
                    seed: 99,
                    parallelism,
                    ..MultiStartConfig::default()
                },
            )
            .unwrap()
        };
        let serial = run(Parallelism::Serial);
        for mode in [
            Parallelism::Fixed(2),
            Parallelism::Fixed(5),
            Parallelism::Auto,
        ] {
            let parallel = run(mode);
            assert_eq!(serial, parallel, "{mode:?} diverged");
            // Bit-level, not just PartialEq: the winning point and every
            // per-start objective must carry identical bit patterns.
            assert_eq!(
                serial
                    .best
                    .x
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                parallel
                    .best
                    .x
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
            );
            assert_eq!(
                serial
                    .start_values
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                parallel
                    .start_values
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
            );
        }
    }

    #[test]
    fn multi_start_tie_break_keeps_the_lowest_start_index() {
        // A constant objective ties every start bit-for-bit: start 0 wins.
        let outcome = multi_start_nelder_mead(
            |_: &[f64]| 1.25,
            &[0.5],
            &[(0.0, 1.0)],
            MultiStartConfig::new(5),
        )
        .unwrap();
        assert_eq!(outcome.best_start, 0);
        assert!(outcome.start_values.iter().all(|v| *v == 1.25));
    }

    #[test]
    fn multi_start_validates_inputs() {
        let f = |p: &[f64]| p[0] * p[0];
        // Bounds arity must match the seed.
        assert!(multi_start_nelder_mead(f, &[1.0], &[], MultiStartConfig::new(3)).is_err());
        assert!(
            multi_start_nelder_mead(f, &[1.0], &[(1.0, 0.0)], MultiStartConfig::new(3)).is_err()
        );
        // starts = 0 is treated as a single start.
        let zero = multi_start_nelder_mead(
            f,
            &[1.0],
            &[(-1.0, 1.0)],
            MultiStartConfig {
                starts: 0,
                ..MultiStartConfig::default()
            },
        )
        .unwrap();
        assert_eq!(zero.start_values.len(), 1);
        // A single start generates no grid, so bounds that only shape
        // restarts (here: non-finite) are not validated — threading the
        // config through an existing path changes nothing until the
        // caller raises `starts`.
        let unbounded = multi_start_nelder_mead(
            f,
            &[1.0],
            &[(0.0, f64::INFINITY)],
            MultiStartConfig::single(),
        )
        .unwrap();
        assert!((unbounded.best.x[0]).abs() < 1e-4);
        assert!(
            multi_start_nelder_mead(f, &[1.0], &[(0.0, f64::INFINITY)], MultiStartConfig::new(3))
                .is_err(),
            "a real grid over a non-finite box must still be rejected"
        );
    }
}
