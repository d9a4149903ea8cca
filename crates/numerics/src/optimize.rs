//! Deterministic multi-start search around a local search.
//!
//! Both calibrating fits in `dlm-core` — the `dl-cal` parameters and the
//! per-distance growth curves of `variable-dl` — minimize by
//! box-constrained Levenberg–Marquardt
//! ([`crate::least_squares::levenberg_marquardt_in_box`]), a local search
//! that can strand in a poor basin. [`multi_start`] restarts any local
//! search from a deterministic stratified grid of seed points
//! ([`stratified_starts`]) and fans the independent starts onto the
//! work-stealing executor in [`crate::pool`]. Selection is a total order
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

/// Options for [`multi_start`]: how many independent local searches to
/// run, how their seed points are generated, and how the starts are
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
            parallelism: Parallelism::Auto,
        }
    }
}

impl MultiStartConfig {
    /// A config running `starts` starts with default seeding and
    /// scheduling.
    #[must_use]
    pub fn new(starts: usize) -> Self {
        Self {
            starts,
            ..Self::default()
        }
    }

    /// The single-start config: one local search from the caller's
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
    /// Objective evaluations each start consumed, in start order.
    pub start_evaluations: Vec<usize>,
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

/// Runs the local search `search` from the caller's seed `x0` (start 0)
/// plus `cfg.starts - 1` stratified points inside `bounds`
/// ([`stratified_starts`] keyed by `cfg.seed`), and returns the best
/// local minimum found. `search` carries its own settings and budget;
/// since start 0 *is* the single search from `x0`, the outcome is never
/// worse than that search's.
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
///
/// # Examples
///
/// ```
/// use dlm_numerics::optimize::{multi_start, Minimum, MultiStartConfig};
///
/// # fn main() -> Result<(), dlm_numerics::NumericsError> {
/// // A double well: local minimum at x = -1 (value 0.5), global
/// // minimum at x = 2 (value 0).
/// let f = |x: f64| ((x + 1.0).powi(2) + 0.5).min((x - 2.0).powi(2));
/// // The local search walks downhill in steps of 1e-3 until neither
/// // neighbour is lower.
/// let descend = |seed: &[f64]| {
///     let (mut x, mut evaluations) = (seed[0], 1);
///     while let Some(next) = [x - 1e-3, x + 1e-3].into_iter().find(|&n| f(n) < f(x)) {
///         x = next;
///         evaluations += 2;
///     }
///     Ok(Minimum { x: vec![x], value: f(x), evaluations, converged: true })
/// };
/// // Seeded at -1.2, the single start settles in the wrong basin; the
/// // stratified restarts escape it.
/// let outcome = multi_start(&[-1.2], &[(-4.0, 4.0)], &MultiStartConfig::new(6), descend)?;
/// assert!((outcome.best.x[0] - 2.0).abs() < 1e-3);
/// assert_eq!(outcome.start_values.len(), 6);
/// // The winner is at least as good as the caller's seed basin.
/// assert!(outcome.best.value <= outcome.start_values[0]);
/// # Ok(())
/// # }
/// ```
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
        start_evaluations: minima.iter().map(|m| m.evaluations).collect(),
        evaluations: minima.iter().map(|m| m.evaluations).sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A compass search, the local search of these tests: try a step
    /// of ±`step` along each axis, keep the first that lowers `f`, and
    /// halve the step when none does.
    fn compass(f: impl Fn(&[f64]) -> f64, seed: &[f64]) -> Result<Minimum> {
        let (mut x, mut value, mut evaluations) = (seed.to_vec(), f(seed), 1);
        let mut step = 1.0;
        while step > 1e-9 {
            let mut moved = false;
            for i in 0..x.len() {
                for direction in [1.0, -1.0] {
                    let mut trial = x.clone();
                    trial[i] += direction * step;
                    let v = f(&trial);
                    evaluations += 1;
                    if v < value {
                        (x, value, moved) = (trial, v, true);
                    }
                }
            }
            if !moved {
                step *= 0.5;
            }
        }
        Ok(Minimum {
            x,
            value,
            evaluations,
            converged: true,
        })
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
        let search = |seed: &[f64]| compass(f, seed);
        let single =
            multi_start(&[-1.2], &[(-4.0, 4.0)], &MultiStartConfig::single(), search).unwrap();
        assert!((single.best.x[0] + 1.0).abs() < 1e-3, "{:?}", single.best.x);
        assert_eq!(single.best_start, 0);
        assert_eq!(single.start_values.len(), 1);
        let multi =
            multi_start(&[-1.2], &[(-4.0, 4.0)], &MultiStartConfig::new(6), search).unwrap();
        assert!((multi.best.x[0] - 2.0).abs() < 1e-3, "{:?}", multi.best.x);
        assert!(multi.best_start > 0);
        assert!(multi.best.value <= single.best.value);
        assert_eq!(multi.start_values.len(), 6);
        assert!(multi.evaluations > single.evaluations);
        assert_eq!(
            multi.start_evaluations.iter().sum::<usize>(),
            multi.evaluations
        );
    }

    #[test]
    fn multi_start_is_identical_across_parallelism_modes() {
        let f = |p: &[f64]| (p[0].sin() * 3.0 + p[0] * p[0] * 0.05) + (p[1] - 1.0).powi(2);
        let bounds = [(-10.0, 10.0), (-3.0, 5.0)];
        let run = |parallelism: Parallelism| {
            multi_start(
                &[0.0, 0.0],
                &bounds,
                &MultiStartConfig {
                    starts: 7,
                    seed: 99,
                    parallelism,
                },
                |seed| compass(f, seed),
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
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&serial.best.x), bits(&parallel.best.x));
            assert_eq!(bits(&serial.start_values), bits(&parallel.start_values));
        }
    }

    #[test]
    fn multi_start_tie_break_keeps_the_lowest_start_index() {
        // A constant objective ties every start bit-for-bit: start 0 wins.
        let outcome = multi_start(&[0.5], &[(0.0, 1.0)], &MultiStartConfig::new(5), |seed| {
            compass(|_| 1.25, seed)
        })
        .unwrap();
        assert_eq!(outcome.best_start, 0);
        assert!(outcome.start_values.iter().all(|v| *v == 1.25));
    }

    #[test]
    fn multi_start_validates_inputs() {
        let search = |seed: &[f64]| compass(|p| p[0] * p[0], seed);
        // Bounds arity must match the seed.
        assert!(multi_start(&[1.0], &[], &MultiStartConfig::new(3), search).is_err());
        assert!(multi_start(&[1.0], &[(1.0, 0.0)], &MultiStartConfig::new(3), search).is_err());
        // starts = 0 is treated as a single start.
        let zero = multi_start(
            &[1.0],
            &[(-1.0, 1.0)],
            &MultiStartConfig {
                starts: 0,
                ..MultiStartConfig::default()
            },
            search,
        )
        .unwrap();
        assert_eq!(zero.start_values.len(), 1);
        // A single start generates no grid, so bounds that only shape
        // restarts (here: non-finite) are not validated — threading the
        // config through an existing path changes nothing until the
        // caller raises `starts`.
        let unbounded = multi_start(
            &[1.0],
            &[(0.0, f64::INFINITY)],
            &MultiStartConfig::single(),
            search,
        )
        .unwrap();
        assert!((unbounded.best.x[0]).abs() < 1e-4);
        assert!(
            multi_start(
                &[1.0],
                &[(0.0, f64::INFINITY)],
                &MultiStartConfig::new(3),
                search
            )
            .is_err(),
            "a real grid over a non-finite box must still be rejected"
        );
    }
}
