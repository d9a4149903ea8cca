//! Baseline predictors the DL model is compared against.
//!
//! The paper's central claim is that modelling *both* growth (logistic,
//! intra-distance) and diffusion (Fick, cross-distance) beats simpler
//! alternatives. These baselines make that comparison concrete:
//!
//! * [`LogisticOnly`] — the DL equation with `d = 0`: each distance group
//!   evolves independently (no spatial coupling). The ablation that
//!   isolates the value of the diffusion term.
//! * [`NaiveLastValue`] — predicts the initial profile forever (the
//!   "no-change" forecaster every prediction paper must beat).
//! * [`LinearTrend`] — extrapolates the per-distance trend of the first
//!   two observed hours.
//! * [`si_epidemic`] / [`sis_epidemic`] — discrete-time SI/SIS epidemic
//!   Monte Carlo on the *actual follower graph* (the classic
//!   network-epidemic alternative referenced in the paper's related work,
//!   e.g. Saito et al.).

use crate::error::{DlError, Result};
use crate::growth::ExpDecayGrowth;
use crate::model::Prediction;
use dlm_graph::bfs::hop_distances;
use dlm_graph::DiGraph;
use dlm_numerics::mix::splitmix64_next;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// The `d = 0` ablation: independent logistic growth per distance group,
/// sharing the DL model's `r(t)` and `K`. With the Eq.-7 family each
/// group's logistic equation has an exact solution
/// ([`ExpDecayGrowth::logistic`]), so nothing is integrated.
#[derive(Debug, Clone)]
pub struct LogisticOnly {
    initial: Vec<f64>,
    growth: ExpDecayGrowth,
    capacity: f64,
    initial_time: f64,
}

impl LogisticOnly {
    /// Creates the baseline from the profile observed at `initial_time`
    /// (`initial[i]` at distance `i + 1`).
    ///
    /// # Errors
    ///
    /// Returns [`DlError::InvalidParameter`] for an empty profile or
    /// non-positive capacity.
    pub fn new(
        initial: &[f64],
        growth: ExpDecayGrowth,
        capacity: f64,
        initial_time: f64,
    ) -> Result<Self> {
        if initial.is_empty() {
            return Err(DlError::InvalidParameter {
                name: "initial",
                reason: "must be nonempty".into(),
            });
        }
        if !(capacity > 0.0) {
            return Err(DlError::InvalidParameter {
                name: "capacity",
                reason: format!("must be positive, got {capacity}"),
            });
        }
        Ok(Self {
            initial: initial.to_vec(),
            growth,
            capacity,
            initial_time,
        })
    }

    /// The shared capacity `K`.
    #[must_use]
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// The shared growth curve `r(t)`.
    #[must_use]
    pub fn growth(&self) -> ExpDecayGrowth {
        self.growth
    }

    /// The time of the initial profile.
    #[must_use]
    pub fn initial_time(&self) -> f64 {
        self.initial_time
    }

    /// The initial profile (`initial()[i]` at distance `i + 1`).
    #[must_use]
    pub fn initial(&self) -> &[f64] {
        &self.initial
    }

    /// Predicts densities at integer distances/hours from the closed-form
    /// solution of each distance's logistic equation. An hour at or
    /// before the initial time reads the initial profile itself.
    ///
    /// # Errors
    ///
    /// [`DlError::InvalidParameter`] — empty hours, a distance outside
    /// the profile, or no hour after the initial time.
    pub fn predict(&self, distances: &[u32], hours: &[u32]) -> Result<Prediction> {
        let t_max = f64::from(*hours.iter().max().ok_or(DlError::InvalidParameter {
            name: "hours",
            reason: "must be nonempty".into(),
        })?);
        if t_max <= self.initial_time {
            return Err(DlError::InvalidParameter {
                name: "hours",
                reason: "must extend beyond the initial time".into(),
            });
        }
        let values = distances
            .iter()
            .map(|&d| {
                let y0 = (d as usize)
                    .checked_sub(1)
                    .and_then(|i| self.initial.get(i).copied())
                    .ok_or(DlError::InvalidParameter {
                        name: "distances",
                        reason: format!("distance {d} outside the initial profile"),
                    })?;
                Ok(hours
                    .iter()
                    .map(|&h| {
                        let t = f64::from(h);
                        if t <= self.initial_time {
                            y0
                        } else {
                            self.growth
                                .logistic(y0, self.capacity, self.initial_time, t)
                                .0
                        }
                    })
                    .collect())
            })
            .collect::<Result<_>>()?;
        Prediction::from_values(distances.to_vec(), hours.to_vec(), values)
    }
}

/// The no-change forecaster: every future hour equals the initial profile.
#[derive(Debug, Clone, PartialEq)]
pub struct NaiveLastValue {
    initial: Vec<f64>,
}

impl NaiveLastValue {
    /// Creates the baseline from the initial profile.
    ///
    /// # Errors
    ///
    /// Returns [`DlError::InvalidParameter`] for an empty profile.
    pub fn new(initial: &[f64]) -> Result<Self> {
        if initial.is_empty() {
            return Err(DlError::InvalidParameter {
                name: "initial",
                reason: "must be nonempty".into(),
            });
        }
        Ok(Self {
            initial: initial.to_vec(),
        })
    }

    /// Predicts the frozen profile at every requested hour.
    ///
    /// # Errors
    ///
    /// Returns [`DlError::InvalidParameter`] for distances outside the
    /// profile or empty requests.
    pub fn predict(&self, distances: &[u32], hours: &[u32]) -> Result<Prediction> {
        let mut values = Vec::with_capacity(distances.len());
        for &d in distances {
            let idx = (d as usize)
                .checked_sub(1)
                .filter(|&i| i < self.initial.len())
                .ok_or(DlError::InvalidParameter {
                    name: "distances",
                    reason: format!("distance {d} outside the initial profile"),
                })?;
            values.push(vec![self.initial[idx]; hours.len()]);
        }
        Prediction::from_values(distances.to_vec(), hours.to_vec(), values)
    }
}

/// Linear extrapolation of the first two observed hours, clamped at 0.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearTrend {
    base: Vec<f64>,
    slope: Vec<f64>,
    base_time: f64,
}

impl LinearTrend {
    /// Creates the baseline from two consecutive profiles observed at
    /// `t0` and `t0 + 1`.
    ///
    /// # Errors
    ///
    /// Returns [`DlError::InvalidParameter`] for empty or mismatched
    /// profiles.
    pub fn new(profile_t0: &[f64], profile_t1: &[f64], t0: f64) -> Result<Self> {
        Self::with_step(profile_t0, profile_t1, t0, 1.0)
    }

    /// Creates the baseline from two profiles observed `step` hours apart
    /// (the second at `t0 + step`); slopes are normalized per hour.
    ///
    /// # Errors
    ///
    /// Returns [`DlError::InvalidParameter`] for empty or mismatched
    /// profiles or a non-positive step.
    pub fn with_step(profile_t0: &[f64], profile_t1: &[f64], t0: f64, step: f64) -> Result<Self> {
        if profile_t0.is_empty() || profile_t0.len() != profile_t1.len() {
            return Err(DlError::InvalidParameter {
                name: "profiles",
                reason: "need two nonempty profiles of equal length".into(),
            });
        }
        if !(step > 0.0) {
            return Err(DlError::InvalidParameter {
                name: "step",
                reason: format!("must be positive, got {step}"),
            });
        }
        let slope: Vec<f64> = profile_t0
            .iter()
            .zip(profile_t1)
            .map(|(a, b)| (b - a) / step)
            .collect();
        Ok(Self {
            base: profile_t0.to_vec(),
            slope,
            base_time: t0,
        })
    }

    /// Predicts by per-distance linear extrapolation.
    ///
    /// # Errors
    ///
    /// Returns [`DlError::InvalidParameter`] for out-of-profile distances.
    pub fn predict(&self, distances: &[u32], hours: &[u32]) -> Result<Prediction> {
        let mut values = Vec::with_capacity(distances.len());
        for &d in distances {
            let idx = (d as usize)
                .checked_sub(1)
                .filter(|&i| i < self.base.len())
                .ok_or(DlError::InvalidParameter {
                    name: "distances",
                    reason: format!("distance {d} outside the profile"),
                })?;
            let row: Vec<f64> = hours
                .iter()
                .map(|&h| {
                    (self.base[idx] + self.slope[idx] * (f64::from(h) - self.base_time)).max(0.0)
                })
                .collect();
            values.push(row);
        }
        Prediction::from_values(distances.to_vec(), hours.to_vec(), values)
    }
}

/// Configuration for the graph-epidemic baselines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpidemicConfig {
    /// Per-hour infection probability along each edge from an infected
    /// followee.
    pub beta: f64,
    /// Per-hour recovery probability (SIS only; ignored by SI).
    pub gamma: f64,
    /// Number of Monte Carlo runs to average.
    pub runs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for EpidemicConfig {
    fn default() -> Self {
        Self {
            beta: 0.01,
            gamma: 0.0,
            runs: 20,
            seed: 42,
        }
    }
}

/// The averaged ever-infected counts of an SI/SIS Monte Carlo, recorded
/// at *every* hour `1..=max_hour` — the memoizable core of the epidemic
/// baselines.
///
/// Reading densities out of a trajectory never touches the RNG, and each
/// Monte-Carlo run draws from its own independent SplitMix64-derived
/// stream seeded by `(config.seed, run index)` — run `n` replays
/// identically no matter how long the simulation runs or how many runs
/// precede it. Two consequences: resampling any subset of hours is
/// bit-identical to a fresh simulation, and **truncating a long
/// trajectory at hour `h` is bit-identical to simulating with
/// `max_hour = h` directly** (see [`EpidemicTrajectory::truncated`]).
/// One long trajectory therefore serves every shorter horizon, which is
/// what lets [`crate::zoo::FittedEpidemic`] cache per (graph, seeds,
/// config, hop bound) instead of per horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct EpidemicTrajectory {
    /// Users per hop group (group `g` holds distance `g + 1`).
    group_sizes: Vec<usize>,
    /// acc[g][h - 1] = ever-infected count of group `g`, summed over runs.
    acc: Vec<Vec<f64>>,
    runs: usize,
}

impl EpidemicTrajectory {
    /// Number of hop groups the epidemic reached (distances run
    /// `1..=group_count`).
    #[must_use]
    pub fn group_count(&self) -> usize {
        self.acc.len()
    }

    /// Last simulated hour.
    #[must_use]
    pub fn max_hour(&self) -> u32 {
        self.acc.first().map_or(0, |row| row.len() as u32)
    }

    /// The prefix trajectory over hours `1..=max_hour` — bit-identical
    /// to simulating with that horizon directly, because every run's
    /// RNG stream depends only on `(seed, run index)`, never on how far
    /// the simulation ran. `max_hour` is capped at the simulated span.
    #[must_use]
    pub fn truncated(&self, max_hour: u32) -> Self {
        let keep = (max_hour as usize).min(self.max_hour() as usize);
        Self {
            group_sizes: self.group_sizes.clone(),
            acc: self.acc.iter().map(|row| row[..keep].to_vec()).collect(),
            runs: self.runs,
        }
    }

    /// Mean ever-infected density (percent) of hop group `distance` at
    /// `hour`, or `None` outside the simulated domain.
    #[must_use]
    pub fn density(&self, distance: u32, hour: u32) -> Option<f64> {
        let g = (distance as usize).checked_sub(1)?;
        let h = (hour as usize).checked_sub(1)?;
        let sum = *self.acc.get(g)?.get(h)?;
        Some(100.0 * sum / (self.runs as f64 * self.group_sizes[g] as f64))
    }

    /// Densities of every hop group at the requested hours, as a
    /// [`Prediction`] over distances `1..=group_count`.
    ///
    /// # Errors
    ///
    /// Returns [`DlError::InvalidParameter`] for empty hours or hours
    /// beyond the simulated horizon.
    pub fn prediction(&self, hours: &[u32]) -> Result<Prediction> {
        if hours.is_empty() {
            return Err(DlError::InvalidParameter {
                name: "hours/max_hops",
                reason: "must be nonempty/positive".into(),
            });
        }
        let distances: Vec<u32> = (1..=self.group_count() as u32).collect();
        let values: Vec<Vec<f64>> = distances
            .iter()
            .map(|&d| {
                hours
                    .iter()
                    .map(|&h| {
                        self.density(d, h).ok_or(DlError::InvalidParameter {
                            name: "hours",
                            reason: format!(
                                "hour {h} beyond the simulated horizon {}",
                                self.max_hour()
                            ),
                        })
                    })
                    .collect::<Result<Vec<f64>>>()
            })
            .collect::<Result<_>>()?;
        Prediction::from_values(distances, hours.to_vec(), values)
    }
}

/// Runs a discrete-time SI epidemic on the follower graph, seeded with
/// `initially_infected`, and returns the predicted *density of
/// ever-infected users* (percent) per hop group per hour — directly
/// comparable to a hop [`dlm_cascade::DensityMatrix`].
///
/// # Errors
///
/// Returns [`DlError::InvalidParameter`] for a bad config or an initiator
/// that reaches nobody.
pub fn si_epidemic(
    graph: &DiGraph,
    initiator: usize,
    initially_infected: &[usize],
    max_hops: u32,
    hours: &[u32],
    config: &EpidemicConfig,
) -> Result<Prediction> {
    epidemic_prediction(
        graph,
        initiator,
        initially_infected,
        max_hops,
        hours,
        config,
        false,
    )
}

/// SIS variant of [`si_epidemic`]: infected users recover with probability
/// `gamma` per hour and can be re-infected. The reported density still
/// counts *ever-infected* users (votes are permanent on Digg), so `gamma`
/// throttles spreading pressure rather than un-voting users.
///
/// # Errors
///
/// Same conditions as [`si_epidemic`].
pub fn sis_epidemic(
    graph: &DiGraph,
    initiator: usize,
    initially_infected: &[usize],
    max_hops: u32,
    hours: &[u32],
    config: &EpidemicConfig,
) -> Result<Prediction> {
    epidemic_prediction(
        graph,
        initiator,
        initially_infected,
        max_hops,
        hours,
        config,
        true,
    )
}

#[allow(clippy::too_many_arguments)]
fn epidemic_prediction(
    graph: &DiGraph,
    initiator: usize,
    initially_infected: &[usize],
    max_hops: u32,
    hours: &[u32],
    config: &EpidemicConfig,
    with_recovery: bool,
) -> Result<Prediction> {
    if hours.is_empty() {
        return Err(DlError::InvalidParameter {
            name: "hours/max_hops",
            reason: "must be nonempty/positive".into(),
        });
    }
    let max_hour = *hours.iter().max().expect("nonempty");
    let trajectory = epidemic_trajectory(
        graph,
        initiator,
        initially_infected,
        max_hops,
        max_hour,
        config,
        with_recovery,
    )?;
    trajectory.prediction(hours)
}

/// Simulates the epidemic and records the summed ever-infected counts of
/// every hop group at every hour `1..=max_hour`.
///
/// # Errors
///
/// Returns [`DlError::InvalidParameter`] for a bad config, a zero
/// horizon/hop bound, or an initiator that reaches nobody.
#[allow(clippy::too_many_arguments)]
pub fn epidemic_trajectory(
    graph: &DiGraph,
    initiator: usize,
    initially_infected: &[usize],
    max_hops: u32,
    max_hour: u32,
    config: &EpidemicConfig,
    with_recovery: bool,
) -> Result<EpidemicTrajectory> {
    if !(0.0..=1.0).contains(&config.beta) || !(0.0..=1.0).contains(&config.gamma) {
        return Err(DlError::InvalidParameter {
            name: "beta/gamma",
            reason: "probabilities must be in [0, 1]".into(),
        });
    }
    if config.runs == 0 {
        return Err(DlError::InvalidParameter {
            name: "runs",
            reason: "must be positive".into(),
        });
    }
    if max_hour == 0 || max_hops == 0 {
        return Err(DlError::InvalidParameter {
            name: "hours/max_hops",
            reason: "must be nonempty/positive".into(),
        });
    }
    let dist = hop_distances(graph, initiator);
    let mut groups = dist.groups_up_to(max_hops);
    while groups.last().is_some_and(Vec::is_empty) {
        groups.pop();
    }
    if groups.is_empty() {
        return Err(DlError::InvalidParameter {
            name: "initiator",
            reason: "reaches no other users".into(),
        });
    }
    let group_sizes: Vec<usize> = groups.iter().map(Vec::len).collect();
    let n = graph.node_count();

    // group index per node.
    let mut group_of: Vec<Option<usize>> = vec![None; n];
    for (g, members) in groups.iter().enumerate() {
        for &u in members {
            group_of[u] = Some(g);
        }
    }

    // Accumulated ever-infected counts [group][hour - 1] over runs.
    let mut acc = vec![vec![0.0f64; max_hour as usize]; groups.len()];

    // Canonical seed order: `HashSet` iteration order differs between
    // instances (per-instance hasher keys), and the spread loop draws
    // RNG values in `active` order — an unsorted seed list would make
    // otherwise-identical simulations diverge run to run.
    let mut initial_active: Vec<usize> = initially_infected
        .iter()
        .copied()
        .chain([initiator])
        .collect();
    initial_active.sort_unstable();
    initial_active.dedup();

    // One independent RNG stream per run, derived from the SplitMix64
    // sequence over `config.seed`: run `n`'s stream is a pure function
    // of `(seed, n)`, so no run's draws depend on `max_hour` or on how
    // many draws earlier runs consumed — truncating a long trajectory
    // equals simulating a shorter one.
    let mut run_seeds = config.seed;
    for _ in 0..config.runs {
        let mut rng = SmallRng::seed_from_u64(splitmix64_next(&mut run_seeds));
        let mut ever: HashSet<usize> = initial_active.iter().copied().collect();
        let mut active: Vec<usize> = initial_active.clone();
        let mut infected: Vec<bool> = vec![false; n];
        for &u in &active {
            infected[u] = true;
        }
        for hour in 1..=max_hour {
            // Spread from active nodes to their followers.
            let mut newly: Vec<usize> = Vec::new();
            for &u in &active {
                for &v in graph.out_neighbors(u) {
                    if !infected[v] && rng.gen::<f64>() < config.beta {
                        infected[v] = true;
                        newly.push(v);
                    }
                }
            }
            for &v in &newly {
                ever.insert(v);
            }
            active.extend(newly);
            if with_recovery && config.gamma > 0.0 {
                active.retain(|&u| {
                    if rng.gen::<f64>() < config.gamma {
                        infected[u] = false;
                        false
                    } else {
                        true
                    }
                });
            }
            // Record this hour's ever-infected census. The readout never
            // touches the RNG, so recording every hour (rather than a
            // requested subset) cannot change the spreading process.
            let mut counts = vec![0usize; groups.len()];
            for &u in &ever {
                if let Some(g) = group_of[u] {
                    counts[g] += 1;
                }
            }
            for (g, &c) in counts.iter().enumerate() {
                acc[g][(hour - 1) as usize] += c as f64;
            }
        }
    }

    Ok(EpidemicTrajectory {
        group_sizes,
        acc,
        runs: config.runs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::growth::GrowthRate;
    use dlm_graph::GraphBuilder;
    use dlm_numerics::ode::rk4;

    const OBS: [f64; 5] = [2.1, 0.7, 0.9, 0.5, 0.3];

    /// The integration `LogisticOnly::predict` used before the closed
    /// form: RK4 at Δt = 0.005 from the initial time to `t`.
    fn rk4_reference(growth: ExpDecayGrowth, capacity: f64, y0: f64, t0: f64, t: f64) -> f64 {
        let sys = (
            move |t: f64, y: &[f64], dy: &mut [f64]| {
                dy[0] = growth.rate(t) * y[0] * (1.0 - y[0] / capacity);
            },
            1usize,
        );
        let steps = ((t - t0) / 0.005).ceil() as usize;
        let trajectory = rk4(&sys, t0, t, &[y0], steps).unwrap();
        trajectory.states().last().unwrap()[0]
    }

    #[test]
    fn logistic_only_matches_rk4_reference() {
        let profile = [2.1, 0.7, 0.9, 0.5, 0.3, 0.2, 24.0, 0.0];
        let distances: Vec<u32> = (1..=profile.len() as u32).collect();
        for growth in [
            ExpDecayGrowth::paper_hops(),
            ExpDecayGrowth::paper_interest(),
            ExpDecayGrowth::new(0.0, 0.0, 0.8),
        ] {
            for (initial_time, hours) in
                [(1.0, vec![1, 2, 3, 4, 6, 9]), (2.5, vec![2, 3, 5, 8, 24])]
            {
                let model = LogisticOnly::new(&profile, growth, 25.0, initial_time).unwrap();
                let got = model.predict(&distances, &hours).unwrap();
                for (&d, &y0) in distances.iter().zip(&profile) {
                    for &h in &hours {
                        let t = f64::from(h);
                        let value = got.at(d, h).unwrap();
                        if t <= initial_time {
                            // The initial profile itself, as RK4's first state.
                            assert_eq!(value.to_bits(), y0.to_bits(), "d {d}, h {h}");
                            continue;
                        }
                        let want = rk4_reference(growth, 25.0, y0, initial_time, t);
                        assert!(
                            (value - want).abs() <= 1e-9 * want,
                            "{growth:?}, t0 {initial_time}, d {d}, h {h}: {value} vs {want}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn logistic_only_matches_closed_form_with_constant_rate() {
        let growth = ExpDecayGrowth::new(0.0, 0.0, 0.8);
        let baseline = LogisticOnly::new(&OBS, growth, 25.0, 1.0).unwrap();
        let p = baseline.predict(&[1, 2, 3, 4, 5], &[2, 4, 6]).unwrap();
        let exact = |y0: f64, t: f64| 25.0 / (1.0 + (25.0 / y0 - 1.0) * (-0.8 * (t - 1.0)).exp());
        for (i, &y0) in OBS.iter().enumerate() {
            for &h in &[2u32, 4, 6] {
                let got = p.at(i as u32 + 1, h).unwrap();
                let want = exact(y0, f64::from(h));
                assert!(
                    (got - want).abs() < 1e-4,
                    "d={} h={h}: {got} vs {want}",
                    i + 1
                );
            }
        }
    }

    #[test]
    fn logistic_only_with_paper_growth_is_increasing_and_bounded() {
        let growth = ExpDecayGrowth::paper_hops();
        let baseline = LogisticOnly::new(&OBS, growth, 25.0, 1.0).unwrap();
        let p = baseline.predict(&[1, 3, 5], &[2, 3, 4, 5, 6]).unwrap();
        for &d in &[1u32, 3, 5] {
            let mut prev = 0.0;
            for &h in &[2u32, 3, 4, 5, 6] {
                let v = p.at(d, h).unwrap();
                assert!(v > prev && v <= 25.0);
                prev = v;
            }
        }
    }

    #[test]
    fn logistic_only_rejects_bad_inputs() {
        let growth = ExpDecayGrowth::new(0.0, 0.0, 0.5);
        assert!(LogisticOnly::new(&[], growth, 25.0, 1.0).is_err());
        assert!(LogisticOnly::new(&OBS, growth, 0.0, 1.0).is_err());
        let b = LogisticOnly::new(&OBS, growth, 25.0, 1.0).unwrap();
        assert!(b.predict(&[9], &[2]).is_err());
        assert!(b.predict(&[1], &[1]).is_err());
    }

    #[test]
    fn naive_is_frozen() {
        let b = NaiveLastValue::new(&OBS).unwrap();
        let p = b.predict(&[1, 5], &[2, 50]).unwrap();
        assert_eq!(p.at(1, 2).unwrap(), 2.1);
        assert_eq!(p.at(1, 50).unwrap(), 2.1);
        assert_eq!(p.at(5, 50).unwrap(), 0.3);
        assert!(b.predict(&[6], &[2]).is_err());
    }

    #[test]
    fn linear_trend_extrapolates_and_clamps() {
        let t1 = [2.0, 1.0];
        let t2 = [3.0, 0.4];
        let b = LinearTrend::new(&t1, &t2, 1.0).unwrap();
        let p = b.predict(&[1, 2], &[2, 3, 4]).unwrap();
        assert!((p.at(1, 3).unwrap() - 4.0).abs() < 1e-12);
        // Distance 2 has slope −0.6; by hour 4 the raw value is negative → clamped.
        assert_eq!(p.at(2, 4).unwrap(), 0.0);
        assert!(LinearTrend::new(&[], &[], 1.0).is_err());
        assert!(LinearTrend::new(&[1.0], &[1.0, 2.0], 1.0).is_err());
    }

    fn chain_graph() -> DiGraph {
        // 0 → 1 → 2 → 3 … a path so hops are deterministic.
        let mut b = GraphBuilder::new(6);
        for i in 0..5 {
            b.add_edge(i, i + 1).unwrap();
        }
        b.build()
    }

    #[test]
    fn si_epidemic_with_beta_one_marches_one_hop_per_hour() {
        let g = chain_graph();
        let cfg = EpidemicConfig {
            beta: 1.0,
            runs: 3,
            ..Default::default()
        };
        let p = si_epidemic(&g, 0, &[0], 5, &[1, 2, 3], &cfg).unwrap();
        // After hour h the infection has reached exactly hop h.
        assert_eq!(p.at(1, 1).unwrap(), 100.0);
        assert_eq!(p.at(2, 1).unwrap(), 0.0);
        assert_eq!(p.at(2, 2).unwrap(), 100.0);
        assert_eq!(p.at(3, 3).unwrap(), 100.0);
        assert_eq!(p.at(4, 3).unwrap(), 0.0);
    }

    #[test]
    fn si_epidemic_with_beta_zero_stays_at_seed() {
        let g = chain_graph();
        let cfg = EpidemicConfig {
            beta: 0.0,
            runs: 2,
            ..Default::default()
        };
        let p = si_epidemic(&g, 0, &[0], 5, &[3], &cfg).unwrap();
        for d in 1..=5 {
            assert_eq!(p.at(d, 3).unwrap(), 0.0);
        }
    }

    #[test]
    fn sis_recovery_slows_spread() {
        use dlm_graph::generators::{preferential_attachment, PreferentialAttachmentConfig};
        let g = preferential_attachment(
            PreferentialAttachmentConfig {
                nodes: 400,
                ..Default::default()
            },
            3,
        )
        .unwrap();
        let si_cfg = EpidemicConfig {
            beta: 0.05,
            gamma: 0.0,
            runs: 10,
            seed: 1,
        };
        let sis_cfg = EpidemicConfig {
            beta: 0.05,
            gamma: 0.8,
            runs: 10,
            seed: 1,
        };
        let hours = [10u32];
        let si = si_epidemic(&g, 0, &[0], 4, &hours, &si_cfg).unwrap();
        let sis = sis_epidemic(&g, 0, &[0], 4, &hours, &sis_cfg).unwrap();
        let total = |p: &Prediction| -> f64 {
            (1..=p.distances().len() as u32)
                .map(|d| p.at(d, 10).unwrap())
                .sum()
        };
        assert!(
            total(&sis) < total(&si),
            "{} !< {}",
            total(&sis),
            total(&si)
        );
    }

    #[test]
    fn epidemic_rejects_bad_config() {
        let g = chain_graph();
        assert!(si_epidemic(
            &g,
            0,
            &[0],
            5,
            &[1],
            &EpidemicConfig {
                beta: 2.0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(si_epidemic(
            &g,
            0,
            &[0],
            5,
            &[1],
            &EpidemicConfig {
                runs: 0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(si_epidemic(&g, 0, &[0], 0, &[1], &EpidemicConfig::default()).is_err());
        assert!(si_epidemic(&g, 0, &[0], 5, &[], &EpidemicConfig::default()).is_err());
        // Node 5 has no out-edges: reaches nobody.
        assert!(si_epidemic(&g, 5, &[5], 5, &[1], &EpidemicConfig::default()).is_err());
    }

    #[test]
    fn trajectory_resampling_matches_direct_simulation() {
        use dlm_graph::generators::{preferential_attachment, PreferentialAttachmentConfig};
        let g = preferential_attachment(
            PreferentialAttachmentConfig {
                nodes: 200,
                ..Default::default()
            },
            7,
        )
        .unwrap();
        let cfg = EpidemicConfig {
            beta: 0.2,
            gamma: 0.3,
            runs: 4,
            seed: 11,
        };
        for with_recovery in [false, true] {
            // A trajectory resampled at a subset of its hours must be
            // bit-identical to simulating the same horizon directly: the
            // readout schedule never touches the RNG.
            let traj = epidemic_trajectory(&g, 0, &[0], 4, 7, &cfg, with_recovery).unwrap();
            let hours = [2u32, 5, 7];
            let resampled = traj.prediction(&hours).unwrap();
            let direct = if with_recovery {
                sis_epidemic(&g, 0, &[0], 4, &hours, &cfg).unwrap()
            } else {
                si_epidemic(&g, 0, &[0], 4, &hours, &cfg).unwrap()
            };
            assert_eq!(resampled, direct);
            assert_eq!(traj.max_hour(), 7);
            assert!(traj.group_count() >= 1);
            // Every subset readout agrees with the full-grid readout.
            let full = traj.prediction(&[1, 2, 3, 4, 5, 6, 7]).unwrap();
            for &h in &hours {
                assert_eq!(resampled.at(1, h).unwrap(), full.at(1, h).unwrap());
            }
            // Out-of-domain lookups are None, not garbage.
            assert!(traj.density(0, 1).is_none());
            assert!(traj.density(1, 0).is_none());
            assert!(traj.density(1, 8).is_none());
            assert!(traj.density(99, 1).is_none());
            assert!(traj.prediction(&[8]).is_err());
            assert!(traj.prediction(&[]).is_err());
        }
    }

    #[test]
    fn truncated_trajectory_matches_direct_shorter_simulation() {
        use dlm_graph::generators::{preferential_attachment, PreferentialAttachmentConfig};
        let g = preferential_attachment(
            PreferentialAttachmentConfig {
                nodes: 150,
                ..Default::default()
            },
            3,
        )
        .unwrap();
        let cfg = EpidemicConfig {
            beta: 0.15,
            gamma: 0.25,
            runs: 5,
            seed: 23,
        };
        for with_recovery in [false, true] {
            // Per-run RNG streams depend only on (seed, run index), so a
            // long trajectory restricted to a prefix of hours is
            // bit-identical to simulating that shorter horizon directly.
            let long = epidemic_trajectory(&g, 0, &[0], 4, 9, &cfg, with_recovery).unwrap();
            for shorter in [1u32, 3, 6, 9] {
                let direct =
                    epidemic_trajectory(&g, 0, &[0], 4, shorter, &cfg, with_recovery).unwrap();
                assert_eq!(long.truncated(shorter), direct, "horizon {shorter}");
            }
            // Truncation past the simulated span is the identity.
            assert_eq!(long.truncated(99), long);
        }
    }

    #[test]
    fn epidemic_is_seed_deterministic() {
        let g = chain_graph();
        let cfg = EpidemicConfig {
            beta: 0.5,
            runs: 5,
            seed: 9,
            ..Default::default()
        };
        let a = si_epidemic(&g, 0, &[0], 5, &[1, 2], &cfg).unwrap();
        let b = si_epidemic(&g, 0, &[0], 5, &[1, 2], &cfg).unwrap();
        assert_eq!(a, b);
    }
}
