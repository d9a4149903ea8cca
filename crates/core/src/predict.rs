//! The unified prediction interface: one contract every diffusion
//! predictor in the workspace speaks.
//!
//! The paper's evaluation is a *model comparison* — the DL equation
//! against simpler temporal predictors and network epidemics — yet each
//! predictor historically exposed its own ad-hoc `predict` signature.
//! This module defines the shared vocabulary:
//!
//! * [`Observation`] — what a predictor may learn from: one or more
//!   observed density profiles over integer distances, plus (for
//!   graph-epidemic predictors) an optional [`GraphContext`];
//! * [`PredictionRequest`] — which `(distance, hour)` cells to predict;
//! * [`DiffusionPredictor`] — the object-safe factory trait:
//!   `fit(&Observation)` returns a boxed [`FittedPredictor`];
//! * [`FittedPredictor`] — `predict(&PredictionRequest)`, plus
//!   `param_names()` / `params()` introspection;
//! * [`FitConfig`] / [`GrowthFamily`] — the scalar fitting options shared
//!   by the classic and variable-coefficient model builders.
//!
//! Concrete implementations for all seven predictors live in
//! [`crate::zoo`]; serializable construction specs in [`crate::registry`];
//! batch evaluation in [`crate::evaluate`].

use crate::error::{DlError, Result};
use crate::growth::{ExpDecayGrowth, GrowthRate};
use crate::initial::PhiConstruction;
use crate::model::Prediction;
use crate::pde::SolverConfig;
use dlm_graph::DiGraph;
pub use dlm_numerics::optimize::MultiStartConfig;
use std::fmt;
use std::sync::Arc;

/// The follower graph a cascade ran on, for predictors that simulate on
/// the network itself (SI/SIS epidemics).
#[derive(Debug, Clone)]
pub struct GraphContext {
    graph: Arc<DiGraph>,
    initiator: usize,
    initially_infected: Vec<usize>,
}

impl GraphContext {
    /// Packages a follower graph with the cascade's initiator and the
    /// users already influenced at the initial observation time.
    pub fn new(graph: Arc<DiGraph>, initiator: usize, initially_infected: Vec<usize>) -> Self {
        Self {
            graph,
            initiator,
            initially_infected,
        }
    }

    /// The follower graph.
    #[must_use]
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// Shared handle to the follower graph.
    #[must_use]
    pub fn graph_arc(&self) -> Arc<DiGraph> {
        Arc::clone(&self.graph)
    }

    /// The cascade's initiating user.
    #[must_use]
    pub fn initiator(&self) -> usize {
        self.initiator
    }

    /// Users influenced at the initial observation time (epidemic seeds).
    #[must_use]
    pub fn initially_infected(&self) -> &[usize] {
        &self.initially_infected
    }
}

/// Observed density profiles a predictor may fit on.
///
/// `profiles[i][d - 1]` is the observed density (percent) of the distance-
/// `d` group at `hours[i]`. Every predictor needs at least the first
/// profile (the paper's φ knots); trend and calibrated predictors consume
/// more.
#[derive(Debug, Clone)]
pub struct Observation {
    hours: Vec<u32>,
    profiles: Vec<Vec<f64>>,
    graph: Option<GraphContext>,
}

impl Observation {
    /// Creates an observation from parallel hour and profile lists.
    ///
    /// # Errors
    ///
    /// Returns [`DlError::InvalidParameter`] when the lists are empty or
    /// mismatched, hours are not strictly increasing, profiles have
    /// differing or zero lengths, or any density is negative/non-finite.
    pub fn new(hours: Vec<u32>, profiles: Vec<Vec<f64>>) -> Result<Self> {
        if hours.is_empty() || hours.len() != profiles.len() {
            return Err(DlError::InvalidParameter {
                name: "hours/profiles",
                reason: format!(
                    "need matching nonempty lists, got {} hours and {} profiles",
                    hours.len(),
                    profiles.len()
                ),
            });
        }
        if hours.windows(2).any(|w| w[0] >= w[1]) {
            return Err(DlError::InvalidParameter {
                name: "hours",
                reason: format!("must be strictly increasing, got {hours:?}"),
            });
        }
        let width = profiles[0].len();
        if width == 0 || profiles.iter().any(|p| p.len() != width) {
            return Err(DlError::InvalidParameter {
                name: "profiles",
                reason: "profiles must be nonempty and equally sized".into(),
            });
        }
        for (i, p) in profiles.iter().enumerate() {
            if p.iter().any(|v| !v.is_finite() || *v < 0.0) {
                return Err(DlError::InvalidParameter {
                    name: "profiles",
                    reason: format!(
                        "hour {} profile contains negative or non-finite densities",
                        hours[i]
                    ),
                });
            }
        }
        Ok(Self {
            hours,
            profiles,
            graph: None,
        })
    }

    /// Creates a single-profile observation (the minimal fit input).
    ///
    /// # Errors
    ///
    /// Same validation as [`Observation::new`].
    pub fn from_profile(hour: u32, profile: &[f64]) -> Result<Self> {
        Self::new(vec![hour], vec![profile.to_vec()])
    }

    /// Extracts the profiles at `hours` from a density matrix.
    ///
    /// # Errors
    ///
    /// Propagates matrix access errors and [`Observation::new`] validation.
    pub fn from_matrix(matrix: &dlm_cascade::DensityMatrix, hours: &[u32]) -> Result<Self> {
        let profiles = hours
            .iter()
            .map(|&h| matrix.profile_at(h))
            .collect::<dlm_cascade::Result<Vec<_>>>()?;
        Self::new(hours.to_vec(), profiles)
    }

    /// Attaches the follower-graph context needed by epidemic predictors.
    #[must_use]
    pub fn with_graph(mut self, graph: GraphContext) -> Self {
        self.graph = Some(graph);
        self
    }

    /// Observed hours, strictly increasing.
    #[must_use]
    pub fn hours(&self) -> &[u32] {
        &self.hours
    }

    /// Observed profiles, parallel to [`Observation::hours`].
    #[must_use]
    pub fn profiles(&self) -> &[Vec<f64>] {
        &self.profiles
    }

    /// The first observed hour (φ's hour).
    #[must_use]
    pub fn initial_hour(&self) -> u32 {
        self.hours[0]
    }

    /// The first observed profile (φ's knots).
    #[must_use]
    pub fn initial_profile(&self) -> &[f64] {
        &self.profiles[0]
    }

    /// The profile observed at `hour`, if present.
    #[must_use]
    pub fn profile_at(&self, hour: u32) -> Option<&[f64]> {
        self.hours
            .iter()
            .position(|&h| h == hour)
            .map(|i| self.profiles[i].as_slice())
    }

    /// Number of distance groups per profile.
    #[must_use]
    pub fn distance_count(&self) -> usize {
        self.profiles[0].len()
    }

    /// Largest integer distance covered (distances run `1..=max`).
    #[must_use]
    pub fn max_distance(&self) -> u32 {
        self.profiles[0].len() as u32
    }

    /// The graph context, when attached.
    #[must_use]
    pub fn graph(&self) -> Option<&GraphContext> {
        self.graph.as_ref()
    }

    /// A content-identity key for caching fitted models on this
    /// observation (see [`crate::evaluate::EvaluationPipeline`]).
    ///
    /// Two observations with equal keys are guaranteed to produce the
    /// same fit from any deterministic predictor: the key captures the
    /// observed hours, the exact bit patterns of every density, and —
    /// for graph-bearing observations — the follower graph by shared
    /// handle identity plus the initiator and epidemic seeds. Equal
    /// graph *content* behind distinct [`std::sync::Arc`] allocations
    /// compares unequal, which can only cause a redundant fit, never a
    /// wrong cache hit.
    #[must_use]
    pub fn cache_key(&self) -> ObservationKey {
        ObservationKey {
            hours: self.hours.clone(),
            profile_bits: self
                .profiles
                .iter()
                .flat_map(|p| p.iter().map(|v| v.to_bits()))
                .collect(),
            graph: self.graph.as_ref().map(|ctx| {
                (
                    Arc::as_ptr(&ctx.graph) as usize,
                    ctx.initiator,
                    ctx.initially_infected.clone(),
                )
            }),
        }
    }
}

/// Content-identity key of an [`Observation`] — the hashable half of the
/// fitted-model cache key (the other half is the model spec string).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ObservationKey {
    hours: Vec<u32>,
    profile_bits: Vec<u64>,
    /// (graph allocation identity, initiator, epidemic seeds).
    graph: Option<(usize, usize, Vec<usize>)>,
}

/// The `(distance, hour)` grid a fitted predictor should fill in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredictionRequest {
    distances: Vec<u32>,
    hours: Vec<u32>,
}

impl PredictionRequest {
    /// Creates a request for every pair of the given distances and hours.
    ///
    /// # Errors
    ///
    /// Returns [`DlError::InvalidParameter`] for empty lists or zero
    /// distances.
    pub fn new(distances: Vec<u32>, hours: Vec<u32>) -> Result<Self> {
        if distances.is_empty() || hours.is_empty() {
            return Err(DlError::InvalidParameter {
                name: "distances/hours",
                reason: "must be nonempty".into(),
            });
        }
        if distances.contains(&0) {
            return Err(DlError::InvalidParameter {
                name: "distances",
                reason: "distances are 1-based".into(),
            });
        }
        // Duplicates would make `Prediction::at` (first-match lookup)
        // ambiguous and let grid-filling predictors skip columns.
        let duplicated = |xs: &[u32]| {
            let mut sorted = xs.to_vec();
            sorted.sort_unstable();
            sorted.windows(2).any(|w| w[0] == w[1])
        };
        if duplicated(&distances) || duplicated(&hours) {
            return Err(DlError::InvalidParameter {
                name: "distances/hours",
                reason: "must not contain duplicates".into(),
            });
        }
        Ok(Self { distances, hours })
    }

    /// Requested distances.
    #[must_use]
    pub fn distances(&self) -> &[u32] {
        &self.distances
    }

    /// Requested hours.
    #[must_use]
    pub fn hours(&self) -> &[u32] {
        &self.hours
    }

    /// The latest requested hour.
    #[must_use]
    pub fn max_hour(&self) -> u32 {
        *self.hours.iter().max().expect("validated nonempty")
    }
}

/// A diffusion predictor before fitting: a factory that learns from an
/// [`Observation`] and returns a ready-to-predict model.
///
/// Object safe: registries and pipelines hold `Box<dyn
/// DiffusionPredictor>` and drive every model through the same calls.
pub trait DiffusionPredictor: fmt::Debug + Send + Sync {
    /// Short stable identifier ("dl", "naive", "si", ...).
    fn name(&self) -> &'static str;

    /// Fits the predictor to the observation.
    ///
    /// # Errors
    ///
    /// Implementations reject observations missing what they need: an
    /// epidemic predictor without a [`GraphContext`], a trend predictor
    /// with a single profile, invalid densities, and so on.
    fn fit(&self, observation: &Observation) -> Result<Box<dyn FittedPredictor>>;
}

/// A fitted model able to fill in prediction requests.
pub trait FittedPredictor: fmt::Debug + Send + Sync {
    /// The identifier of the predictor that produced this fit.
    fn name(&self) -> &'static str;

    /// Predicts densities for every requested `(distance, hour)` pair.
    ///
    /// # Errors
    ///
    /// Implementations reject requests outside their fitted domain.
    fn predict(&self, request: &PredictionRequest) -> Result<Prediction>;

    /// Names of the fitted parameters, parallel to
    /// [`FittedPredictor::params`]. Empty for parameter-free predictors.
    fn param_names(&self) -> Vec<String>;

    /// Fitted parameter values, parallel to
    /// [`FittedPredictor::param_names`].
    fn params(&self) -> Vec<f64>;
}

/// The growth-rate families a [`FitConfig`] can request — serializable
/// names for curves of the Eq.-7 family [`ExpDecayGrowth`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum GrowthFamily {
    /// The paper's Eq. 7: `r(t) = 1.4·e^{−1.5(t−1)} + 0.25`.
    #[default]
    PaperHops,
    /// The paper's shared-interest curve: `r(t) = 1.6·e^{−(t−1)} + 0.1`.
    PaperInterest,
    /// A custom exponential decay `r(t) = a·e^{−b(t−1)} + c`.
    ExpDecay {
        /// Amplitude `a`.
        amplitude: f64,
        /// Decay `b`.
        decay: f64,
        /// Floor `c`.
        floor: f64,
    },
    /// A constant rate (the ablation family).
    Constant {
        /// The rate value.
        rate: f64,
    },
}

impl GrowthFamily {
    /// Instantiates the family as a shareable [`GrowthRate`]: its
    /// [`GrowthFamily::exp_decay`] curve.
    #[must_use]
    pub fn build(&self) -> Arc<dyn GrowthRate + Send + Sync> {
        Arc::new(self.exp_decay())
    }

    /// The family's curve in the exp-decay parameterization
    /// (`Constant { r }` maps to amplitude and decay 0, floor `r`) — the
    /// curve every model runs, a calibration seed and the source of
    /// parameter introspection.
    #[must_use]
    pub fn exp_decay(&self) -> ExpDecayGrowth {
        match *self {
            Self::PaperHops => ExpDecayGrowth::paper_hops(),
            Self::PaperInterest => ExpDecayGrowth::paper_interest(),
            Self::ExpDecay {
                amplitude,
                decay,
                floor,
            } => ExpDecayGrowth::new(amplitude, decay, floor),
            Self::Constant { rate } => ExpDecayGrowth::new(0.0, 0.0, rate),
        }
    }
}

/// The scalar fitting options shared by [`crate::model::DlModelBuilder`]
/// and [`crate::variable::VariableDlModelBuilder`]: solver resolution, φ
/// construction, growth family, the initial observation time, and the
/// multi-start strategy of every calibration path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitConfig {
    /// PDE solver scheme and resolution.
    pub solver: SolverConfig,
    /// φ interpolation scheme.
    pub phi: PhiConstruction,
    /// Growth-rate family `r(t)`.
    pub growth: GrowthFamily,
    /// Time of the first observation (the paper's hour 1).
    pub initial_time: f64,
    /// Multi-start strategy for the calibration paths
    /// ([`crate::calibrate::calibrate_profiles`] behind the `dl-cal`
    /// predictor, and the per-distance growth calibration behind
    /// `variable-dl`). The default is a single start — one local search
    /// from the seed; see `docs/CALIBRATION.md` for the seeding
    /// scheme and determinism contract.
    pub multi_start: MultiStartConfig,
}

impl Default for FitConfig {
    fn default() -> Self {
        Self {
            solver: SolverConfig::default(),
            phi: PhiConstruction::SplineFlat,
            growth: GrowthFamily::PaperHops,
            initial_time: 1.0,
            multi_start: MultiStartConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observation_validates_inputs() {
        assert!(Observation::new(vec![], vec![]).is_err());
        assert!(Observation::new(vec![1], vec![]).is_err());
        assert!(Observation::new(vec![2, 1], vec![vec![1.0], vec![1.0]]).is_err());
        assert!(Observation::new(vec![1, 1], vec![vec![1.0], vec![1.0]]).is_err());
        assert!(Observation::new(vec![1, 2], vec![vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(Observation::new(vec![1], vec![vec![]]).is_err());
        assert!(Observation::new(vec![1], vec![vec![f64::NAN]]).is_err());
        assert!(Observation::new(vec![1], vec![vec![-0.1]]).is_err());
        let obs = Observation::new(vec![1, 3], vec![vec![2.0, 1.0], vec![3.0, 2.0]]).unwrap();
        assert_eq!(obs.initial_hour(), 1);
        assert_eq!(obs.initial_profile(), &[2.0, 1.0]);
        assert_eq!(obs.profile_at(3).unwrap(), &[3.0, 2.0]);
        assert!(obs.profile_at(2).is_none());
        assert_eq!(obs.max_distance(), 2);
        assert!(obs.graph().is_none());
    }

    #[test]
    fn observation_from_matrix_extracts_profiles() {
        let m = dlm_cascade::DensityMatrix::from_counts(&[vec![1, 2, 3], vec![0, 1, 2]], &[10, 10])
            .unwrap();
        let obs = Observation::from_matrix(&m, &[1, 2]).unwrap();
        assert_eq!(obs.hours(), &[1, 2]);
        assert_eq!(obs.initial_profile(), &[10.0, 0.0]);
        assert!(Observation::from_matrix(&m, &[9]).is_err());
    }

    #[test]
    fn request_validates_inputs() {
        assert!(PredictionRequest::new(vec![], vec![2]).is_err());
        assert!(PredictionRequest::new(vec![1], vec![]).is_err());
        assert!(PredictionRequest::new(vec![0], vec![2]).is_err());
        let r = PredictionRequest::new(vec![1, 2], vec![2, 5, 3]).unwrap();
        assert_eq!(r.max_hour(), 5);
    }

    #[test]
    fn growth_family_builds_matching_curves() {
        let hops = GrowthFamily::PaperHops.build();
        assert!((hops.rate(1.0) - 1.65).abs() < 1e-12);
        let c = GrowthFamily::Constant { rate: 0.4 }.build();
        assert_eq!(c.rate(9.0), 0.4);
        // Constant maps into the exp-decay parameterization exactly.
        let ed = GrowthFamily::Constant { rate: 0.4 }.exp_decay();
        assert_eq!(ed.rate(1.0), 0.4);
        assert_eq!(ed.rate(50.0), 0.4);
    }

    #[test]
    fn fit_config_default_matches_paper() {
        let cfg = FitConfig::default();
        assert_eq!(cfg.initial_time, 1.0);
        assert_eq!(cfg.phi, PhiConstruction::SplineFlat);
        assert_eq!(cfg.growth, GrowthFamily::PaperHops);
        // Single-start by default: pre-multi-start behavior unchanged.
        assert_eq!(cfg.multi_start, MultiStartConfig::default());
        assert_eq!(cfg.multi_start.starts, 1);
    }

    #[test]
    fn traits_are_object_safe() {
        fn _take(_p: &dyn DiffusionPredictor, _f: &dyn FittedPredictor) {}
    }

    #[test]
    fn cache_keys_track_observation_content() {
        let a = Observation::new(vec![1, 2], vec![vec![1.0, 2.0], vec![2.0, 3.0]]).unwrap();
        let same = Observation::new(vec![1, 2], vec![vec![1.0, 2.0], vec![2.0, 3.0]]).unwrap();
        assert_eq!(a.cache_key(), same.cache_key());
        // Any content change — hours, densities, or layout — changes the key.
        let hours = Observation::new(vec![1, 3], vec![vec![1.0, 2.0], vec![2.0, 3.0]]).unwrap();
        assert_ne!(a.cache_key(), hours.cache_key());
        let dens = Observation::new(vec![1, 2], vec![vec![1.0, 2.0], vec![2.0, 3.5]]).unwrap();
        assert_ne!(a.cache_key(), dens.cache_key());
        // -0.0 and +0.0 compare equal as floats but are distinct fits
        // nowhere; bit-exact keying keeps them distinct to stay safe.
        let zeros = Observation::new(vec![1], vec![vec![0.0]]).unwrap();
        let neg = Observation::new(vec![1], vec![vec![-0.0]]).unwrap();
        assert_ne!(zeros.cache_key(), neg.cache_key());
        // Attaching a graph context changes the key; the same shared
        // graph with the same seeds keys equal.
        let graph = Arc::new(dlm_graph::GraphBuilder::new(2).build());
        let g1 = Observation::new(vec![1], vec![vec![1.0]])
            .unwrap()
            .with_graph(GraphContext::new(Arc::clone(&graph), 0, vec![0]));
        let g2 = Observation::new(vec![1], vec![vec![1.0]])
            .unwrap()
            .with_graph(GraphContext::new(Arc::clone(&graph), 0, vec![0]));
        let no_graph = Observation::new(vec![1], vec![vec![1.0]]).unwrap();
        assert_eq!(g1.cache_key(), g2.cache_key());
        assert_ne!(g1.cache_key(), no_graph.cache_key());
        let other_seed = Observation::new(vec![1], vec![vec![1.0]])
            .unwrap()
            .with_graph(GraphContext::new(graph, 0, vec![1]));
        assert_ne!(g1.cache_key(), other_seed.cache_key());
    }
}
