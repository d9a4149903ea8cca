//! # dlm-core
//!
//! The paper's primary contribution: the **Diffusive Logistic (DL) model**
//! for spatio-temporal information diffusion in online social networks
//! (Wang, Wang & Xu, ICDCS 2012 / arXiv:1108.0442).
//!
//! The model describes the density `I(x, t)` of influenced users at social
//! distance `x` from an information source at time `t` with a
//! reaction–diffusion PDE:
//!
//! ```text
//! ∂I/∂t = d ∂²I/∂x² + r(t)·I·(1 − I/K)
//! I(x, 1) = φ(x),  ∂I/∂x(l, t) = ∂I/∂x(L, t) = 0
//! ```
//!
//! combining logistic **growth** (influence among users at the same
//! distance — social triangles) with Fickian **diffusion** (random
//! cross-distance spreading, e.g. Digg's front page).
//!
//! ## The unified prediction interface
//!
//! Every predictor — the DL PDE, its variable-coefficient refinement, the
//! ablations, and the network-epidemic baselines — implements one trait
//! pair: [`predict::DiffusionPredictor`] (`fit` an
//! [`predict::Observation`]) and [`predict::FittedPredictor`] (`predict` a
//! [`predict::PredictionRequest`], introspect `param_names()`/`params()`).
//! Predictors are constructible from serializable
//! [`registry::ModelSpec`]s through the [`registry::ModelRegistry`], and
//! [`evaluate::EvaluationPipeline`] runs any set of registered models
//! over any set of cascades, emitting per-model Eq.-8 accuracy tables in
//! one call — work-stealing parallel across the grid (the
//! [`evaluate::Parallelism`] knob; every setting is byte-identical) with
//! a persistent fitted-model cache deduplicating repeated
//! (spec, observation) fits.
//!
//! ## Module map
//!
//! * [`predict`] — the `DiffusionPredictor` trait, observations,
//!   requests, and the shared [`predict::FitConfig`];
//! * [`zoo`] — all seven predictors implemented behind the trait;
//! * [`registry`] — serializable `ModelSpec`s + the `ModelRegistry`;
//! * [`evaluate`] — batch model × cascade evaluation pipeline
//!   (parallel, cached via the bounded
//!   [`evaluate::FittedModelCache`]);
//! * [`cache`] — the capacity-bounded LRU cache underneath it;
//! * [`params`] — `d`, `K`, domain `[l, L]` (+ the paper's presets);
//! * [`growth`] — `r(t)` families, incl. Eq. 7 / Figure 6;
//! * [`initial`] — φ construction per §II.D (flat-ended cubic spline);
//! * [`pde`] — Eq. 4 solvers: one θ-stepper (Crank–Nicolson / backward
//!   Euler, also behind [`variable`]) with optional forward
//!   sensitivities, and method-of-lines cross-checks;
//! * [`model`] — the [`model::DlModel`] facade: observe → solve → predict,
//!   with a readout table that resumes the solve instead of repeating it;
//! * [`accuracy`] — Eq.-8 accuracy tables (Tables I and II);
//! * [`calibrate`] — automated parameter fitting (the paper's future
//!   work) by Levenberg–Marquardt on the θ-stepper's sensitivities;
//! * [`baselines`] — logistic-only (d = 0), naive, linear-trend, SI/SIS;
//! * [`theory`] — numerical verification of the §II.C properties;
//! * [`variable`] — the paper's §V future work: d, r, K as functions of
//!   time and distance;
//! * [`fisher`] — traveling-wave (Fisher–KPP) validation of the solver;
//! * [`sensitivity`] — one-at-a-time parameter elasticities.
//!
//! ## Quickstart
//!
//! ```
//! use dlm_core::model::DlModel;
//!
//! # fn main() -> Result<(), dlm_core::DlError> {
//! // Hour-1 densities (percent) at friendship hops 1..=6.
//! let hour1 = [2.1, 0.7, 0.9, 0.5, 0.3, 0.2];
//! let model = DlModel::paper_hops(&hour1)?;
//! let pred = model.predict(&[1, 2, 3, 4, 5, 6], &[2, 3, 4, 5, 6])?;
//! println!("I(3, 6) = {:.2}%", pred.at(3, 6)?);
//! # Ok(())
//! # }
//! ```
//!
//! The same model through the unified interface, comparable with any
//! other registered predictor:
//!
//! ```
//! use dlm_core::predict::{Observation, PredictionRequest};
//! use dlm_core::registry::ModelRegistry;
//!
//! # fn main() -> Result<(), dlm_core::DlError> {
//! let hour1 = [2.1, 0.7, 0.9, 0.5, 0.3, 0.2];
//! let registry = ModelRegistry::with_builtins();
//! let predictor = registry.build_from_str("dl(d=0.01,K=25,r=hops)")?;
//! let fitted = predictor.fit(&Observation::from_profile(1, &hour1)?)?;
//! let pred = fitted.predict(&PredictionRequest::new(vec![3], vec![6])?)?;
//! println!("I(3, 6) = {:.2}% with {:?}", pred.at(3, 6)?, fitted.param_names());
//! # Ok(())
//! # }
//! ```

// `!(x > 0.0)` is used deliberately throughout: unlike `x <= 0.0` it
// also rejects NaN, which is exactly what the validators need.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod accuracy;
pub mod baselines;
pub mod cache;
pub mod calibrate;
pub mod error;
pub mod evaluate;
pub mod fisher;
#[doc(hidden)]
pub mod fixtures;
pub mod growth;
pub mod initial;
pub mod model;
pub mod params;
pub mod pde;
pub mod predict;
pub mod registry;
pub mod sensitivity;
pub mod theory;
pub mod variable;
pub mod zoo;

pub use accuracy::AccuracyTable;
pub use cache::LruCache;
pub use error::{DlError, Result};
pub use evaluate::{
    CacheStats, EvaluationCase, EvaluationPipeline, EvaluationReport, FitOutcome, FittedModelCache,
    Parallelism,
};
pub use model::{DlModel, DlModelBuilder, Prediction};
pub use params::DlParameters;
pub use predict::{
    DiffusionPredictor, FitConfig, FittedPredictor, GraphContext, GrowthFamily, Observation,
    PredictionRequest,
};
pub use registry::{ModelRegistry, ModelSpec};
