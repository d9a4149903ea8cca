//! Serializable model specifications and the registry that turns them
//! into live predictors.
//!
//! A [`ModelSpec`] is a plain-data description of one predictor in the
//! zoo — safe to store in experiment configs, print in reports, and round
//! trip through text (`Display` / `FromStr` use a compact
//! `kind(key=value,…)` syntax). The [`ModelRegistry`] maps spec kinds to
//! constructors; [`ModelRegistry::with_builtins`] knows every predictor in
//! [`crate::zoo`], and downstream code can [`ModelRegistry::register`]
//! additional kinds without touching this crate.
//!
//! ```
//! use dlm_core::registry::{ModelRegistry, ModelSpec};
//!
//! # fn main() -> dlm_core::Result<()> {
//! let registry = ModelRegistry::with_builtins();
//! let spec: ModelSpec = "dl(d=0.01,K=25,r=hops)".parse()?;
//! let predictor = registry.build(&spec)?;
//! assert_eq!(predictor.name(), "dl");
//! # Ok(())
//! # }
//! ```

use crate::baselines::EpidemicConfig;
use crate::error::{DlError, Result};
use crate::predict::{DiffusionPredictor, FitConfig, GrowthFamily, MultiStartConfig};
use crate::zoo::{
    CalibratedDlPredictor, DlPredictor, LinearTrendPredictor, LogisticOnlyPredictor,
    NaivePredictor, SiPredictor, SisPredictor, VariableDlPredictor,
};
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

/// A serializable description of one predictor in the model zoo.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelSpec {
    /// The DL model with fixed parameters.
    Dl {
        /// Diffusion rate `d`.
        diffusion: f64,
        /// Carrying capacity `K`.
        capacity: f64,
        /// Growth family `r(t)`.
        growth: GrowthFamily,
    },
    /// The DL model with Levenberg–Marquardt calibration on the observed
    /// window.
    DlCalibrated {
        /// Seed diffusion rate for the search.
        seed_diffusion: f64,
        /// Seed capacity for the search.
        seed_capacity: f64,
        /// Seed growth family for the search.
        seed_growth: GrowthFamily,
        /// Whether `K` is free during the search.
        fit_capacity: bool,
        /// Budget of PDE solves per start.
        max_evals: usize,
        /// Calibration starts (`1` = classic single-start; more starts
        /// add deterministic stratified restarts, see
        /// `docs/CALIBRATION.md`).
        starts: usize,
        /// Seed of the stratified start grid.
        multi_start_seed: u64,
    },
    /// The variable-coefficient DL model (§V future work).
    VariableDl {
        /// Diffusion rate `d` (constant in space).
        diffusion: f64,
        /// Carrying capacity `K` (constant in space).
        capacity: f64,
        /// Time-only growth family (ignored when `per_distance_growth`).
        growth: GrowthFamily,
        /// Calibrate an independent growth curve per distance.
        per_distance_growth: bool,
        /// Levenberg–Marquardt starts per per-distance growth fit.
        starts: usize,
        /// Seed of the stratified start grid.
        multi_start_seed: u64,
    },
    /// The `d = 0` logistic-only ablation.
    LogisticOnly {
        /// Carrying capacity `K`.
        capacity: f64,
        /// Growth family `r(t)`.
        growth: GrowthFamily,
    },
    /// The no-change forecaster.
    Naive,
    /// Per-distance linear extrapolation of the first two profiles.
    LinearTrend,
    /// SI epidemic Monte Carlo on the follower graph.
    Si {
        /// Per-hour edge infection probability.
        beta: f64,
        /// Monte-Carlo runs to average.
        runs: usize,
        /// RNG seed.
        seed: u64,
    },
    /// SIS epidemic Monte Carlo on the follower graph.
    Sis {
        /// Per-hour edge infection probability.
        beta: f64,
        /// Per-hour recovery probability.
        gamma: f64,
        /// Monte-Carlo runs to average.
        runs: usize,
        /// RNG seed.
        seed: u64,
    },
}

impl ModelSpec {
    /// The spec's kind string — the key predictor constructors are
    /// registered under ("dl", "dl-cal", "variable-dl", "logistic",
    /// "naive", "linear-trend", "si", "sis").
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Dl { .. } => "dl",
            Self::DlCalibrated { .. } => "dl-cal",
            Self::VariableDl { .. } => "variable-dl",
            Self::LogisticOnly { .. } => "logistic",
            Self::Naive => "naive",
            Self::LinearTrend => "linear-trend",
            Self::Si { .. } => "si",
            Self::Sis { .. } => "sis",
        }
    }

    /// The paper's friendship-hop DL setting.
    #[must_use]
    pub fn paper_hops_dl() -> Self {
        Self::Dl {
            diffusion: 0.01,
            capacity: 25.0,
            growth: GrowthFamily::PaperHops,
        }
    }

    /// The paper's shared-interest DL setting.
    #[must_use]
    pub fn paper_interest_dl() -> Self {
        Self::Dl {
            diffusion: 0.05,
            capacity: 60.0,
            growth: GrowthFamily::PaperInterest,
        }
    }

    /// The default calibrated-DL setting used across the evaluation.
    #[must_use]
    pub fn calibrated_dl() -> Self {
        Self::DlCalibrated {
            seed_diffusion: 0.01,
            seed_capacity: 25.0,
            seed_growth: GrowthFamily::PaperHops,
            fit_capacity: true,
            max_evals: 800,
            starts: 1,
            multi_start_seed: 0,
        }
    }

    /// [`ModelSpec::calibrated_dl`] with `starts` multi-start restarts —
    /// the global-search variant of `dl-cal`.
    #[must_use]
    pub fn calibrated_dl_multi(starts: usize) -> Self {
        Self::calibrated_dl().with_multi_start(starts, 0)
    }

    /// Rewrites the multi-start strategy of a calibrating spec
    /// (`dl-cal`, `variable-dl`); every other kind passes through
    /// unchanged. The one place the "same spec, different start count"
    /// rewrite lives — the `dlm-serve --starts` lineup upgrade and the
    /// determinism gates all go through here.
    #[must_use]
    pub fn with_multi_start(self, starts: usize, multi_start_seed: u64) -> Self {
        match self {
            Self::DlCalibrated {
                seed_diffusion,
                seed_capacity,
                seed_growth,
                fit_capacity,
                max_evals,
                ..
            } => Self::DlCalibrated {
                seed_diffusion,
                seed_capacity,
                seed_growth,
                fit_capacity,
                max_evals,
                starts,
                multi_start_seed,
            },
            Self::VariableDl {
                diffusion,
                capacity,
                growth,
                per_distance_growth,
                ..
            } => Self::VariableDl {
                diffusion,
                capacity,
                growth,
                per_distance_growth,
                starts,
                multi_start_seed,
            },
            other => other,
        }
    }

    /// The full default line-up: every predictor kind with the paper's
    /// hop-metric constants — the model zoo an evaluation compares.
    #[must_use]
    pub fn default_lineup() -> Vec<Self> {
        vec![
            Self::calibrated_dl(),
            Self::paper_hops_dl(),
            Self::VariableDl {
                diffusion: 0.01,
                capacity: 25.0,
                growth: GrowthFamily::PaperHops,
                per_distance_growth: true,
                starts: 1,
                multi_start_seed: 0,
            },
            Self::LogisticOnly {
                capacity: 25.0,
                growth: GrowthFamily::PaperHops,
            },
            Self::Naive,
            Self::LinearTrend,
            Self::Si {
                beta: 0.01,
                runs: 10,
                seed: 17,
            },
            Self::Sis {
                beta: 0.01,
                gamma: 0.5,
                runs: 10,
                seed: 17,
            },
        ]
    }
}

/// Writes the `,starts=…,mseed=…` suffix of a calibrating spec, keeping
/// the defaults (`starts=1`, `mseed=0`) implicit so pre-multi-start spec
/// strings — and the cache keys derived from them — are unchanged.
fn fmt_multi_start(f: &mut fmt::Formatter<'_>, starts: usize, seed: u64) -> fmt::Result {
    if starts != 1 {
        write!(f, ",starts={starts}")?;
    }
    if seed != 0 {
        write!(f, ",mseed={seed}")?;
    }
    Ok(())
}

fn fmt_growth(g: &GrowthFamily) -> String {
    match g {
        GrowthFamily::PaperHops => "hops".into(),
        GrowthFamily::PaperInterest => "interest".into(),
        GrowthFamily::ExpDecay {
            amplitude,
            decay,
            floor,
        } => {
            format!("exp({amplitude},{decay},{floor})")
        }
        GrowthFamily::Constant { rate } => format!("const({rate})"),
    }
}

fn parse_growth(s: &str) -> Result<GrowthFamily> {
    let invalid = |reason: String| DlError::InvalidParameter {
        name: "spec",
        reason,
    };
    match s {
        "hops" => Ok(GrowthFamily::PaperHops),
        "interest" => Ok(GrowthFamily::PaperInterest),
        _ => {
            let (fun, args) =
                split_call(s).ok_or_else(|| invalid(format!("unknown growth family `{s}`")))?;
            let nums: Vec<f64> = args
                .split(',')
                .map(|a| a.trim().parse::<f64>())
                .collect::<std::result::Result<_, _>>()
                .map_err(|e| invalid(format!("bad growth number in `{s}`: {e}")))?;
            match (fun, nums.as_slice()) {
                ("exp", [a, b, c]) => Ok(GrowthFamily::ExpDecay {
                    amplitude: *a,
                    decay: *b,
                    floor: *c,
                }),
                ("const", [r]) => Ok(GrowthFamily::Constant { rate: *r }),
                _ => Err(invalid(format!("unknown growth family `{s}`"))),
            }
        }
    }
}

/// Splits `name(args)` into `(name, args)`.
fn split_call(s: &str) -> Option<(&str, &str)> {
    let open = s.find('(')?;
    let close = s.rfind(')')?;
    if close + 1 != s.len() || close < open {
        return None;
    }
    Some((&s[..open], &s[open + 1..close]))
}

/// Splits a `key=value,key=value` argument list at top-level commas
/// (commas inside nested parentheses stay with their value).
fn split_args(args: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, ch) in args.char_indices() {
        match ch {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                out.push(&args[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < args.len() {
        out.push(&args[start..]);
    }
    out
}

impl fmt::Display for ModelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Dl {
                diffusion,
                capacity,
                growth,
            } => {
                write!(f, "dl(d={diffusion},K={capacity},r={})", fmt_growth(growth))
            }
            Self::DlCalibrated {
                seed_diffusion,
                seed_capacity,
                seed_growth,
                fit_capacity,
                max_evals,
                starts,
                multi_start_seed,
            } => {
                write!(
                    f,
                    "dl-cal(d0={seed_diffusion},K0={seed_capacity},r0={},fitK={fit_capacity},evals={max_evals}",
                    fmt_growth(seed_growth)
                )?;
                fmt_multi_start(f, *starts, *multi_start_seed)?;
                write!(f, ")")
            }
            Self::VariableDl {
                diffusion,
                capacity,
                growth,
                per_distance_growth,
                starts,
                multi_start_seed,
            } => {
                write!(
                    f,
                    "variable-dl(d={diffusion},K={capacity},r={},perdist={per_distance_growth}",
                    fmt_growth(growth)
                )?;
                fmt_multi_start(f, *starts, *multi_start_seed)?;
                write!(f, ")")
            }
            Self::LogisticOnly { capacity, growth } => {
                write!(f, "logistic(K={capacity},r={})", fmt_growth(growth))
            }
            Self::Naive => write!(f, "naive"),
            Self::LinearTrend => write!(f, "linear-trend"),
            Self::Si { beta, runs, seed } => {
                write!(f, "si(beta={beta},runs={runs},seed={seed})")
            }
            Self::Sis {
                beta,
                gamma,
                runs,
                seed,
            } => {
                write!(f, "sis(beta={beta},gamma={gamma},runs={runs},seed={seed})")
            }
        }
    }
}

impl FromStr for ModelSpec {
    type Err = DlError;

    fn from_str(s: &str) -> Result<Self> {
        let s = s.trim();
        let invalid = |reason: String| DlError::InvalidParameter {
            name: "spec",
            reason,
        };
        let (kind, args) = match split_call(s) {
            Some((kind, args)) => (kind, args),
            None => (s, ""),
        };
        let mut kv = BTreeMap::new();
        for part in split_args(args) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (k, v) = part
                .split_once('=')
                .ok_or_else(|| invalid(format!("expected key=value, got `{part}`")))?;
            kv.insert(k.trim(), v.trim());
        }
        let f64_of = |kv: &BTreeMap<&str, &str>, key: &str, default: f64| -> Result<f64> {
            kv.get(key).map_or(Ok(default), |v| {
                v.parse::<f64>()
                    .map_err(|e| invalid(format!("bad `{key}`: {e}")))
            })
        };
        let usize_of = |kv: &BTreeMap<&str, &str>, key: &str, default: usize| -> Result<usize> {
            kv.get(key).map_or(Ok(default), |v| {
                v.parse::<usize>()
                    .map_err(|e| invalid(format!("bad `{key}`: {e}")))
            })
        };
        let u64_of = |kv: &BTreeMap<&str, &str>, key: &str, default: u64| -> Result<u64> {
            kv.get(key).map_or(Ok(default), |v| {
                v.parse::<u64>()
                    .map_err(|e| invalid(format!("bad `{key}`: {e}")))
            })
        };
        let bool_of = |kv: &BTreeMap<&str, &str>, key: &str, default: bool| -> Result<bool> {
            kv.get(key).map_or(Ok(default), |v| {
                v.parse::<bool>()
                    .map_err(|e| invalid(format!("bad `{key}`: {e}")))
            })
        };
        let growth_of = |kv: &BTreeMap<&str, &str>, key: &str| -> Result<GrowthFamily> {
            kv.get(key)
                .map_or(Ok(GrowthFamily::PaperHops), |v| parse_growth(v))
        };
        // Misspelled keys must error, not silently fall back to defaults.
        let known_keys: &[&str] = match kind {
            "dl" => &["d", "K", "r"],
            "logistic" => &["K", "r"],
            "dl-cal" => &["d0", "K0", "r0", "fitK", "evals", "starts", "mseed"],
            "variable-dl" => &["d", "K", "r", "perdist", "starts", "mseed"],
            "naive" | "linear-trend" => &[],
            "si" => &["beta", "runs", "seed"],
            "sis" => &["beta", "gamma", "runs", "seed"],
            other => return Err(invalid(format!("unknown model kind `{other}`"))),
        };
        if let Some(unknown) = kv.keys().find(|k| !known_keys.contains(*k)) {
            return Err(invalid(format!(
                "unknown key `{unknown}` for `{kind}` (allowed: {})",
                if known_keys.is_empty() {
                    "none".to_string()
                } else {
                    known_keys.join(", ")
                }
            )));
        }
        match kind {
            "dl" => Ok(Self::Dl {
                diffusion: f64_of(&kv, "d", 0.01)?,
                capacity: f64_of(&kv, "K", 25.0)?,
                growth: growth_of(&kv, "r")?,
            }),
            "dl-cal" => Ok(Self::DlCalibrated {
                seed_diffusion: f64_of(&kv, "d0", 0.01)?,
                seed_capacity: f64_of(&kv, "K0", 25.0)?,
                seed_growth: growth_of(&kv, "r0")?,
                fit_capacity: bool_of(&kv, "fitK", true)?,
                max_evals: usize_of(&kv, "evals", 800)?,
                starts: usize_of(&kv, "starts", 1)?,
                multi_start_seed: u64_of(&kv, "mseed", 0)?,
            }),
            "variable-dl" => Ok(Self::VariableDl {
                diffusion: f64_of(&kv, "d", 0.01)?,
                capacity: f64_of(&kv, "K", 25.0)?,
                growth: growth_of(&kv, "r")?,
                per_distance_growth: bool_of(&kv, "perdist", false)?,
                starts: usize_of(&kv, "starts", 1)?,
                multi_start_seed: u64_of(&kv, "mseed", 0)?,
            }),
            "logistic" => Ok(Self::LogisticOnly {
                capacity: f64_of(&kv, "K", 25.0)?,
                growth: growth_of(&kv, "r")?,
            }),
            "naive" => Ok(Self::Naive),
            "linear-trend" => Ok(Self::LinearTrend),
            "si" => Ok(Self::Si {
                beta: f64_of(&kv, "beta", 0.01)?,
                runs: usize_of(&kv, "runs", 20)?,
                seed: u64_of(&kv, "seed", 42)?,
            }),
            "sis" => Ok(Self::Sis {
                beta: f64_of(&kv, "beta", 0.01)?,
                gamma: f64_of(&kv, "gamma", 0.5)?,
                runs: usize_of(&kv, "runs", 20)?,
                seed: u64_of(&kv, "seed", 42)?,
            }),
            _ => unreachable!("kind validated above"),
        }
    }
}

/// Constructor signature stored in the registry.
pub type PredictorFactory =
    Box<dyn Fn(&ModelSpec) -> Result<Box<dyn DiffusionPredictor>> + Send + Sync>;

/// Maps [`ModelSpec`] kinds to predictor constructors.
///
/// The registry makes the model zoo open: built-in kinds cover the seven
/// predictors of the paper's evaluation, and callers can register new
/// kinds (custom spec interpretation included) without modifying
/// `dlm-core`.
pub struct ModelRegistry {
    factories: BTreeMap<String, PredictorFactory>,
}

impl fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModelRegistry")
            .field("kinds", &self.kinds())
            .finish()
    }
}

impl Default for ModelRegistry {
    fn default() -> Self {
        Self::with_builtins()
    }
}

impl ModelRegistry {
    /// An empty registry (no kinds known).
    #[must_use]
    pub fn empty() -> Self {
        Self {
            factories: BTreeMap::new(),
        }
    }

    /// A registry knowing every built-in predictor kind.
    #[must_use]
    pub fn with_builtins() -> Self {
        let mut registry = Self::empty();
        registry.register("dl", |spec| match spec {
            ModelSpec::Dl {
                diffusion,
                capacity,
                growth,
            } => Ok(Box::new(DlPredictor::new(
                *diffusion,
                *capacity,
                FitConfig {
                    growth: *growth,
                    ..FitConfig::default()
                },
            )) as Box<dyn DiffusionPredictor>),
            other => Err(spec_mismatch("dl", other)),
        });
        registry.register("dl-cal", |spec| match spec {
            ModelSpec::DlCalibrated {
                seed_diffusion,
                seed_capacity,
                seed_growth,
                fit_capacity,
                max_evals,
                starts,
                multi_start_seed,
            } => Ok(Box::new(CalibratedDlPredictor::new(
                *seed_diffusion,
                *seed_capacity,
                *fit_capacity,
                *max_evals,
                FitConfig {
                    growth: *seed_growth,
                    multi_start: nested_multi_start(*starts, *multi_start_seed),
                    ..FitConfig::default()
                },
            )) as Box<dyn DiffusionPredictor>),
            other => Err(spec_mismatch("dl-cal", other)),
        });
        registry.register("variable-dl", |spec| match spec {
            ModelSpec::VariableDl {
                diffusion,
                capacity,
                growth,
                per_distance_growth,
                starts,
                multi_start_seed,
            } => Ok(Box::new(VariableDlPredictor::new(
                *diffusion,
                *capacity,
                *per_distance_growth,
                FitConfig {
                    growth: *growth,
                    multi_start: nested_multi_start(*starts, *multi_start_seed),
                    ..FitConfig::default()
                },
            )) as Box<dyn DiffusionPredictor>),
            other => Err(spec_mismatch("variable-dl", other)),
        });
        registry.register("logistic", |spec| match spec {
            ModelSpec::LogisticOnly { capacity, growth } => {
                Ok(Box::new(LogisticOnlyPredictor::new(*capacity, *growth))
                    as Box<dyn DiffusionPredictor>)
            }
            other => Err(spec_mismatch("logistic", other)),
        });
        registry.register("naive", |spec| match spec {
            ModelSpec::Naive => Ok(Box::new(NaivePredictor) as Box<dyn DiffusionPredictor>),
            other => Err(spec_mismatch("naive", other)),
        });
        registry.register("linear-trend", |spec| match spec {
            ModelSpec::LinearTrend => {
                Ok(Box::new(LinearTrendPredictor) as Box<dyn DiffusionPredictor>)
            }
            other => Err(spec_mismatch("linear-trend", other)),
        });
        registry.register("si", |spec| match spec {
            ModelSpec::Si { beta, runs, seed } => Ok(Box::new(SiPredictor::new(EpidemicConfig {
                beta: *beta,
                gamma: 0.0,
                runs: *runs,
                seed: *seed,
            }))
                as Box<dyn DiffusionPredictor>),
            other => Err(spec_mismatch("si", other)),
        });
        registry.register("sis", |spec| match spec {
            ModelSpec::Sis {
                beta,
                gamma,
                runs,
                seed,
            } => Ok(Box::new(SisPredictor::new(EpidemicConfig {
                beta: *beta,
                gamma: *gamma,
                runs: *runs,
                seed: *seed,
            })) as Box<dyn DiffusionPredictor>),
            other => Err(spec_mismatch("sis", other)),
        });
        registry
    }

    /// Registers (or replaces) the constructor for a spec kind.
    pub fn register<F>(&mut self, kind: impl Into<String>, factory: F)
    where
        F: Fn(&ModelSpec) -> Result<Box<dyn DiffusionPredictor>> + Send + Sync + 'static,
    {
        self.factories.insert(kind.into(), Box::new(factory));
    }

    /// The registered kinds, sorted.
    #[must_use]
    pub fn kinds(&self) -> Vec<&str> {
        self.factories.keys().map(String::as_str).collect()
    }

    /// Constructs the predictor a spec describes.
    ///
    /// # Errors
    ///
    /// Returns [`DlError::InvalidParameter`] for an unregistered kind;
    /// propagates constructor errors.
    pub fn build(&self, spec: &ModelSpec) -> Result<Box<dyn DiffusionPredictor>> {
        let factory = self
            .factories
            .get(spec.kind())
            .ok_or(DlError::InvalidParameter {
                name: "spec",
                reason: format!("no predictor registered for kind `{}`", spec.kind()),
            })?;
        factory(spec)
    }

    /// Parses a spec string and constructs its predictor in one step.
    ///
    /// # Errors
    ///
    /// Propagates parse and construction errors.
    pub fn build_from_str(&self, spec: &str) -> Result<Box<dyn DiffusionPredictor>> {
        self.build(&spec.parse()?)
    }
}

/// Multi-start strategy for registry-built predictors: the spec's
/// starts and grid seed, with the start fan-out scheduled **serially**.
/// Registry-built fits run inside contexts that are already parallel —
/// the evaluation grid, the serve refit fan-out — where a nested
/// full-width `Parallelism::Auto` would oversubscribe the machine and
/// silently bypass the operator's worker cap. Scheduling never changes
/// results (see `docs/CALIBRATION.md`); callers who want the starts
/// themselves pool-parallel drive `CalibrationOptions::multi_start`
/// directly.
fn nested_multi_start(starts: usize, seed: u64) -> MultiStartConfig {
    MultiStartConfig {
        starts,
        seed,
        parallelism: dlm_numerics::pool::Parallelism::Serial,
    }
}

fn spec_mismatch(kind: &'static str, got: &ModelSpec) -> DlError {
    DlError::InvalidParameter {
        name: "spec",
        reason: format!("factory `{kind}` cannot build a `{}` spec", got.kind()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_builtin_spec_round_trips_through_text() {
        for spec in ModelSpec::default_lineup() {
            let text = spec.to_string();
            let parsed: ModelSpec = text.parse().unwrap_or_else(|e| {
                panic!("`{text}` failed to parse: {e}");
            });
            assert_eq!(parsed, spec, "round trip changed `{text}`");
        }
        // Growth families round trip inside specs too.
        for growth in [
            GrowthFamily::PaperHops,
            GrowthFamily::PaperInterest,
            GrowthFamily::ExpDecay {
                amplitude: 1.5,
                decay: 0.75,
                floor: 0.125,
            },
            GrowthFamily::Constant { rate: 0.5 },
        ] {
            let spec = ModelSpec::Dl {
                diffusion: 0.02,
                capacity: 30.0,
                growth,
            };
            let parsed: ModelSpec = spec.to_string().parse().unwrap();
            assert_eq!(parsed, spec);
        }
    }

    #[test]
    fn every_builtin_spec_constructs_its_predictor() {
        let registry = ModelRegistry::with_builtins();
        for spec in ModelSpec::default_lineup() {
            let predictor = registry.build(&spec).unwrap();
            assert_eq!(predictor.name(), spec.kind());
        }
        assert_eq!(registry.kinds().len(), 8);
    }

    #[test]
    fn parsing_accepts_defaults_and_rejects_garbage() {
        assert_eq!("naive".parse::<ModelSpec>().unwrap(), ModelSpec::Naive);
        // Missing keys take documented defaults.
        let spec: ModelSpec = "si".parse().unwrap();
        assert_eq!(
            spec,
            ModelSpec::Si {
                beta: 0.01,
                runs: 20,
                seed: 42
            }
        );
        assert!("frobnicate".parse::<ModelSpec>().is_err());
        assert!("dl(d=abc)".parse::<ModelSpec>().is_err());
        assert!("dl(d)".parse::<ModelSpec>().is_err());
        assert!("dl(r=warp(1))".parse::<ModelSpec>().is_err());
    }

    #[test]
    fn multi_start_keys_round_trip_and_default_invisibly() {
        // Default (single-start) specs print without the multi-start
        // keys, so pre-existing spec strings and cache keys are stable.
        assert_eq!(
            ModelSpec::calibrated_dl().to_string(),
            "dl-cal(d0=0.01,K0=25,r0=hops,fitK=true,evals=800)"
        );
        // Non-default starts/seed round trip through text.
        let multi = ModelSpec::calibrated_dl_multi(8);
        assert_eq!(
            multi.to_string(),
            "dl-cal(d0=0.01,K0=25,r0=hops,fitK=true,evals=800,starts=8)"
        );
        assert_eq!(multi.to_string().parse::<ModelSpec>().unwrap(), multi);
        let seeded: ModelSpec = "dl-cal(starts=4,mseed=9)".parse().unwrap();
        assert_eq!(
            seeded,
            ModelSpec::DlCalibrated {
                seed_diffusion: 0.01,
                seed_capacity: 25.0,
                seed_growth: GrowthFamily::PaperHops,
                fit_capacity: true,
                max_evals: 800,
                starts: 4,
                multi_start_seed: 9,
            }
        );
        assert_eq!(seeded.to_string().parse::<ModelSpec>().unwrap(), seeded);
        let vdl: ModelSpec = "variable-dl(perdist=true,starts=3,mseed=5)"
            .parse()
            .unwrap();
        assert_eq!(vdl.to_string().parse::<ModelSpec>().unwrap(), vdl);
        // Both kinds still construct through the registry.
        let registry = ModelRegistry::with_builtins();
        assert_eq!(registry.build(&seeded).unwrap().name(), "dl-cal");
        assert_eq!(registry.build(&vdl).unwrap().name(), "variable-dl");
    }

    #[test]
    fn parsing_rejects_unknown_keys() {
        // A misspelled key must error, not silently fall back to the
        // default value for the key the caller meant.
        for bad in [
            "dl(k=30)",
            "dl(diffusion=0.5)",
            "logistic(d=0.1)",
            "dl-cal(fitk=true)",
            "si(gamma=0.5)",
            "naive(x=1)",
            "linear-trend(step=2)",
        ] {
            let err = bad.parse::<ModelSpec>().unwrap_err().to_string();
            assert!(err.contains("unknown key"), "`{bad}`: {err}");
        }
        // The correctly-spelled keys still parse.
        assert!("dl(K=30)".parse::<ModelSpec>().is_ok());
        assert!("sis(gamma=0.5)".parse::<ModelSpec>().is_ok());
    }

    #[test]
    fn registry_is_extensible() {
        let mut registry = ModelRegistry::empty();
        assert!(registry.build(&ModelSpec::Naive).is_err());
        registry.register("naive", |_| {
            Ok(Box::new(crate::zoo::NaivePredictor) as Box<dyn DiffusionPredictor>)
        });
        assert!(registry.build(&ModelSpec::Naive).is_ok());
        assert_eq!(registry.kinds(), vec!["naive"]);
    }

    #[test]
    fn build_from_str_goes_end_to_end() {
        let registry = ModelRegistry::with_builtins();
        let p = registry
            .build_from_str("logistic(K=30,r=const(0.4))")
            .unwrap();
        assert_eq!(p.name(), "logistic");
        assert!(registry.build_from_str("nope").is_err());
    }
}
