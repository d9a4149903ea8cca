//! Shared experiment pipelines behind every figure and table.

use dlm_cascade::hops::{hop_density_matrix, hop_fraction_distribution};
use dlm_cascade::interest_groups::{interest_density_matrix, GroupingStrategy};
use dlm_cascade::{DensityMatrix, ObservationSplit, PatternSummary};
use dlm_core::accuracy::AccuracyTable;
use dlm_core::evaluate::{EvaluationCase, EvaluationPipeline, EvaluationReport};
use dlm_core::growth::{ExpDecayGrowth, GrowthRate};
use dlm_core::initial::PhiConstruction;
use dlm_core::model::DlModel;
use dlm_core::params::DlParameters;
use dlm_core::predict::{
    DiffusionPredictor, FitConfig, GraphContext, GrowthFamily, Observation, PredictionRequest,
};
use dlm_core::registry::ModelSpec;
use dlm_core::theory::{verify_properties, PropertyReport};
use dlm_core::zoo::{CalibratedDlPredictor, DlPredictor, VariableDlPredictor};
use dlm_data::simulate::{simulate_representative_stories, Cascade};
use dlm_data::{SimulationConfig, StoryPreset, SyntheticWorld, WorldConfig};
use dlm_graph::DiGraph;
use std::sync::Arc;

/// Boxed error alias used by the harness.
pub type BoxError = Box<dyn std::error::Error + Send + Sync>;
/// Result alias for harness pipelines.
pub type Result<T> = std::result::Result<T, BoxError>;

/// Everything the experiments need, generated once: the synthetic world
/// and the four representative cascades.
#[derive(Debug)]
pub struct ExperimentContext {
    world: SyntheticWorld,
    /// Shared handle to the world's follower graph, so per-case
    /// [`GraphContext`]s are refcount bumps instead of deep copies.
    graph: Arc<DiGraph>,
    presets: Vec<StoryPreset>,
    cascades: Vec<Cascade>,
}

impl ExperimentContext {
    /// Builds the full-scale context (20,000 users, 50 hours, the
    /// default seeds). `scale` shrinks the user population for quick runs
    /// (1.0 = full).
    ///
    /// # Errors
    ///
    /// Propagates world-generation and simulation errors.
    pub fn generate(scale: f64) -> Result<Self> {
        let world = SyntheticWorld::generate(WorldConfig::default().scaled(scale))?;
        let config = SimulationConfig::default();
        let cascades = simulate_representative_stories(&world, config)?;
        let graph = Arc::new(world.graph().clone());
        Ok(Self {
            world,
            graph,
            presets: StoryPreset::all(),
            cascades,
        })
    }

    /// Shared handle to the follower graph (for [`GraphContext`]s).
    #[must_use]
    pub fn graph_arc(&self) -> Arc<DiGraph> {
        Arc::clone(&self.graph)
    }

    /// The synthetic world.
    #[must_use]
    pub fn world(&self) -> &SyntheticWorld {
        &self.world
    }

    /// The story presets, in paper order (s1..s4).
    #[must_use]
    pub fn presets(&self) -> &[StoryPreset] {
        &self.presets
    }

    /// The simulated cascades, parallel to [`ExperimentContext::presets`].
    #[must_use]
    pub fn cascades(&self) -> &[Cascade] {
        &self.cascades
    }

    /// Hop-distance density matrix for story index `idx` (0 = s1).
    ///
    /// # Errors
    ///
    /// Propagates density-computation errors.
    pub fn hop_density(&self, idx: usize, max_hops: u32, hours: u32) -> Result<DensityMatrix> {
        Ok(hop_density_matrix(
            self.world.graph(),
            &self.cascades[idx],
            max_hops,
            hours,
        )?)
    }

    /// Interest-distance density matrix for story index `idx`.
    ///
    /// # Errors
    ///
    /// Propagates density-computation errors.
    pub fn interest_density(&self, idx: usize, groups: u32, hours: u32) -> Result<DensityMatrix> {
        Ok(interest_density_matrix(
            self.world.profile(),
            self.world.user_count(),
            &self.cascades[idx],
            groups,
            hours,
            GroupingStrategy::EqualWidth,
        )?)
    }
}

// ---------------------------------------------------------------------------
// Figure 2 — hop distribution of the initiators' reachable users
// ---------------------------------------------------------------------------

/// One story's Figure-2 series: fraction of reachable users per hop.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Series {
    /// Story label ("s1".."s4").
    pub story: String,
    /// Element `i` = fraction of reachable users at hop `i + 1`.
    pub fractions: Vec<f64>,
}

/// Computes Figure 2: the hop distribution from each story's initiator.
///
/// # Errors
///
/// Propagates BFS/distribution errors.
pub fn figure2(ctx: &ExperimentContext) -> Result<Vec<Fig2Series>> {
    let mut out = Vec::new();
    for (preset, cascade) in ctx.presets().iter().zip(ctx.cascades()) {
        let fractions = hop_fraction_distribution(ctx.world().graph(), cascade.initiator())?;
        out.push(Fig2Series {
            story: preset.name.clone(),
            fractions,
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Figures 3 & 5 — density of influenced users over 50 hours
// ---------------------------------------------------------------------------

/// One story's density-over-time panel (Fig. 3 for hops, Fig. 5 for
/// interest distance).
#[derive(Debug, Clone, PartialEq)]
pub struct DensityPanel {
    /// Story label.
    pub story: String,
    /// The density matrix (distances × hours, percent).
    pub matrix: DensityMatrix,
    /// Pattern summary (saturation hours, monotonicity, peak).
    pub summary: PatternSummary,
}

/// Computes Figure 3: hop-distance density timelines for all four stories.
///
/// # Errors
///
/// Propagates density-computation errors.
pub fn figure3(ctx: &ExperimentContext, hours: u32) -> Result<Vec<DensityPanel>> {
    (0..4)
        .map(|idx| {
            let matrix = ctx.hop_density(idx, 5, hours)?;
            let summary = PatternSummary::from_matrix(&matrix)?;
            Ok(DensityPanel {
                story: ctx.presets()[idx].name.clone(),
                matrix,
                summary,
            })
        })
        .collect()
}

/// Computes Figure 5: interest-distance density timelines for all four
/// stories.
///
/// # Errors
///
/// Propagates density-computation errors.
pub fn figure5(ctx: &ExperimentContext, hours: u32) -> Result<Vec<DensityPanel>> {
    (0..4)
        .map(|idx| {
            let matrix = ctx.interest_density(idx, 5, hours)?;
            let summary = PatternSummary::from_matrix(&matrix)?;
            Ok(DensityPanel {
                story: ctx.presets()[idx].name.clone(),
                matrix,
                summary,
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 4 — s1 density profiles per hour + shrinking increments
// ---------------------------------------------------------------------------

/// Figure 4 data: s1's spatial profile at each hour, plus the mean hourly
/// increments that motivate the decreasing r(t).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Data {
    /// Profile (density per distance) at each hour `1..=hours`.
    pub profiles: Vec<Vec<f64>>,
    /// Mean increment between consecutive hours.
    pub increments: Vec<f64>,
}

/// Computes Figure 4 from s1's hop density matrix.
///
/// # Errors
///
/// Propagates density-computation errors.
pub fn figure4(ctx: &ExperimentContext, hours: u32) -> Result<Fig4Data> {
    let matrix = ctx.hop_density(0, 5, hours)?;
    let profiles = (1..=hours)
        .map(|t| matrix.profile_at(t))
        .collect::<dlm_cascade::Result<Vec<_>>>()?;
    let increments = PatternSummary::mean_hourly_increments(&matrix)?;
    Ok(Fig4Data {
        profiles,
        increments,
    })
}

// ---------------------------------------------------------------------------
// Figure 6 — the growth-rate curve r(t)
// ---------------------------------------------------------------------------

/// Samples the paper's Eq.-7 growth curve on `[1, t_max]`.
#[must_use]
pub fn figure6(t_max: f64, samples: usize) -> Vec<(f64, f64)> {
    let growth = ExpDecayGrowth::paper_hops();
    (0..samples)
        .map(|i| {
            let t = 1.0 + (t_max - 1.0) * i as f64 / (samples - 1).max(1) as f64;
            (t, growth.rate(t))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 7 + Tables I/II — DL prediction vs actual
// ---------------------------------------------------------------------------

/// Which calibration protocol to use for the prediction experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// The paper's published constants (K, d, Eq.-7 r(t)) — tuned by the
    /// authors to the Digg data, so they transfer only roughly to the
    /// synthetic world.
    PaperConstants,
    /// Calibrate (d, growth[, K]) on the full evaluation window 2..=6 —
    /// methodologically equivalent to the paper's hand-tuning, which also
    /// saw the full window.
    CalibratedFull,
    /// Calibrate on hours 2..=3 only and predict 2..=6 — a stricter,
    /// honest-forecasting variant.
    CalibratedEarly,
}

/// The Figure-7 / Table-I/II experiment output for one distance metric.
#[derive(Debug, Clone)]
pub struct PredictionExperiment {
    /// Which metric ("hops" or "interest").
    pub metric: &'static str,
    /// Protocol used.
    pub protocol: Protocol,
    /// Distances evaluated.
    pub distances: Vec<u32>,
    /// Observed profiles per hour 1..=6 (hour 1 = φ's data).
    pub observed: Vec<Vec<f64>>,
    /// Predicted profiles per hour 2..=6.
    pub predicted: Vec<Vec<f64>>,
    /// The Eq.-8 accuracy table.
    pub table: AccuracyTable,
    /// Fitted parameters, from [`dlm_core::predict::FittedPredictor`]
    /// introspection
    /// (`(name, value)` pairs; empty only if a predictor exposes none).
    pub fitted_params: Vec<(String, f64)>,
    /// Whether the protocol calibrated parameters (vs paper constants).
    pub calibrated: bool,
}

fn run_prediction(
    matrix: &DensityMatrix,
    metric: &'static str,
    protocol: Protocol,
    seed_diffusion: f64,
    seed_capacity: f64,
    seed_growth: GrowthFamily,
) -> Result<PredictionExperiment> {
    let split = ObservationSplit::paper_protocol(matrix)?;
    let distances: Vec<u32> = (1..=split.distance_count() as u32).collect();
    let hours: Vec<u32> = split.target_hours().to_vec();

    // Everything below drives the model through the unified
    // DiffusionPredictor interface: build a predictor, fit the observed
    // window, predict the requested grid.
    let config = FitConfig {
        growth: seed_growth,
        ..FitConfig::default()
    };
    let (predictor, observed_hours): (Box<dyn DiffusionPredictor>, Vec<u32>) = match protocol {
        Protocol::PaperConstants => (
            Box::new(DlPredictor::new(seed_diffusion, seed_capacity, config)),
            vec![1],
        ),
        Protocol::CalibratedFull => (
            Box::new(CalibratedDlPredictor::new(
                seed_diffusion,
                seed_capacity,
                true,
                800,
                config,
            )),
            vec![1, 2, 3, 4, 5, 6],
        ),
        Protocol::CalibratedEarly => (
            Box::new(CalibratedDlPredictor::new(
                seed_diffusion,
                seed_capacity,
                true,
                800,
                config,
            )),
            vec![1, 2, 3],
        ),
    };
    let observation = Observation::from_matrix(matrix, &observed_hours)?;
    let fitted = predictor.fit(&observation)?;
    let prediction = fitted.predict(&PredictionRequest::new(distances.clone(), hours.clone())?)?;

    let table = AccuracyTable::score_split(&prediction, &split)?;
    let observed: Vec<Vec<f64>> = std::iter::once(split.initial_profile().to_vec())
        .chain(split.targets().iter().cloned())
        .collect();
    let predicted: Vec<Vec<f64>> = hours
        .iter()
        .map(|&h| prediction.profile_at(h))
        .collect::<dlm_core::Result<_>>()?;
    Ok(PredictionExperiment {
        metric,
        protocol,
        distances,
        observed,
        predicted,
        table,
        fitted_params: fitted
            .param_names()
            .into_iter()
            .zip(fitted.params())
            .collect(),
        calibrated: protocol != Protocol::PaperConstants,
    })
}

/// Figure 7a + Table I: DL prediction for s1 with friendship-hop distance.
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn figure7a_table1(
    ctx: &ExperimentContext,
    protocol: Protocol,
) -> Result<PredictionExperiment> {
    let matrix = ctx.hop_density(0, 6, 6)?;
    // Drop trailing groups with zero density at every hour (no votes ever);
    // Eq.-8 accuracy is undefined there.
    let matrix = trim_dead_groups(&matrix)?;
    run_prediction(
        &matrix,
        "hops",
        protocol,
        0.01,
        25.0,
        GrowthFamily::PaperHops,
    )
}

/// Figure 7b + Table II: DL prediction for s1 with shared-interest
/// distance.
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn figure7b_table2(
    ctx: &ExperimentContext,
    protocol: Protocol,
) -> Result<PredictionExperiment> {
    let matrix = ctx.interest_density(0, 5, 6)?;
    let matrix = trim_dead_groups(&matrix)?;
    run_prediction(
        &matrix,
        "interest",
        protocol,
        0.05,
        60.0,
        GrowthFamily::PaperInterest,
    )
}

fn trim_dead_groups(matrix: &DensityMatrix) -> Result<DensityMatrix> {
    let mut live = matrix.max_distance();
    while live > 2 {
        let series = matrix.series(live)?;
        if series.iter().any(|&v| v > 0.0) {
            break;
        }
        live -= 1;
    }
    Ok(matrix.truncated_distances(live)?)
}

// ---------------------------------------------------------------------------
// Baseline comparison (ablation: DL vs simpler predictors)
// ---------------------------------------------------------------------------

/// Builds the `EvaluationCase` (matrix + graph context) for one story.
///
/// # Errors
///
/// Propagates density-computation errors.
pub fn hop_case(ctx: &ExperimentContext, idx: usize) -> Result<EvaluationCase> {
    let matrix = trim_dead_groups(&ctx.hop_density(idx, 6, 6)?)?;
    let cascade = &ctx.cascades()[idx];
    let hour1: Vec<usize> = cascade.votes_within(1).iter().map(|v| v.voter).collect();
    let graph = GraphContext::new(ctx.graph_arc(), cascade.initiator(), hour1);
    Ok(EvaluationCase::paper_protocol(ctx.presets()[idx].name.clone(), matrix)?.with_graph(graph))
}

/// Builds a forecast-horizon sweep over one story for batch evaluation:
/// every case observes the same window `1..=observe_through` and is
/// scored on horizons stepping from `observe_through + 1` to the full
/// evaluation window.
///
/// All cases share one [`Arc`]'d density matrix (no deep copies) and an
/// identical observation, so [`EvaluationPipeline`]'s fitted-model cache
/// fits each spec once for the whole sweep.
///
/// # Errors
///
/// Propagates density-computation and case-construction errors.
pub fn forecast_window_cases(
    ctx: &ExperimentContext,
    idx: usize,
    observe_through: u32,
) -> Result<Vec<EvaluationCase>> {
    let matrix = Arc::new(trim_dead_groups(&ctx.hop_density(idx, 6, 6)?)?);
    if observe_through >= matrix.max_hour() {
        return Err(format!(
            "observe_through ({observe_through}) leaves no forecast horizon: the matrix spans \
             only {} hours",
            matrix.max_hour()
        )
        .into());
    }
    let cascade = &ctx.cascades()[idx];
    let hour1: Vec<usize> = cascade.votes_within(1).iter().map(|v| v.voter).collect();
    let name = &ctx.presets()[idx].name;
    (observe_through + 1..=matrix.max_hour())
        .map(|last| {
            let graph = GraphContext::new(ctx.graph_arc(), cascade.initiator(), hour1.clone());
            Ok(EvaluationCase::forecast(
                format!("{name}-h{last}"),
                Arc::clone(&matrix),
                1,
                observe_through,
                last,
            )?
            .with_graph(graph))
        })
        .collect()
}

/// Compares the full model zoo on s1's hop densities through one
/// [`EvaluationPipeline::run`] call: calibrated DL, paper-constants DL,
/// the logistic-only ablation sharing the calibrated growth/capacity,
/// naive, linear trend, and SI epidemics over a small β grid.
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn compare_baselines(ctx: &ExperimentContext) -> Result<EvaluationReport> {
    let case = hop_case(ctx, 0)?;

    // First calibrate the DL model so the logistic-only ablation can
    // share its fitted growth and capacity — then the only difference
    // between the two rows is the diffusion term. (The pipeline's own
    // dl-cal row re-fits through the spec path by design: every row in
    // the report must be reproducible from its spec string alone.)
    let (_, capacity, shared_growth) =
        calibrated_scalars_seeded(case.matrix(), 0.01, 25.0, GrowthFamily::PaperHops)?;

    Ok(EvaluationPipeline::new()
        .model(ModelSpec::calibrated_dl())
        .model(ModelSpec::paper_hops_dl())
        .model(ModelSpec::LogisticOnly {
            capacity,
            growth: shared_growth,
        })
        .model(ModelSpec::Naive)
        .model(ModelSpec::LinearTrend)
        .models([0.005, 0.01, 0.02].into_iter().map(|beta| ModelSpec::Si {
            beta,
            runs: 10,
            seed: 17,
        }))
        .run(std::slice::from_ref(&case))?)
}

// ---------------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------------

/// Accuracy of the DL model under different φ constructions.
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn ablation_phi(ctx: &ExperimentContext) -> Result<Vec<(&'static str, Option<f64>)>> {
    let matrix = trim_dead_groups(&ctx.hop_density(0, 6, 6)?)?;
    let split = ObservationSplit::paper_protocol(&matrix)?;
    let request = PredictionRequest::new(
        (1..=split.distance_count() as u32).collect(),
        split.target_hours().to_vec(),
    )?;
    // Shared calibrated parameters so only φ varies.
    let (diffusion, capacity, growth) =
        calibrated_scalars_seeded(&matrix, 0.01, 25.0, GrowthFamily::PaperHops)?;
    let observation = Observation::from_profile(1, split.initial_profile())?;
    let mut rows = Vec::new();
    for (name, construction) in [
        ("spline, flat ends (paper)", PhiConstruction::SplineFlat),
        ("monotone PCHIP", PhiConstruction::Pchip),
        ("piecewise linear", PhiConstruction::Linear),
    ] {
        let config = FitConfig {
            phi: construction,
            growth,
            ..FitConfig::default()
        };
        let fitted = DlPredictor::new(diffusion, capacity, config).fit(&observation)?;
        let pred = fitted.predict(&request)?;
        rows.push((
            name,
            AccuracyTable::score_split(&pred, &split)?.overall_average(),
        ));
    }
    Ok(rows)
}

/// Calibrates the classic DL scalars on the full window and returns
/// `(d, K, growth family)` for experiments that reuse a shared fit.
fn calibrated_scalars_seeded(
    matrix: &DensityMatrix,
    seed_diffusion: f64,
    seed_capacity: f64,
    seed_growth: GrowthFamily,
) -> Result<(f64, f64, GrowthFamily)> {
    let observation = Observation::from_matrix(matrix, &[1, 2, 3, 4, 5, 6])?;
    let predictor = CalibratedDlPredictor::new(
        seed_diffusion,
        seed_capacity,
        true,
        800,
        FitConfig {
            growth: seed_growth,
            ..FitConfig::default()
        },
    );
    let fitted = predictor.fit(&observation)?;
    let params: std::collections::HashMap<String, f64> = fitted
        .param_names()
        .into_iter()
        .zip(fitted.params())
        .collect();
    Ok((
        params["d"],
        params["K"],
        GrowthFamily::ExpDecay {
            amplitude: params["r.amplitude"],
            decay: params["r.decay"],
            floor: params["r.floor"],
        },
    ))
}

/// Accuracy of the DL model with decaying vs constant growth rate.
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn ablation_growth(ctx: &ExperimentContext) -> Result<Vec<(String, Option<f64>)>> {
    let matrix = trim_dead_groups(&ctx.hop_density(0, 6, 6)?)?;
    let split = ObservationSplit::paper_protocol(&matrix)?;
    let request = PredictionRequest::new(
        (1..=split.distance_count() as u32).collect(),
        split.target_hours().to_vec(),
    )?;
    let (diffusion, capacity, growth) =
        calibrated_scalars_seeded(&matrix, 0.01, 25.0, GrowthFamily::PaperHops)?;
    let observation = Observation::from_profile(1, split.initial_profile())?;
    let score = |growth: GrowthFamily| -> Result<Option<f64>> {
        let config = FitConfig {
            growth,
            ..FitConfig::default()
        };
        let fitted = DlPredictor::new(diffusion, capacity, config).fit(&observation)?;
        let pred = fitted.predict(&request)?;
        Ok(AccuracyTable::score_split(&pred, &split)?.overall_average())
    };
    let mut rows: Vec<(String, Option<f64>)> = Vec::new();

    let decaying = growth.exp_decay();
    rows.push((format!("decaying {}", decaying.describe()), score(growth)?));

    // Best constant rate over a grid, on the same objective.
    let mut best: Option<(f64, Option<f64>)> = None;
    for i in 0..=20 {
        let r = 0.05 + 1.95 * f64::from(i) / 20.0;
        let acc = score(GrowthFamily::Constant { rate: r })?;
        if best.as_ref().is_none_or(|(_, b)| acc > *b) {
            best = Some((r, acc));
        }
    }
    let (r, acc) = best.expect("nonempty grid");
    rows.push((format!("best constant r = {r:.2}"), acc));
    Ok(rows)
}

/// The paper's §V future-work refinement evaluated head-to-head: global
/// r(t) vs per-distance r(x, t) on the *interest* metric, where the paper
/// itself observed the failure (Table II's distance-5 collapse under a
/// global growth rate).
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn ablation_spatial_growth(
    ctx: &ExperimentContext,
) -> Result<Vec<(&'static str, Option<f64>)>> {
    let matrix = trim_dead_groups(&ctx.interest_density(0, 5, 6)?)?;
    let split = ObservationSplit::paper_protocol(&matrix)?;
    let request = PredictionRequest::new(
        (1..=split.distance_count() as u32).collect(),
        split.target_hours().to_vec(),
    )?;

    // Shared diffusion/capacity from the classic calibration (seeded
    // with the paper's interest-metric constants); both variants run
    // through the generalized solver behind the trait (same machinery,
    // fair fight).
    let (diffusion, capacity, growth) =
        calibrated_scalars_seeded(&matrix, 0.05, 60.0, GrowthFamily::PaperInterest)?;
    let observation = Observation::from_matrix(&matrix, &[1, 2, 3, 4, 5, 6])?;
    let mut rows = Vec::new();
    for (name, per_distance) in [
        ("global r(t) (classic DL)", false),
        ("per-distance r(x,t) (future work)", true),
    ] {
        let config = FitConfig {
            growth,
            ..FitConfig::default()
        };
        let fitted = VariableDlPredictor::new(diffusion, capacity, per_distance, config)
            .fit(&observation)?;
        let pred = fitted.predict(&request)?;
        rows.push((
            name,
            AccuracyTable::score_split(&pred, &split)?.overall_average(),
        ));
    }
    Ok(rows)
}

/// Fisher-wave validation: measured vs theoretical front speed
/// `c* = 2sqrt(r d)` for a fast front (solver check) and the paper's own
/// parameter regime (interpretation check).
///
/// # Errors
///
/// Propagates solver errors.
pub fn wave_analysis() -> Result<Vec<(String, dlm_core::fisher::WaveSpeedMeasurement)>> {
    use dlm_core::fisher::measure_wave_speed;
    Ok(vec![
        (
            "r=1, d=1 (solver check)".to_string(),
            measure_wave_speed(1.0, 1.0, 1.0, 60.0)?,
        ),
        (
            "r=0.25, d=0.01 (paper regime)".to_string(),
            measure_wave_speed(0.25, 0.01, 25.0, 12.0)?,
        ),
    ])
}

/// Parameter sensitivities of the DL prediction around the paper's
/// friendship-hop setting on s1's observed hour-1 profile.
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn sensitivity_analysis(
    ctx: &ExperimentContext,
) -> Result<dlm_core::sensitivity::SensitivityReport> {
    let matrix = trim_dead_groups(&ctx.hop_density(0, 6, 6)?)?;
    let split = ObservationSplit::paper_protocol(&matrix)?;
    let distances: Vec<u32> = (1..=split.distance_count() as u32).collect();
    let report = dlm_core::sensitivity::sensitivity_report(
        DlParameters::paper_hops(matrix.max_distance())?,
        ExpDecayGrowth::paper_hops(),
        split.initial_profile(),
        &distances,
        &[2, 3, 4, 5, 6],
        0.02,
    )?;
    Ok(report)
}

/// Grid-convergence study of the Crank-Nicolson solver on the paper's
/// setting: the probe value I(3, 6) at three resolutions.
///
/// # Errors
///
/// Propagates solver errors; fails if the sequence is not contracting.
pub fn convergence_analysis() -> Result<dlm_numerics::convergence::ConvergenceStudy> {
    use dlm_core::initial::{InitialDensity, PhiConstruction};
    use dlm_core::pde::{solve, SolverConfig};
    let params = DlParameters::paper_hops(6)?;
    let phi = InitialDensity::from_observations(
        &params,
        &[2.1, 0.7, 0.9, 0.5, 0.3, 0.2],
        PhiConstruction::SplineFlat,
    )?;
    let growth = ExpDecayGrowth::paper_hops();
    let probe = |intervals: usize, dt: f64| -> Result<f64> {
        let config = SolverConfig {
            space_intervals: intervals,
            dt,
            ..SolverConfig::default()
        };
        let sol = solve(&params, &growth, &phi, 1.0, 6.0, &config)?;
        Ok(sol.value_at(3.0, 6.0)?)
    };
    let coarse = probe(25, 0.08)?;
    let medium = probe(50, 0.04)?;
    let fine = probe(100, 0.02)?;
    Ok(dlm_numerics::convergence::convergence_study(
        coarse, medium, fine, 2.0,
    )?)
}

// ---------------------------------------------------------------------------
// Theory verification (the §II.C properties on real pipeline data)
// ---------------------------------------------------------------------------

/// Verifies the Unique and Strictly-Increasing properties on s1's fitted
/// model.
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn verify_theory(ctx: &ExperimentContext) -> Result<PropertyReport> {
    let matrix = trim_dead_groups(&ctx.hop_density(0, 6, 6)?)?;
    let split = ObservationSplit::paper_protocol(&matrix)?;
    let model = DlModel::paper_hops(split.initial_profile())?;
    Ok(verify_properties(&model, 50.0, 1e-8)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> ExperimentContext {
        ExperimentContext::generate(0.15).unwrap()
    }

    #[test]
    fn figure2_series_sum_to_one() {
        let series = figure2(&ctx()).unwrap();
        assert_eq!(series.len(), 4);
        for s in &series {
            let sum: f64 = s.fractions.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{}: {sum}", s.story);
        }
    }

    #[test]
    fn figure3_panels_have_expected_orderings() {
        let panels = figure3(&ctx(), 50).unwrap();
        assert_eq!(panels.len(), 4);
        // s1 spreads wider than s4 (peak density ordering).
        assert!(panels[0].summary.peak_density > panels[3].summary.peak_density);
    }

    #[test]
    fn figure4_increments_eventually_shrink() {
        let data = figure4(&ctx(), 50).unwrap();
        assert_eq!(data.profiles.len(), 50);
        let early: f64 = data.increments[..5].iter().sum();
        let late: f64 = data.increments[44..].iter().sum();
        assert!(late < early, "increments did not shrink: {early} vs {late}");
    }

    #[test]
    fn figure6_matches_eq7() {
        let pts = figure6(5.0, 9);
        assert_eq!(pts.len(), 9);
        assert!((pts[0].1 - 1.65).abs() < 1e-12);
        assert!(pts.windows(2).all(|w| w[1].1 <= w[0].1));
    }

    #[test]
    fn table1_pipeline_produces_defined_accuracy() {
        let exp = figure7a_table1(&ctx(), Protocol::CalibratedFull).unwrap();
        let overall = exp.table.overall_average().unwrap();
        assert!(
            overall > 0.5,
            "calibrated DL accuracy suspiciously low: {overall}"
        );
        assert_eq!(exp.observed.len(), 6); // hours 1..=6
        assert_eq!(exp.predicted.len(), 5); // hours 2..=6
        assert!(exp.calibrated);
        // Introspection surfaces the fitted parameter vector.
        assert!(exp.fitted_params.iter().any(|(name, _)| name == "d"));
        assert!(exp.fitted_params.iter().any(|(name, _)| name == "K"));
    }

    #[test]
    fn table2_pipeline_produces_defined_accuracy() {
        let exp = figure7b_table2(&ctx(), Protocol::CalibratedFull).unwrap();
        assert!(exp.table.overall_average().unwrap() > 0.5);
        assert_eq!(exp.metric, "interest");
    }

    #[test]
    fn comparison_ranks_dl_above_naive() {
        let report = compare_baselines(&ctx()).unwrap();
        let get = |prefix: &str| {
            report
                .specs()
                .iter()
                .position(|s| s.starts_with(prefix))
                .and_then(|i| report.mean_overall(i))
                .unwrap_or_else(|| panic!("no accuracy for `{prefix}*` in\n{report}"))
        };
        assert!(get("dl-cal") > get("naive"), "{report}");
        // Every epidemic row ran (the case carries graph context).
        for outcome in report.outcomes() {
            assert!(
                outcome.error.is_none(),
                "{} failed on {}: {:?}",
                outcome.spec,
                outcome.case,
                outcome.error
            );
        }
    }

    #[test]
    fn spatial_growth_refinement_does_not_regress() {
        let rows = ablation_spatial_growth(&ctx()).unwrap();
        assert_eq!(rows.len(), 2);
        let global = rows[0].1.unwrap();
        let spatial = rows[1].1.unwrap();
        // The refinement must at least roughly match the global fit
        // (it strictly generalizes it; small optimizer noise allowed).
        assert!(
            spatial > global - 0.05,
            "spatial {spatial} vs global {global}"
        );
    }

    #[test]
    fn theory_verified_on_pipeline_data() {
        let report = verify_theory(&ctx()).unwrap();
        assert!(report.bounds_hold);
        assert!(report.increasing_holds);
    }
}
