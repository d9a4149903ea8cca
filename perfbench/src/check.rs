//! The output check: served forecasts bit-compared against an offline
//! fit + predict on the batch-built observation, and the paper's Eq.-8
//! accuracy of the served `dl-cal` forecasts against the simulated
//! realized density.

use crate::plan::{Expect, Plan, CLOSE_DEPTH, MAX_HOPS, STORY_HOURS};
use dlm_cascade::hops::hop_density_matrix;
use dlm_cascade::DensityMatrix;
use dlm_core::evaluate::Parallelism;
use dlm_core::predict::{FittedPredictor, GraphContext, Observation, PredictionRequest};
use dlm_core::registry::{ModelRegistry, ModelSpec};
use dlm_numerics::pool::parallel_map;
use dlm_numerics::stats::prediction_accuracy;
use dlm_serve::Json;
use std::collections::HashMap;
use std::sync::Arc;

/// The observation a server holds for a replayed story after `through`
/// closed hours, built offline from the batch density matrix.
///
/// # Panics
///
/// If the batch builders reject a story the plan accepted.
#[must_use]
pub fn offline_observation(
    graph: &Arc<dlm_graph::DiGraph>,
    story: &dlm_data::Cascade,
    through: u32,
) -> Observation {
    let matrix = hop_density_matrix(graph, story, MAX_HOPS, CLOSE_DEPTH).expect("batch matrix");
    let hours: Vec<u32> = (1..=through).collect();
    let hour1: Vec<usize> = story.votes_within(1).iter().map(|v| v.voter).collect();
    Observation::from_matrix(&matrix, &hours)
        .expect("batch observation")
        .with_graph(GraphContext::new(
            Arc::clone(graph),
            story.initiator(),
            hour1,
        ))
}

/// Outcome of checking the kept forecasts.
#[derive(Debug, Default)]
pub struct CheckOutcome {
    /// Forecasts bit-compared.
    pub compared: usize,
    /// Forecasts whose served bytes disagree with the offline twin.
    pub mismatched: usize,
    /// Mean Eq.-8 accuracy of the scored `dl-cal` cells with a nonzero
    /// realized density.
    pub eq8_accuracy: Option<f64>,
}

/// Bit-compares the kept forecasts marked `compare` with their offline
/// twins, and scores the `dl-cal` cells of those marked `score` against
/// the realized density.
#[must_use]
pub fn check_forecasts(plan: &Plan, kept: &[(Expect, Vec<u8>)]) -> CheckOutcome {
    let graph = Arc::new(plan.world.graph().clone());
    let registry = ModelRegistry::with_builtins();
    let lineup = ModelSpec::default_lineup();
    let realized: Vec<DensityMatrix> = (0..plan.warm.len())
        .map(|w| {
            hop_density_matrix(&graph, plan.warm_story(w), MAX_HOPS, STORY_HOURS)
                .expect("realized matrix")
        })
        .collect();

    // Offline fits, once per distinct observation, on the pool.
    let mut keys: Vec<(usize, u32)> = kept
        .iter()
        .filter_map(|(expect, _)| match expect {
            Expect::Forecast {
                warm,
                through,
                compare: true,
                ..
            } => Some((*warm, *through)),
            _ => None,
        })
        .collect();
    keys.sort_unstable();
    keys.dedup();
    type Fits = Vec<Result<Box<dyn FittedPredictor>, String>>;
    let fitted: Vec<Fits> = parallel_map(Parallelism::Auto, &keys, |_, &(warm, through)| {
        let observation = offline_observation(&graph, plan.warm_story(warm), through);
        lineup
            .iter()
            .map(|spec| {
                registry
                    .build(spec)
                    .map_err(|e| e.to_string())?
                    .fit(&observation)
                    .map_err(|e| e.to_string())
            })
            .collect()
    });
    let fits: HashMap<(usize, u32), Fits> = keys.into_iter().zip(fitted).collect();

    let mut outcome = CheckOutcome::default();
    let mut accuracies = Vec::new();
    for (expect, response) in kept {
        let Expect::Forecast {
            warm,
            through,
            hours,
            compare,
            score,
        } = expect
        else {
            continue;
        };
        let served = std::str::from_utf8(response)
            .ok()
            .and_then(|text| Json::parse(text).ok());
        let Some(served) = served else {
            outcome.compared += 1;
            outcome.mismatched += 1;
            continue;
        };
        if *compare {
            outcome.compared += 1;
            if let Err(difference) = forecast_matches(
                &served,
                &lineup,
                &fits[&(*warm, *through)],
                hours,
                realized[*warm].max_distance(),
            ) {
                eprintln!("perfbench: forecast mismatch on warm cascade {warm} through hour {through}: {difference}");
                outcome.mismatched += 1;
            }
        }
        if *score {
            accuracies.extend(dl_cal_accuracies(&served, hours, &realized[*warm]));
        }
    }
    if !accuracies.is_empty() {
        outcome.eq8_accuracy = Some(accuracies.iter().sum::<f64>() / accuracies.len() as f64);
    }
    outcome
}

/// Eq.-8 accuracy of every served `dl-cal` cell whose realized density
/// is nonzero.
fn dl_cal_accuracies(served: &Json, hours: &[u32], realized: &DensityMatrix) -> Vec<f64> {
    let dl_cal = ModelSpec::calibrated_dl().to_string();
    let rows = served
        .get("models")
        .and_then(Json::as_array)
        .and_then(|models| {
            models
                .iter()
                .find(|m| m.get("spec").and_then(Json::as_str) == Some(dl_cal.as_str()))
        })
        .and_then(|m| m.get("values"))
        .and_then(Json::as_array)
        .unwrap_or_default();
    let mut out = Vec::new();
    for (row, d) in rows.iter().zip(1u32..) {
        for (cell, &h) in row.as_array().unwrap_or_default().iter().zip(hours) {
            if let (Some(predicted), Ok(actual)) = (cell.as_f64(), realized.at(d, h)) {
                out.extend(prediction_accuracy(predicted, actual));
            }
        }
    }
    out
}

/// Whether a served forecast equals the offline fits bit for bit:
/// spec strings, parameters, and every predicted cell. `Err` names the
/// first difference.
fn forecast_matches(
    served: &Json,
    lineup: &[ModelSpec],
    fitted: &[Result<Box<dyn FittedPredictor>, String>],
    hours: &[u32],
    max_distance: u32,
) -> Result<(), String> {
    let models = served
        .get("models")
        .and_then(Json::as_array)
        .ok_or("no `models` array")?;
    if models.len() != lineup.len() {
        return Err(format!(
            "{} models served, {} in the lineup",
            models.len(),
            lineup.len()
        ));
    }
    let distances: Vec<u32> = (1..=max_distance).collect();
    let request =
        PredictionRequest::new(distances.clone(), hours.to_vec()).map_err(|e| e.to_string())?;
    for ((entry, spec), fit) in models.iter().zip(lineup).zip(fitted) {
        let spec = spec.to_string();
        if entry.get("spec").and_then(Json::as_str) != Some(spec.as_str()) {
            return Err(format!("spec {spec} out of place"));
        }
        let prediction = match fit {
            Ok(fit) => fit.predict(&request).map_err(|e| e.to_string()),
            Err(e) => Err(e.clone()),
        };
        let prediction = match (prediction, entry.get("error")) {
            (Err(offline), Some(error)) if error.as_str() == Some(offline.as_str()) => continue,
            (Ok(prediction), None) => prediction,
            (offline, served) => {
                return Err(format!(
                    "{spec}: served error {served:?}, offline {:?}",
                    offline.err()
                ))
            }
        };
        let fit = fit.as_ref().expect("a prediction implies a fit");
        // JSON has no infinities: a non-finite parameter (a calibration
        // whose objective never became finite) is served as `null`.
        let served_params: Option<Vec<Option<u64>>> = entry
            .get("params")
            .and_then(Json::as_array)
            .map(|ps| ps.iter().map(|p| p.as_f64().map(f64::to_bits)).collect());
        let offline_params: Vec<Option<u64>> = fit
            .params()
            .iter()
            .map(|p| p.is_finite().then(|| p.to_bits()))
            .collect();
        if served_params.as_deref() != Some(offline_params.as_slice()) {
            return Err(format!(
                "{spec}: params {:?} served, {:?} offline",
                entry.get("params"),
                fit.params()
            ));
        }
        let rows = entry
            .get("values")
            .and_then(Json::as_array)
            .ok_or(format!("{spec}: no values"))?;
        if rows.len() != distances.len() {
            return Err(format!(
                "{spec}: {} distance rows, {} expected",
                rows.len(),
                distances.len()
            ));
        }
        for (row, &d) in rows.iter().zip(&distances) {
            let cells = row
                .as_array()
                .ok_or(format!("{spec}: row {d} is not an array"))?;
            if cells.len() != hours.len() {
                return Err(format!("{spec}: row {d} has {} cells", cells.len()));
            }
            for (cell, &h) in cells.iter().zip(hours) {
                let offline = prediction.at(d, h).ok().filter(|v| v.is_finite());
                if cell.as_f64().map(f64::to_bits) != offline.map(f64::to_bits) {
                    return Err(format!(
                        "{spec}: cell (d={d}, h={h}) served {cell:?}, offline {offline:?}"
                    ));
                }
            }
        }
    }
    Ok(())
}
