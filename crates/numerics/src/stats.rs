//! Descriptive statistics and error metrics.
//!
//! The workspace's callers use two of these kernels: the paper's Eq.-8
//! prediction accuracy (scored by `dlm_core::accuracy` and perfbench's bit
//! checks) and the least-squares line behind the vote timeline's die-off
//! fit in `dlm_cascade`. The rest (moments, percentiles, MAE/RMSE/MAPE,
//! Pearson) are general-purpose helpers covered by their own tests.

use crate::error::{NumericsError, Result};

/// Arithmetic mean. Returns `None` for empty input.
#[must_use]
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// Unbiased sample variance (n − 1 denominator). `None` if fewer than 2
/// samples.
#[must_use]
pub fn variance(xs: &[f64]) -> Option<f64> {
    if xs.len() < 2 {
        return None;
    }
    let m = mean(xs)?;
    Some(xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64)
}

/// Sample standard deviation. `None` if fewer than 2 samples.
#[must_use]
pub fn std_dev(xs: &[f64]) -> Option<f64> {
    variance(xs).map(f64::sqrt)
}

/// Linear-interpolated percentile (`q` in `[0, 100]`). `None` for empty
/// input or out-of-range `q`.
///
/// Values are ordered by [`f64::total_cmp`], so a NaN sorts above +∞ (a
/// sign-bit NaN below −∞) instead of making the order inconsistent.
#[must_use]
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() || !(0.0..=100.0).contains(&q) {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        return Some(sorted[lo]);
    }
    let w = rank - lo as f64;
    Some(sorted[lo] * (1.0 - w) + sorted[hi] * w)
}

/// Median (50th percentile). `None` for empty input.
#[must_use]
pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(xs, 50.0)
}

fn check_pair(pred: &[f64], actual: &[f64]) -> Result<()> {
    if pred.len() != actual.len() {
        return Err(NumericsError::DimensionMismatch {
            expected: format!("actual length {}", pred.len()),
            actual: actual.len(),
        });
    }
    if pred.is_empty() {
        return Err(NumericsError::DimensionMismatch {
            expected: "nonempty series".into(),
            actual: 0,
        });
    }
    Ok(())
}

/// Mean absolute error between predictions and observations.
///
/// # Errors
///
/// [`NumericsError::DimensionMismatch`] on empty or mismatched inputs.
pub fn mae(pred: &[f64], actual: &[f64]) -> Result<f64> {
    check_pair(pred, actual)?;
    Ok(pred
        .iter()
        .zip(actual)
        .map(|(p, a)| (p - a).abs())
        .sum::<f64>()
        / pred.len() as f64)
}

/// Root-mean-square error between predictions and observations.
///
/// # Errors
///
/// [`NumericsError::DimensionMismatch`] on empty or mismatched inputs.
pub fn rmse(pred: &[f64], actual: &[f64]) -> Result<f64> {
    check_pair(pred, actual)?;
    let ms = pred
        .iter()
        .zip(actual)
        .map(|(p, a)| (p - a) * (p - a))
        .sum::<f64>()
        / pred.len() as f64;
    Ok(ms.sqrt())
}

/// Mean absolute percentage error, skipping observations that are exactly
/// zero (where relative error is undefined).
///
/// # Errors
///
/// * [`NumericsError::DimensionMismatch`] — empty or mismatched inputs.
/// * [`NumericsError::InvalidParameter`] — every observation was zero.
pub fn mape(pred: &[f64], actual: &[f64]) -> Result<f64> {
    check_pair(pred, actual)?;
    let mut acc = 0.0;
    let mut count = 0usize;
    for (p, a) in pred.iter().zip(actual) {
        if *a != 0.0 {
            acc += ((p - a) / a).abs();
            count += 1;
        }
    }
    if count == 0 {
        return Err(NumericsError::InvalidParameter {
            name: "actual",
            reason: "all observations are zero; MAPE undefined".into(),
        });
    }
    Ok(acc / count as f64 * 100.0)
}

/// The paper's Eq.-8 prediction accuracy for a single point, as a fraction
/// in `[0, 1]`: `1 − |pred − actual| / actual`, floored at 0.
///
/// The paper prints Eq. 8 as the relative error but reports values like
/// "98.27%" that are clearly `1 − relative error`; we implement the intended
/// metric. Returns `None` when `actual == 0`.
#[must_use]
pub fn prediction_accuracy(pred: f64, actual: f64) -> Option<f64> {
    if actual == 0.0 {
        return None;
    }
    Some((1.0 - ((pred - actual) / actual).abs()).max(0.0))
}

/// Mean Eq.-8 accuracy across a series, skipping zero observations.
/// `None` if every observation is zero.
#[must_use]
pub fn mean_prediction_accuracy(pred: &[f64], actual: &[f64]) -> Option<f64> {
    let accs: Vec<f64> = pred
        .iter()
        .zip(actual)
        .filter_map(|(p, a)| prediction_accuracy(*p, *a))
        .collect();
    mean(&accs)
}

/// Pearson correlation coefficient. `None` when either series is constant
/// or lengths differ / are < 2.
#[must_use]
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let mx = mean(xs)?;
    let my = mean(ys)?;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

/// Simple linear regression `y ≈ slope·x + intercept` by ordinary least
/// squares. `None` when lengths differ, are < 2, or `x` is constant.
#[must_use]
pub fn linear_regression(xs: &[f64], ys: &[f64]) -> Option<(f64, f64)> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let mx = mean(xs)?;
    let my = mean(ys)?;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
    }
    if sxx == 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    Some((slope, my - slope * mx))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), Some(2.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn variance_and_std_dev() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((variance(&xs).unwrap() - 32.0 / 7.0).abs() < 1e-12);
        assert!((std_dev(&xs).unwrap() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(variance(&[1.0]), None);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 100.0), Some(4.0));
        assert_eq!(percentile(&xs, 50.0), Some(2.5));
        assert_eq!(median(&xs), Some(2.5));
        assert_eq!(percentile(&xs, -1.0), None);
    }

    #[test]
    fn percentile_unsorted_input_ok() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), Some(2.5));
    }

    #[test]
    fn percentile_sorts_nan_above_every_number() {
        // A comparator that calls NaN equal to everything is not a total
        // order, and the std sort panics on this input when given one.
        let xs: Vec<f64> = (0..21)
            .map(|i| {
                if i % 3 == 0 {
                    f64::NAN
                } else {
                    (21 - i) as f64
                }
            })
            .collect();
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(median(&xs), Some(16.0));
        assert!(percentile(&xs, 100.0).is_some_and(f64::is_nan));
    }

    #[test]
    fn mae_rmse_basic() {
        let pred = [1.0, 2.0, 3.0];
        let actual = [1.0, 1.0, 5.0];
        assert!((mae(&pred, &actual).unwrap() - 1.0).abs() < 1e-12);
        assert!((rmse(&pred, &actual).unwrap() - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn error_metrics_reject_mismatch() {
        assert!(mae(&[1.0], &[1.0, 2.0]).is_err());
        assert!(rmse(&[], &[]).is_err());
    }

    #[test]
    fn mape_skips_zero_actuals() {
        let pred = [2.0, 1.0];
        let actual = [0.0, 2.0];
        assert!((mape(&pred, &actual).unwrap() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn mape_all_zero_actuals_is_error() {
        assert!(mape(&[1.0], &[0.0]).is_err());
    }

    #[test]
    fn prediction_accuracy_matches_paper_semantics() {
        // Perfect prediction → 100%.
        assert_eq!(prediction_accuracy(10.0, 10.0), Some(1.0));
        // 10% relative error → 90%.
        assert!((prediction_accuracy(9.0, 10.0).unwrap() - 0.9).abs() < 1e-12);
        // Error above 100% floors at zero rather than going negative.
        assert_eq!(prediction_accuracy(25.0, 10.0), Some(0.0));
        // Undefined at zero actual.
        assert_eq!(prediction_accuracy(1.0, 0.0), None);
    }

    #[test]
    fn mean_prediction_accuracy_mixes_points() {
        let acc = mean_prediction_accuracy(&[9.0, 11.0], &[10.0, 10.0]).unwrap();
        assert!((acc - 0.9).abs() < 1e-12);
        assert_eq!(mean_prediction_accuracy(&[1.0], &[0.0]), None);
    }

    #[test]
    fn pearson_perfect_correlation() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        let ys_neg = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&xs, &ys_neg).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_constant_series_is_none() {
        assert_eq!(pearson(&[1.0, 1.0], &[1.0, 2.0]), None);
    }

    #[test]
    fn linear_regression_recovers_line() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys: Vec<f64> = xs.iter().map(|x| -1.5 * x + 4.0).collect();
        let (slope, intercept) = linear_regression(&xs, &ys).unwrap();
        assert!((slope + 1.5).abs() < 1e-12);
        assert!((intercept - 4.0).abs() < 1e-12);
    }
}
