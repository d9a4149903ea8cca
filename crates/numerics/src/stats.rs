//! The statistics the workspace scores and fits with: the mean, the
//! paper's Eq.-8 prediction accuracy (scored by `dlm_core::accuracy` and
//! perfbench's checks), and the least-squares line behind the vote
//! timeline's die-off fit in `dlm_cascade`.

/// Arithmetic mean. Returns `None` for empty input.
#[must_use]
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
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
    fn linear_regression_recovers_line() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys: Vec<f64> = xs.iter().map(|x| -1.5 * x + 4.0).collect();
        let (slope, intercept) = linear_regression(&xs, &ys).unwrap();
        assert!((slope + 1.5).abs() < 1e-12);
        assert!((intercept - 4.0).abs() < 1e-12);
    }
}
