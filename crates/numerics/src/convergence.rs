//! Grid-convergence diagnostics: observed order of accuracy and the
//! Richardson-extrapolated limit.
//!
//! The PDE solver's correctness argument leans on *self-convergence*
//! (halving dx/dt changes the answer by the expected factor). This module
//! turns that from an ad-hoc test into a reusable tool: feed it the same
//! quantity computed at three grid resolutions and it reports the observed
//! convergence order and the Richardson-extrapolated limit.

use crate::error::{NumericsError, Result};

/// Result of a three-level convergence study with refinement ratio `ratio`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceStudy {
    /// Observed order of accuracy `p = log(|e_c/e_f|) / log(ratio)`.
    pub observed_order: f64,
    /// Richardson-extrapolated limit from the two finest levels.
    pub extrapolated: f64,
    /// Error estimate for the finest level (distance to the extrapolant).
    pub fine_error_estimate: f64,
}

/// Analyzes values of one scalar quantity computed at three uniformly
/// refined resolutions: `coarse`, `medium`, `fine`, where each level is
/// `ratio`× finer than the previous (classic choice: 2).
///
/// # Errors
///
/// * [`NumericsError::InvalidParameter`] — `ratio <= 1`, non-finite
///   values, or a non-contracting sequence (medium/fine difference not
///   smaller than coarse/medium: the quantity is not converging, so no
///   order can be assigned).
pub fn convergence_study(
    coarse: f64,
    medium: f64,
    fine: f64,
    ratio: f64,
) -> Result<ConvergenceStudy> {
    if !(ratio > 1.0) || !ratio.is_finite() {
        return Err(NumericsError::InvalidParameter {
            name: "ratio",
            reason: format!("refinement ratio must exceed 1, got {ratio}"),
        });
    }
    for (name, v) in [("coarse", coarse), ("medium", medium), ("fine", fine)] {
        if !v.is_finite() {
            return Err(NumericsError::NonFiniteValue {
                context: format!("convergence {name}"),
            });
        }
    }
    let d_cm = medium - coarse;
    let d_mf = fine - medium;
    if d_mf == 0.0 && d_cm == 0.0 {
        // Already converged to machine precision at every level.
        return Ok(ConvergenceStudy {
            observed_order: f64::INFINITY,
            extrapolated: fine,
            fine_error_estimate: 0.0,
        });
    }
    if d_mf.abs() >= d_cm.abs() || d_mf == 0.0 || d_cm == 0.0 {
        return Err(NumericsError::InvalidParameter {
            name: "values",
            reason: format!(
                "sequence is not contracting (|Δcm| = {:.3e}, |Δmf| = {:.3e})",
                d_cm.abs(),
                d_mf.abs()
            ),
        });
    }
    let observed_order = (d_cm / d_mf).abs().ln() / ratio.ln();
    // Richardson: limit ≈ fine + Δmf / (ratio^p − 1).
    let factor = ratio.powf(observed_order) - 1.0;
    let extrapolated = fine + d_mf / factor;
    Ok(ConvergenceStudy {
        observed_order,
        extrapolated,
        fine_error_estimate: (extrapolated - fine).abs(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthesizes values with a known error model `v(h) = L + C·h^p`.
    fn series(limit: f64, c: f64, p: f64, h: f64, ratio: f64) -> (f64, f64, f64) {
        (
            limit + c * h.powf(p),
            limit + c * (h / ratio).powf(p),
            limit + c * (h / (ratio * ratio)).powf(p),
        )
    }

    #[test]
    fn recovers_second_order() {
        let (c, m, f) = series(3.0, 0.5, 2.0, 0.1, 2.0);
        let s = convergence_study(c, m, f, 2.0).unwrap();
        assert!((s.observed_order - 2.0).abs() < 1e-9);
        assert!((s.extrapolated - 3.0).abs() < 1e-12);
    }

    #[test]
    fn recovers_first_order() {
        let (c, m, f) = series(-1.5, 2.0, 1.0, 0.2, 2.0);
        let s = convergence_study(c, m, f, 2.0).unwrap();
        assert!((s.observed_order - 1.0).abs() < 1e-9);
        assert!((s.extrapolated + 1.5).abs() < 1e-12);
    }

    #[test]
    fn handles_non_doubling_ratio() {
        let (c, m, f) = series(7.0, 1.0, 2.0, 0.3, 3.0);
        let s = convergence_study(c, m, f, 3.0).unwrap();
        assert!((s.observed_order - 2.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_non_contracting_sequence() {
        let err = convergence_study(1.0, 1.1, 1.3, 2.0).unwrap_err();
        assert!(matches!(err, NumericsError::InvalidParameter { .. }));
    }

    #[test]
    fn converged_sequence_reports_infinite_order() {
        let s = convergence_study(2.0, 2.0, 2.0, 2.0).unwrap();
        assert!(s.observed_order.is_infinite());
        assert_eq!(s.extrapolated, 2.0);
        assert_eq!(s.fine_error_estimate, 0.0);
    }

    #[test]
    fn rejects_bad_ratio_and_nan() {
        assert!(convergence_study(1.0, 2.0, 2.5, 1.0).is_err());
        assert!(convergence_study(f64::NAN, 2.0, 2.5, 2.0).is_err());
    }

    #[test]
    fn crank_nicolson_is_second_order_in_practice() {
        // End-to-end: solve the logistic ODE (the d = 0 DL equation) with
        // three time steps using the trapezoidal rule (CN's ODE analogue)
        // and confirm observed order ≈ 2 via this module.
        let f = |y: f64| 0.8 * y * (1.0 - y / 25.0);
        let solve = |steps: usize| -> f64 {
            let h = 5.0 / steps as f64;
            let mut y = 2.0f64;
            for _ in 0..steps {
                // One Newton-solved trapezoidal step.
                let mut v = y;
                for _ in 0..30 {
                    let g = v - y - 0.5 * h * (f(y) + f(v));
                    let dg = 1.0 - 0.5 * h * 0.8 * (1.0 - 2.0 * v / 25.0);
                    v -= g / dg;
                }
                y = v;
            }
            y
        };
        let s = convergence_study(solve(20), solve(40), solve(80), 2.0).unwrap();
        assert!(
            (s.observed_order - 2.0).abs() < 0.1,
            "order {}",
            s.observed_order
        );
    }
}
