//! Piecewise-linear interpolation.
//!
//! The φ-construction ablation compares the paper's cubic spline against a
//! plain linear interpolant, and `dlm-core::variable` blends per-distance
//! coefficient knots with it.

use crate::error::{NumericsError, Result};

/// A piecewise-linear interpolant through strictly increasing knots.
///
/// # Examples
///
/// ```
/// use dlm_numerics::interp::LinearInterp;
///
/// # fn main() -> Result<(), dlm_numerics::NumericsError> {
/// let f = LinearInterp::new(&[0.0, 1.0, 2.0], &[0.0, 10.0, 0.0])?;
/// assert!((f.value(0.5) - 5.0).abs() < 1e-12);
/// assert!((f.value(1.5) - 5.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinearInterp {
    x: Vec<f64>,
    y: Vec<f64>,
}

impl LinearInterp {
    /// Builds the interpolant.
    ///
    /// # Errors
    ///
    /// * [`NumericsError::DimensionMismatch`] — fewer than 2 knots or
    ///   mismatched lengths.
    /// * [`NumericsError::UnsortedKnots`] — `x` not strictly increasing.
    /// * [`NumericsError::NonFiniteValue`] — NaN/∞ input.
    pub fn new(x: &[f64], y: &[f64]) -> Result<Self> {
        if x.len() < 2 {
            return Err(NumericsError::DimensionMismatch {
                expected: "at least 2 knots".into(),
                actual: x.len(),
            });
        }
        if x.len() != y.len() {
            return Err(NumericsError::DimensionMismatch {
                expected: format!("y length {}", x.len()),
                actual: y.len(),
            });
        }
        if x.iter().chain(y.iter()).any(|v| !v.is_finite()) {
            return Err(NumericsError::NonFiniteValue {
                context: "interp knots".into(),
            });
        }
        for i in 0..x.len() - 1 {
            if x[i] >= x[i + 1] {
                return Err(NumericsError::UnsortedKnots { index: i });
            }
        }
        Ok(Self {
            x: x.to_vec(),
            y: y.to_vec(),
        })
    }

    /// Domain `[x₀, x_{n−1}]`.
    #[must_use]
    pub fn domain(&self) -> (f64, f64) {
        (self.x[0], self.x[self.x.len() - 1])
    }

    /// Evaluates at `t`; out-of-domain queries clamp to the boundary values
    /// (constant extrapolation).
    #[must_use]
    pub fn value(&self, t: f64) -> f64 {
        let n = self.x.len();
        if t <= self.x[0] {
            return self.y[0];
        }
        if t >= self.x[n - 1] {
            return self.y[n - 1];
        }
        let mut lo = 0usize;
        let mut hi = n - 1;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if self.x[mid] <= t {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let w = (t - self.x[lo]) / (self.x[lo + 1] - self.x[lo]);
        self.y[lo] * (1.0 - w) + self.y[lo + 1] * w
    }

    /// Piecewise-constant slope at `t` (undefined exactly at knots; returns
    /// the right-segment slope there, and 0 outside the domain).
    #[must_use]
    pub fn derivative(&self, t: f64) -> f64 {
        let n = self.x.len();
        if t < self.x[0] || t > self.x[n - 1] {
            return 0.0;
        }
        let mut i = 0usize;
        while i + 2 < n && self.x[i + 1] <= t {
            i += 1;
        }
        (self.y[i + 1] - self.y[i]) / (self.x[i + 1] - self.x[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_at_knots_exact() {
        let f = LinearInterp::new(&[0.0, 1.0, 3.0], &[5.0, 7.0, -1.0]).unwrap();
        assert_eq!(f.value(0.0), 5.0);
        assert_eq!(f.value(1.0), 7.0);
        assert_eq!(f.value(3.0), -1.0);
    }

    #[test]
    fn value_interpolates_with_uneven_spacing() {
        let f = LinearInterp::new(&[0.0, 1.0, 3.0], &[0.0, 2.0, 6.0]).unwrap();
        assert!((f.value(2.0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn extrapolation_clamps() {
        let f = LinearInterp::new(&[0.0, 1.0], &[3.0, 4.0]).unwrap();
        assert_eq!(f.value(-5.0), 3.0);
        assert_eq!(f.value(9.0), 4.0);
    }

    #[test]
    fn derivative_piecewise_constant() {
        let f = LinearInterp::new(&[0.0, 1.0, 3.0], &[0.0, 2.0, 0.0]).unwrap();
        assert!((f.derivative(0.5) - 2.0).abs() < 1e-12);
        assert!((f.derivative(2.0) + 1.0).abs() < 1e-12);
        assert_eq!(f.derivative(-1.0), 0.0);
    }

    #[test]
    fn rejects_invalid_inputs() {
        assert!(LinearInterp::new(&[0.0], &[1.0]).is_err());
        assert!(LinearInterp::new(&[0.0, 0.0], &[1.0, 2.0]).is_err());
        assert!(LinearInterp::new(&[0.0, 1.0], &[1.0, f64::INFINITY]).is_err());
        assert!(LinearInterp::new(&[0.0, 1.0], &[1.0]).is_err());
    }
}
