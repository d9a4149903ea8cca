//! Error types for the numerics crate.

use std::fmt;

/// Errors produced by numerical routines in this crate.
///
/// Every fallible public function in `dlm-numerics` returns this type. It is
/// [`Send`] + [`Sync`] and implements [`std::error::Error`] so it composes
/// with downstream error-handling crates.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NumericsError {
    /// Input slices have mismatched or insufficient lengths.
    ///
    /// `expected` describes the requirement; `actual` is the offending length.
    DimensionMismatch {
        /// Human-readable description of the expected shape.
        expected: String,
        /// The offending length that was supplied.
        actual: usize,
    },
    /// A matrix was singular (or numerically singular) during factorization.
    SingularMatrix {
        /// Pivot index at which breakdown occurred.
        pivot: usize,
    },
    /// Input knots are not strictly increasing where required.
    UnsortedKnots {
        /// Index of the first violation (`x[index] >= x[index + 1]` fails).
        index: usize,
    },
    /// A value was not finite (NaN or infinity) where finiteness is required.
    NonFiniteValue {
        /// Description of which input contained the non-finite value.
        context: String,
    },
    /// An iterative method failed to converge within its iteration budget.
    NoConvergence {
        /// Name of the algorithm that failed.
        algorithm: &'static str,
        /// Number of iterations performed before giving up.
        iterations: usize,
        /// Residual or error estimate at the final iterate.
        residual: f64,
    },
    /// A parameter was outside its mathematically valid domain.
    InvalidParameter {
        /// Name of the parameter.
        name: &'static str,
        /// Explanation of the constraint that was violated.
        reason: String,
    },
    /// Adaptive step-size control reduced the step below the minimum allowed.
    StepSizeUnderflow {
        /// Time at which the step collapsed.
        t: f64,
        /// The step size that fell below the floor.
        step: f64,
    },
}

impl fmt::Display for NumericsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumericsError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            NumericsError::SingularMatrix { pivot } => {
                write!(f, "matrix is singular at pivot {pivot}")
            }
            NumericsError::UnsortedKnots { index } => {
                write!(
                    f,
                    "knots must be strictly increasing (violated at index {index})"
                )
            }
            NumericsError::NonFiniteValue { context } => {
                write!(f, "non-finite value encountered in {context}")
            }
            NumericsError::NoConvergence {
                algorithm,
                iterations,
                residual,
            } => {
                write!(
                    f,
                    "{algorithm} did not converge after {iterations} iterations (residual {residual:.3e})"
                )
            }
            NumericsError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            NumericsError::StepSizeUnderflow { t, step } => {
                write!(f, "step size underflow at t = {t:.6e} (step = {step:.3e})")
            }
        }
    }
}

impl std::error::Error for NumericsError {}

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, NumericsError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_dimension_mismatch() {
        let e = NumericsError::DimensionMismatch {
            expected: "n >= 2".into(),
            actual: 1,
        };
        assert_eq!(e.to_string(), "dimension mismatch: expected n >= 2, got 1");
    }

    #[test]
    fn display_singular() {
        let e = NumericsError::SingularMatrix { pivot: 3 };
        assert!(e.to_string().contains("pivot 3"));
    }

    #[test]
    fn display_no_convergence_mentions_algorithm() {
        let e = NumericsError::NoConvergence {
            algorithm: "newton",
            iterations: 50,
            residual: 1e-3,
        };
        let s = e.to_string();
        assert!(s.contains("newton") && s.contains("50"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NumericsError>();
    }

    #[test]
    fn error_trait_object_usable() {
        let e: Box<dyn std::error::Error + Send + Sync> =
            Box::new(NumericsError::SingularMatrix { pivot: 0 });
        assert!(e.to_string().contains("singular"));
    }
}
