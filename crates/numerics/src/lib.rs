//! # dlm-numerics
//!
//! Self-contained numerical substrate for the `dlm` workspace — the pieces
//! of MATLAB that the ICDCS 2012 paper *Diffusive Logistic Model Towards
//! Predicting Information Diffusion in Online Social Networks* relied on
//! (cubic splines, `ode45`-class integrators, `lsqnonlin`-class
//! least squares), implemented from scratch because the Rust scientific
//! ecosystem offers no offline equivalent.
//!
//! ## Modules
//!
//! * [`tridiag`] — Thomas algorithm and pivoted banded LU (Crank–Nicolson
//!   inner solver and its sensitivities).
//! * [`linalg`] — small dense matrices and LU (Levenberg–Marquardt normal
//!   equations).
//! * [`spline`] — natural/clamped cubic splines and monotone PCHIP (the
//!   paper's φ construction).
//! * [`interp`] — piecewise-linear interpolation.
//! * [`ode`] — RK4 and adaptive Dormand–Prince 4(5), the method-of-lines
//!   cross-checks behind `dlm_core::pde::solve` (RK4 also integrates the
//!   ODE baselines).
//! * [`optimize`] — deterministic pool-parallel multi-start search around
//!   a local search (parameter calibration).
//! * [`mix`] — the SplitMix64 avalanche shared by the multi-start seed
//!   grid and the router's ring hashing.
//! * [`pool`] — scoped work-stealing executor for embarrassingly parallel
//!   grids (batch evaluation).
//! * [`least_squares`] — box-constrained Levenberg–Marquardt, the one
//!   optimizer: the `dl-cal` calibration and `variable-dl`'s per-distance
//!   growth fits.
//! * [`stats`] — the mean, the paper's Eq.-8 accuracy and a least-squares
//!   line.
//! * [`convergence`] — observed-order studies with their
//!   Richardson-extrapolated limit.
//!
//! ## Example
//!
//! Build the paper's initial density function φ from hour-1 observations
//! and integrate a logistic ODE:
//!
//! ```
//! use dlm_numerics::spline::CubicSpline;
//! use dlm_numerics::ode::rk4;
//!
//! # fn main() -> Result<(), dlm_numerics::NumericsError> {
//! let hops = [1.0, 2.0, 3.0, 4.0, 5.0];
//! let density = [2.1, 0.7, 0.9, 0.5, 0.3];
//! let phi = CubicSpline::clamped_flat(&hops, &density)?;
//! assert!(phi.derivative(1.0).abs() < 1e-10);
//!
//! let logistic = (|_t: f64, y: &[f64], dy: &mut [f64]| {
//!     dy[0] = 0.5 * y[0] * (1.0 - y[0] / 25.0);
//! }, 1usize);
//! let traj = rk4(&logistic, 0.0, 10.0, &[phi.value(1.0)], 200)?;
//! assert!(traj.last().expect("nonempty").1[0] <= 25.0);
//! # Ok(())
//! # }
//! ```

// `!(x > 0.0)` is used deliberately throughout: unlike `x <= 0.0` it
// also rejects NaN, which is exactly what the validators need.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod convergence;
pub mod error;
pub mod interp;
pub mod least_squares;
pub mod linalg;
pub mod mix;
pub mod ode;
pub mod optimize;
pub mod pool;
pub mod spline;
pub mod stats;
pub mod tridiag;

pub use error::{NumericsError, Result};
