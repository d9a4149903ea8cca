//! Numerical verification of the paper's §II.C theoretical properties.
//!
//! The paper proves two properties of the DL equation (via Pao's
//! upper/lower-solution theory):
//!
//! * **Unique Property** — the solution exists uniquely and satisfies
//!   `0 ≤ I(x, t) ≤ K`;
//! * **Strictly Increasing Property** — if φ is a lower time-independent
//!   solution (Eq. 5/6), `I(x, t)` is strictly increasing in `t`.
//!
//! These are exact statements about the continuous equation; this module
//! checks that the *discrete* solver preserves them, which is both a
//! correctness test for the solver and the reproduction of the paper's
//! "the experiment results … verify these two important properties".

use crate::error::Result;
use crate::model::DlModel;

/// Outcome of verifying the two §II.C properties on a solved field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PropertyReport {
    /// Smallest field value observed.
    pub min_value: f64,
    /// Largest field value observed.
    pub max_value: f64,
    /// Carrying capacity `K` the bounds are checked against.
    pub capacity: f64,
    /// Whether `−tol ≤ I ≤ K + tol` everywhere (Unique Property bounds).
    pub bounds_hold: bool,
    /// Largest decrease between consecutive recorded times (0 for a
    /// perfectly monotone field).
    pub worst_decrease: f64,
    /// Whether the field never decreased by more than `tol` anywhere
    /// (Strictly Increasing Property).
    pub increasing_holds: bool,
    /// Whether φ satisfied the Eq.-6 lower-solution premise.
    pub phi_is_lower_solution: bool,
}

/// Verifies both properties by solving the model to `t_end` and scanning
/// the recorded field with tolerance `tol`.
///
/// # Errors
///
/// Propagates solver errors.
pub fn verify_properties(model: &DlModel, t_end: f64, tol: f64) -> Result<PropertyReport> {
    let solution = model.solve_until(t_end)?;
    let min_value = solution.min_value();
    let max_value = solution.max_value();
    let capacity = model.params().capacity();
    let bounds_hold = min_value >= -tol && max_value <= capacity + tol;

    let mut worst_decrease = 0.0f64;
    for rows in solution.values().windows(2) {
        for (a, b) in rows[0].iter().zip(&rows[1]) {
            worst_decrease = worst_decrease.max(a - b);
        }
    }
    let increasing_holds = worst_decrease <= tol;
    let phi_is_lower_solution = model
        .phi()
        .is_lower_solution(model.params(), model.growth(), tol);

    Ok(PropertyReport {
        min_value,
        max_value,
        capacity,
        bounds_hold,
        worst_decrease,
        increasing_holds,
        phi_is_lower_solution,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::growth::ExpDecayGrowth;
    use crate::model::{DlModel, DlModelBuilder};
    use crate::params::DlParameters;

    const OBS: [f64; 6] = [2.1, 0.7, 0.9, 0.5, 0.3, 0.2];

    #[test]
    fn paper_setting_satisfies_both_properties() {
        let model = DlModel::paper_hops(&OBS).unwrap();
        let report = verify_properties(&model, 20.0, 1e-8).unwrap();
        assert!(report.phi_is_lower_solution);
        assert!(report.bounds_hold, "{report:?}");
        assert!(report.increasing_holds, "{report:?}");
        assert!(report.min_value >= 0.0);
        assert!(report.max_value <= 25.0 + 1e-8);
    }

    #[test]
    fn interest_setting_satisfies_both_properties() {
        let model = DlModel::paper_interest(&[12.0, 6.0, 3.0, 1.5, 0.8]).unwrap();
        let report = verify_properties(&model, 20.0, 1e-8).unwrap();
        assert!(report.bounds_hold && report.increasing_holds, "{report:?}");
    }

    #[test]
    fn non_lower_solution_phi_is_reported() {
        // Strong diffusion with oscillating φ violates Eq. 6; the report
        // must say so (and the field may then decrease locally — the
        // premise of the increasing property fails, not the theorem).
        let params = DlParameters::new(10.0, 25.0, 1.0, 6.0).unwrap();
        let model = DlModelBuilder::new(params)
            .growth(ExpDecayGrowth::new(0.0, 0.0, 0.05))
            .build(&[0.1, 8.0, 0.1, 8.0, 0.1, 8.0])
            .unwrap();
        let report = verify_properties(&model, 5.0, 1e-8).unwrap();
        assert!(!report.phi_is_lower_solution);
        // Bounds must STILL hold (unique property needs no premise).
        assert!(report.bounds_hold, "{report:?}");
        // And indeed the field decreases somewhere (diffusion pulls the
        // peaks down faster than logistic growth refills them).
        assert!(!report.increasing_holds, "{report:?}");
    }

    #[test]
    fn report_is_copy_and_debug() {
        let model = DlModel::paper_hops(&OBS).unwrap();
        let report = verify_properties(&model, 3.0, 1e-8).unwrap();
        let copy = report;
        assert!(format!("{copy:?}").contains("bounds_hold"));
    }
}
