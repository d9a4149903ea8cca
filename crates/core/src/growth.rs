//! Growth-rate functions `r(t)`.
//!
//! The paper observes (Figure 4) that the hourly density increments shrink
//! as a story ages, and therefore makes the intrinsic growth rate a
//! *decreasing function of time*. Its Eq. 7 uses
//!
//! ```text
//! r(t) = 1.4 · e^{−1.5 (t − 1)} + 0.25      (friendship hops, Figure 6)
//! r(t) = 1.6 · e^{−(t − 1)} + 0.1           (shared interests, §III.C)
//! ```
//!
//! Every curve the registry builds is this family, [`ExpDecayGrowth`] (a
//! constant rate `r` is `a = b = 0, c = r`). It integrates in closed form,
//! so the `d = 0` logistic equation `dy/dt = r(t)·y·(1 − y/K)` has an
//! exact solution with an exact gradient in `(a, b, c)`
//! ([`ExpDecayGrowth::logistic`]): the logistic baseline and
//! `variable-dl`'s growth fits integrate nothing. [`GrowthRate`] is the
//! PDE solver's input type; [`FnGrowth`] wraps a custom curve.

use std::fmt;

/// A time-dependent intrinsic growth rate `r(t)`.
///
/// Implementations must be finite and non-negative for all `t ≥ 1` (the
/// model's time axis starts at the initial observation hour).
pub trait GrowthRate: fmt::Debug {
    /// Evaluates `r(t)`.
    fn rate(&self, t: f64) -> f64;

    /// Short human-readable description for reports.
    fn describe(&self) -> String;
}

/// The paper's exponentially decaying growth-rate family
/// `r(t) = a·e^{−b(t−1)} + c`.
///
/// # Examples
///
/// ```
/// use dlm_core::growth::{ExpDecayGrowth, GrowthRate};
///
/// let r = ExpDecayGrowth::paper_hops(); // Eq. 7 / Figure 6
/// assert!((r.rate(1.0) - 1.65).abs() < 1e-12); // 1.4 + 0.25
/// assert!(r.rate(5.0) < r.rate(2.0));          // decreasing
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpDecayGrowth {
    amplitude: f64,
    decay: f64,
    floor: f64,
}

impl ExpDecayGrowth {
    /// Creates `r(t) = amplitude·e^{−decay(t−1)} + floor`.
    ///
    /// # Panics
    ///
    /// Panics if any coefficient is negative or non-finite (the model
    /// requires `r(t) ≥ 0`).
    #[must_use]
    pub fn new(amplitude: f64, decay: f64, floor: f64) -> Self {
        for (name, v) in [("amplitude", amplitude), ("decay", decay), ("floor", floor)] {
            assert!(
                v.is_finite() && v >= 0.0,
                "{name} must be finite and non-negative, got {v}"
            );
        }
        Self {
            amplitude,
            decay,
            floor,
        }
    }

    /// The paper's Eq. 7 (friendship-hop experiments, Figure 6):
    /// `r(t) = 1.4·e^{−1.5(t−1)} + 0.25`.
    #[must_use]
    pub fn paper_hops() -> Self {
        Self::new(1.4, 1.5, 0.25)
    }

    /// The paper's shared-interest variant (§III.C):
    /// `r(t) = 1.6·e^{−(t−1)} + 0.1`.
    #[must_use]
    pub fn paper_interest() -> Self {
        Self::new(1.6, 1.0, 0.1)
    }

    /// Amplitude `a`.
    #[must_use]
    pub fn amplitude(&self) -> f64 {
        self.amplitude
    }

    /// Decay `b`.
    #[must_use]
    pub fn decay(&self) -> f64 {
        self.decay
    }

    /// Floor `c` (the long-time growth rate).
    #[must_use]
    pub fn floor(&self) -> f64 {
        self.floor
    }

    /// The integral `R(t₀, t₁) = ∫ r(s) ds` over `[t₀, t₁]` and its
    /// gradient in `(a, b, c)`, exact for every `b ≥ 0`:
    ///
    /// ```text
    /// R = a·e^{−b(t₀−1)}·(1 − e^{−bΔ})/b + c·Δ,   Δ = t₁ − t₀
    /// ```
    ///
    /// with `(1 − e^{−bΔ})/b → Δ` as `b → 0`.
    #[must_use]
    pub fn integral(&self, t0: f64, t1: f64) -> (f64, [f64; 3]) {
        let (a, b, c) = (self.amplitude, self.decay, self.floor);
        let span = t1 - t0;
        let start = (-b * (t0 - 1.0)).exp();
        let (mean, slope) = mean_decay(b * span);
        let d_a = start * span * mean;
        // ∂/∂b of e^{−b(t₀−1)}·Δ·mean(bΔ).
        let d_b = start * span * (slope * span - (t0 - 1.0) * mean);
        (a * d_a + c * span, [d_a, a * d_b, span])
    }

    /// The exact solution at `t₁` of `dy/dt = r(t)·y·(1 − y/K)` from
    /// `y(t₀) = y₀`, `y = K / (1 + (K/y₀ − 1)·e^{−R(t₀, t₁)})`, and its
    /// tangent `∂y/∂(a, b, c) = y·(1 − y/K)·∂R/∂(a, b, c)`. An empty
    /// group (`y₀ = 0`) stays empty.
    #[must_use]
    pub fn logistic(&self, y0: f64, capacity: f64, t0: f64, t1: f64) -> (f64, [f64; 3]) {
        if y0 == 0.0 {
            // The formula would read ∞·e^{−R}, which is NaN once e^{−R}
            // underflows.
            return (0.0, [0.0; 3]);
        }
        let (integral, gradient) = self.integral(t0, t1);
        let y = capacity / (1.0 + (capacity / y0 - 1.0) * (-integral).exp());
        let logistic = y * (1.0 - y / capacity);
        (y, gradient.map(|g| logistic * g))
    }
}

/// `(1 − e^{−x})/x` (the mean of `e^{−s}` over `[0, x]`) and its
/// derivative in `x`. Below `|x| = 10⁻²` both come from their Taylor
/// series, which holds the `x → 0` limit and avoids the cancellation of
/// the closed form; the first omitted terms are under `10⁻¹⁵` there.
fn mean_decay(x: f64) -> (f64, f64) {
    if x.abs() < 1e-2 {
        let mean = 1.0
            - x * (1.0 / 2.0 - x * (1.0 / 6.0 - x * (1.0 / 24.0 - x * (1.0 / 120.0 - x / 720.0))));
        let slope = -1.0 / 2.0
            + x * (1.0 / 3.0 - x * (1.0 / 8.0 - x * (1.0 / 30.0 - x * (1.0 / 144.0 - x / 840.0))));
        (mean, slope)
    } else {
        let mean = -(-x).exp_m1() / x;
        (mean, ((-x).exp() - mean) / x)
    }
}

impl GrowthRate for ExpDecayGrowth {
    fn rate(&self, t: f64) -> f64 {
        self.amplitude * (-self.decay * (t - 1.0)).exp() + self.floor
    }

    fn describe(&self) -> String {
        format!(
            "r(t) = {}*exp(-{}(t-1)) + {}",
            self.amplitude, self.decay, self.floor
        )
    }
}

/// A growth rate backed by an arbitrary closure: a custom `r(t)` for the
/// PDE solver.
pub struct FnGrowth<F: Fn(f64) -> f64> {
    f: F,
    label: String,
}

impl<F: Fn(f64) -> f64> FnGrowth<F> {
    /// Wraps a closure as a growth rate with a report label.
    pub fn new(f: F, label: impl Into<String>) -> Self {
        Self {
            f,
            label: label.into(),
        }
    }
}

impl<F: Fn(f64) -> f64> fmt::Debug for FnGrowth<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FnGrowth")
            .field("label", &self.label)
            .finish()
    }
}

impl<F: Fn(f64) -> f64> GrowthRate for FnGrowth<F> {
    fn rate(&self, t: f64) -> f64 {
        (self.f)(t)
    }

    fn describe(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let r = ExpDecayGrowth::new(0.0, 0.0, 0.5);
        assert_eq!(r.rate(1.0), 0.5);
        assert_eq!(r.rate(100.0), 0.5);
        assert!(r.describe().contains("0.5"));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn constant_rejects_negative() {
        let _ = ExpDecayGrowth::new(0.0, 0.0, -0.1);
    }

    #[test]
    fn paper_hops_matches_figure6() {
        // Figure 6 shows r(1) ≈ 1.65 falling toward the 0.25 floor by t ≈ 4.
        let r = ExpDecayGrowth::paper_hops();
        assert!((r.rate(1.0) - 1.65).abs() < 1e-12);
        assert!((r.rate(4.0) - (1.4 * (-4.5f64).exp() + 0.25)).abs() < 1e-12);
        assert!(r.rate(4.0) < 0.27);
    }

    #[test]
    fn paper_interest_values() {
        let r = ExpDecayGrowth::paper_interest();
        assert!((r.rate(1.0) - 1.7).abs() < 1e-12);
        assert!((r.rate(2.0) - (1.6 * (-1.0f64).exp() + 0.1)).abs() < 1e-12);
    }

    #[test]
    fn exp_decay_is_monotone_decreasing() {
        let r = ExpDecayGrowth::paper_hops();
        let mut prev = r.rate(1.0);
        for i in 1..=50 {
            let t = 1.0 + i as f64 * 0.1;
            let v = r.rate(t);
            assert!(v <= prev);
            prev = v;
        }
    }

    #[test]
    fn exp_decay_floor_is_limit() {
        let r = ExpDecayGrowth::new(2.0, 1.0, 0.3);
        assert!((r.rate(100.0) - 0.3).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn exp_decay_rejects_nan() {
        let _ = ExpDecayGrowth::new(f64::NAN, 1.0, 0.0);
    }

    #[test]
    fn fn_growth_wraps_closures() {
        let r = FnGrowth::new(|t| 1.0 / t, "r(t) = 1/t");
        assert_eq!(r.rate(2.0), 0.5);
        assert_eq!(r.describe(), "r(t) = 1/t");
        assert!(format!("{r:?}").contains("1/t"));
    }

    #[test]
    fn growth_rate_is_object_safe() {
        let rates: Vec<Box<dyn GrowthRate>> = vec![
            Box::new(FnGrowth::new(|_| 1.0, "r(t) = 1")),
            Box::new(ExpDecayGrowth::paper_hops()),
        ];
        assert!(rates[0].rate(1.0) > 0.0);
        assert!(rates[1].rate(1.0) > 0.0);
    }

    /// `(t₀, t₁)` spans with integer and fractional ends.
    const SPANS: [(f64, f64); 4] = [(1.0, 2.0), (1.0, 6.0), (2.5, 3.0), (4.0, 9.25)];

    #[test]
    fn integral_is_exact_without_decay_and_continuous_as_it_vanishes() {
        for (t0, t1) in SPANS {
            let span = t1 - t0;
            let at = |b: f64| ExpDecayGrowth::new(1.4, b, 0.25).integral(t0, t1);
            let (limit, [d_a, slope, d_c]) = at(0.0);
            assert_eq!((limit, d_a, d_c), (1.4 * span + 0.25 * span, span, span));
            // ∂R/∂b at b = 0 is −a·∫(s − 1) ds.
            let want = -1.4 * ((t1 - 1.0).powi(2) - (t0 - 1.0).powi(2)) / 2.0;
            assert!(
                (slope - want).abs() <= 1e-14 * want.abs(),
                "{slope} vs {want}"
            );
            for b in [1e-12, 1e-8, 1e-4] {
                // Taylor in b: the remainder is at most b²·a·(t₁ − 1)³/6.
                let remainder = b * b * 1.4 * (t1 - 1.0).powi(3) + 1e-15 * limit;
                let value = at(b).0;
                assert!(
                    (value - (limit + b * slope)).abs() <= remainder,
                    "b {b}, [{t0}, {t1}]: {value} vs limit {limit}"
                );
            }
            // No jump where the series hands over to the closed form.
            let (below, above) = (at((1e-2 - 1e-14) / span), at(1e-2 / span));
            assert!((below.0 - above.0).abs() <= 1e-13 * above.0);
            assert!((below.1[1] - above.1[1]).abs() <= 1e-11 * above.1[1].abs());
        }
    }

    #[test]
    fn integral_is_additive_over_adjacent_spans() {
        for r in [
            ExpDecayGrowth::paper_hops(),
            ExpDecayGrowth::new(0.0, 0.0, 0.8),
            ExpDecayGrowth::new(3.0, 1e-6, 0.5),
            ExpDecayGrowth::new(12.0, 4.0, 7.0),
        ] {
            for (t0, t1, t2) in [(1.0, 2.0, 3.0), (1.5, 2.0, 8.0), (3.0, 3.004, 4.0)] {
                let whole = r.integral(t0, t2).0;
                let parts = r.integral(t0, t1).0 + r.integral(t1, t2).0;
                assert!(
                    (whole - parts).abs() <= 1e-14 * whole,
                    "{r:?} [{t0}, {t1}, {t2}]: {whole} vs {parts}"
                );
            }
        }
    }

    #[test]
    fn logistic_keeps_an_empty_group_empty() {
        // e^{−R} underflows to 0 at R = 920; y ≡ 0 must stay 0 and
        // every other start must reach K.
        let r = ExpDecayGrowth::new(0.0, 0.0, 40.0);
        assert_eq!(r.logistic(0.0, 25.0, 1.0, 24.0), (0.0, [0.0; 3]));
        assert_eq!(r.logistic(0.5, 25.0, 1.0, 24.0), (25.0, [0.0; 3]));
    }
}
