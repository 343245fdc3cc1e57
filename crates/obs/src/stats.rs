//! Small statistical helpers shared by the progress reporter and the
//! framework proper.

/// 95% Wilson score interval for a binomial proportion.
///
/// This is the canonical implementation for the workspace — campaign
/// reports and the live progress line use it for their masking-probability
/// bounds, and the
/// adaptive campaign planner's per-stratum termination rule leans on it (the
/// paper sizes campaigns for a 95% confidence target).
pub fn wilson95(successes: usize, n: usize) -> (f64, f64) {
    wilson(successes, n, Z95)
}

/// The standard-normal quantile behind [`wilson95`].
pub const Z95: f64 = 1.959_964;

/// Wilson score interval at an explicit standard-normal quantile `z`.
///
/// `n == 0` returns the vacuous `(0, 1)` interval: with no observations
/// every proportion is plausible, which is exactly the reading the adaptive
/// planner needs (an unsampled stratum is maximally uncertain, never
/// spuriously resolved).
pub fn wilson(successes: usize, n: usize, z: f64) -> (f64, f64) {
    if n == 0 {
        return (0.0, 1.0);
    }
    let nf = n as f64;
    let p = successes as f64 / nf;
    let z2 = z * z;
    let denom = 1.0 + z2 / nf;
    let centre = p + z2 / (2.0 * nf);
    let margin = z * (p * (1.0 - p) / nf + z2 / (4.0 * nf * nf)).sqrt();
    (
        ((centre - margin) / denom).max(0.0),
        ((centre + margin) / denom).min(1.0),
    )
}

/// The standard-normal quantile for a supported two-sided confidence level.
///
/// The planner only accepts levels with a pinned quantile — deriving z at
/// runtime would need an inverse-normal approximation whose low-order bits
/// could drift between implementations and break checkpoint bit-identity.
pub fn z_for_confidence(confidence: f64) -> Option<f64> {
    // Bit-exact match: the supported levels are spec constants, not
    // measured quantities, so a caller holding anything but the literal
    // constant should be rejected rather than fuzzily accepted.
    const BITS_90: u64 = 0.90f64.to_bits();
    const BITS_95: u64 = 0.95f64.to_bits();
    const BITS_99: u64 = 0.99f64.to_bits();
    match confidence.to_bits() {
        BITS_90 => Some(1.644_854),
        BITS_95 => Some(Z95),
        BITS_99 => Some(2.575_829),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn interval_brackets_the_point_estimate() {
        let (lo, hi) = wilson95(50, 100);
        assert!(lo < 0.5 && hi > 0.5);
        assert_eq!(wilson95(0, 0), (0.0, 1.0));
        assert!(wilson95(0, 10).0.abs() < 1e-12);
        assert!((wilson95(10, 10).1 - 1.0).abs() < 1e-12);
    }

    /// n = 0 is the vacuous interval regardless of the success count the
    /// caller claims (the planner treats unsampled strata as maximally
    /// uncertain).
    #[test]
    fn zero_samples_is_vacuous() {
        assert_eq!(wilson95(0, 0), (0.0, 1.0));
        assert_eq!(wilson95(7, 0), (0.0, 1.0));
        assert_eq!(wilson(0, 0, 2.575_829), (0.0, 1.0));
    }

    /// Degenerate proportions stay pinned to their endpoint: p̂ = 0 keeps
    /// lo = 0, p̂ = 1 keeps hi = 1, and the opposite bound pulls strictly
    /// inside (0, 1) — the Wilson interval never collapses to a point on
    /// finite n.
    #[test]
    fn degenerate_proportions_hug_one_endpoint_only() {
        for n in [1usize, 2, 10, 1000] {
            let (lo0, hi0) = wilson95(0, n);
            assert!(lo0.abs() < 1e-12, "n={n}: lo={lo0}");
            assert!(hi0 > 0.0 && hi0 < 1.0, "n={n}: hi={hi0}");
            let (lo1, hi1) = wilson95(n, n);
            assert!((hi1 - 1.0).abs() < 1e-12, "n={n}: hi={hi1}");
            assert!(lo1 > 0.0 && lo1 < 1.0, "n={n}: lo={lo1}");
        }
    }

    /// A single observation is nearly vacuous but already informative: both
    /// orderings bracket p̂ and the interval is strictly narrower than (0,1).
    #[test]
    fn single_sample_is_wide_but_proper() {
        for (s, n) in [(0usize, 1usize), (1, 1)] {
            let (lo, hi) = wilson95(s, n);
            assert!(lo >= 0.0 && hi <= 1.0);
            assert!(hi - lo < 1.0, "({s},{n}): width {}", hi - lo);
            let p = s as f64 / n as f64;
            assert!(lo <= p && p <= hi, "({s},{n}): [{lo},{hi}] vs {p}");
        }
    }

    /// Huge n: the interval contracts toward p̂ without numerical blowup,
    /// and the half-width tracks the 1/sqrt(n) rate.
    #[test]
    fn huge_n_contracts_without_blowup() {
        let n = 1_000_000_000usize;
        let (lo, hi) = wilson95(n / 2, n);
        assert!(lo.is_finite() && hi.is_finite());
        assert!(lo < 0.5 && hi > 0.5);
        let hw = (hi - lo) / 2.0;
        // z/2 * 1/sqrt(n) ≈ 3.1e-5 at p = 0.5.
        assert!(hw > 1e-6 && hw < 1e-4, "half-width {hw}");
        // Degenerate extremes stay pinned at scale, too.
        assert!(wilson95(0, n).0.abs() < 1e-12);
        assert!((wilson95(n, n).1 - 1.0).abs() < 1e-12);
    }

    /// Higher confidence must widen the interval (z = 1.64 < 1.96 < 2.58).
    #[test]
    fn interval_widens_with_confidence() {
        let z90 = z_for_confidence(0.90).unwrap();
        let z95 = z_for_confidence(0.95).unwrap();
        let z99 = z_for_confidence(0.99).unwrap();
        let width = |z: f64| {
            let (lo, hi) = wilson(30, 100, z);
            hi - lo
        };
        assert!(width(z90) < width(z95));
        assert!(width(z95) < width(z99));
        assert_eq!(z_for_confidence(0.42), None);
        assert_eq!(z_for_confidence(f64::NAN), None);
    }

    proptest! {
        /// The interval always contains the point estimate and stays inside
        /// [0, 1], for any (successes ≤ n) pair.
        #[test]
        fn interval_always_contains_p_hat(n in 1usize..5000, frac in 0.0f64..1.05) {
            let s = ((n as f64) * frac).round() as usize;
            let s = s.min(n);
            let (lo, hi) = wilson95(s, n);
            let p = s as f64 / n as f64;
            prop_assert!((0.0..=1.0).contains(&lo));
            prop_assert!((0.0..=1.0).contains(&hi));
            prop_assert!(lo <= p + 1e-12 && p <= hi + 1e-12,
                "[{lo}, {hi}] must contain {p} (s={s}, n={n})");
        }

        /// Monotone narrowing: at a fixed proportion, growing n never widens
        /// the interval (the planner's waves rely on extra samples always
        /// buying confidence).
        #[test]
        fn interval_narrows_monotonically_in_n(base in 1usize..400, frac in 0.0f64..1.05, steps in 1usize..6) {
            let width_at = |n: usize| {
                let s = ((n as f64) * frac).round() as usize;
                let (lo, hi) = wilson95(s.min(n), n);
                hi - lo
            };
            let mut n = base;
            let mut w = width_at(n);
            for _ in 0..steps {
                // Scale n so the realizable proportion stays (nearly) fixed;
                // doubling keeps s/n exactly proportional when s doubles.
                n *= 2;
                let next = width_at(n);
                prop_assert!(next <= w + 1e-9,
                    "width grew from {w} to {next} at n={n} (frac={frac})");
                w = next;
            }
        }
    }
}
