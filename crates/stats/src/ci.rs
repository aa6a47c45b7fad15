//! Binomial proportion confidence intervals.
//!
//! The paper reports all experimental results with 95% confidence intervals
//! "computed under the assumption that the number of timing failures follows
//! a binomial distribution" (§6, citing Johnson, Kotz & Kemp). This module
//! provides the Wilson score interval, which is better behaved than the
//! classic normal-approximation (Wald) interval at the extremes.

/// A two-sided confidence interval for a binomial proportion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinomialCi {
    /// Point estimate `successes / trials`.
    pub estimate: f64,
    /// Lower bound of the interval (clamped to `[0, 1]`).
    pub lower: f64,
    /// Upper bound of the interval (clamped to `[0, 1]`).
    pub upper: f64,
}

impl BinomialCi {
    /// Wilson score interval at confidence `z` standard deviations.
    ///
    /// Unlike the normal-approximation (Wald) interval, this never
    /// degenerates to zero width at `p = 0` or `p = 1`, which matters when
    /// very few timing failures are observed.
    ///
    /// # Panics
    ///
    /// Panics if `trials` is zero or `successes > trials`.
    pub fn wilson(successes: u64, trials: u64, z: f64) -> Self {
        assert!(trials > 0, "need at least one trial");
        assert!(successes <= trials, "successes cannot exceed trials");
        let n = trials as f64;
        let p = successes as f64 / n;
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let center = (p + z2 / (2.0 * n)) / denom;
        let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
        Self {
            estimate: p,
            lower: (center - half).max(0.0),
            upper: (center + half).min(1.0),
        }
    }

    /// 95% Wilson interval (z = 1.96), the reporting default.
    pub fn wilson95(successes: u64, trials: u64) -> Self {
        Self::wilson(successes, trials, 1.96)
    }

    /// Half-width of the interval.
    pub fn half_width(&self) -> f64 {
        (self.upper - self.lower) / 2.0
    }

    /// Whether the interval contains `p`.
    pub fn contains(&self, p: f64) -> bool {
        (self.lower..=self.upper).contains(&p)
    }
}

impl std::fmt::Display for BinomialCi {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.4} [{:.4}, {:.4}]",
            self.estimate, self.lower, self.upper
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn wilson_nonzero_width_at_zero() {
        let ci = BinomialCi::wilson95(0, 100);
        assert_eq!(ci.lower, 0.0);
        assert!(ci.upper > 0.0 && ci.upper < 0.05);
    }

    #[test]
    fn wilson_contains_estimate() {
        let ci = BinomialCi::wilson95(7, 1000);
        assert!(ci.contains(ci.estimate));
        assert!(ci.contains(0.007));
        assert!(!ci.contains(0.5));
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_panics() {
        let _ = BinomialCi::wilson95(0, 0);
    }

    #[test]
    #[should_panic(expected = "cannot exceed")]
    fn too_many_successes_panics() {
        let _ = BinomialCi::wilson95(5, 4);
    }

    #[test]
    fn display_formats() {
        let ci = BinomialCi::wilson95(10, 100);
        let s = ci.to_string();
        assert!(s.starts_with("0.1000 ["));
    }

    proptest! {
        #[test]
        fn bounds_ordered_and_clamped(s in 0u64..=500, extra in 0u64..500) {
            let n = s + extra.max(1);
            let ci = BinomialCi::wilson95(s, n);
            prop_assert!(ci.lower <= ci.estimate + 1e-12);
            prop_assert!(ci.estimate <= ci.upper + 1e-12);
            prop_assert!((0.0..=1.0).contains(&ci.lower));
            prop_assert!((0.0..=1.0).contains(&ci.upper));
        }

        #[test]
        fn wider_with_fewer_trials(s in 1u64..50) {
            let narrow = BinomialCi::wilson95(s * 10, 1000);
            let wide = BinomialCi::wilson95(s, 100);
            prop_assert!(wide.half_width() >= narrow.half_width() - 1e-12);
        }
    }
}
