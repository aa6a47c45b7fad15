//! Windowed arrival-rate estimation.
//!
//! The lazy publisher periodically broadcasts `<n_u, t_u>` pairs — the number
//! of update requests received in the duration since its previous performance
//! broadcast. Client gateways keep "a history of `<n_u, t_u>` over a sliding
//! window" and estimate the update arrival rate as
//! `lambda_u = sum(n_u^i) / sum(t_u^i)` (paper §5.4.1).
//!
//! The same window gives the probability of at most `a` arrivals in a
//! coming interval: the paper's Eq. 4 (Poisson arrivals at the pooled
//! rate) while the windowed counts look Poisson, and a rate mixture (its
//! §5.1.3 remark on other arrival processes) once Pearson's dispersion
//! test says they do not.

use crate::chi2::CHI2_UPPER;
use crate::poisson_cdf;
use std::collections::VecDeque;

/// Estimates an arrival rate from a sliding window of `(count, duration)`
/// observations.
///
/// Durations are in microseconds; the estimated rate is in arrivals per
/// microsecond (multiply by 1e6 for arrivals per second).
///
/// # Example
///
/// ```
/// use aqf_stats::RateEstimator;
///
/// let mut est = RateEstimator::new(8);
/// est.record(2, 1_000_000); // 2 arrivals in 1 s
/// est.record(4, 1_000_000); // 4 arrivals in 1 s
/// assert_eq!(est.rate_per_us(), Some(3e-6));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RateEstimator {
    window: VecDeque<(u64, u64)>,
    capacity: usize,
    sum_count: u64,
    sum_duration: u64,
}

impl RateEstimator {
    /// Creates an estimator retaining the most recent `capacity` observations.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or more than the dispersion test's
    /// table covers (16 observations).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "rate estimator capacity must be positive");
        assert!(
            capacity <= CHI2_UPPER.len() + 1,
            "rate estimator capacity beyond the dispersion table"
        );
        Self {
            window: VecDeque::with_capacity(capacity),
            capacity,
            sum_count: 0,
            sum_duration: 0,
        }
    }

    /// Records that `count` arrivals were observed over `duration_us`
    /// microseconds. Zero-duration observations are aggregated too; they
    /// contribute counts but no time.
    pub fn record(&mut self, count: u64, duration_us: u64) {
        if self.window.len() == self.capacity {
            if let Some((c, d)) = self.window.pop_front() {
                self.sum_count -= c;
                self.sum_duration -= d;
            }
        }
        self.window.push_back((count, duration_us));
        self.sum_count += count;
        self.sum_duration += duration_us;
    }

    /// The estimated rate in arrivals per microsecond, or `None` when no time
    /// has been observed yet.
    pub fn rate_per_us(&self) -> Option<f64> {
        if self.sum_duration == 0 {
            None
        } else {
            Some(self.sum_count as f64 / self.sum_duration as f64)
        }
    }

    /// The probability of at most `a` arrivals in the next `duration_us`
    /// microseconds, 1 before any time has been observed: the paper's Eq. 4
    /// at the pooled rate, unless Pearson's dispersion test rejects Poisson
    /// counts. Over the `k` observations with `t_i > 0`, with `λ̂ = Σn / Σt`
    /// among them, it rejects when `k ≥ 2`, some arrival was seen, and
    /// `X² = Σ (n_i − λ̂ t_i)² / (λ̂ t_i)` exceeds the `χ²_{k−1}` quantile at
    /// [`DISPERSION_LEVEL`](crate::chi2::DISPERSION_LEVEL). The result is
    /// then the mean of the Poisson CDFs at each observation's own rate
    /// `n_i / t_i`: a rate mixture that stays calibrated under bursty
    /// arrivals, where the pooled rate is too optimistic.
    pub fn cdf_at_most(&self, a: u64, duration_us: u64) -> f64 {
        let timed = || self.window.iter().filter(|&&(_, d)| d > 0);
        let (k, n, t) = timed().fold((0, 0, 0), |(k, n, t), &(c, d)| (k + 1, n + c, t + d));
        if k >= 2 && n > 0 {
            let rate = n as f64 / t as f64;
            let expected = |d: u64| rate * d as f64;
            let x2: f64 = timed()
                .map(|&(c, d)| (c as f64 - expected(d)).powi(2) / expected(d))
                .sum();
            if x2 > CHI2_UPPER[k - 2] {
                let mixture: f64 = timed()
                    .map(|&(c, d)| poisson_cdf(c as f64 / d as f64 * duration_us as f64, a))
                    .sum();
                return mixture / k as f64;
            }
        }
        self.rate_per_us()
            .map_or(1.0, |rate| poisson_cdf(rate * duration_us as f64, a))
    }

    /// Number of observations currently in the window.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// Whether no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Clears all recorded observations.
    pub fn clear(&mut self) {
        self.window.clear();
        self.sum_count = 0;
        self.sum_duration = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_rate_is_none() {
        let est = RateEstimator::new(4);
        assert_eq!(est.rate_per_us(), None);
        assert!(est.is_empty());
    }

    #[test]
    fn zero_duration_only_is_none() {
        let mut est = RateEstimator::new(4);
        est.record(5, 0);
        assert_eq!(est.rate_per_us(), None);
        assert_eq!(est.len(), 1);
    }

    #[test]
    fn pooled_rate() {
        let mut est = RateEstimator::new(4);
        est.record(1, 500_000);
        est.record(3, 1_500_000);
        // 4 arrivals over 2 s = 2/s.
        assert_eq!(est.rate_per_us(), Some(2e-6));
    }

    #[test]
    fn eviction_removes_old_contributions() {
        let mut est = RateEstimator::new(2);
        est.record(100, 1_000_000);
        est.record(1, 1_000_000);
        est.record(1, 1_000_000);
        // The 100-arrival burst fell out of the window.
        assert_eq!(est.rate_per_us(), Some(1e-6));
    }

    #[test]
    fn clear_resets() {
        let mut est = RateEstimator::new(2);
        est.record(10, 1_000_000);
        est.clear();
        assert!(est.is_empty());
        assert_eq!(est.rate_per_us(), None);
    }

    const SECOND: u64 = 1_000_000;

    #[test]
    fn equal_rate_windows_keep_eq4_bit_for_bit() {
        let mut est = RateEstimator::new(16);
        for _ in 0..16 {
            est.record(2, SECOND);
        }
        let t = 3 * SECOND / 2;
        for a in 0..4 {
            let eq4 = poisson_cdf(est.rate_per_us().unwrap() * t as f64, a);
            assert_eq!(est.cdf_at_most(a, t), eq4);
        }
    }

    #[test]
    fn a_burst_then_silence_takes_the_mixture() {
        let mut est = RateEstimator::new(16);
        est.record(8, SECOND);
        for _ in 0..15 {
            est.record(0, SECOND);
        }
        let t = 2 * SECOND;
        // One window at 8/s, fifteen at 0/s; the pooled rate is 0.5/s.
        let mixture = (poisson_cdf(16.0, 2) + 15.0) / 16.0;
        assert!((est.cdf_at_most(2, t) - mixture).abs() < 1e-12);
        assert!(est.cdf_at_most(2, t) > poisson_cdf(1.0, 2) + 0.01);
    }

    #[test]
    fn zero_duration_and_zero_count_windows_keep_eq4() {
        // No arrival in any window: nothing to test, and the rate is 0.
        let mut est = RateEstimator::new(16);
        for _ in 0..16 {
            est.record(0, SECOND);
        }
        assert_eq!(est.cdf_at_most(0, SECOND), 1.0);
        // Counts without time: one timed window is too few to test.
        let mut est = RateEstimator::new(16);
        est.record(5, 0);
        est.record(8, 0);
        est.record(1, SECOND);
        let eq4 = poisson_cdf(est.rate_per_us().unwrap() * SECOND as f64, 3);
        assert_eq!(est.cdf_at_most(3, SECOND), eq4);
        // Only counts without time: no rate yet.
        let mut est = RateEstimator::new(16);
        est.record(8, 0);
        est.record(8, 0);
        assert_eq!(est.cdf_at_most(0, SECOND), 1.0);
    }

    #[test]
    #[should_panic(expected = "dispersion table")]
    fn capacity_beyond_the_table_panics() {
        let _ = RateEstimator::new(CHI2_UPPER.len() + 2);
    }

    proptest! {
        #[test]
        fn sums_match_window(
            cap in 1usize..8,
            obs in proptest::collection::vec((0u64..100, 0u64..1_000_000), 0..32),
        ) {
            let mut est = RateEstimator::new(cap);
            for &(c, d) in &obs {
                est.record(c, d);
            }
            let start = obs.len().saturating_sub(cap);
            let sc: u64 = obs[start..].iter().map(|&(c, _)| c).sum();
            let sd: u64 = obs[start..].iter().map(|&(_, d)| d).sum();
            if sd == 0 {
                prop_assert_eq!(est.rate_per_us(), None);
            } else {
                prop_assert_eq!(est.rate_per_us(), Some(sc as f64 / sd as f64));
            }
        }
    }
}
