//! Windowed arrival-rate estimation.
//!
//! The lazy publisher periodically broadcasts `<n_u, t_u>` pairs — the number
//! of update requests received in the duration since its previous performance
//! broadcast. Client gateways keep "a history of `<n_u, t_u>` over a sliding
//! window" and estimate the update arrival rate as
//! `lambda_u = sum(n_u^i) / sum(t_u^i)` (paper §5.4.1).

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
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "rate estimator capacity must be positive");
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

    /// Number of observations currently in the window.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// Iterates over the retained `(count, duration_us)` observations from
    /// oldest to newest (used by empirical, non-Poisson staleness models).
    pub fn observations(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.window.iter().copied()
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
