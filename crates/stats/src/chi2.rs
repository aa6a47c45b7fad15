//! Upper quantiles of the chi-square distribution, for the dispersion test
//! of [`RateEstimator::cdf_at_most`](crate::RateEstimator::cdf_at_most): a
//! table, since the estimator keeps at most 16 observations.

/// The dispersion test's level: the probability that counts of Poisson
/// arrivals are judged overdispersed.
pub const DISPERSION_LEVEL: f64 = 0.05;

/// `CHI2_UPPER[ν − 1]` is the `χ²_ν` quantile exceeded with probability
/// [`DISPERSION_LEVEL`], for `ν` = 1 to 15.
pub const CHI2_UPPER: [f64; 15] = [
    3.841459, 5.991465, 7.814728, 9.487729, 11.070498, 12.591587, 14.067140, 15.507313, 16.918978,
    18.307038, 19.675138, 21.026070, 22.362032, 23.684791, 24.995790,
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poisson_cdf;

    /// For even `ν = 2m`, `P(χ²_ν > x) = P(Poisson(x/2) ≤ m − 1)`: every
    /// even-degree entry is exceeded with probability `DISPERSION_LEVEL`.
    #[test]
    fn even_degrees_match_the_poisson_identity() {
        for nu in (2..=CHI2_UPPER.len()).step_by(2) {
            let x = CHI2_UPPER[nu - 1];
            let tail = poisson_cdf(x / 2.0, nu as u64 / 2 - 1);
            assert!(
                (tail - DISPERSION_LEVEL).abs() < 1e-6,
                "nu {nu}: P(chi2 > {x}) = {tail}"
            );
        }
    }

    #[test]
    fn quantiles_rise_with_the_degrees_of_freedom() {
        assert!(CHI2_UPPER.windows(2).all(|w| w[0] < w[1]));
    }
}
