//! Random delay models for link latencies and service times.

use crate::time::SimDuration;
use rand::Rng;

/// A distribution of non-negative delays, sampled in microseconds.
///
/// The paper's experiments "simulated the background load on the servers by
/// having each replica respond to a request after a delay that was normally
/// distributed" (§6); link latencies on the 100 Mbps LAN are modelled with
/// small uniform or constant delays.
#[derive(Debug, Clone, PartialEq)]
pub enum DelayModel {
    /// Always exactly this delay.
    Constant(SimDuration),
    /// Uniformly distributed in `[lo, hi]` (inclusive).
    Uniform {
        /// Lower bound.
        lo: SimDuration,
        /// Upper bound.
        hi: SimDuration,
    },
    /// Normally distributed with the given mean and standard deviation,
    /// truncated below at `min`.
    Normal {
        /// Mean delay in microseconds.
        mean_us: f64,
        /// Standard deviation in microseconds.
        std_us: f64,
        /// Truncation floor.
        min: SimDuration,
    },
    /// Exponentially distributed with the given mean, shifted by `min`.
    Exponential {
        /// Mean of the exponential component in microseconds.
        mean_us: f64,
        /// Constant floor added to every sample.
        min: SimDuration,
    },
}

impl DelayModel {
    /// Convenience constructor for a constant delay in milliseconds.
    pub fn constant_ms(ms: u64) -> Self {
        DelayModel::Constant(SimDuration::from_millis(ms))
    }

    /// Convenience constructor for the paper's normally distributed service
    /// delay, given mean and standard deviation in milliseconds.
    pub const fn normal_ms(mean_ms: f64, std_ms: f64) -> Self {
        DelayModel::Normal {
            mean_us: mean_ms * 1e3,
            std_us: std_ms * 1e3,
            min: SimDuration::from_micros(1),
        }
    }

    /// Draws one delay.
    ///
    /// # Panics
    ///
    /// Panics if the model is malformed: `Uniform` with `lo > hi`, `Normal`
    /// or `Exponential` with non-finite or negative parameters.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        match self {
            DelayModel::Constant(d) => *d,
            DelayModel::Uniform { lo, hi } => {
                assert!(lo <= hi, "uniform delay with lo > hi");
                SimDuration::from_micros(rng.gen_range(lo.as_micros()..=hi.as_micros()))
            }
            DelayModel::Normal {
                mean_us,
                std_us,
                min,
            } => {
                assert!(
                    mean_us.is_finite() && std_us.is_finite() && *std_us >= 0.0,
                    "normal delay parameters must be finite with std >= 0"
                );
                let z = sample_standard_normal(rng);
                let v = mean_us + std_us * z;
                SimDuration::from_micros((v.max(min.as_micros() as f64)).round() as u64)
            }
            DelayModel::Exponential { mean_us, min } => {
                assert!(
                    mean_us.is_finite() && *mean_us >= 0.0,
                    "exponential mean must be finite and non-negative"
                );
                // Inverse CDF; guard the log against u == 0.
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                let v = -mean_us * u.ln();
                *min + SimDuration::from_micros(v.round() as u64)
            }
        }
    }

    /// The theoretical mean of the model in microseconds.
    pub fn mean_us(&self) -> f64 {
        match self {
            DelayModel::Constant(d) => d.as_micros() as f64,
            DelayModel::Uniform { lo, hi } => (lo.as_micros() + hi.as_micros()) as f64 / 2.0,
            DelayModel::Normal { mean_us, .. } => *mean_us,
            DelayModel::Exponential { mean_us, min } => mean_us + min.as_micros() as f64,
        }
    }
}

/// Samples a standard normal variate via the Box–Muller transform.
///
/// Implemented here rather than pulling in `rand_distr`, which is not in the
/// approved offline dependency set.
fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn constant_is_constant() {
        let m = DelayModel::constant_ms(3);
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(m.sample(&mut r), SimDuration::from_millis(3));
        }
    }

    #[test]
    fn uniform_within_bounds() {
        let m = DelayModel::Uniform {
            lo: SimDuration::from_micros(100),
            hi: SimDuration::from_micros(200),
        };
        let mut r = rng();
        for _ in 0..1000 {
            let d = m.sample(&mut r).as_micros();
            assert!((100..=200).contains(&d));
        }
    }

    #[test]
    fn normal_truncated_and_centered() {
        let m = DelayModel::normal_ms(100.0, 50.0);
        let mut r = rng();
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let d = m.sample(&mut r);
            assert!(d.as_micros() >= 1);
            sum += d.as_micros() as f64;
        }
        let mean = sum / n as f64;
        // Truncation at ~0 pulls the mean of N(100ms, 50ms) up slightly; stay loose.
        assert!((mean - 100_000.0).abs() < 5_000.0, "mean = {mean}");
    }

    #[test]
    fn exponential_mean_close() {
        let m = DelayModel::Exponential {
            mean_us: 10_000.0,
            min: SimDuration::from_micros(500),
        };
        let mut r = rng();
        let n = 50_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let d = m.sample(&mut r);
            assert!(d.as_micros() >= 500);
            sum += d.as_micros() as f64;
        }
        let mean = sum / n as f64;
        assert!((mean - 10_500.0).abs() < 500.0, "mean = {mean}");
    }

    #[test]
    #[should_panic(expected = "lo > hi")]
    fn bad_uniform_panics() {
        let m = DelayModel::Uniform {
            lo: SimDuration::from_micros(5),
            hi: SimDuration::from_micros(1),
        };
        m.sample(&mut rng());
    }

    #[test]
    fn mean_us_reports_theoretical_mean() {
        assert_eq!(DelayModel::constant_ms(2).mean_us(), 2000.0);
        assert_eq!(
            DelayModel::Uniform {
                lo: SimDuration::from_micros(0),
                hi: SimDuration::from_micros(10)
            }
            .mean_us(),
            5.0
        );
        assert_eq!(DelayModel::normal_ms(100.0, 50.0).mean_us(), 100_000.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let m = DelayModel::normal_ms(10.0, 2.0);
        let a: Vec<_> = {
            let mut r = SmallRng::seed_from_u64(7);
            (0..32).map(|_| m.sample(&mut r)).collect()
        };
        let b: Vec<_> = {
            let mut r = SmallRng::seed_from_u64(7);
            (0..32).map(|_| m.sample(&mut r)).collect()
        };
        assert_eq!(a, b);
    }
}
