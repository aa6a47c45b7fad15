//! Statistical toolkit for the AQF middleware.
//!
//! This crate provides the probabilistic machinery required by the replica
//! selection model of Krishnamurthy, Sanders & Cukier (DSN 2002):
//!
//! * [`SlidingWindow`] — fixed-capacity windows of recent performance
//!   measurements (the paper's "information repository" windows of size `l`),
//!   each with a sorted view,
//! * [`Pmf`] — empirical probability mass functions over integer-valued
//!   samples (microsecond durations), with the discrete convolution used to
//!   combine service time, queueing delay, gateway delay, and deferred-wait
//!   distributions into a response-time distribution (paper §5.2), and
//!   [`count_pairs_le`], which reads the same distribution's CDF off two
//!   sorted windows by counting,
//! * [`poisson`] — the Poisson cumulative distribution used for the
//!   staleness factor `P(A_s(t) <= a)` (paper Eq. 4),
//! * [`RateEstimator`] — the windowed arrival-rate estimator
//!   `lambda_u = sum(n_u) / sum(t_u)` (paper §5.4.1), and the staleness
//!   factor from it: Eq. 4 while the windowed counts look Poisson, a rate
//!   mixture once the [`chi2`] dispersion test says they do not,
//! * [`ci`] — binomial proportion confidence intervals used to report the
//!   experimental timing-failure probabilities (paper §6),
//! * [`Summary`] — descriptive statistics for experiment reporting.
//!
//! All duration-valued samples are plain `u64` microsecond counts so the crate
//! stays independent of any particular runtime's time representation.
//!
//! # Example
//!
//! ```
//! use aqf_stats::{Pmf, SlidingWindow};
//!
//! let mut service = SlidingWindow::new(20);
//! let mut queue = SlidingWindow::new(20);
//! for s in [90_000u64, 100_000, 110_000] {
//!     service.push(s);
//! }
//! for w in [5_000u64, 10_000] {
//!     queue.push(w);
//! }
//! let response = Pmf::from_samples(service.iter())
//!     .convolve(&Pmf::from_samples(queue.iter()))
//!     .shift(2_000); // most recent gateway delay as a point mass
//! assert!(response.cdf(200_000) > 0.99);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chi2;
pub mod ci;
pub mod pmf;
pub mod poisson;
pub mod rate;
pub mod summary;
pub mod window;

pub use ci::BinomialCi;
pub use pmf::{count_pairs_le, Pmf};
pub use poisson::poisson_cdf;
pub use rate::RateEstimator;
pub use summary::Summary;
pub use window::SlidingWindow;
