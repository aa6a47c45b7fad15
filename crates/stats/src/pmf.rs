//! Empirical probability mass functions and discrete convolution.
//!
//! The selection model (paper §5.2) computes the pmf of the response time
//! `R_i = S_i + W_i + G_i` (immediate reads, Eq. 5) or
//! `R_i = S_i + W_i + G_i + U_i` (deferred reads, Eq. 6) "as a discrete
//! convolution" of the empirical pmfs of the constituent delays, where the
//! pmfs are built "based on the relative frequency of their values recorded
//! in the sliding window". The value of the response-time distribution
//! function `F_{R_i}(d)` is then read off the accumulated pmf.
//!
//! [`Pmf::convolve`] is that computation, kept as the paper's reference:
//! Figure 3's "before" and the oracle the client's model is tested against.
//! The client itself no longer convolves. Every sample of a window of `l`
//! has mass `1/l`, so the convolution's CDF at `x` is a count of sample
//! pairs whose sum is at most `x`, divided once; [`count_pairs_le`] counts
//! them over two sorted windows in `O(l)`.
//!
//! Samples are `u64` microsecond counts. The pmf is stored sparsely as a
//! sorted vector of `(value, probability)` pairs; convolving two windows of
//! size `l` accumulates the `l^2` pair sums in a sorted map, `O(l^2 log l)`.

use std::collections::BTreeMap;

/// A sparse empirical probability mass function over `u64` sample values.
///
/// # Example
///
/// ```
/// use aqf_stats::Pmf;
///
/// let pmf = Pmf::from_samples([1u64, 1, 3].into_iter());
/// assert!((pmf.probability(1) - 2.0 / 3.0).abs() < 1e-12);
/// assert!((pmf.cdf(2) - 2.0 / 3.0).abs() < 1e-12);
/// assert_eq!(pmf.cdf(3), 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct Pmf {
    /// Sorted `(value, probability)` pairs with strictly increasing values.
    points: Vec<(u64, f64)>,
    /// Prefix sums of the probabilities: `cum[i] = sum(points[..=i].1)`.
    /// Precomputed once at construction so every CDF query is a binary
    /// search plus one lookup instead of a linear accumulation.
    cum: Vec<f64>,
}

impl PartialEq for Pmf {
    fn eq(&self, other: &Self) -> bool {
        // `cum` is derived deterministically from `points`.
        self.points == other.points
    }
}

impl Pmf {
    /// Builds a pmf from already sorted, deduplicated points, computing the
    /// cumulative prefix sums.
    fn with_points(points: Vec<(u64, f64)>) -> Self {
        let mut cum = Vec::with_capacity(points.len());
        let mut acc = 0.0f64;
        for &(_, p) in &points {
            acc += p;
            cum.push(acc);
        }
        Self { points, cum }
    }

    /// Builds the empirical pmf of a set of samples by relative frequency.
    ///
    /// Returns an empty pmf if the iterator yields no samples; an empty pmf
    /// behaves as "no information" (its CDF is zero everywhere).
    pub fn from_samples<I: Iterator<Item = u64>>(samples: I) -> Self {
        let mut values: Vec<u64> = samples.collect();
        if values.is_empty() {
            return Self::with_points(Vec::new());
        }
        values.sort_unstable();
        let n = values.len() as f64;
        // Run-length encode the sorted samples; the counts are exact
        // integers, so the probabilities are the same divisions a map-based
        // counter would produce.
        let mut points: Vec<(u64, f64)> = Vec::new();
        let mut run_value = values[0];
        let mut run_len = 0u64;
        for v in values {
            if v == run_value {
                run_len += 1;
            } else {
                points.push((run_value, run_len as f64 / n));
                run_value = v;
                run_len = 1;
            }
        }
        points.push((run_value, run_len as f64 / n));
        Self::with_points(points)
    }

    /// A distribution placing all mass on a single value.
    ///
    /// Used for the gateway delay `G_i`, for which the paper uses "its most
    /// recently recorded value instead of its history" (§5.2.2).
    pub fn point_mass(value: u64) -> Self {
        Self::with_points(vec![(value, 1.0)])
    }

    /// Whether this pmf carries no mass (built from zero samples).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Number of distinct support points.
    pub fn support_len(&self) -> usize {
        self.points.len()
    }

    /// Iterates over `(value, probability)` support points in increasing
    /// value order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.points.iter().copied()
    }

    /// Probability mass at exactly `value`.
    pub fn probability(&self, value: u64) -> f64 {
        match self.points.binary_search_by_key(&value, |&(v, _)| v) {
            Ok(idx) => self.points[idx].1,
            Err(_) => 0.0,
        }
    }

    /// Cumulative distribution function `P(X <= x)`.
    ///
    /// A binary search over the support plus one prefix-sum lookup —
    /// `O(log n)` rather than a linear accumulation.
    ///
    /// An empty pmf returns 0 for every `x` ("no information recorded yet"),
    /// which makes a replica with no history look unable to meet any
    /// deadline; the selection algorithm then keeps adding replicas, which is
    /// the conservative behaviour we want during warm-up.
    pub fn cdf(&self, x: u64) -> f64 {
        let idx = self.points.partition_point(|&(v, _)| v <= x);
        if idx == 0 {
            0.0
        } else {
            self.cum[idx - 1].min(1.0)
        }
    }

    /// Mean of the distribution, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.points.is_empty() {
            None
        } else {
            Some(self.points.iter().map(|&(v, p)| v as f64 * p).sum())
        }
    }

    /// Discrete convolution with another pmf: the distribution of the sum of
    /// two independent samples.
    ///
    /// Convolving with an empty pmf yields an empty pmf (the sum of an
    /// unknown quantity is unknown).
    pub fn convolve(&self, other: &Pmf) -> Pmf {
        let mut acc: BTreeMap<u64, f64> = BTreeMap::new();
        for &(v1, p1) in &self.points {
            for &(v2, p2) in &other.points {
                *acc.entry(v1.saturating_add(v2)).or_insert(0.0) += p1 * p2;
            }
        }
        Pmf::with_points(acc.into_iter().collect())
    }

    /// Shifts the distribution right by a constant (convolution with a point
    /// mass at `offset`).
    pub fn shift(&self, offset: u64) -> Pmf {
        Pmf::with_points(
            self.points
                .iter()
                .map(|&(v, p)| (v.saturating_add(offset), p))
                .collect(),
        )
    }

    /// Total probability mass (1 for non-empty pmfs, up to rounding).
    pub fn total_mass(&self) -> f64 {
        self.points.iter().map(|&(_, p)| p).sum()
    }
}

/// The number of pairs `(i, j)` with `a[i] + b[j] <= x`, for `a` and `b`
/// sorted ascending: `|a| · |b|` times the CDF at `x` of
/// `Pmf::from_samples(a).convolve(&Pmf::from_samples(b))`, as an exact
/// integer.
///
/// Two pointers, `O(|a| + |b|)`: as `a[i]` grows the largest admissible
/// `b[j]` can only shrink. Sums are exact — they do not saturate at
/// `u64::MAX` as [`Pmf::convolve`]'s do.
///
/// ```
/// use aqf_stats::count_pairs_le;
///
/// // 1+10, 1+20 and 2+10 are within 21; 2+20 is not.
/// assert_eq!(count_pairs_le(&[1, 2], &[10, 20], 21), 3);
/// ```
pub fn count_pairs_le(a: &[u64], b: &[u64], x: u64) -> u64 {
    let mut admitted = b.len();
    let mut count = 0u64;
    for &ai in a {
        let Some(rest) = x.checked_sub(ai) else {
            break;
        };
        while admitted > 0 && b[admitted - 1] > rest {
            admitted -= 1;
        }
        if admitted == 0 {
            break;
        }
        count += admitted as u64;
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }

    /// The map accumulators the flat-vector paths replaced, kept as test
    /// oracles for the bit-identity proofs below.
    fn from_samples_btree_reference(samples: &[u64]) -> Vec<(u64, f64)> {
        let mut counts: BTreeMap<u64, u64> = BTreeMap::new();
        for &s in samples {
            *counts.entry(s).or_insert(0) += 1;
        }
        let n = samples.len() as f64;
        counts.into_iter().map(|(v, c)| (v, c as f64 / n)).collect()
    }

    fn assert_bit_identical(actual: &Pmf, expected: &[(u64, f64)]) {
        assert_eq!(actual.support_len(), expected.len());
        for ((va, pa), &(ve, pe)) in actual.iter().zip(expected) {
            assert_eq!(va, ve);
            assert_eq!(pa.to_bits(), pe.to_bits(), "probability at {va} differs");
        }
    }

    #[test]
    fn from_samples_relative_frequency() {
        let pmf = Pmf::from_samples([5u64, 5, 5, 7].into_iter());
        assert_close(pmf.probability(5), 0.75);
        assert_close(pmf.probability(7), 0.25);
        assert_close(pmf.probability(6), 0.0);
        assert_eq!(pmf.support_len(), 2);
    }

    #[test]
    fn empty_pmf_behaviour() {
        let pmf = Pmf::from_samples(std::iter::empty());
        assert!(pmf.is_empty());
        assert_eq!(pmf.cdf(u64::MAX), 0.0);
        assert_eq!(pmf.mean(), None);
        assert!(pmf.convolve(&Pmf::point_mass(3)).is_empty());
    }

    #[test]
    fn cdf_steps() {
        let pmf = Pmf::from_samples([10u64, 20].into_iter());
        assert_close(pmf.cdf(9), 0.0);
        assert_close(pmf.cdf(10), 0.5);
        assert_close(pmf.cdf(19), 0.5);
        assert_close(pmf.cdf(20), 1.0);
        assert_close(pmf.cdf(u64::MAX), 1.0);
    }

    #[test]
    fn point_mass_is_degenerate() {
        let pmf = Pmf::point_mass(42);
        assert_close(pmf.probability(42), 1.0);
        assert_close(pmf.cdf(41), 0.0);
        assert_close(pmf.cdf(42), 1.0);
        assert_eq!(pmf.mean(), Some(42.0));
    }

    #[test]
    fn convolution_of_two_coins() {
        // {0, 1} uniform + {0, 1} uniform = {0: .25, 1: .5, 2: .25}
        let a = Pmf::from_samples([0u64, 1].into_iter());
        let b = Pmf::from_samples([0u64, 1].into_iter());
        let c = a.convolve(&b);
        assert_close(c.probability(0), 0.25);
        assert_close(c.probability(1), 0.5);
        assert_close(c.probability(2), 0.25);
        assert_close(c.total_mass(), 1.0);
    }

    #[test]
    fn convolution_with_point_mass_is_shift() {
        let a = Pmf::from_samples([3u64, 9, 9].into_iter());
        let shifted = a.convolve(&Pmf::point_mass(100));
        assert_eq!(shifted, a.shift(100));
    }

    #[test]
    fn convolution_mean_is_sum_of_means() {
        let a = Pmf::from_samples([1u64, 2, 3].into_iter());
        let b = Pmf::from_samples([10u64, 20].into_iter());
        let c = a.convolve(&b);
        assert_close(c.mean().unwrap(), a.mean().unwrap() + b.mean().unwrap());
    }

    #[test]
    fn saturating_convolution_does_not_overflow() {
        let a = Pmf::point_mass(u64::MAX - 1);
        let b = Pmf::point_mass(10);
        let c = a.convolve(&b);
        assert_close(c.probability(u64::MAX), 1.0);
    }

    proptest! {
        #[test]
        fn cdf_monotone(samples in proptest::collection::vec(0u64..10_000, 1..64)) {
            let pmf = Pmf::from_samples(samples.into_iter());
            let mut prev = 0.0f64;
            for x in (0..12_000u64).step_by(37) {
                let c = pmf.cdf(x);
                prop_assert!(c + 1e-12 >= prev);
                prop_assert!((0.0..=1.0 + 1e-9).contains(&c));
                prev = c;
            }
        }

        #[test]
        fn convolution_mass_conserved(
            a in proptest::collection::vec(0u64..1000, 1..32),
            b in proptest::collection::vec(0u64..1000, 1..32),
        ) {
            let pa = Pmf::from_samples(a.into_iter());
            let pb = Pmf::from_samples(b.into_iter());
            let c = pa.convolve(&pb);
            prop_assert!((c.total_mass() - 1.0).abs() < 1e-9);
        }

        #[test]
        fn convolution_commutes(
            a in proptest::collection::vec(0u64..1000, 1..24),
            b in proptest::collection::vec(0u64..1000, 1..24),
        ) {
            let pa = Pmf::from_samples(a.into_iter());
            let pb = Pmf::from_samples(b.into_iter());
            let ab = pa.convolve(&pb);
            let ba = pb.convolve(&pa);
            prop_assert_eq!(ab.support_len(), ba.support_len());
            for ((v1, p1), (v2, p2)) in ab.iter().zip(ba.iter()) {
                prop_assert_eq!(v1, v2);
                prop_assert!((p1 - p2).abs() < 1e-12);
            }
        }

        #[test]
        fn count_pairs_le_is_the_scaled_convolution_cdf(
            // A narrow range, so duplicates and colliding sums are the rule.
            a in proptest::collection::vec(0u64..200, 1..=20),
            b in proptest::collection::vec(0u64..200, 1..=20),
            x in 0u64..450,
        ) {
            let (mut a, mut b) = (a, b);
            a.sort_unstable();
            b.sort_unstable();
            let brute = a.iter().flat_map(|&ai| b.iter().map(move |&bj| ai + bj))
                .filter(|&sum| sum <= x)
                .count() as u64;
            prop_assert_eq!(count_pairs_le(&a, &b, x), brute);
            let cdf = Pmf::from_samples(a.iter().copied())
                .convolve(&Pmf::from_samples(b.iter().copied()))
                .cdf(x);
            let counted = brute as f64 / (a.len() * b.len()) as f64;
            prop_assert!((cdf - counted).abs() < 1e-12, "{} vs {}", cdf, counted);
        }

        #[test]
        fn from_samples_bit_identical_to_btree_counter(
            samples in proptest::collection::vec(0u64..200, 1..64),
        ) {
            let expected = from_samples_btree_reference(&samples);
            assert_bit_identical(&Pmf::from_samples(samples.into_iter()), &expected);
        }

        #[test]
        fn cdf_matches_linear_accumulation(
            samples in proptest::collection::vec(0u64..10_000, 1..64),
            queries in proptest::collection::vec(0u64..12_000, 1..32),
        ) {
            // The prefix-sum binary search must agree bit-for-bit with the
            // naive left-to-right accumulation it replaced.
            let pmf = Pmf::from_samples(samples.into_iter());
            for x in queries {
                let mut acc = 0.0f64;
                for (v, p) in pmf.iter() {
                    if v > x {
                        break;
                    }
                    acc += p;
                }
                prop_assert_eq!(pmf.cdf(x), acc.min(1.0));
            }
        }
    }
}
