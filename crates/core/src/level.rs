//! Higher-level QoS specifications (paper §7): "it is easy to extend our
//! framework so that the clients can replace the probability of timely
//! response with a higher-level specification, such as priority or the
//! cost the client is willing to pay for timely delivery. The middleware
//! can then internally map these higher level inputs to an appropriate
//! probability value and perform adaptive replica selection."
//!
//! This module provides those mappings: a [`PriorityMap`] translating
//! service classes to minimum probabilities, and a [`CostCurve`]
//! translating a willingness-to-pay into a probability with diminishing
//! returns.

use crate::qos::{QosError, QosSpec};
use aqf_sim::SimDuration;

/// A client's service class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Best-effort: tolerate frequent timing failures.
    Low,
    /// Default interactive traffic.
    Normal,
    /// Latency-sensitive traffic.
    High,
    /// Traffic where a timing failure carries a hard penalty.
    Critical,
}

/// Maps service classes to minimum probabilities of timely response.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriorityMap {
    /// Probability for [`Priority::Low`].
    pub low: f64,
    /// Probability for [`Priority::Normal`].
    pub normal: f64,
    /// Probability for [`Priority::High`].
    pub high: f64,
    /// Probability for [`Priority::Critical`].
    pub critical: f64,
}

impl Default for PriorityMap {
    fn default() -> Self {
        Self {
            low: 0.5,
            normal: 0.9,
            high: 0.99,
            critical: 0.999,
        }
    }
}

impl PriorityMap {
    /// Validates that the mapping is made of probabilities and is monotone
    /// in the priority order.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated property.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("low", self.low),
            ("normal", self.normal),
            ("high", self.high),
            ("critical", self.critical),
        ] {
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                return Err(format!("{name} probability {p} is not in [0, 1]"));
            }
        }
        if !(self.low <= self.normal && self.normal <= self.high && self.high <= self.critical) {
            return Err("priority probabilities must be monotone".into());
        }
        Ok(())
    }

    /// The probability assigned to `priority`.
    pub fn probability(&self, priority: Priority) -> f64 {
        match priority {
            Priority::Low => self.low,
            Priority::Normal => self.normal,
            Priority::High => self.high,
            Priority::Critical => self.critical,
        }
    }
}

/// Maps a cost the client is willing to pay into a probability with
/// diminishing returns: `Pc = max_probability * (1 - exp(-cost / scale))`.
///
/// Paying nothing buys probability 0 (pure best-effort); each additional
/// unit of spend buys less probability than the last; no spend reaches
/// beyond `max_probability` (perfect timeliness is not for sale).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostCurve {
    /// Supremum of purchasable probability (e.g. 0.999).
    pub max_probability: f64,
    /// Spend at which ~63% of the maximum is reached.
    pub scale: f64,
}

impl Default for CostCurve {
    fn default() -> Self {
        Self {
            max_probability: 0.999,
            scale: 10.0,
        }
    }
}

impl CostCurve {
    /// The probability purchased by `cost`.
    ///
    /// # Panics
    ///
    /// Panics if the curve is malformed (`max_probability` outside `[0, 1]`
    /// or non-positive `scale`) or `cost` is negative or not finite.
    pub fn probability(&self, cost: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&self.max_probability) && self.scale > 0.0,
            "malformed cost curve"
        );
        assert!(
            cost.is_finite() && cost >= 0.0,
            "cost must be finite and non-negative"
        );
        self.max_probability * (1.0 - (-cost / self.scale).exp())
    }
}

impl QosSpec {
    /// Builds a specification from a service class instead of a raw
    /// probability (paper §7).
    ///
    /// # Errors
    ///
    /// Returns the underlying [`QosError`] for invalid deadlines; the map
    /// should be validated once with [`PriorityMap::validate`].
    pub fn from_priority(
        staleness_threshold: u32,
        deadline: SimDuration,
        priority: Priority,
        map: &PriorityMap,
    ) -> Result<Self, QosError> {
        QosSpec::new(staleness_threshold, deadline, map.probability(priority))
    }

    /// Builds a specification from a willingness-to-pay (paper §7).
    ///
    /// # Errors
    ///
    /// Returns the underlying [`QosError`] for invalid deadlines.
    ///
    /// # Panics
    ///
    /// Panics if the curve is malformed or the cost negative (see
    /// [`CostCurve::probability`]).
    pub fn from_cost(
        staleness_threshold: u32,
        deadline: SimDuration,
        cost: f64,
        curve: &CostCurve,
    ) -> Result<Self, QosError> {
        QosSpec::new(staleness_threshold, deadline, curve.probability(cost))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_map_is_valid_and_monotone() {
        let map = PriorityMap::default();
        assert!(map.validate().is_ok());
        assert!(map.probability(Priority::Low) < map.probability(Priority::Normal));
        assert!(map.probability(Priority::Normal) < map.probability(Priority::High));
        assert!(map.probability(Priority::High) < map.probability(Priority::Critical));
    }

    #[test]
    fn invalid_maps_rejected() {
        let mut map = PriorityMap {
            low: 1.2,
            ..PriorityMap::default()
        };
        assert!(map.validate().is_err());
        map.low = 0.95; // above normal: non-monotone
        assert!(map.validate().is_err());
    }

    #[test]
    fn priority_spec_carries_mapped_probability() {
        let spec = QosSpec::from_priority(
            2,
            SimDuration::from_millis(150),
            Priority::High,
            &PriorityMap::default(),
        )
        .unwrap();
        assert_eq!(spec.min_probability, 0.99);
        assert_eq!(spec.staleness_threshold, 2);
    }

    #[test]
    fn cost_curve_has_diminishing_returns() {
        let curve = CostCurve::default();
        assert_eq!(curve.probability(0.0), 0.0);
        let p10 = curve.probability(10.0);
        let p20 = curve.probability(20.0);
        let p40 = curve.probability(40.0);
        assert!(p10 > 0.6 && p10 < 0.7, "one scale ~ 63%: {p10}");
        assert!(p20 - p10 < p10, "diminishing returns");
        assert!(p40 < curve.max_probability);
        assert!(p40 > p20);
    }

    #[test]
    fn cost_spec_is_usable() {
        let spec = QosSpec::from_cost(
            3,
            SimDuration::from_millis(200),
            30.0,
            &CostCurve::default(),
        )
        .unwrap();
        assert!(spec.min_probability > 0.9 && spec.min_probability < 0.999);
    }

    #[test]
    #[should_panic(expected = "cost must be finite")]
    fn negative_cost_panics() {
        let _ = CostCurve::default().probability(-1.0);
    }

    #[test]
    #[should_panic(expected = "malformed cost curve")]
    fn malformed_curve_panics() {
        let curve = CostCurve {
            max_probability: 1.5,
            scale: 10.0,
        };
        let _ = curve.probability(1.0);
    }
}
