//! Higher-level QoS specifications (paper §7): "it is easy to extend our
//! framework so that the clients can replace the probability of timely
//! response with a higher-level specification, such as priority or the
//! cost the client is willing to pay for timely delivery. The middleware
//! can then internally map these higher level inputs to an appropriate
//! probability value and perform adaptive replica selection."
//!
//! This module provides the priority mapping: a [`PriorityMap`]
//! translating service classes to minimum probabilities.

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
}
