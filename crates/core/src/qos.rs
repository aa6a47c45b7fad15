//! The QoS model: timeliness and consistency specifications (paper §2).
//!
//! Consistency is a two-dimensional attribute `<ordering guarantee,
//! staleness threshold>`; timeliness is the pair `<deadline, probability>`.
//! Clients attach a [`QosSpec`] to read-only requests; update operations
//! carry no timeliness constraint and are ordered by the service's
//! guarantee (sequential, in this implementation).

use aqf_sim::SimDuration;
use std::fmt;

/// Ordering guarantee offered by a replicated service to all of its clients
/// (paper §2). This implementation provides handlers for sequential
/// ordering; the enum records the service contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OrderingGuarantee {
    /// Total order: all replicas commit updates in the same sequence
    /// (implemented by the GSN protocol of §4.1).
    Sequential,
    /// Causal order (not implemented; listed for the service contract).
    Causal,
    /// Per-sender FIFO order (provided natively by the group layer).
    Fifo,
}

impl fmt::Display for OrderingGuarantee {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrderingGuarantee::Sequential => write!(f, "sequential"),
            OrderingGuarantee::Causal => write!(f, "causal"),
            OrderingGuarantee::Fifo => write!(f, "fifo"),
        }
    }
}

/// A client's QoS specification for read-only requests: "a copy ... that is
/// not more than `a` versions old within `d` seconds with a probability of
/// at least `Pc`" (paper §2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosSpec {
    /// Maximum staleness `a`, in versions, tolerable in the response.
    pub staleness_threshold: u32,
    /// Response-time constraint `d`.
    pub deadline: SimDuration,
    /// Minimum probability `Pc(d)` of meeting the deadline.
    pub min_probability: f64,
}

impl QosSpec {
    /// Creates a validated QoS specification.
    ///
    /// # Errors
    ///
    /// Returns [`QosError::InvalidProbability`] if `min_probability` is not
    /// in `[0, 1]`, and [`QosError::ZeroDeadline`] if the deadline is zero.
    pub fn new(
        staleness_threshold: u32,
        deadline: SimDuration,
        min_probability: f64,
    ) -> Result<Self, QosError> {
        if !(0.0..=1.0).contains(&min_probability) || !min_probability.is_finite() {
            return Err(QosError::InvalidProbability(min_probability));
        }
        if deadline.is_zero() {
            return Err(QosError::ZeroDeadline);
        }
        Ok(Self {
            staleness_threshold,
            deadline,
            min_probability,
        })
    }

    /// The example from the paper: at most 5 versions old, within 2 s, with
    /// probability at least 0.7.
    pub fn document_sharing_example() -> Self {
        Self::new(5, SimDuration::from_secs(2), 0.7).expect("valid example spec")
    }
}

impl fmt::Display for QosSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "<=:{} versions, d:{}, Pc:{:.2}",
            self.staleness_threshold, self.deadline, self.min_probability
        )
    }
}

/// Errors constructing a [`QosSpec`].
#[derive(Debug, Clone, PartialEq)]
pub enum QosError {
    /// The probability was outside `[0, 1]` or not finite.
    InvalidProbability(f64),
    /// A zero deadline can never be met.
    ZeroDeadline,
}

impl fmt::Display for QosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QosError::InvalidProbability(p) => {
                write!(f, "probability {p} is not in [0, 1]")
            }
            QosError::ZeroDeadline => write!(f, "deadline must be positive"),
        }
    }
}

impl std::error::Error for QosError {}

/// Classification of an invocation by the request model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperationKind {
    /// Retrieves state only; eligible for QoS-driven replica selection.
    ReadOnly,
    /// Modifies state (write-only or read-write); multicast to the primary
    /// group and sequenced.
    Update,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qos_spec_validation() {
        assert!(QosSpec::new(2, SimDuration::from_millis(100), 0.9).is_ok());
        assert_eq!(
            QosSpec::new(2, SimDuration::from_millis(100), 1.5),
            Err(QosError::InvalidProbability(1.5))
        );
        assert_eq!(
            QosSpec::new(2, SimDuration::from_millis(100), -0.1),
            Err(QosError::InvalidProbability(-0.1))
        );
        assert_eq!(
            QosSpec::new(2, SimDuration::ZERO, 0.5),
            Err(QosError::ZeroDeadline)
        );
        assert!(QosSpec::new(2, SimDuration::from_millis(1), f64::NAN).is_err());
    }

    #[test]
    fn paper_example() {
        let q = QosSpec::document_sharing_example();
        assert_eq!(q.staleness_threshold, 5);
        assert_eq!(q.deadline, SimDuration::from_secs(2));
        assert_eq!(q.min_probability, 0.7);
    }

    #[test]
    fn display_impls() {
        assert_eq!(OrderingGuarantee::Sequential.to_string(), "sequential");
        let q = QosSpec::new(3, SimDuration::from_millis(200), 0.5).unwrap();
        assert!(q.to_string().contains("0.50"));
        assert!(QosError::ZeroDeadline.to_string().contains("positive"));
    }
}
