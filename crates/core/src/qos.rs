//! The QoS model: timeliness and consistency specifications (paper §2).
//!
//! Consistency is a two-dimensional attribute `<ordering guarantee,
//! staleness threshold>`; timeliness is the pair `<deadline, probability>`.
//! Clients attach a [`QosSpec`] to read-only requests; update operations
//! carry no timeliness constraint and are ordered by the service's
//! guarantee (sequential, in this implementation).

use crate::wire::MethodId;
use aqf_sim::SimDuration;
use std::collections::HashSet;
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

/// Registry of read-only method names.
///
/// "A client application has to explicitly specify all the read-only methods
/// it invokes on an object by their names. If an operation is not specified
/// as read-only, then our middleware considers it to be an update operation"
/// (paper §2).
#[derive(Debug, Clone, Default)]
pub struct ReadOnlyRegistry {
    methods: HashSet<String>,
    /// Bitmap over interned [`MethodId`] indices, so classifying an
    /// in-flight operation is an array probe instead of a string hash.
    /// Derived from `methods`; not part of the registry's identity.
    read_only_bits: Vec<bool>,
}

impl PartialEq for ReadOnlyRegistry {
    fn eq(&self, other: &Self) -> bool {
        self.methods == other.methods
    }
}

impl Eq for ReadOnlyRegistry {}

/// Classification of an invocation by the request model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperationKind {
    /// Retrieves state only; eligible for QoS-driven replica selection.
    ReadOnly,
    /// Modifies state (write-only or read-write); multicast to the primary
    /// group and sequenced.
    Update,
}

impl ReadOnlyRegistry {
    /// Creates an empty registry (every method is treated as an update).
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares `method` as read-only.
    pub fn declare_read_only(&mut self, method: impl Into<String>) {
        let method = method.into();
        let idx = MethodId::intern(&method).index();
        if idx >= self.read_only_bits.len() {
            self.read_only_bits.resize(idx + 1, false);
        }
        self.read_only_bits[idx] = true;
        self.methods.insert(method);
    }

    /// Classifies an invocation: read-only if declared, update otherwise.
    pub fn classify(&self, method: &str) -> OperationKind {
        if self.methods.contains(method) {
            OperationKind::ReadOnly
        } else {
            OperationKind::Update
        }
    }

    /// Classifies an interned method id: a bounds-checked array probe, no
    /// hashing or string comparison.
    pub fn classify_id(&self, method: MethodId) -> OperationKind {
        if self
            .read_only_bits
            .get(method.index())
            .copied()
            .unwrap_or(false)
        {
            OperationKind::ReadOnly
        } else {
            OperationKind::Update
        }
    }

    /// Number of declared read-only methods.
    pub fn len(&self) -> usize {
        self.methods.len()
    }

    /// Whether no methods are declared.
    pub fn is_empty(&self) -> bool {
        self.methods.is_empty()
    }
}

impl<S: Into<String>> FromIterator<S> for ReadOnlyRegistry {
    fn from_iter<T: IntoIterator<Item = S>>(iter: T) -> Self {
        let mut reg = Self::new();
        for m in iter {
            reg.declare_read_only(m);
        }
        reg
    }
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
    fn registry_classifies() {
        let reg: ReadOnlyRegistry = ["get", "peek"].into_iter().collect();
        assert_eq!(reg.classify("get"), OperationKind::ReadOnly);
        assert_eq!(reg.classify("peek"), OperationKind::ReadOnly);
        assert_eq!(reg.classify("set"), OperationKind::Update);
        assert_eq!(reg.classify("GET"), OperationKind::Update); // case sensitive
                                                                // The array probe agrees with the string path.
        assert_eq!(
            reg.classify_id(MethodId::intern("get")),
            OperationKind::ReadOnly
        );
        assert_eq!(
            reg.classify_id(MethodId::intern("peek")),
            OperationKind::ReadOnly
        );
        assert_eq!(
            reg.classify_id(MethodId::intern("set")),
            OperationKind::Update
        );
        assert_eq!(reg.len(), 2);
        assert!(!reg.is_empty());
    }

    #[test]
    fn empty_registry_treats_all_as_updates() {
        let reg = ReadOnlyRegistry::new();
        assert!(reg.is_empty());
        assert_eq!(reg.classify("anything"), OperationKind::Update);
    }

    #[test]
    fn display_impls() {
        assert_eq!(OrderingGuarantee::Sequential.to_string(), "sequential");
        let q = QosSpec::new(3, SimDuration::from_millis(200), 0.5).unwrap();
        assert!(q.to_string().contains("0.50"));
        assert!(QosError::ZeroDeadline.to_string().contains("positive"));
    }
}
