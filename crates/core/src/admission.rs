//! Admission control — the extension sketched in the paper's conclusions
//! (§7): "with some modifications, we can also use our framework to perform
//! admission control, in order to determine the clients that can be
//! admitted based on the current availability of the replicas."
//!
//! [`decide`] evaluates the best achievable `P_K(d)` over *all*
//! available replicas (with the single-failure exclusion applied, matching
//! Algorithm 1's conservatism) and admits a client only if that bound meets
//! the client's requested probability.

use crate::model::{Candidate, InclusionState};
use crate::qos::QosSpec;

/// Outcome of an admission test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionDecision {
    /// Whether the client's QoS specification is attainable.
    pub admit: bool,
    /// The best achievable `P_K(d)` with the current replica pool (after
    /// the single-failure exclusion).
    pub achievable: f64,
    /// The probability the client requested.
    pub requested: f64,
}

/// Decides whether a client with specification `qos` can be admitted
/// given the current `candidates` and secondary-group `stale_factor`.
///
/// Mirrors Algorithm 1's failure tolerance: the candidate with the
/// highest immediate CDF is excluded before computing the bound. The
/// caller's information repository holds the state the candidates are
/// built from, so the decision itself is stateless.
pub fn decide(candidates: &[Candidate], stale_factor: f64, qos: &QosSpec) -> AdmissionDecision {
    let best = candidates
        .iter()
        .enumerate()
        .max_by(|(_, x), (_, y)| x.immediate_cdf.total_cmp(&y.immediate_cdf))
        .map(|(i, _)| i);
    let mut state = InclusionState::new(stale_factor);
    for (i, c) in candidates.iter().enumerate() {
        if Some(i) == best {
            continue;
        }
        state.include(c);
    }
    let achievable = state.predicted();
    AdmissionDecision {
        admit: achievable >= qos.min_probability,
        achievable,
        requested: qos.min_probability,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqf_sim::{ActorId, SimDuration};

    fn cand(i: usize, fi: f64) -> Candidate {
        Candidate {
            id: ActorId::from_index(i),
            is_primary: true,
            immediate_cdf: fi,
            deferred_cdf: 0.0,
            ert_us: 0,
        }
    }

    fn qos(pc: f64) -> QosSpec {
        QosSpec::new(2, SimDuration::from_millis(100), pc).unwrap()
    }

    #[test]
    fn admits_attainable_spec() {
        let cands = vec![cand(0, 0.9), cand(1, 0.9), cand(2, 0.9)];
        // Excluding one 0.9 replica: 1 - 0.1^2 = 0.99.
        let d = decide(&cands, 1.0, &qos(0.95));
        assert!(d.admit);
        assert!((d.achievable - 0.99).abs() < 1e-12);
    }

    #[test]
    fn rejects_unattainable_spec() {
        let cands = vec![cand(0, 0.5), cand(1, 0.5)];
        // Excluding one: achievable = 0.5 < 0.9.
        let d = decide(&cands, 1.0, &qos(0.9));
        assert!(!d.admit);
        assert_eq!(d.requested, 0.9);
    }

    #[test]
    fn empty_pool_rejects_everything() {
        let d = decide(&[], 1.0, &qos(0.01));
        assert!(!d.admit);
        assert_eq!(d.achievable, 0.0);
    }
}
