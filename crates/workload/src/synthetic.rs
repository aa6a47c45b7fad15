//! Synthetic repository construction for CPU-overhead (Figure 3),
//! admission, and benchmark studies: fills client-side sliding windows with
//! measurements drawn from the same distributions the paper's testbed
//! produced, without running a full scenario.

use crate::actors::SERVICE_DELAY;
use aqf_core::wire::{PerfBroadcast, PublisherInfo, ReadMeasurement};
use aqf_core::{Candidate, CandidateKey, InfoRepository};
use aqf_sim::{ActorId, DelayModel, SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Builds a repository for `n` replicas with full sliding windows of size
/// `window`: service times drawn from [`SERVICE_DELAY`], queueing ~ Exp(10 ms),
/// deferred waits ~ U(0, 4 s) on every third read, gateway delays around
/// 1 ms, and mid-period publisher bookkeeping at ~1 update/s.
pub fn synthetic_repository(n: usize, window: usize, seed: u64) -> InfoRepository {
    let mut repo = InfoRepository::new(window);
    let mut rng = SmallRng::seed_from_u64(seed);
    let queue = DelayModel::Exponential {
        mean_us: 10_000.0,
        min: SimDuration::ZERO,
    };
    let deferred = DelayModel::Uniform {
        lo: SimDuration::ZERO,
        hi: SimDuration::from_secs(4),
    };
    let now = SimTime::from_secs(100);
    for i in 0..n {
        let replica = ActorId::from_index(i + 1);
        for k in 0..window {
            let tb = if k % 3 == 0 {
                deferred.sample(&mut rng).as_micros()
            } else {
                0
            };
            repo.record_perf(
                replica,
                &PerfBroadcast {
                    read: Some(ReadMeasurement {
                        ts_us: SERVICE_DELAY.sample(&mut rng).as_micros(),
                        tq_us: queue.sample(&mut rng).as_micros(),
                        tb_us: tb,
                    }),
                    publisher: None,
                },
                now,
            );
        }
        // A recent reply fixes the gateway delay and ert.
        let tm = now - SimDuration::from_millis(120 + 10 * i as u64);
        repo.record_reply(replica, 110_000, tm, tm + SimDuration::from_millis(111));
    }
    repo.record_perf(
        ActorId::from_index(1),
        &PerfBroadcast {
            read: None,
            publisher: Some(PublisherInfo {
                n_u: 4,
                t_u: SimDuration::from_secs(4),
                n_l: 1,
                t_l: SimDuration::from_secs(1),
                period: SimDuration::from_secs(4),
            }),
        },
        now,
    );
    repo
}

/// Evaluates the model inputs for `n` replicas against `deadline` (the
/// "computation of the response time distribution function" part of the
/// paper's Figure 3 overhead). Replicas `1..=n_primaries` are primaries,
/// the rest secondaries.
pub fn build_candidates(
    repo: &InfoRepository,
    n: usize,
    n_primaries: usize,
    deadline: SimDuration,
    now: SimTime,
) -> Vec<Candidate> {
    (0..n)
        .map(|i| repo.candidate(ActorId::from_index(i + 1), i < n_primaries, deadline, now))
        .collect()
}

/// The same `n` candidates without any distribution evaluated — what
/// [`InfoRepository::on_demand`] takes, for the arms that let Algorithm 1
/// decide which replicas to evaluate.
pub fn candidate_keys(
    repo: &InfoRepository,
    n: usize,
    n_primaries: usize,
    now: SimTime,
) -> Vec<CandidateKey> {
    (0..n)
        .map(|i| repo.candidate_key(ActorId::from_index(i + 1), i < n_primaries, now))
        .collect()
}

/// [`build_candidates`] evaluated through the paper's convolution (the
/// repository's `*_uncached` CDFs): every call re-runs the `S⊛W`
/// convolution per replica. This is the "before" arm of the Figure 3
/// overhead study; production code uses [`build_candidates`], which counts
/// over the sorted windows.
pub fn build_candidates_uncached(
    repo: &InfoRepository,
    n: usize,
    n_primaries: usize,
    deadline: SimDuration,
    now: SimTime,
) -> Vec<Candidate> {
    (0..n)
        .map(|i| {
            let id = ActorId::from_index(i + 1);
            let is_primary = i < n_primaries;
            Candidate {
                id,
                is_primary,
                immediate_cdf: repo.immediate_cdf_uncached(id, deadline),
                deferred_cdf: if is_primary {
                    0.0
                } else {
                    repo.deferred_cdf_uncached(id, deadline)
                },
                ert_us: repo.ert_us(id, now),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repository_is_warm() {
        let repo = synthetic_repository(5, 20, 1);
        assert_eq!(repo.tracked_replicas(), 5);
        let d = SimDuration::from_millis(300);
        for i in 1..=5 {
            let id = ActorId::from_index(i);
            assert!(repo.immediate_cdf(id, d) > 0.5, "replica {i} warm");
            assert!(repo.ert_us(id, SimTime::from_secs(100)) < u64::MAX);
        }
        assert!(repo.update_rate_per_us().is_some());
    }

    #[test]
    fn candidates_respect_roles() {
        let repo = synthetic_repository(6, 10, 2);
        let cands = build_candidates(
            &repo,
            6,
            2,
            SimDuration::from_millis(200),
            SimTime::from_secs(100),
        );
        assert_eq!(cands.len(), 6);
        assert!(cands[0].is_primary && cands[1].is_primary);
        assert!(!cands[2].is_primary);
        assert_eq!(
            cands[0].deferred_cdf, 0.0,
            "primaries have no deferred path"
        );
        assert!(cands[5].deferred_cdf >= 0.0);
    }

    #[test]
    fn uncached_candidates_match_cached() {
        let repo = synthetic_repository(8, 20, 3);
        let d = SimDuration::from_millis(250);
        let now = SimTime::from_secs(100);
        let counted = build_candidates(&repo, 8, 3, d, now);
        let convolved = build_candidates_uncached(&repo, 8, 3, d, now);
        assert_eq!(counted.len(), convolved.len());
        for (c, v) in counted.iter().zip(&convolved) {
            assert_eq!(
                (c.id, c.is_primary, c.ert_us),
                (v.id, v.is_primary, v.ert_us)
            );
            assert!(
                (c.immediate_cdf - v.immediate_cdf).abs() < 1e-12,
                "{c:?} vs {v:?}"
            );
            assert!(
                (c.deferred_cdf - v.deferred_cdf).abs() < 1e-12,
                "{c:?} vs {v:?}"
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = synthetic_repository(4, 10, 9);
        let b = synthetic_repository(4, 10, 9);
        let d = SimDuration::from_millis(150);
        for i in 1..=4 {
            let id = ActorId::from_index(i);
            assert_eq!(a.immediate_cdf(id, d), b.immediate_cdf(id, d));
        }
    }
}
