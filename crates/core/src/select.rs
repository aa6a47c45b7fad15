//! Selection policies: the paper's probabilistic algorithm plus the
//! baselines it argues against (§5 intro), used for ablation studies.
//!
//! * [`SelectionPolicy::Probabilistic`] — Algorithm 1 (the contribution).
//! * [`SelectionPolicy::AllReplicas`] — "allocate all the available replicas
//!   to service a single client": not scalable, raises everyone's load.
//! * [`SelectionPolicy::SingleRoundRobin`] — "assigning a single replica to
//!   service each client": concurrent but fragile under failures/overload.
//! * [`SelectionPolicy::RandomK`] — pick `k` uniformly at random: load
//!   balances but ignores both timeliness and staleness.
//! * [`SelectionPolicy::GreedyCdf`] — Algorithm 1's inclusion logic but
//!   visiting replicas by decreasing CDF instead of decreasing `ert`;
//!   demonstrates the hot-spot problem the ert sort exists to avoid.

use crate::model::{
    select_on_demand, Candidate, CandidateOrder, CandidateSource, InclusionState, Selection,
};
use aqf_sim::ActorId;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;

/// Which replica selection strategy a client gateway runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionPolicy {
    /// The paper's state-based probabilistic selection (Algorithm 1).
    Probabilistic,
    /// Send every read to every replica.
    AllReplicas,
    /// Send each read to exactly one replica, rotating round-robin.
    SingleRoundRobin,
    /// Send each read to `k` replicas chosen uniformly at random.
    RandomK(usize),
    /// Algorithm 1 without the least-recently-used ordering: greedy by CDF.
    GreedyCdf,
}

/// Stateful selector owned by a client gateway.
#[derive(Debug, Clone)]
pub struct Selector {
    policy: SelectionPolicy,
    /// Round-robin position, tracked as the last-served replica rather than
    /// a raw index: the candidate list shifts as replicas are quarantined or
    /// rejoin, and an index into yesterday's list silently skips or
    /// double-serves replicas in today's.
    last_served: Option<ActorId>,
}

impl Selector {
    /// Creates a selector for `policy`.
    pub fn new(policy: SelectionPolicy) -> Self {
        Self {
            policy,
            last_served: None,
        }
    }

    /// The configured policy.
    pub fn policy(&self) -> SelectionPolicy {
        self.policy
    }

    /// Chooses the replica set for one read.
    ///
    /// `candidates` are the available (non-sequencer) replicas with model
    /// inputs filled in; `stale_factor` and `min_probability` parameterize
    /// the probabilistic policies; `sequencer` (present only for services
    /// with a sequencer) is always appended; `rng` drives the randomized
    /// baseline.
    pub fn select(
        &mut self,
        mut candidates: &[Candidate],
        stale_factor: f64,
        min_probability: f64,
        sequencer: Option<ActorId>,
        rng: &mut SmallRng,
    ) -> Selection {
        self.select_on_demand(
            &mut candidates,
            stale_factor,
            min_probability,
            sequencer,
            rng,
        )
    }

    /// [`Self::select`] over a [`CandidateSource`]: distribution values are
    /// pulled only for the replicas the policy reads them of — the ones
    /// Algorithm 1's scan visits, the ones a baseline picks.
    pub fn select_on_demand<S: CandidateSource>(
        &mut self,
        source: &mut S,
        stale_factor: f64,
        min_probability: f64,
        sequencer: Option<ActorId>,
        rng: &mut SmallRng,
    ) -> Selection {
        let n = source.count();
        let picks: Vec<usize> = match self.policy {
            SelectionPolicy::Probabilistic | SelectionPolicy::GreedyCdf => {
                // GreedyCdf is Algorithm 1's inclusion logic sorted by CDF
                // only: every client picks the same "best" replicas.
                let order = match self.policy {
                    SelectionPolicy::GreedyCdf => CandidateOrder::CdfDescending,
                    _ => CandidateOrder::LeastRecentlyUsed,
                };
                return select_on_demand(source, stale_factor, min_probability, sequencer, order);
            }
            SelectionPolicy::AllReplicas => (0..n).collect(),
            SelectionPolicy::SingleRoundRobin if n > 0 => {
                let mut ids = (0..n).map(|i| source.key(i).id);
                let idx = match self.last_served {
                    None => 0,
                    Some(last) => match ids.clone().position(|id| id == last) {
                        // The replica we served last is still a candidate:
                        // resume with its successor.
                        Some(i) => (i + 1) % n,
                        // It left the pool (quarantined, removed): resume
                        // with the first candidate ranked after it, so the
                        // rotation continues instead of restarting at 0.
                        None => ids.position(|id| id > last).unwrap_or(0),
                    },
                };
                self.last_served = Some(source.key(idx).id);
                vec![idx]
            }
            SelectionPolicy::SingleRoundRobin => Vec::new(),
            SelectionPolicy::RandomK(k) => {
                let mut picks: Vec<usize> = (0..n).collect();
                picks.shuffle(rng);
                picks.truncate(k.max(1));
                picks
            }
        };
        // The baselines fold every pick into the model, none excluded: they
        // make no single-failure provision.
        let mut state = InclusionState::new(stale_factor);
        let mut replicas: Vec<ActorId> = Vec::with_capacity(picks.len() + 1);
        for index in picks {
            let immediate = source.immediate_cdf(index);
            state.include_from(source, index, immediate);
            replicas.push(source.key(index).id);
        }
        replicas.extend(sequencer);
        let predicted = state.predicted();
        Selection {
            replicas,
            predicted,
            satisfied: predicted >= min_probability,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn a(i: usize) -> ActorId {
        ActorId::from_index(i)
    }

    fn cands(n: usize) -> Vec<Candidate> {
        (0..n)
            .map(|i| Candidate {
                id: a(i),
                is_primary: i % 2 == 0,
                immediate_cdf: 0.5 + 0.04 * i as f64,
                deferred_cdf: 0.2,
                ert_us: (100 - i) as u64,
            })
            .collect()
    }

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(5)
    }

    const SEQ: usize = 42;

    #[test]
    fn all_replicas_selects_everyone() {
        let mut sel = Selector::new(SelectionPolicy::AllReplicas);
        let out = sel.select(&cands(6), 1.0, 0.9, Some(a(SEQ)), &mut rng());
        assert_eq!(out.replicas.len(), 7);
        assert!(out.replicas.contains(&a(SEQ)));
        assert!(out.predicted > 0.9);
        assert!(out.satisfied);
    }

    #[test]
    fn round_robin_rotates() {
        let mut sel = Selector::new(SelectionPolicy::SingleRoundRobin);
        let c = cands(3);
        let mut first_ids = Vec::new();
        for _ in 0..6 {
            let out = sel.select(&c, 1.0, 0.1, Some(a(SEQ)), &mut rng());
            assert_eq!(out.replicas.len(), 2); // one replica + sequencer
            first_ids.push(out.replicas[0]);
        }
        assert_eq!(first_ids, vec![a(0), a(1), a(2), a(0), a(1), a(2)]);
    }

    #[test]
    fn round_robin_survives_quarantine_of_unserved_replica() {
        // Serve 0, then replica 1 is quarantined out of the pool. The old
        // index-based rotation would re-serve 0 (index 1 of [0, 2] is 2, but
        // index math after *two* removals double-served); tracking the last
        // served id resumes cleanly after it.
        let mut sel = Selector::new(SelectionPolicy::SingleRoundRobin);
        let full = cands(3);
        let out = sel.select(&full, 1.0, 0.1, Some(a(SEQ)), &mut rng());
        assert_eq!(out.replicas[0], a(0));
        // Replica 1 drops out: next up is 2, not a repeat of 0.
        let without_1: Vec<Candidate> = full.iter().copied().filter(|c| c.id != a(1)).collect();
        let out = sel.select(&without_1, 1.0, 0.1, Some(a(SEQ)), &mut rng());
        assert_eq!(out.replicas[0], a(2));
        // Pool restored: rotation wraps to 0 without skipping anyone.
        let out = sel.select(&full, 1.0, 0.1, Some(a(SEQ)), &mut rng());
        assert_eq!(out.replicas[0], a(0));
    }

    #[test]
    fn round_robin_resumes_when_last_served_is_quarantined() {
        let mut sel = Selector::new(SelectionPolicy::SingleRoundRobin);
        let full = cands(4);
        let out = sel.select(&full, 1.0, 0.1, Some(a(SEQ)), &mut rng());
        assert_eq!(out.replicas[0], a(0));
        let out = sel.select(&full, 1.0, 0.1, Some(a(SEQ)), &mut rng());
        assert_eq!(out.replicas[0], a(1));
        // The replica just served is itself quarantined. Rotation continues
        // with the first id ranked after it — no restart from 0.
        let without_1: Vec<Candidate> = full.iter().copied().filter(|c| c.id != a(1)).collect();
        let out = sel.select(&without_1, 1.0, 0.1, Some(a(SEQ)), &mut rng());
        assert_eq!(out.replicas[0], a(2));
        let out = sel.select(&without_1, 1.0, 0.1, Some(a(SEQ)), &mut rng());
        assert_eq!(out.replicas[0], a(3));
        let out = sel.select(&without_1, 1.0, 0.1, Some(a(SEQ)), &mut rng());
        assert_eq!(out.replicas[0], a(0));
    }

    #[test]
    fn round_robin_growing_pool_serves_new_replica_in_turn() {
        let mut sel = Selector::new(SelectionPolicy::SingleRoundRobin);
        let small = cands(2);
        sel.select(&small, 1.0, 0.1, Some(a(SEQ)), &mut rng()); // serves 0
        sel.select(&small, 1.0, 0.1, Some(a(SEQ)), &mut rng()); // serves 1

        // A third replica joins; it is next after 1, then wrap to 0.
        let grown = cands(3);
        let out = sel.select(&grown, 1.0, 0.1, Some(a(SEQ)), &mut rng());
        assert_eq!(out.replicas[0], a(2));
        let out = sel.select(&grown, 1.0, 0.1, Some(a(SEQ)), &mut rng());
        assert_eq!(out.replicas[0], a(0));
    }

    #[test]
    fn round_robin_with_no_candidates() {
        let mut sel = Selector::new(SelectionPolicy::SingleRoundRobin);
        let out = sel.select(&[], 1.0, 0.1, Some(a(SEQ)), &mut rng());
        assert_eq!(out.replicas, vec![a(SEQ)]);
        assert!(!out.satisfied);
    }

    #[test]
    fn random_k_sizes() {
        let mut sel = Selector::new(SelectionPolicy::RandomK(3));
        let out = sel.select(&cands(8), 1.0, 0.1, Some(a(SEQ)), &mut rng());
        assert_eq!(out.replicas.len(), 4); // 3 + sequencer
                                           // k larger than pool: everyone.
        let mut sel = Selector::new(SelectionPolicy::RandomK(50));
        let out = sel.select(&cands(4), 1.0, 0.1, Some(a(SEQ)), &mut rng());
        assert_eq!(out.replicas.len(), 5);
    }

    #[test]
    fn random_k_zero_still_picks_one() {
        let mut sel = Selector::new(SelectionPolicy::RandomK(0));
        let out = sel.select(&cands(4), 1.0, 0.1, Some(a(SEQ)), &mut rng());
        assert_eq!(out.replicas.len(), 2);
    }

    #[test]
    fn greedy_cdf_always_picks_highest_cdf_first() {
        let mut sel = Selector::new(SelectionPolicy::GreedyCdf);
        let c = cands(6); // highest CDF is replica 5
        for _ in 0..3 {
            let out = sel.select(&c, 1.0, 0.6, Some(a(SEQ)), &mut rng());
            assert_eq!(out.replicas[0], a(5), "hot spot on the best replica");
        }
    }

    #[test]
    fn probabilistic_spreads_by_ert() {
        let mut sel = Selector::new(SelectionPolicy::Probabilistic);
        let c = cands(6); // replica 0 has the largest ert
        let out = sel.select(&c, 1.0, 0.5, Some(a(SEQ)), &mut rng());
        assert_eq!(out.replicas[0], a(0));
    }

    #[test]
    fn policy_accessor() {
        assert_eq!(
            Selector::new(SelectionPolicy::GreedyCdf).policy(),
            SelectionPolicy::GreedyCdf
        );
    }
}
