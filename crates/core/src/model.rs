//! The probabilistic timing-failure model and state-based selection
//! algorithm (paper §5.1 and §5.3).
//!
//! Given, for each candidate replica, the values of its conditional
//! response-time distribution functions at the client's deadline —
//! `F^I_Ri(d)` (immediate) and `F^D_Ri(d)` (deferred) — plus the staleness
//! factor `P(A_s(t) <= a)` of the secondary group, the model predicts
//!
//! ```text
//! P_K(d) = 1 - P(no i in Kp : Ri <= d) * P(no j in Ks : Rj <= d)      (Eq. 1)
//!
//! P(no i in Kp : Ri <= d)  = prod (1 - F^I_Ri(d))                      (Eq. 2)
//!
//! P(no j in Ks : Rj <= d) = prod (1 - F^I_Rj(d)) * P(As <= a)
//!                         + prod (1 - F^D_Rj(d)) * (1 - P(As <= a))    (Eq. 3)
//! ```
//!
//! [`select_on_demand`] implements Algorithm 1: candidates are visited in
//! decreasing order of elapsed response time (`ert`, ties broken by larger
//! immediate CDF), the member with the largest immediate CDF seen so far is
//! *excluded* from the product (simulating its failure, so the chosen set
//! tolerates one crash), and the scan stops as soon as `P_K(d) >= Pc(d)`.
//! The sequencer is always appended to the returned set.
//!
//! The scan is demand-driven: `ert` alone fixes the visit order except
//! inside a group of equal `ert`, so the distribution values are pulled from
//! a [`CandidateSource`] only for the replicas the scan reaches — the
//! convolutions behind `F^I`/`F^D` are the expensive part (Fig. 3), and the
//! candidates behind the stopping point never needed them.
//! [`select_replicas`] is the same scan over a slice whose values are
//! already filled in.

use aqf_sim::ActorId;

/// One replica the selection algorithm may choose, with its model inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The replica's gateway actor.
    pub id: ActorId,
    /// Whether the replica belongs to the primary group (staleness factor
    /// 1, no deferred path).
    pub is_primary: bool,
    /// `F^I_Ri(d)`: probability of an in-time response given an immediate
    /// read.
    pub immediate_cdf: f64,
    /// `F^D_Ri(d)`: probability of an in-time response given a deferred
    /// read. Unused for primary replicas.
    pub deferred_cdf: f64,
    /// Elapsed response time in µs (`u64::MAX` if this client has never
    /// heard from the replica).
    pub ert_us: u64,
}

impl Candidate {
    /// The part of the candidate that needs no distribution evaluated.
    pub fn key(&self) -> CandidateKey {
        CandidateKey {
            id: self.id,
            is_primary: self.is_primary,
            ert_us: self.ert_us,
        }
    }
}

/// What Algorithm 1 reads of a replica before it evaluates any distribution
/// function: a [`Candidate`] without its CDF values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidateKey {
    /// The replica's gateway actor.
    pub id: ActorId,
    /// Whether the replica belongs to the primary group.
    pub is_primary: bool,
    /// Elapsed response time in µs (`u64::MAX` if never heard from).
    pub ert_us: u64,
}

/// A candidate set whose distribution values are produced when the
/// selection asks for them, by position.
///
/// The scan asks for `F^I` at most once per candidate, and for `F^D` only
/// when it folds a secondary into the product; an implementation may
/// therefore compute on every call.
pub trait CandidateSource {
    /// Number of candidates.
    fn count(&self) -> usize;
    /// The candidate at `index` (`index < self.count()`).
    fn key(&self, index: usize) -> CandidateKey;
    /// `F^I_Ri(d)` of the candidate at `index`.
    fn immediate_cdf(&mut self, index: usize) -> f64;
    /// `F^D_Ri(d)` of the candidate at `index`; asked of secondaries only.
    fn deferred_cdf(&mut self, index: usize) -> f64;
}

/// A slice with every value filled in ahead of the scan.
impl CandidateSource for &[Candidate] {
    fn count(&self) -> usize {
        self.len()
    }

    fn key(&self, index: usize) -> CandidateKey {
        self[index].key()
    }

    fn immediate_cdf(&mut self, index: usize) -> f64 {
        self[index].immediate_cdf
    }

    fn deferred_cdf(&mut self, index: usize) -> f64 {
        self[index].deferred_cdf
    }
}

/// Outcome of one run of the selection algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// The chosen replica set `K` (excluding the sequencer).
    pub replicas: Vec<ActorId>,
    /// The model's prediction `P_K(d)` for the *surviving* set, i.e. with
    /// the best member excluded per the single-failure proposal.
    pub predicted: f64,
    /// Whether the prediction met the requested probability; `false` means
    /// every candidate was selected and the target was still not reached.
    pub satisfied: bool,
}

/// Running products of Eq. 1–3, updated incrementally as replicas are
/// included — the `includeCDF` helper of Algorithm 1.
#[derive(Debug, Clone, Copy)]
pub struct InclusionState {
    prim_cdf: f64,
    sec_immed_cdf: f64,
    sec_delayed_cdf: f64,
    stale_factor: f64,
}

impl InclusionState {
    /// Fresh state with empty products (line 1 of Algorithm 1).
    ///
    /// # Panics
    ///
    /// Panics if `stale_factor` is not a probability.
    pub fn new(stale_factor: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&stale_factor),
            "staleness factor must be a probability"
        );
        Self {
            prim_cdf: 1.0,
            sec_immed_cdf: 1.0,
            sec_delayed_cdf: 1.0,
            stale_factor,
        }
    }

    /// Folds one replica's distribution values into the products
    /// (lines 19–24).
    pub fn include(&mut self, c: &Candidate) {
        if c.is_primary {
            self.include_primary(c.immediate_cdf);
        } else {
            self.include_secondary(c.immediate_cdf, c.deferred_cdf);
        }
    }

    /// Folds a primary replica with `F^I(d) = immediate` into Eq. 2.
    pub fn include_primary(&mut self, immediate: f64) {
        self.prim_cdf *= 1.0 - immediate;
    }

    /// Folds a secondary replica with `F^I(d) = immediate` and
    /// `F^D(d) = deferred` into Eq. 3.
    pub fn include_secondary(&mut self, immediate: f64, deferred: f64) {
        self.sec_immed_cdf *= 1.0 - immediate;
        self.sec_delayed_cdf *= 1.0 - deferred;
    }

    /// Folds the candidate at `index` of `source`, whose `F^I(d)` the caller
    /// already holds; `F^D(d)` is pulled here, and only for a secondary.
    pub(crate) fn include_from<S: CandidateSource>(
        &mut self,
        source: &mut S,
        index: usize,
        immediate: f64,
    ) {
        if source.key(index).is_primary {
            self.include_primary(immediate);
        } else {
            self.include_secondary(immediate, source.deferred_cdf(index));
        }
    }

    /// The current prediction `P_K(d) = 1 - primCDF * secCDF` (line 25).
    pub fn predicted(&self) -> f64 {
        let sec_cdf = self.sec_immed_cdf * self.stale_factor
            + self.sec_delayed_cdf * (1.0 - self.stale_factor);
        1.0 - self.prim_cdf * sec_cdf
    }
}

/// Direct (non-incremental) evaluation of Eq. 1–3 over a full set; used to
/// cross-check the incremental algorithm.
///
/// `primaries` holds `F^I(d)` values; `secondaries` holds
/// `(F^I(d), F^D(d))` pairs.
pub fn pk_probability(primaries: &[f64], secondaries: &[(f64, f64)], stale_factor: f64) -> f64 {
    let mut state = InclusionState::new(stale_factor);
    for &f in primaries {
        state.include_primary(f);
    }
    for &(fi, fd) in secondaries {
        state.include_secondary(fi, fd);
    }
    state.predicted()
}

/// Visit order for Algorithm 1's candidate scan.
///
/// The inclusion logic (lines 6–25) is identical either way; only the order
/// in which candidates are considered differs. This lets policy variants
/// reuse [`select_replicas_ordered`] without cloning and rewriting the
/// candidate slice to force a different sort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CandidateOrder {
    /// The paper's order: decreasing elapsed response time (least recently
    /// used first), ties broken by decreasing immediate CDF (§5.3).
    #[default]
    LeastRecentlyUsed,
    /// Greedy order: decreasing immediate CDF regardless of `ert`. Every
    /// client converges on the same "best" replicas — the hot-spot baseline.
    CdfDescending,
}

/// Algorithm 1: the state-based replica selection algorithm.
///
/// Selects no more replicas than needed for the prediction (with the
/// best-CDF member excluded) to reach `min_probability`, visiting candidates
/// least-recently-used first; appends `sequencer` to the returned set when
/// the service has one (sequential ordering; the FIFO handler passes
/// `None`).
///
/// With an empty candidate list the result contains only the sequencer (if
/// any) and is unsatisfied.
pub fn select_replicas(
    candidates: &[Candidate],
    stale_factor: f64,
    min_probability: f64,
    sequencer: Option<ActorId>,
) -> Selection {
    select_replicas_ordered(
        candidates,
        stale_factor,
        min_probability,
        sequencer,
        CandidateOrder::LeastRecentlyUsed,
    )
}

/// [`select_replicas`] with an explicit [`CandidateOrder`].
pub fn select_replicas_ordered(
    mut candidates: &[Candidate],
    stale_factor: f64,
    min_probability: f64,
    sequencer: Option<ActorId>,
    order: CandidateOrder,
) -> Selection {
    select_on_demand(
        &mut candidates,
        stale_factor,
        min_probability,
        sequencer,
        order,
    )
}

/// One candidate in visit order, with the `F^I(d)` the scan has pulled for
/// it so far. Kept small: the scan sorts a slice of these per selection.
struct Visit {
    ert_us: u64,
    immediate: Option<f64>,
    id: ActorId,
    index: u32,
}

impl Visit {
    fn immediate<S: CandidateSource>(&mut self, source: &mut S) -> f64 {
        *self
            .immediate
            .get_or_insert_with(|| source.immediate_cdf(self.index as usize))
    }
}

/// Algorithm 1 over a [`CandidateSource`], evaluating only what the scan
/// reads.
///
/// The visit order `(ert desc, F^I desc, id)` needs no distribution value
/// until two candidates share an `ert`: candidates are ordered by
/// `(ert desc, id)` up front, and a group of equal `ert` has `F^I` pulled
/// for its members, and is reordered by `(F^I desc, id)`, when the scan
/// reaches it — the same total order, so the same `Selection` as evaluating
/// everyone first. `F^D` is pulled when a secondary is folded into the
/// product; the excluded best member's is not, unless a better one
/// displaces it. Nothing is pulled behind the stopping point.
/// [`CandidateOrder::CdfDescending`] is the one-group case: everyone ties,
/// so everyone's `F^I` is pulled.
///
/// # Panics
///
/// Panics if the source holds more than `u32::MAX` candidates.
pub fn select_on_demand<S: CandidateSource>(
    source: &mut S,
    stale_factor: f64,
    min_probability: f64,
    sequencer: Option<ActorId>,
    order: CandidateOrder,
) -> Selection {
    let count = u32::try_from(source.count()).expect("candidate positions fit in u32");
    let mut visits: Vec<Visit> = (0..count)
        .map(|index| {
            let key = source.key(index as usize);
            Visit {
                ert_us: key.ert_us,
                immediate: None,
                id: key.id,
                index,
            }
        })
        .collect();
    let lru = order == CandidateOrder::LeastRecentlyUsed;
    if lru {
        // `index` last makes the order total, so the unstable sort returns
        // what a stable one would.
        visits.sort_unstable_by(|a, b| {
            b.ert_us
                .cmp(&a.ert_us)
                .then(a.id.cmp(&b.id))
                .then(a.index.cmp(&b.index))
        });
    }

    let mut state = InclusionState::new(stale_factor);
    let mut k: Vec<ActorId> = Vec::new();
    // Position of the member currently excluded from the product.
    let mut best: Option<usize> = None;
    let mut group_end = 0;
    for pos in 0..visits.len() {
        if pos == group_end {
            // Entering a tie group: larger immediate CDF first (paper §5.3),
            // then id as the final deterministic tiebreak.
            let ert = visits[pos].ert_us;
            group_end = pos
                + visits[pos..]
                    .iter()
                    .take_while(|v| !lru || v.ert_us == ert)
                    .count();
            let group = &mut visits[pos..group_end];
            if group.len() > 1 {
                for v in group.iter_mut() {
                    v.immediate(source);
                }
                let pulled = |v: &Visit| v.immediate.expect("pulled for the whole group");
                group.sort_by(|a, b| pulled(b).total_cmp(&pulled(a)).then(a.id.cmp(&b.id)));
            }
        }
        k.push(visits[pos].id);
        let Some(best_pos) = best else {
            best = Some(pos);
            continue;
        };
        let immediate = visits[pos].immediate(source);
        let best_immediate = visits[best_pos].immediate(source);
        let (folded, immediate) = if immediate > best_immediate {
            // The previous best is no longer the excluded one: fold it in
            // and exclude the new best instead (lines 6–8).
            best = Some(pos);
            (visits[best_pos].index as usize, best_immediate)
        } else {
            (visits[pos].index as usize, immediate)
        };
        state.include_from(source, folded, immediate);
        if state.predicted() >= min_probability {
            k.extend(sequencer);
            return Selection {
                replicas: k,
                predicted: state.predicted(),
                satisfied: true,
            };
        }
    }
    // Ran out of candidates: return everything (line 16). With no candidate
    // at all the result is unsatisfied whatever the target.
    let satisfied = !k.is_empty() && state.predicted() >= min_probability;
    k.extend(sequencer);
    Selection {
        replicas: k,
        predicted: state.predicted(),
        satisfied,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: usize) -> ActorId {
        ActorId::from_index(i)
    }

    fn cand(i: usize, primary: bool, fi: f64, fd: f64, ert: u64) -> Candidate {
        Candidate {
            id: a(i),
            is_primary: primary,
            immediate_cdf: fi,
            deferred_cdf: fd,
            ert_us: ert,
        }
    }

    const SEQ: usize = 99;

    #[test]
    fn pk_primaries_only() {
        // Two primaries at 0.5 each: 1 - 0.25 = 0.75.
        assert!((pk_probability(&[0.5, 0.5], &[], 1.0) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn pk_secondaries_mix_by_staleness_factor() {
        // One secondary: F^I = 0.8, F^D = 0.2, sf = 0.5.
        // sec = (1-0.8)*0.5 + (1-0.2)*0.5 = 0.1 + 0.4 = 0.5 -> PK = 0.5.
        assert!((pk_probability(&[], &[(0.8, 0.2)], 0.5) - 0.5).abs() < 1e-12);
        // Fully fresh (sf = 1): PK = F^I = 0.8.
        assert!((pk_probability(&[], &[(0.8, 0.2)], 1.0) - 0.8).abs() < 1e-12);
        // Fully stale (sf = 0): PK = F^D = 0.2.
        assert!((pk_probability(&[], &[(0.8, 0.2)], 0.0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn pk_combined_groups() {
        // Primary 0.5; secondary (0.5, 0.0); sf = 1.
        // prim = 0.5, sec = 0.5 -> PK = 0.75.
        assert!((pk_probability(&[0.5], &[(0.5, 0.0)], 1.0) - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bad_stale_factor_panics() {
        let _ = InclusionState::new(1.5);
    }

    #[test]
    fn empty_candidates_returns_sequencer_only() {
        let sel = select_replicas(&[], 1.0, 0.9, Some(a(SEQ)));
        assert_eq!(sel.replicas, vec![a(SEQ)]);
        assert!(!sel.satisfied);
    }

    #[test]
    fn single_candidate_never_checks_condition() {
        // With one candidate, Algorithm 1 exits the loop without testing the
        // terminating condition; it returns [first, sequencer].
        let sel = select_replicas(&[cand(0, true, 1.0, 0.0, 5)], 1.0, 0.1, Some(a(SEQ)));
        assert_eq!(sel.replicas, vec![a(0), a(SEQ)]);
        // The excluded best replica contributes nothing: predicted stays 0.
        assert_eq!(sel.predicted, 0.0);
        assert!(!sel.satisfied);
    }

    #[test]
    fn stops_as_soon_as_satisfied() {
        // All highly reliable primaries with distinct erts. First visited is
        // excluded; second gives PK = 0.95 >= 0.9 -> stop with 2 + sequencer.
        let cands = vec![
            cand(0, true, 0.95, 0.0, 100),
            cand(1, true, 0.95, 0.0, 90),
            cand(2, true, 0.95, 0.0, 80),
            cand(3, true, 0.95, 0.0, 70),
        ];
        let sel = select_replicas(&cands, 1.0, 0.9, Some(a(SEQ)));
        assert_eq!(sel.replicas, vec![a(0), a(1), a(SEQ)]);
        assert!(sel.satisfied);
        assert!((sel.predicted - 0.95).abs() < 1e-12);
    }

    #[test]
    fn visits_least_recently_used_first() {
        // Higher ert = least recently used = visited first.
        let cands = vec![
            cand(0, true, 0.99, 0.0, 10),  // most recently used
            cand(1, true, 0.99, 0.0, 500), // least recently used
            cand(2, true, 0.99, 0.0, 200),
        ];
        let sel = select_replicas(&cands, 1.0, 0.9, Some(a(SEQ)));
        // Order of traversal: 1 (ert 500, excluded), 2 (included, PK = .99).
        assert_eq!(sel.replicas, vec![a(1), a(2), a(SEQ)]);
    }

    #[test]
    fn ert_tie_broken_by_cdf() {
        let cands = vec![cand(0, true, 0.3, 0.0, 100), cand(1, true, 0.9, 0.0, 100)];
        let sel = select_replicas(&cands, 1.0, 0.25, Some(a(SEQ)));
        // Replica 1 (higher CDF) is visited first and becomes the excluded
        // best; replica 0 is included: PK = 0.3 >= 0.25.
        assert_eq!(sel.replicas, vec![a(1), a(0), a(SEQ)]);
        assert!((sel.predicted - 0.3).abs() < 1e-12);
    }

    #[test]
    fn exclusion_switches_to_new_best() {
        // Traversal order by ert: r0 (cdf .5), r1 (cdf .9), r2 (cdf .6).
        // Visit r1: .9 > .5 -> include r0 (PK = .5), exclude r1.
        // Visit r2: .6 < .9 -> include r2 (PK = 1 - .5*.4 = .8).
        let cands = vec![
            cand(0, true, 0.5, 0.0, 300),
            cand(1, true, 0.9, 0.0, 200),
            cand(2, true, 0.6, 0.0, 100),
        ];
        let sel = select_replicas(&cands, 1.0, 0.75, Some(a(SEQ)));
        assert_eq!(sel.replicas, vec![a(0), a(1), a(2), a(SEQ)]);
        assert!((sel.predicted - 0.8).abs() < 1e-12);
        assert!(sel.satisfied);
    }

    #[test]
    fn selected_set_tolerates_best_member_failure() {
        // The prediction is computed with the best member excluded, so if
        // satisfied, removing the best included member still satisfies.
        let cands: Vec<Candidate> = (0..6)
            .map(|i| cand(i, i % 2 == 0, 0.7, 0.3, 1000 - i as u64))
            .collect();
        let sel = select_replicas(&cands, 0.8, 0.9, Some(a(SEQ)));
        assert!(sel.satisfied);
        // Recompute PK over the selected set minus its best member.
        let selected: Vec<&Candidate> = cands
            .iter()
            .filter(|c| sel.replicas.contains(&c.id))
            .collect();
        let best = selected
            .iter()
            .max_by(|x, y| x.immediate_cdf.total_cmp(&y.immediate_cdf))
            .unwrap()
            .id;
        let prims: Vec<f64> = selected
            .iter()
            .filter(|c| c.is_primary && c.id != best)
            .map(|c| c.immediate_cdf)
            .collect();
        let secs: Vec<(f64, f64)> = selected
            .iter()
            .filter(|c| !c.is_primary && c.id != best)
            .map(|c| (c.immediate_cdf, c.deferred_cdf))
            .collect();
        assert!(pk_probability(&prims, &secs, 0.8) >= 0.9);
    }

    #[test]
    fn unreachable_target_selects_everyone() {
        let cands: Vec<Candidate> = (0..5).map(|i| cand(i, false, 0.1, 0.05, 10)).collect();
        let sel = select_replicas(&cands, 0.5, 0.999, Some(a(SEQ)));
        assert_eq!(sel.replicas.len(), 6); // all 5 + sequencer
        assert!(!sel.satisfied);
    }

    #[test]
    fn incremental_matches_direct_evaluation() {
        // Fold everything in via InclusionState and compare to
        // pk_probability over the same sets.
        let cands = vec![
            cand(0, true, 0.4, 0.0, 0),
            cand(1, false, 0.6, 0.2, 0),
            cand(2, false, 0.7, 0.1, 0),
            cand(3, true, 0.5, 0.0, 0),
        ];
        let sf = 0.3;
        let mut state = InclusionState::new(sf);
        for c in &cands {
            state.include(c);
        }
        let direct = pk_probability(&[0.4, 0.5], &[(0.6, 0.2), (0.7, 0.1)], sf);
        assert!((state.predicted() - direct).abs() < 1e-12);
    }

    #[test]
    fn cdf_descending_order_matches_zeroed_ert_lru() {
        // Visiting by decreasing CDF must be exactly equivalent to the old
        // GreedyCdf trick of zeroing every ert and reusing the LRU sort
        // (which then falls through to the CDF tiebreak).
        let cands = vec![
            cand(0, true, 0.5, 0.0, 300),
            cand(1, false, 0.9, 0.4, 200),
            cand(2, true, 0.6, 0.0, 100),
            cand(3, false, 0.6, 0.2, 400),
        ];
        let mut zeroed = cands.clone();
        for c in &mut zeroed {
            c.ert_us = 0;
        }
        for target in [0.1, 0.5, 0.75, 0.999] {
            let ordered = select_replicas_ordered(
                &cands,
                0.7,
                target,
                Some(a(SEQ)),
                CandidateOrder::CdfDescending,
            );
            let legacy = select_replicas(&zeroed, 0.7, target, Some(a(SEQ)));
            assert_eq!(ordered, legacy);
        }
    }

    #[test]
    fn default_order_is_lru() {
        let cands = vec![cand(0, true, 0.2, 0.0, 500), cand(1, true, 0.9, 0.0, 10)];
        let via_default =
            select_replicas_ordered(&cands, 1.0, 0.5, Some(a(SEQ)), CandidateOrder::default());
        let via_plain = select_replicas(&cands, 1.0, 0.5, Some(a(SEQ)));
        assert_eq!(via_default, via_plain);
        assert_eq!(via_default.replicas[0], a(0)); // largest ert first
    }

    #[test]
    fn more_replicas_never_lower_prediction() {
        let mut state = InclusionState::new(0.7);
        let mut prev = state.predicted();
        for i in 0..10 {
            state.include(&cand(i, i % 2 == 0, 0.3 + 0.05 * i as f64, 0.1, 0));
            let cur = state.predicted();
            assert!(cur + 1e-12 >= prev, "prediction decreased");
            prev = cur;
        }
    }
}
