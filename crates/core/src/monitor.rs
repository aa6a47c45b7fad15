//! The client-side information repository (paper §5.2 and §5.4).
//!
//! Client gateways record, per replica, sliding windows of the most recent
//! `l` measurements of service time `S`, queueing delay `W`, and
//! deferred-wait `U` (from server performance broadcasts), the most recent
//! two-way gateway delay `G` (from the client's own replies), and the
//! elapsed response time `ert`. The repository also tracks the lazy
//! publisher's `<n_u, t_u>` / `<n_L, t_L>` broadcasts to estimate the update
//! arrival rate and the time since the last lazy update.
//!
//! From this history the repository evaluates the conditional response-time
//! distribution functions `F^I_Ri(d)` and `F^D_Ri(d)` of Eqs. 5 and 6 and
//! the staleness factor `P(A_s(t) <= a)`: Eq. 4 while the last 16
//! `<n_u, t_u>` counts look Poisson, the §5.1.3 rate mixture once a
//! dispersion test says they do not, with no setting to choose between
//! them ([`InfoRepository::staleness_factor`]). Every sample of a window
//! has the same mass, so the convolutions' CDFs are counts of sample pairs
//! (triples, deferred) over the sorted windows, divided once; no pmf is
//! built on the read path.
//!
//! The repository also holds the client's one per-replica health state, the
//! quarantine: strikes (a replica silent when an attempt expires, or a
//! `Busy` refusal), an exclusion window that doubles per re-offence, the
//! probation after it, and clearing by a timely reply.

use crate::model::{Candidate, CandidateKey, CandidateSource};
use crate::obs::{ObsEvent, ObsHandle};
use crate::wire::{PerfBroadcast, PublisherInfo};
use aqf_sim::{ActorId, SimDuration, SimTime};
use aqf_stats::{count_pairs_le, Pmf, RateEstimator, SlidingWindow};
use std::cell::Cell;
use std::collections::BTreeMap;

/// The sliding-window size `l` for S, W and U measurements in the paper's
/// experiments (they use 10 and 20; Figure 3 varies it).
pub const WINDOW_SIZE: usize = 20;

/// Window size for the publisher's `<n_u, t_u>` rate observations.
const RATE_WINDOW: usize = 16;

/// Strikes (silence at attempt expiry, a `Busy` refusal) before a replica
/// is quarantined.
pub(crate) const QUARANTINE_THRESHOLD: u32 = 3;

/// The first quarantine window; it doubles per re-offence.
const QUARANTINE_BASE: SimDuration = SimDuration::from_secs(5);

/// Cap on the quarantine window.
const QUARANTINE_MAX: SimDuration = SimDuration::from_secs(60);

const _: () = assert!(QUARANTINE_THRESHOLD > 0);
const _: () = assert!(QUARANTINE_BASE.as_micros() > 0);
const _: () = assert!(QUARANTINE_MAX.as_micros() >= QUARANTINE_BASE.as_micros());

/// Per-replica performance history.
#[derive(Debug, Clone)]
pub struct ReplicaRecord {
    /// Service-time window (µs).
    s: SlidingWindow,
    /// Queueing-delay window (µs).
    w: SlidingWindow,
    /// Deferred-wait window (µs); only deferred reads contribute.
    u: SlidingWindow,
    /// Most recent two-way gateway delay (µs), specific to this
    /// client-replica pair.
    last_gateway_us: Option<u64>,
    /// When this client last received any reply from the replica.
    last_reply_at: Option<SimTime>,
    /// Strikes (silence at attempt expiry, `Busy`) charged against this
    /// replica since its last timely reply. Retained across quarantine
    /// expiry so a replica on probation that is struck once more is
    /// re-quarantined immediately.
    strikes: u32,
    /// While set and in the future, the replica is excluded from read
    /// selection.
    quarantined_until: Option<SimTime>,
    /// How many times the replica has been quarantined without an
    /// intervening timely reply; each level doubles the quarantine duration.
    quarantine_level: u32,
}

impl ReplicaRecord {
    fn new(window: usize) -> Self {
        Self {
            s: SlidingWindow::new(window),
            w: SlidingWindow::new(window),
            u: SlidingWindow::new(window),
            last_gateway_us: None,
            last_reply_at: None,
            strikes: 0,
            quarantined_until: None,
            quarantine_level: 0,
        }
    }
}

/// The most recent lazy-publisher observation.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PublisherObservation {
    received_at: SimTime,
    n_l: u64,
    t_l: SimDuration,
    period: SimDuration,
}

/// Client-side repository of replica performance history.
#[derive(Debug, Clone)]
pub struct InfoRepository {
    window_size: usize,
    replicas: BTreeMap<ActorId, ReplicaRecord>,
    rate: RateEstimator,
    publisher: Option<PublisherObservation>,
    /// Response-time CDF evaluations (see [`Self::cdf_evaluations`]).
    evaluations: Cell<u64>,
    obs: ObsHandle,
    obs_owner: ActorId,
}

impl InfoRepository {
    /// Creates an empty repository keeping windows of `window_size`
    /// measurements per replica.
    pub fn new(window_size: usize) -> Self {
        Self {
            window_size,
            replicas: BTreeMap::new(),
            rate: RateEstimator::new(RATE_WINDOW),
            publisher: None,
            evaluations: Cell::new(0),
            obs: ObsHandle::disabled(),
            obs_owner: ActorId::from_index(0),
        }
    }

    /// Installs an observability handle; quarantine transitions are traced
    /// as `owner` (the client gateway holding this repository). A disabled
    /// handle (the default) leaves every code path bit-identical.
    pub fn set_obs(&mut self, owner: ActorId, obs: ObsHandle) {
        self.obs_owner = owner;
        self.obs = obs;
    }

    /// The configured sliding-window size `l`.
    pub fn window_size(&self) -> usize {
        self.window_size
    }

    fn record(&mut self, replica: ActorId) -> &mut ReplicaRecord {
        let window = self.window_size;
        self.replicas
            .entry(replica)
            .or_insert_with(|| ReplicaRecord::new(window))
    }

    /// Ingests a performance broadcast from `replica` received at `now`.
    pub fn record_perf(&mut self, replica: ActorId, perf: &PerfBroadcast, now: SimTime) {
        if let Some(m) = perf.read {
            let rec = self.record(replica);
            rec.s.push(m.ts_us);
            rec.w.push(m.tq_us);
            if m.tb_us > 0 {
                rec.u.push(m.tb_us);
            }
        }
        if let Some(p) = perf.publisher {
            self.record_publisher(&p, now);
        }
    }

    fn record_publisher(&mut self, p: &PublisherInfo, now: SimTime) {
        if !p.t_u.is_zero() || p.n_u > 0 {
            self.rate.record(p.n_u, p.t_u.as_micros());
        }
        self.publisher = Some(PublisherObservation {
            received_at: now,
            n_l: p.n_l,
            t_l: p.t_l,
            period: p.period,
        });
    }

    /// Records a reply this client received from `replica`: `t1` is the
    /// piggybacked server-side time, `tm` the transmit time of the request,
    /// and `tp` (= now) the reception time. Derives the two-way gateway
    /// delay `tg = tp - tm - t1` (clamped at zero) and refreshes `ert`.
    pub fn record_reply(&mut self, replica: ActorId, t1_us: u64, tm: SimTime, tp: SimTime) {
        let rec = self.record(replica);
        let round_trip = tp.saturating_since(tm).as_micros();
        rec.last_gateway_us = Some(round_trip.saturating_sub(t1_us));
        rec.last_reply_at = Some(tp);
    }

    /// Records a successful probe of `replica`: a *timely* reply clears
    /// its strikes and backoff level and lifts any active quarantine. Late
    /// replies deliberately do not count — they prove liveness, not
    /// timeliness, and a gray-degraded replica keeps answering late forever.
    pub fn record_probe_success(&mut self, replica: ActorId, now: SimTime) {
        let rec = self.record(replica);
        rec.strikes = 0;
        let was_quarantined = rec.quarantined_until.take().is_some();
        rec.quarantine_level = 0;
        if was_quarantined {
            self.obs
                .emit(now, self.obs_owner, || ObsEvent::QuarantineCleared {
                    replica,
                });
        }
    }

    /// Charges a strike against `replica`: it stayed silent through an
    /// attempt, or refused one with `Busy`. Once `QUARANTINE_THRESHOLD`
    /// strikes accumulate the replica is quarantined for
    /// `QUARANTINE_BASE << level` (capped at `QUARANTINE_MAX`), doubling
    /// each time it re-offends without an intervening timely reply. Returns `true` when this call started a new quarantine
    /// window.
    pub fn record_strike(&mut self, replica: ActorId, now: SimTime) -> bool {
        let rec = self.record(replica);
        rec.strikes = rec.strikes.saturating_add(1);
        let already = rec.quarantined_until.is_some_and(|t| t > now);
        if rec.strikes >= QUARANTINE_THRESHOLD && !already {
            let factor = 1u64 << rec.quarantine_level.min(16);
            let dur = SimDuration::from_micros(QUARANTINE_BASE.as_micros().saturating_mul(factor))
                .min(QUARANTINE_MAX);
            let until = now + dur;
            rec.quarantined_until = Some(until);
            rec.quarantine_level = rec.quarantine_level.saturating_add(1);
            self.obs.emit(now, self.obs_owner, || ObsEvent::Quarantine {
                replica,
                until_us: until.as_micros(),
            });
            return true;
        }
        false
    }

    /// Whether `replica` is currently quarantined. Expiry is probation:
    /// the replica becomes selectable again (a lightweight probe), but a
    /// single further strike re-quarantines it with a doubled window.
    pub fn is_quarantined(&self, replica: ActorId, now: SimTime) -> bool {
        self.replicas
            .get(&replica)
            .and_then(|r| r.quarantined_until)
            .is_some_and(|t| t > now)
    }

    /// Elapsed response time for `replica` in µs: time since this client
    /// last received a reply from it, or `u64::MAX` if it never has.
    /// Least-recently-used replicas sort first in the selection algorithm,
    /// which is how hot-spots are avoided (paper §5.3).
    pub fn ert_us(&self, replica: ActorId, now: SimTime) -> u64 {
        self.replicas
            .get(&replica)
            .and_then(|r| r.last_reply_at)
            .map(|t| now.saturating_since(t).as_micros())
            .unwrap_or(u64::MAX)
    }

    /// The immediate-read response-time distribution `F^I_Ri` evaluated at
    /// the deadline `d`: `P(S + W + G <= d)` with the pmfs of `S` and `W`
    /// taken from the sliding windows and `G` as a point mass at its most
    /// recent value (Eq. 5 / §5.2.1).
    ///
    /// Returns 0 when no history has been recorded (a replica we know
    /// nothing about cannot be predicted to meet any deadline, so the
    /// algorithm conservatively keeps adding replicas during warm-up).
    pub fn immediate_cdf(&self, replica: ActorId, d: SimDuration) -> f64 {
        self.response_cdf(replica, false, d.as_micros())
    }

    /// The deferred-read response-time distribution `F^D_Ri` evaluated at
    /// `d`: `P(S + W + G + U <= d)` (Eq. 6 / §5.2.2). Returns 0 when no
    /// deferred-read history exists.
    pub fn deferred_cdf(&self, replica: ActorId, d: SimDuration) -> f64 {
        self.response_cdf(replica, true, d.as_micros())
    }

    /// What Algorithm 1 reads of a replica before evaluating any
    /// distribution: its group and its elapsed response time at `now`.
    pub fn candidate_key(&self, id: ActorId, is_primary: bool, now: SimTime) -> CandidateKey {
        CandidateKey {
            id,
            is_primary,
            ert_us: self.ert_us(id, now),
        }
    }

    /// The candidates named by `keys` as a [`CandidateSource`]: `F^I(d)` and
    /// `F^D(d)` are evaluated when the selection asks for them, so replicas
    /// it never reaches cost nothing.
    pub fn on_demand<'a>(
        &'a self,
        keys: &'a [CandidateKey],
        d: SimDuration,
    ) -> OnDemandCandidates<'a> {
        OnDemandCandidates {
            repo: self,
            keys,
            d,
        }
    }

    /// Algorithm 1's model inputs for one replica at deadline `d`, all
    /// evaluated now: both CDF values (a primary has no deferred path) and
    /// the elapsed response time at `now`.
    pub fn candidate(
        &self,
        id: ActorId,
        is_primary: bool,
        d: SimDuration,
        now: SimTime,
    ) -> Candidate {
        Candidate {
            id,
            is_primary,
            immediate_cdf: self.immediate_cdf(id, d),
            deferred_cdf: if is_primary {
                0.0
            } else {
                self.deferred_cdf(id, d)
            },
            ert_us: self.ert_us(id, now),
        }
    }

    /// Evaluates the response-time distribution of `replica` at `d_us` by
    /// counting over the sorted windows.
    ///
    /// Every sample of a window of `l` carries mass `1/l`, so the CDF of
    /// the paper's convolution is exact integer counting:
    ///
    /// - immediate: `#{(s, w): s + w <= d − G} / (l_s·l_w)`, 0 when `d < G`;
    /// - deferred: `Σ_u #{(s, w): s + w <= d − G − u} / (l_s·l_w·l_u)`, the
    ///   sum running over sorted `U` until `d − G − u` goes negative.
    ///
    /// The result agrees with [`Self::response_pmf_uncached`]'s CDF to
    /// rounding (the count is divided once, the convolution sums
    /// products) wherever no sum reaches `u64::MAX`, where the convolution
    /// saturates.
    fn response_cdf(&self, replica: ActorId, deferred: bool, d_us: u64) -> f64 {
        let Some(rec) = self.replicas.get(&replica) else {
            return 0.0;
        };
        let (s, w, u) = (rec.s.sorted(), rec.w.sorted(), rec.u.sorted());
        if s.is_empty() || w.is_empty() || (deferred && u.is_empty()) {
            return 0.0;
        }
        self.evaluations.set(self.evaluations.get() + 1);
        let pairs = |x: u64| count_pairs_le(s, w, x);
        let scale = (s.len() * w.len()) as f64;
        let Some(x) = d_us.checked_sub(rec.last_gateway_us.unwrap_or(0)) else {
            return 0.0;
        };
        if !deferred {
            return pairs(x) as f64 / scale;
        }
        let triples: u64 = u.iter().map_while(|&u| x.checked_sub(u)).map(pairs).sum();
        triples as f64 / (scale * u.len() as f64)
    }

    /// The response-time pmf as the paper computes it: fresh empirical pmfs
    /// from the windows, one `S⊛W` convolution, the gateway shift, and —
    /// for the deferred path — the `⊛U` convolution.
    ///
    /// Kept as the reference the counting evaluators are property-tested
    /// against and as the "before" measurement in the Figure 3 overhead
    /// study.
    pub fn response_pmf_uncached(&self, rec: &ReplicaRecord, deferred: bool) -> Option<Pmf> {
        let s = Pmf::from_samples(rec.s.iter());
        let w = Pmf::from_samples(rec.w.iter());
        if s.is_empty() || w.is_empty() {
            return None;
        }
        let pmf = s.convolve(&w).shift(rec.last_gateway_us.unwrap_or(0));
        if !deferred {
            return Some(pmf);
        }
        let u = Pmf::from_samples(rec.u.iter());
        (!u.is_empty()).then(|| pmf.convolve(&u))
    }

    /// `F^I_Ri(d)` through the paper's convolution — reference path for
    /// property tests and before/after benchmarks.
    pub fn immediate_cdf_uncached(&self, replica: ActorId, d: SimDuration) -> f64 {
        self.replicas
            .get(&replica)
            .and_then(|rec| self.response_pmf_uncached(rec, false))
            .map(|pmf| pmf.cdf(d.as_micros()))
            .unwrap_or(0.0)
    }

    /// `F^D_Ri(d)` through the paper's convolution — reference path for
    /// property tests and before/after benchmarks.
    pub fn deferred_cdf_uncached(&self, replica: ActorId, d: SimDuration) -> f64 {
        let Some(rec) = self.replicas.get(&replica) else {
            return 0.0;
        };
        if rec.u.is_empty() {
            return 0.0;
        }
        self.response_pmf_uncached(rec, true)
            .map(|pmf| pmf.cdf(d.as_micros()))
            .unwrap_or(0.0)
    }

    /// Response-time CDF evaluations made so far (`F^I` and `F^D` alike).
    /// An evaluation of a replica without the history it needs returns 0
    /// without counting.
    pub fn cdf_evaluations(&self) -> u64 {
        self.evaluations.get()
    }

    /// The estimated update arrival rate `lambda_u` in arrivals/µs, or
    /// `None` before any publisher broadcast.
    pub fn update_rate_per_us(&self) -> Option<f64> {
        self.rate.rate_per_us()
    }

    /// Estimated time since the last lazy update at instant `now`:
    /// `t_l = (t_L + t_z) mod T_L` (paper §5.4.1).
    pub fn time_since_lazy(&self, now: SimTime) -> Option<SimDuration> {
        let obs = self.publisher?;
        let tz = now.saturating_since(obs.received_at);
        if obs.period.is_zero() {
            return Some(SimDuration::ZERO);
        }
        Some((obs.t_l + tz).modulo(obs.period))
    }

    /// The staleness factor `P(A_s(t) <= a)` of the secondary group: the
    /// probability that at most `a` updates arrived since the last lazy
    /// propagation. Eq. 4's Poisson form at the pooled rate while the
    /// publisher's windowed `<n_u, t_u>` counts look Poisson, the §5.1.3
    /// rate mixture once they are overdispersed
    /// ([`RateEstimator::cdf_at_most`]).
    ///
    /// Before any publisher broadcast has been received the factor is 1
    /// (secondaries start synchronized with an empty update history).
    pub fn staleness_factor(&self, staleness_threshold: u32, now: SimTime) -> f64 {
        let Some(tl) = self.time_since_lazy(now) else {
            return 1.0;
        };
        self.rate
            .cdf_at_most(u64::from(staleness_threshold), tl.as_micros())
    }

    /// Number of replicas with any recorded history.
    pub fn tracked_replicas(&self) -> usize {
        self.replicas.len()
    }
}

/// See [`InfoRepository::on_demand`].
#[derive(Debug)]
pub struct OnDemandCandidates<'a> {
    repo: &'a InfoRepository,
    keys: &'a [CandidateKey],
    d: SimDuration,
}

impl CandidateSource for OnDemandCandidates<'_> {
    fn count(&self) -> usize {
        self.keys.len()
    }

    fn key(&self, index: usize) -> CandidateKey {
        self.keys[index]
    }

    fn immediate_cdf(&mut self, index: usize) -> f64 {
        self.repo.immediate_cdf(self.keys[index].id, self.d)
    }

    fn deferred_cdf(&mut self, index: usize) -> f64 {
        self.repo.deferred_cdf(self.keys[index].id, self.d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::ReadMeasurement;

    fn perf(ts: u64, tq: u64, tb: u64) -> PerfBroadcast {
        PerfBroadcast {
            read: Some(ReadMeasurement {
                ts_us: ts,
                tq_us: tq,
                tb_us: tb,
            }),
            publisher: None,
        }
    }

    fn repo() -> InfoRepository {
        InfoRepository::new(WINDOW_SIZE)
    }

    fn r(i: usize) -> ActorId {
        ActorId::from_index(i)
    }

    #[test]
    fn unknown_replica_is_unpredictable() {
        let repo = repo();
        assert_eq!(repo.immediate_cdf(r(0), SimDuration::from_secs(100)), 0.0);
        assert_eq!(repo.deferred_cdf(r(0), SimDuration::from_secs(100)), 0.0);
        assert_eq!(repo.ert_us(r(0), SimTime::from_secs(1)), u64::MAX);
    }

    #[test]
    fn immediate_cdf_from_windows() {
        let mut repo = repo();
        let now = SimTime::from_secs(1);
        // S always 100ms, W always 10ms, no gateway delay recorded -> G = 0.
        for _ in 0..5 {
            repo.record_perf(r(1), &perf(100_000, 10_000, 0), now);
        }
        assert_eq!(repo.immediate_cdf(r(1), SimDuration::from_millis(109)), 0.0);
        assert_eq!(repo.immediate_cdf(r(1), SimDuration::from_millis(110)), 1.0);
    }

    #[test]
    fn gateway_delay_shifts_cdf() {
        let mut repo = repo();
        let tm = SimTime::from_millis(0);
        let tp = SimTime::from_millis(30); // round trip 30ms
        repo.record_perf(r(1), &perf(100_000, 0, 0), tp);
        // t1 = 25ms of the 30ms round trip -> G = 5ms.
        repo.record_reply(r(1), 25_000, tm, tp);
        assert_eq!(repo.immediate_cdf(r(1), SimDuration::from_millis(104)), 0.0);
        assert_eq!(repo.immediate_cdf(r(1), SimDuration::from_millis(105)), 1.0);
    }

    #[test]
    fn gateway_delay_clamps_at_zero() {
        let mut repo = repo();
        let tm = SimTime::from_millis(10);
        let tp = SimTime::from_millis(15);
        // t1 claims more time than the round trip: clamp G to 0.
        repo.record_reply(r(1), 99_000, tm, tp);
        repo.record_perf(r(1), &perf(50_000, 0, 0), tp);
        assert_eq!(repo.immediate_cdf(r(1), SimDuration::from_millis(50)), 1.0);
    }

    #[test]
    fn deferred_requires_u_history() {
        let mut repo = repo();
        let now = SimTime::from_secs(1);
        repo.record_perf(r(1), &perf(100_000, 0, 0), now);
        assert_eq!(repo.deferred_cdf(r(1), SimDuration::from_secs(10)), 0.0);
        // A deferred read contributes U.
        repo.record_perf(r(1), &perf(100_000, 0, 500_000), now);
        assert!(repo.deferred_cdf(r(1), SimDuration::from_secs(10)) > 0.99);
        assert_eq!(repo.deferred_cdf(r(1), SimDuration::from_millis(599)), 0.0);
        // 100 (S) + 0 (W) + 500 (U) = 600ms: all deferred mass is there.
        assert_eq!(repo.deferred_cdf(r(1), SimDuration::from_millis(600)), 1.0);
    }

    #[test]
    fn ert_tracks_last_reply() {
        let mut repo = repo();
        repo.record_reply(r(1), 0, SimTime::from_millis(0), SimTime::from_millis(40));
        assert_eq!(repo.ert_us(r(1), SimTime::from_millis(100)), 60_000);
        repo.record_reply(r(1), 0, SimTime::from_millis(80), SimTime::from_millis(90));
        assert_eq!(repo.ert_us(r(1), SimTime::from_millis(100)), 10_000);
    }

    #[test]
    fn staleness_factor_defaults_to_one() {
        let repo = repo();
        assert_eq!(repo.staleness_factor(0, SimTime::from_secs(5)), 1.0);
    }

    #[test]
    fn staleness_factor_uses_publisher_info() {
        let mut repo = repo();
        let now = SimTime::from_secs(10);
        let p = PublisherInfo {
            n_u: 4,
            t_u: SimDuration::from_secs(2), // rate = 2/s
            n_l: 1,
            t_l: SimDuration::from_millis(500),
            period: SimDuration::from_secs(2),
        };
        repo.record_perf(
            r(9),
            &PerfBroadcast {
                read: None,
                publisher: Some(p),
            },
            now,
        );
        // At reception time: tl = 500ms, mu = 2/s * 0.5s = 1.
        let sf = repo.staleness_factor(0, now);
        assert!((sf - (-1.0f64).exp()).abs() < 1e-9, "sf = {sf}");
        // 1.5s later: tl = (0.5 + 1.5) mod 2 = 0 -> mu = 0 -> factor 1.
        let sf = repo.staleness_factor(0, now + SimDuration::from_millis(1500));
        assert_eq!(sf, 1.0);
        // Monotone in a.
        let lo = repo.staleness_factor(0, now);
        let hi = repo.staleness_factor(3, now);
        assert!(hi > lo);
    }

    #[test]
    fn rate_pools_across_broadcasts() {
        let mut repo = repo();
        let mk = |n_u, secs| PerfBroadcast {
            read: None,
            publisher: Some(PublisherInfo {
                n_u,
                t_u: SimDuration::from_secs(secs),
                n_l: 0,
                t_l: SimDuration::ZERO,
                period: SimDuration::from_secs(4),
            }),
        };
        repo.record_perf(r(9), &mk(2, 1), SimTime::from_secs(1));
        repo.record_perf(r(9), &mk(4, 2), SimTime::from_secs(3));
        // 6 updates over 3s = 2/s = 2e-6/µs.
        assert!((repo.update_rate_per_us().unwrap() - 2e-6).abs() < 1e-12);
    }

    /// A repository that heard one publisher report a second from 0 s,
    /// each `(n_u, t_u in ms)` of `windows` with the last lazy update `t_l`
    /// before it, and the time of the last report.
    fn observed(windows: &[(u64, u64)], t_l: SimDuration) -> (InfoRepository, SimTime) {
        let mut repo = repo();
        let mut now = SimTime::ZERO;
        for (i, &(n_u, t_u_ms)) in windows.iter().enumerate() {
            now = SimTime::from_secs(i as u64);
            let p = PublisherInfo {
                n_u,
                t_u: SimDuration::from_millis(t_u_ms),
                n_l: 0,
                t_l,
                period: SimDuration::from_secs(2),
            };
            let perf = PerfBroadcast {
                read: None,
                publisher: Some(p),
            };
            repo.record_perf(r(9), &perf, now);
        }
        (repo, now)
    }

    #[test]
    fn empirical_mixture_matches_poisson_under_constant_rate() {
        // Constant 2/s across observations: the counts look Poisson, so
        // the factor is Eq. 4's, and the mixture of equal rates is too.
        let (repo, now) = observed(&[(2, 1000); 6], SimDuration::from_millis(500));
        let factor = repo.staleness_factor(2, now);
        // tl = 0.5 s, mu = 2/s * 0.5 s = 1 for the pooled and every window rate.
        let poisson = aqf_stats::poisson_cdf(repo.update_rate_per_us().unwrap() * 5e5, 2);
        let mixture = aqf_stats::poisson_cdf(1.0, 2);
        assert_eq!(factor, poisson);
        assert!((poisson - mixture).abs() < 1e-9, "{poisson} vs {mixture}");
    }

    #[test]
    fn empirical_mixture_reflects_rate_dispersion() {
        // Same mean rate (2/s), once even and once bursty: half the
        // observations at 4/s, half at 0/s. The even counts keep Eq. 4's
        // pooled rate; the bursty ones are overdispersed, and the mixture
        // evaluates each observed rate separately (here:
        // (CDF(6,1) + CDF(0,1)) / 2) instead of collapsing the dispersion
        // into one pooled rate.
        let t_l = SimDuration::from_millis(1500);
        let bursty: Vec<(u64, u64)> = (0..RATE_WINDOW)
            .map(|i| (4 * (1 - i as u64 % 2), 1000))
            .collect();
        let (even, at) = observed(&[(2, 1000); RATE_WINDOW], t_l);
        let poisson_even = even.staleness_factor(1, at);
        let (bursty, at) = observed(&bursty, t_l);
        let mixture_bursty = bursty.staleness_factor(1, at);
        // tl = 1.5 s. Pooled Poisson: mu = 2/s * 1.5 s = 3 -> CDF(3, 1).
        let expected_poisson = aqf_stats::poisson_cdf(3.0, 1);
        // Mixture: half mu = 6, half mu = 0.
        let expected_mixture = (aqf_stats::poisson_cdf(6.0, 1) + 1.0) / 2.0;
        assert!((poisson_even - expected_poisson).abs() < 1e-9);
        assert!((mixture_bursty - expected_mixture).abs() < 1e-9);
        assert!(
            (mixture_bursty - poisson_even).abs() > 0.05,
            "dispersion must be visible in the estimate"
        );
    }

    #[test]
    fn empirical_mixture_without_observations_is_one() {
        assert_eq!(repo().staleness_factor(0, SimTime::from_secs(1)), 1.0);
        // Reports that span no time give neither estimator a rate.
        let (repo, now) = observed(&[(8, 0), (8, 0)], SimDuration::from_millis(500));
        assert_eq!(repo.staleness_factor(0, now), 1.0);
    }

    #[test]
    fn window_eviction_bounds_history() {
        let mut repo = InfoRepository::new(2);
        let now = SimTime::from_secs(1);
        repo.record_perf(r(1), &perf(1_000_000, 0, 0), now); // slow, will be evicted
        repo.record_perf(r(1), &perf(10_000, 0, 0), now);
        repo.record_perf(r(1), &perf(10_000, 0, 0), now);
        assert_eq!(repo.immediate_cdf(r(1), SimDuration::from_millis(20)), 1.0);
        // The rate window keeps the last `RATE_WINDOW` observations: a
        // burst seen one window ago no longer counts.
        let observed = |n_u| PerfBroadcast {
            read: None,
            publisher: Some(PublisherInfo {
                n_u,
                t_u: SimDuration::from_secs(1),
                n_l: 0,
                t_l: SimDuration::ZERO,
                period: SimDuration::from_secs(4),
            }),
        };
        repo.record_perf(r(9), &observed(1_000), now);
        for _ in 0..RATE_WINDOW {
            repo.record_perf(r(9), &observed(2), now);
        }
        assert!((repo.update_rate_per_us().unwrap() - 2e-6).abs() < 1e-12);
    }

    #[test]
    fn quarantine_opens_at_threshold_and_expires() {
        let mut repo = InfoRepository::new(WINDOW_SIZE);
        let now = SimTime::from_secs(1);
        for _ in 1..QUARANTINE_THRESHOLD {
            assert!(!repo.record_strike(r(1), now));
        }
        assert!(!repo.is_quarantined(r(1), now));
        assert!(repo.record_strike(r(1), now), "the threshold strike");
        assert!(repo.is_quarantined(r(1), now));
        assert!(repo.is_quarantined(r(1), now + SimDuration::from_secs(4)));
        assert!(!repo.is_quarantined(r(1), now + QUARANTINE_BASE));
        // Further strikes inside the window do not restart it.
        assert!(!repo.record_strike(r(1), now));
    }

    #[test]
    fn requarantine_backs_off_exponentially() {
        let mut repo = InfoRepository::new(WINDOW_SIZE);
        let t0 = SimTime::from_secs(1);
        for _ in 0..QUARANTINE_THRESHOLD {
            repo.record_strike(r(1), t0);
        }
        // Probation: one more timeout after expiry re-quarantines at once,
        // with a doubled window.
        let t1 = t0 + SimDuration::from_secs(10);
        assert!(!repo.is_quarantined(r(1), t1));
        assert!(repo.record_strike(r(1), t1));
        assert!(repo.is_quarantined(r(1), t1 + SimDuration::from_secs(9)));
        assert!(!repo.is_quarantined(r(1), t1 + SimDuration::from_secs(11)));
    }

    #[test]
    fn reexclusion_doubles_up_to_the_cap() {
        let mut repo = InfoRepository::new(WINDOW_SIZE);
        let mut now = SimTime::from_secs(1);
        for _ in 1..QUARANTINE_THRESHOLD {
            assert!(!repo.record_strike(r(1), now));
        }
        for window in [5, 10, 20, 40, 60, 60] {
            assert!(repo.record_strike(r(1), now));
            let window = SimDuration::from_secs(window);
            assert!(repo.is_quarantined(r(1), now + window - SimDuration::from_micros(1)));
            assert!(!repo.is_quarantined(r(1), now + window));
            // On probation the next strike re-excludes at once.
            now += window;
        }
    }

    #[test]
    fn late_reply_keeps_strikes_and_a_timely_one_clears_them() {
        let mut repo = InfoRepository::new(WINDOW_SIZE);
        let t0 = SimTime::from_secs(1);
        let strike = |repo: &mut InfoRepository| repo.record_strike(r(1), t0);
        strike(&mut repo);
        strike(&mut repo);
        // A reply that proves liveness only: the third strike still excludes.
        repo.record_reply(r(1), 0, t0, t0 + SimDuration::from_millis(900));
        assert!(strike(&mut repo), "a late reply kept two strikes");
        let t1 = t0 + SimDuration::from_secs(1);
        repo.record_probe_success(r(1), t1);
        assert!(!repo.is_quarantined(r(1), t1));
        strike(&mut repo);
        strike(&mut repo);
        assert!(
            !repo.is_quarantined(r(1), t1),
            "a timely reply cleared them"
        );
    }

    #[test]
    fn timely_probe_clears_quarantine_but_plain_replies_do_not() {
        let mut repo = InfoRepository::new(WINDOW_SIZE);
        let t0 = SimTime::from_secs(1);
        for _ in 0..QUARANTINE_THRESHOLD {
            repo.record_strike(r(1), t0);
        }
        assert!(repo.is_quarantined(r(1), t0));
        // A late reply updates the performance record without lifting the
        // quarantine: a gray-slow replica answers late forever.
        repo.record_reply(r(1), 0, t0, t0 + SimDuration::from_millis(900));
        assert!(repo.is_quarantined(r(1), t0 + SimDuration::from_secs(1)));
        // A timely probe success clears everything, including the backoff
        // level.
        repo.record_probe_success(r(1), t0 + SimDuration::from_secs(1));
        assert!(!repo.is_quarantined(r(1), t0 + SimDuration::from_secs(1)));
        for _ in 0..2 {
            repo.record_strike(r(1), t0);
        }
        assert!(
            !repo.is_quarantined(r(1), t0),
            "strike count restarted after probe success"
        );
    }
}
