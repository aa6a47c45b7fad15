//! The client-side gateway handler (paper §5).
//!
//! The client gateway transparently intercepts each request. For updates it
//! multicasts to the primary group and waits for the first reply. For
//! read-only requests it consults its information repository, runs the
//! selection policy (Algorithm 1 by default) to pick a replica subset that
//! meets the client's QoS specification, transmits the read to the selected
//! replicas plus the sequencer after the (virtual) selection overhead has
//! elapsed, delivers the first reply to the application, and feeds the
//! timing failure detector.
//!
//! Like the server gateway, this is a sans-IO state machine: hosts feed it
//! requests, payloads, timer expirations and view changes, and execute the
//! [`ClientAction`]s it appends to the caller-owned sink. Every callback and
//! every helper below writes into that one `&mut Vec<ClientAction>`; nothing
//! returns a fresh `Vec`, so a host that reuses its buffer pays no
//! allocation for the action list.
//!
//! One request has one lifecycle — tracked, selected, transmitted, timed,
//! completed, forgotten — whatever is layered on it. Retry/hedging
//! ([`RecoveryPolicy`]) adds attempts to that lifecycle; the overload state
//! ([`crate::overload`]) and the causal session ([`crate::causal`]) are
//! each an `Option` the gateway holds only while the feature is on, so the
//! disabled default has no state to consult.

use crate::admission;
use crate::causal::Session;
use crate::model::{Candidate, CandidateKey, Selection};
use crate::monitor::{InfoRepository, WINDOW_SIZE};
use crate::obs::{req_ref, ObsEvent, ObsHandle};
use crate::overload::{ClientOverload, DegradeTransition, RECOVER_WINDOW};
use crate::qos::{OperationKind, OrderingGuarantee, QosSpec};
use crate::select::{SelectionPolicy, Selector};
use crate::timing::TimingFailureDetector;
use crate::wire::{
    Operation, Payload, ReadRequest, RequestId, UpdateRequest, PRIMARY_GROUP, SECONDARY_GROUP,
};
use aqf_group::View;
use aqf_sim::{ActorId, FastMap, SimDuration, SimTime};
use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::rc::Rc;

/// Tuning knobs for a client gateway.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// The selection policy (Algorithm 1 unless running an ablation).
    pub policy: SelectionPolicy,
    /// Seed for the randomized baseline policies.
    pub seed: u64,
    /// The service's ordering guarantee: with [`OrderingGuarantee::Sequential`]
    /// reads go through the sequencer (leader of the primary group) and the
    /// leader is excluded from the candidates; with
    /// [`OrderingGuarantee::Fifo`] there is no sequencer and every primary
    /// member is a candidate.
    pub ordering: OrderingGuarantee,
    /// End-to-end recovery: retries and replica quarantine.
    pub recovery: RecoveryPolicy,
    /// Overload protection (see [`crate::overload`]): `Busy` as a
    /// quarantine strike, the graceful-degradation ladder, and runtime
    /// admission re-evaluation. Off by default (bit-identical to a gateway
    /// without the subsystem).
    pub overload: bool,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            policy: SelectionPolicy::Probabilistic,
            seed: 0,
            ordering: OrderingGuarantee::Sequential,
            recovery: RecoveryPolicy::default(),
            overload: false,
        }
    }
}

/// Virtual-time cost of running the selection model before a read is
/// transmitted ("we account for these overheads when selecting the
/// replicas", §6; Figure 3 measures it at roughly a millisecond).
const SELECTION_OVERHEAD: SimDuration = SimDuration::from_millis(1);

/// How long a request waits for any reply before it is declared lost.
const GIVE_UP: SimDuration = SimDuration::from_secs(10);

/// A request's attempt budget under [`RecoveryPolicy`], *including* the
/// first transmission.
const MAX_ATTEMPTS: u32 = 3;

/// Backoff before the first retransmission; doubles per attempt.
pub const BASE_BACKOFF: SimDuration = SimDuration::from_millis(20);

/// How long an update attempt may go unacknowledged before it is
/// retransmitted (updates have no QoS deadline).
pub const UPDATE_RETRY_AFTER: SimDuration = SimDuration::from_secs(1);

/// Cap on the exponential backoff.
const MAX_BACKOFF: SimDuration = SimDuration::from_secs(1);

const _: () = assert!(MAX_ATTEMPTS >= 1);

/// Retry / quarantine policy for the client gateway.
///
/// The recovery state machine per request:
///
/// ```text
/// submit ── transmit(attempt 1) ── attempt expiry (Deadline for reads,
///    Retry for updates) ── backoff (capped exponential + jitter, Backoff
///    timer) ── retransmit(attempt n+1, reselected excluding tried and
///    quarantined replicas) ── attempt expiry (Retry) ── ... until
///    MAX_ATTEMPTS or the give-up horizon, whichever comes first.
/// ```
///
/// All timers and jitter come from the gateway's seeded RNG and virtual
/// clock, so recovery is fully deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Master switch; `false` reproduces the seed's fire-and-forget
    /// behaviour (used as the A/B baseline in experiments).
    pub enabled: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self { enabled: true }
    }
}

impl RecoveryPolicy {
    /// The seed's original behaviour: one attempt, no quarantine.
    pub fn disabled() -> Self {
        Self { enabled: false }
    }
}

/// Why a gateway timer was armed; the host hands it back on expiry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerPurpose {
    /// Selection overhead elapsed: transmit the prepared read.
    Transmit,
    /// The client's deadline passed.
    Deadline,
    /// Give up waiting for any reply.
    GiveUp,
    /// The current attempt's response window expired: judge it.
    Retry,
    /// The backoff before the next attempt elapsed: retransmit.
    Backoff,
}

/// Completion information delivered to the client application.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseInfo {
    /// The completed request.
    pub req: RequestId,
    /// Read or update.
    pub kind: OperationKind,
    /// Result payload (empty when the request timed out).
    pub result: Bytes,
    /// End-to-end response time `tr = tp - t0`.
    pub response_time: SimDuration,
    /// Whether the response met the deadline (reads only; updates are
    /// always `true` unless timed out).
    pub timely: bool,
    /// Whether the serving replica performed a deferred read.
    pub deferred: bool,
    /// Staleness (versions) of the response.
    pub staleness: u64,
    /// True when no reply arrived within the give-up window.
    pub timed_out: bool,
    /// True when the graceful-degradation controller rejected the request
    /// locally (ladder exhausted); no replica was contacted.
    pub shed: bool,
    /// True when the request ran under a degraded QoS specification
    /// (widened staleness threshold and/or relaxed probability). Consumers
    /// auditing staleness against the *original* specification must skip
    /// or adjust for degraded responses.
    pub degraded: bool,
    /// Size of the replica set selected for this request (including the
    /// sequencer; 0 for updates).
    pub replicas_selected: usize,
    /// Commit/version number carried on the winning reply: the GSN of the
    /// update (sequential), the serving replica's applied CSN (sequential
    /// reads), or the serving replica's local version (FIFO/causal). Zero
    /// when no reply arrived (shed, timed out).
    pub csn: u64,
    /// Version vector carried on the winning reply (causal ordering only;
    /// empty otherwise). Snapshot of the serving replica's vector at
    /// service time.
    pub vector: crate::wire::VersionVector,
}

impl ResponseInfo {
    /// A completion with no reply behind it (local shed, give-up).
    fn unanswered(req: RequestId, kind: OperationKind) -> Self {
        Self {
            req,
            kind,
            result: Bytes::new(),
            response_time: SimDuration::ZERO,
            timely: false,
            deferred: false,
            staleness: 0,
            timed_out: false,
            shed: false,
            degraded: false,
            replicas_selected: 0,
            csn: 0,
            vector: Vec::new(),
        }
    }
}

/// Instructions for the host actor.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientAction {
    /// Reliably FIFO-multicast into the primary group (updates).
    MulticastPrimary(Payload),
    /// Send an unordered point-to-point payload (reads to selected
    /// replicas).
    SendDirect {
        /// Recipient gateway.
        to: ActorId,
        /// Payload to deliver.
        payload: Payload,
    },
    /// Arm a timer for `req`; hand it back, with its purpose and attempt,
    /// to [`ClientGateway::on_timer`].
    ArmTimer {
        /// Request the timer concerns.
        req: RequestId,
        /// Which expiry handler to invoke.
        purpose: TimerPurpose,
        /// The request's attempt when the timer was armed: a `Deadline` or
        /// `Retry` of an earlier attempt does not end the current one.
        attempt: u32,
        /// Delay until expiry.
        after: SimDuration,
    },
    /// Deliver a completion to the client application.
    Completed(ResponseInfo),
    /// The observed frequency of timely responses dropped below the
    /// client's requested minimum (the §5.4 callback).
    QosAlert {
        /// Observed timely-response frequency.
        observed_timely: f64,
        /// The minimum probability the client requested.
        requested: f64,
    },
    /// The graceful-degradation controller changed level (metrics event;
    /// level 0 = nominal, each rung widens the QoS, beyond the ladder =
    /// local rejection).
    Degrade {
        /// Level before the transition.
        from_level: u32,
        /// Level after the transition.
        to_level: u32,
    },
}

/// Counters exposed for tests and experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Read requests issued.
    pub reads: u64,
    /// Update requests issued.
    pub updates: u64,
    /// Timing failures recorded.
    pub timing_failures: u64,
    /// Sum of selected-set sizes over all reads (for the Figure 4a
    /// average).
    pub selected_sum: u64,
    /// First replies that were deferred reads.
    pub deferred_replies: u64,
    /// Requests that hit the give-up window with no reply at all.
    pub give_ups: u64,
    /// Replies that arrived after their request was forgotten.
    pub late_replies: u64,
    /// Retransmissions (attempts beyond the first).
    pub retries: u64,
    /// Quarantine windows opened against struck replicas (silent or
    /// `Busy`).
    pub quarantines: u64,
    /// Response-time CDF evaluations (`F^I` or `F^D` of one replica at one
    /// deadline, each a count over the sorted windows).
    pub cdf_evaluations: u64,
    /// Explicit `Busy` rejections received from shedding replicas; each is
    /// a quarantine strike against the shedder.
    pub busy_rejections: u64,
    /// Reads rejected locally by the degradation controller's final rung
    /// (no replica contacted).
    pub local_sheds: u64,
    /// Graceful-degradation level transitions (either direction).
    pub degrade_transitions: u64,
    /// Admission re-evaluations triggered by view changes or quarantine
    /// openings.
    pub admission_reevals: u64,
    /// Re-evaluations that found the requested specification no longer
    /// attainable.
    pub admission_rejects: u64,
}

#[derive(Debug)]
struct Pending {
    kind: OperationKind,
    qos: Option<QosSpec>,
    t0: SimTime,
    /// When the request was transmitted; `t0` until then.
    tm: SimTime,
    /// The request as first sent, kept for as long as it may be sent again
    /// (always for a read, which is transmitted after the selection
    /// overhead; for an update only under a retry policy). Every
    /// transmission is this payload with only the attempt counter set —
    /// causal updates in particular MUST reuse their original stamp so
    /// retries stay idempotent.
    payload: Option<Payload>,
    replied: bool,
    outcome_recorded: bool,
    selected: usize,
    /// Current attempt number (1-based).
    attempt: u32,
    /// Every replica targeted so far, across attempts.
    /// Retransmissions reselect excluding these.
    tried: Vec<ActorId>,
    /// Targets of the current attempt that have not replied; drained
    /// into quarantine strikes when the attempt expires.
    unacked: Vec<ActorId>,
    /// A [`TimerPurpose::Backoff`] into the next attempt is armed; the
    /// current attempt has been judged and is not judged again.
    retry_pending: bool,
    /// The request was issued under a degraded (ladder-widened) QoS
    /// specification; `qos` holds the *effective* spec.
    degraded: bool,
}

impl Pending {
    /// The specification a read's outcome is still to be judged by — at
    /// most once per request; an update has none.
    fn take_unjudged(&mut self) -> Option<QosSpec> {
        if std::mem::replace(&mut self.outcome_recorded, true) {
            None
        } else {
            self.qos
        }
    }
}

fn arm(
    out: &mut Vec<ClientAction>,
    req: RequestId,
    purpose: TimerPurpose,
    attempt: u32,
    after: SimDuration,
) {
    out.push(ClientAction::ArmTimer {
        req,
        purpose,
        attempt,
        after,
    });
}

/// Sends `payload` to each of `targets`.
fn send(out: &mut Vec<ClientAction>, targets: &[ActorId], payload: &Payload) {
    out.extend(targets.iter().map(|&to| ClientAction::SendDirect {
        to,
        payload: payload.clone(),
    }));
}

/// The client-side gateway state machine. See the [module docs](self).
#[derive(Debug)]
pub struct ClientGateway {
    me: ActorId,
    config: ClientConfig,
    repo: InfoRepository,
    selector: Selector,
    detector: TimingFailureDetector,
    rng: SmallRng,
    next_seq: u64,
    pending: FastMap<RequestId, Pending>,
    primary_view: Rc<View>,
    secondary_view: Rc<View>,
    alerted: bool,
    last_selection: Option<Selection>,
    last_stale_factor: f64,
    selection_counts: FastMap<ActorId, u64>,
    /// Sum of `P_K(d)` predictions over all reads (model calibration).
    predicted_sum: f64,
    /// Session causality; `None` unless the ordering is causal.
    session: Option<Session>,
    /// The degradation ladder; `None` unless `config.overload` is on.
    overload: Option<ClientOverload>,
    stats: ClientStats,
    /// Observability sink (disabled by default; recording only, never
    /// steering — see [`crate::obs`]).
    obs: ObsHandle,
}

impl ClientGateway {
    /// Creates a gateway for client `me` that initially knows the given
    /// replication-group views (kept current through observed view
    /// announcements).
    pub fn new(
        me: ActorId,
        primary_view: impl Into<Rc<View>>,
        secondary_view: impl Into<Rc<View>>,
        config: ClientConfig,
    ) -> Self {
        let overload = config.overload.then(|| ClientOverload::new(me));
        // With overload protection on, the detector gains a sliding window
        // sized to the recovery hysteresis; otherwise the lifetime-only
        // detector keeps the original (seed) alert behavior.
        let detector = match &overload {
            Some(_) => TimingFailureDetector::with_window(RECOVER_WINDOW),
            None => TimingFailureDetector::new(),
        };
        Self {
            me,
            repo: InfoRepository::new(WINDOW_SIZE),
            selector: Selector::new(config.policy),
            detector,
            rng: SmallRng::seed_from_u64(config.seed),
            next_seq: 0,
            pending: FastMap::default(),
            primary_view: primary_view.into(),
            secondary_view: secondary_view.into(),
            alerted: false,
            last_selection: None,
            last_stale_factor: 1.0,
            selection_counts: FastMap::default(),
            predicted_sum: 0.0,
            session: (config.ordering == OrderingGuarantee::Causal).then(Session::default),
            overload,
            config,
            stats: ClientStats::default(),
            obs: ObsHandle::disabled(),
        }
    }

    /// Installs an observability handle; events from this gateway (and its
    /// repository's quarantine bookkeeping) flow into it. Installing a
    /// disabled handle keeps the gateway un-instrumented.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.repo.set_obs(self.me, obs.clone());
        if let Some(overload) = &mut self.overload {
            overload.set_obs(obs.clone());
        }
        self.obs = obs;
    }

    /// This client's id.
    pub fn me(&self) -> ActorId {
        self.me
    }

    /// The information repository (diagnostics, experiments).
    pub fn repository(&self) -> &InfoRepository {
        &self.repo
    }

    /// The timing failure detector.
    pub fn detector(&self) -> &TimingFailureDetector {
        &self.detector
    }

    /// Counters, with the repository's CDF evaluations folded in.
    pub fn stats(&self) -> ClientStats {
        ClientStats {
            cdf_evaluations: self.repo.cdf_evaluations(),
            ..self.stats
        }
    }

    /// The most recent selection outcome (experiments).
    pub fn last_selection(&self) -> Option<&Selection> {
        self.last_selection.as_ref()
    }

    /// How many times each replica has been selected by this client (used
    /// by the hot-spot ablation study).
    pub fn selection_counts(&self) -> &FastMap<ActorId, u64> {
        &self.selection_counts
    }

    /// Mean `P_K(d)` prediction over all reads — the model's promised
    /// probability of timely response, computed with the best selected
    /// member excluded (§5.3), for calibration against the observed
    /// frequency.
    pub fn mean_predicted(&self) -> Option<f64> {
        (self.stats.reads > 0).then(|| self.predicted_sum / self.stats.reads as f64)
    }

    /// The current graceful-degradation level (0 = nominal; each rung of
    /// the ladder widens the QoS; the level past the last rung rejects
    /// locally).
    pub fn degrade_level(&self) -> u32 {
        self.overload.as_ref().map_or(0, ClientOverload::level)
    }

    /// Every degradation-level transition so far, in order.
    pub fn degrade_transitions(&self) -> &[DegradeTransition] {
        self.overload
            .as_ref()
            .map_or(&[], ClientOverload::transitions)
    }

    /// The current sequencer (leader of the primary group).
    pub fn sequencer(&self) -> ActorId {
        self.primary_view.leader()
    }

    /// Issues `op` — a read when it has a `deadline` — its id, its
    /// counter, its trace event.
    fn issue(&mut self, op: &Operation, deadline: Option<SimDuration>, now: SimTime) -> RequestId {
        let id = RequestId {
            client: self.me,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        match deadline {
            Some(_) => self.stats.reads += 1,
            None => self.stats.updates += 1,
        }
        self.obs.emit(now, self.me, || ObsEvent::RequestIssued {
            req: req_ref(id),
            read: deadline.is_some(),
            deadline_us: deadline.map_or(0, SimDuration::as_micros),
            method: op.method.as_str(),
            arg: op.payload.to_vec(),
        });
        id
    }

    /// Starts tracking request `id` — a read when it carries a `qos` —
    /// until its give-up timer forgets it.
    fn track(
        &mut self,
        id: RequestId,
        qos: Option<QosSpec>,
        degraded: bool,
        payload: Option<Payload>,
        now: SimTime,
    ) {
        let pending = Pending {
            kind: match qos {
                Some(_) => OperationKind::ReadOnly,
                None => OperationKind::Update,
            },
            qos,
            t0: now,
            tm: now,
            outcome_recorded: false,
            payload,
            replied: false,
            selected: 0,
            attempt: 1,
            tried: Vec::new(),
            unacked: Vec::new(),
            retry_pending: false,
            degraded,
        };
        self.pending.insert(id, pending);
    }

    fn tracked(&mut self, req: RequestId) -> &mut Pending {
        self.pending.get_mut(&req).expect("request is pending")
    }

    /// Submits an update: multicast to the primary group, completion on the
    /// first reply (paper §5: "our selection algorithm handles an update
    /// request of a client by simply multicasting the request to all the
    /// primary replicas").
    pub fn submit_update(
        &mut self,
        op: Operation,
        now: SimTime,
        out: &mut Vec<ClientAction>,
    ) -> RequestId {
        let id = self.issue(&op, None, now);
        let stamp = self.session.as_mut().map(|s| s.stamp_update(self.me, now));
        let payload = Payload::Update(UpdateRequest { id, op, attempt: 1 }, stamp);
        let recovery = self.config.recovery;
        let kept = recovery.enabled.then(|| payload.clone());
        self.track(id, None, false, kept, now);
        out.push(ClientAction::MulticastPrimary(payload));
        arm(out, id, TimerPurpose::GiveUp, 1, GIVE_UP);
        if recovery.enabled {
            // Updates have no QoS deadline; a dedicated timer checks the
            // attempt for expiry.
            arm(out, id, TimerPurpose::Retry, 1, UPDATE_RETRY_AFTER);
        }
        id
    }

    /// Submits a read with QoS specification `qos`: runs replica selection,
    /// then transmits after the selection overhead has elapsed.
    pub fn submit_read(
        &mut self,
        op: Operation,
        qos: QosSpec,
        now: SimTime,
        out: &mut Vec<ClientAction>,
    ) -> RequestId {
        let id = self.issue(&op, Some(qos.deadline), now);
        // Graceful degradation (when enabled): the read runs under the
        // ladder-widened effective spec, or — ladder exhausted — not at all.
        let (qos, degraded) = match &mut self.overload {
            None => (qos, false),
            Some(overload) => match overload.admit(qos, now) {
                Some(effective) => (effective, overload.level() > 0),
                None => {
                    // Local rejections are not service outcomes, so they
                    // do not feed the timing-failure detector.
                    self.stats.local_sheds += 1;
                    self.obs
                        .emit(now, self.me, || ObsEvent::LocalShed { req: req_ref(id) });
                    out.push(ClientAction::Completed(ResponseInfo {
                        shed: true,
                        degraded: true,
                        ..ResponseInfo::unanswered(id, OperationKind::ReadOnly)
                    }));
                    return id;
                }
            },
        };
        let mut stale_factor = self.repo.staleness_factor(qos.staleness_threshold, now);
        // Session-causality correction: if this client observed new state
        // after the (estimated) last lazy propagation, the secondaries
        // cannot dominate its session vector and will defer — force the
        // model onto the deferred path.
        if let (Some(session), Some(tl)) = (&self.session, self.repo.time_since_lazy(now)) {
            if session.advanced_after(now - tl) {
                stale_factor = 0.0;
            }
        }
        let read = ReadRequest {
            id,
            op,
            staleness_threshold: qos.staleness_threshold,
            deadline_us: qos.deadline.as_micros(),
            attempt: 1,
            deps: self
                .session
                .as_ref()
                .map_or_else(Vec::new, Session::stamp_read),
        };
        self.track(id, Some(qos), degraded, Some(Payload::Read(read)), now);
        let selection = self.select_attempt(id, stale_factor, now);
        self.tracked(id).selected = selection.replicas.len();
        self.stats.selected_sum += selection.replicas.len() as u64;
        self.last_stale_factor = stale_factor;
        for r in &selection.replicas {
            *self.selection_counts.entry(*r).or_insert(0) += 1;
        }
        self.predicted_sum += selection.predicted;
        self.last_selection = Some(selection);
        arm(out, id, TimerPurpose::Transmit, 1, SELECTION_OVERHEAD);
        id
    }

    /// One attempt's replica selection (§5.3), first or retried: the
    /// candidates the request has not tried → Algorithm 1 (the sequencer
    /// re-included when the service has one) → the chosen targets recorded
    /// as tried and as owing this attempt a reply.
    fn select_attempt(&mut self, req: RequestId, stale_factor: f64, now: SimTime) -> Selection {
        let p = self.tracked(req);
        let (qos, attempt) = (p.qos.expect("reads carry qos"), p.attempt);
        let mut tried = std::mem::take(&mut p.tried);
        let candidates = self.candidate_keys(now, &tried);
        let sequencer =
            (self.config.ordering == OrderingGuarantee::Sequential).then(|| self.sequencer());
        let selection = self.selector.select_on_demand(
            &mut self.repo.on_demand(&candidates, qos.deadline),
            stale_factor,
            qos.min_probability,
            sequencer,
            &mut self.rng,
        );
        self.obs.emit(now, self.me, || ObsEvent::ReplicasSelected {
            req: req_ref(req),
            attempt: attempt as u64,
            targets: selection.replicas.clone(),
        });
        let p = self.tracked(req);
        tried.reserve(selection.replicas.len());
        p.unacked.reserve(selection.replicas.len());
        for &t in &selection.replicas {
            if !tried.contains(&t) {
                tried.push(t);
            }
            if !p.unacked.contains(&t) {
                p.unacked.push(t);
            }
        }
        p.tried = tried;
        selection
    }

    /// Builds the candidate list: every primary replica (except the
    /// sequencer when the service has one) plus every secondary replica,
    /// each with the elapsed response time Algorithm 1 orders by — the
    /// distribution values are evaluated later, for the candidates a
    /// caller reads them of. Replicas in `exclude` (already tried by the
    /// current request) and quarantined replicas are filtered out — unless
    /// that would leave no candidate at all, in which case the filters are
    /// relaxed in order (quarantine first, then `exclude`) so a request can
    /// always be transmitted.
    fn candidate_keys(&self, now: SimTime, exclude: &[ActorId]) -> Vec<CandidateKey> {
        let excluded =
            (self.config.ordering == OrderingGuarantee::Sequential).then(|| self.sequencer());
        let mut all = Vec::with_capacity(self.primary_view.len() + self.secondary_view.len());
        for &m in self.primary_view.members() {
            if Some(m) == excluded {
                continue;
            }
            all.push(self.repo.candidate_key(m, true, now));
        }
        for &m in self.secondary_view.members() {
            all.push(self.repo.candidate_key(m, false, now));
        }
        if !self.config.recovery.enabled && self.overload.is_none() {
            return all;
        }
        let untried = |c: &&CandidateKey| !exclude.contains(&c.id);
        let healthy = |c: &&CandidateKey| !self.repo.is_quarantined(c.id, now);
        let healthy_untried: Vec<CandidateKey> = all
            .iter()
            .filter(untried)
            .filter(healthy)
            .cloned()
            .collect();
        if !healthy_untried.is_empty() {
            return healthy_untried;
        }
        let untried: Vec<CandidateKey> = all.iter().filter(untried).cloned().collect();
        if !untried.is_empty() {
            return untried;
        }
        all
    }

    /// A gateway timer armed for `attempt` of `req` expired.
    pub fn on_timer(
        &mut self,
        req: RequestId,
        purpose: TimerPurpose,
        attempt: u32,
        now: SimTime,
        out: &mut Vec<ClientAction>,
    ) {
        match purpose {
            TimerPurpose::Transmit => self.on_transmit(req, now, out),
            TimerPurpose::Deadline => self.on_deadline(req, attempt, now, out),
            TimerPurpose::GiveUp => self.on_give_up(req, now, out),
            TimerPurpose::Retry => self.on_retry(req, attempt, now, out),
            TimerPurpose::Backoff => self.on_backoff(req, attempt, now, out),
        }
    }

    fn on_transmit(&mut self, req: RequestId, now: SimTime, out: &mut Vec<ClientAction>) {
        let Some(p) = self.pending.get_mut(&req) else {
            return;
        };
        p.tm = now;
        if let Some(payload) = &p.payload {
            send(out, &p.tried, payload);
        }
        let attempt = p.attempt;
        if let Some(qos) = p.qos {
            arm(out, req, TimerPurpose::Deadline, attempt, qos.deadline);
        }
        arm(out, req, TimerPurpose::GiveUp, attempt, GIVE_UP);
    }

    /// Feeds the outcome of a read issued under `qos` to the timing failure
    /// detector (§5.4) and to what hangs off it: the QoS alert and the
    /// degradation ladder.
    fn record_outcome(
        &mut self,
        timely: bool,
        qos: QosSpec,
        now: SimTime,
        out: &mut Vec<ClientAction>,
    ) {
        let requested = qos.min_probability;
        if timely {
            self.detector.record_timely();
        } else {
            self.detector.record_failure();
            self.stats.timing_failures += 1;
        }
        // The §5.4 callback fires once per excursion below the requested
        // probability.
        if !self.detector.should_alert(requested) {
            self.alerted = false;
        } else if !self.alerted {
            self.alerted = true;
            let observed_timely = self.detector.timely_frequency().unwrap_or(0.0);
            self.obs.emit(now, self.me, || ObsEvent::QosAlert {
                observed_ppm: TimingFailureDetector::to_ppm(observed_timely),
                threshold_ppm: TimingFailureDetector::to_ppm(requested),
            });
            out.push(ClientAction::QosAlert {
                observed_timely,
                requested,
            });
        }
        let stepped = self
            .overload
            .as_mut()
            .and_then(|o| o.on_outcome(&self.detector, now));
        self.surface(stepped, out);
    }

    /// Surfaces a degradation-level transition to the host.
    fn surface(&mut self, transition: Option<DegradeTransition>, out: &mut Vec<ClientAction>) {
        if let Some(t) = transition {
            self.stats.degrade_transitions += 1;
            out.push(ClientAction::Degrade {
                from_level: t.from_level,
                to_level: t.to_level,
            });
        }
    }

    /// The read's deadline, armed for `attempt`, passed.
    fn on_deadline(
        &mut self,
        req: RequestId,
        attempt: u32,
        now: SimTime,
        out: &mut Vec<ClientAction>,
    ) {
        let Some(p) = self.pending.get_mut(&req) else {
            return;
        };
        if p.replied {
            return;
        }
        // A `Busy` may have started the next attempt already: the read is
        // late all the same, but the attempt in flight runs on.
        let stale = attempt < p.attempt;
        let Some(qos) = p.take_unjudged() else {
            return;
        };
        // No reply within d: a timing failure (§5.4).
        self.record_outcome(false, qos, now, out);
        // The deadline doubles as attempt 1's expiry: charge the silent
        // replicas and schedule a retransmission if budget remains.
        if !stale {
            self.schedule_retry(req, now, out);
        }
    }

    /// The current attempt failed (deadline or expiry-check fire with no
    /// reply): charge quarantine strikes against the replicas that stayed
    /// silent, then arm the backoff timer for the next attempt if the
    /// attempt budget and the give-up horizon allow one.
    fn schedule_retry(&mut self, req: RequestId, now: SimTime, out: &mut Vec<ClientAction>) {
        let recovery = self.config.recovery;
        if !recovery.enabled {
            return;
        }
        let Some(p) = self.pending.get_mut(&req) else {
            return;
        };
        if p.replied || p.retry_pending {
            return;
        }
        let unacked = std::mem::take(&mut p.unacked);
        let attempt = p.attempt;
        let horizon = p.tm + GIVE_UP;
        if p.kind == OperationKind::ReadOnly {
            self.charge_strikes(&unacked, now, out);
        }
        if attempt >= MAX_ATTEMPTS {
            return;
        }
        // Capped exponential backoff with deterministic jitter in
        // [backoff/2, backoff), from the gateway's seeded RNG.
        let exp = BASE_BACKOFF
            .as_micros()
            .saturating_mul(1u64 << (attempt - 1).min(16))
            .min(MAX_BACKOFF.as_micros())
            .max(1);
        let jittered = SimDuration::from_micros(self.rng.gen_range(exp / 2..exp.max(2)));
        if now + jittered >= horizon {
            // No room left before give-up; let the give-up timer settle it.
            return;
        }
        self.tracked(req).retry_pending = true;
        self.obs.emit(now, self.me, || ObsEvent::RetryScheduled {
            req: req_ref(req),
            attempt: attempt as u64 + 1,
            delay_us: jittered.as_micros(),
        });
        arm(out, req, TimerPurpose::Backoff, attempt, jittered);
    }

    /// Charges one strike per replica in `struck` (silent through an
    /// attempt, or refusing it with `Busy`), opening quarantine windows
    /// when a replica crosses the threshold. Under overload protection an
    /// opened quarantine triggers an admission re-evaluation (the capacity
    /// the client planned around is gone).
    fn charge_strikes(&mut self, struck: &[ActorId], now: SimTime, out: &mut Vec<ClientAction>) {
        let mut opened = false;
        for &r in struck {
            if self.repo.record_strike(r, now) {
                self.stats.quarantines += 1;
                opened = true;
            }
        }
        if opened {
            self.reevaluate_admission(now, out);
        }
    }

    /// The current attempt's response window expired with no reply: fail
    /// the attempt and (maybe) back off into the next one. An attempt a
    /// `Busy` already ended, or whose backoff is running, is not judged
    /// again.
    fn on_retry(
        &mut self,
        req: RequestId,
        attempt: u32,
        now: SimTime,
        out: &mut Vec<ClientAction>,
    ) {
        let Some(p) = self.pending.get(&req) else {
            return;
        };
        if p.replied || !self.config.recovery.enabled || attempt < p.attempt {
            return;
        }
        self.schedule_retry(req, now, out);
    }

    /// The backoff armed for `attempt` elapsed: retransmit as the next
    /// attempt.
    fn on_backoff(
        &mut self,
        req: RequestId,
        attempt: u32,
        now: SimTime,
        out: &mut Vec<ClientAction>,
    ) {
        let recovery = self.config.recovery;
        let Some(p) = self.pending.get_mut(&req) else {
            return;
        };
        if p.replied || !recovery.enabled || attempt < p.attempt || !p.retry_pending {
            return;
        }
        // Retransmit the original request (same id and, in causal mode,
        // the same stamp — the server reply caches make this idempotent)
        // with only the attempt counter bumped.
        p.retry_pending = false;
        p.attempt += 1;
        let payload = p.payload.clone().expect("kept under a retry policy");
        let attempt = p.attempt;
        let payload = payload.with_attempt(attempt);
        let horizon = p.tm + GIVE_UP;
        self.stats.retries += 1;
        let Some(qos) = p.qos else {
            out.push(ClientAction::MulticastPrimary(payload));
            arm(out, req, TimerPurpose::Retry, attempt, UPDATE_RETRY_AFTER);
            return;
        };
        // Re-run selection over the replicas not yet tried (and not
        // quarantined).
        let selection = self.select_attempt(req, self.last_stale_factor, now);
        send(out, &selection.replicas, &payload);
        // This attempt gets a fresh response window, clipped to the
        // give-up horizon.
        let window = qos.deadline.min(horizon.saturating_since(now));
        if window > SimDuration::ZERO {
            arm(out, req, TimerPurpose::Retry, attempt, window);
        }
    }

    fn on_give_up(&mut self, req: RequestId, now: SimTime, out: &mut Vec<ClientAction>) {
        let Some(mut p) = self.pending.remove(&req) else {
            return;
        };
        if p.replied {
            // Completed long ago; this timer only garbage-collects.
            return;
        }
        self.stats.give_ups += 1;
        let response_time = now.saturating_since(p.t0);
        self.obs.emit(now, self.me, || ObsEvent::GaveUp {
            req: req_ref(req),
            response_us: response_time.as_micros(),
            degraded: p.degraded,
        });
        if p.kind == OperationKind::ReadOnly && self.config.recovery.enabled {
            // The replicas still silent at give-up never answered any
            // attempt; charge them before forgetting the request.
            self.charge_strikes(&p.unacked, now, out);
        }
        if let Some(qos) = p.take_unjudged() {
            self.record_outcome(false, qos, now, out);
        }
        out.push(ClientAction::Completed(ResponseInfo {
            response_time,
            timed_out: true,
            degraded: p.degraded,
            replicas_selected: p.selected,
            ..ResponseInfo::unanswered(req, p.kind)
        }));
    }

    /// Handles a payload addressed to this client (replies and performance
    /// broadcasts).
    pub fn on_payload(
        &mut self,
        from: ActorId,
        payload: Payload,
        now: SimTime,
        out: &mut Vec<ClientAction>,
    ) {
        match payload {
            Payload::Reply(r) => self.on_reply(from, r, now, out),
            Payload::Busy { req } => self.on_busy(from, req, now, out),
            Payload::Perf(p) => self.repo.record_perf(from, &p, now),
            _ => {}
        }
    }

    /// An overloaded replica explicitly refused the request. The refusal is
    /// one quarantine strike against the sender, which leaves the attempt's
    /// unacked set so that silence is not charged as well; once every
    /// target of the attempt has refused, the retry machinery fires early
    /// rather than waiting for the deadline (re-selection excludes the
    /// shedders, which stay in `tried`).
    fn on_busy(
        &mut self,
        from: ActorId,
        req: RequestId,
        now: SimTime,
        out: &mut Vec<ClientAction>,
    ) {
        if self.overload.is_none() {
            return;
        }
        self.stats.busy_rejections += 1;
        self.obs.emit(now, self.me, || ObsEvent::BusyReceived {
            req: req_ref(req),
            from,
        });
        self.charge_strikes(&[from], now, out);
        let Some(p) = self.pending.get_mut(&req) else {
            return;
        };
        p.unacked.retain(|&a| a != from);
        if !p.replied && p.unacked.is_empty() {
            // Nobody is left to charge a timeout.
            self.schedule_retry(req, now, out);
        }
    }

    fn on_reply(
        &mut self,
        from: ActorId,
        r: crate::wire::Reply,
        now: SimTime,
        out: &mut Vec<ClientAction>,
    ) {
        let Some(p) = self.pending.get_mut(&r.id) else {
            self.stats.late_replies += 1;
            return;
        };
        // Every reply refreshes the repository (ert and gateway delay),
        // not just the first one delivered.
        let tm = p.tm;
        p.unacked.retain(|&a| a != from);
        self.repo.record_reply(from, r.t1_us, tm, now);
        // A reply within the request's deadline is a probe success and
        // clears quarantine suspicion. A late reply is not: it proves the
        // replica alive, but a gray-degraded replica answers late forever
        // and must stay suspect.
        let probe_ok = p
            .qos
            .is_none_or(|qos| now.saturating_since(tm) <= qos.deadline);
        self.obs.emit(now, self.me, || ObsEvent::ReplyReceived {
            req: req_ref(r.id),
            from,
            timely: probe_ok,
            deferred: r.deferred,
            staleness: r.staleness,
        });
        if probe_ok {
            self.repo.record_probe_success(from, now);
        }
        if let Some(session) = &mut self.session {
            session.observe(&r.vector, now);
        }
        if p.replied {
            return;
        }
        p.replied = true;
        let tr = now.saturating_since(p.t0);
        let timely = p.qos.is_none_or(|qos| tr <= qos.deadline);
        let (kind, degraded, selected) = (p.kind, p.degraded, p.selected);
        if let Some(qos) = p.take_unjudged() {
            self.record_outcome(timely, qos, now, out);
        }
        if r.deferred {
            self.stats.deferred_replies += 1;
        }
        self.obs.emit(now, self.me, || ObsEvent::Delivered {
            req: req_ref(r.id),
            response_us: tr.as_micros(),
            timely,
            deferred: r.deferred,
            staleness: r.staleness,
            degraded,
            csn: r.csn,
            vector: r.vector.clone(),
            result: r.result.to_vec(),
        });
        out.push(ClientAction::Completed(ResponseInfo {
            req: r.id,
            kind,
            result: r.result,
            response_time: tr,
            timely,
            deferred: r.deferred,
            staleness: r.staleness,
            timed_out: false,
            shed: false,
            degraded,
            replicas_selected: selected,
            csn: r.csn,
            vector: r.vector,
        }));
    }

    /// Tracks replication-group views announced to this client (as an
    /// observer of both groups). When the membership actually changes —
    /// a replica crashed out or rejoined — the admission decision is
    /// re-evaluated against the new capacity (a degradation step is
    /// surfaced when the requested QoS is no longer attainable).
    pub fn on_view(&mut self, view: Rc<View>, now: SimTime, out: &mut Vec<ClientAction>) {
        let (view_id, members) = (view.id.0, view.members().len() as u64);
        let current = if view.group == PRIMARY_GROUP {
            &mut self.primary_view
        } else if view.group == SECONDARY_GROUP {
            &mut self.secondary_view
        } else {
            return;
        };
        if view.id < current.id {
            return;
        }
        let changed = view.id > current.id;
        *current = view;
        if changed {
            self.obs
                .emit(now, self.me, || ObsEvent::ViewChange { view_id, members });
            self.reevaluate_admission(now, out);
        }
    }

    /// Re-runs the §7 admission check against the current candidate set
    /// (after a view change or a quarantine opening). When the requested
    /// specification is no longer attainable, the degradation ladder steps
    /// down proactively.
    fn reevaluate_admission(&mut self, now: SimTime, out: &mut Vec<ClientAction>) {
        let target = self
            .overload
            .as_ref()
            .and_then(ClientOverload::admission_target);
        let Some(requested) = target else {
            return;
        };
        self.stats.admission_reevals += 1;
        // The bound is over the whole candidate set: every value is needed.
        let candidates: Vec<Candidate> = self
            .candidate_keys(now, &[])
            .iter()
            .map(|c| {
                self.repo
                    .candidate(c.id, c.is_primary, requested.deadline, now)
            })
            .collect();
        if admission::decide(&candidates, self.last_stale_factor, &requested).admit {
            return;
        }
        self.stats.admission_rejects += 1;
        let stepped = self.overload.as_mut().and_then(|o| o.step_down(now));
        self.surface(stepped, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::QUARANTINE_THRESHOLD;
    use crate::wire::{Method, PerfBroadcast, ReadMeasurement, Reply};
    use aqf_group::ViewId;

    fn a(i: usize) -> ActorId {
        ActorId::from_index(i)
    }

    fn views() -> (View, View) {
        (
            View::new(PRIMARY_GROUP, ViewId(0), vec![a(0), a(1), a(2)]),
            View::new(SECONDARY_GROUP, ViewId(0), vec![a(10), a(11)]),
        )
    }

    fn client() -> ClientGateway {
        let (p, s) = views();
        ClientGateway::new(a(20), p, s, ClientConfig::default())
    }

    fn qos(deadline_ms: u64, pc: f64) -> QosSpec {
        QosSpec::new(2, SimDuration::from_millis(deadline_ms), pc).unwrap()
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// What one callback appends to a fresh sink.
    fn sink(callback: impl FnOnce(&mut Vec<ClientAction>)) -> Vec<ClientAction> {
        let mut out = Vec::new();
        callback(&mut out);
        out
    }

    fn feed_perf(c: &mut ClientGateway, replica: ActorId, ts_ms: u64, n: usize) {
        for _ in 0..n {
            sink(|out| {
                c.on_payload(
                    replica,
                    Payload::Perf(PerfBroadcast {
                        read: Some(ReadMeasurement {
                            ts_us: ts_ms * 1000,
                            tq_us: 0,
                            tb_us: 0,
                        }),
                        publisher: None,
                    }),
                    t(0),
                    out,
                )
            });
        }
    }

    #[test]
    fn update_multicasts_immediately() {
        let mut c = client();
        let mut actions = Vec::new();
        let id = c.submit_update(Operation::new(Method::Set, vec![1]), t(0), &mut actions);
        assert!(matches!(
            &actions[0],
            ClientAction::MulticastPrimary(Payload::Update(u, None)) if u.id == id
        ));
        assert!(matches!(
            &actions[1],
            ClientAction::ArmTimer {
                purpose: TimerPurpose::GiveUp,
                ..
            }
        ));
        assert_eq!(c.stats().updates, 1);
    }

    #[test]
    fn read_transmits_after_selection_overhead() {
        let mut c = client();
        let mut actions = Vec::new();
        let id = c.submit_read(
            Operation::new(Method::Get, vec![]),
            qos(200, 0.5),
            t(0),
            &mut actions,
        );
        // Only the transmit timer is armed at submit time.
        assert_eq!(actions.len(), 1);
        assert!(matches!(
            &actions[0],
            ClientAction::ArmTimer {
                purpose: TimerPurpose::Transmit,
                ..
            }
        ));
        let actions = sink(|out| c.on_timer(id, TimerPurpose::Transmit, 1, t(1), out));
        let sends: Vec<&ActorId> = actions
            .iter()
            .filter_map(|x| match x {
                ClientAction::SendDirect {
                    to,
                    payload: Payload::Read(_),
                } => Some(to),
                _ => None,
            })
            .collect();
        // Cold start: no history -> all candidates selected + sequencer.
        assert_eq!(sends.len(), 5, "4 candidates + sequencer");
        assert!(sends.contains(&&a(0)), "sequencer always included");
        assert!(actions.iter().any(|x| matches!(
            x,
            ClientAction::ArmTimer {
                purpose: TimerPurpose::Deadline,
                ..
            }
        )));
    }

    #[test]
    fn warm_repo_selects_fewer() {
        let mut c = client();
        // All replicas respond in ~10ms reliably.
        for r in [a(1), a(2), a(10), a(11)] {
            feed_perf(&mut c, r, 10, 10);
        }
        c.submit_read(
            Operation::new(Method::Get, vec![]),
            qos(200, 0.5),
            t(0),
            &mut Vec::new(),
        );
        let sel = c.last_selection().unwrap();
        assert!(sel.satisfied);
        assert!(
            sel.replicas.len() <= 3,
            "warm history should need few replicas, got {}",
            sel.replicas.len()
        );
    }

    #[test]
    fn timely_reply_counts_success() {
        let mut c = client();
        let id = c.submit_read(
            Operation::new(Method::Get, vec![]),
            qos(200, 0.9),
            t(0),
            &mut Vec::new(),
        );
        c.on_timer(id, TimerPurpose::Transmit, 1, t(1), &mut Vec::new());
        let actions = sink(|out| {
            c.on_payload(
                a(1),
                Payload::Reply(Reply {
                    id,
                    result: Bytes::from_static(b"v"),
                    t1_us: 50_000,
                    staleness: 0,
                    deferred: false,
                    csn: 1,
                    vector: Vec::new(),
                }),
                t(100),
                out,
            )
        });
        let done = actions
            .iter()
            .find_map(|x| match x {
                ClientAction::Completed(info) => Some(info.clone()),
                _ => None,
            })
            .expect("completion delivered");
        assert!(done.timely);
        assert_eq!(done.response_time, SimDuration::from_millis(100));
        assert_eq!(c.detector().failures(), 0);
        assert_eq!(c.detector().total(), 1);
    }

    #[test]
    fn deadline_expiry_records_failure_once() {
        let mut c = client();
        let id = c.submit_read(
            Operation::new(Method::Get, vec![]),
            qos(100, 0.9),
            t(0),
            &mut Vec::new(),
        );
        c.on_timer(id, TimerPurpose::Transmit, 1, t(1), &mut Vec::new());
        c.on_timer(id, TimerPurpose::Deadline, 1, t(101), &mut Vec::new());
        assert_eq!(c.detector().failures(), 1);
        // A late reply still completes the request but does not double
        // count.
        let actions = sink(|out| {
            c.on_payload(
                a(1),
                Payload::Reply(Reply {
                    id,
                    result: Bytes::new(),
                    t1_us: 0,
                    staleness: 0,
                    deferred: false,
                    csn: 0,
                    vector: Vec::new(),
                }),
                t(150),
                out,
            )
        });
        assert!(actions
            .iter()
            .any(|x| matches!(x, ClientAction::Completed(info) if !info.timely)));
        assert_eq!(c.detector().failures(), 1);
        assert_eq!(c.detector().total(), 1);
    }

    #[test]
    fn qos_alert_on_low_timely_frequency() {
        let mut c = client();
        let mut alerts = 0;
        for i in 0..4 {
            let id = c.submit_read(
                Operation::new(Method::Get, vec![]),
                qos(100, 0.9),
                t(i * 1000),
                &mut Vec::new(),
            );
            c.on_timer(
                id,
                TimerPurpose::Transmit,
                1,
                t(i * 1000 + 1),
                &mut Vec::new(),
            );
            let actions =
                sink(|out| c.on_timer(id, TimerPurpose::Deadline, 1, t(i * 1000 + 101), out));
            alerts += actions
                .iter()
                .filter(|x| matches!(x, ClientAction::QosAlert { .. }))
                .count();
        }
        assert_eq!(alerts, 1, "alert fires once while degraded");
    }

    #[test]
    fn give_up_times_out_request() {
        let mut c = client();
        let id = c.submit_read(
            Operation::new(Method::Get, vec![]),
            qos(100, 0.5),
            t(0),
            &mut Vec::new(),
        );
        c.on_timer(id, TimerPurpose::Transmit, 1, t(1), &mut Vec::new());
        c.on_timer(id, TimerPurpose::Deadline, 1, t(101), &mut Vec::new());
        let actions = sink(|out| c.on_timer(id, TimerPurpose::GiveUp, 1, t(10_001), out));
        let info = actions
            .iter()
            .find_map(|x| match x {
                ClientAction::Completed(i) => Some(i),
                _ => None,
            })
            .expect("timeout completion");
        assert!(info.timed_out);
        assert_eq!(c.stats().give_ups, 1);
        // Failure was already recorded at the deadline; not doubled.
        assert_eq!(c.detector().failures(), 1);
        // A reply after give-up is "late".
        c.on_payload(
            a(1),
            Payload::Reply(Reply {
                id,
                result: Bytes::new(),
                t1_us: 0,
                staleness: 0,
                deferred: false,
                csn: 0,
                vector: Vec::new(),
            }),
            t(10_100),
            &mut Vec::new(),
        );
        assert_eq!(c.stats().late_replies, 1);
    }

    #[test]
    fn later_replies_update_repository_silently() {
        let mut c = client();
        let id = c.submit_read(
            Operation::new(Method::Get, vec![]),
            qos(200, 0.5),
            t(0),
            &mut Vec::new(),
        );
        c.on_timer(id, TimerPurpose::Transmit, 1, t(1), &mut Vec::new());
        let reply = |_from: ActorId| Reply {
            id,
            result: Bytes::new(),
            t1_us: 10_000,
            staleness: 0,
            deferred: false,
            csn: 0,
            vector: Vec::new(),
        };
        let first = sink(|out| c.on_payload(a(1), Payload::Reply(reply(a(1))), t(50), out));
        assert_eq!(
            first
                .iter()
                .filter(|x| matches!(x, ClientAction::Completed(_)))
                .count(),
            1
        );
        let second = sink(|out| c.on_payload(a(2), Payload::Reply(reply(a(2))), t(60), out));
        assert!(second.is_empty(), "only first reply delivered");
        // Both replicas' ert were refreshed.
        assert!(c.repository().ert_us(a(1), t(100)) < u64::MAX);
        assert!(c.repository().ert_us(a(2), t(100)) < u64::MAX);
    }

    /// Each delivery's trace event carries the staleness, in versions, of
    /// the reply that completed it.
    #[test]
    fn delivered_events_carry_staleness() {
        let mut c = client();
        let obs = ObsHandle::enabled();
        c.set_obs(obs.clone());
        for (at, staleness) in [(0, 0), (1000, 3)] {
            let op = Operation::new(Method::Get, vec![]);
            let id = c.submit_read(op, qos(200, 0.5), t(at), &mut Vec::new());
            c.on_timer(id, TimerPurpose::Transmit, 1, t(at + 1), &mut Vec::new());
            let reply = Reply {
                id,
                result: Bytes::new(),
                t1_us: 0,
                staleness,
                deferred: false,
                csn: 0,
                vector: Vec::new(),
            };
            c.on_payload(a(1), Payload::Reply(reply), t(at + 50), &mut Vec::new());
        }
        let delivered: Vec<u64> = obs
            .take_report()
            .expect("enabled handle")
            .records
            .iter()
            .filter_map(|r| match r.event {
                ObsEvent::Delivered { staleness, .. } => Some(staleness),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, [0, 3]);
    }

    #[test]
    fn deferred_reply_counted() {
        let mut c = client();
        let id = c.submit_read(
            Operation::new(Method::Get, vec![]),
            qos(500, 0.5),
            t(0),
            &mut Vec::new(),
        );
        c.on_timer(id, TimerPurpose::Transmit, 1, t(1), &mut Vec::new());
        c.on_payload(
            a(10),
            Payload::Reply(Reply {
                id,
                result: Bytes::new(),
                t1_us: 0,
                staleness: 1,
                deferred: true,
                csn: 3,
                vector: Vec::new(),
            }),
            t(400),
            &mut Vec::new(),
        );
        assert_eq!(c.stats().deferred_replies, 1);
    }

    #[test]
    fn view_changes_update_candidates() {
        let mut c = client();
        // Sequencer a(0) fails; a(1) leads. Candidates: a(2) + secondaries.
        let (p, _) = views();
        let newer = p.successor(&[a(0)], &[]).unwrap();
        c.on_view(Rc::new(newer), t(0), &mut Vec::new());
        assert_eq!(c.sequencer(), a(1));
        c.submit_read(
            Operation::new(Method::Get, vec![]),
            qos(200, 0.99),
            t(0),
            &mut Vec::new(),
        );
        let sel = c.last_selection().unwrap().clone();
        assert!(!sel.replicas.contains(&a(0)));
        assert!(sel.replicas.contains(&a(1)), "new sequencer appended");
        // Stale view replay is ignored.
        let (old_p, _) = views();
        c.on_view(Rc::new(old_p), t(0), &mut Vec::new());
        assert_eq!(c.sequencer(), a(1));
    }

    #[test]
    fn mean_predicted_tracks_selections() {
        let mut c = client();
        assert_eq!(c.mean_predicted(), None);
        for r in [a(1), a(2), a(10), a(11)] {
            feed_perf(&mut c, r, 10, 10);
        }
        c.submit_read(
            Operation::new(Method::Get, vec![]),
            qos(200, 0.5),
            t(0),
            &mut Vec::new(),
        );
        let predicted = c.last_selection().unwrap().predicted;
        assert_eq!(c.mean_predicted(), Some(predicted));
        c.submit_read(
            Operation::new(Method::Get, vec![]),
            qos(200, 0.5),
            t(1000),
            &mut Vec::new(),
        );
        let mean = c.mean_predicted().unwrap();
        assert!(mean > 0.0 && mean <= 1.0);
    }

    #[test]
    fn request_ids_are_unique_and_ordered() {
        let mut c = client();
        let id1 = c.submit_update(Operation::new(Method::Set, vec![]), t(0), &mut Vec::new());
        let id2 = c.submit_update(Operation::new(Method::Set, vec![]), t(1), &mut Vec::new());
        assert!(id1 < id2);
        assert_eq!(id1.client, a(20));
    }

    // ---- recovery: retries, hedging, quarantine -------------------------

    fn sends_of(actions: &[ClientAction]) -> Vec<(ActorId, u32)> {
        actions
            .iter()
            .filter_map(|x| match x {
                ClientAction::SendDirect {
                    to,
                    payload: Payload::Read(r),
                } => Some((*to, r.attempt)),
                _ => None,
            })
            .collect()
    }

    fn armed_for(actions: &[ClientAction], wanted: TimerPurpose) -> Option<SimDuration> {
        actions.iter().find_map(|x| match *x {
            ClientAction::ArmTimer { purpose, after, .. } if purpose == wanted => Some(after),
            _ => None,
        })
    }

    fn retry_timer(actions: &[ClientAction]) -> Option<SimDuration> {
        armed_for(actions, TimerPurpose::Retry)
    }

    fn backoff_timer(actions: &[ClientAction]) -> Option<SimDuration> {
        armed_for(actions, TimerPurpose::Backoff)
    }

    #[test]
    fn deadline_schedules_backoff_then_retransmits_elsewhere() {
        let mut c = client();
        let id = c.submit_read(
            Operation::new(Method::Get, vec![]),
            qos(100, 0.9),
            t(0),
            &mut Vec::new(),
        );
        let first = sink(|out| c.on_timer(id, TimerPurpose::Transmit, 1, t(1), out));
        let tried_first: Vec<ActorId> = sends_of(&first).iter().map(|&(to, _)| to).collect();
        let actions = sink(|out| c.on_timer(id, TimerPurpose::Deadline, 1, t(101), out));
        let backoff = backoff_timer(&actions).expect("backoff armed after deadline");
        assert!(backoff > SimDuration::ZERO);
        assert_eq!(c.stats().retries, 0, "backoff alone is not yet a retry");
        // Backoff elapsed: attempt 2 goes out.
        let actions = sink(|out| c.on_timer(id, TimerPurpose::Backoff, 1, t(130), out));
        let resends = sends_of(&actions);
        assert!(!resends.is_empty(), "retry retransmits the read");
        assert!(resends.iter().all(|&(_, attempt)| attempt == 2));
        // Cold start tried every candidate, so reselection falls back to
        // the full set; the sequencer is always re-included.
        assert!(resends.iter().any(|&(to, _)| to == a(0)));
        assert!(tried_first.contains(&resends[0].0));
        assert_eq!(c.stats().retries, 1);
        assert!(
            retry_timer(&actions).is_some(),
            "attempt 2 gets its own expiry window"
        );
    }

    #[test]
    fn retry_success_avoids_give_up() {
        let mut c = client();
        let id = c.submit_read(
            Operation::new(Method::Get, vec![]),
            qos(100, 0.9),
            t(0),
            &mut Vec::new(),
        );
        c.on_timer(id, TimerPurpose::Transmit, 1, t(1), &mut Vec::new());
        c.on_timer(id, TimerPurpose::Deadline, 1, t(101), &mut Vec::new());
        c.on_timer(id, TimerPurpose::Backoff, 1, t(130), &mut Vec::new());
        // The retried attempt is answered late but before give-up.
        let actions = sink(|out| {
            c.on_payload(
                a(2),
                Payload::Reply(Reply {
                    id,
                    result: Bytes::from_static(b"v"),
                    t1_us: 0,
                    staleness: 0,
                    deferred: false,
                    csn: 1,
                    vector: Vec::new(),
                }),
                t(200),
                out,
            )
        });
        let done = actions
            .iter()
            .find_map(|x| match x {
                ClientAction::Completed(i) => Some(i.clone()),
                _ => None,
            })
            .expect("retried read completes");
        assert!(!done.timely, "completed after the deadline");
        assert!(!done.timed_out);
        let gc = sink(|out| c.on_timer(id, TimerPurpose::GiveUp, 1, t(10_001), out));
        assert!(gc.is_empty());
        assert_eq!(c.stats().give_ups, 0, "recovered before give-up");
    }

    #[test]
    fn attempt_budget_is_respected() {
        let mut c = client();
        let id = c.submit_read(
            Operation::new(Method::Get, vec![]),
            qos(100, 0.9),
            t(0),
            &mut Vec::new(),
        );
        c.on_timer(id, TimerPurpose::Transmit, 1, t(1), &mut Vec::new());
        let mut now = t(101);
        let mut actions = sink(|out| c.on_timer(id, TimerPurpose::Deadline, 1, now, out));
        for attempt in 2..=MAX_ATTEMPTS {
            now += backoff_timer(&actions).expect("budget left for another attempt");
            let resent = sink(|out| c.on_timer(id, TimerPurpose::Backoff, attempt - 1, now, out));
            assert_eq!(c.stats().retries, u64::from(attempt - 1));
            now += retry_timer(&resent).expect("the attempt's expiry window");
            actions = sink(|out| c.on_timer(id, TimerPurpose::Retry, attempt, now, out));
        }
        // The last attempt expired too: budget exhausted, no further retry.
        assert!(backoff_timer(&actions).is_none(), "budget exhausted");
        assert!(sends_of(&actions).is_empty());
        assert_eq!(c.stats().retries, u64::from(MAX_ATTEMPTS - 1));
    }

    #[test]
    fn recovery_disabled_reproduces_seed_behavior() {
        let (p, s) = views();
        let config = ClientConfig {
            recovery: RecoveryPolicy::disabled(),
            ..ClientConfig::default()
        };
        let mut c = ClientGateway::new(a(20), p, s, config);
        let id = c.submit_read(
            Operation::new(Method::Get, vec![]),
            qos(100, 0.9),
            t(0),
            &mut Vec::new(),
        );
        c.on_timer(id, TimerPurpose::Transmit, 1, t(1), &mut Vec::new());
        let actions = sink(|out| c.on_timer(id, TimerPurpose::Deadline, 1, t(101), out));
        assert!(last_armed(&actions).is_none(), "no retry when disabled");
        assert_eq!(c.stats().retries, 0);
    }

    #[test]
    fn silent_replicas_get_quarantined_and_excluded() {
        let (p, s) = views();
        let mut c = ClientGateway::new(a(20), p, s, ClientConfig::default());
        // Straight rounds where every selected replica stays silent through
        // attempt 1 (whose backoff never fires): one strike each a round.
        let rounds = u64::from(QUARANTINE_THRESHOLD);
        for i in 0..rounds {
            let id = c.submit_read(
                Operation::new(Method::Get, vec![]),
                qos(100, 0.9),
                t(i * 20_000),
                &mut Vec::new(),
            );
            c.on_timer(
                id,
                TimerPurpose::Transmit,
                1,
                t(i * 20_000 + 1),
                &mut Vec::new(),
            );
            c.on_timer(
                id,
                TimerPurpose::Deadline,
                1,
                t(i * 20_000 + 101),
                &mut Vec::new(),
            );
            c.on_timer(
                id,
                TimerPurpose::GiveUp,
                1,
                t(i * 20_000 + 10_001),
                &mut Vec::new(),
            );
        }
        assert!(c.stats().quarantines > 0, "silence opens quarantines");
        // The threshold strike landed at the last round's deadline; the
        // first 5 s window is still open shortly afterwards.
        let last = (rounds - 1) * 20_000;
        let now = t(last + 1_000);
        let quarantined: Vec<ActorId> = [a(1), a(2), a(10), a(11)]
            .into_iter()
            .filter(|&r| c.repository().is_quarantined(r, now))
            .collect();
        assert!(!quarantined.is_empty());
        // A reply from a quarantined replica lifts its quarantine (probe
        // success).
        let victim = quarantined[0];
        let id = c.submit_read(
            Operation::new(Method::Get, vec![]),
            qos(100, 0.9),
            now,
            &mut Vec::new(),
        );
        c.on_timer(
            id,
            TimerPurpose::Transmit,
            1,
            t(last + 1_001),
            &mut Vec::new(),
        );
        c.on_payload(
            victim,
            Payload::Reply(Reply {
                id,
                result: Bytes::new(),
                t1_us: 0,
                staleness: 0,
                deferred: false,
                csn: 0,
                vector: Vec::new(),
            }),
            t(last + 1_050),
            &mut Vec::new(),
        );
        assert!(!c.repository().is_quarantined(victim, t(last + 1_060)));
    }

    #[test]
    fn update_retransmission_reuses_identity() {
        let (p, s) = views();
        let config = ClientConfig {
            ordering: OrderingGuarantee::Causal,
            ..ClientConfig::default()
        };
        let mut c = ClientGateway::new(a(20), p, s, config);
        let mut actions = Vec::new();
        let id = c.submit_update(Operation::new(Method::Set, vec![1]), t(0), &mut actions);
        let original = actions
            .iter()
            .find_map(|x| match x {
                ClientAction::MulticastPrimary(Payload::Update(update, Some(stamp))) => {
                    Some((update.clone(), stamp.clone()))
                }
                _ => None,
            })
            .expect("causal update multicast");
        assert!(actions.iter().any(|x| matches!(
            x,
            ClientAction::ArmTimer {
                purpose: TimerPurpose::Retry,
                ..
            }
        )));
        // Expiry check fires (no ack), then the backoff timer fires.
        let actions = sink(|out| c.on_timer(id, TimerPurpose::Retry, 1, t(1_000), out));
        let backoff = backoff_timer(&actions).expect("update backoff armed");
        let actions = sink(|out| c.on_timer(id, TimerPurpose::Backoff, 1, t(1_000) + backoff, out));
        let resent = actions
            .iter()
            .find_map(|x| match x {
                ClientAction::MulticastPrimary(Payload::Update(update, Some(stamp))) => {
                    Some((update.clone(), stamp.clone()))
                }
                _ => None,
            })
            .expect("update retransmitted");
        assert_eq!(resent.0.id, original.0.id);
        assert_eq!(resent.1, original.1, "same update_seq and deps on retry");
        assert_eq!(resent.0.attempt, 2);
        assert_eq!(c.stats().retries, 1);
    }

    fn overload_client() -> ClientGateway {
        let (p, s) = views();
        let config = ClientConfig {
            overload: true,
            ..ClientConfig::default()
        };
        ClientGateway::new(a(20), p, s, config)
    }

    /// An overload client without recovery: a timing failure feeds only
    /// the detector and the ladder, never a quarantine (whose opening
    /// would step the ladder through admission re-evaluation).
    fn ladder_client() -> ClientGateway {
        let (p, s) = views();
        let config = ClientConfig {
            overload: true,
            recovery: RecoveryPolicy::disabled(),
            ..ClientConfig::default()
        };
        ClientGateway::new(a(20), p, s, config)
    }

    /// `n` reads a second apart from `from_ms`, each missing its deadline;
    /// what their deadlines appended.
    fn late_reads(c: &mut ClientGateway, spec: QosSpec, from_ms: u64, n: u64) -> Vec<ClientAction> {
        let mut actions = Vec::new();
        for round in 0..n {
            let at = from_ms + round * 1000;
            let id = c.submit_read(
                Operation::new(Method::Get, vec![]),
                spec,
                t(at),
                &mut Vec::new(),
            );
            c.on_timer(id, TimerPurpose::Transmit, 1, t(at + 1), &mut Vec::new());
            c.on_timer(id, TimerPurpose::Deadline, 1, t(at + 201), &mut actions);
        }
        actions
    }

    fn timely_reply(c: &mut ClientGateway, from: ActorId, id: RequestId, at: SimTime) {
        c.on_payload(
            from,
            Payload::Reply(Reply {
                id,
                result: Bytes::new(),
                t1_us: 0,
                staleness: 0,
                deferred: false,
                csn: 0,
                vector: Vec::new(),
            }),
            at,
            &mut Vec::new(),
        );
    }

    #[test]
    fn busy_retries_elsewhere_before_the_deadline() {
        let mut c = overload_client();
        // Warm the repository so selection picks a small set rather than
        // every replica (leaving someone untried for the retry).
        for r in [a(1), a(2), a(10), a(11)] {
            feed_perf(&mut c, r, 10, 10);
        }
        let id = c.submit_read(
            Operation::new(Method::Get, vec![]),
            qos(200, 0.5),
            t(0),
            &mut Vec::new(),
        );
        let first = sink(|out| c.on_timer(id, TimerPurpose::Transmit, 1, t(1), out));
        let shedders: Vec<ActorId> = sends_of(&first).iter().map(|&(to, _)| to).collect();
        assert!(
            shedders.len() < 5,
            "warm selection must leave untried replicas"
        );
        // Every targeted replica answers Busy; the last one triggers an
        // accelerated retry (backoff timer) instead of waiting for the
        // deadline.
        let mut backoff = None;
        for &s in &shedders {
            let actions = sink(|out| c.on_payload(s, Payload::Busy { req: id }, t(2), out));
            if let Some(b) = backoff_timer(&actions) {
                backoff = Some(b);
            }
        }
        assert_eq!(c.stats().busy_rejections, shedders.len() as u64);
        assert_eq!(
            c.stats().quarantines,
            0,
            "one refusal is one strike, below the threshold"
        );
        let backoff = backoff.expect("accelerated retry armed once all targets refused");
        let actions = sink(|out| c.on_timer(id, TimerPurpose::Backoff, 1, t(2) + backoff, out));
        let resent = sends_of(&actions);
        assert!(!resent.is_empty(), "retry retransmits the read");
        // The sequencer is structurally re-included by Sequential-mode
        // selection; every other retry target must be a fresh replica.
        assert!(
            resent.iter().any(|&(to, _)| !shedders.contains(&to)),
            "retry reaches at least one fresh replica"
        );
        for &(to, attempt) in &resent {
            assert!(
                to == a(0) || !shedders.contains(&to),
                "re-selection must exclude the shedders"
            );
            assert_eq!(attempt, 2);
        }
        assert_eq!(c.stats().quarantines, 0);
    }

    /// The last timer `actions` arm: `(purpose, attempt, after)`.
    fn last_armed(actions: &[ClientAction]) -> Option<(TimerPurpose, u32, SimDuration)> {
        actions.iter().rev().find_map(|x| match *x {
            ClientAction::ArmTimer {
                purpose,
                attempt,
                after,
                ..
            } => Some((purpose, attempt, after)),
            _ => None,
        })
    }

    /// A `Busy` that starts the backoff of attempt 2 leaves attempt 2's
    /// expiry timer armed. That timer firing inside the backoff judges
    /// expiry only; the read goes out again when the backoff ends.
    #[test]
    fn expiry_inside_a_busy_backoff_does_not_retransmit() {
        let mut c = overload_client();
        let id = c.submit_read(
            Operation::new(Method::Get, vec![]),
            qos(100, 0.9),
            t(0),
            &mut Vec::new(),
        );
        c.on_timer(id, TimerPurpose::Transmit, 1, t(1), &mut Vec::new());
        // Attempt 1 expires at its deadline; its backoff starts attempt 2.
        let actions = sink(|out| c.on_timer(id, TimerPurpose::Deadline, 1, t(101), out));
        let (purpose, attempt, backoff) = last_armed(&actions).expect("backoff armed");
        let at = t(101) + backoff;
        let actions = sink(|out| c.on_timer(id, purpose, attempt, at, out));
        let targets: Vec<ActorId> = sends_of(&actions).iter().map(|&(to, _)| to).collect();
        assert!(!targets.is_empty(), "attempt 2 goes out");
        let (purpose, attempt, window) = last_armed(&actions).expect("attempt 2 expiry");
        assert_eq!((purpose, attempt), (TimerPurpose::Retry, 2));
        let expiry = at + window;
        // Every target refuses just before the expiry: the backoff into
        // attempt 3 outlasts the expiry timer still armed.
        let refused = expiry - SimDuration::from_millis(5);
        let mut armed = None;
        for &to in &targets {
            let actions = sink(|out| c.on_payload(to, Payload::Busy { req: id }, refused, out));
            armed = last_armed(&actions).or(armed);
        }
        let (purpose, attempt, backoff) = armed.expect("a Busy backoff is armed");
        assert!(refused + backoff > expiry);
        let early = sink(|out| c.on_timer(id, TimerPurpose::Retry, 2, expiry, out));
        assert!(sends_of(&early).is_empty(), "expiry inside the backoff");
        assert_eq!(c.stats().retries, 1);
        let actions = sink(|out| c.on_timer(id, purpose, attempt, refused + backoff, out));
        let resent = sends_of(&actions);
        assert!(!resent.is_empty(), "the backoff's end retransmits");
        assert!(resent.iter().all(|&(_, attempt)| attempt == 3));
        assert_eq!(c.stats().retries, 2);
    }

    fn busy_read(c: &mut ClientGateway, from: ActorId, at: u64) -> RequestId {
        let id = c.submit_read(
            Operation::new(Method::Get, vec![]),
            qos(200, 0.5),
            t(at),
            &mut Vec::new(),
        );
        c.on_timer(id, TimerPurpose::Transmit, 1, t(at + 1), &mut Vec::new());
        c.on_payload(from, Payload::Busy { req: id }, t(at + 2), &mut Vec::new());
        id
    }

    #[test]
    fn busy_strikes_exclude_until_a_timely_reply() {
        let mut c = overload_client();
        // Refusals from a(1), one per request, reach the threshold:
        // excluded for the first quarantine window (5 s).
        for round in 0..u64::from(QUARANTINE_THRESHOLD) {
            busy_read(&mut c, a(1), round * 10);
        }
        assert_eq!(c.stats().quarantines, 1);
        c.submit_read(
            Operation::new(Method::Get, vec![]),
            qos(200, 0.5),
            t(50),
            &mut Vec::new(),
        );
        let sel = c.last_selection().unwrap().clone();
        assert!(!sel.replicas.contains(&a(1)), "excluded while quarantined");
        // After the window the replica is on probation: selectable again.
        let id = c.submit_read(
            Operation::new(Method::Get, vec![]),
            qos(200, 0.5),
            t(5_100),
            &mut Vec::new(),
        );
        let sel = c.last_selection().unwrap().clone();
        assert!(sel.replicas.contains(&a(1)), "probation selects it again");
        c.on_timer(id, TimerPurpose::Transmit, 1, t(5_101), &mut Vec::new());
        // A timely reply clears the strikes: one more refusal is only the
        // first of three again.
        timely_reply(&mut c, a(1), id, t(5_150));
        busy_read(&mut c, a(1), 5_200);
        assert!(!c.repository().is_quarantined(a(1), t(5_210)));
        assert_eq!(c.stats().quarantines, 1);
    }

    #[test]
    fn busy_and_timeout_strikes_count_toward_one_threshold() {
        let (p, s) = views();
        let config = ClientConfig {
            overload: true,
            ..ClientConfig::default()
        };
        let mut c = ClientGateway::new(a(20), p, s, config);
        // A cold read goes to every candidate; all stay silent past the
        // deadline: one timeout strike each.
        let id = c.submit_read(
            Operation::new(Method::Get, vec![]),
            qos(100, 0.9),
            t(0),
            &mut Vec::new(),
        );
        c.on_timer(id, TimerPurpose::Transmit, 1, t(1), &mut Vec::new());
        c.on_timer(id, TimerPurpose::Deadline, 1, t(101), &mut Vec::new());
        assert_eq!(c.stats().quarantines, 0);
        // Two refusals from a(1) make three strikes: only a(1) is excluded.
        busy_read(&mut c, a(1), 200);
        busy_read(&mut c, a(1), 300);
        assert_eq!(c.stats().quarantines, 1);
        for r in [a(1), a(2), a(10), a(11)] {
            assert_eq!(c.repository().is_quarantined(r, t(310)), r == a(1));
        }
    }

    #[test]
    fn ladder_steps_down_then_recovers() {
        let mut c = ladder_client();
        let spec = qos(200, 0.9);
        // A window of straight timing failures drops the windowed frequency
        // to 0 < 0.9: step down to rung 1.
        let window = u64::from(RECOVER_WINDOW);
        let actions = late_reads(&mut c, spec, 0, window);
        let stepped = actions.iter().any(|x| {
            matches!(
                x,
                ClientAction::Degrade {
                    from_level: 0,
                    to_level: 1
                }
            )
        });
        assert!(stepped, "degradation step surfaced as an action");
        assert_eq!(c.degrade_level(), 1);
        assert_eq!(c.stats().degrade_transitions, 1);
        // Reads now carry the widened staleness threshold (2 + 2).
        let start = window * 1000;
        let id = c.submit_read(
            Operation::new(Method::Get, vec![]),
            spec,
            t(start),
            &mut Vec::new(),
        );
        let actions = sink(|out| c.on_timer(id, TimerPurpose::Transmit, 1, t(start + 1), out));
        let widened = actions.iter().any(|x| {
            matches!(
                x,
                ClientAction::SendDirect {
                    payload: Payload::Read(r),
                    ..
                } if r.staleness_threshold == 4 && r.deadline_us == 200_000
            )
        });
        assert!(widened, "degraded read runs under the widened threshold");
        timely_reply(&mut c, a(1), id, t(start + 50));
        // The rest of a window of timely outcomes: the window clears the
        // original Pc and the controller steps back up.
        for round in 1..window {
            let at = start + round * 1000;
            let id = c.submit_read(
                Operation::new(Method::Get, vec![]),
                spec,
                t(at),
                &mut Vec::new(),
            );
            c.on_timer(id, TimerPurpose::Transmit, 1, t(at + 1), &mut Vec::new());
            timely_reply(&mut c, a(1), id, t(at + 50));
        }
        assert_eq!(c.degrade_level(), 0, "recovered to the nominal level");
        assert_eq!(c.stats().degrade_transitions, 2);
        let at = start + window * 1000;
        let id = c.submit_read(
            Operation::new(Method::Get, vec![]),
            spec,
            t(at),
            &mut Vec::new(),
        );
        let actions = sink(|out| c.on_timer(id, TimerPurpose::Transmit, 1, t(at + 1), out));
        let restored = actions.iter().any(|x| {
            matches!(
                x,
                ClientAction::SendDirect {
                    payload: Payload::Read(r),
                    ..
                } if r.staleness_threshold == 2
            )
        });
        assert!(restored, "recovery restores the requested threshold");
    }

    #[test]
    fn exhausted_ladder_sheds_locally_but_admits_probes() {
        let mut c = ladder_client();
        let spec = qos(200, 0.9);
        // Three windows of straight failures walk both rungs and land on
        // the rejection level past them.
        let window = u64::from(RECOVER_WINDOW);
        late_reads(&mut c, spec, 0, 3 * window);
        assert_eq!(c.degrade_level(), 3, "past the last rung: rejecting");
        let outcomes_before = c.detector().total();
        let start = 3 * window * 1000;
        // First read in rejection mode is the probe: it goes out normally.
        let mut actions = Vec::new();
        c.submit_read(
            Operation::new(Method::Get, vec![]),
            spec,
            t(start),
            &mut actions,
        );
        assert!(matches!(
            actions[0],
            ClientAction::ArmTimer {
                purpose: TimerPurpose::Transmit,
                ..
            }
        ));
        // A second read inside the probe interval is shed locally.
        let mut actions = Vec::new();
        c.submit_read(
            Operation::new(Method::Get, vec![]),
            spec,
            t(start + 100),
            &mut actions,
        );
        let info = actions
            .iter()
            .find_map(|x| match x {
                ClientAction::Completed(info) => Some(info.clone()),
                _ => None,
            })
            .expect("local shed completes immediately");
        assert!(info.shed && info.degraded && !info.timed_out && !info.timely);
        assert_eq!(info.replicas_selected, 0);
        assert_eq!(c.stats().local_sheds, 1);
        assert_eq!(
            c.detector().total(),
            outcomes_before,
            "local sheds are not service outcomes"
        );
    }

    #[test]
    fn view_change_reevaluates_admission_and_steps_down() {
        let mut c = overload_client();
        // Make every replica look far too slow for a 200 ms deadline so
        // the admission check deterministically rejects Pc = 0.9.
        for r in [a(1), a(2), a(10), a(11)] {
            feed_perf(&mut c, r, 1000, 10);
        }
        c.submit_read(
            Operation::new(Method::Get, vec![]),
            qos(200, 0.9),
            t(0),
            &mut Vec::new(),
        );
        let (p, _) = views();
        let newer = p.successor(&[a(2)], &[]).unwrap();
        let actions = sink(|out| c.on_view(Rc::new(newer), t(10), out));
        assert_eq!(c.stats().admission_reevals, 1);
        assert_eq!(c.stats().admission_rejects, 1);
        assert!(actions.iter().any(|x| matches!(
            x,
            ClientAction::Degrade {
                from_level: 0,
                to_level: 1
            }
        )));
        assert_eq!(c.degrade_level(), 1);
    }
}
