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

use crate::admission::{AdmissionConfig, AdmissionController};
use crate::causal::Session;
use crate::model::{Candidate, CandidateKey, Selection};
use crate::monitor::{InfoRepository, MonitorConfig, StalenessModel};
use crate::obs::{req_ref, ObsEvent, ObsHandle};
use crate::overload::{ClientOverload, DegradeTransition, OverloadConfig};
use crate::qos::{OperationKind, OrderingGuarantee, QosSpec};
use crate::select::{SelectionPolicy, Selector};
use crate::timing::TimingFailureDetector;
use crate::wire::{
    Operation, Payload, ReadRequest, RequestId, UpdateRequest, PRIMARY_GROUP, SECONDARY_GROUP,
};
use aqf_group::View;
use aqf_sim::{ActorId, SimDuration, SimTime};
use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

/// Tuning knobs for a client gateway.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Sliding-window size `l` of the information repository.
    pub window_size: usize,
    /// Window size for update-rate observations.
    pub rate_window: usize,
    /// Virtual-time cost of running the selection model before the request
    /// is transmitted ("we account for these overheads when selecting the
    /// replicas", §6; Figure 3 measures it at roughly a millisecond).
    pub selection_overhead: SimDuration,
    /// The selection policy (Algorithm 1 unless running an ablation).
    pub policy: SelectionPolicy,
    /// How long to wait for any reply before declaring the request lost.
    pub give_up: SimDuration,
    /// Seed for the randomized baseline policies.
    pub seed: u64,
    /// How the staleness factor is estimated (Eq. 4's Poisson form or the
    /// §5.1.3 empirical rate mixture).
    pub staleness_model: StalenessModel,
    /// Optional bin width (µs) for the cached response-time distributions;
    /// `None` keeps them exact. See [`MonitorConfig::cdf_bin_us`].
    pub cdf_bin_us: Option<u64>,
    /// The service's ordering guarantee: with [`OrderingGuarantee::Sequential`]
    /// reads go through the sequencer (leader of the primary group) and the
    /// leader is excluded from the candidates; with
    /// [`OrderingGuarantee::Fifo`] there is no sequencer and every primary
    /// member is a candidate.
    pub ordering: OrderingGuarantee,
    /// End-to-end recovery knobs: retries, hedged reads, and replica
    /// quarantine.
    pub recovery: RecoveryPolicy,
    /// Overload protection: circuit breakers, the graceful-degradation
    /// ladder, and runtime admission re-evaluation. Disabled by default
    /// (bit-identical to a gateway without the subsystem).
    pub overload: OverloadConfig,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            window_size: 20,
            rate_window: 16,
            selection_overhead: SimDuration::from_millis(1),
            policy: SelectionPolicy::Probabilistic,
            give_up: SimDuration::from_secs(10),
            seed: 0,
            staleness_model: StalenessModel::Poisson,
            cdf_bin_us: None,
            ordering: OrderingGuarantee::Sequential,
            recovery: RecoveryPolicy::default(),
            overload: OverloadConfig::disabled(),
        }
    }
}

/// Retry / hedging / quarantine policy for the client gateway.
///
/// The recovery state machine per request:
///
/// ```text
/// submit ── transmit(attempt 1) ── attempt expiry (Deadline for reads,
///    Retry for updates) ── backoff (capped exponential + jitter, Retry
///    timer) ── retransmit(attempt n+1, reselected excluding tried and
///    quarantined replicas) ── attempt expiry (Retry) ── ... until
///    max_attempts or the give-up horizon, whichever comes first.
/// ```
///
/// Hedging is orthogonal: once `hedge_fraction` of the deadline has
/// elapsed with no reply, one extra copy of the read goes to the best
/// replica not yet tried. All timers and jitter come from the gateway's
/// seeded RNG and virtual clock, so recovery is fully deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Master switch; `false` reproduces the seed's fire-and-forget
    /// behaviour (used as the A/B baseline in experiments).
    pub enabled: bool,
    /// Attempt budget, *including* the first transmission.
    pub max_attempts: u32,
    /// Backoff before the first retransmission; doubles per attempt.
    pub base_backoff: SimDuration,
    /// Cap on the exponential backoff.
    pub max_backoff: SimDuration,
    /// When `Some(h)`, a hedged read fires once `h` of the deadline has
    /// been consumed with no reply (`0 <= h < 1`).
    pub hedge_fraction: Option<f64>,
    /// How long an update may go unacknowledged before it is
    /// retransmitted (updates have no QoS deadline).
    pub update_retry_after: SimDuration,
    /// Consecutive timeouts before a replica is quarantined.
    pub quarantine_threshold: u32,
    /// Initial quarantine window; doubles per re-offence.
    pub quarantine_base: SimDuration,
    /// Cap on the quarantine window.
    pub quarantine_max: SimDuration,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            enabled: true,
            max_attempts: 3,
            base_backoff: SimDuration::from_millis(20),
            max_backoff: SimDuration::from_secs(1),
            hedge_fraction: Some(0.5),
            update_retry_after: SimDuration::from_secs(1),
            quarantine_threshold: 3,
            quarantine_base: SimDuration::from_secs(5),
            quarantine_max: SimDuration::from_secs(60),
        }
    }
}

impl RecoveryPolicy {
    /// The seed's original behaviour: one attempt, no hedge, no
    /// quarantine.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::default()
        }
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
    /// Recovery step: either the backoff before a retransmission elapsed
    /// or the current attempt's response window expired.
    Retry,
    /// `hedge_fraction` of the deadline elapsed: consider a hedged read.
    Hedge,
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
    /// Arm a timer for `req`; hand it back via the matching `on_*` method.
    ArmTimer {
        /// Request the timer concerns.
        req: RequestId,
        /// Which expiry handler to invoke.
        purpose: TimerPurpose,
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
    /// Retransmissions (attempts beyond the first, hedges excluded).
    pub retries: u64,
    /// Hedged reads fired before the deadline.
    pub hedges: u64,
    /// Quarantine windows opened against suspected replicas.
    pub quarantines: u64,
    /// CDF-engine queries answered from cache (no convolution work).
    pub cdf_cache_hits: u64,
    /// CDF-engine evaluator refreshes (cache misses requiring a shift
    /// and/or convolution).
    pub cdf_cache_misses: u64,
    /// `S⊛W` base convolutions performed — at most one per window
    /// generation per replica; the quantity Figure 3 bills at ~90% of the
    /// selection overhead.
    pub cdf_base_rebuilds: u64,
    /// Explicit `Busy` rejections received from shedding replicas
    /// (classified apart from timeouts and gray faults; they never charge
    /// quarantine strikes).
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
    /// Circuit breakers tripped open against overloaded replicas.
    pub breaker_opens: u64,
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
    /// Current attempt number (1-based; hedges do not bump it).
    attempt: u32,
    /// Every replica targeted so far, across attempts and hedges.
    /// Retransmissions reselect excluding these.
    tried: Vec<ActorId>,
    /// Targets of the current attempt that have not replied; drained
    /// into quarantine strikes when the attempt expires.
    unacked: Vec<ActorId>,
    /// The next [`TimerPurpose::Retry`] fire retransmits (backoff
    /// elapsed) rather than checking the current attempt for expiry.
    retry_pending: bool,
    /// A hedged read was already fired (at most one per request).
    hedged: bool,
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

fn arm(out: &mut Vec<ClientAction>, req: RequestId, purpose: TimerPurpose, after: SimDuration) {
    out.push(ClientAction::ArmTimer {
        req,
        purpose,
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
    pending: HashMap<RequestId, Pending>,
    primary_view: Arc<View>,
    secondary_view: Arc<View>,
    alerted: bool,
    last_selection: Option<Selection>,
    last_stale_factor: f64,
    selection_counts: HashMap<ActorId, u64>,
    /// Sum of `P_K(d)` predictions over all reads (model calibration).
    predicted_sum: f64,
    /// Session causality; `None` unless the ordering is causal.
    session: Option<Session>,
    /// Circuit breakers and the degradation ladder; `None` unless
    /// `config.overload.enabled`.
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
        primary_view: impl Into<Arc<View>>,
        secondary_view: impl Into<Arc<View>>,
        config: ClientConfig,
    ) -> Self {
        let monitor = MonitorConfig {
            window_size: config.window_size,
            rate_window: config.rate_window,
            staleness_model: config.staleness_model,
            cdf_bin_us: config.cdf_bin_us,
        };
        let overload = config
            .overload
            .enabled
            .then(|| ClientOverload::new(config.overload.clone(), me));
        // With overload protection on, the detector gains a sliding window
        // sized to the recovery hysteresis; otherwise the lifetime-only
        // detector keeps the original (seed) alert behavior.
        let detector = match &overload {
            Some(_) => TimingFailureDetector::with_window(config.overload.recover_window),
            None => TimingFailureDetector::new(),
        };
        Self {
            me,
            repo: InfoRepository::new(monitor),
            selector: Selector::new(config.policy),
            detector,
            rng: SmallRng::seed_from_u64(config.seed),
            next_seq: 0,
            pending: HashMap::new(),
            primary_view: primary_view.into(),
            secondary_view: secondary_view.into(),
            alerted: false,
            last_selection: None,
            last_stale_factor: 1.0,
            selection_counts: HashMap::new(),
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

    /// Counters, with the repository's CDF-cache activity folded in.
    pub fn stats(&self) -> ClientStats {
        let cache = self.repo.cache_stats();
        ClientStats {
            cdf_cache_hits: cache.hits,
            cdf_cache_misses: cache.misses,
            cdf_base_rebuilds: cache.base_rebuilds,
            ..self.stats
        }
    }

    /// The most recent selection outcome (experiments).
    pub fn last_selection(&self) -> Option<&Selection> {
        self.last_selection.as_ref()
    }

    /// How many times each replica has been selected by this client (used
    /// by the hot-spot ablation study).
    pub fn selection_counts(&self) -> &HashMap<ActorId, u64> {
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
    /// the ladder widens the QoS; `ladder.len() + 1` rejects locally).
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
            hedged: false,
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
        arm(out, id, TimerPurpose::GiveUp, self.config.give_up);
        if recovery.enabled && recovery.max_attempts > 1 {
            // Updates have no QoS deadline; a dedicated timer checks the
            // attempt for expiry.
            arm(out, id, TimerPurpose::Retry, recovery.update_retry_after);
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
        arm(
            out,
            id,
            TimerPurpose::Transmit,
            self.config.selection_overhead,
        );
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
    /// current request), quarantined replicas, and replicas behind an open
    /// circuit breaker are filtered out — unless that would leave no
    /// candidate at all, in which case the filters are relaxed in order
    /// (quarantine/breakers first, then `exclude`) so a request can always
    /// be transmitted.
    fn candidate_keys(&mut self, now: SimTime, exclude: &[ActorId]) -> Vec<CandidateKey> {
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
        // Open circuit breakers exclude a replica the same way quarantine
        // does (and with the same last-resort relaxation below). The check
        // also advances open breakers to half-open and stamps probe times,
        // hence the pre-pass over the built list.
        let mut broken: Vec<ActorId> = Vec::new();
        if let Some(overload) = &mut self.overload {
            for c in &all {
                if !overload.allows(c.id, now) {
                    broken.push(c.id);
                }
            }
        }
        let untried = |c: &&CandidateKey| !exclude.contains(&c.id);
        let healthy =
            |c: &&CandidateKey| !self.repo.is_quarantined(c.id, now) && !broken.contains(&c.id);
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

    /// A gateway timer expired.
    pub fn on_timer(
        &mut self,
        req: RequestId,
        purpose: TimerPurpose,
        now: SimTime,
        out: &mut Vec<ClientAction>,
    ) {
        match purpose {
            TimerPurpose::Transmit => self.on_transmit(req, now, out),
            TimerPurpose::Deadline => self.on_deadline(req, now, out),
            TimerPurpose::GiveUp => self.on_give_up(req, now, out),
            TimerPurpose::Retry => self.on_retry(req, now, out),
            TimerPurpose::Hedge => self.on_hedge(req, now, out),
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
        if let Some(qos) = p.qos {
            arm(out, req, TimerPurpose::Deadline, qos.deadline);
            let recovery = self.config.recovery;
            if let (true, Some(h)) = (recovery.enabled, recovery.hedge_fraction) {
                let after = qos.deadline.as_secs_f64() * h.clamp(0.0, 1.0);
                arm(
                    out,
                    req,
                    TimerPurpose::Hedge,
                    SimDuration::from_secs_f64(after),
                );
            }
        }
        arm(out, req, TimerPurpose::GiveUp, self.config.give_up);
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

    fn on_deadline(&mut self, req: RequestId, now: SimTime, out: &mut Vec<ClientAction>) {
        let Some(p) = self.pending.get_mut(&req) else {
            return;
        };
        if p.replied {
            return;
        }
        let Some(qos) = p.take_unjudged() else {
            return;
        };
        // No reply within d: a timing failure (§5.4).
        self.record_outcome(false, qos, now, out);
        // The deadline doubles as attempt 1's expiry: charge the silent
        // replicas and schedule a retransmission if budget remains.
        self.schedule_retry(req, now, out);
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
        let horizon = p.tm + self.config.give_up;
        if p.kind == OperationKind::ReadOnly {
            self.charge_timeouts(&unacked, now, out);
        }
        if attempt >= recovery.max_attempts {
            return;
        }
        // Capped exponential backoff with deterministic jitter in
        // [backoff/2, backoff), from the gateway's seeded RNG.
        let exp = recovery
            .base_backoff
            .as_micros()
            .saturating_mul(1u64 << (attempt - 1).min(16))
            .min(recovery.max_backoff.as_micros())
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
        arm(out, req, TimerPurpose::Retry, jittered);
    }

    /// Charges one timeout strike per silent replica, opening quarantine
    /// windows when a replica crosses the threshold. Under overload
    /// protection silent replicas also take a circuit-breaker strike, and
    /// an opened quarantine triggers an admission re-evaluation (the
    /// capacity the client planned around is gone).
    fn charge_timeouts(&mut self, silent: &[ActorId], now: SimTime, out: &mut Vec<ClientAction>) {
        let recovery = self.config.recovery;
        let mut opened = false;
        for &r in silent {
            if self.repo.record_timeout(
                r,
                now,
                recovery.quarantine_threshold,
                recovery.quarantine_base,
                recovery.quarantine_max,
            ) {
                self.stats.quarantines += 1;
                opened = true;
            }
            self.strike_breaker(r, now);
        }
        if opened {
            self.reevaluate_admission(now, out);
        }
    }

    fn strike_breaker(&mut self, replica: ActorId, now: SimTime) {
        if self
            .overload
            .as_mut()
            .is_some_and(|o| o.strike(replica, now))
        {
            self.stats.breaker_opens += 1;
        }
    }

    /// A Retry timer fired: either the backoff before the next attempt
    /// elapsed, or the current attempt's response window did.
    fn on_retry(&mut self, req: RequestId, now: SimTime, out: &mut Vec<ClientAction>) {
        let recovery = self.config.recovery;
        let Some(p) = self.pending.get_mut(&req) else {
            return;
        };
        if p.replied || !recovery.enabled {
            return;
        }
        if !p.retry_pending {
            // Expiry check for the current attempt: no reply yet, so fail
            // the attempt and (maybe) back off into the next one.
            return self.schedule_retry(req, now, out);
        }
        // Backoff elapsed: retransmit the original request (same id and,
        // in causal mode, the same stamp — the server reply caches make
        // this idempotent) with only the attempt counter bumped.
        p.retry_pending = false;
        p.attempt += 1;
        let payload = p.payload.clone().expect("kept under a retry policy");
        let payload = payload.with_attempt(p.attempt);
        let horizon = p.tm + self.config.give_up;
        self.stats.retries += 1;
        let Some(qos) = p.qos else {
            out.push(ClientAction::MulticastPrimary(payload));
            arm(out, req, TimerPurpose::Retry, recovery.update_retry_after);
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
            arm(out, req, TimerPurpose::Retry, window);
        }
    }

    /// `hedge_fraction` of the deadline elapsed with no reply: fire one
    /// extra copy of the read at the best replica not yet tried.
    fn on_hedge(&mut self, req: RequestId, now: SimTime, out: &mut Vec<ClientAction>) {
        let Some(p) = self.pending.get(&req) else {
            return;
        };
        let (Some(qos), Some(payload)) = (p.qos, &p.payload) else {
            return;
        };
        if p.replied || p.hedged || !self.config.recovery.enabled {
            return;
        }
        let (payload, tried) = (payload.clone().with_attempt(p.attempt), p.tried.clone());
        // Best untried replica by immediate-response probability, ties
        // broken toward the least-recently-heard (freshest probe value).
        // Only `F^I` is read, so no deferred path is evaluated.
        let target = self
            .candidate_keys(now, &tried)
            .into_iter()
            .filter(|c| !tried.contains(&c.id))
            .map(|c| (self.repo.immediate_cdf(c.id, qos.deadline), c))
            .max_by(|(fa, a), (fb, b)| fa.total_cmp(fb).then(b.ert_us.cmp(&a.ert_us)))
            .map(|(_, c)| c.id);
        let Some(to) = target else {
            return;
        };
        let p = self.tracked(req);
        p.hedged = true;
        p.tried.push(to);
        p.unacked.push(to);
        self.stats.hedges += 1;
        self.obs.emit(now, self.me, || ObsEvent::HedgeSent {
            req: req_ref(req),
            target: to,
        });
        out.push(ClientAction::SendDirect { to, payload });
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
            self.charge_timeouts(&p.unacked, now, out);
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

    /// An overloaded replica explicitly refused the request. A `Busy` is a
    /// healthy "no": the sender is removed from the attempt's unacked set
    /// so it is never charged a quarantine strike, it takes a
    /// circuit-breaker strike instead, and — once every target of the
    /// attempt has refused — the retry machinery fires early rather than
    /// waiting for the deadline (re-selection excludes the shedders, which
    /// stay in `tried`).
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
        self.strike_breaker(from, now);
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
        // not just the first one delivered — and clears any quarantine
        // suspicion against the sender.
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
            if let Some(overload) = &mut self.overload {
                overload.reclose(from, now);
            }
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
        if self.obs.is_enabled() {
            let name = match kind {
                OperationKind::ReadOnly => "client.read_response_us",
                OperationKind::Update => "client.update_response_us",
            };
            self.obs
                .observe(name, aqf_obs::LATENCY_BOUNDS_US, tr.as_micros());
            if kind == OperationKind::ReadOnly {
                self.obs.observe(
                    "client.staleness_versions",
                    aqf_obs::STALENESS_BOUNDS_VERSIONS,
                    r.staleness,
                );
            }
        }
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
    pub fn on_view(&mut self, view: Arc<View>, now: SimTime, out: &mut Vec<ClientAction>) {
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
        let Some((requested, headroom)) = target else {
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
        let controller = AdmissionController::new(AdmissionConfig { headroom });
        let decision = controller.decide(&candidates, self.last_stale_factor, &requested);
        if decision.admit {
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
    use crate::overload::DegradeStep;
    use crate::wire::{PerfBroadcast, ReadMeasurement, Reply};
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
        let id = c.submit_update(Operation::new("set", vec![1]), t(0), &mut actions);
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
            Operation::new("get", vec![]),
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
        let actions = sink(|out| c.on_timer(id, TimerPurpose::Transmit, t(1), out));
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
            Operation::new("get", vec![]),
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
            Operation::new("get", vec![]),
            qos(200, 0.9),
            t(0),
            &mut Vec::new(),
        );
        c.on_timer(id, TimerPurpose::Transmit, t(1), &mut Vec::new());
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
            Operation::new("get", vec![]),
            qos(100, 0.9),
            t(0),
            &mut Vec::new(),
        );
        c.on_timer(id, TimerPurpose::Transmit, t(1), &mut Vec::new());
        c.on_timer(id, TimerPurpose::Deadline, t(101), &mut Vec::new());
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
                Operation::new("get", vec![]),
                qos(100, 0.9),
                t(i * 1000),
                &mut Vec::new(),
            );
            c.on_timer(id, TimerPurpose::Transmit, t(i * 1000 + 1), &mut Vec::new());
            let actions =
                sink(|out| c.on_timer(id, TimerPurpose::Deadline, t(i * 1000 + 101), out));
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
            Operation::new("get", vec![]),
            qos(100, 0.5),
            t(0),
            &mut Vec::new(),
        );
        c.on_timer(id, TimerPurpose::Transmit, t(1), &mut Vec::new());
        c.on_timer(id, TimerPurpose::Deadline, t(101), &mut Vec::new());
        let actions = sink(|out| c.on_timer(id, TimerPurpose::GiveUp, t(10_001), out));
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
            Operation::new("get", vec![]),
            qos(200, 0.5),
            t(0),
            &mut Vec::new(),
        );
        c.on_timer(id, TimerPurpose::Transmit, t(1), &mut Vec::new());
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

    /// Staleness is a count of versions, binned on the version scale: 0 and
    /// 3 versions land in different buckets.
    #[test]
    fn staleness_histogram_bins_versions() {
        let mut c = client();
        let obs = ObsHandle::enabled();
        c.set_obs(obs.clone());
        for (at, staleness) in [(0, 0), (1000, 3)] {
            let op = Operation::new("get", vec![]);
            let id = c.submit_read(op, qos(200, 0.5), t(at), &mut Vec::new());
            c.on_timer(id, TimerPurpose::Transmit, t(at + 1), &mut Vec::new());
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
        let metrics = obs.take_report().expect("enabled handle").metrics;
        let h = metrics.histogram("client.staleness_versions").unwrap();
        assert_eq!((h.quantile(0.5), h.quantile(1.0)), (0, 3));
    }

    #[test]
    fn deferred_reply_counted() {
        let mut c = client();
        let id = c.submit_read(
            Operation::new("get", vec![]),
            qos(500, 0.5),
            t(0),
            &mut Vec::new(),
        );
        c.on_timer(id, TimerPurpose::Transmit, t(1), &mut Vec::new());
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
        c.on_view(Arc::new(newer), t(0), &mut Vec::new());
        assert_eq!(c.sequencer(), a(1));
        c.submit_read(
            Operation::new("get", vec![]),
            qos(200, 0.99),
            t(0),
            &mut Vec::new(),
        );
        let sel = c.last_selection().unwrap().clone();
        assert!(!sel.replicas.contains(&a(0)));
        assert!(sel.replicas.contains(&a(1)), "new sequencer appended");
        // Stale view replay is ignored.
        let (old_p, _) = views();
        c.on_view(Arc::new(old_p), t(0), &mut Vec::new());
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
            Operation::new("get", vec![]),
            qos(200, 0.5),
            t(0),
            &mut Vec::new(),
        );
        let predicted = c.last_selection().unwrap().predicted;
        assert_eq!(c.mean_predicted(), Some(predicted));
        c.submit_read(
            Operation::new("get", vec![]),
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
        let id1 = c.submit_update(Operation::new("set", vec![]), t(0), &mut Vec::new());
        let id2 = c.submit_update(Operation::new("set", vec![]), t(1), &mut Vec::new());
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

    fn retry_timer(actions: &[ClientAction]) -> Option<SimDuration> {
        actions.iter().find_map(|x| match x {
            ClientAction::ArmTimer {
                purpose: TimerPurpose::Retry,
                after,
                ..
            } => Some(*after),
            _ => None,
        })
    }

    #[test]
    fn deadline_schedules_backoff_then_retransmits_elsewhere() {
        let mut c = client();
        let id = c.submit_read(
            Operation::new("get", vec![]),
            qos(100, 0.9),
            t(0),
            &mut Vec::new(),
        );
        let first = sink(|out| c.on_timer(id, TimerPurpose::Transmit, t(1), out));
        let tried_first: Vec<ActorId> = sends_of(&first).iter().map(|&(to, _)| to).collect();
        let actions = sink(|out| c.on_timer(id, TimerPurpose::Deadline, t(101), out));
        let backoff = retry_timer(&actions).expect("backoff armed after deadline");
        assert!(backoff > SimDuration::ZERO);
        assert_eq!(c.stats().retries, 0, "backoff alone is not yet a retry");
        // Backoff elapsed: attempt 2 goes out.
        let actions = sink(|out| c.on_timer(id, TimerPurpose::Retry, t(130), out));
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
            Operation::new("get", vec![]),
            qos(100, 0.9),
            t(0),
            &mut Vec::new(),
        );
        c.on_timer(id, TimerPurpose::Transmit, t(1), &mut Vec::new());
        c.on_timer(id, TimerPurpose::Deadline, t(101), &mut Vec::new());
        c.on_timer(id, TimerPurpose::Retry, t(130), &mut Vec::new());
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
        let gc = sink(|out| c.on_timer(id, TimerPurpose::GiveUp, t(10_001), out));
        assert!(gc.is_empty());
        assert_eq!(c.stats().give_ups, 0, "recovered before give-up");
    }

    #[test]
    fn attempt_budget_is_respected() {
        let (p, s) = views();
        let mut config = ClientConfig::default();
        config.recovery.max_attempts = 2;
        let mut c = ClientGateway::new(a(20), p, s, config);
        let id = c.submit_read(
            Operation::new("get", vec![]),
            qos(100, 0.9),
            t(0),
            &mut Vec::new(),
        );
        c.on_timer(id, TimerPurpose::Transmit, t(1), &mut Vec::new());
        let actions = sink(|out| c.on_timer(id, TimerPurpose::Deadline, t(101), out));
        assert!(retry_timer(&actions).is_some());
        let actions = sink(|out| c.on_timer(id, TimerPurpose::Retry, t(130), out));
        assert_eq!(c.stats().retries, 1);
        let expiry = retry_timer(&actions).expect("attempt 2 expiry window");
        // Attempt 2 expires too: budget exhausted, no further retry.
        let actions = sink(|out| c.on_timer(id, TimerPurpose::Retry, t(130) + expiry, out));
        assert!(retry_timer(&actions).is_none(), "budget of 2 exhausted");
        assert!(sends_of(&actions).is_empty());
        assert_eq!(c.stats().retries, 1);
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
            Operation::new("get", vec![]),
            qos(100, 0.9),
            t(0),
            &mut Vec::new(),
        );
        let actions = sink(|out| c.on_timer(id, TimerPurpose::Transmit, t(1), out));
        assert!(
            !actions.iter().any(|x| matches!(
                x,
                ClientAction::ArmTimer {
                    purpose: TimerPurpose::Hedge,
                    ..
                }
            )),
            "no hedge timer when disabled"
        );
        let actions = sink(|out| c.on_timer(id, TimerPurpose::Deadline, t(101), out));
        assert!(retry_timer(&actions).is_none(), "no retry when disabled");
        assert_eq!(c.stats().retries + c.stats().hedges, 0);
    }

    #[test]
    fn hedge_fires_once_at_an_untried_replica() {
        let mut c = client();
        // Warm the repo so selection is small and some replicas stay
        // untried.
        for r in [a(1), a(2), a(10), a(11)] {
            feed_perf(&mut c, r, 10, 10);
        }
        let id = c.submit_read(
            Operation::new("get", vec![]),
            qos(200, 0.5),
            t(0),
            &mut Vec::new(),
        );
        let transmit = sink(|out| c.on_timer(id, TimerPurpose::Transmit, t(1), out));
        let tried: Vec<ActorId> = sends_of(&transmit).iter().map(|&(to, _)| to).collect();
        assert!(tried.len() < 5, "warm selection leaves untried replicas");
        let actions = sink(|out| c.on_timer(id, TimerPurpose::Hedge, t(101), out));
        let hedges = sends_of(&actions);
        assert_eq!(hedges.len(), 1, "exactly one hedged copy");
        assert!(!tried.contains(&hedges[0].0), "hedge goes elsewhere");
        assert_eq!(hedges[0].1, 1, "hedge reuses the current attempt");
        assert_eq!(c.stats().hedges, 1);
        // A second hedge timer (or replay) does nothing.
        assert!(sink(|out| c.on_timer(id, TimerPurpose::Hedge, t(102), out)).is_empty());
        assert_eq!(c.stats().hedges, 1);
    }

    #[test]
    fn hedge_skipped_after_reply() {
        let mut c = client();
        let id = c.submit_read(
            Operation::new("get", vec![]),
            qos(200, 0.5),
            t(0),
            &mut Vec::new(),
        );
        c.on_timer(id, TimerPurpose::Transmit, t(1), &mut Vec::new());
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
            t(50),
            &mut Vec::new(),
        );
        assert!(sink(|out| c.on_timer(id, TimerPurpose::Hedge, t(101), out)).is_empty());
        assert_eq!(c.stats().hedges, 0);
    }

    #[test]
    fn silent_replicas_get_quarantined_and_excluded() {
        let (p, s) = views();
        let mut config = ClientConfig::default();
        config.recovery.max_attempts = 1; // isolate quarantine charging
        config.recovery.hedge_fraction = None;
        config.recovery.quarantine_threshold = 2;
        let mut c = ClientGateway::new(a(20), p, s, config);
        // Two straight rounds where every selected replica stays silent.
        for i in 0..2u64 {
            let id = c.submit_read(
                Operation::new("get", vec![]),
                qos(100, 0.9),
                t(i * 20_000),
                &mut Vec::new(),
            );
            c.on_timer(
                id,
                TimerPurpose::Transmit,
                t(i * 20_000 + 1),
                &mut Vec::new(),
            );
            c.on_timer(
                id,
                TimerPurpose::Deadline,
                t(i * 20_000 + 101),
                &mut Vec::new(),
            );
            c.on_timer(
                id,
                TimerPurpose::GiveUp,
                t(i * 20_000 + 10_001),
                &mut Vec::new(),
            );
        }
        assert!(c.stats().quarantines > 0, "silence opens quarantines");
        // Strike 2 landed at the round-2 deadline (~t=20.1s); the default
        // 5s window is still open shortly afterwards.
        let now = t(21_000);
        let quarantined: Vec<ActorId> = [a(1), a(2), a(10), a(11)]
            .into_iter()
            .filter(|&r| c.repository().is_quarantined(r, now))
            .collect();
        assert!(!quarantined.is_empty());
        // A reply from a quarantined replica lifts its quarantine (probe
        // success).
        let victim = quarantined[0];
        let id = c.submit_read(
            Operation::new("get", vec![]),
            qos(100, 0.9),
            t(21_000),
            &mut Vec::new(),
        );
        c.on_timer(id, TimerPurpose::Transmit, t(21_001), &mut Vec::new());
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
            t(21_050),
            &mut Vec::new(),
        );
        assert!(!c.repository().is_quarantined(victim, t(21_060)));
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
        let id = c.submit_update(Operation::new("set", vec![1]), t(0), &mut actions);
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
        let actions = sink(|out| c.on_timer(id, TimerPurpose::Retry, t(1_000), out));
        let backoff = retry_timer(&actions).expect("update backoff armed");
        let actions = sink(|out| c.on_timer(id, TimerPurpose::Retry, t(1_000) + backoff, out));
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

    fn overload_client(overload: OverloadConfig) -> ClientGateway {
        let (p, s) = views();
        ClientGateway::new(
            a(20),
            p,
            s,
            ClientConfig {
                overload,
                ..ClientConfig::default()
            },
        )
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
    fn busy_retries_elsewhere_without_quarantine_strikes() {
        let mut c = overload_client(OverloadConfig {
            enabled: true,
            ..OverloadConfig::disabled()
        });
        // Warm the repository so selection picks a small set rather than
        // every replica (leaving someone untried for the retry).
        for r in [a(1), a(2), a(10), a(11)] {
            feed_perf(&mut c, r, 10, 10);
        }
        let id = c.submit_read(
            Operation::new("get", vec![]),
            qos(200, 0.5),
            t(0),
            &mut Vec::new(),
        );
        let first = sink(|out| c.on_timer(id, TimerPurpose::Transmit, t(1), out));
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
            if let Some(b) = retry_timer(&actions) {
                backoff = Some(b);
            }
        }
        assert_eq!(c.stats().busy_rejections, shedders.len() as u64);
        assert_eq!(
            c.stats().quarantines,
            0,
            "Busy is a healthy no, never a quarantine strike"
        );
        let backoff = backoff.expect("accelerated retry armed once all targets refused");
        let actions = sink(|out| c.on_timer(id, TimerPurpose::Retry, t(2) + backoff, out));
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

    #[test]
    fn breaker_opens_after_strikes_then_probes_and_recloses() {
        let mut c = overload_client(OverloadConfig {
            enabled: true,
            breaker_threshold: 2,
            breaker_open: SimDuration::from_millis(500),
            probe_interval: SimDuration::from_millis(250),
            ..OverloadConfig::disabled()
        });
        // Two Busy strikes from a(1) on separate requests trip its breaker.
        for round in 0..2u64 {
            let id = c.submit_read(
                Operation::new("get", vec![]),
                qos(200, 0.5),
                t(round * 10),
                &mut Vec::new(),
            );
            c.on_timer(
                id,
                TimerPurpose::Transmit,
                t(round * 10 + 1),
                &mut Vec::new(),
            );
            c.on_payload(
                a(1),
                Payload::Busy { req: id },
                t(round * 10 + 2),
                &mut Vec::new(),
            );
        }
        assert_eq!(c.stats().breaker_opens, 1);
        // While open, a(1) is excluded from selection.
        c.submit_read(
            Operation::new("get", vec![]),
            qos(200, 0.5),
            t(50),
            &mut Vec::new(),
        );
        let sel = c.last_selection().unwrap().clone();
        assert!(
            !sel.replicas.contains(&a(1)),
            "open breaker excludes the replica"
        );
        // After the open window elapses, one half-open probe is admitted.
        let id = c.submit_read(
            Operation::new("get", vec![]),
            qos(200, 0.5),
            t(600),
            &mut Vec::new(),
        );
        let sel = c.last_selection().unwrap().clone();
        assert!(
            sel.replicas.contains(&a(1)),
            "half-open breaker admits a probe"
        );
        c.on_timer(id, TimerPurpose::Transmit, t(601), &mut Vec::new());
        // A timely reply from the probed replica recloses the breaker.
        timely_reply(&mut c, a(1), id, t(650));
        c.submit_read(
            Operation::new("get", vec![]),
            qos(200, 0.5),
            t(660),
            &mut Vec::new(),
        );
        let sel = c.last_selection().unwrap().clone();
        assert!(
            sel.replicas.contains(&a(1)),
            "reclosed breaker selects again"
        );
        assert_eq!(c.stats().breaker_opens, 1);
    }

    #[test]
    fn ladder_steps_down_then_recovers() {
        let mut c = overload_client(OverloadConfig {
            enabled: true,
            recover_window: 4,
            ladder: vec![DegradeStep {
                widen_staleness: 2,
                relax_probability: 0.2,
            }],
            ..OverloadConfig::disabled()
        });
        let spec = qos(200, 0.9);
        // Four straight timing failures fill the window (cap 4) and drop
        // the windowed frequency to 0 < 0.9: step down to rung 1.
        let mut stepped = false;
        for round in 0..4u64 {
            let at = round * 1000;
            let id = c.submit_read(Operation::new("get", vec![]), spec, t(at), &mut Vec::new());
            c.on_timer(id, TimerPurpose::Transmit, t(at + 1), &mut Vec::new());
            let actions = sink(|out| c.on_timer(id, TimerPurpose::Deadline, t(at + 201), out));
            stepped |= actions.iter().any(|x| {
                matches!(
                    x,
                    ClientAction::Degrade {
                        from_level: 0,
                        to_level: 1
                    }
                )
            });
        }
        assert!(stepped, "degradation step surfaced as an action");
        assert_eq!(c.degrade_level(), 1);
        assert_eq!(c.stats().degrade_transitions, 1);
        // Reads now carry the widened staleness threshold (2 + 2).
        let id = c.submit_read(
            Operation::new("get", vec![]),
            spec,
            t(5000),
            &mut Vec::new(),
        );
        let actions = sink(|out| c.on_timer(id, TimerPurpose::Transmit, t(5001), out));
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
        timely_reply(&mut c, a(1), id, t(5050));
        // Three more timely outcomes: the window clears the original Pc
        // and the controller steps back up.
        for round in 0..3u64 {
            let at = 6000 + round * 1000;
            let id = c.submit_read(Operation::new("get", vec![]), spec, t(at), &mut Vec::new());
            c.on_timer(id, TimerPurpose::Transmit, t(at + 1), &mut Vec::new());
            timely_reply(&mut c, a(1), id, t(at + 50));
        }
        assert_eq!(c.degrade_level(), 0, "recovered to the nominal level");
        assert_eq!(c.stats().degrade_transitions, 2);
        let id = c.submit_read(
            Operation::new("get", vec![]),
            spec,
            t(20_000),
            &mut Vec::new(),
        );
        let actions = sink(|out| c.on_timer(id, TimerPurpose::Transmit, t(20_001), out));
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
        // Empty ladder: the first step lands straight on the rejection
        // rung.
        let mut c = overload_client(OverloadConfig {
            enabled: true,
            recover_window: 2,
            ladder: Vec::new(),
            probe_interval: SimDuration::from_millis(250),
            ..OverloadConfig::disabled()
        });
        let spec = qos(200, 0.9);
        for round in 0..2u64 {
            let at = round * 1000;
            let id = c.submit_read(Operation::new("get", vec![]), spec, t(at), &mut Vec::new());
            c.on_timer(id, TimerPurpose::Transmit, t(at + 1), &mut Vec::new());
            c.on_timer(id, TimerPurpose::Deadline, t(at + 201), &mut Vec::new());
        }
        assert_eq!(c.degrade_level(), 1, "empty ladder rejects immediately");
        let outcomes_before = c.detector().total();
        // First read in rejection mode is the probe: it goes out normally.
        let mut actions = Vec::new();
        c.submit_read(Operation::new("get", vec![]), spec, t(3000), &mut actions);
        assert!(matches!(
            actions[0],
            ClientAction::ArmTimer {
                purpose: TimerPurpose::Transmit,
                ..
            }
        ));
        // A second read inside the probe interval is shed locally.
        let mut actions = Vec::new();
        c.submit_read(Operation::new("get", vec![]), spec, t(3100), &mut actions);
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
        let mut c = overload_client(OverloadConfig {
            enabled: true,
            ladder: vec![DegradeStep {
                widen_staleness: 2,
                relax_probability: 0.2,
            }],
            ..OverloadConfig::disabled()
        });
        // Make every replica look far too slow for a 200 ms deadline so
        // the admission check deterministically rejects Pc = 0.9.
        for r in [a(1), a(2), a(10), a(11)] {
            feed_perf(&mut c, r, 1000, 10);
        }
        c.submit_read(
            Operation::new("get", vec![]),
            qos(200, 0.9),
            t(0),
            &mut Vec::new(),
        );
        let (p, _) = views();
        let newer = p.successor(&[a(2)], &[]).unwrap();
        let actions = sink(|out| c.on_view(Arc::new(newer), t(10), out));
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
