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
//! Like the server gateway, this is a sans-IO state machine: the host
//! executes the returned [`ClientAction`]s and feeds back payloads and
//! timer expirations.

use crate::admission::{AdmissionConfig, AdmissionController};
use crate::model::{Candidate, CandidateKey, Selection};
use crate::monitor::{InfoRepository, MonitorConfig, StalenessModel};
use crate::obs::{req_ref, ObsEvent, ObsHandle};
use crate::overload::{DegradeTransition, OverloadConfig};
use crate::qos::{OperationKind, OrderingGuarantee, QosSpec};
use crate::select::{SelectionPolicy, Selector};
use crate::timing::TimingFailureDetector;
use crate::wire::{
    Operation, Payload, ReadRequest, RequestId, UpdateRequest, VersionVector, PRIMARY_GROUP,
    SECONDARY_GROUP,
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
    /// been consumed with no reply (`0 < h < 1`).
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

#[derive(Debug, Clone)]
struct Pending {
    kind: OperationKind,
    qos: Option<QosSpec>,
    t0: SimTime,
    tm: Option<SimTime>,
    prepared: Vec<(ActorId, Payload)>,
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
    /// The exact payload of attempt 1, retransmitted with only the
    /// attempt counter bumped. Causal updates in particular MUST reuse
    /// their original `update_seq`/`deps` so retries stay idempotent.
    template: Option<Payload>,
    /// The next [`TimerPurpose::Retry`] fire retransmits (backoff
    /// elapsed) rather than checking the current attempt for expiry.
    retry_pending: bool,
    /// A hedged read was already fired (at most one per request).
    hedged: bool,
    /// The request was issued under a degraded (ladder-widened) QoS
    /// specification; `qos` holds the *effective* spec.
    degraded: bool,
}

/// Per-replica circuit breaker: closed → open after consecutive strikes →
/// half-open probing → closed again on a timely reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    /// Normal operation; the replica is selectable.
    Closed,
    /// Tripped: the replica is excluded from selection until the open
    /// window elapses.
    Open { since: SimTime },
    /// Open window elapsed: one probe request per `probe_interval` is let
    /// through; a timely reply recloses, a strike re-opens.
    HalfOpen { last_probe: Option<SimTime> },
}

#[derive(Debug, Clone, Copy)]
struct Breaker {
    /// Consecutive busy/timeout strikes since the last timely reply.
    strikes: u32,
    state: BreakerState,
}

impl BreakerState {
    /// The state name written to breaker trace events.
    fn obs_name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open { .. } => "open",
            BreakerState::HalfOpen { .. } => "half_open",
        }
    }
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
    // Causal-mode session state: what this client has observed (merged
    // reply vectors + its own updates) and its update-only counter.
    observed: std::collections::BTreeMap<ActorId, u64>,
    updates_issued: u64,
    /// When the observed vector last grew (causal mode): if it grew after
    /// the last lazy propagation, no secondary can serve this client's
    /// reads immediately, whatever the Poisson model says.
    observed_advanced_at: Option<SimTime>,
    stats: ClientStats,
    // Overload-protection state (inert unless `config.overload.enabled`).
    /// Per-replica circuit breakers, keyed deterministically.
    breakers: std::collections::BTreeMap<ActorId, Breaker>,
    /// Current graceful-degradation level: 0 = nominal, `1..=ladder.len()`
    /// = that rung of the ladder, `ladder.len() + 1` = local rejection.
    degrade_level: u32,
    /// Read outcomes recorded since the last level transition (hysteresis).
    outcomes_since_transition: u32,
    /// Every level transition, in order (metrics/audit).
    transitions: Vec<DegradeTransition>,
    /// The most recent *requested* (un-degraded) specification — the
    /// recovery target the controller steps back up toward.
    last_requested: Option<QosSpec>,
    /// When the rejection rung last admitted a probe read.
    last_reject_probe_at: Option<SimTime>,
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
        let primary_view: Arc<View> = primary_view.into();
        let secondary_view: Arc<View> = secondary_view.into();
        let monitor = MonitorConfig {
            window_size: config.window_size,
            rate_window: config.rate_window,
            staleness_model: config.staleness_model,
            cdf_bin_us: config.cdf_bin_us,
        };
        // With overload protection on, the detector gains a sliding window
        // sized to the recovery hysteresis; otherwise the lifetime-only
        // detector keeps the original (seed) alert behavior.
        let detector = if config.overload.enabled {
            TimingFailureDetector::with_window(config.overload.recover_window)
        } else {
            TimingFailureDetector::new()
        };
        Self {
            me,
            repo: InfoRepository::new(monitor),
            selector: Selector::new(config.policy),
            detector,
            rng: SmallRng::seed_from_u64(config.seed),
            config,
            next_seq: 0,
            pending: HashMap::new(),
            primary_view,
            secondary_view,
            alerted: false,
            last_selection: None,
            last_stale_factor: 1.0,
            selection_counts: HashMap::new(),
            predicted_sum: 0.0,
            observed: std::collections::BTreeMap::new(),
            updates_issued: 0,
            observed_advanced_at: None,
            stats: ClientStats::default(),
            breakers: std::collections::BTreeMap::new(),
            degrade_level: 0,
            outcomes_since_transition: 0,
            transitions: Vec::new(),
            last_requested: None,
            last_reject_probe_at: None,
            obs: ObsHandle::disabled(),
        }
    }

    /// Installs an observability handle; events from this gateway (and its
    /// repository's quarantine bookkeeping) flow into it. Installing a
    /// disabled handle keeps the gateway un-instrumented.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.repo.set_obs(self.me, obs.clone());
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

    /// The staleness factor used for the most recent selection.
    pub fn last_stale_factor(&self) -> f64 {
        self.last_stale_factor
    }

    /// The current graceful-degradation level (0 = nominal; each rung of
    /// the ladder widens the QoS; `ladder.len() + 1` rejects locally).
    pub fn degrade_level(&self) -> u32 {
        self.degrade_level
    }

    /// Every degradation-level transition so far, in order.
    pub fn degrade_transitions(&self) -> &[DegradeTransition] {
        &self.transitions
    }

    /// The current sequencer (leader of the primary group).
    pub fn sequencer(&self) -> ActorId {
        self.primary_view.leader()
    }

    fn next_id(&mut self) -> RequestId {
        let id = RequestId {
            client: self.me,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        id
    }

    /// Submits an update: multicast to the primary group, completion on the
    /// first reply (paper §5: "our selection algorithm handles an update
    /// request of a client by simply multicasting the request to all the
    /// primary replicas").
    pub fn submit_update(&mut self, op: Operation, now: SimTime) -> (RequestId, Vec<ClientAction>) {
        let id = self.next_id();
        self.stats.updates += 1;
        self.obs.emit(now, self.me, || ObsEvent::RequestIssued {
            req: req_ref(id),
            read: false,
            deadline_us: 0,
        });
        let payload = if self.config.ordering == OrderingGuarantee::Causal {
            // Causal mode: number the update and attach everything this
            // client has observed as its dependency set.
            let update_seq = self.updates_issued;
            self.updates_issued += 1;
            let deps = self.observed_snapshot();
            // The client has now (causally) observed its own write.
            let own = self.observed.entry(self.me).or_insert(0);
            *own = (*own).max(update_seq + 1);
            self.observed_advanced_at = Some(now);
            Payload::CausalUpdate {
                update: UpdateRequest { id, op, attempt: 1 },
                update_seq,
                deps,
            }
        } else {
            Payload::Update(UpdateRequest { id, op, attempt: 1 })
        };
        let recovery = self.config.recovery;
        self.pending.insert(
            id,
            Pending {
                kind: OperationKind::Update,
                qos: None,
                t0: now,
                tm: Some(now),
                prepared: Vec::new(),
                replied: false,
                outcome_recorded: true, // updates carry no deadline
                selected: 0,
                attempt: 1,
                tried: Vec::new(),
                unacked: Vec::new(),
                template: recovery.enabled.then(|| payload.clone()),
                retry_pending: false,
                hedged: false,
                degraded: false,
            },
        );
        let mut actions = vec![
            ClientAction::MulticastPrimary(payload),
            ClientAction::ArmTimer {
                req: id,
                purpose: TimerPurpose::GiveUp,
                after: self.config.give_up,
            },
        ];
        if recovery.enabled && recovery.max_attempts > 1 {
            // Updates have no QoS deadline; a dedicated timer checks the
            // attempt for expiry.
            actions.push(ClientAction::ArmTimer {
                req: id,
                purpose: TimerPurpose::Retry,
                after: recovery.update_retry_after,
            });
        }
        (id, actions)
    }

    /// The client's observed vector in wire format (causal mode).
    fn observed_snapshot(&self) -> VersionVector {
        let mut v: VersionVector = self.observed.iter().map(|(c, n)| (*c, *n)).collect();
        v.sort_unstable();
        v
    }

    /// Submits a read with QoS specification `qos`: runs replica selection,
    /// then transmits after the selection overhead has elapsed.
    pub fn submit_read(
        &mut self,
        op: Operation,
        qos: QosSpec,
        now: SimTime,
    ) -> (RequestId, Vec<ClientAction>) {
        let id = self.next_id();
        self.stats.reads += 1;
        self.obs.emit(now, self.me, || ObsEvent::RequestIssued {
            req: req_ref(id),
            read: true,
            deadline_us: qos.deadline.as_micros(),
        });

        // Graceful degradation (when enabled): remember the requested spec
        // as the recovery target, reject locally past the last rung, and
        // otherwise run under the ladder-widened effective spec.
        let requested = qos;
        let qos = if self.config.overload.enabled {
            self.last_requested = Some(requested);
            if self.rejecting() {
                let probe_due = self.last_reject_probe_at.is_none_or(|at| {
                    now.saturating_since(at) >= self.config.overload.probe_interval
                });
                if !probe_due {
                    // Ladder exhausted: answer "no" locally without
                    // contacting (and further loading) any replica. Local
                    // rejections are not service outcomes, so they do not
                    // feed the timing-failure detector.
                    self.stats.local_sheds += 1;
                    self.obs
                        .emit(now, self.me, || ObsEvent::LocalShed { req: req_ref(id) });
                    return (
                        id,
                        vec![ClientAction::Completed(ResponseInfo {
                            req: id,
                            kind: OperationKind::ReadOnly,
                            result: Bytes::new(),
                            response_time: SimDuration::ZERO,
                            timely: false,
                            deferred: false,
                            staleness: 0,
                            timed_out: false,
                            shed: true,
                            degraded: true,
                            replicas_selected: 0,
                            csn: 0,
                            vector: Vec::new(),
                        })],
                    );
                }
                self.last_reject_probe_at = Some(now);
            }
            self.effective_spec(requested)
        } else {
            qos
        };
        let degraded = self.config.overload.enabled && self.degrade_level > 0;

        let candidates = self.candidate_keys(now, &[]);
        let mut stale_factor = self.repo.staleness_factor(qos.staleness_threshold, now);
        if self.config.ordering == OrderingGuarantee::Causal {
            // Session-causality correction: if this client observed new
            // state after the (estimated) last lazy propagation, the
            // secondaries cannot dominate its session vector and will defer
            // — force the model onto the deferred path.
            if let (Some(advanced_at), Some(tl)) =
                (self.observed_advanced_at, self.repo.time_since_lazy(now))
            {
                let last_lazy = now - tl;
                if advanced_at > last_lazy {
                    stale_factor = 0.0;
                }
            }
        }
        let sequencer = match self.config.ordering {
            OrderingGuarantee::Sequential => Some(self.sequencer()),
            _ => None,
        };
        let selection = self.selector.select_on_demand(
            &mut self.repo.on_demand(&candidates, qos.deadline),
            stale_factor,
            qos.min_probability,
            sequencer,
            &mut self.rng,
        );
        self.stats.selected_sum += selection.replicas.len() as u64;
        self.last_stale_factor = stale_factor;
        for r in &selection.replicas {
            *self.selection_counts.entry(*r).or_insert(0) += 1;
        }
        self.predicted_sum += selection.predicted;

        let read = ReadRequest {
            id,
            op,
            staleness_threshold: qos.staleness_threshold,
            deadline_us: qos.deadline.as_micros(),
            attempt: 1,
        };
        let read_payload = if self.config.ordering == OrderingGuarantee::Causal {
            Payload::CausalRead {
                read,
                deps: self.observed_snapshot(),
            }
        } else {
            Payload::Read(read)
        };
        let prepared: Vec<(ActorId, Payload)> = selection
            .replicas
            .iter()
            .map(|&r| (r, read_payload.clone()))
            .collect();
        let selected = selection.replicas.len();
        let targets: Vec<ActorId> = selection.replicas.clone();
        self.obs.emit(now, self.me, || ObsEvent::ReplicasSelected {
            req: req_ref(id),
            attempt: 1,
            targets: targets.clone(),
        });
        self.last_selection = Some(selection);

        let recovery = self.config.recovery;
        self.pending.insert(
            id,
            Pending {
                kind: OperationKind::ReadOnly,
                qos: Some(qos),
                t0: now,
                tm: None,
                prepared,
                replied: false,
                outcome_recorded: false,
                selected,
                attempt: 1,
                tried: targets.clone(),
                unacked: targets,
                template: recovery.enabled.then(|| read_payload.clone()),
                retry_pending: false,
                hedged: false,
                degraded,
            },
        );
        (
            id,
            vec![ClientAction::ArmTimer {
                req: id,
                purpose: TimerPurpose::Transmit,
                after: self.config.selection_overhead,
            }],
        )
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
        let excluded = match self.config.ordering {
            OrderingGuarantee::Sequential => Some(self.sequencer()),
            _ => None,
        };
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
        if !self.config.recovery.enabled && !self.config.overload.enabled {
            return all;
        }
        // Open circuit breakers exclude a replica the same way quarantine
        // does (and with the same last-resort relaxation below). The check
        // also advances open breakers to half-open and stamps probe times,
        // hence the pre-pass over the built list.
        let mut broken: Vec<ActorId> = Vec::new();
        if self.config.overload.enabled {
            for c in &all {
                if !self.breaker_allows(c.id, now) {
                    broken.push(c.id);
                }
            }
        }
        let healthy_untried: Vec<CandidateKey> = all
            .iter()
            .filter(|c| {
                !exclude.contains(&c.id)
                    && !self.repo.is_quarantined(c.id, now)
                    && !broken.contains(&c.id)
            })
            .cloned()
            .collect();
        if !healthy_untried.is_empty() {
            return healthy_untried;
        }
        let untried: Vec<CandidateKey> = all
            .iter()
            .filter(|c| !exclude.contains(&c.id))
            .cloned()
            .collect();
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
    ) -> Vec<ClientAction> {
        match purpose {
            TimerPurpose::Transmit => self.on_transmit(req, now),
            TimerPurpose::Deadline => self.on_deadline(req, now),
            TimerPurpose::GiveUp => self.on_give_up(req, now),
            TimerPurpose::Retry => self.on_retry(req, now),
            TimerPurpose::Hedge => self.on_hedge(req, now),
        }
    }

    fn on_transmit(&mut self, req: RequestId, now: SimTime) -> Vec<ClientAction> {
        let Some(p) = self.pending.get_mut(&req) else {
            return Vec::new();
        };
        p.tm = Some(now);
        let mut actions: Vec<ClientAction> = std::mem::take(&mut p.prepared)
            .into_iter()
            .map(|(to, payload)| ClientAction::SendDirect { to, payload })
            .collect();
        if let Some(qos) = p.qos {
            actions.push(ClientAction::ArmTimer {
                req,
                purpose: TimerPurpose::Deadline,
                after: qos.deadline,
            });
            let recovery = self.config.recovery;
            if recovery.enabled {
                if let Some(h) = recovery.hedge_fraction {
                    actions.push(ClientAction::ArmTimer {
                        req,
                        purpose: TimerPurpose::Hedge,
                        after: SimDuration::from_secs_f64(
                            qos.deadline.as_secs_f64() * h.clamp(0.0, 1.0),
                        ),
                    });
                }
            }
        }
        actions.push(ClientAction::ArmTimer {
            req,
            purpose: TimerPurpose::GiveUp,
            after: self.config.give_up,
        });
        actions
    }

    fn on_deadline(&mut self, req: RequestId, now: SimTime) -> Vec<ClientAction> {
        let Some(p) = self.pending.get_mut(&req) else {
            return Vec::new();
        };
        if p.replied || p.outcome_recorded {
            return Vec::new();
        }
        // No reply within d: a timing failure (§5.4).
        p.outcome_recorded = true;
        let min_probability = p.qos.map(|q| q.min_probability);
        self.detector.record_failure();
        self.stats.timing_failures += 1;
        let mut actions = self.maybe_alert(min_probability, now);
        actions.extend(self.update_degradation(now));
        // The deadline doubles as attempt 1's expiry: charge the silent
        // replicas and schedule a retransmission if budget remains.
        actions.extend(self.schedule_retry(req, now));
        actions
    }

    /// The current attempt failed (deadline or expiry-check fire with no
    /// reply): charge quarantine strikes against the replicas that stayed
    /// silent, then arm the backoff timer for the next attempt if the
    /// attempt budget and the give-up horizon allow one.
    fn schedule_retry(&mut self, req: RequestId, now: SimTime) -> Vec<ClientAction> {
        let recovery = self.config.recovery;
        if !recovery.enabled {
            return Vec::new();
        }
        let Some(p) = self.pending.get_mut(&req) else {
            return Vec::new();
        };
        if p.replied || p.retry_pending {
            return Vec::new();
        }
        let unacked = std::mem::take(&mut p.unacked);
        let attempt = p.attempt;
        let horizon = p.tm.unwrap_or(p.t0) + self.config.give_up;
        let charge = p.kind == OperationKind::ReadOnly;
        let mut actions = Vec::new();
        if charge {
            actions.extend(self.charge_timeouts(&unacked, now));
        }
        if attempt >= recovery.max_attempts {
            return actions;
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
            return actions;
        }
        let p = self.pending.get_mut(&req).expect("checked above");
        p.retry_pending = true;
        self.obs.emit(now, self.me, || ObsEvent::RetryScheduled {
            req: req_ref(req),
            attempt: attempt as u64 + 1,
            delay_us: jittered.as_micros(),
        });
        actions.push(ClientAction::ArmTimer {
            req,
            purpose: TimerPurpose::Retry,
            after: jittered,
        });
        actions
    }

    /// Charges one timeout strike per silent replica, opening quarantine
    /// windows when a replica crosses the threshold. Silent replicas also
    /// take a circuit-breaker strike, and an opened quarantine triggers an
    /// admission re-evaluation (the capacity the client planned around is
    /// gone) — both only when overload protection is enabled.
    fn charge_timeouts(&mut self, silent: &[ActorId], now: SimTime) -> Vec<ClientAction> {
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
            self.record_breaker_strike(r, now);
        }
        if opened {
            self.reevaluate_admission(now)
        } else {
            Vec::new()
        }
    }

    fn on_retry(&mut self, req: RequestId, now: SimTime) -> Vec<ClientAction> {
        let recovery = self.config.recovery;
        if !recovery.enabled {
            return Vec::new();
        }
        let Some(p) = self.pending.get_mut(&req) else {
            return Vec::new();
        };
        if p.replied {
            return Vec::new();
        }
        if !p.retry_pending {
            // Expiry check for the current attempt: no reply yet, so fail
            // the attempt and (maybe) back off into the next one.
            return self.schedule_retry(req, now);
        }
        // Backoff elapsed: retransmit.
        p.retry_pending = false;
        p.attempt += 1;
        let attempt = p.attempt;
        let kind = p.kind;
        let Some(template) = p.template.clone() else {
            return Vec::new();
        };
        self.stats.retries += 1;
        let payload = template.with_attempt(attempt);
        let mut actions = Vec::new();
        match kind {
            OperationKind::Update => {
                // Updates re-multicast the original payload (same id and,
                // in causal mode, the same update_seq/deps — the server
                // reply caches make this idempotent).
                actions.push(ClientAction::MulticastPrimary(payload));
                actions.push(ClientAction::ArmTimer {
                    req,
                    purpose: TimerPurpose::Retry,
                    after: recovery.update_retry_after,
                });
            }
            OperationKind::ReadOnly => {
                let (qos, tried) = {
                    let p = self.pending.get(&req).expect("checked above");
                    (p.qos.expect("reads carry qos"), p.tried.clone())
                };
                // Re-run selection over the replicas not yet tried (and
                // not quarantined); the sequencer is re-included by the
                // selector when the service has one.
                let candidates = self.candidate_keys(now, &tried);
                let stale_factor = self.last_stale_factor;
                let sequencer = match self.config.ordering {
                    OrderingGuarantee::Sequential => Some(self.sequencer()),
                    _ => None,
                };
                let selection = self.selector.select_on_demand(
                    &mut self.repo.on_demand(&candidates, qos.deadline),
                    stale_factor,
                    qos.min_probability,
                    sequencer,
                    &mut self.rng,
                );
                let targets = selection.replicas;
                self.obs.emit(now, self.me, || ObsEvent::ReplicasSelected {
                    req: req_ref(req),
                    attempt: attempt as u64,
                    targets: targets.clone(),
                });
                let p = self.pending.get_mut(&req).expect("checked above");
                for &t in &targets {
                    if !p.tried.contains(&t) {
                        p.tried.push(t);
                    }
                    if !p.unacked.contains(&t) {
                        p.unacked.push(t);
                    }
                    actions.push(ClientAction::SendDirect {
                        to: t,
                        payload: payload.clone(),
                    });
                }
                // This attempt gets a fresh response window, clipped to
                // the give-up horizon.
                let horizon = p.tm.unwrap_or(p.t0) + self.config.give_up;
                let window = qos.deadline.min(horizon.saturating_since(now));
                if window > SimDuration::ZERO {
                    actions.push(ClientAction::ArmTimer {
                        req,
                        purpose: TimerPurpose::Retry,
                        after: window,
                    });
                }
            }
        }
        actions
    }

    /// `hedge_fraction` of the deadline elapsed with no reply: fire one
    /// extra copy of the read at the best replica not yet tried.
    fn on_hedge(&mut self, req: RequestId, now: SimTime) -> Vec<ClientAction> {
        if !self.config.recovery.enabled {
            return Vec::new();
        }
        let Some(p) = self.pending.get(&req) else {
            return Vec::new();
        };
        if p.replied || p.hedged || p.kind != OperationKind::ReadOnly {
            return Vec::new();
        }
        let Some(template) = p.template.clone() else {
            return Vec::new();
        };
        let (qos, tried, attempt) = (p.qos.expect("reads carry qos"), p.tried.clone(), p.attempt);
        // Best untried replica by immediate-response probability, ties
        // broken toward the least-recently-heard (freshest probe value).
        // Only `F^I` is read, so no deferred path is evaluated.
        let target = self
            .candidate_keys(now, &tried)
            .into_iter()
            .filter(|c| !tried.contains(&c.id))
            .map(|c| (self.repo.immediate_cdf(c.id, qos.deadline), c))
            .max_by(|(fa, a), (fb, b)| fa.total_cmp(fb).then(b.ert_us.cmp(&a.ert_us)))
            .map(|(_, c)| c);
        let Some(target) = target else {
            return Vec::new();
        };
        let p = self.pending.get_mut(&req).expect("checked above");
        p.hedged = true;
        p.tried.push(target.id);
        p.unacked.push(target.id);
        self.stats.hedges += 1;
        self.obs.emit(now, self.me, || ObsEvent::HedgeSent {
            req: req_ref(req),
            target: target.id,
        });
        vec![ClientAction::SendDirect {
            to: target.id,
            payload: template.with_attempt(attempt),
        }]
    }

    fn on_give_up(&mut self, req: RequestId, now: SimTime) -> Vec<ClientAction> {
        let Some(p) = self.pending.get(&req) else {
            return Vec::new();
        };
        if p.replied {
            // Completed long ago; this timer only garbage-collects.
            self.pending.remove(&req);
            return Vec::new();
        }
        let p = self.pending.remove(&req).expect("checked above");
        self.stats.give_ups += 1;
        self.obs.emit(now, self.me, || ObsEvent::GaveUp {
            req: req_ref(req),
            response_us: now.saturating_since(p.t0).as_micros(),
        });
        let mut actions = Vec::new();
        if p.kind == OperationKind::ReadOnly && self.config.recovery.enabled {
            // The replicas still silent at give-up never answered any
            // attempt; charge them before forgetting the request.
            actions.extend(self.charge_timeouts(&p.unacked, now));
        }
        if !p.outcome_recorded && p.kind == OperationKind::ReadOnly {
            self.detector.record_failure();
            self.stats.timing_failures += 1;
            actions.extend(self.maybe_alert(p.qos.map(|q| q.min_probability), now));
            actions.extend(self.update_degradation(now));
        }
        actions.push(ClientAction::Completed(ResponseInfo {
            req,
            kind: p.kind,
            result: Bytes::new(),
            response_time: now.saturating_since(p.t0),
            timely: false,
            deferred: false,
            staleness: 0,
            timed_out: true,
            shed: false,
            degraded: p.degraded,
            replicas_selected: p.selected,
            csn: 0,
            vector: Vec::new(),
        }));
        actions
    }

    fn maybe_alert(&mut self, min_probability: Option<f64>, now: SimTime) -> Vec<ClientAction> {
        let Some(requested) = min_probability else {
            return Vec::new();
        };
        if self.detector.should_alert(requested) {
            if !self.alerted {
                self.alerted = true;
                let observed_timely = self.detector.timely_frequency().unwrap_or(0.0);
                self.obs.emit(now, self.me, || ObsEvent::QosAlert {
                    observed_ppm: TimingFailureDetector::to_ppm(observed_timely),
                    threshold_ppm: TimingFailureDetector::to_ppm(requested),
                });
                return vec![ClientAction::QosAlert {
                    observed_timely,
                    requested,
                }];
            }
        } else {
            self.alerted = false;
        }
        Vec::new()
    }

    /// Handles a payload addressed to this client (replies and performance
    /// broadcasts).
    pub fn on_payload(
        &mut self,
        from: ActorId,
        payload: Payload,
        now: SimTime,
    ) -> Vec<ClientAction> {
        match payload {
            Payload::Reply(r) => self.on_reply(from, r, now),
            Payload::Busy { req } => self.on_busy(from, req, now),
            Payload::Perf(p) => {
                self.repo.record_perf(from, &p, now);
                Vec::new()
            }
            _ => Vec::new(),
        }
    }

    /// An overloaded replica explicitly refused the request. A `Busy` is a
    /// healthy "no": the sender is removed from the attempt's unacked set
    /// so it is never charged a quarantine strike, it takes a
    /// circuit-breaker strike instead, and — once every target of the
    /// attempt has refused — the retry machinery fires early rather than
    /// waiting for the deadline (re-selection excludes the shedders, which
    /// stay in `tried`).
    fn on_busy(&mut self, from: ActorId, req: RequestId, now: SimTime) -> Vec<ClientAction> {
        if !self.config.overload.enabled {
            return Vec::new();
        }
        self.stats.busy_rejections += 1;
        self.obs.emit(now, self.me, || ObsEvent::BusyReceived {
            req: req_ref(req),
            from,
        });
        self.record_breaker_strike(from, now);
        let Some(p) = self.pending.get_mut(&req) else {
            return Vec::new();
        };
        p.unacked.retain(|&a| a != from);
        if p.replied || !p.unacked.is_empty() {
            return Vec::new();
        }
        // `unacked` is empty, so schedule_retry charges no timeouts.
        self.schedule_retry(req, now)
    }

    fn on_reply(
        &mut self,
        from: ActorId,
        r: crate::wire::Reply,
        now: SimTime,
    ) -> Vec<ClientAction> {
        let Some(p) = self.pending.get_mut(&r.id) else {
            self.stats.late_replies += 1;
            return Vec::new();
        };
        // Every reply refreshes the repository (ert and gateway delay),
        // not just the first one delivered — and clears any quarantine
        // suspicion against the sender.
        let tm = p.tm.unwrap_or(p.t0);
        p.unacked.retain(|&a| a != from);
        self.repo.record_reply(from, r.t1_us, tm, now);
        // A reply within the request's deadline is a probe success and
        // clears quarantine suspicion. A late reply is not: it proves the
        // replica alive, but a gray-degraded replica answers late forever
        // and must stay suspect.
        let probe_ok = match p.qos {
            Some(qos) => now.saturating_since(tm) <= qos.deadline,
            None => true,
        };
        self.obs.emit(now, self.me, || ObsEvent::ReplyReceived {
            req: req_ref(r.id),
            from,
            timely: probe_ok,
            deferred: r.deferred,
            staleness_us: r.staleness,
        });
        if probe_ok {
            self.repo.record_probe_success(from, now);
            // A timely reply recloses the sender's circuit breaker (the
            // half-open → closed transition; also clears pending strikes).
            if self.config.overload.enabled {
                if let Some(b) = self.breakers.remove(&from) {
                    let from_state = b.state.obs_name();
                    if from_state != "closed" {
                        self.obs.emit(now, self.me, || ObsEvent::Breaker {
                            replica: from,
                            from_state,
                            to_state: "closed",
                        });
                    }
                }
            }
        }
        // Causal mode: merge the replica's vector into the session state so
        // subsequent operations carry the right dependencies.
        if !r.vector.is_empty() {
            let before: u64 = self.observed.values().sum();
            crate::causal::merge_into(&mut self.observed, &r.vector);
            if self.observed.values().sum::<u64>() > before {
                self.observed_advanced_at = Some(now);
            }
        }
        if p.replied {
            return Vec::new();
        }
        p.replied = true;
        let tr = now.saturating_since(p.t0);
        let mut actions = Vec::new();
        let timely = match p.qos {
            Some(qos) => tr <= qos.deadline,
            None => true,
        };
        let min_probability = p.qos.map(|q| q.min_probability);
        let record_outcome = p.kind == OperationKind::ReadOnly && !p.outcome_recorded;
        if record_outcome {
            p.outcome_recorded = true;
        }
        if record_outcome {
            if timely {
                self.detector.record_timely();
            } else {
                self.detector.record_failure();
                self.stats.timing_failures += 1;
            }
            actions.extend(self.maybe_alert(min_probability, now));
            actions.extend(self.update_degradation(now));
        }
        if r.deferred {
            self.stats.deferred_replies += 1;
        }
        let p = self.pending.get(&r.id).expect("still pending");
        self.obs.emit(now, self.me, || ObsEvent::Delivered {
            req: req_ref(r.id),
            response_us: tr.as_micros(),
            timely,
        });
        if self.obs.is_enabled() {
            let name = match p.kind {
                OperationKind::ReadOnly => "client.read_response_us",
                OperationKind::Update => "client.update_response_us",
            };
            self.obs
                .observe(name, aqf_obs::LATENCY_BOUNDS_US, tr.as_micros());
            if p.kind == OperationKind::ReadOnly {
                self.obs.observe(
                    "client.staleness_us",
                    aqf_obs::LATENCY_BOUNDS_US,
                    r.staleness,
                );
            }
        }
        actions.push(ClientAction::Completed(ResponseInfo {
            req: r.id,
            kind: p.kind,
            result: r.result,
            response_time: tr,
            timely,
            deferred: r.deferred,
            staleness: r.staleness,
            timed_out: false,
            shed: false,
            degraded: p.degraded,
            replicas_selected: p.selected,
            csn: r.csn,
            vector: r.vector,
        }));
        actions
    }

    /// Tracks replication-group views announced to this client (as an
    /// observer of both groups). When the membership actually changes —
    /// a replica crashed out or rejoined — the admission decision is
    /// re-evaluated against the new capacity (returned actions surface a
    /// degradation step when the requested QoS is no longer attainable).
    pub fn on_view(&mut self, view: Arc<View>, now: SimTime) -> Vec<ClientAction> {
        let (view_id, members) = (view.id.0, view.members().len() as u64);
        let mut changed = false;
        if view.group == PRIMARY_GROUP {
            if view.id >= self.primary_view.id {
                changed = view.id > self.primary_view.id;
                self.primary_view = view;
            }
        } else if view.group == SECONDARY_GROUP && view.id >= self.secondary_view.id {
            changed = view.id > self.secondary_view.id;
            self.secondary_view = view;
        }
        if changed {
            self.obs
                .emit(now, self.me, || ObsEvent::ViewChange { view_id, members });
            self.reevaluate_admission(now)
        } else {
            Vec::new()
        }
    }

    /// True when the degradation controller is past the last rung of the
    /// ladder (local-rejection mode).
    fn rejecting(&self) -> bool {
        self.config.overload.enabled
            && (self.degrade_level as usize) > self.config.overload.ladder.len()
    }

    /// The QoS specification in force at the current degradation level:
    /// rung `L` of the ladder widens the staleness threshold and relaxes
    /// `Pc(d)`; level 0 returns the requested spec unchanged. Past the
    /// ladder (rejection mode) the last rung's spec applies to the probe
    /// reads that are still admitted.
    fn effective_spec(&self, requested: QosSpec) -> QosSpec {
        let ladder = &self.config.overload.ladder;
        if !self.config.overload.enabled || self.degrade_level == 0 || ladder.is_empty() {
            return requested;
        }
        let step = ladder[(self.degrade_level as usize).min(ladder.len()) - 1];
        QosSpec {
            staleness_threshold: requested
                .staleness_threshold
                .saturating_add(step.widen_staleness),
            deadline: requested.deadline,
            min_probability: (requested.min_probability - step.relax_probability).max(0.0),
        }
    }

    /// Re-assesses the degradation level after a recorded read outcome:
    /// steps *down* the ladder when the windowed timely frequency falls
    /// below the currently effective `Pc(d)`, and back *up* once the
    /// window clears the client's original requirement. Transitions are
    /// separated by at least `recover_window` outcomes (and the window
    /// must be full), so one bad burst cannot walk the whole ladder.
    fn update_degradation(&mut self, now: SimTime) -> Vec<ClientAction> {
        if !self.config.overload.enabled {
            return Vec::new();
        }
        let Some(requested) = self.last_requested else {
            return Vec::new();
        };
        self.outcomes_since_transition = self.outcomes_since_transition.saturating_add(1);
        let recover_window = self.config.overload.recover_window;
        if !self.detector.window_full() || self.outcomes_since_transition < recover_window {
            return Vec::new();
        }
        let Some(freq) = self.detector.window_frequency() else {
            return Vec::new();
        };
        let max_level = self.config.overload.ladder.len() as u32 + 1;
        let effective_pc = self.effective_spec(requested).min_probability;
        let to = if freq < effective_pc && self.degrade_level < max_level {
            self.degrade_level + 1
        } else if freq >= requested.min_probability && self.degrade_level > 0 {
            self.degrade_level - 1
        } else {
            return Vec::new();
        };
        self.transition_to(to, now)
    }

    /// Moves the degradation controller to `to`, recording the transition
    /// and emitting the metrics event.
    fn transition_to(&mut self, to: u32, now: SimTime) -> Vec<ClientAction> {
        let from = self.degrade_level;
        self.degrade_level = to;
        self.outcomes_since_transition = 0;
        self.stats.degrade_transitions += 1;
        self.transitions.push(DegradeTransition {
            at_us: now.as_micros(),
            from_level: from,
            to_level: to,
        });
        self.obs.emit(now, self.me, || ObsEvent::Ladder {
            from_level: from as u64,
            to_level: to as u64,
        });
        vec![ClientAction::Degrade {
            from_level: from,
            to_level: to,
        }]
    }

    /// Re-runs the §7 admission check against the current candidate set
    /// (after a view change or a quarantine opening). When the requested
    /// specification is no longer attainable, the degradation ladder steps
    /// down proactively instead of waiting for the windowed frequency to
    /// confirm the capacity loss request by request.
    fn reevaluate_admission(&mut self, now: SimTime) -> Vec<ClientAction> {
        if !self.config.overload.enabled {
            return Vec::new();
        }
        let Some(requested) = self.last_requested else {
            return Vec::new();
        };
        let headroom = self.config.overload.admission_headroom;
        let max_level = self.config.overload.ladder.len() as u32 + 1;
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
            return Vec::new();
        }
        self.stats.admission_rejects += 1;
        if self.degrade_level < max_level {
            self.transition_to(self.degrade_level + 1, now)
        } else {
            Vec::new()
        }
    }

    /// Registers a busy/timeout strike against `replica`'s breaker:
    /// `breaker_threshold` consecutive strikes trip it open, and a strike
    /// against a half-open breaker (a failed probe) re-opens it.
    fn record_breaker_strike(&mut self, replica: ActorId, now: SimTime) {
        if !self.config.overload.enabled {
            return;
        }
        let threshold = self.config.overload.breaker_threshold;
        let b = self.breakers.entry(replica).or_insert(Breaker {
            strikes: 0,
            state: BreakerState::Closed,
        });
        b.strikes = b.strikes.saturating_add(1);
        let tripped_from = match b.state {
            BreakerState::Closed if b.strikes >= threshold => Some("closed"),
            BreakerState::HalfOpen { .. } => Some("half_open"),
            _ => None,
        };
        if let Some(from_state) = tripped_from {
            b.state = BreakerState::Open { since: now };
            self.stats.breaker_opens += 1;
            self.obs.emit(now, self.me, || ObsEvent::Breaker {
                replica,
                from_state,
                to_state: "open",
            });
        }
    }

    /// Whether `replica`'s breaker admits a request right now, advancing
    /// open breakers to half-open once `breaker_open` has elapsed and
    /// spacing half-open probes by `probe_interval`.
    fn breaker_allows(&mut self, replica: ActorId, now: SimTime) -> bool {
        let open_for = self.config.overload.breaker_open;
        let probe_every = self.config.overload.probe_interval;
        let Some(b) = self.breakers.get_mut(&replica) else {
            return true;
        };
        match b.state {
            BreakerState::Closed => true,
            BreakerState::Open { since } => {
                if now.saturating_since(since) >= open_for {
                    // Open window over: this request is the probe.
                    b.state = BreakerState::HalfOpen {
                        last_probe: Some(now),
                    };
                    self.obs.emit(now, self.me, || ObsEvent::Breaker {
                        replica,
                        from_state: "open",
                        to_state: "half_open",
                    });
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen { last_probe } => {
                let due = last_probe.is_none_or(|at| now.saturating_since(at) >= probe_every);
                if due {
                    b.state = BreakerState::HalfOpen {
                        last_probe: Some(now),
                    };
                }
                due
            }
        }
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

    fn feed_perf(c: &mut ClientGateway, replica: ActorId, ts_ms: u64, n: usize) {
        for _ in 0..n {
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
            );
        }
    }

    #[test]
    fn update_multicasts_immediately() {
        let mut c = client();
        let (id, actions) = c.submit_update(Operation::new("set", vec![1]), t(0));
        assert!(matches!(
            &actions[0],
            ClientAction::MulticastPrimary(Payload::Update(u)) if u.id == id
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
        let (id, actions) = c.submit_read(Operation::new("get", vec![]), qos(200, 0.5), t(0));
        // Only the transmit timer is armed at submit time.
        assert_eq!(actions.len(), 1);
        assert!(matches!(
            &actions[0],
            ClientAction::ArmTimer {
                purpose: TimerPurpose::Transmit,
                ..
            }
        ));
        let actions = c.on_timer(id, TimerPurpose::Transmit, t(1));
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
        let (_, _) = c.submit_read(Operation::new("get", vec![]), qos(200, 0.5), t(0));
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
        let (id, _) = c.submit_read(Operation::new("get", vec![]), qos(200, 0.9), t(0));
        let _ = c.on_timer(id, TimerPurpose::Transmit, t(1));
        let actions = c.on_payload(
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
        );
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
        let (id, _) = c.submit_read(Operation::new("get", vec![]), qos(100, 0.9), t(0));
        let _ = c.on_timer(id, TimerPurpose::Transmit, t(1));
        let _ = c.on_timer(id, TimerPurpose::Deadline, t(101));
        assert_eq!(c.detector().failures(), 1);
        // A late reply still completes the request but does not double
        // count.
        let actions = c.on_payload(
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
        );
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
            let (id, _) = c.submit_read(Operation::new("get", vec![]), qos(100, 0.9), t(i * 1000));
            let _ = c.on_timer(id, TimerPurpose::Transmit, t(i * 1000 + 1));
            let actions = c.on_timer(id, TimerPurpose::Deadline, t(i * 1000 + 101));
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
        let (id, _) = c.submit_read(Operation::new("get", vec![]), qos(100, 0.5), t(0));
        let _ = c.on_timer(id, TimerPurpose::Transmit, t(1));
        let _ = c.on_timer(id, TimerPurpose::Deadline, t(101));
        let actions = c.on_timer(id, TimerPurpose::GiveUp, t(10_001));
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
        let _ = c.on_payload(
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
        );
        assert_eq!(c.stats().late_replies, 1);
    }

    #[test]
    fn later_replies_update_repository_silently() {
        let mut c = client();
        let (id, _) = c.submit_read(Operation::new("get", vec![]), qos(200, 0.5), t(0));
        let _ = c.on_timer(id, TimerPurpose::Transmit, t(1));
        let reply = |_from: ActorId| Reply {
            id,
            result: Bytes::new(),
            t1_us: 10_000,
            staleness: 0,
            deferred: false,
            csn: 0,
            vector: Vec::new(),
        };
        let first = c.on_payload(a(1), Payload::Reply(reply(a(1))), t(50));
        assert_eq!(
            first
                .iter()
                .filter(|x| matches!(x, ClientAction::Completed(_)))
                .count(),
            1
        );
        let second = c.on_payload(a(2), Payload::Reply(reply(a(2))), t(60));
        assert!(second.is_empty(), "only first reply delivered");
        // Both replicas' ert were refreshed.
        assert!(c.repository().ert_us(a(1), t(100)) < u64::MAX);
        assert!(c.repository().ert_us(a(2), t(100)) < u64::MAX);
    }

    #[test]
    fn deferred_reply_counted() {
        let mut c = client();
        let (id, _) = c.submit_read(Operation::new("get", vec![]), qos(500, 0.5), t(0));
        let _ = c.on_timer(id, TimerPurpose::Transmit, t(1));
        let _ = c.on_payload(
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
        );
        assert_eq!(c.stats().deferred_replies, 1);
    }

    #[test]
    fn view_changes_update_candidates() {
        let mut c = client();
        // Sequencer a(0) fails; a(1) leads. Candidates: a(2) + secondaries.
        let (p, _) = views();
        let newer = p.successor(&[a(0)], &[]).unwrap();
        let _ = c.on_view(Arc::new(newer), t(0));
        assert_eq!(c.sequencer(), a(1));
        let (_, _) = c.submit_read(Operation::new("get", vec![]), qos(200, 0.99), t(0));
        let sel = c.last_selection().unwrap().clone();
        assert!(!sel.replicas.contains(&a(0)));
        assert!(sel.replicas.contains(&a(1)), "new sequencer appended");
        // Stale view replay is ignored.
        let (old_p, _) = views();
        let _ = c.on_view(Arc::new(old_p), t(0));
        assert_eq!(c.sequencer(), a(1));
    }

    #[test]
    fn mean_predicted_tracks_selections() {
        let mut c = client();
        assert_eq!(c.mean_predicted(), None);
        for r in [a(1), a(2), a(10), a(11)] {
            feed_perf(&mut c, r, 10, 10);
        }
        let (_, _) = c.submit_read(Operation::new("get", vec![]), qos(200, 0.5), t(0));
        let predicted = c.last_selection().unwrap().predicted;
        assert_eq!(c.mean_predicted(), Some(predicted));
        let (_, _) = c.submit_read(Operation::new("get", vec![]), qos(200, 0.5), t(1000));
        let mean = c.mean_predicted().unwrap();
        assert!(mean > 0.0 && mean <= 1.0);
    }

    #[test]
    fn request_ids_are_unique_and_ordered() {
        let mut c = client();
        let (id1, _) = c.submit_update(Operation::new("set", vec![]), t(0));
        let (id2, _) = c.submit_update(Operation::new("set", vec![]), t(1));
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
        let (id, _) = c.submit_read(Operation::new("get", vec![]), qos(100, 0.9), t(0));
        let first = c.on_timer(id, TimerPurpose::Transmit, t(1));
        let tried_first: Vec<ActorId> = sends_of(&first).iter().map(|&(to, _)| to).collect();
        let actions = c.on_timer(id, TimerPurpose::Deadline, t(101));
        let backoff = retry_timer(&actions).expect("backoff armed after deadline");
        assert!(backoff > SimDuration::ZERO);
        assert_eq!(c.stats().retries, 0, "backoff alone is not yet a retry");
        // Backoff elapsed: attempt 2 goes out.
        let actions = c.on_timer(id, TimerPurpose::Retry, t(130));
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
        let (id, _) = c.submit_read(Operation::new("get", vec![]), qos(100, 0.9), t(0));
        let _ = c.on_timer(id, TimerPurpose::Transmit, t(1));
        let _ = c.on_timer(id, TimerPurpose::Deadline, t(101));
        let _ = c.on_timer(id, TimerPurpose::Retry, t(130));
        // The retried attempt is answered late but before give-up.
        let actions = c.on_payload(
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
        );
        let done = actions
            .iter()
            .find_map(|x| match x {
                ClientAction::Completed(i) => Some(i.clone()),
                _ => None,
            })
            .expect("retried read completes");
        assert!(!done.timely, "completed after the deadline");
        assert!(!done.timed_out);
        let gc = c.on_timer(id, TimerPurpose::GiveUp, t(10_001));
        assert!(gc.is_empty());
        assert_eq!(c.stats().give_ups, 0, "recovered before give-up");
    }

    #[test]
    fn attempt_budget_is_respected() {
        let (p, s) = views();
        let mut config = ClientConfig::default();
        config.recovery.max_attempts = 2;
        let mut c = ClientGateway::new(a(20), p, s, config);
        let (id, _) = c.submit_read(Operation::new("get", vec![]), qos(100, 0.9), t(0));
        let _ = c.on_timer(id, TimerPurpose::Transmit, t(1));
        let actions = c.on_timer(id, TimerPurpose::Deadline, t(101));
        assert!(retry_timer(&actions).is_some());
        let actions = c.on_timer(id, TimerPurpose::Retry, t(130));
        assert_eq!(c.stats().retries, 1);
        let expiry = retry_timer(&actions).expect("attempt 2 expiry window");
        // Attempt 2 expires too: budget exhausted, no further retry.
        let actions = c.on_timer(id, TimerPurpose::Retry, t(130) + expiry);
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
        let (id, _) = c.submit_read(Operation::new("get", vec![]), qos(100, 0.9), t(0));
        let actions = c.on_timer(id, TimerPurpose::Transmit, t(1));
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
        let actions = c.on_timer(id, TimerPurpose::Deadline, t(101));
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
        let (id, _) = c.submit_read(Operation::new("get", vec![]), qos(200, 0.5), t(0));
        let transmit = c.on_timer(id, TimerPurpose::Transmit, t(1));
        let tried: Vec<ActorId> = sends_of(&transmit).iter().map(|&(to, _)| to).collect();
        assert!(tried.len() < 5, "warm selection leaves untried replicas");
        let actions = c.on_timer(id, TimerPurpose::Hedge, t(101));
        let hedges = sends_of(&actions);
        assert_eq!(hedges.len(), 1, "exactly one hedged copy");
        assert!(!tried.contains(&hedges[0].0), "hedge goes elsewhere");
        assert_eq!(hedges[0].1, 1, "hedge reuses the current attempt");
        assert_eq!(c.stats().hedges, 1);
        // A second hedge timer (or replay) does nothing.
        assert!(c.on_timer(id, TimerPurpose::Hedge, t(102)).is_empty());
        assert_eq!(c.stats().hedges, 1);
    }

    #[test]
    fn hedge_skipped_after_reply() {
        let mut c = client();
        let (id, _) = c.submit_read(Operation::new("get", vec![]), qos(200, 0.5), t(0));
        let _ = c.on_timer(id, TimerPurpose::Transmit, t(1));
        let _ = c.on_payload(
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
        );
        assert!(c.on_timer(id, TimerPurpose::Hedge, t(101)).is_empty());
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
            let (id, _) =
                c.submit_read(Operation::new("get", vec![]), qos(100, 0.9), t(i * 20_000));
            let _ = c.on_timer(id, TimerPurpose::Transmit, t(i * 20_000 + 1));
            let _ = c.on_timer(id, TimerPurpose::Deadline, t(i * 20_000 + 101));
            let _ = c.on_timer(id, TimerPurpose::GiveUp, t(i * 20_000 + 10_001));
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
        let (id, _) = c.submit_read(Operation::new("get", vec![]), qos(100, 0.9), t(21_000));
        let _ = c.on_timer(id, TimerPurpose::Transmit, t(21_001));
        let _ = c.on_payload(
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
        let (id, actions) = c.submit_update(Operation::new("set", vec![1]), t(0));
        let original = actions
            .iter()
            .find_map(|x| match x {
                ClientAction::MulticastPrimary(Payload::CausalUpdate {
                    update,
                    update_seq,
                    deps,
                }) => Some((update.clone(), *update_seq, deps.clone())),
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
        let actions = c.on_timer(id, TimerPurpose::Retry, t(1_000));
        let backoff = retry_timer(&actions).expect("update backoff armed");
        let actions = c.on_timer(id, TimerPurpose::Retry, t(1_000) + backoff);
        let resent = actions
            .iter()
            .find_map(|x| match x {
                ClientAction::MulticastPrimary(Payload::CausalUpdate {
                    update,
                    update_seq,
                    deps,
                }) => Some((update.clone(), *update_seq, deps.clone())),
                _ => None,
            })
            .expect("update retransmitted");
        assert_eq!(resent.0.id, original.0.id);
        assert_eq!(resent.1, original.1, "same update_seq on retry");
        assert_eq!(resent.2, original.2, "same deps on retry");
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
        let _ = c.on_payload(
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
        let (id, _) = c.submit_read(Operation::new("get", vec![]), qos(200, 0.5), t(0));
        let first = c.on_timer(id, TimerPurpose::Transmit, t(1));
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
            let actions = c.on_payload(s, Payload::Busy { req: id }, t(2));
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
        let actions = c.on_timer(id, TimerPurpose::Retry, t(2) + backoff);
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
            let (id, _) =
                c.submit_read(Operation::new("get", vec![]), qos(200, 0.5), t(round * 10));
            let _ = c.on_timer(id, TimerPurpose::Transmit, t(round * 10 + 1));
            let _ = c.on_payload(a(1), Payload::Busy { req: id }, t(round * 10 + 2));
        }
        assert_eq!(c.stats().breaker_opens, 1);
        // While open, a(1) is excluded from selection.
        let (_, _) = c.submit_read(Operation::new("get", vec![]), qos(200, 0.5), t(50));
        let sel = c.last_selection().unwrap().clone();
        assert!(
            !sel.replicas.contains(&a(1)),
            "open breaker excludes the replica"
        );
        // After the open window elapses, one half-open probe is admitted.
        let (id, _) = c.submit_read(Operation::new("get", vec![]), qos(200, 0.5), t(600));
        let sel = c.last_selection().unwrap().clone();
        assert!(
            sel.replicas.contains(&a(1)),
            "half-open breaker admits a probe"
        );
        let _ = c.on_timer(id, TimerPurpose::Transmit, t(601));
        // A timely reply from the probed replica recloses the breaker.
        timely_reply(&mut c, a(1), id, t(650));
        let (_, _) = c.submit_read(Operation::new("get", vec![]), qos(200, 0.5), t(660));
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
            let (id, _) = c.submit_read(Operation::new("get", vec![]), spec, t(at));
            let _ = c.on_timer(id, TimerPurpose::Transmit, t(at + 1));
            let actions = c.on_timer(id, TimerPurpose::Deadline, t(at + 201));
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
        let (id, _) = c.submit_read(Operation::new("get", vec![]), spec, t(5000));
        let actions = c.on_timer(id, TimerPurpose::Transmit, t(5001));
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
            let (id, _) = c.submit_read(Operation::new("get", vec![]), spec, t(at));
            let _ = c.on_timer(id, TimerPurpose::Transmit, t(at + 1));
            timely_reply(&mut c, a(1), id, t(at + 50));
        }
        assert_eq!(c.degrade_level(), 0, "recovered to the nominal level");
        assert_eq!(c.stats().degrade_transitions, 2);
        let (id, _) = c.submit_read(Operation::new("get", vec![]), spec, t(20_000));
        let actions = c.on_timer(id, TimerPurpose::Transmit, t(20_001));
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
            let (id, _) = c.submit_read(Operation::new("get", vec![]), spec, t(at));
            let _ = c.on_timer(id, TimerPurpose::Transmit, t(at + 1));
            let _ = c.on_timer(id, TimerPurpose::Deadline, t(at + 201));
        }
        assert_eq!(c.degrade_level(), 1, "empty ladder rejects immediately");
        let outcomes_before = c.detector().total();
        // First read in rejection mode is the probe: it goes out normally.
        let (_, actions) = c.submit_read(Operation::new("get", vec![]), spec, t(3000));
        assert!(matches!(
            actions[0],
            ClientAction::ArmTimer {
                purpose: TimerPurpose::Transmit,
                ..
            }
        ));
        // A second read inside the probe interval is shed locally.
        let (_, actions) = c.submit_read(Operation::new("get", vec![]), spec, t(3100));
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
        let (_, _) = c.submit_read(Operation::new("get", vec![]), qos(200, 0.9), t(0));
        let (p, _) = views();
        let newer = p.successor(&[a(2)], &[]).unwrap();
        let actions = c.on_view(Arc::new(newer), t(10));
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
