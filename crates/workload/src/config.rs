//! Scenario configuration: replica deployment, workload shapes, faults.

use aqf_core::{OrderingGuarantee, QosSpec, RecoveryPolicy, SelectionPolicy, StorageConfig};
use aqf_sim::{SimDuration, SimTime};

/// Which sample replicated object the scenario hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectKind {
    /// [`aqf_core::VersionedRegister`].
    Register,
    /// [`aqf_core::SharedDocument`].
    Document,
    /// [`aqf_core::TickerBoard`].
    Ticker,
    /// [`aqf_core::AccountBook`] (per-client accounts; the FIFO handler's
    /// banking workload).
    Bank,
}

/// The request mix a client issues.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OpPattern {
    /// Strictly alternating write, read, write, read, … (the paper's §6
    /// workload).
    AlternatingWriteRead,
    /// Read-only client.
    ReadOnly,
    /// Update-only client.
    WriteOnly,
    /// Each request is a read with this probability, else an update.
    ReadFraction(f64),
    /// Update-only client issuing bursts of `n` back-to-back writes
    /// separated by the configured request delay — a deliberately
    /// non-Poisson arrival process for the §5.1.3 staleness-model studies.
    WriteBurst(u32),
}

/// One client of the replicated service.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientSpec {
    /// The client's QoS specification for its reads.
    pub qos: QosSpec,
    /// "The duration that elapses before a client issues its next request
    /// after completion of its previous request" (§6).
    pub request_delay: SimDuration,
    /// Total number of requests to issue.
    pub total_requests: u64,
    /// The request mix.
    pub pattern: OpPattern,
    /// Replica selection policy (Algorithm 1 unless running an ablation).
    pub policy: SelectionPolicy,
    /// Delay before the first request, to de-synchronize clients.
    pub start_offset: SimDuration,
}

impl ClientSpec {
    /// The second client of the paper's §6 validation runs: staleness
    /// threshold 2, swept deadline, requested probability `pc`.
    pub fn paper_measured_client(deadline_ms: u64, pc: f64) -> Self {
        Self {
            qos: QosSpec::new(2, SimDuration::from_millis(deadline_ms), pc)
                .expect("valid paper qos"),
            request_delay: SimDuration::from_millis(1000),
            total_requests: 2000, // 1000 writes + 1000 reads, alternating
            pattern: OpPattern::AlternatingWriteRead,
            policy: SelectionPolicy::Probabilistic,
            start_offset: SimDuration::from_millis(500),
        }
    }

    /// The first client of the paper's §6 validation runs: staleness 4,
    /// deadline 200 ms, probability 0.1, fixed across all runs.
    pub fn paper_background_client() -> Self {
        Self {
            qos: QosSpec::new(4, SimDuration::from_millis(200), 0.1).expect("valid paper qos"),
            request_delay: SimDuration::from_millis(1000),
            total_requests: 2000,
            pattern: OpPattern::AlternatingWriteRead,
            policy: SelectionPolicy::Probabilistic,
            start_offset: SimDuration::ZERO,
        }
    }
}

/// A scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the fault strikes.
    pub at: SimTime,
    /// Which process it strikes.
    pub target: FaultTarget,
    /// What it does: a damaging kind, or the heal that ends one
    /// ([`FaultKind::heal`]).
    pub kind: FaultKind,
}

/// Which process a fault strikes (resolved to an actor when the world is
/// built).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultTarget {
    /// The initial sequencer (primary-group leader).
    Sequencer,
    /// The initial lazy publisher (highest-ranked primary).
    Publisher,
    /// The `i`-th serving primary replica (0-based, excluding sequencer).
    Primary(usize),
    /// The `i`-th secondary replica (0-based).
    Secondary(usize),
    /// Every primary-group member at once (sequencer included) — the
    /// correlated-failure scenarios of the durability studies. Expanded to
    /// one fault per member when the world is built.
    AllPrimaries,
    /// Every server process at once (whole-cluster crash or restart).
    AllServers,
}

/// Crash, recover, or degrade (gray failure).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Crash-stop the process.
    Crash,
    /// Restart it (rejoin with a fresh incarnation + state transfer).
    Restart,
    /// Partition the process away from every other process (it keeps
    /// running but no traffic flows).
    Isolate,
    /// Heal a previous isolation.
    Reconnect,
    /// Gray failure: the process stays up (heartbeats keep flowing) but
    /// every message to or from it takes `factor` times as long.
    Degrade {
        /// Latency multiplier (>= 1.0).
        factor: f64,
    },
    /// Gray failure: messages to or from the process are dropped with
    /// probability `p`, independently per message.
    Lossy {
        /// Per-message drop probability in `[0, 1]`.
        p: f64,
    },
    /// Heal a previous [`FaultKind::Degrade`] or [`FaultKind::Lossy`].
    RestoreGray,
    /// Pairwise partition: cut the single link between the fault's target
    /// and `peer` while both keep talking to everyone else — the
    /// split-brain-shaped topologies whole-node [`FaultKind::Isolate`]
    /// cannot express. Both endpoints must name a single process
    /// (correlated targets are rejected by validation).
    CutLink {
        /// The other endpoint of the severed link.
        peer: FaultTarget,
    },
    /// Heal a previous [`FaultKind::CutLink`] on the same pair.
    HealLink {
        /// The other endpoint of the healed link.
        peer: FaultTarget,
    },
}

impl FaultKind {
    /// The healing kind that ends the window this damaging kind opens, or
    /// `None` if this kind is itself a heal. This is the one statement of
    /// which heal repairs which damage: a crash ends at a restart, an
    /// isolation at a reconnect, either gray fault at a restore, and a cut
    /// link when the same link heals.
    pub fn heal(self) -> Option<FaultKind> {
        match self {
            FaultKind::Crash => Some(FaultKind::Restart),
            FaultKind::Isolate => Some(FaultKind::Reconnect),
            FaultKind::Degrade { .. } | FaultKind::Lossy { .. } => Some(FaultKind::RestoreGray),
            FaultKind::CutLink { peer } => Some(FaultKind::HealLink { peer }),
            FaultKind::Restart
            | FaultKind::Reconnect
            | FaultKind::RestoreGray
            | FaultKind::HealLink { .. } => None,
        }
    }
}

/// The window a fault opens or ends: the heal that ends it and the target
/// it names, a link named by its unordered pair of endpoints.
fn window_of(f: &FaultEvent) -> (FaultKind, FaultTarget) {
    match f.kind.heal().unwrap_or(f.kind) {
        FaultKind::HealLink { peer } => (
            FaultKind::HealLink {
                peer: peer.max(f.target),
            },
            peer.min(f.target),
        ),
        heal => (heal, f.target),
    }
}

/// Walks `faults` chronologically (config order breaking ties) and pairs
/// each healing fault with the damaging fault whose window it ends,
/// returned as `(damage, heal)` indices into `faults` in the order the
/// heals fire. A heal ends the earliest open window on the target it names
/// whose damage [`FaultKind::heal`]s to its kind. Targets are compared by
/// their configured identity: a role target ([`FaultTarget::Sequencer`])
/// and a static target that happen to resolve to the same process have
/// windows of their own, and the runner repairs whatever process the
/// damage actually struck.
///
/// # Errors
///
/// A damage that re-strikes its own open window (a crash while crashed, an
/// isolation while isolated, a cut of a cut link), or a heal with no window
/// to end. Gray faults layer instead — each [`FaultKind::RestoreGray`]
/// ends one layer — and a bare [`FaultKind::Restart`] is allowed: it is a
/// no-op on a running process, and scenarios schedule one to force a
/// re-incarnation.
pub fn damage_windows(faults: &[FaultEvent]) -> Result<Vec<(usize, usize)>, String> {
    let mut order: Vec<usize> = (0..faults.len()).collect();
    order.sort_by_key(|&i| faults[i].at); // stable: config order breaks ties
    let mut open: Vec<usize> = Vec::new();
    let mut pairs = Vec::new();
    for i in order {
        let f = &faults[i];
        let window = window_of(f);
        let same = open.iter().position(|&d| window_of(&faults[d]) == window);
        match (f.kind.heal(), same) {
            // A gray fault layers on an open one; anything else opens its
            // window only if that window is not open yet.
            (Some(FaultKind::RestoreGray), _) | (Some(_), None) => open.push(i),
            (None, Some(pos)) => pairs.push((open.remove(pos), i)),
            (None, None) if f.kind == FaultKind::Restart => {}
            (Some(_), Some(_)) | (None, None) => return Err(ordering_error(f)),
        }
    }
    Ok(pairs)
}

/// Why `f` breaks the chronology [`damage_windows`] checks.
fn ordering_error(f: &FaultEvent) -> String {
    let (t, secs) = (f.target, f.at.as_secs_f64());
    match f.kind {
        FaultKind::Crash => {
            format!("contradictory faults: {t:?} crashed at {secs:.1}s while already down")
        }
        FaultKind::Isolate => {
            format!("contradictory faults: {t:?} isolated at {secs:.1}s while already isolated")
        }
        FaultKind::CutLink { peer } => {
            format!("contradictory faults: link {t:?}-{peer:?} cut at {secs:.1}s while already cut")
        }
        FaultKind::Reconnect => {
            format!("Reconnect at {secs:.1}s without a matching prior Isolate on {t:?}")
        }
        FaultKind::RestoreGray => {
            format!("RestoreGray at {secs:.1}s without a matching prior Degrade/Lossy on {t:?}")
        }
        FaultKind::HealLink { peer } => {
            format!("HealLink at {secs:.1}s without a matching prior CutLink on {t:?}-{peer:?}")
        }
        FaultKind::Restart | FaultKind::Degrade { .. } | FaultKind::Lossy { .. } => {
            unreachable!("gray faults layer and a bare restart is allowed")
        }
    }
}

/// Full description of one simulated deployment and workload.
///
/// What the paper's §6 deployment fixes is the same in every scenario:
/// each replica's service time is [`SERVICE_DELAY`], every link is the
/// LAN of [`aqf_sim::NetworkModel::default`], and every client's
/// repository keeps the window `l` of [`aqf_core::monitor::WINDOW_SIZE`].
/// No field picks the staleness estimator either: each client uses Eq. 4
/// while the update counts it observes look Poisson and the §5.1.3 rate
/// mixture once they are overdispersed
/// ([`aqf_core::InfoRepository::staleness_factor`]).
///
/// [`SERVICE_DELAY`]: crate::actors::SERVICE_DELAY
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Master seed; every run with the same config is identical.
    pub seed: u64,
    /// Serving primary replicas (the sequencer is an additional process).
    pub num_primaries: usize,
    /// Secondary replicas.
    pub num_secondaries: usize,
    /// The lazy update interval `T_L`.
    pub lazy_interval: SimDuration,
    /// iid message loss probability.
    pub loss_probability: f64,
    /// Probability that a delivered message is delivered twice (the
    /// at-least-once network of the robustness studies).
    pub duplicate_probability: f64,
    /// Client-side recovery policy (retries, quarantine);
    /// [`RecoveryPolicy::disabled`] reproduces fire-and-forget clients.
    pub recovery: RecoveryPolicy,
    /// Overload protection (`aqf_core::overload`) on every server and
    /// client: server admission queues and shedding, `Busy` as a
    /// quarantine strike, and the graceful-degradation ladder; `false`
    /// replays the unprotected seed bit-identically.
    pub overload: bool,
    /// Group-layer maintenance tick.
    pub group_tick: SimDuration,
    /// Group-layer failure timeout.
    pub failure_timeout: SimDuration,
    /// If positive, the most senior secondary outside the primary view
    /// promotes itself whenever the primary view is shorter than this
    /// (0 disables replenishment; sequential ordering only).
    pub min_primary_size: usize,
    /// The hosted object.
    pub object: ObjectKind,
    /// Which timed-consistency handler the service runs (paper §4,
    /// Figure 2): sequential (total order via the sequencer), per-sender
    /// FIFO, or causal.
    pub ordering: OrderingGuarantee,
    /// Simulated stable storage on every server replica: WAL + snapshots
    /// with crash-fault injection.
    /// [`StorageConfig::disabled`] (the default) replays the diskless seed
    /// bit-identically; the runner reseeds it with the scenario's master
    /// seed and each replica mixes in its own identity.
    pub storage: StorageConfig,
    /// The clients.
    pub clients: Vec<ClientSpec>,
    /// Scheduled faults.
    pub faults: Vec<FaultEvent>,
    /// Hard stop for the run (safety net; generous).
    pub run_limit: SimDuration,
}

impl ScenarioConfig {
    /// The paper's §6 validation setup: "10 server replicas, in addition to
    /// the sequencer. 4 of the server replicas were in the primary group,
    /// and the remaining ones were in the secondary group", service delay
    /// normally distributed with mean 100 ms and spread 50 ms, two clients
    /// with 1000 ms request delay issuing alternating writes and reads.
    pub fn paper_validation(deadline_ms: u64, pc: f64, lazy_secs: u64, seed: u64) -> Self {
        Self {
            seed,
            num_primaries: 4,
            num_secondaries: 6,
            lazy_interval: SimDuration::from_secs(lazy_secs),
            loss_probability: 0.0,
            duplicate_probability: 0.0,
            recovery: RecoveryPolicy::disabled(),
            overload: false,
            group_tick: SimDuration::from_millis(1000),
            failure_timeout: SimDuration::from_millis(3500),
            min_primary_size: 0,
            object: ObjectKind::Register,
            ordering: OrderingGuarantee::Sequential,
            storage: StorageConfig::disabled(),
            clients: vec![
                ClientSpec::paper_background_client(),
                ClientSpec::paper_measured_client(deadline_ms, pc),
            ],
            faults: Vec::new(),
            run_limit: SimDuration::from_secs(3 * 3600),
        }
    }

    /// Total number of server processes (sequencer + primaries +
    /// secondaries).
    pub fn num_servers(&self) -> usize {
        1 + self.num_primaries + self.num_secondaries
    }

    /// Fast failure detection for the failure-injection studies: a 250 ms
    /// group tick with a 900 ms timeout, so crashes surface in about one
    /// second rather than the paper's leisurely 3.5 s default.
    #[must_use]
    pub fn with_fast_detection(mut self) -> Self {
        self.group_tick = SimDuration::from_millis(250);
        self.failure_timeout = SimDuration::from_millis(900);
        self
    }

    /// Durable storage for the crash-recovery studies: the
    /// [`StorageConfig::durable`] preset (sync-before-ack WAL, compaction
    /// every 64 commits) seeded from the scenario's master seed.
    #[must_use]
    pub fn with_durability(mut self) -> Self {
        self.storage = StorageConfig::durable();
        self.storage.seed = self.seed;
        self
    }

    /// Validates structural invariants.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_secondaries == 0 {
            return Err("need at least one secondary".into());
        }
        if self.lazy_interval.is_zero() {
            return Err("lazy interval must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.loss_probability) {
            return Err("loss probability must be in [0, 1]".into());
        }
        if !(0.0..=1.0).contains(&self.duplicate_probability) {
            return Err("duplicate probability must be in [0, 1]".into());
        }
        self.storage.validate()?;
        if self.group_tick.is_zero() {
            return Err("group tick must be positive".into());
        }
        if self.failure_timeout < self.group_tick * 2 {
            return Err("failure timeout must be at least two group ticks".into());
        }
        if self.min_primary_size > self.num_primaries + 1 {
            return Err(format!(
                "min primary size {} exceeds the {} initial primary-view members",
                self.min_primary_size,
                self.num_primaries + 1
            ));
        }
        if self.clients.is_empty() {
            return Err("need at least one client".into());
        }
        for (i, c) in self.clients.iter().enumerate() {
            if let OpPattern::ReadFraction(f) = c.pattern {
                if !(0.0..=1.0).contains(&f) {
                    return Err(format!("client {i}: read fraction must be in [0, 1]"));
                }
            }
            if let OpPattern::WriteBurst(n) = c.pattern {
                if n == 0 {
                    return Err(format!("client {i}: burst size must be positive"));
                }
            }
            if c.total_requests == 0 {
                return Err(format!("client {i}: total_requests must be positive"));
            }
            let q = c.qos;
            QosSpec::new(q.staleness_threshold, q.deadline, q.min_probability)
                .map_err(|e| format!("client {i}: qos {e}"))?;
        }
        let check_target = |t: FaultTarget| -> Result<(), String> {
            match t {
                FaultTarget::Primary(i) if i >= self.num_primaries => Err(format!(
                    "fault targets primary {i} of {}",
                    self.num_primaries
                )),
                FaultTarget::Secondary(i) if i >= self.num_secondaries => Err(format!(
                    "fault targets secondary {i} of {}",
                    self.num_secondaries
                )),
                _ => Ok(()),
            }
        };
        for f in &self.faults {
            check_target(f.target)?;
            if f.at.as_micros() > self.run_limit.as_micros() {
                return Err(format!(
                    "fault at {:.1}s is beyond the {:.1}s run horizon",
                    f.at.as_secs_f64(),
                    self.run_limit.as_secs_f64()
                ));
            }
            match f.kind {
                // NaN fails every comparison, and an infinite factor
                // saturates every delay to or from the target for ever.
                FaultKind::Degrade { factor } if !(factor.is_finite() && factor >= 1.0) => {
                    return Err("degrade factor must be finite and >= 1".into());
                }
                FaultKind::Lossy { p } if !(0.0..=1.0).contains(&p) => {
                    return Err("lossy probability must be in [0, 1]".into());
                }
                FaultKind::CutLink { peer } | FaultKind::HealLink { peer } => {
                    check_target(peer)?;
                    let correlated = |t: FaultTarget| {
                        matches!(t, FaultTarget::AllPrimaries | FaultTarget::AllServers)
                    };
                    if correlated(f.target) || correlated(peer) {
                        return Err(
                            "link faults need single-process endpoints, not correlated targets"
                                .into(),
                        );
                    }
                    if peer == f.target {
                        return Err(format!("link fault connects {:?} to itself", f.target));
                    }
                }
                _ => {}
            }
        }
        // Chronological consistency: every heal ends an open window, and
        // no damage re-strikes one.
        damage_windows(&self.faults).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_validation_matches_section6() {
        let c = ScenarioConfig::paper_validation(200, 0.9, 4, 1);
        assert_eq!(c.num_servers(), 11);
        assert_eq!(c.num_primaries, 4);
        assert_eq!(c.num_secondaries, 6);
        assert_eq!(c.lazy_interval, SimDuration::from_secs(4));
        assert_eq!(c.clients.len(), 2);
        assert_eq!(c.clients[0].qos.staleness_threshold, 4);
        assert_eq!(c.clients[1].qos.staleness_threshold, 2);
        assert_eq!(c.clients[1].qos.deadline, SimDuration::from_millis(200));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_errors() {
        let mut c = ScenarioConfig::paper_validation(200, 0.9, 4, 1);
        c.loss_probability = 2.0;
        assert!(c.validate().is_err());

        let mut c = ScenarioConfig::paper_validation(200, 0.9, 4, 1);
        c.clients.clear();
        assert!(c.validate().is_err());

        let mut c = ScenarioConfig::paper_validation(200, 0.9, 4, 1);
        c.clients[0].pattern = OpPattern::ReadFraction(1.5);
        assert!(c.validate().is_err());

        let mut c = ScenarioConfig::paper_validation(200, 0.9, 4, 1);
        c.faults.push(FaultEvent {
            at: SimTime::from_secs(1),
            target: FaultTarget::Primary(10),
            kind: FaultKind::Crash,
        });
        assert!(c.validate().is_err());

        for (factor, valid) in [
            (5.0, true),
            (0.5, false),
            (f64::NAN, false),
            (f64::INFINITY, false),
        ] {
            let mut c = ScenarioConfig::paper_validation(200, 0.9, 4, 1);
            c.faults.push(FaultEvent {
                at: SimTime::from_secs(1),
                target: FaultTarget::Primary(0),
                kind: FaultKind::Degrade { factor },
            });
            assert_eq!(c.validate().is_ok(), valid, "degrade factor {factor}");
        }

        // Every replica belongs to exactly one group, and the secondary
        // view cannot be empty.
        let mut c = ScenarioConfig::paper_validation(200, 0.9, 4, 1);
        c.num_secondaries = 0;
        assert!(c.validate().is_err());

        let mut c = ScenarioConfig::paper_validation(200, 0.9, 4, 1);
        c.failure_timeout = SimDuration::from_millis(1500); // < 2 ticks
        assert!(c.validate().is_err());

        // A zero tick re-arms at the same instant for ever, so virtual
        // time never advances.
        let mut c = ScenarioConfig::paper_validation(200, 0.9, 4, 1);
        c.group_tick = SimDuration::ZERO;
        assert!(c.validate().is_err());

        // Client specs are held to `QosSpec::new`'s rule, however built.
        for (deadline_ms, pc) in [(0, 0.9), (200, 1.5), (200, -0.5)] {
            let mut c = ScenarioConfig::paper_validation(200, 0.9, 4, 1);
            c.clients[0].qos.deadline = SimDuration::from_millis(deadline_ms);
            c.clients[0].qos.min_probability = pc;
            assert!(c.validate().is_err(), "deadline {deadline_ms} ms, Pc {pc}");
        }

        let mut c = ScenarioConfig::paper_validation(200, 0.9, 4, 1);
        c.min_primary_size = 6; // view starts at sequencer + 4 primaries
        assert!(c.validate().is_err());
        c.min_primary_size = 5;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_covers_storage_knobs() {
        // The durable preset passes end to end.
        let c = ScenarioConfig::paper_validation(200, 0.9, 4, 1).with_durability();
        assert!(c.validate().is_ok());
        assert!(c.storage.enabled);
        assert_eq!(c.storage.seed, c.seed);

        let mut c = ScenarioConfig::paper_validation(200, 0.9, 4, 1).with_durability();
        c.storage.fsync_every = 0;
        assert!(c.validate().unwrap_err().contains("fsync_every"));

        let mut c = ScenarioConfig::paper_validation(200, 0.9, 4, 1).with_durability();
        c.storage.torn_write_probability = 1.5;
        assert!(c.validate().unwrap_err().contains("torn_write_probability"));

        let mut c = ScenarioConfig::paper_validation(200, 0.9, 4, 1).with_durability();
        c.storage.bit_flip_probability = -0.1;
        assert!(c.validate().unwrap_err().contains("bit_flip_probability"));

        // Disabled configs skip knob validation entirely (the seed path).
        let mut c = ScenarioConfig::paper_validation(200, 0.9, 4, 1);
        c.storage.fsync_every = 0;
        assert!(c.validate().is_ok());
    }

    fn fault(at_secs: u64, target: FaultTarget, kind: FaultKind) -> FaultEvent {
        FaultEvent {
            at: SimTime::from_secs(at_secs),
            target,
            kind,
        }
    }

    #[test]
    fn rejects_fault_beyond_run_horizon() {
        let mut c = ScenarioConfig::paper_validation(200, 0.9, 4, 1);
        c.run_limit = SimDuration::from_secs(100);
        c.faults = vec![fault(101, FaultTarget::Primary(0), FaultKind::Crash)];
        assert!(c.validate().unwrap_err().contains("beyond"));
        c.faults[0].at = SimTime::from_secs(100);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn rejects_reconnect_without_prior_isolate() {
        let mut c = ScenarioConfig::paper_validation(200, 0.9, 4, 1);
        c.faults = vec![fault(10, FaultTarget::Secondary(0), FaultKind::Reconnect)];
        assert!(c.validate().unwrap_err().contains("Reconnect"));
        c.faults
            .insert(0, fault(5, FaultTarget::Secondary(0), FaultKind::Isolate));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn rejects_restore_gray_without_prior_gray_fault() {
        let mut c = ScenarioConfig::paper_validation(200, 0.9, 4, 1);
        c.faults = vec![fault(10, FaultTarget::Primary(1), FaultKind::RestoreGray)];
        assert!(c.validate().unwrap_err().contains("RestoreGray"));
        c.faults.insert(
            0,
            fault(5, FaultTarget::Primary(1), FaultKind::Lossy { p: 0.2 }),
        );
        assert!(c.validate().is_ok());
    }

    #[test]
    fn rejects_heal_link_without_prior_cut() {
        let peer = FaultTarget::Secondary(1);
        let mut c = ScenarioConfig::paper_validation(200, 0.9, 4, 1);
        c.faults = vec![fault(
            10,
            FaultTarget::Primary(0),
            FaultKind::HealLink { peer },
        )];
        assert!(c.validate().unwrap_err().contains("HealLink"));
        c.faults.insert(
            0,
            fault(5, FaultTarget::Primary(0), FaultKind::CutLink { peer }),
        );
        assert!(c.validate().is_ok());
        // The heal matches the unordered pair, so swapped endpoints heal too.
        c.faults[1] = fault(
            10,
            peer,
            FaultKind::HealLink {
                peer: FaultTarget::Primary(0),
            },
        );
        assert!(c.validate().is_ok());
    }

    #[test]
    fn rejects_contradictory_overlapping_faults() {
        // Crash while already down.
        let mut c = ScenarioConfig::paper_validation(200, 0.9, 4, 1);
        c.faults = vec![
            fault(10, FaultTarget::Primary(0), FaultKind::Crash),
            fault(20, FaultTarget::Primary(0), FaultKind::Crash),
        ];
        assert!(c.validate().unwrap_err().contains("contradictory"));
        // An intervening restart clears the contradiction.
        c.faults
            .insert(1, fault(15, FaultTarget::Primary(0), FaultKind::Restart));
        assert!(c.validate().is_ok());

        // Isolate while already isolated.
        let mut c = ScenarioConfig::paper_validation(200, 0.9, 4, 1);
        c.faults = vec![
            fault(10, FaultTarget::Secondary(2), FaultKind::Isolate),
            fault(20, FaultTarget::Secondary(2), FaultKind::Isolate),
        ];
        assert!(c.validate().unwrap_err().contains("contradictory"));

        // Cut an already cut link.
        let peer = FaultTarget::Secondary(0);
        let mut c = ScenarioConfig::paper_validation(200, 0.9, 4, 1);
        c.faults = vec![
            fault(10, FaultTarget::Primary(0), FaultKind::CutLink { peer }),
            fault(
                20,
                peer,
                FaultKind::CutLink {
                    peer: FaultTarget::Primary(0),
                },
            ),
        ];
        assert!(c.validate().unwrap_err().contains("contradictory"));
    }

    #[test]
    fn rejects_malformed_link_endpoints() {
        // Correlated endpoint.
        let mut c = ScenarioConfig::paper_validation(200, 0.9, 4, 1);
        c.faults = vec![fault(
            10,
            FaultTarget::AllPrimaries,
            FaultKind::CutLink {
                peer: FaultTarget::Secondary(0),
            },
        )];
        assert!(c.validate().unwrap_err().contains("single-process"));

        // Self-link.
        let mut c = ScenarioConfig::paper_validation(200, 0.9, 4, 1);
        c.faults = vec![fault(
            10,
            FaultTarget::Primary(1),
            FaultKind::CutLink {
                peer: FaultTarget::Primary(1),
            },
        )];
        assert!(c.validate().unwrap_err().contains("itself"));

        // Out-of-range peer.
        let mut c = ScenarioConfig::paper_validation(200, 0.9, 4, 1);
        c.faults = vec![fault(
            10,
            FaultTarget::Primary(1),
            FaultKind::CutLink {
                peer: FaultTarget::Secondary(99),
            },
        )];
        assert!(c.validate().is_err());
    }

    #[test]
    fn correlated_fault_targets_validate() {
        let mut c = ScenarioConfig::paper_validation(200, 0.9, 4, 1);
        c.faults.push(FaultEvent {
            at: SimTime::from_secs(10),
            target: FaultTarget::AllPrimaries,
            kind: FaultKind::Restart,
        });
        c.faults.push(FaultEvent {
            at: SimTime::from_secs(20),
            target: FaultTarget::AllServers,
            kind: FaultKind::Restart,
        });
        assert!(c.validate().is_ok());
    }

    #[test]
    fn fast_detection_preset_is_valid() {
        let c = ScenarioConfig::paper_validation(200, 0.9, 4, 1).with_fast_detection();
        assert_eq!(c.group_tick, SimDuration::from_millis(250));
        assert_eq!(c.failure_timeout, SimDuration::from_millis(900));
        assert!(c.validate().is_ok());
    }
}
