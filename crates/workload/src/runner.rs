//! Builds a scenario into a simulation world, runs it, and collects
//! metrics.

use crate::actors::{ClientActor, ClientRecord, NetMsg, ReplicaActor};
use crate::config::{damage_windows, FaultEvent, FaultKind, FaultTarget, ScenarioConfig};
use aqf_core::client::ClientConfig;
use aqf_core::protocol::ServerProtocol;
use aqf_core::shell::{ServerConfig, ServerStats};
use aqf_core::InfoRepository;
use aqf_core::ObsHandle;
use aqf_core::{
    CausalServerGateway, ClientGateway, DegradeTransition, FifoServerGateway, OrderingGuarantee,
    ServerGateway, PRIMARY_GROUP, SECONDARY_GROUP,
};
use aqf_group::endpoint::{GroupMembership, GroupStats};
use aqf_group::{EndpointConfig, GroupEndpoint, View, ViewId};
use aqf_sim::{ActorId, Digest, SimDuration, SimTime, World};
use aqf_stats::BinomialCi;
use std::collections::BTreeMap;

/// Per-client outcome of a run.
#[derive(Debug, Clone)]
pub struct ClientOutcome {
    /// The client gateway's actor id.
    pub id: ActorId,
    /// Read requests issued.
    pub reads: u64,
    /// Update requests issued.
    pub updates: u64,
    /// Timing failures observed by the detector.
    pub timing_failures: u64,
    /// Read outcomes the detector scored as timely (its total minus its
    /// failures) — the timely-goodput numerator of the overload studies.
    pub timely_responses: u64,
    /// Observed probability of timing failure with its 95% CI (Wilson),
    /// "computed under the assumption that the number of timing failures
    /// follows a binomial distribution" (§6).
    pub failure_ci: Option<BinomialCi>,
    /// Average size of the selected replica set per read (including the
    /// sequencer), the Figure 4a quantity.
    pub avg_replicas_selected: f64,
    /// First replies that were deferred reads.
    pub deferred_replies: u64,
    /// Give-ups (no reply at all).
    pub give_ups: u64,
    /// Retransmissions (attempts beyond the first).
    pub retries: u64,
    /// Always 0: the client no longer sends hedged reads. Kept because the
    /// benchmark harness names `ClientOutcome`'s fields (ROADMAP item 9 (c)
    /// drops it with the next change to the benchmark).
    pub hedges: u64,
    /// Quarantine windows opened: replicas excluded after strikes (silence
    /// at attempt expiry, or `Busy`).
    pub quarantines: u64,
    /// Response-time CDF evaluations. Each is a count over the sorted
    /// windows with nothing to rebuild first, so every evaluation is a hit.
    pub cdf_cache_hits: u64,
    /// Always 0: the response-time model keeps no cache to miss.
    pub cdf_cache_misses: u64,
    /// Always 0: the response-time model convolves nothing.
    pub cdf_base_rebuilds: u64,
    /// Explicit `Busy` rejections received from shedding replicas.
    pub busy_rejections: u64,
    /// Reads rejected locally by the degradation controller.
    pub local_sheds: u64,
    /// Admission re-evaluations (view changes, quarantine openings) and
    /// how many found the requested QoS unattainable.
    pub admission_reevals: u64,
    /// Re-evaluations that rejected the requested specification.
    pub admission_rejects: u64,
    /// Every graceful-degradation level transition, in order.
    pub degrade_transitions: Vec<DegradeTransition>,
    /// Per-replica selection counts (hot-spot studies).
    pub selection_counts: BTreeMap<ActorId, u64>,
    /// Mean `P_K(d)` prediction over all reads (model calibration: the
    /// observed timely frequency should be at least this).
    pub mean_predicted: Option<f64>,
    /// Aggregated response observations.
    pub record: ClientRecord,
    /// Snapshot of the client's information repository at the end of the
    /// run (admission-control studies).
    pub repository: InfoRepository,
}

/// Per-server outcome of a run.
#[derive(Debug, Clone, Copy)]
pub struct ServerOutcome {
    /// The replica gateway's actor id.
    pub id: ActorId,
    /// Whether it ended the run as sequencer.
    pub is_sequencer: bool,
    /// Whether it ended the run as lazy publisher.
    pub is_publisher: bool,
    /// Final commit sequence number.
    pub csn: u64,
    /// Final applied sequence number.
    pub applied_csn: u64,
    /// Final GSN knowledge.
    pub gsn: u64,
    /// Gateway counters.
    pub stats: ServerStats,
    /// Group-endpoint counters (views installed, merges, suspicions — the
    /// membership-robustness observables).
    pub group: GroupStats,
    /// Whether the replica was alive at the end of the run.
    pub alive: bool,
}

/// Everything measured in one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioMetrics {
    /// Per-client outcomes, in client order.
    pub clients: Vec<ClientOutcome>,
    /// Per-server outcomes: sequencer first, then primaries, then
    /// secondaries.
    pub servers: Vec<ServerOutcome>,
    /// Virtual time at the end of the run (seconds).
    pub virtual_secs: f64,
    /// Total simulator events processed.
    pub events: u64,
    /// Whether the scenario ran with simulated stable storage. Gates the
    /// durability counters' contribution to [`ScenarioMetrics::digest`] so
    /// storage-disabled runs stay bit-identical to the diskless seed.
    pub durability: bool,
}

impl ScenarioMetrics {
    /// Convenience: the outcome of client `i` (construction order).
    pub fn client(&self, i: usize) -> &ClientOutcome {
        &self.clients[i]
    }

    /// Largest CSN divergence between any two live servers at the end of
    /// the run, synced or not (0 = fully converged; a secondary may lag by
    /// up to one lazy interval of updates, and a replica still catching up
    /// counts at its current CSN).
    pub fn max_applied_divergence(&self) -> u64 {
        let applied: Vec<u64> = self
            .servers
            .iter()
            .filter(|s| s.alive)
            .map(|s| s.applied_csn)
            .collect();
        match (applied.iter().max(), applied.iter().min()) {
            (Some(max), Some(min)) => max - min,
            _ => 0,
        }
    }

    /// Order-sensitive FNV digest over every counter, transition, and
    /// summary moment the run produced. Two runs of the same scenario are
    /// behaviourally bit-identical iff their digests match — the
    /// observability layer's "disabled sinks never steer" contract is
    /// checked against this (the struct holds `f64` summaries, so `Eq`
    /// is deliberately not derived).
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        d.mix(self.clients.len() as u64);
        for c in &self.clients {
            d.mix(c.id.index() as u64);
            for v in [
                c.reads,
                c.updates,
                c.timing_failures,
                c.timely_responses,
                c.deferred_replies,
                c.give_ups,
                c.retries,
                // The slot of `hedges`, always 0 since the hedged read was
                // deleted: runs without it keep their digests.
                0,
                c.quarantines,
                c.busy_rejections,
                c.local_sheds,
                // The slot of the deleted `breaker_opens`: runs without
                // overload keep their digests.
                0,
                c.admission_reevals,
                c.admission_rejects,
            ] {
                d.mix(v);
            }
            d.mix(c.degrade_transitions.len() as u64);
            for t in &c.degrade_transitions {
                d.mix(t.at_us);
                d.mix(u64::from(t.from_level));
                d.mix(u64::from(t.to_level));
            }
            for (&r, &n) in &c.selection_counts {
                d.mix(r.index() as u64);
                d.mix(n);
            }
            let rec = &c.record;
            for v in [
                rec.completed,
                rec.reads_completed,
                rec.deferred_reads,
                rec.timeouts,
                rec.alerts,
                rec.staleness_violations,
                rec.local_sheds,
                rec.overload_transitions,
            ] {
                d.mix(v);
            }
            for s in [
                &rec.read_response_ms,
                &rec.update_response_ms,
                &rec.response_staleness,
            ] {
                d.mix(s.count() as u64);
                d.mix_f64(s.mean().unwrap_or(0.0));
                d.mix_f64(s.min().unwrap_or(0.0));
                d.mix_f64(s.max().unwrap_or(0.0));
            }
        }
        d.mix(self.servers.len() as u64);
        for s in &self.servers {
            d.mix(s.id.index() as u64);
            d.mix(u64::from(s.is_sequencer));
            d.mix(u64::from(s.is_publisher));
            d.mix(u64::from(s.alive));
            d.mix(s.csn);
            d.mix(s.applied_csn);
            d.mix(s.gsn);
            let st = &s.stats;
            for v in [
                st.updates_committed,
                st.reads_served,
                st.reads_deferred,
                st.gsn_conflicts,
                st.stale_assigns,
                st.lazy_updates_sent,
                st.lazy_updates_applied,
                st.recoveries,
                st.state_transfers,
                st.dedup_hits,
                st.promotions,
                st.promoted,
                st.seq_unavail_us,
                st.commit_stall_us,
                st.shed_reads,
                // The slot of the deleted `shed_updates`: runs without
                // overload keep their digests.
                0,
            ] {
                d.mix(v);
            }
            if self.durability {
                for v in [
                    st.wal_appends,
                    st.snapshots_taken,
                    st.replayed_records,
                    st.torn_tails_dropped,
                    st.corrupt_logs,
                    st.transfer_bytes_sent,
                    st.transfer_bytes_saved,
                    st.recovery_us,
                ] {
                    d.mix(v);
                }
            }
            let g = &s.group;
            for v in [
                g.multicasts_sent,
                g.delivered,
                g.duplicates_dropped,
                g.nacks_sent,
                g.retransmissions,
                g.views_installed,
                g.merges,
                g.suspicions,
                // The slot of the deleted `joins_damped`: every run keeps
                // its digest.
                0,
            ] {
                d.mix(v);
            }
        }
        d.mix(self.events);
        d.mix_f64(self.virtual_secs);
        d.value()
    }
}

/// A fully constructed scenario: the simulation world plus the actor ids
/// of every process, ready to be driven by [`run_scenario`] or stepped
/// manually (e.g. with [`aqf_sim::World::step`]).
#[derive(Debug)]
pub struct BuiltScenario {
    /// The simulation world hosting all gateways and clients.
    pub world: World<NetMsg>,
    /// Primary-group members (index 0 is the initial sequencer).
    pub primary_ids: Vec<ActorId>,
    /// Secondary-group members.
    pub secondary_ids: Vec<ActorId>,
    /// Client gateways, in `config.clients` order.
    pub client_ids: Vec<ActorId>,
    /// Faults naming a role ([`FaultTarget::Sequencer`] /
    /// [`FaultTarget::Publisher`], as target or link peer) not yet
    /// injected. These cannot be bound
    /// to a process at build time — a failover moves the role — so
    /// [`BuiltScenario::run_until_with_faults`] resolves each against the
    /// live role holder at its injection instant. Sorted by fire time.
    pub pending_faults: Vec<FaultEvent>,
    /// The configured index of each [`BuiltScenario::pending_faults`] entry.
    pending_index: Vec<usize>,
    /// For each configured fault, the damaging fault whose window it heals
    /// ([`damage_windows`]), if any.
    damage_of: Vec<Option<usize>>,
    /// For each injected damaging fault, the processes it struck (a link's
    /// two ends), so its heal repairs exactly those: by then a role has
    /// usually failed over to someone else.
    struck: Vec<Vec<ActorId>>,
    /// Whether simulated stable storage was enabled for this build;
    /// threaded into [`ScenarioMetrics`] so the digest only covers the
    /// durability counters when the subsystem actually ran.
    durability: bool,
}

impl BuiltScenario {
    /// Installs one shared observability handle into every client and
    /// replica gateway of the scenario. Installing a disabled handle is a
    /// no-op by construction; call this before driving the world so the
    /// trace covers the whole run.
    pub fn install_obs(&mut self, obs: &ObsHandle) {
        for &id in &self.client_ids.clone() {
            if let Some(c) = self.world.actor_mut::<ClientActor>(id) {
                c.set_obs(obs.clone());
            }
        }
        let replicas: Vec<ActorId> = self
            .primary_ids
            .iter()
            .chain(self.secondary_ids.iter())
            .copied()
            .collect();
        for id in replicas {
            if let Some(r) = self.world.actor_mut::<ReplicaActor>(id) {
                r.set_obs(obs.clone());
            }
        }
    }

    /// Whether every client has issued and resolved its full workload.
    pub fn all_clients_done(&self) -> bool {
        self.client_ids.iter().all(|&c| {
            self.world
                .actor::<ClientActor>(c)
                .map(ClientActor::is_done)
                .unwrap_or(true)
        })
    }

    /// Drives the closed loop: runs in 10 s chunks until every client has
    /// resolved its workload or virtual time passes `limit`, then runs a
    /// further `drain` so in-flight replies and broadcasts settle. Chunked
    /// [`BuiltScenario::run_until_with_faults`] is event-for-event
    /// identical to one long run when no role-targeted faults are pending.
    pub fn run_to_completion(&mut self, limit: SimDuration, drain: SimDuration) {
        let chunk = SimDuration::from_secs(10);
        loop {
            let until = self.world.now() + chunk;
            self.run_until_with_faults(until);
            if self.all_clients_done() || self.world.now().as_secs_f64() > limit.as_secs_f64() {
                break;
            }
        }
        let end = self.world.now() + drain;
        self.run_until_with_faults(end);
    }

    /// Runs virtual time forward to `until`, injecting any pending
    /// role-targeted faults at their scheduled instants against whichever
    /// process *currently* holds the role. With no pending faults this is
    /// exactly `world.run_until(until)`.
    pub fn run_until_with_faults(&mut self, until: SimTime) {
        while let Some(&fault) = self.pending_faults.first() {
            if fault.at > until {
                break;
            }
            self.world.run_until(fault.at);
            self.pending_faults.remove(0);
            let i = self.pending_index.remove(0);
            self.inject(i, fault);
        }
        self.world.run_until(until);
    }

    /// Schedules configured fault `i` at its instant. A heal repairs what
    /// its damage struck; anything else strikes what its target names now.
    /// A static heal may come before its damage in config order, but a
    /// static target names the same processes at any instant.
    fn inject(&mut self, i: usize, fault: FaultEvent) {
        let actors = self.damage_of[i]
            .map(|d| std::mem::take(&mut self.struck[d]))
            .filter(|struck| !struck.is_empty())
            .unwrap_or_else(|| self.resolve(&fault));
        match fault.kind {
            FaultKind::CutLink { .. } => {
                self.world
                    .schedule_partition(actors[0], actors[1], fault.at);
            }
            FaultKind::HealLink { .. } => self.world.schedule_heal(actors[0], actors[1], fault.at),
            _ => {
                for &id in &actors {
                    schedule_fault(&mut self.world, id, &fault);
                }
            }
        }
        if fault.kind.heal().is_some() {
            self.struck[i] = actors;
        }
    }

    /// The processes `fault` strikes now: both ends of a link, every member
    /// of a correlated target, or the one process a target names.
    fn resolve(&self, fault: &FaultEvent) -> Vec<ActorId> {
        match (fault.kind, fault.target) {
            (FaultKind::CutLink { peer } | FaultKind::HealLink { peer }, t) => {
                vec![self.resolve_live_target(t), self.resolve_live_target(peer)]
            }
            (_, FaultTarget::AllPrimaries) => self.primary_ids.clone(),
            (_, FaultTarget::AllServers) => self
                .primary_ids
                .iter()
                .chain(&self.secondary_ids)
                .copied()
                .collect(),
            (_, t) => vec![self.resolve_live_target(t)],
        }
    }

    /// Resolves a role-targeted fault against the live role holder,
    /// falling back to the initial holder if no live process claims the
    /// role (e.g. mid-failover).
    fn resolve_live_target(&self, target: FaultTarget) -> ActorId {
        let find = |pred: &dyn Fn(&dyn ServerProtocol) -> bool, fallback: ActorId| {
            self.primary_ids
                .iter()
                .chain(self.secondary_ids.iter())
                .copied()
                .find(|&id| {
                    self.world.is_alive(id)
                        && self
                            .world
                            .actor::<ReplicaActor>(id)
                            .is_some_and(|a| pred(a.gateway()))
                })
                .unwrap_or(fallback)
        };
        match target {
            FaultTarget::Sequencer => find(&|gw| gw.is_sequencer(), self.primary_ids[0]),
            FaultTarget::Publisher => find(
                &|gw| gw.is_publisher(),
                *self.primary_ids.last().expect("primary group non-empty"),
            ),
            target => static_target(&self.primary_ids, &self.secondary_ids, target),
        }
    }

    /// Collects the run's metrics (callable at any point).
    pub fn metrics(&self) -> ScenarioMetrics {
        collect(
            &self.world,
            &self.primary_ids,
            &self.secondary_ids,
            &self.client_ids,
            self.durability,
        )
    }
}

/// Builds the scenario's world without running it.
///
/// # Panics
///
/// Panics if the configuration fails validation.
pub fn build_scenario(config: &ScenarioConfig) -> BuiltScenario {
    config
        .validate()
        .unwrap_or_else(|e| panic!("invalid scenario: {e}"));
    // The world starts on the default LAN (`NetworkModel::default`).
    let mut world: World<NetMsg> = World::new(config.seed);
    world
        .net_mut()
        .set_loss_probability(config.loss_probability);
    world
        .net_mut()
        .set_duplicate_probability(config.duplicate_probability);

    let np = config.num_primaries;
    let ns = config.num_secondaries;
    let primary_ids: Vec<ActorId> = (0..=np).map(ActorId::from_index).collect();
    let secondary_ids: Vec<ActorId> = (np + 1..=np + ns).map(ActorId::from_index).collect();
    let client_ids: Vec<ActorId> = (np + ns + 1..np + ns + 1 + config.clients.len())
        .map(ActorId::from_index)
        .collect();

    let primary_view = View::new(PRIMARY_GROUP, ViewId(0), primary_ids.clone());
    let secondary_view = View::new(SECONDARY_GROUP, ViewId(0), secondary_ids.clone());

    let ep_config = EndpointConfig {
        tick_interval: config.group_tick,
        failure_timeout: config.failure_timeout,
    };

    // Observers: clients see both groups; each replication group's members
    // observe the other group (for sequencer identity and lazy multicast).
    let mut primary_observers: Vec<ActorId> = client_ids.clone();
    primary_observers.extend(secondary_ids.iter().copied());
    let mut secondary_observers: Vec<ActorId> = client_ids.clone();
    secondary_observers.extend(primary_ids.iter().copied());

    // Observer directory handed to every replica so a promotion-driven
    // group join announces the resulting views to the right audience.
    let group_observers: BTreeMap<_, _> = [
        (PRIMARY_GROUP, primary_observers.clone()),
        (SECONDARY_GROUP, secondary_observers.clone()),
    ]
    .into_iter()
    .collect();

    // Primary replicas (index 0 of the primary view is the sequencer).
    for &id in &primary_ids {
        let ep = GroupEndpoint::new(
            id,
            ep_config.clone(),
            vec![GroupMembership {
                view: primary_view.clone(),
                observers: primary_observers.clone(),
            }],
            vec![secondary_view.clone()],
        );
        let gw = make_gateway(config, id, &primary_view, &secondary_view, &client_ids);
        let got = world.add_actor(Box::new(
            ReplicaActor::new(ep, gw, config.object).with_group_observers(group_observers.clone()),
        ));
        assert_eq!(got, id);
    }

    // Secondary replicas.
    for &id in &secondary_ids {
        let ep = GroupEndpoint::new(
            id,
            ep_config.clone(),
            vec![GroupMembership {
                view: secondary_view.clone(),
                observers: secondary_observers.clone(),
            }],
            vec![primary_view.clone()],
        );
        let gw = make_gateway(config, id, &primary_view, &secondary_view, &client_ids);
        let got = world.add_actor(Box::new(
            ReplicaActor::new(ep, gw, config.object).with_group_observers(group_observers.clone()),
        ));
        assert_eq!(got, id);
    }

    // Clients.
    for (i, spec) in config.clients.iter().enumerate() {
        let id = client_ids[i];
        let ep = GroupEndpoint::new(
            id,
            ep_config.clone(),
            vec![],
            vec![primary_view.clone(), secondary_view.clone()],
        );
        let gw = ClientGateway::new(
            id,
            primary_view.clone(),
            secondary_view.clone(),
            ClientConfig {
                policy: spec.policy,
                seed: config.seed ^ (i as u64 + 1),
                ordering: config.ordering,
                recovery: config.recovery,
                overload: config.overload,
            },
        );
        let got = world.add_actor(Box::new(ClientActor::new(
            ep,
            gw,
            spec.qos,
            spec.pattern,
            spec.request_delay,
            spec.start_offset,
            spec.total_requests,
            config.object,
        )));
        assert_eq!(got, id);
    }

    let faults = &config.faults;
    let mut damage_of = vec![None; faults.len()];
    for (d, h) in damage_windows(faults).expect("validated schedule") {
        damage_of[h] = Some(d);
    }
    let mut built = BuiltScenario {
        world,
        primary_ids,
        secondary_ids,
        client_ids,
        pending_faults: Vec::new(),
        pending_index: Vec::new(),
        damage_of,
        struck: vec![Vec::new(); faults.len()],
        durability: config.storage.enabled,
    };
    // Fault schedule. Faults that name only static processes are scheduled
    // now, in config order (same-instant events fire in the order they were
    // scheduled); a fault naming a role (sequencer, publisher) waits in the
    // pending list so [`BuiltScenario::run_until_with_faults`] resolves it
    // against whichever process holds the role when it fires — after a
    // failover the role has usually moved.
    let role = |t: FaultTarget| matches!(t, FaultTarget::Sequencer | FaultTarget::Publisher);
    let mut pending = Vec::new();
    for (i, fault) in faults.iter().enumerate() {
        match fault.kind {
            FaultKind::CutLink { peer } | FaultKind::HealLink { peer } if role(peer) => {
                pending.push(i);
            }
            _ if role(fault.target) => pending.push(i),
            _ => built.inject(i, *fault),
        }
    }
    pending.sort_by_key(|&i| faults[i].at);
    built.pending_faults = pending.iter().map(|&i| faults[i]).collect();
    built.pending_index = pending;
    built
}

/// Builds and runs `config` to completion, returning the collected metrics.
///
/// # Panics
///
/// Panics if the configuration fails validation.
pub fn run_scenario(config: &ScenarioConfig) -> ScenarioMetrics {
    run_scenario_observed(config, &ObsHandle::disabled())
}

/// [`run_scenario`] with an observability handle installed into every
/// gateway before the first event. A disabled handle makes this
/// event-for-event identical to `run_scenario` (that equivalence is pinned
/// by the trace tests via [`ScenarioMetrics::digest`]); an enabled handle
/// additionally fills the collector with the structured trace. The
/// returned [`ScenarioMetrics`] are the run's counters either way.
///
/// # Panics
///
/// Panics if the configuration fails validation.
pub fn run_scenario_observed(config: &ScenarioConfig, obs: &ObsHandle) -> ScenarioMetrics {
    let mut built = build_scenario(config);
    if obs.is_enabled() {
        built.install_obs(obs);
    }
    built.run_to_completion(config.run_limit, SimDuration::from_secs(5));
    built.metrics()
}

/// Builds the configured timed-consistency handler for one replica.
fn make_gateway(
    config: &ScenarioConfig,
    id: ActorId,
    primary_view: &aqf_group::View,
    secondary_view: &aqf_group::View,
    client_ids: &[ActorId],
) -> Box<dyn ServerProtocol> {
    // The scenario seed doubles as the storage seed so a scenario fully
    // determines its disks; each gateway then splits per-actor streams off
    // this base internally.
    let mut storage = config.storage.clone();
    storage.seed = config.seed;
    let server_config = ServerConfig {
        lazy_interval: config.lazy_interval,
        clients: client_ids.to_vec(),
        min_primary_size: config.min_primary_size,
        overload: config.overload,
        storage,
    };
    match config.ordering {
        OrderingGuarantee::Fifo => Box::new(FifoServerGateway::new(
            id,
            primary_view.clone(),
            secondary_view.clone(),
            config.object.make(),
            server_config,
        )),
        OrderingGuarantee::Causal => Box::new(CausalServerGateway::new(
            id,
            primary_view.clone(),
            secondary_view.clone(),
            config.object.make(),
            server_config,
        )),
        OrderingGuarantee::Sequential => Box::new(ServerGateway::new(
            id,
            primary_view.clone(),
            secondary_view.clone(),
            config.object.make(),
            server_config,
        )),
    }
}

/// The process a single-process target names; `primary_ids[0]` is the
/// initial sequencer, so `Primary(i)` is `primary_ids[i + 1]`.
fn static_target(
    primary_ids: &[ActorId],
    secondary_ids: &[ActorId],
    target: FaultTarget,
) -> ActorId {
    match target {
        FaultTarget::Primary(i) => primary_ids[i + 1],
        FaultTarget::Secondary(i) => secondary_ids[i],
        // Role targets resolve against the live role holder; correlated
        // targets are expanded at build time.
        _ => unreachable!("{target:?} names no single process"),
    }
}

/// Schedules a single-process fault against `target` at its instant.
fn schedule_fault(world: &mut World<NetMsg>, target: ActorId, fault: &FaultEvent) {
    match fault.kind {
        FaultKind::Crash => world.schedule_crash(target, fault.at),
        FaultKind::Restart => world.schedule_restart(target, fault.at),
        FaultKind::Isolate => world.schedule_isolation(target, fault.at),
        FaultKind::Reconnect => world.schedule_reconnection(target, fault.at),
        FaultKind::Degrade { factor } => world.schedule_degrade(target, factor, fault.at),
        FaultKind::Lossy { p } => world.schedule_lossy(target, p, fault.at),
        FaultKind::RestoreGray => world.schedule_restore(target, fault.at),
        FaultKind::CutLink { .. } | FaultKind::HealLink { .. } => {
            unreachable!("link faults are scheduled pairwise, not per target")
        }
    }
}

fn collect(
    world: &World<NetMsg>,
    primary_ids: &[ActorId],
    secondary_ids: &[ActorId],
    client_ids: &[ActorId],
    durability: bool,
) -> ScenarioMetrics {
    let mut clients = Vec::with_capacity(client_ids.len());
    for &id in client_ids {
        let actor = world.actor::<ClientActor>(id).expect("client actor type");
        let gw = actor.gateway();
        let stats = gw.stats();
        let det = gw.detector();
        let failure_ci =
            (det.total() > 0).then(|| BinomialCi::wilson95(det.failures(), det.total()));
        clients.push(ClientOutcome {
            id,
            reads: stats.reads,
            updates: stats.updates,
            timing_failures: stats.timing_failures,
            timely_responses: det.total().saturating_sub(det.failures()),
            failure_ci,
            avg_replicas_selected: if stats.reads > 0 {
                stats.selected_sum as f64 / stats.reads as f64
            } else {
                0.0
            },
            deferred_replies: stats.deferred_replies,
            give_ups: stats.give_ups,
            retries: stats.retries,
            hedges: 0,
            quarantines: stats.quarantines,
            cdf_cache_hits: stats.cdf_evaluations,
            cdf_cache_misses: 0,
            cdf_base_rebuilds: 0,
            busy_rejections: stats.busy_rejections,
            local_sheds: stats.local_sheds,
            admission_reevals: stats.admission_reevals,
            admission_rejects: stats.admission_rejects,
            degrade_transitions: gw.degrade_transitions().to_vec(),
            selection_counts: gw
                .selection_counts()
                .iter()
                .map(|(&r, &n)| (r, n))
                .collect(),
            mean_predicted: gw.mean_predicted(),
            record: actor.record().clone(),
            repository: gw.repository().clone(),
        });
    }

    let mut servers = Vec::new();
    for &id in primary_ids.iter().chain(secondary_ids.iter()) {
        let actor = world.actor::<ReplicaActor>(id).expect("replica actor type");
        let gw = actor.gateway();
        servers.push(ServerOutcome {
            id,
            is_sequencer: gw.is_sequencer(),
            is_publisher: gw.is_publisher(),
            csn: gw.csn(),
            applied_csn: gw.applied_csn(),
            gsn: gw.gsn(),
            stats: gw.stats(),
            group: actor.endpoint().stats(),
            alive: world.is_alive(id),
        });
    }

    ScenarioMetrics {
        clients,
        servers,
        virtual_secs: world.now().as_secs_f64(),
        events: world.stats().events,
        durability,
    }
}
