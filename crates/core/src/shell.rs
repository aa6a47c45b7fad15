//! The replica shell: one server gateway into which ordering guarantees
//! plug as timed-consistency handlers (paper §4, Figure 2).
//!
//! [`Replica<D>`] owns everything a replica does whatever its ordering
//! guarantee: its role and views, the hosted object, the single-threaded
//! service queue, admission and deadline shedding, the reply cache, the
//! deferred-read list, lazy-publisher bookkeeping and the lazy tick,
//! performance broadcasts, the durability sidecar with its replay ladder,
//! counters and trace emission — and every step of catching up: serving
//! state requests, asking a donor (never itself) and asking again,
//! installing transfers and lazy updates, and the staleness estimate a
//! replica without an exact global version falls back on. What *order*
//! updates commit in, which transfer a replica may take and what a
//! transferable state looks like is the [`Discipline`]'s business:
//! [`crate::server::Sequential`] (GSN/CSN through a sequencer),
//! [`crate::fifo::Fifo`] (apply on arrival) and [`crate::causal::Causal`]
//! (version vector + waiting room).
//!
//! The shell is a sans-IO state machine: hosts feed it payloads, timers and
//! view changes through [`ServerProtocol`], and execute the
//! [`ServerAction`]s it appends to the caller-owned sink. Every callback and
//! every helper below writes into that one `&mut Vec<ServerAction>`; nothing
//! returns a fresh `Vec`, so a host that reuses its buffer pays no
//! allocation for the action list.

use crate::dedup::ReplyCache;
use crate::durability::{Durability, StorageConfig};
use crate::object::ReplicatedObject;
use crate::obs::{req_ref, ObsEvent, ObsHandle};
use crate::protocol::ServerProtocol;
use crate::qos::OrderingGuarantee;
use crate::wire::{
    Operation, Payload, PerfBroadcast, PublisherInfo, ReadMeasurement, ReadRequest, Reply,
    RequestId, UpdateRequest, VersionVector, PRIMARY_GROUP, SECONDARY_GROUP,
};
use aqf_group::{GroupId, View};
use aqf_sim::{ActorId, SimDuration, SimTime};
use std::collections::VecDeque;
use std::rc::Rc;

#[cfg(test)]
pub(crate) mod conformance;

/// Whether a replica belongs to the primary or the secondary group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaRole {
    /// Member of the primary replication group: receives every update
    /// immediately and commits in GSN order.
    Primary,
    /// Member of the secondary replication group: state advances only
    /// through lazy updates.
    Secondary,
}

/// Tuning knobs for a server gateway.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The lazy update interval `T_L`.
    pub lazy_interval: SimDuration,
    /// The QoS-group client roster: recipients of performance broadcasts.
    pub clients: Vec<ActorId>,
    /// Primary-group replenishment threshold (0 disables, the default):
    /// when the sequencer's primary view shrinks below this size, it
    /// promotes the freshest secondary (lowest `my_GSN − my_CSN`) into the
    /// primary group through the existing state-transfer path.
    pub min_primary_size: usize,
    /// Overload protection (see [`crate::overload`]): a bounded admission
    /// queue and deadline-aware read shedding. Off by default
    /// (bit-identical to a gateway without the subsystem).
    pub overload: bool,
    /// Simulated stable storage: per-replica write-ahead log + snapshots
    /// for crash recovery. Disabled by default (no disk exists at all; the
    /// gateway behaves bit-identically to one without the subsystem).
    pub storage: StorageConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            lazy_interval: SimDuration::from_secs(2),
            clients: Vec::new(),
            min_primary_size: 0,
            overload: false,
            storage: StorageConfig::disabled(),
        }
    }
}

/// How many committed updates a replica remembers (as `(GSN, request)`
/// pairs under sequential ordering, request ids under FIFO) for duplicate
/// detection and sequencer recovery reconciliation.
pub(crate) const COMMITTED_LOG: usize = 1024;

/// How many update replies a replica retains for answering retransmitted
/// requests without re-applying them.
const REPLY_CACHE: usize = 1024;

/// If the commit sequence stalls (staleness positive but no CSN progress)
/// for this long, the replica assumes it missed assignments it can never
/// recover (e.g. during a rejoin window) and requests a catch-up state
/// transfer. An unsynced replica waits this long on a transfer before
/// asking the next donor, and a reconciliation round that lost a report
/// re-queries after it.
pub const COMMIT_STALL_TIMEOUT: SimDuration = SimDuration::from_secs(3);

/// Hard bound on a server gateway's service queue (queued + in service)
/// under overload protection: arriving reads beyond it are shed with
/// `Busy`.
pub(crate) const QUEUE_BOUND: usize = 8;

const _: () = assert!(QUEUE_BOUND > 0);

/// Instructions appended by the gateway for its host to execute.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerAction {
    /// Reliably FIFO-multicast into the primary group.
    MulticastPrimary(Payload),
    /// Reliably FIFO-multicast into the secondary group.
    MulticastSecondary(Payload),
    /// Send an unordered point-to-point payload.
    SendDirect {
        /// Recipient gateway.
        to: ActorId,
        /// Payload to deliver.
        payload: Payload,
    },
    /// Begin servicing the unit of work identified by `token`: the host
    /// models the service time (the paper's simulated background load) and
    /// calls [`ServerProtocol::on_service_done`] when it elapses.
    StartService {
        /// Opaque work token.
        token: u64,
    },
    /// (Re-)arm the lazy propagation timer.
    ArmLazyTimer {
        /// Delay until the next lazy propagation.
        after: SimDuration,
    },
    /// Arm the watchdog timer, replacing a pending one: the host calls
    /// [`ServerProtocol::on_watchdog`] when it elapses. A round that waits
    /// for answers over lossy point-to-point sends arms it, so its expiry
    /// never waits for unrelated traffic to poll it.
    ArmWatchdog {
        /// Delay until the earliest open round expires.
        after: SimDuration,
    },
    /// Join `group`: the host's endpoint converts its observed view of the
    /// group into a (not yet admitted) membership and knocks. Emitted by a
    /// secondary promoted into the primary group.
    JoinGroup {
        /// The group to join.
        group: GroupId,
    },
    /// Voluntarily leave `group`. Emitted by a promoted secondary
    /// departing the secondary group.
    LeaveGroup {
        /// The group to leave.
        group: GroupId,
    },
}

/// Counters exposed for tests and experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Updates committed (CSN advances).
    pub updates_committed: u64,
    /// Reads serviced (immediate + deferred).
    pub reads_served: u64,
    /// Reads that had to wait for a state update.
    pub reads_deferred: u64,
    /// GSN assignment conflicts ignored (should stay 0 under crash faults).
    pub gsn_conflicts: u64,
    /// Assignments rejected because they came from a stale sequencer.
    pub stale_assigns: u64,
    /// Lazy updates propagated (publisher only).
    pub lazy_updates_sent: u64,
    /// Lazy updates applied (secondaries only).
    pub lazy_updates_applied: u64,
    /// Sequencer recoveries completed.
    pub recoveries: u64,
    /// State transfers served to rejoining replicas.
    pub state_transfers: u64,
    /// Duplicate updates absorbed (retransmissions and at-least-once
    /// deliveries answered from the reply cache or dropped).
    pub dedup_hits: u64,
    /// Replenishment promotions issued while acting as sequencer.
    pub promotions: u64,
    /// Times this replica was promoted from secondary to primary.
    pub promoted: u64,
    /// Longest observed sequencer-unavailability window in µs: from the
    /// last sequencing activity this replica observed to the completion of
    /// its own takeover reconciliation (new sequencer only).
    pub seq_unavail_us: u64,
    /// Longest update-commit stall healed by a recovery or catch-up state
    /// transfer, in µs.
    pub commit_stall_us: u64,
    /// Reads shed with `Busy` by the bounded admission queue or the
    /// deadline-aware shedding predicate (overload protection only).
    pub shed_reads: u64,
    /// Write-ahead log records appended (durability only).
    pub wal_appends: u64,
    /// Durable snapshots staged (durability only).
    pub snapshots_taken: u64,
    /// Valid WAL records replayed on restart (durability only).
    pub replayed_records: u64,
    /// Torn tail records dropped by the CRC check on replay.
    pub torn_tails_dropped: u64,
    /// Durable logs quarantined for interior corruption on replay.
    pub corrupt_logs: u64,
    /// Bytes shipped answering state and delta transfers.
    pub transfer_bytes_sent: u64,
    /// Bytes a delta transfer avoided shipping versus the full snapshot
    /// it replaced.
    pub transfer_bytes_saved: u64,
    /// Longest restart-to-synced window in µs (durability only; the
    /// transfer-only path heals through the network instead).
    pub recovery_us: u64,
}

/// Where a replica stands in its discipline's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Position {
    /// Committed sequence number / version.
    pub csn: u64,
    /// Updates actually applied to the hosted object (lags `csn` while
    /// committed work waits in the service queue); stamped on replies and
    /// state transfers.
    pub applied_csn: u64,
    /// Highest global sequence/version knowledge.
    pub gsn: u64,
}

/// An ordering discipline: the part of a server gateway that depends on
/// the ordering guarantee. The shell calls these hooks and offers its own
/// services back through the [`Shell`] it passes in; a hook that produces
/// actions appends them to `out`.
pub trait Discipline: Default {
    /// The ordering guarantee this discipline provides.
    const ORDERING: OrderingGuarantee;

    /// Whether a position names a delta: a replica that replayed its
    /// durable log then asks only for the committed tail above its CSN
    /// (`DeltaRequest`), which the discipline serves and installs itself.
    /// A version without a global sequence bounds nothing about what other
    /// clients' updates were missed, so by default the full state is asked
    /// for.
    const NAMES_DELTAS: bool = false;

    /// The replica's place in the order.
    fn position(&self) -> Position;

    /// Whether this replica currently sequences updates (never, for
    /// disciplines without a sequencer).
    fn is_sequencer(&self, _shell: &Shell) -> bool {
        false
    }

    /// The host started (`restarted == false`) or restarted after a crash
    /// (the shell already wiped all volatile state): stamp clocks.
    fn started(&mut self, _now: SimTime, _restarted: bool) {}

    /// Orders one arriving payload: updates towards their commit point
    /// (`Shell::enqueue_update`), reads towards `Shell::admit_read`. The
    /// shell has already taken what catching up needs: state requests,
    /// transfers and lazy updates.
    fn on_payload(
        &mut self,
        shell: &mut Shell,
        from: ActorId,
        payload: Payload,
        now: SimTime,
        out: &mut Vec<ServerAction>,
    );

    /// The object just applied `update` (enqueued with `order`). Returns
    /// whether this replica answers the client.
    fn applied(
        &mut self,
        shell: &mut Shell,
        update: &UpdateRequest,
        order: u64,
        now: SimTime,
    ) -> bool;

    /// How many versions this replica may be behind, as far as it knows. By
    /// default the shell's estimate from the age of the last lazy update.
    fn staleness(&self, shell: &Shell, now: SimTime) -> u64 {
        shell.estimated_staleness(now)
    }

    /// Whether a read carrying `deps` may be served from the current state.
    fn read_ready(&self, _deps: &VersionVector) -> bool {
        true
    }

    /// The version vector stamped on replies (empty unless the discipline
    /// tracks one).
    fn stamp(&self) -> VersionVector {
        Vec::new()
    }

    /// Encodes the transferable state: what a state transfer ships and a
    /// durable snapshot stores.
    fn encode_state(&self, object: &dyn ReplicatedObject) -> bytes::Bytes {
        object.snapshot()
    }

    /// Installs a blob produced by [`Discipline::encode_state`].
    fn install_state(&mut self, object: &mut dyn ReplicatedObject, blob: &bytes::Bytes) {
        object.install_snapshot(blob);
    }

    /// Whether the object state matches [`Discipline::position`] right now,
    /// so a durable snapshot may pair the two.
    fn snapshot_ready(&self, _shell: &Shell) -> bool {
        true
    }

    /// Whether a state transfer at `csn` may replace this replica's state:
    /// by default one that is not behind, and on an already synced replica
    /// only to reconcile what it replayed from its durable log.
    fn accepts_transfer(&self, shell: &Shell, csn: u64, _blob: &bytes::Bytes) -> bool {
        csn >= self.position().csn && !(shell.synced && shell.durability.is_none())
    }

    /// Adopts the position of an installed state: a transfer or durable
    /// snapshot at `(csn, gsn)`, or a lazy update at version `csn`, which
    /// brings the publisher's `vector` and no global sequence number.
    fn adopt(&mut self, csn: u64, gsn: u64, vector: Option<VersionVector>);

    /// A transfer was installed and the replica marked synced; `before` is
    /// where it stood. By default, serve the deferred reads the state now
    /// satisfies.
    fn caught_up(
        &mut self,
        shell: &mut Shell,
        _before: Position,
        now: SimTime,
        out: &mut Vec<ServerAction>,
    ) {
        shell.release_deferred(self, false, now, out);
    }

    /// Replays one commit of the durable log at `position`, already
    /// re-applied to the object.
    fn replay_commit(&mut self, position: u64, update: &UpdateRequest);

    /// The primary view changed (already installed in the shell; `old` is
    /// the one it replaced). Runs before the shell re-designates the lazy
    /// publisher.
    fn primary_view_changed(
        &mut self,
        _shell: &mut Shell,
        _old: &View,
        _now: SimTime,
        _out: &mut Vec<ServerAction>,
    ) {
    }

    /// The watchdog timer ([`ServerAction::ArmWatchdog`]) elapsed.
    fn on_watchdog(&mut self, _shell: &mut Shell, _now: SimTime, _out: &mut Vec<ServerAction>) {}

    /// A view of either group was installed and the publisher
    /// re-designated; `old_primary` is set when it was the primary view.
    fn view_installed(
        &mut self,
        _shell: &mut Shell,
        _old_primary: Option<&View>,
        _now: SimTime,
        _out: &mut Vec<ServerAction>,
    ) {
    }
}

/// A read on its way through admission, deferral and service.
#[derive(Debug)]
pub(crate) struct PendingRead {
    pub(crate) req: ReadRequest,
    pub(crate) client: ActorId,
    pub(crate) arrived_at: SimTime,
}

impl PendingRead {
    pub(crate) fn new(req: ReadRequest, client: ActorId, arrived_at: SimTime) -> Self {
        Self {
            req,
            client,
            arrived_at,
        }
    }
}

#[derive(Debug)]
enum WorkKind {
    Update {
        update: UpdateRequest,
        /// The discipline's tag for this update, handed back to
        /// [`Discipline::applied`].
        order: u64,
    },
    Read {
        read: PendingRead,
        staleness: u64,
        deferred: bool,
        tb: SimDuration,
        /// [`Discipline::stamp`] at the moment the read was released.
        vector: VersionVector,
    },
}

#[derive(Debug)]
struct Work {
    kind: WorkKind,
    enqueued_at: SimTime,
}

/// The ordering-independent state of a replica. Disciplines reach it
/// through the `&mut Shell` every [`Discipline`] hook receives.
pub struct Shell {
    pub(crate) me: ActorId,
    pub(crate) role: ReplicaRole,
    pub(crate) config: ServerConfig,
    pub(crate) object: Box<dyn ReplicatedObject>,

    pub(crate) primary_view: Rc<View>,
    pub(crate) secondary_view: Rc<View>,

    /// Replies sent for recent updates, for answering retransmissions.
    reply_cache: ReplyCache,
    /// Reads waiting for a fresher (or causally sufficient) state, with the
    /// time each was deferred.
    deferred: Vec<(PendingRead, SimTime)>,

    // Service machinery (single-threaded server application).
    service_queue: VecDeque<Work>,
    in_service: Option<(u64, Work, SimTime)>,
    next_token: u64,

    // Publisher bookkeeping.
    updates_since_broadcast: u64,
    last_broadcast_at: SimTime,
    updates_since_lazy: u64,
    publisher_lazy_at: SimTime,
    rate_acc_updates: u64,
    rate_acc_since: SimTime,
    /// Whether a lazy timer is currently armed (prevents duplicate timers
    /// when restart and view-change handling both want one).
    lazy_timer_pending: bool,

    // State-transfer requests can be lost; re-requests rotate donors.
    pub(crate) last_transfer_request: SimTime,
    donor_rr: usize,

    /// When a secondary last became current (a lazy update or transfer),
    /// and the update-arrival rate the publisher last advertised: the
    /// staleness estimate of [`Shell::estimated_staleness`].
    last_lazy_at: Option<SimTime>,
    lazy_rate_per_us: f64,

    /// EWMA of observed service times in µs (`(7·old + new) / 8`); 0 until
    /// the first sample. Drives deadline-aware shedding.
    avg_service_us: u64,

    /// Retained staging buffer for reply encoding: every serviced request
    /// reuses this allocation via [`ReplicatedObject::apply_update`] /
    /// [`ReplicatedObject::read`] instead of growing a fresh buffer.
    reply_scratch: bytes::BytesMut,

    /// Stable storage, present only when [`ServerConfig::storage`] is
    /// enabled. Survives crash/restart cycles: the host applies crash
    /// damage via [`ServerProtocol::crash_storage`] and the restart path
    /// carries the sidecar across the state wipe.
    pub(crate) durability: Option<Durability>,
    /// When the last restart happened, until the replica re-synced
    /// (drives the `recovery_us` stat).
    restarted_at: Option<SimTime>,

    pub(crate) synced: bool,
    pub(crate) stats: ServerStats,
    pub(crate) obs: ObsHandle,
}

impl Shell {
    fn new(
        me: ActorId,
        role: ReplicaRole,
        primary_view: Rc<View>,
        secondary_view: Rc<View>,
        object: Box<dyn ReplicatedObject>,
        config: ServerConfig,
        durability: Option<Durability>,
    ) -> Self {
        Self {
            me,
            role,
            reply_cache: ReplyCache::new(REPLY_CACHE),
            config,
            object,
            primary_view,
            secondary_view,
            deferred: Vec::new(),
            service_queue: VecDeque::new(),
            in_service: None,
            next_token: 0,
            updates_since_broadcast: 0,
            last_broadcast_at: SimTime::ZERO,
            updates_since_lazy: 0,
            publisher_lazy_at: SimTime::ZERO,
            rate_acc_updates: 0,
            rate_acc_since: SimTime::ZERO,
            lazy_timer_pending: false,
            last_transfer_request: SimTime::ZERO,
            donor_rr: 0,
            last_lazy_at: None,
            lazy_rate_per_us: 0.0,
            avg_service_us: 0,
            reply_scratch: bytes::BytesMut::new(),
            durability,
            restarted_at: None,
            synced: true,
            stats: ServerStats::default(),
            obs: ObsHandle::disabled(),
        }
    }

    /// Whether this replica leads the primary group.
    pub(crate) fn leads_primary(&self) -> bool {
        self.role == ReplicaRole::Primary && self.primary_view.leader() == self.me
    }

    /// Whether this replica is the lazy publisher: the member of the
    /// primary view with the highest id, whatever its rank. All replicas
    /// compute this locally, so no designation protocol is needed.
    pub(crate) fn is_publisher(&self) -> bool {
        self.role == ReplicaRole::Primary
            && self.primary_view.members().iter().max() == Some(&self.me)
    }

    /// Number of queued + in-flight service units.
    pub(crate) fn queue_depth(&self) -> usize {
        self.service_queue.len() + usize::from(self.in_service.is_some())
    }

    /// Whether a committed update still waits in the service queue.
    pub(crate) fn has_queued_updates(&self) -> bool {
        self.service_queue
            .iter()
            .any(|w| matches!(w.kind, WorkKind::Update { .. }))
    }

    /// Whether update `id` is queued for service or in service right now.
    pub(crate) fn update_in_flight(&self, id: RequestId) -> bool {
        let is_it =
            |w: &Work| matches!(&w.kind, WorkKind::Update { update, .. } if update.id == id);
        self.service_queue.iter().any(is_it)
            || self.in_service.as_ref().is_some_and(|(_, w, _)| is_it(w))
    }

    /// Flips `synced` on (if off) and closes the open recovery window.
    pub(crate) fn mark_synced(&mut self, now: SimTime) {
        if !self.synced {
            self.synced = true;
            if let Some(at) = self.restarted_at.take() {
                let healed = now.saturating_since(at).as_micros();
                self.stats.recovery_us = self.stats.recovery_us.max(healed);
            }
        }
    }

    /// Arms the lazy timer unless one is already pending.
    fn arm_lazy(&mut self, out: &mut Vec<ServerAction>) {
        if !self.lazy_timer_pending {
            self.lazy_timer_pending = true;
            out.push(ServerAction::ArmLazyTimer {
                after: self.config.lazy_interval,
            });
        }
    }

    /// Picks the next state-transfer donor, cycling through the primary
    /// members so a lost request or an unhelpful donor cannot wedge
    /// recovery. Never ourselves: a restarted ex-leader's stale view says
    /// the leader is itself.
    fn next_donor(&mut self) -> Option<ActorId> {
        let me = self.me;
        let peers = || self.primary_view.members().iter().filter(|m| **m != me);
        let donor = *peers().nth(self.donor_rr % peers().count().max(1))?;
        self.donor_rr += 1;
        Some(donor)
    }

    /// Whether an unsynchronized replica should ask for its state transfer
    /// again (the request or its response may have been lost).
    fn transfer_overdue(&self, now: SimTime) -> bool {
        !self.synced && now.saturating_since(self.last_transfer_request) > COMMIT_STALL_TIMEOUT
    }

    /// Sends a state-transfer request to the next donor, if there is one.
    pub(crate) fn request_transfer(&mut self, now: SimTime, out: &mut Vec<ServerAction>) {
        self.ask_donor(Payload::StateRequest, now, out);
    }

    fn ask_donor(&mut self, payload: Payload, now: SimTime, out: &mut Vec<ServerAction>) {
        if let Some(donor) = self.next_donor() {
            self.last_transfer_request = now;
            out.push(ServerAction::SendDirect { to: donor, payload });
        }
    }

    /// Estimated staleness in versions, for a replica that knows no exact
    /// global version: zero for primaries; for a secondary the expected
    /// number of updates since it last became current, `ceil(rate ×
    /// elapsed)` at the publisher's advertised rate, and unbounded before a
    /// restarted one first does.
    pub(crate) fn estimated_staleness(&self, now: SimTime) -> u64 {
        match (self.role, self.last_lazy_at) {
            (ReplicaRole::Primary, _) => 0,
            (ReplicaRole::Secondary, Some(at)) => {
                let elapsed = now.saturating_since(at).as_micros() as f64;
                (self.lazy_rate_per_us * elapsed).ceil() as u64
            }
            (ReplicaRole::Secondary, None) => u64::MAX,
        }
    }

    /// Counts an accepted update towards the publisher's `<n_u, n_L>` and
    /// arrival-rate bookkeeping.
    pub(crate) fn note_update(&mut self) {
        self.updates_since_broadcast += 1;
        self.updates_since_lazy += 1;
        self.rate_acc_updates += 1;
    }

    /// A duplicate update (client retransmission or at-least-once
    /// delivery) must never apply twice. If this replica already answered
    /// the request, answer again from the reply cache — the original reply
    /// may have been the message that was lost.
    pub(crate) fn answer_duplicate(&mut self, id: RequestId, out: &mut Vec<ServerAction>) {
        self.stats.dedup_hits += 1;
        if let Some(r) = self.reply_cache.get(&id) {
            out.push(ServerAction::SendDirect {
                to: id.client,
                payload: Payload::Reply(r.clone()),
            });
        }
    }

    /// Write-ahead logs a commit at the discipline's commit point: the
    /// record hits the log (and, with sync-before-ack, the durable platter)
    /// before the reply that acknowledges it can leave the service queue.
    pub(crate) fn log_commit(&mut self, position: u64, update: &UpdateRequest, now: SimTime) {
        if let Some(d) = self.durability.as_mut() {
            let (bytes, _) = d.log_commit(position, update);
            self.stats.wal_appends += 1;
            self.obs.emit(now, self.me, || ObsEvent::WalAppend {
                gsn: position,
                bytes,
            });
        }
    }

    /// Makes an installed state (lazy update or transfer) the durable
    /// baseline immediately, so a crash right after the install restarts
    /// from it rather than from whatever the local log held before.
    /// `blob` runs only when storage is enabled.
    pub(crate) fn persist_install(
        &mut self,
        csn: u64,
        gsn: u64,
        blob: impl FnOnce(&dyn ReplicatedObject) -> Vec<u8>,
    ) {
        if let Some(d) = self.durability.as_mut() {
            d.persist_install(csn, gsn, blob(&*self.object));
            self.stats.snapshots_taken += 1;
        }
    }

    /// Re-applies a logged operation during replay; the result is not sent
    /// anywhere.
    pub(crate) fn reapply(&mut self, op: &Operation) {
        let _ = self.object.apply_update(op, &mut self.reply_scratch);
    }

    /// Hands a committed update to the service queue. `order` comes back in
    /// [`Discipline::applied`].
    pub(crate) fn enqueue_update(
        &mut self,
        update: UpdateRequest,
        order: u64,
        now: SimTime,
        out: &mut Vec<ServerAction>,
    ) {
        self.enqueue(WorkKind::Update { update, order }, now, out);
    }

    fn enqueue(&mut self, kind: WorkKind, now: SimTime, out: &mut Vec<ServerAction>) {
        self.service_queue.push_back(Work {
            kind,
            enqueued_at: now,
        });
        self.maybe_start_service(out);
    }

    fn maybe_start_service(&mut self, out: &mut Vec<ServerAction>) {
        if self.in_service.is_some() {
            return;
        }
        let Some(work) = self.service_queue.pop_front() else {
            return;
        };
        let token = self.next_token;
        self.next_token += 1;
        // The host stamps the real start time through `on_service_start`
        // when it executes the action.
        self.in_service = Some((token, work, SimTime::ZERO));
        out.push(ServerAction::StartService { token });
    }

    /// Whether overload protection sheds an arriving read: the bounded
    /// admission queue is full, or the backlog estimate
    /// `(queue_depth + 1) × avg_service_time` already exceeds the
    /// request's remaining deadline budget — the reply could only be late.
    /// Only reads are ever shed here: an update dropped at one primary
    /// would diverge the group.
    fn should_shed_read(&self, req: &ReadRequest) -> bool {
        if !self.config.overload {
            return false;
        }
        if self.queue_depth() >= QUEUE_BOUND {
            return true;
        }
        req.deadline_us > 0
            && self.avg_service_us > 0
            && (self.queue_depth() as u64 + 1).saturating_mul(self.avg_service_us) > req.deadline_us
    }

    /// Admission and the staleness check of §4.1.2: shed under overload,
    /// serve immediately if the state is fresh (and causally sufficient)
    /// enough, otherwise defer until the next state update.
    pub(crate) fn admit_read<D: Discipline>(
        &mut self,
        discipline: &D,
        pending: PendingRead,
        now: SimTime,
        out: &mut Vec<ServerAction>,
    ) {
        if self.should_shed_read(&pending.req) {
            self.stats.shed_reads += 1;
            let queue_depth = self.queue_depth() as u64;
            self.obs.emit(now, self.me, || ObsEvent::ShedRead {
                req: req_ref(pending.req.id),
                queue_depth,
            });
            out.push(ServerAction::SendDirect {
                to: pending.client,
                payload: Payload::Busy {
                    req: pending.req.id,
                },
            });
            return;
        }
        let staleness = discipline.staleness(self, now);
        if self.synced
            && discipline.read_ready(&pending.req.deps)
            && staleness <= u64::from(pending.req.staleness_threshold)
        {
            let kind = WorkKind::Read {
                read: pending,
                staleness,
                deferred: false,
                tb: SimDuration::ZERO,
                vector: discipline.stamp(),
            };
            self.enqueue(kind, now, out);
        } else {
            self.stats.reads_deferred += 1;
            self.deferred.push((pending, now));
        }
    }

    /// Releases deferred reads after a state update. With `all`, every one
    /// the state is ready for — "responding to the client immediately after
    /// receiving the next state update from the lazy publisher" (§4.1.2),
    /// whatever the new staleness; otherwise only those the state now
    /// satisfies.
    pub(crate) fn release_deferred<D: Discipline>(
        &mut self,
        discipline: &D,
        all: bool,
        now: SimTime,
        out: &mut Vec<ServerAction>,
    ) {
        if self.deferred.is_empty() {
            return;
        }
        let staleness = discipline.staleness(self, now);
        let mut kept = Vec::new();
        for (read, deferred_at) in std::mem::take(&mut self.deferred) {
            if discipline.read_ready(&read.req.deps)
                && (all || (self.synced && staleness <= u64::from(read.req.staleness_threshold)))
            {
                let kind = WorkKind::Read {
                    read,
                    staleness,
                    deferred: true,
                    tb: now.saturating_since(deferred_at),
                    vector: discipline.stamp(),
                };
                self.enqueue(kind, now, out);
            } else {
                kept.push((read, deferred_at));
            }
        }
        self.deferred = kept;
    }

    /// Serves a full state transfer to a rejoining replica.
    pub(crate) fn on_state_request<D: Discipline>(
        &mut self,
        discipline: &D,
        from: ActorId,
        out: &mut Vec<ServerAction>,
    ) {
        if self.role != ReplicaRole::Primary || !self.synced {
            return;
        }
        self.stats.state_transfers += 1;
        let snapshot = discipline.encode_state(&*self.object);
        self.stats.transfer_bytes_sent += snapshot.len() as u64;
        let at = discipline.position();
        out.push(ServerAction::SendDirect {
            to: from,
            payload: Payload::StateResponse {
                csn: at.applied_csn,
                gsn: at.gsn,
                snapshot,
            },
        });
    }

    /// Installs a state transfer the discipline accepts: the state, its
    /// position, the durable baseline, synced — then the discipline's
    /// [`Discipline::caught_up`].
    fn install_transfer<D: Discipline>(
        &mut self,
        discipline: &mut D,
        csn: u64,
        gsn: u64,
        blob: &bytes::Bytes,
        now: SimTime,
        out: &mut Vec<ServerAction>,
    ) {
        if !discipline.accepts_transfer(self, csn, blob) {
            return;
        }
        let before = discipline.position();
        discipline.install_state(&mut *self.object, blob);
        discipline.adopt(csn, gsn, None);
        // A full transfer supersedes whatever the local log held.
        let at = discipline.position();
        self.persist_install(at.csn, at.gsn, |_| blob.to_vec());
        self.mark_synced(now);
        self.last_lazy_at = Some(now);
        discipline.caught_up(self, before, now, out);
    }

    /// Installs a lazy update on a secondary if it is newer, and releases
    /// every deferred read the state is ready for (§4.1.2).
    #[allow(clippy::too_many_arguments)] // one per `LazyUpdate` field
    fn install_lazy<D: Discipline>(
        &mut self,
        discipline: &mut D,
        version: u64,
        vector: VersionVector,
        snapshot: &bytes::Bytes,
        rate_per_us: f64,
        now: SimTime,
        out: &mut Vec<ServerAction>,
    ) {
        if self.role != ReplicaRole::Secondary {
            return;
        }
        if version > discipline.position().csn {
            self.object.install_snapshot(snapshot);
            discipline.adopt(version, 0, Some(vector));
            self.stats.lazy_updates_applied += 1;
            // A secondary's state *is* the last lazy snapshot.
            let at = discipline.position();
            self.persist_install(at.csn, at.gsn.max(at.csn), |object| {
                discipline.encode_state(object).to_vec()
            });
        }
        self.mark_synced(now);
        self.last_lazy_at = Some(now);
        self.lazy_rate_per_us = rate_per_us.max(0.0);
        self.release_deferred(discipline, true, now, out);
    }

    /// Durable compaction: once enough commits accumulated, stage a
    /// snapshot of the applied state; the WAL prefix it covers is truncated
    /// at the next fsync (atomic rename).
    fn maybe_snapshot<D: Discipline>(&mut self, discipline: &D, now: SimTime) {
        if !self.durability.as_ref().is_some_and(|d| d.wants_snapshot())
            || !discipline.snapshot_ready(self)
        {
            return;
        }
        let at = discipline.position();
        let data = discipline.encode_state(&*self.object).to_vec();
        let d = self.durability.as_mut().expect("checked above");
        let wal_bytes = d.stage_snapshot(at.applied_csn, at.gsn, data);
        self.stats.snapshots_taken += 1;
        self.obs.emit(now, self.me, || ObsEvent::Snapshot {
            csn: at.applied_csn,
            wal_bytes,
        });
    }

    /// Replays the durable log after a crash. Returns whether the replay
    /// restored local state (snapshot installed, commit tail re-applied,
    /// replica synced); `false` — no storage, replay disabled, a corrupt or
    /// an empty log — falls back to rebuilding over the network.
    fn replay_storage<D: Discipline>(&mut self, discipline: &mut D, now: SimTime) -> bool {
        let Some(d) = self.durability.as_mut() else {
            return false;
        };
        let fallback = |shell: &Self, reason| {
            shell
                .obs
                .emit(now, shell.me, || ObsEvent::RecoveryFallback { reason });
            false
        };
        if !d.config().replay {
            return fallback(self, "replay-disabled");
        }
        let summary = d.replay();
        self.stats.torn_tails_dropped += summary.torn_records;
        if summary.corrupt {
            self.stats.corrupt_logs += 1;
            return fallback(self, "corrupt-log");
        }
        if summary.snapshot.is_none() && summary.commits.is_empty() {
            // Nothing durable yet: behave exactly like a plain restart
            // rather than claim an empty state is synchronized.
            return fallback(self, "empty-log");
        }
        if let Some(snap) = &summary.snapshot {
            let blob = bytes::Bytes::from(snap.data.clone());
            discipline.install_state(&mut *self.object, &blob);
            discipline.adopt(snap.csn, snap.gsn, None);
        }
        for (position, update) in &summary.commits {
            self.reapply(&update.op);
            discipline.replay_commit(*position, update);
        }
        self.stats.replayed_records += summary.replayed_records;
        self.mark_synced(now);
        let (records, csn) = (summary.replayed_records, discipline.position().csn);
        self.obs
            .emit(now, self.me, || ObsEvent::RecoveryReplay { records, csn });
        true
    }

    fn publisher_info(&mut self, now: SimTime) -> PublisherInfo {
        let info = PublisherInfo {
            n_u: self.updates_since_broadcast,
            t_u: now.saturating_since(self.last_broadcast_at),
            n_l: self.updates_since_lazy,
            t_l: now.saturating_since(self.publisher_lazy_at),
            period: self.config.lazy_interval,
        };
        self.updates_since_broadcast = 0;
        self.last_broadcast_at = now;
        info
    }

    /// Publishes measurements to every client of the QoS group (§5.4).
    fn broadcast_perf(&self, perf: PerfBroadcast, out: &mut Vec<ServerAction>) {
        out.extend(
            self.config
                .clients
                .iter()
                .map(|&to| ServerAction::SendDirect {
                    to,
                    payload: Payload::Perf(perf),
                }),
        );
    }
}

/// A server gateway: the [`Shell`] under one ordering [`Discipline`]. See
/// the [module docs](self).
pub struct Replica<D: Discipline> {
    pub(crate) shell: Shell,
    pub(crate) discipline: D,
}

impl<D: Discipline> std::fmt::Debug for Replica<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replica")
            .field("ordering", &D::ORDERING)
            .field("me", &self.shell.me)
            .field("role", &self.shell.role)
            .field("position", &self.discipline.position())
            .field("queue", &self.shell.queue_depth())
            .finish()
    }
}

impl<D: Discipline> Replica<D> {
    /// Creates a gateway for replica `me`.
    ///
    /// # Panics
    ///
    /// Panics if `me` is a member of neither (or both) initial views.
    pub fn new(
        me: ActorId,
        primary_view: impl Into<Rc<View>>,
        secondary_view: impl Into<Rc<View>>,
        object: Box<dyn ReplicatedObject>,
        config: ServerConfig,
    ) -> Self {
        // Each replica gets its own deterministic fault/latency stream:
        // the shared scenario seed mixed with the replica identity.
        let durability = config.storage.enabled.then(|| {
            let seed = config
                .storage
                .seed
                .wrapping_add((me.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            Durability::new(config.storage.clone(), seed)
        });
        let (primary_view, secondary_view) = (primary_view.into(), secondary_view.into());
        let in_primary = primary_view.contains(me);
        assert!(
            in_primary ^ secondary_view.contains(me),
            "replica must belong to exactly one replication group"
        );
        Self {
            shell: Shell::new(
                me,
                if in_primary {
                    ReplicaRole::Primary
                } else {
                    ReplicaRole::Secondary
                },
                primary_view,
                secondary_view,
                object,
                config,
                durability,
            ),
            discipline: D::default(),
        }
    }

    /// This replica's role.
    pub fn role(&self) -> ReplicaRole {
        self.shell.role
    }

    /// Read access to the hosted object.
    pub fn object(&self) -> &dyn ReplicatedObject {
        &*self.shell.object
    }

    /// The durability sidecar, if storage is enabled (post-run inspection).
    pub fn durability(&self) -> Option<&Durability> {
        self.shell.durability.as_ref()
    }
}

impl<D: Discipline> ServerProtocol for Replica<D> {
    fn ordering(&self) -> OrderingGuarantee {
        D::ORDERING
    }

    fn on_start(&mut self, now: SimTime, out: &mut Vec<ServerAction>) {
        let Self { shell, discipline } = self;
        shell.last_broadcast_at = now;
        shell.publisher_lazy_at = now;
        shell.rate_acc_since = now;
        // Until the first lazy update arrives a secondary counts as current
        // from genesis (version 0 is the true initial state); a restarted
        // one knows nothing until its transfer lands.
        shell.last_lazy_at = (shell.role == ReplicaRole::Secondary).then_some(now);
        discipline.started(now, false);
        if shell.is_publisher() {
            shell.arm_lazy(out);
        }
    }

    fn on_restart(
        &mut self,
        fresh_object: Box<dyn ReplicatedObject>,
        now: SimTime,
        out: &mut Vec<ServerAction>,
    ) {
        let old = &mut self.shell;
        // Three things survive the wipe. The durability sidecar *is* the
        // stable storage (the host already applied crash damage via
        // `crash_storage`). The obs handle is the host's, not the
        // process's: observation is write-only, and the windows right
        // after a restart are the ones a trace is read for. The role is
        // carried over, not re-derived from the views: a replica that
        // installed the view excluding it before crashing is in neither
        // until it is re-admitted.
        let mut shell = Shell::new(
            old.me,
            old.role,
            old.primary_view.clone(),
            old.secondary_view.clone(),
            fresh_object,
            std::mem::take(&mut old.config),
            old.durability.take(),
        );
        shell.obs = old.obs.clone();
        shell.synced = false;
        shell.restarted_at = Some(now);
        shell.last_transfer_request = now;
        shell.last_broadcast_at = now;
        shell.publisher_lazy_at = now;
        shell.rate_acc_since = now;
        *self = Self {
            shell,
            discipline: D::default(),
        };
        let Self { shell, discipline } = self;
        discipline.started(now, true);
        // After a successful replay the replica is already synced from
        // local state and only reconciles with a live peer — asking just for
        // the committed tail where its position names one; the fallback
        // ladder rebuilds over the network with a full state transfer.
        let payload = if shell.replay_storage(discipline, now) && D::NAMES_DELTAS {
            Payload::DeltaRequest {
                have_csn: discipline.position().csn,
            }
        } else {
            Payload::StateRequest
        };
        shell.ask_donor(payload, now, out);
        if shell.is_publisher() {
            shell.arm_lazy(out);
        }
    }

    fn on_payload(
        &mut self,
        from: ActorId,
        payload: Payload,
        now: SimTime,
        out: &mut Vec<ServerAction>,
    ) {
        let Self { shell, discipline } = self;
        // Decided before the payload is handled (it may be the transfer),
        // sent after whatever it produced.
        let retry = shell.transfer_overdue(now);
        match payload {
            Payload::StateRequest => shell.on_state_request(&*discipline, from, out),
            Payload::StateResponse { csn, gsn, snapshot } => {
                shell.install_transfer(discipline, csn, gsn, &snapshot, now, out);
            }
            Payload::LazyUpdate {
                version,
                vector,
                snapshot,
                rate_per_us,
            } => shell.install_lazy(
                discipline,
                version,
                vector,
                &snapshot,
                rate_per_us,
                now,
                out,
            ),
            payload => discipline.on_payload(shell, from, payload, now, out),
        }
        if retry {
            shell.request_transfer(now, out);
        }
    }

    fn on_service_start(&mut self, token: u64, now: SimTime) {
        if let Some((t, _, start)) = self.shell.in_service.as_mut() {
            if *t == token {
                *start = now;
            }
        }
    }

    fn on_service_done(&mut self, token: u64, now: SimTime, out: &mut Vec<ServerAction>) {
        let Self { shell, discipline } = self;
        let (t, work, started_at) = shell.in_service.take().expect("no work in service");
        assert_eq!(t, token, "service completion for unexpected token");
        let ts = now.saturating_since(started_at);
        if shell.config.overload {
            // The first sample seeds the average; folding it into the zero
            // initial value would start at `sample/8` and blind deadline
            // shedding exactly when a burst hits a cold server.
            let sample = ts.as_micros().max(1);
            shell.avg_service_us = if shell.avg_service_us == 0 {
                sample
            } else {
                (shell.avg_service_us * 7 + sample) / 8
            };
        }
        shell.obs.emit(now, shell.me, || ObsEvent::ServiceDone {
            req: req_ref(match &work.kind {
                WorkKind::Update { update, .. } => update.id,
                WorkKind::Read { read, .. } => read.req.id,
            }),
            service_us: ts.as_micros(),
        });
        match work.kind {
            WorkKind::Update { update, order } => {
                let result = shell
                    .object
                    .apply_update(&update.op, &mut shell.reply_scratch);
                let answers = discipline.applied(shell, &update, order, now);
                shell.maybe_snapshot(&*discipline, now);
                if answers {
                    let tq = started_at.saturating_since(work.enqueued_at);
                    let reply = Reply {
                        id: update.id,
                        result,
                        t1_us: (ts + tq).as_micros(),
                        staleness: 0,
                        deferred: false,
                        csn: discipline.position().applied_csn,
                        vector: discipline.stamp(),
                    };
                    // Retain the reply so a retransmission of this update
                    // can be answered without re-applying it.
                    shell.reply_cache.insert(reply.clone());
                    out.push(ServerAction::SendDirect {
                        to: update.id.client,
                        payload: Payload::Reply(reply),
                    });
                }
            }
            WorkKind::Read {
                read,
                staleness,
                deferred,
                tb,
                vector,
            } => {
                let result = shell.object.read(&read.req.op, &mut shell.reply_scratch);
                shell.stats.reads_served += 1;
                // t_q is all waiting except the deferral buffering:
                // arrival -> service start, minus tb (§5.4).
                let total_wait = started_at.saturating_since(read.arrived_at);
                let tq = total_wait.saturating_sub(tb);
                let t1 = ts + tq + tb;
                out.push(ServerAction::SendDirect {
                    to: read.client,
                    payload: Payload::Reply(Reply {
                        id: read.req.id,
                        result,
                        t1_us: t1.as_micros(),
                        staleness,
                        deferred,
                        csn: discipline.position().applied_csn,
                        vector,
                    }),
                });
                let perf = PerfBroadcast {
                    read: Some(ReadMeasurement {
                        ts_us: ts.as_micros(),
                        tq_us: tq.as_micros(),
                        tb_us: tb.as_micros(),
                    }),
                    publisher: shell.is_publisher().then(|| shell.publisher_info(now)),
                };
                shell.broadcast_perf(perf, out);
            }
        }
        shell.maybe_start_service(out);
    }

    fn on_lazy_timer(&mut self, now: SimTime, out: &mut Vec<ServerAction>) {
        let Self { shell, discipline } = self;
        shell.lazy_timer_pending = false;
        if !shell.is_publisher() {
            return; // demoted while the timer was in flight
        }
        shell.stats.lazy_updates_sent += 1;
        // Update-arrival rate since the estimator was last reset, shipped
        // to secondaries that bound their staleness by it.
        let elapsed = now.saturating_since(shell.rate_acc_since);
        let rate = if elapsed.as_micros() > 0 {
            shell.rate_acc_updates as f64 / elapsed.as_micros() as f64
        } else {
            0.0
        };
        out.push(ServerAction::MulticastSecondary(Payload::LazyUpdate {
            version: discipline.position().applied_csn,
            vector: discipline.stamp(),
            snapshot: shell.object.snapshot(),
            rate_per_us: rate,
        }));
        shell.updates_since_lazy = 0;
        shell.publisher_lazy_at = now;
        // Keep the rate estimate fresh: restart the accumulation window
        // every 8 lazy intervals.
        if elapsed > shell.config.lazy_interval * 8 {
            shell.rate_acc_updates = 0;
            shell.rate_acc_since = now;
        }
        // Publisher-only announcement so clients keep fresh <n_L, t_L> and
        // <n_u, t_u> inputs even when the publisher serves no reads.
        let perf = PerfBroadcast {
            read: None,
            publisher: Some(shell.publisher_info(now)),
        };
        shell.broadcast_perf(perf, out);
        shell.arm_lazy(out);
    }

    fn on_watchdog(&mut self, now: SimTime, out: &mut Vec<ServerAction>) {
        self.discipline.on_watchdog(&mut self.shell, now, out);
    }

    fn on_view(&mut self, view: Rc<View>, now: SimTime, out: &mut Vec<ServerAction>) {
        let Self { shell, discipline } = self;
        let (view_id, members) = (view.id.0, view.members().len() as u64);
        shell
            .obs
            .emit(now, shell.me, || ObsEvent::ViewChange { view_id, members });
        let mut old_primary = None;
        if view.group == PRIMARY_GROUP {
            let was_publisher = shell.is_publisher();
            let old = std::mem::replace(&mut shell.primary_view, view);
            discipline.primary_view_changed(shell, &old, now, out);
            if shell.is_publisher() && !was_publisher {
                // Freshly designated publisher: start a new lazy period.
                shell.updates_since_lazy = 0;
                shell.publisher_lazy_at = now;
                shell.rate_acc_since = now;
                shell.rate_acc_updates = 0;
                shell.arm_lazy(out);
            }
            old_primary = Some(old);
        } else if view.group == SECONDARY_GROUP {
            shell.secondary_view = view;
        }
        discipline.view_installed(shell, old_primary.as_deref(), now, out);
    }

    fn is_sequencer(&self) -> bool {
        self.discipline.is_sequencer(&self.shell)
    }

    fn is_publisher(&self) -> bool {
        self.shell.is_publisher()
    }

    fn csn(&self) -> u64 {
        self.discipline.position().csn
    }

    fn applied_csn(&self) -> u64 {
        self.discipline.position().applied_csn
    }

    fn gsn(&self) -> u64 {
        self.discipline.position().gsn
    }

    fn is_synced(&self) -> bool {
        self.shell.synced
    }

    fn stats(&self) -> ServerStats {
        self.shell.stats
    }

    fn set_obs(&mut self, obs: ObsHandle) {
        self.shell.obs = obs;
    }

    fn crash_storage(&mut self) {
        if let Some(d) = self.shell.durability.as_mut() {
            d.crash();
        }
    }
}

#[cfg(test)]
mod tests {
    //! Shell behaviour that no ordering discipline can change, exercised
    //! under the simplest one. What a discipline *can* change is checked
    //! for all three by [`conformance`].

    use super::conformance::{a, config, feed, gw, pview, register, sink, t, Fixture};
    use super::*;
    use crate::fifo::Fifo;

    fn lazy_arms(actions: &[ServerAction]) -> usize {
        actions
            .iter()
            .filter(|x| matches!(x, ServerAction::ArmLazyTimer { .. }))
            .count()
    }

    #[test]
    fn queue_bound_sheds_with_busy() {
        let mut config = config();
        config.overload = true;
        let bound = QUEUE_BOUND as u64;
        let mut p = gw::<Fifo>(1, config);
        let mut actions = Vec::new();
        for n in 0..bound {
            feed(&mut p, Fifo::update(n), t(0), &mut actions);
        }
        assert_eq!(p.shell.queue_depth() as u64, bound);
        let shed = sink(|out| feed(&mut p, Fifo::read(100, 1000, 0), t(1), out));
        assert_eq!(
            shed,
            [ServerAction::SendDirect {
                to: a(20),
                payload: Payload::Busy {
                    req: conformance::request(100)
                },
            }]
        );
        assert_eq!(p.stats().shed_reads, 1);
        assert_eq!(p.stats().reads_deferred, 0, "shed, not parked");
        assert_eq!(p.shell.queue_depth() as u64, bound, "nor queued");
    }

    #[test]
    fn lazy_timer_never_double_armed() {
        // Restart and view-change handling may both want a timer.
        let mut p = gw::<Fifo>(2, config());
        assert_eq!(lazy_arms(&sink(|out| p.on_start(t(0), out))), 1);
        assert_eq!(
            lazy_arms(&sink(|out| p.on_restart(register(), t(10), out))),
            1
        );
        let shrunk = Rc::new(pview().successor(&[a(1)], &[]).unwrap());
        let again = sink(|out| p.on_view(shrunk, t(20), out));
        assert_eq!(lazy_arms(&again), 0, "still the publisher, still armed");
        // The tick consumes the armed timer and arms exactly the next one.
        assert_eq!(lazy_arms(&sink(|out| p.on_lazy_timer(t(2010), out))), 1);
        // A freshly designated publisher arms once, however many views
        // follow.
        let mut q = gw::<Fifo>(1, config());
        assert_eq!(lazy_arms(&sink(|out| q.on_start(t(0), out))), 0);
        let promoted = pview().successor(&[a(2)], &[]).unwrap();
        let next = promoted.successor(&[a(0)], &[]).unwrap();
        assert_eq!(
            lazy_arms(&sink(|out| q.on_view(Rc::new(promoted), t(5), out))),
            1
        );
        assert_eq!(
            lazy_arms(&sink(|out| q.on_view(Rc::new(next), t(6), out))),
            0
        );
    }

    /// A restarted replica used to drop out of the trace unless it had a
    /// durability sidecar: the state wipe took the obs handle with it.
    #[test]
    fn diskless_restart_stays_in_trace() {
        let mut p = gw::<Fifo>(1, config());
        assert!(p.durability().is_none());
        let obs = ObsHandle::enabled();
        p.set_obs(obs.clone());
        p.on_restart(register(), t(100), &mut Vec::new());
        let _ = obs.take_report();
        let shrunk = Rc::new(pview().successor(&[a(2)], &[]).unwrap());
        let mut actions = Vec::new();
        p.on_view(shrunk, t(200), &mut actions);
        feed(&mut p, Fifo::update(0), t(300), &mut actions);
        let _ = conformance::drain(&mut p, &mut actions, t(300));
        let report = obs.take_report().expect("enabled handle");
        let emitted = |wanted: fn(&ObsEvent) -> bool| {
            report
                .records
                .iter()
                .any(|r| r.actor == a(1) && wanted(&r.event))
        };
        assert!(emitted(|e| matches!(e, ObsEvent::ViewChange { .. })));
        assert!(emitted(|e| matches!(e, ObsEvent::ServiceDone { .. })));
    }
}
