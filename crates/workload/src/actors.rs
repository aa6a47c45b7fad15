//! Host actors embedding the gateways into the discrete-event simulator.

use crate::config::{ObjectKind, OpPattern};
use aqf_core::client::{ClientAction, ClientGateway, TimerPurpose};
use aqf_core::protocol::ServerProtocol;
use aqf_core::shell::ServerAction;
use aqf_core::wire::RequestId;
use aqf_core::{
    AccountBook, Method, Operation, Payload, QosSpec, ReplicatedObject, ResponseInfo,
    SharedDocument, TickerBoard, VersionedRegister, PRIMARY_GROUP, SECONDARY_GROUP,
};
use aqf_group::{Envelope, GroupEndpoint, GroupEvent, GroupId};
use aqf_sim::{Actor, ActorId, Context, DelayModel, FastMap, SimDuration, SimTime, Timer, TimerId};
use aqf_stats::Summary;
use rand::Rng;
use std::collections::BTreeMap;

/// The world message type: group-layer envelopes carrying gateway payloads.
pub type NetMsg = Envelope<Payload>;

// Host timer kinds (must stay below aqf_group::GROUP_TIMER_KIND_BASE).
const SERVICE_TIMER: u32 = 1;
const LAZY_TIMER: u32 = 2;
const GATEWAY_TIMER: u32 = 3;
const REQUEST_TIMER: u32 = 4;
const WATCHDOG_TIMER: u32 = 5;

/// Every replica's service time: the paper's simulated background load,
/// "normally distributed" with mean 100 ms and spread 50 ms (§6).
pub const SERVICE_DELAY: DelayModel = DelayModel::normal_ms(100.0, 50.0);

impl ObjectKind {
    /// Instantiates a fresh object of this kind.
    pub fn make(self) -> Box<dyn ReplicatedObject> {
        match self {
            ObjectKind::Register => Box::new(VersionedRegister::new()),
            ObjectKind::Document => Box::new(SharedDocument::new()),
            ObjectKind::Ticker => Box::new(TickerBoard::new()),
            ObjectKind::Bank => Box::new(AccountBook::new()),
        }
    }

    /// Builds the `seq`-th update operation of client `client` for this
    /// kind. Bank clients transact on their own account, so their updates
    /// commute across clients (the FIFO handler's workload class).
    pub fn write_op(self, client: u64, seq: u64) -> Operation {
        match self {
            ObjectKind::Register => {
                Operation::new(Method::Set, format!("value-{client}-{seq}").into_bytes())
            }
            ObjectKind::Document => {
                Operation::new(Method::Append, format!("line {client}-{seq}").into_bytes())
            }
            ObjectKind::Ticker => {
                Operation::new(Method::Quote, TickerBoard::encode_quote("ACME", 1000 + seq))
            }
            ObjectKind::Bank => {
                let account = format!("acct-{client}");
                if seq % 3 == 2 {
                    Operation::new(Method::Withdraw, AccountBook::encode_tx(&account, 40))
                } else {
                    Operation::new(Method::Deposit, AccountBook::encode_tx(&account, 100))
                }
            }
        }
    }

    /// Builds a read operation of client `client` for this kind.
    pub fn read_op(self, client: u64) -> Operation {
        match self {
            ObjectKind::Register => Operation::new(Method::Get, Vec::new()),
            ObjectKind::Document => Operation::new(Method::Fetch, Vec::new()),
            ObjectKind::Ticker => Operation::new(Method::Price, b"ACME".to_vec()),
            ObjectKind::Bank => {
                Operation::new(Method::Balance, format!("acct-{client}").into_bytes())
            }
        }
    }
}

/// A replica host: group endpoint + server gateway, serving each request
/// for a [`SERVICE_DELAY`] draw.
/// The gateway is any timed-consistency handler implementing
/// [`ServerProtocol`] (sequential, causal or FIFO).
pub struct ReplicaActor {
    ep: GroupEndpoint<Payload>,
    gw: Box<dyn ServerProtocol>,
    /// The sink every gateway callback appends its actions to: retained
    /// across callbacks, so the action list costs no allocation per event.
    actions: Vec<ServerAction>,
    object_kind: ObjectKind,
    service_timers: FastMap<TimerId, u64>,
    /// The pending watchdog timer, if the gateway armed one.
    watchdog: Option<TimerId>,
    /// Observer rosters per group, consulted when the gateway asks to join
    /// a group it only observed so far (promotion): should this replica
    /// ever lead that group, these are the non-members it announces views
    /// to.
    group_observers: BTreeMap<GroupId, Vec<ActorId>>,
}

impl ReplicaActor {
    /// Creates a replica host.
    pub fn new(
        ep: GroupEndpoint<Payload>,
        gw: Box<dyn ServerProtocol>,
        object_kind: ObjectKind,
    ) -> Self {
        Self {
            ep,
            gw,
            actions: Vec::new(),
            object_kind,
            service_timers: FastMap::default(),
            watchdog: None,
            group_observers: BTreeMap::new(),
        }
    }

    /// Registers the per-group observer rosters used for promotion joins.
    pub fn with_group_observers(mut self, observers: BTreeMap<GroupId, Vec<ActorId>>) -> Self {
        self.group_observers = observers;
        self
    }

    /// The server gateway (post-run inspection).
    pub fn gateway(&self) -> &dyn ServerProtocol {
        &*self.gw
    }

    /// Installs an observability handle into the hosted gateway.
    pub fn set_obs(&mut self, obs: aqf_core::ObsHandle) {
        self.gw.set_obs(obs);
    }

    /// The group endpoint (post-run inspection: transport and membership
    /// counters).
    pub fn endpoint(&self) -> &GroupEndpoint<Payload> {
        &self.ep
    }

    /// Runs one gateway callback against the retained sink, then executes
    /// what it appended.
    fn drive(
        &mut self,
        ctx: &mut Context<'_, NetMsg>,
        callback: impl FnOnce(&mut dyn ServerProtocol, SimTime, &mut Vec<ServerAction>),
    ) {
        let mut actions = std::mem::take(&mut self.actions);
        callback(&mut *self.gw, ctx.now(), &mut actions);
        for action in actions.drain(..) {
            match action {
                ServerAction::MulticastPrimary(p) => self.ep.multicast(PRIMARY_GROUP, p, ctx),
                ServerAction::MulticastSecondary(p) => self.ep.multicast(SECONDARY_GROUP, p, ctx),
                ServerAction::SendDirect { to, payload } => self.ep.send_direct(to, payload, ctx),
                ServerAction::StartService { token } => {
                    self.gw.on_service_start(token, ctx.now());
                    // A gray-degraded machine is slow end to end: its
                    // service times stretch along with its link delays.
                    let factor = ctx.degrade_factor();
                    let mut delay = SERVICE_DELAY.sample(ctx.rng());
                    if factor > 1.0 {
                        delay = SimDuration::from_secs_f64(delay.as_secs_f64() * factor);
                    }
                    let id = ctx.set_timer(SERVICE_TIMER, delay);
                    self.service_timers.insert(id, token);
                }
                ServerAction::ArmLazyTimer { after } => {
                    ctx.set_timer(LAZY_TIMER, after);
                }
                ServerAction::ArmWatchdog { after } => {
                    if let Some(pending) = self.watchdog.take() {
                        ctx.cancel_timer(pending);
                    }
                    self.watchdog = Some(ctx.set_timer(WATCHDOG_TIMER, after));
                }
                ServerAction::JoinGroup { group } => {
                    let observers = self
                        .group_observers
                        .get(&group)
                        .cloned()
                        .unwrap_or_default();
                    self.ep.begin_join(group, observers, ctx);
                }
                ServerAction::LeaveGroup { group } => self.ep.leave(group, ctx),
            }
        }
        self.actions = actions;
    }

    fn absorb(&mut self, events: Vec<GroupEvent<Payload>>, ctx: &mut Context<'_, NetMsg>) {
        for ev in events {
            match ev {
                GroupEvent::Delivered {
                    sender, payload, ..
                }
                | GroupEvent::Direct { sender, payload } => {
                    self.drive(ctx, |gw, now, out| gw.on_payload(sender, payload, now, out));
                }
                GroupEvent::ViewChanged { view, .. } => {
                    self.drive(ctx, |gw, now, out| gw.on_view(view, now, out));
                }
            }
        }
    }
}

impl Actor<NetMsg> for ReplicaActor {
    fn on_start(&mut self, ctx: &mut Context<'_, NetMsg>) {
        self.ep.on_start(ctx);
        self.drive(ctx, |gw, now, out| gw.on_start(now, out));
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, NetMsg>) {
        self.ep.on_restart(ctx);
        self.service_timers.clear();
        // The crash boundary comes first: the disk takes its damage (lost
        // unsynced writes, possible torn tail), and whatever survived is
        // what the gateway's restart path gets to replay.
        self.gw.crash_storage();
        let fresh = self.object_kind.make();
        self.drive(ctx, |gw, now, out| gw.on_restart(fresh, now, out));
    }

    fn on_message(&mut self, from: ActorId, msg: NetMsg, ctx: &mut Context<'_, NetMsg>) {
        let events = self.ep.handle_message(from, msg, ctx);
        self.absorb(events, ctx);
    }

    fn on_timer(&mut self, timer: Timer, ctx: &mut Context<'_, NetMsg>) {
        if let Some(events) = self.ep.handle_timer(timer, ctx) {
            self.absorb(events, ctx);
            return;
        }
        match timer.kind {
            SERVICE_TIMER => {
                if let Some(token) = self.service_timers.remove(&timer.id) {
                    self.drive(ctx, |gw, now, out| gw.on_service_done(token, now, out));
                }
            }
            LAZY_TIMER => self.drive(ctx, |gw, now, out| gw.on_lazy_timer(now, out)),
            WATCHDOG_TIMER => self.drive(ctx, |gw, now, out| gw.on_watchdog(now, out)),
            _ => {}
        }
    }
}

/// Aggregated per-client observations collected during a run.
#[derive(Debug, Clone, Default)]
pub struct ClientRecord {
    /// Completions delivered (reads + updates), including timeouts.
    pub completed: u64,
    /// Read completions.
    pub reads_completed: u64,
    /// Read completions that were deferred reads.
    pub deferred_reads: u64,
    /// Requests that hit the give-up window.
    pub timeouts: u64,
    /// QoS-violation callbacks received.
    pub alerts: u64,
    /// Timely, immediate (non-deferred) read responses whose staleness
    /// exceeded the client's threshold — the consistency contract says this
    /// must be 0. Late responses are timing failures, not staleness
    /// violations: the paper's bound is conditional on timeliness.
    pub staleness_violations: u64,
    /// End-to-end read response times (ms).
    pub read_response_ms: Summary,
    /// End-to-end update response times (ms).
    pub update_response_ms: Summary,
    /// Staleness (versions) of delivered read responses.
    pub response_staleness: Summary,
    /// Reads the degradation controller rejected locally (no replica
    /// contacted; excluded from the response-time/staleness summaries).
    pub local_sheds: u64,
    /// Graceful-degradation level transitions surfaced by the gateway.
    pub overload_transitions: u64,
}

/// A client host: issues the configured workload through its gateway.
pub struct ClientActor {
    ep: GroupEndpoint<Payload>,
    gw: ClientGateway,
    /// The sink every gateway callback appends its actions to: retained
    /// across callbacks, so the action list costs no allocation per event.
    actions: Vec<ClientAction>,
    qos: QosSpec,
    pattern: OpPattern,
    request_delay: SimDuration,
    start_offset: SimDuration,
    total_requests: u64,
    object_kind: ObjectKind,
    issued: u64,
    writes_issued: u64,
    timers: FastMap<TimerId, (RequestId, TimerPurpose, u32)>,
    record: ClientRecord,
    done: bool,
}

impl ClientActor {
    /// Creates a client host.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        ep: GroupEndpoint<Payload>,
        gw: ClientGateway,
        qos: QosSpec,
        pattern: OpPattern,
        request_delay: SimDuration,
        start_offset: SimDuration,
        total_requests: u64,
        object_kind: ObjectKind,
    ) -> Self {
        Self {
            ep,
            gw,
            actions: Vec::new(),
            qos,
            pattern,
            request_delay,
            start_offset,
            total_requests,
            object_kind,
            issued: 0,
            writes_issued: 0,
            timers: FastMap::default(),
            record: ClientRecord::default(),
            done: false,
        }
    }

    /// Whether the client has issued and resolved its full workload.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// The client gateway (post-run inspection: detector, repository,
    /// stats).
    pub fn gateway(&self) -> &ClientGateway {
        &self.gw
    }

    /// The collected observations.
    pub fn record(&self) -> &ClientRecord {
        &self.record
    }

    /// Installs an observability handle into the hosted gateway.
    pub fn set_obs(&mut self, obs: aqf_core::ObsHandle) {
        self.gw.set_obs(obs);
    }

    fn next_is_read(&mut self, ctx: &mut Context<'_, NetMsg>) -> bool {
        match self.pattern {
            OpPattern::AlternatingWriteRead => self.issued % 2 == 1, // write first
            OpPattern::ReadOnly => true,
            OpPattern::WriteOnly | OpPattern::WriteBurst(_) => false,
            OpPattern::ReadFraction(f) => ctx.rng().gen_bool(f.clamp(0.0, 1.0)),
        }
    }

    /// Delay before the next request: bursty writers fire back-to-back
    /// within a burst and pause for the request delay between bursts.
    fn next_request_delay(&self) -> SimDuration {
        match self.pattern {
            OpPattern::WriteBurst(n) => {
                if !self.issued.is_multiple_of(n as u64) {
                    SimDuration::from_millis(20)
                } else {
                    self.request_delay
                }
            }
            _ => self.request_delay,
        }
    }

    fn issue_next(&mut self, ctx: &mut Context<'_, NetMsg>) {
        if self.issued >= self.total_requests {
            self.done = true;
            return;
        }
        let is_read = self.next_is_read(ctx);
        self.issued += 1;
        let me = self.gw.me().index() as u64;
        let op = if is_read {
            self.object_kind.read_op(me)
        } else {
            let op = self.object_kind.write_op(me, self.writes_issued);
            self.writes_issued += 1;
            op
        };
        let qos = self.qos;
        self.drive(ctx, |gw, now, out| {
            if is_read {
                gw.submit_read(op, qos, now, out);
            } else {
                gw.submit_update(op, now, out);
            }
        });
    }

    fn on_completed(&mut self, info: ResponseInfo, ctx: &mut Context<'_, NetMsg>) {
        self.record.completed += 1;
        if info.shed {
            // Locally rejected by the degradation controller: no replica
            // was contacted, so there is no response time or staleness to
            // record — just keep the closed loop going.
            self.record.local_sheds += 1;
            ctx.set_timer(REQUEST_TIMER, self.next_request_delay());
            return;
        }
        let ms = info.response_time.as_micros() as f64 / 1e3;
        match info.kind {
            aqf_core::OperationKind::ReadOnly => {
                self.record.reads_completed += 1;
                self.record.read_response_ms.record(ms);
                self.record.response_staleness.record(info.staleness as f64);
                if info.deferred {
                    self.record.deferred_reads += 1;
                } else if info.timely
                    && !info.degraded
                    && info.staleness > self.qos.staleness_threshold as u64
                {
                    // The paper's guarantee is conditional on timeliness:
                    // only responses that met the deadline are audited
                    // against the staleness bound. Degraded reads ran under
                    // a ladder-widened threshold and are audited against
                    // that, not the original spec.
                    self.record.staleness_violations += 1;
                }
            }
            aqf_core::OperationKind::Update => {
                self.record.update_response_ms.record(ms);
            }
        }
        if info.timed_out {
            self.record.timeouts += 1;
        }
        // "Request delay ... before a client issues its next request after
        // completion of its previous request" (§6).
        ctx.set_timer(REQUEST_TIMER, self.next_request_delay());
    }

    /// Runs one gateway callback against the retained sink, then executes
    /// what it appended.
    fn drive(
        &mut self,
        ctx: &mut Context<'_, NetMsg>,
        callback: impl FnOnce(&mut ClientGateway, SimTime, &mut Vec<ClientAction>),
    ) {
        let mut actions = std::mem::take(&mut self.actions);
        callback(&mut self.gw, ctx.now(), &mut actions);
        for action in actions.drain(..) {
            match action {
                ClientAction::MulticastPrimary(p) => self.ep.multicast(PRIMARY_GROUP, p, ctx),
                ClientAction::SendDirect { to, payload } => self.ep.send_direct(to, payload, ctx),
                ClientAction::ArmTimer {
                    req,
                    purpose,
                    attempt,
                    after,
                } => {
                    let id = ctx.set_timer(GATEWAY_TIMER, after);
                    self.timers.insert(id, (req, purpose, attempt));
                }
                ClientAction::Completed(info) => self.on_completed(info, ctx),
                ClientAction::QosAlert { .. } => self.record.alerts += 1,
                ClientAction::Degrade { .. } => self.record.overload_transitions += 1,
            }
        }
        self.actions = actions;
    }

    fn absorb(&mut self, events: Vec<GroupEvent<Payload>>, ctx: &mut Context<'_, NetMsg>) {
        for ev in events {
            match ev {
                GroupEvent::Delivered {
                    sender, payload, ..
                }
                | GroupEvent::Direct { sender, payload } => {
                    self.drive(ctx, |gw, now, out| gw.on_payload(sender, payload, now, out));
                }
                GroupEvent::ViewChanged { view, .. } => {
                    self.drive(ctx, |gw, now, out| gw.on_view(view, now, out));
                }
            }
        }
    }
}

impl Actor<NetMsg> for ClientActor {
    fn on_start(&mut self, ctx: &mut Context<'_, NetMsg>) {
        self.ep.on_start(ctx);
        ctx.set_timer(REQUEST_TIMER, self.start_offset);
    }

    fn on_message(&mut self, from: ActorId, msg: NetMsg, ctx: &mut Context<'_, NetMsg>) {
        let events = self.ep.handle_message(from, msg, ctx);
        self.absorb(events, ctx);
    }

    fn on_timer(&mut self, timer: Timer, ctx: &mut Context<'_, NetMsg>) {
        if let Some(events) = self.ep.handle_timer(timer, ctx) {
            self.absorb(events, ctx);
            return;
        }
        match timer.kind {
            GATEWAY_TIMER => {
                if let Some((req, purpose, attempt)) = self.timers.remove(&timer.id) {
                    self.drive(ctx, |gw, now, out| {
                        gw.on_timer(req, purpose, attempt, now, out)
                    });
                }
            }
            REQUEST_TIMER => self.issue_next(ctx),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_pacing_alternates_short_and_long_gaps() {
        use aqf_core::client::ClientConfig;
        use aqf_core::ClientGateway;
        use aqf_core::{PRIMARY_GROUP, SECONDARY_GROUP};
        use aqf_group::endpoint::GroupMembership;
        use aqf_group::{EndpointConfig, GroupEndpoint, View, ViewId};

        let me = ActorId::from_index(9);
        let pview = View::new(PRIMARY_GROUP, ViewId(0), vec![ActorId::from_index(0)]);
        let sview = View::new(SECONDARY_GROUP, ViewId(0), vec![ActorId::from_index(1)]);
        let ep = GroupEndpoint::new(
            me,
            EndpointConfig::default(),
            vec![],
            vec![pview.clone(), sview.clone()],
        );
        let gw = ClientGateway::new(me, pview, sview, ClientConfig::default());
        let mut client = ClientActor::new(
            ep,
            gw,
            QosSpec::new(2, SimDuration::from_millis(100), 0.5).unwrap(),
            OpPattern::WriteBurst(3),
            SimDuration::from_millis(5000),
            SimDuration::ZERO,
            9,
            ObjectKind::Bank,
        );
        // Simulate the issue counter and check pacing decisions.
        let mut gaps = Vec::new();
        for issued in 1..=9u64 {
            client.issued = issued;
            gaps.push(client.next_request_delay());
        }
        let short = SimDuration::from_millis(20);
        let long = SimDuration::from_millis(5000);
        assert_eq!(
            gaps,
            vec![short, short, long, short, short, long, short, short, long]
        );
        let _ = GroupMembership {
            view: View::new(PRIMARY_GROUP, ViewId(0), vec![me]),
            observers: vec![],
        };
    }

    #[test]
    fn object_kinds_build_ops() {
        for kind in [
            ObjectKind::Register,
            ObjectKind::Document,
            ObjectKind::Ticker,
            ObjectKind::Bank,
        ] {
            let mut obj = kind.make();
            let mut scratch = bytes::BytesMut::new();
            let ack = obj.apply_update(&kind.write_op(7, 0), &mut scratch);
            assert!(!ack.is_empty());
            let _ = obj.read(&kind.read_op(7), &mut scratch);
            let snap = obj.snapshot();
            let mut other = kind.make();
            other.install_snapshot(&snap);
            assert_eq!(other.snapshot(), snap);
        }
    }
}
