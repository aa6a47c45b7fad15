//! One conformance suite for the replica shell under every ordering
//! discipline.
//!
//! Each check is written once, against a [`Fixture`]: the payload scripts
//! that make a given discipline commit an update, admit a read or install a
//! lazy update. The discipline modules instantiate the checks by name in
//! their own test modules, so a failure says which discipline broke.

use super::*;
use crate::causal::Causal;
use crate::fifo::Fifo;
use crate::object::VersionedRegister;
use crate::protocol::drive_service;
use crate::server::Sequential;
use crate::wire::{CausalStamp, Method};
use aqf_group::ViewId;

pub(crate) fn a(i: usize) -> ActorId {
    ActorId::from_index(i)
}

pub(crate) fn t(ms: u64) -> SimTime {
    SimTime::from_millis(ms)
}

// Roster: 0 = primary leader (the sequencer, where there is one), 1, 2 =
// primaries (2 publishes), 10, 11 = secondaries, 20, 21 = clients.
pub(crate) fn pview() -> View {
    View::new(PRIMARY_GROUP, ViewId(0), vec![a(0), a(1), a(2)])
}

pub(crate) fn sview() -> View {
    View::new(SECONDARY_GROUP, ViewId(0), vec![a(10), a(11)])
}

pub(crate) fn config() -> ServerConfig {
    ServerConfig {
        clients: vec![a(20)],
        ..ServerConfig::default()
    }
}

pub(crate) fn durable_config() -> ServerConfig {
    ServerConfig {
        storage: StorageConfig {
            seed: 99,
            ..StorageConfig::durable()
        },
        ..config()
    }
}

/// Replica `i` of the roster, hosting a versioned register.
pub(crate) fn gw<D: Discipline>(i: usize, config: ServerConfig) -> Replica<D> {
    Replica::new(
        a(i),
        pview(),
        sview(),
        Box::new(VersionedRegister::new()),
        config,
    )
}

pub(crate) fn register() -> Box<dyn ReplicatedObject> {
    Box::new(VersionedRegister::new())
}

/// What one callback appends to a fresh sink.
pub(crate) fn sink(callback: impl FnOnce(&mut Vec<ServerAction>)) -> Vec<ServerAction> {
    let mut out = Vec::new();
    callback(&mut out);
    out
}

/// Services everything startable in `actions`, 5 ms a unit.
pub(crate) fn drain(
    gw: &mut dyn ServerProtocol,
    actions: &mut Vec<ServerAction>,
    now: SimTime,
) -> SimTime {
    drive_service(gw, actions, now, SimDuration::from_millis(5))
}

/// The replies among `actions`, with their recipients.
pub(crate) fn replies(actions: &[ServerAction]) -> impl Iterator<Item = (ActorId, &Reply)> {
    actions.iter().filter_map(|x| match x {
        ServerAction::SendDirect {
            to,
            payload: Payload::Reply(r),
        } => Some((*to, r)),
        _ => None,
    })
}

pub(crate) fn sends_state_request(actions: &[ServerAction]) -> bool {
    actions.iter().any(|x| {
        matches!(
            x,
            ServerAction::SendDirect {
                payload: Payload::StateRequest,
                ..
            }
        )
    })
}

/// The donors `actions` ask for a state or delta transfer, in order.
fn transfer_requests(actions: &[ServerAction]) -> Vec<ActorId> {
    let asks = |p: &Payload| matches!(p, Payload::StateRequest | Payload::DeltaRequest { .. });
    actions
        .iter()
        .filter_map(|x| match x {
            ServerAction::SendDirect { to, payload } if asks(payload) => Some(*to),
            _ => None,
        })
        .collect()
}

fn take_start(actions: &mut Vec<ServerAction>) -> u64 {
    let pos = actions
        .iter()
        .position(|x| matches!(x, ServerAction::StartService { .. }))
        .expect("a unit of work was started");
    let ServerAction::StartService { token } = actions.remove(pos) else {
        unreachable!()
    };
    token
}

pub(crate) fn request(seq: u64) -> RequestId {
    RequestId { client: a(20), seq }
}

fn set(n: u64) -> UpdateRequest {
    UpdateRequest {
        id: request(n),
        op: Operation::new(Method::Set, format!("v{n}").into_bytes()),
        attempt: 1,
    }
}

fn get(seq: u64, staleness_threshold: u32) -> ReadRequest {
    ReadRequest {
        id: request(seq),
        op: Operation::new(Method::Get, vec![]),
        staleness_threshold,
        deadline_us: 0,
        attempt: 1,
        deps: Vec::new(),
    }
}

/// The register state after `n` updates.
fn register_at(n: u64) -> bytes::Bytes {
    let mut reg = VersionedRegister::new();
    for i in 0..n {
        reg.apply_update(&set(i).op, &mut bytes::BytesMut::new());
    }
    reg.snapshot()
}

/// What it takes to order a request under one discipline, as `(sender,
/// payload)` deliveries at a non-leader replica.
pub(crate) trait Fixture: Discipline {
    /// Client 20's `n`-th update (0-based), through to its commit point.
    fn update(n: u64) -> Vec<(ActorId, Payload)> {
        vec![(a(20), Payload::Update(set(n), None))]
    }
    /// A read by client 20 arriving while the primary group is at version
    /// `world` (disciplines without a sequencer cannot know, and estimate).
    fn read(seq: u64, staleness_threshold: u32, _world: u64) -> Vec<(ActorId, Payload)> {
        vec![(a(20), Payload::Read(get(seq, staleness_threshold)))]
    }
}

/// The lazy update a publisher multicasts after `version` updates, all of
/// them client 20's.
fn lazy(version: u64, snapshot: bytes::Bytes, rate_per_us: f64) -> Payload {
    Payload::LazyUpdate {
        version,
        vector: vec![(a(20), version)],
        snapshot,
        rate_per_us,
    }
}

impl Fixture for Sequential {
    fn update(n: u64) -> Vec<(ActorId, Payload)> {
        let assign = Payload::GsnAssign {
            req: request(n),
            gsn: n + 1,
        };
        vec![(a(20), Payload::Update(set(n), None)), (a(0), assign)]
    }

    fn read(seq: u64, staleness_threshold: u32, world: u64) -> Vec<(ActorId, Payload)> {
        let snapshot = Payload::GsnSnapshot {
            req: request(seq),
            gsn: world,
        };
        let read = Payload::Read(get(seq, staleness_threshold));
        vec![(a(0), snapshot), (a(20), read)]
    }
}

impl Fixture for Fifo {}

impl Fixture for Causal {
    fn update(n: u64) -> Vec<(ActorId, Payload)> {
        let stamp = CausalStamp {
            update_seq: n,
            deps: Vec::new(),
        };
        vec![(a(20), Payload::Update(set(n), Some(stamp)))]
    }
}

/// Delivers a [`Fixture`] script.
pub(crate) fn feed<D: Discipline>(
    gw: &mut Replica<D>,
    script: Vec<(ActorId, Payload)>,
    now: SimTime,
    out: &mut Vec<ServerAction>,
) {
    for (from, payload) in script {
        gw.on_payload(from, payload, now, out);
    }
}

/// Regression: the first service-time sample must seed the EWMA directly.
/// Folding it into the zero initial average would start the estimate at
/// `sample/8` and take many requests to warm up, blinding deadline-aware
/// shedding exactly when a burst arrives on a cold server.
pub(crate) fn ewma_seeds_with_first_sample<D: Fixture>() {
    let mut p = gw::<D>(1, config());
    p.shell.config.overload = true;
    assert_eq!(p.shell.avg_service_us, 0);
    let mut actions = Vec::new();
    feed(&mut p, D::update(0), t(0), &mut actions);
    let token = take_start(&mut actions);
    p.on_service_start(token, t(0));
    p.on_service_done(token, t(10), &mut actions);
    assert_eq!(
        p.shell.avg_service_us, 10_000,
        "first sample seeds the average"
    );
    // Later samples blend 7:1 into the seeded average.
    feed(&mut p, D::update(1), t(20), &mut actions);
    let token = take_start(&mut actions);
    p.on_service_start(token, t(20));
    p.on_service_done(token, t(22), &mut actions);
    assert_eq!(p.shell.avg_service_us, (10_000 * 7 + 2_000) / 8);
}

/// Regression: `deadline_us == 0` is the wire sentinel for "no deadline
/// advertised" and must never be treated as an already-expired deadline
/// by the shedding predicate.
pub(crate) fn zero_deadline_never_sheds_on_deadline_grounds<D: Fixture>() {
    let mut p = gw::<D>(1, config());
    p.shell.config.overload = true;
    p.shell.avg_service_us = 50_000; // hot average: any tight deadline sheds
    assert!(
        !p.shell.should_shed_read(&get(0, 1000)),
        "0 means no deadline, not an expired one"
    );
    let mut tight = get(1, 1000);
    tight.deadline_us = 1;
    assert!(
        p.shell.should_shed_read(&tight),
        "a positive deadline below the backlog estimate must shed"
    );
}

pub(crate) fn service_queue_is_sequential<D: Fixture>() {
    let mut p = gw::<D>(1, config());
    let mut actions = Vec::new();
    for n in 0..3 {
        feed(&mut p, D::update(n), t(0), &mut actions);
    }
    // Only one StartService outstanding at a time.
    let starts = actions
        .iter()
        .filter(|x| matches!(x, ServerAction::StartService { .. }))
        .count();
    assert_eq!(starts, 1);
    let _ = drain(&mut p, &mut actions, t(0));
    assert_eq!(p.applied_csn(), 3);
}

pub(crate) fn stale_secondary_defers_until_lazy_update<D: Fixture>() {
    let mut s = gw::<D>(10, config());
    s.on_start(t(0), &mut Vec::new());
    // The publisher advertises 10 updates/s.
    s.on_payload(a(2), lazy(1, register_at(1), 1e-5), t(0), &mut Vec::new());
    // 2 s later the primary group is (about) 20 versions ahead; a
    // threshold of 3 defers.
    let mut actions = Vec::new();
    feed(&mut s, D::read(0, 3, 21), t(2000), &mut actions);
    assert!(actions.is_empty(), "too stale: defer");
    assert_eq!(s.stats().reads_deferred, 1);
    // The next lazy update releases it.
    s.on_payload(a(2), lazy(20, register_at(20), 1e-5), t(2500), &mut actions);
    assert_eq!(s.csn(), 20);
    assert_eq!(s.stats().lazy_updates_applied, 2);
    let _ = drain(&mut s, &mut actions, t(2500));
    let (_, reply) = replies(&actions).next().expect("deferred read served");
    assert!(reply.deferred);
    // tb = 2500 - 2000 ms, ts = 5 ms.
    assert_eq!(reply.t1_us, SimDuration::from_millis(505).as_micros());
}

pub(crate) fn fresh_secondary_serves_immediately<D: Fixture>() {
    let mut s = gw::<D>(10, config());
    s.on_start(t(0), &mut Vec::new());
    s.on_payload(a(2), lazy(3, register_at(3), 1e-6), t(100), &mut Vec::new());
    let mut actions = Vec::new();
    feed(&mut s, D::read(0, 2, 5), t(200), &mut actions);
    let _ = drain(&mut s, &mut actions, t(200));
    assert_eq!(s.stats().reads_served, 1);
    assert_eq!(s.stats().reads_deferred, 0);
}

pub(crate) fn restart_requests_state_transfer<D: Fixture>() {
    let mut p = gw::<D>(1, config());
    let actions = sink(|out| p.on_restart(register(), t(100), out));
    assert!(actions.iter().any(|x| matches!(
        x,
        ServerAction::SendDirect { to, payload: Payload::StateRequest } if *to == a(0)
    )));
    assert!(!p.is_synced());
    // Reads defer until the transfer lands.
    let mut actions = Vec::new();
    feed(&mut p, D::read(0, 1000, 0), t(101), &mut actions);
    assert!(actions.is_empty());
    assert_eq!(p.stats().reads_deferred, 1);
    // A peer that committed one update serves the transfer.
    let mut donor = gw::<D>(2, config());
    let mut served = Vec::new();
    feed(&mut donor, D::update(0), t(0), &mut served);
    let _ = drain(&mut donor, &mut served, t(0));
    let transfer = sink(|out| donor.on_payload(a(1), Payload::StateRequest, t(200), out));
    let [ServerAction::SendDirect { to, payload }] = &transfer[..] else {
        panic!("donor must answer the state request, got {transfer:?}");
    };
    assert_eq!(*to, a(1));
    assert_eq!(donor.stats().state_transfers, 1);
    p.on_payload(a(2), payload.clone(), t(300), &mut actions);
    assert!(p.is_synced());
    assert_eq!(p.csn(), 1);
    assert_eq!(p.object().snapshot(), donor.object().snapshot());
    let _ = drain(&mut p, &mut actions, t(300));
    assert_eq!(p.stats().reads_served, 1);
}

/// A restarted leader's view still names itself the leader; it asks a
/// peer, and keeps asking peers while nobody answers.
pub(crate) fn restarted_leader_asks_a_peer<D: Fixture>() {
    let stall = COMMIT_STALL_TIMEOUT;
    let mut p = gw::<D>(0, config());
    let mut asked = transfer_requests(&sink(|out| p.on_restart(register(), t(100), out)));
    let mut now = t(100);
    for n in 0..4 {
        now = now + stall + SimDuration::from_millis(1);
        asked.extend(transfer_requests(&sink(|out| {
            feed(&mut p, D::read(n, 1000, 0), now, out);
        })));
    }
    assert_eq!(asked, [a(1), a(2), a(1), a(2), a(1)]);
}

/// Nobody answers a restarted replica's request: any payload arriving a
/// stall timeout after it asks the next donor, whatever the role.
pub(crate) fn unsynced_replica_re_requests_from_the_next_donor<D: Fixture>() {
    let stall = COMMIT_STALL_TIMEOUT;
    // A primary's donors are its peers; a secondary's, the primary view.
    for (i, donors) in [(1, [a(0), a(2)]), (10, [a(0), a(1)])] {
        let mut p = gw::<D>(i, config());
        let first = sink(|out| p.on_restart(register(), t(100), out));
        assert_eq!(transfer_requests(&first), [donors[0]], "replica {i}");
        let early = sink(|out| feed(&mut p, D::read(0, 1000, 0), t(100) + stall, out));
        assert_eq!(transfer_requests(&early), [], "replica {i}: too early");
        let late = t(100) + stall + SimDuration::from_millis(1);
        let again = sink(|out| feed(&mut p, D::read(1, 1000, 0), late, out));
        assert_eq!(transfer_requests(&again), [donors[1]], "replica {i}");
        assert!(!p.is_synced());
    }
}

/// A restarted secondary whose state the publisher has not moved past is
/// current: a lazy update no newer than its position still syncs it and
/// releases the reads it deferred meanwhile.
pub(crate) fn stale_lazy_update_still_syncs<D: Fixture>() {
    let mut s = gw::<D>(10, config());
    s.on_restart(register(), t(100), &mut Vec::new());
    let mut actions = Vec::new();
    feed(&mut s, D::read(0, 1000, 0), t(150), &mut actions);
    assert_eq!(s.stats().reads_deferred, 1, "unsynced: deferred");
    s.on_payload(a(2), lazy(0, register_at(0), 1e-6), t(200), &mut actions);
    assert!(s.is_synced());
    assert_eq!(s.stats().lazy_updates_applied, 0, "nothing to install");
    let _ = drain(&mut s, &mut actions, t(200));
    assert_eq!(s.stats().reads_served, 1);
}

/// Returns the restarted secondary for discipline-specific checks.
pub(crate) fn durable_secondary_persists_lazy_installs<D: Fixture>() -> Replica<D> {
    let mut s = gw::<D>(10, durable_config());
    s.on_start(t(0), &mut Vec::new());
    let snapshot = register_at(7);
    s.on_payload(
        a(2),
        lazy(7, snapshot.clone(), 1e-6),
        t(100),
        &mut Vec::new(),
    );
    assert_eq!(s.stats().snapshots_taken, 1);
    s.crash_storage();
    s.on_restart(register(), t(200), &mut Vec::new());
    assert_eq!(s.csn(), 7, "secondary restarts from its last install");
    assert_eq!(s.object().snapshot(), snapshot);
    s
}

/// Returns the restarted primary for discipline-specific checks.
pub(crate) fn compaction_stages_snapshots_under_load<D: Fixture>() -> Replica<D> {
    let mut config = durable_config();
    config.storage.snapshot_every = 4;
    let mut p = gw::<D>(1, config);
    let mut actions = Vec::new();
    for n in 0..10 {
        feed(&mut p, D::update(n), t(n), &mut actions);
    }
    let now = drain(&mut p, &mut actions, t(20));
    assert!(p.stats().snapshots_taken >= 1);
    p.crash_storage();
    p.on_restart(register(), now, &mut Vec::new());
    assert_eq!(p.csn(), 10, "snapshot + tail replay reach the full state");
    assert!(p.is_synced());
    p
}

pub(crate) fn disabled_storage_has_no_sidecar<D: Fixture>() {
    let mut p = gw::<D>(1, config());
    assert!(
        p.durability().is_none(),
        "default config must stay seedlike"
    );
    let mut actions = Vec::new();
    feed(&mut p, D::update(0), t(0), &mut actions);
    let _ = drain(&mut p, &mut actions, t(0));
    assert_eq!(p.stats().wal_appends, 0);
    p.crash_storage(); // no-op without a sidecar
    p.on_restart(register(), t(5), &mut Vec::new());
    assert!(!p.is_synced());
    assert_eq!(p.stats().replayed_records, 0);
}

pub(crate) fn duplicate_update_answered_from_reply_cache<D: Fixture>() {
    let mut p = gw::<D>(1, config());
    let mut actions = Vec::new();
    feed(&mut p, D::update(0), t(0), &mut actions);
    let _ = drain(&mut p, &mut actions, t(0));
    let (to, first) = replies(&actions).next().expect("update answered");
    assert_eq!(to, a(20));
    // The reply was lost; the client retransmits.
    let again = sink(|out| feed(&mut p, D::update(0), t(50), out));
    let (to, second) = replies(&again).next().expect("answered from the cache");
    assert_eq!((to, second), (a(20), first));
    assert_eq!(p.stats().dedup_hits, 1);
    assert_eq!(p.applied_csn(), 1, "never applied twice");
    assert!(
        !again
            .iter()
            .any(|x| matches!(x, ServerAction::StartService { .. })),
        "a duplicate must not re-enter the service queue"
    );
}
